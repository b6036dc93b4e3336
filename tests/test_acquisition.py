"""Tests for acquisition functions and the inner optimizer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

import bbo
from bbo import acquisition, moo
from bbo.acquisition import (
    _candidate_pool,
    _neighbours,
    _row_keys,
    _rows_in,
    _top,
    _unseen_mask,
    _unseen_rows,
    ehvi,
    ehvi_tables,
    estimate_lipschitz,
    expected_improvement,
    local_penalization,
    maximize_acquisition,
    probability_of_feasibility,
)
from bbo.advisor import Advisor, TaskSpec
from bbo.errors import ExhaustedSpaceError
from bbo.history import Observation, TrialState
from bbo.space import (
    Configuration,
    ParameterSpec,
    SearchSpace,
    decode_codes,
    encode_codes,
    encode_matrix,
    from_codes,
    sample_codes,
    sample_random,
    snap_codes,
    to_codes,
)
from test_moo import inclusion_exclusion_hv


class ConstantModel:
    """Predicts a fixed (mean, variance) everywhere."""

    def __init__(self, mean, var):
        self.mean = mean
        self.var = var

    def predict(self, X):
        n = np.atleast_2d(X).shape[0]
        return np.full(n, self.mean), np.full(n, self.var)


def mc_ei(mean, sigma, eta, n_samples=10**6, seed=0):
    rng = np.random.default_rng(seed)
    draws = rng.normal(mean, sigma, size=n_samples)
    return np.maximum(eta - draws, 0.0).mean()


def loaded_scipy_packages(
    code: str, packages: tuple = ("scipy.stats", "scipy.optimize", "scipy.linalg")
) -> list:
    """Which of ``packages`` (by default scipy.stats, scipy.optimize and
    scipy.linalg) are loaded after running ``code`` in a fresh interpreter
    with this tree's bbo on its path."""
    src = str(Path(bbo.__file__).resolve().parents[1])
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted({'.'.join(k.split('.')[:2]) for k in sys.modules} & "
        f"{set(packages)!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    return json.loads(out.stdout)


def test_import_bbo_leaves_scipy_stats_unloaded():
    # EI and PoF take ndtr from scipy.special, and only `bbo bench` ranks with
    # scipy.stats; importing it would roughly double the time `import bbo`
    # and every `bbo` command take to start. Only the GP needs scipy.optimize
    # and scipy.linalg, which together cost about as much again.
    for module in ("bbo", "bbo.cli"):
        assert loaded_scipy_packages(f"import {module}") == [], module


def test_gp_libraries_load_only_for_gp_plans():
    # a forest run on more than 10 parameters, and its report, need neither
    # scipy.optimize nor scipy.linalg; a GP advisor imports both when built
    prf_run = """
from bbo import TaskSpec, run
from bbo.report import default_analyses
from bbo.space import ParameterSpec, SearchSpace
space = SearchSpace([ParameterSpec(f"x{i}", "float", low=0.0, high=1.0) for i in range(12)])
task = TaskSpec(space, max_runs=9, batch_size=2, seed=3)
result = run(task, lambda c: sum((c[f"x{i}"] - 0.3) ** 2 for i in range(12)))
assert len(result.history) == 9
default_analyses(result.history)
"""
    assert loaded_scipy_packages(prf_run) == []
    gp_advisor = """
from bbo import Advisor, TaskSpec
from bbo.space import ParameterSpec, SearchSpace
advisor = Advisor(TaskSpec(SearchSpace([ParameterSpec("x", "float", low=0.0, high=1.0)])))
assert advisor.plan.surrogate_kind == "GP"
"""
    assert loaded_scipy_packages(gp_advisor) == ["scipy.linalg", "scipy.optimize"]


def test_scipy_special_loads_with_model_based_plans():
    # EI, PoF and local penalization take erfc and ndtr from scipy.special,
    # which would cost most of `import bbo`; a GP or PRF advisor loads it
    # when built, and a random run and its report never do
    special = ("scipy.special",)
    assert loaded_scipy_packages("import bbo.cli", special) == []
    random_run = """
from bbo import TaskSpec, run
from bbo.report import default_analyses
from bbo.space import ParameterSpec, SearchSpace
space = SearchSpace([ParameterSpec("x", "float", low=0.0, high=1.0)])
default_analyses(run(TaskSpec(space, max_runs=6, algorithm="random"), lambda c: c["x"]).history)
"""
    assert loaded_scipy_packages(random_run, special) == []
    for algorithm in ("gp", "prf"):
        advisor = f"""
from bbo import Advisor, TaskSpec
from bbo.space import ParameterSpec, SearchSpace
Advisor(TaskSpec(SearchSpace([ParameterSpec("x", "float", low=0.0, high=1.0)]), algorithm={algorithm!r}))
"""
        assert loaded_scipy_packages(advisor, special) == ["scipy.special"], algorithm


class TestExpectedImprovement:
    def test_zero_variance_at_eta(self):
        assert expected_improvement(1.0, 0.0, 1.0) == 0.0

    def test_matches_monte_carlo(self):
        assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(
            mc_ei(0.0, 1.0, 0.0, 10**7), abs=1e-3
        )
        # the closed-form value at mean=eta, sigma=1 is phi(0) = 0.39894
        assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(0.39894, abs=1e-5)

    def test_tiny_sigma_deterministic_limit(self):
        assert expected_improvement(0.0, 1e-18, 10.0) == pytest.approx(10.0, rel=1e-6)

    def test_monotone_in_mean(self):
        means = np.linspace(-2, 2, 41)
        scores = expected_improvement(means, 1.0, 0.0)
        assert np.all(np.diff(scores) < 0)

    def test_monotone_in_sigma_below_eta(self):
        sigmas = np.linspace(0.1, 3, 30)
        scores = expected_improvement(-0.5, sigmas**2, 0.0)
        assert np.all(np.diff(scores) > 0)


class TestProbabilityOfFeasibility:
    def test_symmetry(self):
        assert probability_of_feasibility(0.0, 1.0) == pytest.approx(0.5)

    def test_three_sigma(self):
        assert probability_of_feasibility(-3.0, 1.0) == pytest.approx(0.99865, abs=1e-5)

    def test_zero_variance_indicator(self):
        assert probability_of_feasibility(-1.0, 0.0) == 1.0
        assert probability_of_feasibility(1.0, 0.0) == 0.0


def both_branches_ei(mean, variance, eta):
    """EI in the form that evaluates both branches everywhere, then selects."""
    mean = np.asarray(mean, dtype=float)
    sigma = np.sqrt(np.maximum(np.asarray(variance, dtype=float), 0.0))
    improve = eta - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0, improve / np.where(sigma > 0, sigma, 1.0), 0.0)
        ei = np.where(
            sigma > 0,
            sigma * (z * ndtr(z) + np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)),
            np.maximum(improve, 0.0),
        )
    return np.maximum(ei, 0.0)


def both_branches_pof(mean, variance):
    mean = np.asarray(mean, dtype=float)
    sigma = np.sqrt(np.maximum(np.asarray(variance, dtype=float), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            sigma > 0, ndtr(-mean / np.where(sigma > 0, sigma, 1.0)), (mean <= 0).astype(float)
        )


class TestBranchSelection:
    """EI and PoF evaluate their Gaussian form only where sigma > 0; every
    element must keep the bits of the form that evaluates both branches."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(1, 90))
            mean = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=n)
            variance = rng.uniform(0.0, 2.0, size=n) * 10.0 ** rng.integers(-20, 3)
            zero = rng.uniform(size=n) < (0.0, 0.1, 0.9, 1.0)[trial % 4]
            variance[zero] = rng.choice([0.0, -1e-12], size=int(zero.sum()))
            yield mean, variance

    def test_ei_bits(self):
        for mean, variance in self.cases():
            for eta in (0.3, np.array([[-1.0], [0.0], [np.inf], [2.5]])):
                got = expected_improvement(mean, variance, eta)
                assert got.tobytes() == both_branches_ei(mean, variance, eta).tobytes()

    def test_pof_bits(self):
        for mean, variance in self.cases():
            got = probability_of_feasibility(mean, variance)
            assert got.tobytes() == both_branches_pof(mean, variance).tobytes()

    def test_scalars_and_broadcasting(self):
        for mean, variance in [(0.2, 0.0), (-0.2, 0.0), (0.2, 0.5), (0.0, np.array([0.0, 1.0]))]:
            for eta in (0.0, 1.0):
                got = expected_improvement(mean, variance, eta)
                want = both_branches_ei(mean, variance, eta)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == want.tobytes()
            got = probability_of_feasibility(mean, variance)
            assert np.shape(got) == np.shape(both_branches_pof(mean, variance))
            assert np.asarray(got).tobytes() == both_branches_pof(mean, variance).tobytes()
        assert isinstance(expected_improvement(0.2, 0.0, 1.0), float)
        assert isinstance(probability_of_feasibility(0.2, 0.0), float)


def advisor_score(objective_model, constraint_models, eta):
    """The advisor's score at the encoded row 0, for a one-objective task with
    one constraint per constraint model, whose incumbent is eta (None: no
    feasible point told yet)."""
    space = SearchSpace([ParameterSpec("x", "float", low=0.0, high=1.0)])
    advisor = Advisor(TaskSpec(space, num_constraints=len(constraint_models)))
    if eta is not None:
        feasible = (-1.0,) * len(constraint_models)
        advisor.tell(Observation(Configuration({"x": 0.5}), (eta,), feasible), external=True)
    score_fn = advisor._score_function([objective_model], constraint_models)
    return float(score_fn(np.zeros((1, 1)))[0])


class TestConstrainedEI:
    """EI times the product of the constraints' probabilities of feasibility."""

    def test_pof_to_one_limit(self):
        plain = expected_improvement(0.0, 1.0, 0.5)
        score = advisor_score(ConstantModel(0.0, 1.0), [ConstantModel(-10.0, 1.0)], 0.5)
        assert 0.999 * plain <= score <= plain

    def test_pof_to_zero_limit(self):
        plain = expected_improvement(0.0, 1.0, 0.5)
        score = advisor_score(ConstantModel(0.0, 1.0), [ConstantModel(10.0, 1.0)], 0.5)
        assert score <= 1e-12 * plain

    def test_product_arithmetic(self):
        # choose constraint predictions with PoF exactly 0.5 each
        constraints = [ConstantModel(0.0, 1.0), ConstantModel(0.0, 1.0)]
        ei = expected_improvement(0.0, 1.0, 0.5)
        score = advisor_score(ConstantModel(0.0, 1.0), constraints, 0.5)
        assert score == pytest.approx(ei * 0.25)

    def test_feasibility_search_mode(self):
        score = advisor_score(ConstantModel(0.0, 1.0), [ConstantModel(-1.0, 1.0)], None)
        assert score == pytest.approx(probability_of_feasibility(-1.0, 1.0))

    def test_never_exceeds_plain_ei(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu, var, eta = rng.normal(), rng.uniform(0.1, 2), rng.normal()
            cmu, cvar = rng.normal(), rng.uniform(0.1, 2)
            score = advisor_score(ConstantModel(mu, var), [ConstantModel(cmu, cvar)], eta)
            assert score <= expected_improvement(mu, var, eta) + 1e-12


def exact_ehvi_2d(front, ref, mu, sigma):
    """Closed-form 2-D EHVI for independent Gaussians over a Pareto-filtered
    front (strip decomposition with exact Gaussian integrals, written out
    per strip rather than as differences of EI), with the zero-variance
    limits at sigma = 0."""
    front = sorted(map(tuple, front))
    a = [p[0] for p in front]
    b = [p[1] for p in front]
    x_lo = [-np.inf] + a
    x_hi = a + [ref[0]]
    height = [ref[1]] + b

    def excess(h, m, s):
        # E[(h - Y)+] for Y ~ N(m, s^2)
        if s == 0:
            return max(h - m, 0.0)
        z = (h - m) / s
        return s * (z * norm.cdf(z) + norm.pdf(z))

    def width(lo, hi, m, s):
        # E[(hi - max(lo, Y))+]
        if s == 0:
            return max(hi - max(lo, m), 0.0)
        alpha = (lo - m) / s if np.isfinite(lo) else -np.inf
        beta = (hi - m) / s
        term1 = 0.0 if not np.isfinite(lo) else (hi - lo) * norm.cdf(alpha)
        phi_a = 0.0 if not np.isfinite(alpha) else norm.pdf(alpha)
        cdf_a = 0.0 if not np.isfinite(alpha) else norm.cdf(alpha)
        return term1 + (hi - m) * (norm.cdf(beta) - cdf_a) + s * (norm.pdf(beta) - phi_a)

    total = 0.0
    for lo, hi, h in zip(x_lo, x_hi, height):
        total += width(lo, hi, mu[0], sigma[0]) * excess(h, mu[1], sigma[1])
    return total


class TableModel:
    """Predicts row i's (mean, variance) at the query row holding i."""

    def __init__(self, mean, var):
        self.mean = mean
        self.var = var

    def predict(self, X):
        rows = np.atleast_2d(X)[:, 0].astype(int)
        return self.mean[rows], self.var[rows]


def staircase(front, ref):
    """Strip decomposition of the region a 2-D front leaves undominated below
    ref: (x_lo, x_hi, height) of k+1 strips, within strip i a new point adds
    area (x_hi - max(x_lo, y1))+ * (height - y2)+."""
    pts = np.empty((0, 2)) if front is None else front[np.all(front <= ref, axis=1)]
    pts = pts[moo._pareto_filter(pts)]
    order = np.argsort(pts[:, 0], kind="stable")
    a = pts[order, 0]
    b = pts[order, 1]
    x_lo = np.concatenate([[-np.inf], a])
    x_hi = np.concatenate([a, [ref[0]]])
    height = np.concatenate([[ref[1]], b])
    return x_lo, x_hi, height


def mc_ehvi(mu, var, front, ref, n_samples, seed):
    """Monte Carlo EHVI and its standard error at each row of (q, m) means
    and variances. Each sample's gain over the front is the volume of
    [y, ref] less the part of it the front dominates, by inclusion-exclusion:
    sum over subsets S of the front of (-1)^|S| prod_j (ref_j - max(y_j,
    max_{p in S} p_j))+, so no box decomposition is involved."""
    rng = np.random.default_rng(seed)
    n, m = front.shape
    masks = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(bool)  # one row per S
    corners = np.where(masks[:, :, None], front[None, :, :], -np.inf).max(axis=1, initial=-np.inf)
    signs = np.where(masks.sum(axis=1) % 2 == 0, 1.0, -1.0)
    means, errors = [], []
    for mean, variance in zip(mu, var):
        Y = mean + np.sqrt(variance) * rng.standard_normal((n_samples, m))
        sides = np.clip(ref - np.maximum(Y[:, None, :], corners[None, :, :]), 0.0, None)
        gains = sides.prod(axis=2) @ signs
        means.append(gains.mean())
        errors.append(gains.std(ddof=1) / np.sqrt(n_samples))
    return np.array(means), np.array(errors)


class TestEHVI:
    def test_dominated_mean_zero_variance(self):
        models = [ConstantModel(0.8, 0.0), ConstantModel(0.8, 0.0)]
        boxes = moo.nondominated_boxes(np.array([[0.5, 0.5]]), np.array([2.0, 2.0]))
        assert ehvi(np.zeros(2), models, ehvi_tables(boxes)) == 0.0

    def test_empty_front_degenerate(self):
        models = [ConstantModel(0.5, 0.0), ConstantModel(1.0, 0.0)]
        boxes = moo.nondominated_boxes(np.empty((0, 2)), np.array([2.0, 2.0]))
        score = ehvi(np.zeros(2), models, ehvi_tables(boxes))
        assert score == pytest.approx((2.0 - 0.5) * (2.0 - 1.0))

    def test_matches_exact_oracle(self):
        front = np.array([[1.0, 0.0], [0.0, 1.0]])
        ref = np.array([2.0, 2.0])
        mu, sigma = (0.5, 0.5), (0.1, 0.1)
        models = [ConstantModel(mu[0], sigma[0] ** 2), ConstantModel(mu[1], sigma[1] ** 2)]
        exact = exact_ehvi_2d(front, ref, mu, sigma)
        got = ehvi(np.zeros(2), models, ehvi_tables(moo.nondominated_boxes(front, ref)))
        assert abs(got - exact) <= 1e-12 * exact

    def test_repeat_calls_equal(self):
        models = [ConstantModel(0.5, 0.04), ConstantModel(0.5, 0.04)]
        boxes = moo.nondominated_boxes(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([2.0, 2.0]))
        single = ehvi(np.zeros(2), models, ehvi_tables(boxes))
        assert single == ehvi(np.zeros(2), models, ehvi_tables(boxes))
        # enough rows that the three boxes' volumes are summed in two chunks
        X = np.zeros((30_000, 2))
        batch = ehvi(X, models, ehvi_tables(boxes))
        assert np.array_equal(batch, ehvi(X, models, ehvi_tables(boxes)))
        np.testing.assert_allclose(batch, single, rtol=1e-12)

    def test_three_objectives_path(self):
        boxes = moo.nondominated_boxes(np.array([[0.6, 0.6, 0.6]]), np.ones(3))
        score = ehvi(np.zeros(3), [ConstantModel(0.4, 0.0)] * 3, ehvi_tables(boxes))
        # deterministic means: improvement = HV{(.4,.4,.4),(.6,.6,.6)} - HV{(.6,.6,.6)}
        assert score == pytest.approx(0.6**3 - 0.4**3)

    def test_m2_matches_strip_loop_oracle(self):
        # the closed-form strip integrals over the Pareto-filtered front
        rng = np.random.default_rng(31)
        ref = np.array([2.0, 3.0])
        for trial in range(60):
            if trial % 5 == 0:
                front = np.empty((0, 2))
            else:
                k = int(rng.integers(1, 8))
                front = rng.uniform([-1.0, -1.0], ref, size=(k, 2))
                front = np.vstack([front, front[: int(rng.integers(0, k + 1))]])  # duplicates
            q = int(rng.integers(1, 30))
            # means from well inside to beyond the reference point
            mu = rng.uniform(-1.5, 3.5, size=(q, 2))
            var = rng.uniform(0.0, 1.0, size=(q, 2)) * (rng.uniform(size=(q, 2)) < 0.8)
            models = [TableModel(mu[:, 0], var[:, 0]), TableModel(mu[:, 1], var[:, 1])]
            X = np.arange(q, dtype=float)[:, None]
            got = ehvi(X, models, ehvi_tables(moo.nondominated_boxes(front, ref)))
            pareto = front[moo._pareto_filter(front)]
            want = np.array([exact_ehvi_2d(pareto, ref, mu[i], np.sqrt(var[i])) for i in range(q)])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(want.max(), 1e-300))

    def test_m2_boxes_are_the_strips(self):
        # same strips in the same order, so m=2 scores keep every bit
        rng = np.random.default_rng(7)
        ref = np.array([2.0, 3.0])
        for k in range(12):
            front = np.round(rng.uniform([-1.0, -1.0], ref, size=(k, 2)), 1)
            if k > 2:
                front[0, 0] = ref[0]  # on the reference boundary: an empty strip
            lower, upper = moo.nondominated_boxes(front, ref)
            x_lo, x_hi, height = staircase(front, ref)
            keep = x_hi > x_lo
            assert np.array_equal(lower[:, 0], x_lo[keep])
            assert np.array_equal(upper[:, 0], x_hi[keep])
            assert np.array_equal(upper[:, 1], height[keep])
            assert np.all(lower[:, 1] == -np.inf)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_improvements_match_exact_hypervolume(self, m):
        # zero variance: ehvi is HV(front + {y}) - HV(front) for the mean y
        rng = np.random.default_rng(100 + m)
        ref = np.full(m, 1.0)
        for trial in range(40):
            k = int(rng.integers(0, 9)) if trial % 8 else 0  # every 8th front is empty
            front = rng.uniform(size=(k, m))
            if trial % 2:
                front = np.round(front, 1)  # shared coordinates
            if k:
                front = np.vstack([front, front[: int(rng.integers(0, k + 1))]])  # duplicates
                front[0, int(rng.integers(m))] = 1.0  # a point on the reference boundary
                front = front[np.any(front < ref, axis=1)]
            q = 25
            mu = rng.uniform(-0.2, 1.2, size=(q, m))
            mu[: q // 2] = np.round(mu[: q // 2], 1)  # means on box edges
            models = [TableModel(mu[:, j], np.zeros(q)) for j in range(m)]
            boxes = moo.nondominated_boxes(front, ref)
            got = ehvi(np.arange(q, dtype=float)[:, None], models, ehvi_tables(boxes))
            base = inclusion_exclusion_hv(front, ref)
            want = [
                inclusion_exclusion_hv(np.vstack([front, np.minimum(y, ref)]), ref) - base
                for y in mu
            ]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [3, 4])
    def test_matches_monte_carlo_with_variance(self, m):
        rng = np.random.default_rng(200 + m)
        ref = np.full(m, 1.0)
        for trial in range(4):
            front = rng.uniform(0.1, 0.9, size=(int(rng.integers(1, 7)), m))
            q = 5
            mu = rng.uniform(0.0, 1.1, size=(q, m))
            var = rng.uniform(0.0, 0.1, size=(q, m))
            models = [TableModel(mu[:, j], var[:, j]) for j in range(m)]
            boxes = moo.nondominated_boxes(front, ref)
            got = ehvi(np.arange(q, dtype=float)[:, None], models, ehvi_tables(boxes))
            want, error = mc_ehvi(mu, var, front, ref, 40_000, seed=trial)
            assert np.all(np.abs(got - want) <= 4 * error), (got, want, error)


def per_batch_ehvi(X, models, boxes):
    """EHVI with its bound tables rebuilt from the boxes on every call, as
    ``ehvi`` built them before they were built once per front."""
    mu, var = (np.column_stack(column) for column in zip(*(m.predict(X) for m in models)))
    lower, upper = boxes
    tables = []
    for j in range(mu.shape[1]):
        bounds = np.concatenate([upper[:, j], lower[:, j]])
        finite = np.isfinite(bounds)
        values, rows = np.unique(bounds[finite], return_inverse=True)
        G = np.zeros((len(values) + 1, len(X)))
        G[:-1] = expected_improvement(mu[:, j], var[:, j], values[:, None])
        index = np.full(len(bounds), len(values))
        index[finite] = rows
        tables.append((G, index[: len(upper)], index[len(upper) :]))
    scores = np.zeros(len(X))
    chunk = max(1, acquisition._EHVI_CHUNK_ELEMENTS // len(X))
    for start in range(0, len(upper), chunk):
        volume = 1.0
        for G, up, lo in tables:
            volume = volume * (G[up[start : start + chunk]] - G[lo[start : start + chunk]])
        scores += volume.sum(axis=0)
    return np.maximum(scores, 0.0)


class TestEHVITables:
    @pytest.mark.parametrize("m", [2, 3])
    def test_one_table_set_serves_every_batch(self, m):
        rng = np.random.default_rng(300 + m)
        ref = np.ones(m)
        for trial in range(6):
            front = np.round(rng.uniform(size=(3 * trial, m)), 1)  # shared coordinates
            boxes = moo.nondominated_boxes(front, ref)
            if not trial:  # the empty front: one box, unbounded below
                assert len(boxes[0]) == 1 and np.all(boxes[0] == -np.inf)
            tables = ehvi_tables(boxes)
            for q in (1, 600, 1, 600):
                mu = rng.uniform(-0.2, 1.2, size=(q, m))
                var = rng.uniform(0.0, 0.05, size=(q, m)) * (rng.uniform(size=(q, m)) < 0.8)
                models = [TableModel(mu[:, j], var[:, j]) for j in range(m)]
                X = np.arange(q, dtype=float)[:, None]
                got = ehvi(X, models, tables)
                assert got.tobytes() == ehvi(X, models, ehvi_tables(boxes)).tobytes()
                assert got.tobytes() == per_batch_ehvi(X, models, boxes).tobytes()


class TestLocalPenalization:
    def test_factor_half_at_pending_point(self):
        model = ConstantModel(1.0, 0.5)
        pending = [np.array([0.3, 0.3])]
        raw = 0.8
        # mu(x_j) = M = 1.0 and x == x_j gives z = 0, erfc(0)/2 = 0.5
        penalized = local_penalization(raw, np.array([0.3, 0.3]), pending, model, 1.0, 1.0)
        assert penalized == pytest.approx(raw * 0.5)

    def test_far_away_unchanged(self):
        model = ConstantModel(1.0, 0.01)
        pending = [np.zeros(2)]
        raw = 0.8
        far = np.full(2, 1e4)
        penalized = local_penalization(raw, far, pending, model, 1.0, 1.0)
        assert penalized == pytest.approx(raw, abs=1e-6)

    def test_no_pending_is_identity(self):
        model = ConstantModel(0.0, 1.0)
        assert local_penalization(0.7, np.zeros(2), [], model, 1.0, 0.0) == 0.7

    def test_penalized_never_exceeds_raw(self):
        rng = np.random.default_rng(1)
        model = ConstantModel(0.5, 0.2)
        pending = [rng.uniform(size=2) for _ in range(3)]
        for _ in range(20):
            x = rng.uniform(size=2)
            raw = rng.uniform(0.1, 2.0)
            assert local_penalization(raw, x, pending, model, 2.0, 0.3) <= raw + 1e-15

    def test_lipschitz_floor(self):
        model = ConstantModel(1.0, 0.5)  # flat mean, zero gradient
        L = estimate_lipschitz(model, 2, np.random.default_rng(0))
        assert L == pytest.approx(1e-3)


def one_hot_width(space):
    """The number of columns of the space's one-hot rows."""
    return encode_codes(space, np.zeros((0, len(space))), "one_hot").shape[1]


def drawn_search(score_fn, space, rng, n_candidates, known=(), n_local_starts=10, encode=lambda rows: rows):
    """maximize_acquisition over a candidate pool drawn as an ask draws it,
    with no local search from an enumerated pool. The default ``encode``
    hands the score function code rows."""
    known = np.reshape(np.asarray(known, dtype=float), (-1, len(space)))
    rows, drawn = _candidate_pool(space, rng, n_candidates, known, set(_row_keys(known)))
    return maximize_acquisition(
        score_fn,
        space,
        (rows, encode(rows)),
        encode,
        known=known,
        n_local_starts=0 if drawn == "enumerated" else n_local_starts,
    )


class TestMaximizeAcquisition:
    def space_2floats(self):
        return SearchSpace(
            [
                ParameterSpec("x", "float", low=0.0, high=1.0),
                ParameterSpec("y", "float", low=0.0, high=1.0),
            ]
        )

    def test_constant_score_returns_valid_configs(self):
        space = self.space_2floats()
        result = drawn_search(
            lambda X: np.ones(np.atleast_2d(X).shape[0]),
            space,
            np.random.default_rng(0),
            n_candidates=50,
            n_local_starts=2,
        )
        assert result.shape == (1, 2)
        (config,) = from_codes(space, result)
        space.validate(config)
        assert to_codes(space, [config]).tobytes() == result.tobytes()

    def test_finds_quadratic_peak(self):
        space = self.space_2floats()

        def score(X):
            X = np.atleast_2d(X)
            return -np.sum((X - 0.5) ** 2, axis=1)

        (best,) = from_codes(
            space,
            drawn_search(score, space, np.random.default_rng(1), n_candidates=500, n_local_starts=5),
        )
        assert abs(best["x"] - 0.5) <= 0.05
        assert abs(best["y"] - 0.5) <= 0.05

    def test_discrete_exclusion_returns_remaining(self):
        space = SearchSpace(
            [
                ParameterSpec("a", "categorical", choices=("u", "v")),
                ParameterSpec("b", "categorical", choices=("p", "q")),
            ]
        )
        told = [
            Configuration({"a": "u", "b": "p"}),
            Configuration({"a": "u", "b": "q"}),
            Configuration({"a": "v", "b": "p"}),
        ]
        result = drawn_search(
            lambda X: np.zeros(np.atleast_2d(X).shape[0]),
            space,
            np.random.default_rng(2),
            n_candidates=10,
            known=to_codes(space, told),
        )
        assert from_codes(space, result) == [Configuration({"a": "v", "b": "q"})]

    def test_exhausted_space_signal(self):
        space = SearchSpace([ParameterSpec("a", "categorical", choices=("u", "v"))])
        told = [Configuration({"a": "u"}), Configuration({"a": "v"})]
        with pytest.raises(ExhaustedSpaceError):
            drawn_search(
                lambda X: np.zeros(np.atleast_2d(X).shape[0]),
                space,
                np.random.default_rng(3),
                n_candidates=10,
                known=to_codes(space, told),
            )

    def test_never_returns_told_or_pending(self):
        # the score rises with k; the two best values are told and pending
        space = SearchSpace([ParameterSpec("k", "int", low=0, high=9)])
        told = [Configuration({"k": i}) for i in (0, 1, 2, 3, 4, 9)]
        pending = [Configuration({"k": 8})]
        result = drawn_search(
            lambda X: np.atleast_2d(X)[:, 0],
            space,
            np.random.default_rng(4),
            n_candidates=100,
            known=to_codes(space, told + pending),
        )
        assert from_codes(space, result) == [Configuration({"k": 7})]

    def test_results_unseen_valid_distinct_and_ranked(self):
        # 400,000 configurations: above the enumeration cap, so candidates are sampled
        space = SearchSpace(
            [
                ParameterSpec("k", "int", low=1, high=1000, log_scale=True),
                ParameterSpec("c", "categorical", choices=("a", "b", "c", "d")),
                ParameterSpec("m", "int", low=0, high=99),
            ]
        )
        for seed in range(200):
            rng = np.random.default_rng(seed)
            peak = rng.uniform(size=one_hot_width(space))
            scored = []

            def score(X, peak=peak, scored=scored):
                scored.append(X)
                return -np.sum((X - peak) ** 2, axis=1)

            # tell or pend the whole neighbourhood of the peak, plus random points
            # the peak's configuration: its one-hot block for c decodes to the argmax
            row = np.r_[peak[0], np.argmax(peak[1:5]) / 3, peak[5]]
            (top,) = from_codes(space, decode_codes(space, row[None, :]))
            near = [
                Configuration({"k": k, "c": top["c"], "m": m})
                for k in range(max(1, top["k"] - 6), min(1000, top["k"] + 6) + 1)
                for m in range(max(0, top["m"] - 6), min(99, top["m"] + 6) + 1)
            ]
            told = near[:-20] + sample_random(space, 50, rng)
            pending = near[-20:]
            result = drawn_search(
                score,
                space,
                rng,
                n_candidates=300,
                n_local_starts=5,
                known=to_codes(space, told + pending),
                encode=lambda codes: encode_codes(space, codes, "one_hot"),
            )
            assert result.shape == (1, 3)
            (config,) = from_codes(space, result)
            space.validate(config)
            assert to_codes(space, [config]).tobytes() == result.tobytes()
            assert config not in set(told) | set(pending)
            # no scored row is known, and the result is the first best one scored
            rows = np.vstack(scored)
            known = encode_matrix(space, told + pending, "one_hot")
            assert not {r.tobytes() for r in rows} & {r.tobytes() for r in known}
            values = -np.sum((rows - peak) ** 2, axis=1)
            assert rows[np.argmax(values)].tobytes() == encode_codes(space, result, "one_hot").tobytes()

    def test_prf_batch_on_mixed_space_is_distinct_and_unseen(self):
        space = SearchSpace(
            [
                ParameterSpec("x", "float", low=0.0, high=1.0),
                ParameterSpec("k", "int", low=1, high=1000, log_scale=True),
                ParameterSpec("o", "ordinal", levels=(1, 2, 4)),
                ParameterSpec("c", "categorical", choices=("a", "b", "c")),
            ]
        )
        task = TaskSpec(space=space, init_count=6, max_runs=40, algorithm="prf", seed=5)
        advisor = Advisor(task)
        told = []
        for _ in range(10):
            config = advisor.ask()
            value = (config["x"] - 0.3) ** 2 + abs(np.log10(config["k"]) - 1.0)
            advisor.tell(Observation(config, [value], None, TrialState.SUCCESS))
            told.append(config)
        batch = advisor.ask_batch(4)
        assert advisor.plan.surrogate_kind == "PRF"
        assert len(set(batch)) == 4
        assert not set(batch) & set(told)
        for config in batch:
            space.validate(config)


def byte_keyed_unseen(codes, known, distinct):
    """Mask of the rows the search keeps, from a per-row ``tobytes`` loop: a
    dict of byte keys for the first occurrences and a set of the known rows'
    byte keys."""
    excluded = {row.tobytes() for row in known}
    if not distinct:
        return np.array([row.tobytes() not in excluded for row in codes], dtype=bool)
    first: dict = {}
    for i, row in enumerate(codes):
        first.setdefault(row.tobytes(), i)
    keep = np.zeros(len(codes), dtype=bool)
    keep[[i for key, i in first.items() if key not in excluded]] = True
    return keep


def copied_neighbours(space, codes, deltas):
    """The neighbourhood as it was before the move table: one copy of the
    matrix per move and a full ``snap_codes`` pass."""
    moved = []
    for j, spec in enumerate(space.parameters):
        if spec.kind == "float":
            columns = [codes[:, j] + deltas, codes[:, j] - deltas]
        elif spec.kind == "categorical":
            columns = [np.full(len(codes), c, dtype=float) for c in range(spec.n_values())]
        else:
            columns = [codes[:, j] - 1.0, codes[:, j] + 1.0]
        for column in columns:
            moved.append(codes.copy())
            moved[-1][:, j] = column
    origin = np.tile(np.arange(len(codes)), len(moved))
    moved = snap_codes(space, np.vstack(moved))
    changed = np.any(moved != codes[origin], axis=1)
    return moved[changed], origin[changed]


def mixed12_kind_space():
    return SearchSpace(
        [
            ParameterSpec("u", "float", low=-5.0, high=5.0),
            ParameterSpec("lr", "float", low=1e-4, high=1.0, log_scale=True),
            ParameterSpec("depth", "int", low=1, high=30),
            ParameterSpec("width", "int", low=1, high=1000, log_scale=True),
            ParameterSpec("batch", "ordinal", levels=(1, 2, 4, 8, 16, 32)),
            ParameterSpec("optimizer", "categorical", choices=("adam", "sgd", "rmsprop")),
            ParameterSpec("activation", "categorical", choices=("relu", "gelu", "tanh", "sigmoid")),
        ]
    )


def bounded_codes(space, rng):
    """Random snapped codes, plus rows with every column at its lower and at
    its upper bound, so that moves are clipped."""
    codes = sample_codes(space, 40, rng)
    low = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    high = [1.0, 1.0, 30.0, 1000.0, 5.0, 2.0, 3.0]
    return np.vstack([codes, low, high, codes[:5]])


class TestHashedExclusion:
    """Rows are excluded through Python sets and dicts of their byte keys."""

    def pool(self, rng):
        space = mixed12_kind_space()
        codes = bounded_codes(space, rng)
        known = np.vstack([codes[3:9], sample_codes(space, 10, rng)])
        pool = np.vstack([codes, known[:4], codes[:7], sample_codes(space, 30, rng)])
        # -0.0 and 0.0 are equal numbers but different byte keys
        signed = pool[:2].copy()
        signed[:, 0] = -0.0
        pool = np.vstack([pool, signed, signed])
        return pool[rng.permutation(len(pool))], known

    def test_matches_byte_keys(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            pool, known = self.pool(rng)
            known_keys = set(_row_keys(known))
            # the candidate pool: each unseen row once, in order, -0.0 kept as it is
            want = pool[byte_keyed_unseen(pool, known, distinct=True)]
            assert _unseen_rows(pool, known_keys).tobytes() == want.tobytes()
            # a local-search step: every unseen row, repeats too
            want = byte_keyed_unseen(pool, known, distinct=False)
            np.testing.assert_array_equal(_unseen_mask(pool, known_keys), want)

    def test_no_known_rows_and_empty_pool(self):
        space = mixed12_kind_space()
        rng = np.random.default_rng(53)
        pool = sample_codes(space, 20, rng)
        pool = np.vstack([pool, pool[:5]])
        none = np.empty((0, len(space)))
        assert _unseen_rows(pool, set()).tobytes() == pool[:20].tobytes()
        assert _unseen_mask(pool, set()).tolist() == [True] * 25
        assert _unseen_rows(none, set(_row_keys(pool))).shape == (0, len(space))
        assert _unseen_mask(none, set(_row_keys(pool))).shape == (0,)

    def test_rows_in_matches_byte_keys(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            codes = rng.integers(0, 3, size=(40, 3)).astype(float)
            codes[rng.uniform(size=codes.shape) < 0.2] = -0.0
            rows = np.vstack([codes[rng.integers(0, 40, size=2)], rng.integers(0, 3, size=(2, 3))])
            keys = set(_row_keys(rows))
            want = np.array([key in keys for key in _row_keys(codes)])
            assert np.array_equal(_rows_in(codes, rows), want)
            assert not _rows_in(codes, rows[:0]).any() and _rows_in(codes[:0], rows).shape == (0,)

    def test_row_keys_are_the_rows_bytes(self):
        rng = np.random.default_rng(56)
        codes = rng.uniform(size=(6, 4))
        codes[1] = 0.0
        codes[2] = -0.0
        cases = [
            codes,
            np.empty((0, 4)),
            codes[:, 1:3],  # a column slice: not C-contiguous
            np.asfortranarray(codes),
            codes[[4, 1, 4, 2]],
        ]
        # the shapes a carried-on pool takes: a read-only view of joined
        # bytes, its masked rows, and those with new rows appended
        pool = _unseen_rows(codes, set())
        assert not pool.flags.writeable
        kept = pool[np.arange(6) % 2 == 0]
        cases += [pool, kept, np.vstack([kept, codes[:2]])]
        for rows in cases:
            keys = _row_keys(rows)
            assert keys == [row.tobytes() for row in rows]
            assert all(type(key) is bytes for key in keys)
        # -0.0 and 0.0 are equal numbers but different keys
        assert _row_keys(codes)[1] != _row_keys(codes)[2]


class TestNeighbourMoves:
    def test_matches_copied_neighbourhood(self):
        space = mixed12_kind_space()
        rng = np.random.default_rng(60)
        for _ in range(30):
            codes = bounded_codes(space, rng)
            # steps from tiny to larger than the unit interval, so floats clip
            deltas = np.exp(rng.uniform(np.log(1e-3), np.log(2.0), size=len(codes)))
            got, got_origin = _neighbours(space, codes, deltas)
            want, want_origin = copied_neighbours(space, codes, deltas)
            assert got.tobytes() == want.tobytes()
            np.testing.assert_array_equal(got_origin, want_origin)

    def test_moves_are_clipped_at_the_bounds(self):
        space = mixed12_kind_space()
        low = np.array([[0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]])
        moved, _ = _neighbours(space, low, np.array([0.25]))
        # each float and int-like column moves up only; categoricals take every other choice
        assert len(moved) == 2 + 3 + 2 + 3
        assert np.all(moved >= low)



def tied_scores(rng, n):
    """n scores on a coarse grid, so many tie exactly, with some entries
    set to +inf, -inf, NaN and -0.0 (next to the grid's own 0.0)."""
    scores = rng.integers(-3, 4, size=n) * 0.5
    for value in (np.inf, -np.inf, np.nan, -0.0):
        scores[rng.uniform(size=n) < rng.choice([0.0, 0.1, 0.5])] = value
    return scores


class TestSelectionContract:
    """The search ranks scores as np.argsort(-scores, kind="stable") does:
    larger first, ties to the lower index, -0.0 equal to 0.0, and NaN after
    every number."""

    def test_top_matches_stable_argsort(self):
        rng = np.random.default_rng(70)
        for _ in range(500):
            scores = tied_scores(rng, int(rng.integers(1, 60)))
            reference = np.argsort(-scores, kind="stable")
            for k in {1, 2, 5, len(scores) - 1, len(scores), len(scores) + 3} - {0}:
                np.testing.assert_array_equal(_top(scores, k), reference[:k])

    def search(self, space, seed, n_local_starts=4):
        """One search under a quantized score with NaN (and, on some seeds,
        +inf or NaN everywhere), and the (rows, scores) of every scored block."""
        rng = np.random.default_rng(seed)
        peak = rng.uniform(size=one_hot_width(space))
        blocks = []

        def score(X):
            s = np.round(-8.0 * np.sum((X - peak) ** 2, axis=1), 1)  # -0.0 near the peak
            s[X[:, 0] > 0.8] = np.nan
            if seed % 5 == 1:
                s[X[:, -1] < 0.1] = np.inf
            if seed % 7 == 2:
                s[:] = np.nan
            blocks.append((X.copy(), s))
            return s

        known = sample_codes(space, 5, rng)
        result = drawn_search(
            score,
            space,
            rng,
            n_candidates=200,
            known=known,
            n_local_starts=n_local_starts,
            encode=lambda codes: encode_codes(space, codes, "one_hot"),
        )
        return result, blocks, known

    def test_search_returns_first_best_scored_row(self):
        for space in (TestMaximizeAcquisition().space_2floats(), mixed12_kind_space()):
            for seed in range(30):
                result, blocks, _ = self.search(space, seed)
                rows = np.vstack([X for X, _ in blocks])
                scores = np.concatenate([s for _, s in blocks])
                want = rows[np.argsort(-scores, kind="stable")[0]]
                assert encode_codes(space, result, "one_hot")[0].tobytes() == want.tobytes(), seed

    def test_local_search_starts_from_the_stable_ranking(self):
        # floats encode as their codes, so the scored rows are code rows
        space = TestMaximizeAcquisition().space_2floats()
        for seed in range(30):
            _, blocks, known = self.search(space, seed)
            pool, pool_scores = blocks[0]
            starts = pool[np.argsort(-pool_scores, kind="stable")[:4]]
            moved, _ = _neighbours(space, starts, np.full(4, acquisition._STEP_INIT))
            moved = moved[_unseen_mask(moved, set(_row_keys(known)))]
            assert blocks[1][0].tobytes() == moved.tobytes(), seed
