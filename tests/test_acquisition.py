"""Tests for acquisition functions and the inner optimizer."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import bbo
from bbo import moo
from bbo.acquisition import (
    AcquisitionContext,
    ehvi,
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
    sample_random,
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


def test_import_bbo_leaves_scipy_stats_unloaded():
    # EI and PoF take ndtr from scipy.special; importing scipy.stats would
    # roughly double the time `import bbo` takes
    src = str(Path(bbo.__file__).resolve().parents[1])
    code = "import sys, bbo; print(sorted(k for k in sys.modules if k.startswith('scipy.stats')))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


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


def advisor_score(ctx, x):
    """The advisor's score under ctx at one encoded row, for a one-objective
    task with one constraint per constraint model."""
    space = SearchSpace([ParameterSpec("x", "float", low=0.0, high=1.0)])
    advisor = Advisor(TaskSpec(space, num_constraints=len(ctx.constraint_models)))
    return float(advisor._score_function(ctx)(np.atleast_2d(x))[0])


class TestConstrainedEI:
    """EI times the product of the constraints' probabilities of feasibility."""

    def test_pof_to_one_limit(self):
        ctx = AcquisitionContext(
            objective_models=[ConstantModel(0.0, 1.0)],
            constraint_models=[ConstantModel(-10.0, 1.0)],
            eta=0.5,
        )
        plain = expected_improvement(0.0, 1.0, 0.5)
        score = advisor_score(ctx, np.zeros(2))
        assert 0.999 * plain <= score <= plain

    def test_pof_to_zero_limit(self):
        ctx = AcquisitionContext(
            objective_models=[ConstantModel(0.0, 1.0)],
            constraint_models=[ConstantModel(10.0, 1.0)],
            eta=0.5,
        )
        plain = expected_improvement(0.0, 1.0, 0.5)
        assert advisor_score(ctx, np.zeros(2)) <= 1e-12 * plain

    def test_product_arithmetic(self):
        # choose constraint predictions with PoF exactly 0.5 each
        ctx = AcquisitionContext(
            objective_models=[ConstantModel(0.0, 1.0)],
            constraint_models=[ConstantModel(0.0, 1.0), ConstantModel(0.0, 1.0)],
            eta=0.5,
        )
        ei = expected_improvement(0.0, 1.0, 0.5)
        assert advisor_score(ctx, np.zeros(1)) == pytest.approx(ei * 0.25)

    def test_feasibility_search_mode(self):
        ctx = AcquisitionContext(
            objective_models=[ConstantModel(0.0, 1.0)],
            constraint_models=[ConstantModel(-1.0, 1.0)],
            eta=None,
        )
        assert advisor_score(ctx, np.zeros(1)) == pytest.approx(
            probability_of_feasibility(-1.0, 1.0)
        )

    def test_never_exceeds_plain_ei(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu, var, eta = rng.normal(), rng.uniform(0.1, 2), rng.normal()
            cmu, cvar = rng.normal(), rng.uniform(0.1, 2)
            ctx = AcquisitionContext(
                objective_models=[ConstantModel(mu, var)],
                constraint_models=[ConstantModel(cmu, cvar)],
                eta=eta,
            )
            assert advisor_score(ctx, np.zeros(1)) <= expected_improvement(mu, var, eta) + 1e-12


def exact_ehvi_2d(front, ref, mu, sigma):
    """Closed-form 2-D EHVI for independent Gaussians (strip decomposition
    with exact Gaussian integrals) - an oracle independent of the MC path."""
    front = sorted(map(tuple, front))
    a = [p[0] for p in front]
    b = [p[1] for p in front]
    x_lo = [-np.inf] + a
    x_hi = a + [ref[0]]
    height = [ref[1]] + b

    def excess(h, m, s):
        # E[(h - Y)+] for Y ~ N(m, s^2)
        z = (h - m) / s
        return s * (z * norm.cdf(z) + norm.pdf(z))

    def width(lo, hi, m, s):
        # E[(hi - max(lo, Y))+]
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


def oracle_ehvi_2d(mu, var, front, ref, mc_samples, rng):
    """m=2 Monte Carlo EHVI with an (n, S, 2) sample tensor and the strip loop
    on strided columns, as ``ehvi`` computed it before it drew contiguous
    per-objective blocks and scored a box decomposition in place."""
    sigma = np.sqrt(np.maximum(var, 0.0))
    Z = rng.standard_normal((mc_samples, 2))
    Y = np.minimum(mu[:, None, :] + sigma[:, None, :] * Z[None, :, :], ref).reshape(-1, 2)
    x_lo, x_hi, height = staircase(front, ref)
    total = np.zeros(Y.shape[0])
    for lo, hi, h in zip(x_lo, x_hi, height):
        width = np.clip(hi - np.maximum(lo, Y[:, 0]), 0.0, None)
        total += width * np.clip(h - Y[:, 1], 0.0, None)
    return np.maximum(total.reshape(mu.shape[0], mc_samples).mean(axis=1), 0.0)


class TestEHVI:
    def test_dominated_mean_zero_variance(self):
        ctx = AcquisitionContext(
            objective_models=[ConstantModel(0.8, 0.0), ConstantModel(0.8, 0.0)],
            front=np.array([[0.5, 0.5]]),
            ref_point=np.array([2.0, 2.0]),
        )
        assert ehvi(np.zeros(2), ctx, mc_samples=64, rng=np.random.default_rng(0)) == 0.0

    def test_empty_front_degenerate(self):
        ctx = AcquisitionContext(
            objective_models=[ConstantModel(0.5, 0.0), ConstantModel(1.0, 0.0)],
            front=None,
            ref_point=np.array([2.0, 2.0]),
        )
        score = ehvi(np.zeros(2), ctx, mc_samples=16, rng=np.random.default_rng(0))
        assert score == pytest.approx((2.0 - 0.5) * (2.0 - 1.0))

    def test_matches_exact_oracle(self):
        front = np.array([[1.0, 0.0], [0.0, 1.0]])
        ref = np.array([2.0, 2.0])
        mu, sigma = (0.5, 0.5), (0.1, 0.1)
        ctx = AcquisitionContext(
            objective_models=[ConstantModel(mu[0], sigma[0] ** 2), ConstantModel(mu[1], sigma[1] ** 2)],
            front=front,
            ref_point=ref,
        )
        exact = exact_ehvi_2d(front, ref, mu, sigma)
        estimates = [
            ehvi(np.zeros(2), ctx, mc_samples=10**5, rng=np.random.default_rng(seed))
            for seed in range(8)
        ]
        spread = np.std(estimates)
        assert abs(estimates[0] - exact) <= max(3 * spread, 1e-4)

    def test_missing_ref_point(self):
        ctx = AcquisitionContext(objective_models=[ConstantModel(0, 1), ConstantModel(0, 1)])
        with pytest.raises(ValueError):
            ehvi(np.zeros(2), ctx, mc_samples=8, rng=np.random.default_rng(0))

    def test_deterministic_given_rng(self):
        ctx = AcquisitionContext(
            objective_models=[ConstantModel(0.5, 0.04), ConstantModel(0.5, 0.04)],
            front=np.array([[1.0, 0.0], [0.0, 1.0]]),
            ref_point=np.array([2.0, 2.0]),
        )
        a = ehvi(np.zeros(2), ctx, 512, np.random.default_rng(5))
        b = ehvi(np.zeros(2), ctx, 512, np.random.default_rng(5))
        assert a == b

    def test_three_objectives_path(self):
        ctx = AcquisitionContext(
            objective_models=[ConstantModel(0.4, 0.0)] * 3,
            front=np.array([[0.6, 0.6, 0.6]]),
            ref_point=np.array([1.0, 1.0, 1.0]),
        )
        score = ehvi(np.zeros(3), ctx, mc_samples=32, rng=np.random.default_rng(0))
        # deterministic means: improvement = HV{(.4,.4,.4),(.6,.6,.6)} - HV{(.6,.6,.6)}
        assert score == pytest.approx(0.6**3 - 0.4**3)

    def test_m2_matches_strip_loop_oracle(self):
        rng = np.random.default_rng(31)
        ref = np.array([2.0, 3.0])
        for trial in range(60):
            if trial % 5 == 0:
                front = None
            else:
                k = int(rng.integers(1, 8))
                front = rng.uniform([-1.0, -1.0], ref, size=(k, 2))
                front = np.vstack([front, front[: int(rng.integers(0, k + 1))]])  # duplicates
            q, mc = int(rng.integers(1, 30)), int(rng.integers(1, 300))
            # means from well inside to beyond the reference point
            mu = rng.uniform(-1.5, 3.5, size=(q, 2))
            var = rng.uniform(0.0, 1.0, size=(q, 2)) * (rng.uniform(size=(q, 2)) < 0.8)
            models = [TableModel(mu[:, 0], var[:, 0]), TableModel(mu[:, 1], var[:, 1])]
            ctx = AcquisitionContext(objective_models=models, front=front, ref_point=ref)
            X = np.arange(q, dtype=float)[:, None]
            got = ehvi(X, ctx, mc, np.random.default_rng(trial))
            want = oracle_ehvi_2d(mu, var, ctx.front, ref, mc, np.random.default_rng(trial))
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
        # zero variance: every sample is the mean clipped to ref, so ehvi is
        # HV(front + {y}) - HV(front) exactly
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
            ctx = AcquisitionContext(objective_models=models, front=front, ref_point=ref)
            got = ehvi(np.arange(q, dtype=float)[:, None], ctx, 3, np.random.default_rng(trial))
            base = inclusion_exclusion_hv(front, ref)
            want = [
                inclusion_exclusion_hv(np.vstack([front, np.minimum(y, ref)]), ref) - base
                for y in mu
            ]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_front_ref_consistency_checked(self):
        with pytest.raises(ValueError):
            AcquisitionContext(
                objective_models=[ConstantModel(0, 1)] * 2,
                front=np.array([[3.0, 3.0]]),
                ref_point=np.array([2.0, 2.0]),
            )


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
        result = maximize_acquisition(
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
            maximize_acquisition(
                score, space, np.random.default_rng(1), n_candidates=500, n_local_starts=5
            ),
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
        result = maximize_acquisition(
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
            maximize_acquisition(
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
        result = maximize_acquisition(
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
            peak = rng.uniform(size=space.encoded_width("one_hot"))
            scored = []

            def score(X, peak=peak, scored=scored):
                scored.append(np.atleast_2d(X))
                return -np.sum((np.atleast_2d(X) - peak) ** 2, axis=1)

            # tell or pend the whole neighbourhood of the peak, plus random points
            (top,) = from_codes(space, decode_codes(space, peak[None, :], "one_hot"))
            near = [
                Configuration({"k": k, "c": top["c"], "m": m})
                for k in range(max(1, top["k"] - 6), min(1000, top["k"] + 6) + 1)
                for m in range(max(0, top["m"] - 6), min(99, top["m"] + 6) + 1)
            ]
            told = near[:-20] + sample_random(space, 50, rng)
            pending = near[-20:]
            result = maximize_acquisition(
                score,
                space,
                rng,
                n_candidates=300,
                n_local_starts=5,
                known=to_codes(space, told + pending),
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
            assert rows[np.argmax(values)].tobytes() == encode_codes(space, result).tobytes()

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
