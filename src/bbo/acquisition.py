"""Acquisition functions and their inner optimization over the search space.

Score functions are vectorized: they take one encoded row or an (n, d) batch
and return a float or an (n,) array. The inner optimizer
(:func:`maximize_acquisition`) scores random candidates and random
neighbours of known configurations, then runs coordinate-wise local search.
It works on code matrices (see :mod:`bbo.space`): candidates are sampled,
perturbed, snapped, deduplicated and excluded by the bytes of their snapped
rows, and only the rows it returns are decoded into configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import erfc
from scipy.stats import norm

from . import moo
from .errors import ExhaustedSpaceError
from .space import (
    CATEGORICAL,
    FLOAT,
    Configuration,
    SearchSpace,
    all_codes,
    encode_codes,
    from_codes,
    sample_codes,
    snap_codes,
    to_codes,
)


def expected_improvement(mean, variance, eta):
    """EI for minimization: sigma * (z Phi(z) + phi(z)) with z = (eta - mean) / sigma.

    Degenerates to max(eta - mean, 0) at zero variance.
    """
    mean = np.asarray(mean, dtype=float)
    var = np.maximum(np.asarray(variance, dtype=float), 0.0)
    sigma = np.sqrt(var)
    improve = eta - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0, improve / np.where(sigma > 0, sigma, 1.0), 0.0)
        ei = np.where(
            sigma > 0,
            sigma * (z * norm.cdf(z) + norm.pdf(z)),
            np.maximum(improve, 0.0),
        )
    out = np.maximum(ei, 0.0)
    return float(out) if out.ndim == 0 else out


def probability_of_feasibility(mean, variance):
    """P(c <= 0) under a Gaussian predictive; indicator(mean <= 0) at sigma = 0."""
    mean = np.asarray(mean, dtype=float)
    var = np.maximum(np.asarray(variance, dtype=float), 0.0)
    sigma = np.sqrt(var)
    with np.errstate(divide="ignore", invalid="ignore"):
        pof = np.where(
            sigma > 0,
            norm.cdf(-mean / np.where(sigma > 0, sigma, 1.0)),
            (mean <= 0).astype(float),
        )
    return float(pof) if pof.ndim == 0 else pof


@dataclass
class AcquisitionContext:
    """Everything a score function needs about the current task state."""

    objective_models: list
    constraint_models: list = field(default_factory=list)
    eta: float | None = None
    front: np.ndarray | None = None  # (k, m) Pareto objective vectors
    ref_point: np.ndarray | None = None

    def __post_init__(self):
        if self.front is not None:
            self.front = np.atleast_2d(np.asarray(self.front, dtype=float))
            if self.front.shape[0] == 0:
                self.front = None
        if self.ref_point is not None:
            self.ref_point = np.asarray(self.ref_point, dtype=float)
        if self.front is not None and self.ref_point is not None:
            ok = np.all(self.front <= self.ref_point, axis=1) & np.any(
                self.front < self.ref_point, axis=1
            )
            if not np.all(ok):
                raise ValueError(
                    "every front point must weakly dominate the reference point"
                )

    def predict_objectives(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked per-objective predictions, each (n, m)."""
        means, variances = [], []
        for model in self.objective_models:
            mu, var = model.predict(X)
            means.append(mu)
            variances.append(var)
        return np.column_stack(means), np.column_stack(variances)

    def feasibility_product(self, X: np.ndarray) -> np.ndarray:
        """Product of per-constraint probabilities of feasibility at each row."""
        pof = np.ones(np.atleast_2d(X).shape[0])
        for model in self.constraint_models:
            mu, var = model.predict(X)
            pof = pof * probability_of_feasibility(mu, var)
        return pof


def constrained_ei(x_encoded, ctx: AcquisitionContext):
    """EI times the product of per-constraint feasibility probabilities.

    Before any feasible point exists (ctx.eta is None), the score is the
    feasibility product alone, so the search hunts for a feasible region.
    """
    X = np.atleast_2d(np.asarray(x_encoded, dtype=float))
    pof = ctx.feasibility_product(X)
    if ctx.eta is None:
        scores = pof
    else:
        mu, var = ctx.objective_models[0].predict(X)
        scores = expected_improvement(mu, var, ctx.eta) * pof
    return float(scores[0]) if np.ndim(x_encoded) == 1 else scores


def _staircase(front: np.ndarray, ref: np.ndarray):
    """Strip decomposition of the non-dominated region for m=2.

    Returns (x_lo, x_hi, height) arrays of k+1 strips: within strip i a new
    point adds area (x_hi - max(x_lo, y1))+ * (height - y2)+.
    """
    # with no point inside the reference box this is the one strip below ref
    pts = np.empty((0, 2)) if front is None else front[np.all(front <= ref, axis=1)]
    pts = moo._pareto_filter(pts)
    order = np.argsort(pts[:, 0], kind="stable")
    a = pts[order, 0]
    b = pts[order, 1]
    x_lo = np.concatenate([[-np.inf], a])
    x_hi = np.concatenate([a, [ref[0]]])
    height = np.concatenate([[ref[1]], b])
    return x_lo, x_hi, height


def _hv_improvements_2d(y1: np.ndarray, y2: np.ndarray, strips) -> np.ndarray:
    """Vectorized HV(front + {y}) - HV(front) for points (y1, y2) (m=2), as an
    array of y1's shape.

    Accumulates strip by strip in place, so memory stays O(points) even for
    very large sample batches.
    """
    total = np.zeros_like(y1)
    width = np.empty_like(y1)
    height = np.empty_like(y2)
    for lo, hi, h in zip(*strips):
        np.maximum(lo, y1, out=width)
        np.subtract(hi, width, out=width)
        np.maximum(width, 0.0, out=width)
        np.subtract(h, y2, out=height)
        np.maximum(height, 0.0, out=height)
        width *= height
        total += width
    return total


def ehvi(
    x_encoded,
    ctx: AcquisitionContext,
    mc_samples: int = 2048,
    rng: np.random.Generator | None = None,
):
    """Monte Carlo expected hypervolume improvement.

    Draws mc_samples objective vectors from the independent per-objective
    predictive Gaussians at each point (common random numbers across a
    batch), clips them to the reference point, and averages the hypervolume
    gain over the current front. Deterministic for a given rng state.
    """
    if ctx.ref_point is None:
        raise ValueError("ehvi needs a reference point")
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    X = np.atleast_2d(np.asarray(x_encoded, dtype=float))
    mu, var = ctx.predict_objectives(X)  # (q, m)
    sigma = np.sqrt(np.maximum(var, 0.0))
    q, m = mu.shape
    ref = ctx.ref_point
    Z = rng.standard_normal((mc_samples, m))

    scores = np.empty(q)
    if m == 2:
        strips = _staircase(ctx.front, ref)
        chunk = max(1, int(4_000_000 // max(mc_samples, 1)))
        for start in range(0, q, chunk):
            end = min(q, start + chunk)
            # per objective, a contiguous (c, S) sample block clipped to the reference point
            y1, y2 = (
                np.minimum(mu[start:end, j, None] + sigma[start:end, j, None] * Z[:, j], ref[j])
                for j in range(2)
            )
            scores[start:end] = _hv_improvements_2d(y1, y2, strips).mean(axis=1)
    else:
        front_pts = ctx.front if ctx.front is not None else np.empty((0, m))
        hv_front = moo.hypervolume(front_pts, ref) if front_pts.shape[0] else 0.0
        for i in range(q):
            Y = np.minimum(mu[i] + sigma[i] * Z, ref)
            total = 0.0
            for y in Y:
                total += moo.hypervolume(np.vstack([front_pts, y]), ref) - hv_front
            scores[i] = total / mc_samples
    scores = np.maximum(scores, 0.0)
    return float(scores[0]) if np.ndim(x_encoded) == 1 else scores


def estimate_lipschitz(
    model,
    dim: int,
    rng: np.random.Generator,
    n_points: int = 500,
    step: float = 1e-3,
) -> float:
    """Max finite-difference gradient norm of the model mean over random
    unit-cube points, floored at 1e-3."""
    X = rng.uniform(size=(n_points, dim))
    grad_sq = np.zeros(n_points)
    for k in range(dim):
        plus = X.copy()
        minus = X.copy()
        plus[:, k] += step
        minus[:, k] -= step
        mu_p, _ = model.predict(plus)
        mu_m, _ = model.predict(minus)
        grad_sq += ((mu_p - mu_m) / (2 * step)) ** 2
    return max(float(np.sqrt(grad_sq).max()), 1e-3)


def local_penalization(
    score,
    x_encoded,
    pending: Sequence[np.ndarray],
    model,
    lipschitz: float,
    best_value: float,
):
    """Multiply a nonnegative score by smooth exclusion factors around
    pending points: 0.5 erfc(-z_j) with
    z_j = (L ||x - x_j|| - M + mu(x_j)) / sqrt(2 sigma^2(x_j))."""
    if lipschitz <= 0:
        raise ValueError("Lipschitz estimate must be > 0")
    if not pending:
        return score
    X = np.atleast_2d(np.asarray(x_encoded, dtype=float))
    P = np.vstack(pending)
    mu_p, var_p = model.predict(P)
    denom = np.sqrt(2.0 * np.maximum(var_p, 1e-12))
    dists = np.sqrt(((X[:, None, :] - P[None, :, :]) ** 2).sum(axis=2))  # (n, j)
    z = (lipschitz * dists - best_value + mu_p[None, :]) / denom[None, :]
    factors = 0.5 * erfc(-z)
    penalized = np.asarray(score, dtype=float) * factors.prod(axis=1)
    return float(penalized[0]) if np.ndim(x_encoded) == 1 else penalized


# --- inner optimization ---

_ENUMERATION_CAP = 100_000
_LOCAL_STEPS = 50
_STEP_INIT = 0.05
_STEP_MIN = 1e-3
_N_RETURN = 10


def _unseen(codes: np.ndarray, excluded: set) -> np.ndarray:
    """First occurrence of each row whose byte key is not in ``excluded``."""
    first: dict[bytes, int] = {}
    for i, row in enumerate(codes):
        first.setdefault(row.tobytes(), i)
    return codes[[i for key, i in first.items() if key not in excluded]]


def _jittered(space: SearchSpace, codes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One random neighbour of each row: a Gaussian step on every float, and
    a move to another value of each discrete parameter with probability
    1 / #parameters (an adjacent int or ordinal rank, any other choice)."""
    out = codes.copy()
    n, p = codes.shape
    for j, spec in enumerate(space.parameters):
        if spec.kind == FLOAT:
            out[:, j] += rng.normal(0.0, _STEP_INIT, size=n)
            continue
        move = rng.uniform(size=n) < 1.0 / p
        if spec.kind == CATEGORICAL:
            k = spec.n_values()
            out[:, j] = np.where(move, (out[:, j] + rng.integers(1, k, size=n)) % k, out[:, j])
        else:
            out[:, j] += move * np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    return snap_codes(space, out)


def _neighbours(space: SearchSpace, codes: np.ndarray, deltas: np.ndarray):
    """Coordinate-wise neighbourhood of each row, snapped, with the index of
    the row each neighbour came from: +-delta on floats, +-1 on int values
    and ordinal ranks, every other choice on categoricals."""
    moved = []
    for j, spec in enumerate(space.parameters):
        if spec.kind == FLOAT:
            columns = [codes[:, j] + deltas, codes[:, j] - deltas]
        elif spec.kind == CATEGORICAL:
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


def maximize_acquisition(
    score_fn: Callable[[np.ndarray], np.ndarray],
    space: SearchSpace,
    rng: np.random.Generator,
    n_candidates: int = 5000,
    n_local_starts: int = 10,
    encoding: str = "one_hot",
    told: Sequence[Configuration] = (),
    pending: Sequence[Configuration] = (),
) -> list[Configuration]:
    """Maximize a batched score function over the space.

    Scores ``n_candidates`` random samples plus two random neighbours of
    each told and pending configuration (or, when the space has at most
    ``max(n_candidates, 100000)`` configurations, all of them), runs
    coordinate-wise local search from the best ``n_local_starts``, and
    returns up to ten distinct configurations, best first, that are neither
    told nor pending.
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be >= 1")
    known = list(told) + list(pending)
    known_codes = to_codes(space, known)
    excluded = {row.tobytes() for row in known_codes}

    def score(codes: np.ndarray) -> np.ndarray:
        return np.asarray(score_fn(encode_codes(space, codes, encoding)), dtype=float).ravel()

    total = space.n_configurations()
    exhaustive = total is not None and total <= max(n_candidates, _ENUMERATION_CAP)
    if exhaustive:
        pool = _unseen(all_codes(space), excluded)
        if not len(pool):
            raise ExhaustedSpaceError("all configurations have been suggested")
    else:
        seeds = _jittered(space, np.vstack([known_codes, known_codes]), rng)
        pool = _unseen(np.vstack([sample_codes(space, n_candidates, rng), seeds]), excluded)
        while not len(pool):  # pathological: resample until an unseen row appears
            pool = _unseen(sample_codes(space, n_candidates, rng), excluded)
    pool_scores = score(pool)
    found, found_scores = [pool], [pool_scores]

    if not exhaustive and n_local_starts > 0:
        starts = np.argsort(-pool_scores, kind="stable")[:n_local_starts]
        current, current_score = pool[starts], pool_scores[starts]
        # every parameter's step starts at _STEP_INIT and halves together
        deltas = np.full(len(starts), _STEP_INIT)
        active = np.arange(len(starts))
        for _ in range(_LOCAL_STEPS):
            if not len(active):
                break
            moved, origin = _neighbours(space, current[active], deltas[active])
            keep = [row.tobytes() not in excluded for row in moved]
            moved, origin = moved[keep], origin[keep]
            scores = score(moved) if len(moved) else np.empty(0)
            found.append(moved)
            found_scores.append(scores)
            # best neighbour of each start, the first generated on ties
            order = np.lexsort((np.arange(len(scores)), -scores, origin))
            first = order[np.diff(origin[order], prepend=-1) != 0]
            best = np.full(len(active), -np.inf)
            best[origin[first]] = scores[first]
            improved = best > current_score[active]
            winners = first[improved[origin[first]]]
            current[active[origin[winners]]] = moved[winners]
            current_score[active[improved]] = best[improved]
            deltas[active[~improved]] *= 0.5
            active = active[improved | (deltas[active] >= _STEP_MIN)]

    codes = np.vstack(found)
    scores = np.concatenate(found_scores)
    known_set = set(known)
    ranked: list[Configuration] = []
    for i in np.argsort(-scores, kind="stable"):
        if len(ranked) == _N_RETURN:
            break
        (config,) = from_codes(space, codes[i : i + 1])
        space.validate(config)
        if config not in known_set and config not in ranked:
            ranked.append(config)
    return ranked
