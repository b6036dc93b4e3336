"""Acquisition functions and their inner optimization over the search space.

Score functions are vectorized: they take one encoded row or an (n, d) batch
and return a float or an (n,) array. The inner optimizer
(:func:`maximize_acquisition`) interleaves random candidates, neighborhoods
of known configurations, and coordinate-wise local search.
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
    encode_matrix,
    sample_random,
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
    if front is None or front.shape[0] == 0:
        return (
            np.array([-np.inf]),
            np.array([ref[0]]),
            np.array([ref[1]]),
        )
    pts = front[np.all(front <= ref, axis=1)]
    pts = moo._pareto_filter(pts)
    if pts.shape[0] == 0:
        return (
            np.array([-np.inf]),
            np.array([ref[0]]),
            np.array([ref[1]]),
        )
    order = np.argsort(pts[:, 0], kind="stable")
    a = pts[order, 0]
    b = pts[order, 1]
    x_lo = np.concatenate([[-np.inf], a])
    x_hi = np.concatenate([a, [ref[0]]])
    height = np.concatenate([[ref[1]], b])
    return x_lo, x_hi, height


def _hv_improvements_2d(Y: np.ndarray, strips) -> np.ndarray:
    """Vectorized HV(front + {y}) - HV(front) for rows of Y (m=2).

    Accumulates strip by strip so memory stays O(rows) even for very large
    sample batches.
    """
    x_lo, x_hi, height = strips
    y1 = Y[:, 0]
    y2 = Y[:, 1]
    total = np.zeros(Y.shape[0])
    for lo, hi, h in zip(x_lo, x_hi, height):
        width = np.clip(hi - np.maximum(lo, y1), 0.0, None)
        total += width * np.clip(h - y2, 0.0, None)
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
            # (c, S, m) sample tensor, clipped to the reference point
            Y = mu[start:end, None, :] + sigma[start:end, None, :] * Z[None, :, :]
            Y = np.minimum(Y, ref)
            imp = _hv_improvements_2d(Y.reshape(-1, 2), strips)
            scores[start:end] = imp.reshape(end - start, mc_samples).mean(axis=1)
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


def _neighbor_configs(
    space: SearchSpace, config: Configuration, deltas: dict[str, float]
) -> list[Configuration]:
    """Coordinate-wise neighborhood: +-delta on continuous dims, one-exchange
    (adjacent rank / other choice) on discrete dims."""
    out = []
    for spec in space.parameters:
        value = config.values[spec.name]
        if spec.kind == FLOAT:
            u = spec.to_unit(value)
            for sign in (1.0, -1.0):
                u2 = min(1.0, max(0.0, u + sign * deltas[spec.name]))
                if u2 != u:
                    out.append(Configuration({**config.values, spec.name: spec.from_unit(u2)}))
        elif spec.kind == CATEGORICAL:
            for choice in spec.choices:
                if choice != value:
                    out.append(Configuration({**config.values, spec.name: choice}))
        elif spec.kind == "int":
            for nxt in (int(value) - 1, int(value) + 1):
                if spec.low <= nxt <= spec.high:
                    out.append(Configuration({**config.values, spec.name: nxt}))
        else:
            rank = spec.levels.index(value)
            for nxt in (rank - 1, rank + 1):
                if 0 <= nxt < len(spec.levels):
                    out.append(Configuration({**config.values, spec.name: spec.levels[nxt]}))
    return out


def _perturbed(space: SearchSpace, config: Configuration, rng: np.random.Generator) -> Configuration:
    """One random neighbor of a configuration (used to seed candidate pools)."""
    values = dict(config.values)
    for spec in space.parameters:
        if spec.kind == FLOAT:
            u = spec.to_unit(values[spec.name])
            u = min(1.0, max(0.0, u + rng.normal(0.0, _STEP_INIT)))
            values[spec.name] = spec.from_unit(u)
        elif rng.uniform() < 1.0 / len(space.parameters):
            if spec.kind == CATEGORICAL:
                others = [c for c in spec.choices if c != values[spec.name]]
                values[spec.name] = others[rng.integers(len(others))]
            elif spec.kind == "int":
                step = 1 if rng.uniform() < 0.5 else -1
                values[spec.name] = int(min(spec.high, max(spec.low, values[spec.name] + step)))
            else:
                rank = spec.levels.index(values[spec.name])
                step = 1 if rng.uniform() < 0.5 else -1
                rank = min(len(spec.levels) - 1, max(0, rank + step))
                values[spec.name] = spec.levels[rank]
    return Configuration(values)


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

    Scores ``n_candidates`` random samples plus neighborhoods of told and
    pending configurations, runs coordinate-wise local search from the best
    ``n_local_starts``, and returns a deduplicated, descending-score list
    that excludes told and pending configurations.
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be >= 1")
    excluded = set(told) | set(pending)

    total = space.n_configurations()
    exhaustive = total is not None and total <= max(n_candidates, _ENUMERATION_CAP)
    if exhaustive:
        pool = [c for c in space.all_configurations() if c not in excluded]
        if not pool:
            raise ExhaustedSpaceError("all configurations have been suggested")
    else:
        pool = sample_random(space, n_candidates, rng)
        for known in list(told) + list(pending):
            pool.append(_perturbed(space, known, rng))
            pool.append(_perturbed(space, known, rng))
        pool = [c for c in pool if c not in excluded]
        while not pool:  # pathological: resample until an unseen config appears
            pool = [c for c in sample_random(space, n_candidates, rng) if c not in excluded]

    seen: dict[Configuration, float] = {}

    def score_batch(configs: list[Configuration]) -> np.ndarray:
        X = encode_matrix(space, configs, encoding)
        scores = np.asarray(score_fn(X), dtype=float).ravel()
        for c, s in zip(configs, scores):
            if c not in seen or s > seen[c]:
                seen[c] = float(s)
        return scores

    pool_scores = score_batch(pool)

    if not exhaustive and n_local_starts > 0:
        order = np.argsort(-pool_scores, kind="stable")[:n_local_starts]
        current = [pool[i] for i in order]
        current_score = [pool_scores[i] for i in order]
        deltas = [
            {p.name: _STEP_INIT for p in space.parameters} for _ in current
        ]
        active = list(range(len(current)))
        for _ in range(_LOCAL_STEPS):
            if not active:
                break
            batches: list[tuple[int, list[Configuration]]] = []
            for i in active:
                neighbors = [
                    c for c in _neighbor_configs(space, current[i], deltas[i]) if c not in excluded
                ]
                batches.append((i, neighbors))
            flat = [c for _, neighbors in batches for c in neighbors]
            if flat:
                flat_scores = score_batch(flat)
            pos = 0
            next_active = []
            for i, neighbors in batches:
                scores_i = flat_scores[pos : pos + len(neighbors)] if neighbors else []
                pos += len(neighbors)
                if len(neighbors) and np.max(scores_i) > current_score[i]:
                    j = int(np.argmax(scores_i))
                    current[i] = neighbors[j]
                    current_score[i] = float(scores_i[j])
                    next_active.append(i)
                else:
                    for name in deltas[i]:
                        deltas[i][name] *= 0.5
                    if max(deltas[i].values()) >= _STEP_MIN:
                        next_active.append(i)
            active = next_active

    ranked = sorted(seen.items(), key=lambda item: -item[1])
    return [c for c, _ in ranked if c not in excluded]
