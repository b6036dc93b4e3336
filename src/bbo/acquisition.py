"""Acquisition functions and their inner optimization over the search space.

Score functions are vectorized: they take one encoded row or an (n, d) batch
and return a float or an (n,) array. The advisor scores a candidate by its
improvement (:func:`expected_improvement` for one objective, :func:`ehvi`
for several) times :meth:`AcquisitionContext.feasibility_product`, the
product of the constraints' probabilities of feasibility. The inner optimizer
(:func:`maximize_acquisition`) scores random candidates and random
neighbours of known configurations, then runs coordinate-wise local search.
It works on code matrices only (see :mod:`bbo.space`): the known
configurations arrive as snapped code rows, candidates are sampled,
perturbed, snapped, deduplicated and excluded by the bytes of their rows,
and the one best row is returned for the caller to decode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import erfc, ndtr

from . import moo
from .errors import ExhaustedSpaceError
from .space import (
    CATEGORICAL,
    FLOAT,
    SearchSpace,
    all_codes,
    encode_codes,
    sample_codes,
    snap_codes,
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
            sigma * (z * ndtr(z) + np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)),
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
            ndtr(-mean / np.where(sigma > 0, sigma, 1.0)),
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
    # (lower, upper) box decomposition of the region the front leaves
    # undominated below ref_point, built once per context for ehvi
    boxes: tuple | None = field(init=False, default=None)

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
        if self.ref_point is not None:
            m = self.ref_point.shape[0]
            front = self.front if self.front is not None else np.empty((0, m))
            self.boxes = moo.nondominated_boxes(front, self.ref_point)

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


def _hv_improvements(Y: list, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Vectorized HV(front + {y}) - HV(front) for points y whose objective j
    is the array Y[j], given the front's box decomposition (lower, upper).

    Accumulates box by box in place, so memory stays O(points) even for very
    large sample batches. The last objective's lower bound is -inf, so its
    side is (upper - y)+.
    """
    m = len(Y)
    total = np.zeros_like(Y[0])
    volume = np.empty_like(Y[0])
    side = np.empty_like(Y[0])
    for lo, hi in zip(lower, upper):
        for j in range(m):
            out = volume if j == 0 else side
            if j < m - 1:
                np.maximum(lo[j], Y[j], out=out)
                np.subtract(hi[j], out, out=out)
            else:
                np.subtract(hi[j], Y[j], out=out)
            np.maximum(out, 0.0, out=out)
            if j:
                volume *= side
        total += volume
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
    gain over the current front, scored on the context's box decomposition.
    Deterministic for a given rng state.
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
    chunk = max(1, int(4_000_000 // max(mc_samples, 1)))
    for start in range(0, q, chunk):
        end = min(q, start + chunk)
        # per objective, a contiguous (c, S) sample block clipped to the reference point
        Y = [
            np.minimum(mu[start:end, j, None] + sigma[start:end, j, None] * Z[:, j], ref[j])
            for j in range(m)
        ]
        scores[start:end] = _hv_improvements(Y, *ctx.boxes).mean(axis=1)
    scores = np.maximum(scores, 0.0)
    return float(scores[0]) if np.ndim(x_encoded) == 1 else scores


_LIPSCHITZ_POINTS = 500
_LIPSCHITZ_STEP = 1e-3


def estimate_lipschitz(model, dim: int, rng: np.random.Generator) -> float:
    """Max central-difference gradient norm of the model mean over 500
    random unit-cube points, floored at 1e-3."""
    X = rng.uniform(size=(_LIPSCHITZ_POINTS, dim))
    grad_sq = np.zeros(_LIPSCHITZ_POINTS)
    for k in range(dim):
        plus = X.copy()
        minus = X.copy()
        plus[:, k] += _LIPSCHITZ_STEP
        minus[:, k] -= _LIPSCHITZ_STEP
        mu_p, _ = model.predict(plus)
        mu_m, _ = model.predict(minus)
        grad_sq += ((mu_p - mu_m) / (2 * _LIPSCHITZ_STEP)) ** 2
    return max(float(np.sqrt(grad_sq).max()), 1e-3)


def local_penalization(
    score,
    x_encoded,
    pending: np.ndarray,
    model,
    lipschitz: float,
    best_value: float,
):
    """Multiply a nonnegative score by smooth exclusion factors around the
    encoded pending rows x_j: 0.5 erfc(-z_j) with
    z_j = (L ||x - x_j|| - M + mu(x_j)) / sqrt(2 sigma^2(x_j))."""
    if lipschitz <= 0:
        raise ValueError("Lipschitz estimate must be > 0")
    if not len(pending):
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
    known: np.ndarray = (),
) -> np.ndarray:
    """Maximize a batched score function over the rows the ``known`` code
    rows (told and pending configurations, see :func:`bbo.space.to_codes`)
    leave free.

    Scores ``n_candidates`` random samples plus two random neighbours of
    each known row (or, when the space has at most
    ``max(n_candidates, 100000)`` configurations, all of them), runs
    coordinate-wise local search from the best ``n_local_starts``, and
    returns the best-scoring row as a (1, #parameters) code matrix (the
    first one scored on ties).
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be >= 1")
    known_codes = np.reshape(np.asarray(known, dtype=float), (-1, len(space)))
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

    top = np.argsort(-np.concatenate(found_scores), kind="stable")[0]
    return np.vstack(found)[top : top + 1]
