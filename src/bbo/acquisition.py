"""Acquisition functions and their inner optimization over the search space.

Score functions are vectorized: they take one encoded row or an (n, d) batch
and return a float or an (n,) array. The parts of a score are an
improvement (:func:`expected_improvement` for one objective, :func:`ehvi`
for several), :func:`feasibility_product`, the product of the
constraints' probabilities of feasibility, and :func:`local_penalization`
around pending points. EHVI is exact: over the disjoint boxes [l, u] the
front leaves undominated (:func:`bbo.moo.nondominated_boxes`) it is the sum
over boxes of prod_j (G_j(u_j) - G_j(l_j)), with G_j(a) = E[(a - y_j)+] the
expected improvement of objective j below a.

The inner optimizer (:func:`maximize_acquisition`) scores the candidate pool
it is handed (:func:`_candidate_pool` draws one: random samples plus random
neighbours of known configurations, or every configuration of a small
space), then runs coordinate-wise local search from its best rows. Both
work on code matrices (see :mod:`bbo.space`), deduplicating and excluding
rows through sets of the bytes of their rows. Every row the search ranks
goes through the one score function it is handed, the pool as the inputs
given for its rows and each local-search step as ``encode(rows)``, and the
one best row is returned for the caller to decode.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ExhaustedSpaceError
from .space import (
    CATEGORICAL,
    FLOAT,
    SearchSpace,
    _GRID,
    _code_bounds,
    all_codes,
    sample_codes,
    snap_codes,
)


_SQRT_2PI = math.sqrt(2 * math.pi)


def _load_special() -> None:
    """Bind scipy.special's ``erfc`` and ``ndtr`` as module globals on first
    use, unless already bound (so a test's stand-in stays in place): loading
    scipy.special takes most of what ``import bbo`` would otherwise cost."""
    global erfc, ndtr
    if "ndtr" not in globals():
        from scipy.special import erfc, ndtr


def _gaussian_ei(improve, sigma):
    """sigma * (z Phi(z) + phi(z)) with z = improve / sigma, for sigma > 0."""
    z = improve / sigma
    return sigma * (z * ndtr(z) + np.exp(-(z**2) / 2.0) / _SQRT_2PI)


def _by_sigma(a, sigma, gaussian, degenerate):
    """``gaussian(a, sigma)`` where sigma > 0 and ``degenerate(a)`` elsewhere,
    a and sigma broadcast together. Each element goes through one of the
    two, and the masking is skipped when every sigma is positive."""
    positive = sigma > 0
    if positive.all():
        return gaussian(a, sigma)
    a = np.asarray(a)
    if a.shape != sigma.shape:
        a, sigma = np.broadcast_arrays(a, sigma)
        positive = sigma > 0
    out = np.asarray(degenerate(a), dtype=float)
    out[positive] = gaussian(a[positive], sigma[positive])
    return out


def expected_improvement(mean, variance, eta):
    """EI for minimization: sigma * (z Phi(z) + phi(z)) with z = (eta - mean) / sigma.

    Degenerates to max(eta - mean, 0) at zero variance.
    """
    _load_special()
    improve = eta - np.asarray(mean, dtype=float)
    sigma = np.sqrt(np.maximum(np.asarray(variance, dtype=float), 0.0))
    out = np.maximum(_by_sigma(improve, sigma, _gaussian_ei, lambda a: np.maximum(a, 0.0)), 0.0)
    return float(out) if out.ndim == 0 else out


def probability_of_feasibility(mean, variance):
    """P(c <= 0) under a Gaussian predictive; indicator(mean <= 0) at sigma = 0."""
    _load_special()
    mean = np.asarray(mean, dtype=float)
    sigma = np.sqrt(np.maximum(np.asarray(variance, dtype=float), 0.0))
    pof = _by_sigma(mean, sigma, lambda a, s: ndtr(-a / s), lambda a: a <= 0)
    return float(pof) if pof.ndim == 0 else pof


def feasibility_product(constraint_models: list, X: np.ndarray) -> np.ndarray:
    """Product of per-constraint probabilities of feasibility at each row."""
    pof = np.ones(np.atleast_2d(X).shape[0])
    for model in constraint_models:
        mu, var = model.predict(X)
        pof = pof * probability_of_feasibility(mu, var)
    return pof


# elements of each (boxes, rows) temporary while summing box volumes: 512 KB
_EHVI_CHUNK_ELEMENTS = 1 << 16


def ehvi_tables(boxes: tuple) -> list:
    """The front's part of :func:`ehvi`, built once per front from the
    ``(lower, upper)`` boxes of :func:`bbo.moo.nondominated_boxes`: for
    each objective, its distinct finite bounds in ascending order, and each
    box's row into them for its upper and for its lower bound, where the
    row past the last bound stands for -inf."""
    lower, upper = boxes
    tables = []
    for j in range(upper.shape[1]):
        bounds = np.concatenate([upper[:, j], lower[:, j]])
        finite = np.isfinite(bounds)
        values, rows = np.unique(bounds[finite], return_inverse=True)
        index = np.full(len(bounds), len(values))
        index[finite] = rows
        tables.append((values[:, None], index[: len(upper)], index[len(upper) :]))
    return tables


def ehvi(x_encoded, objective_models: list, tables: list):
    """Exact expected hypervolume improvement over the boxes of a front,
    given as its :func:`ehvi_tables`, one model per objective.

    The objectives are independent Gaussians and the boxes [l, u] are
    disjoint, so the expected gain is the sum over boxes of
    prod_j (G_j(u_j) - G_j(l_j)), where G_j(a) = E[(a - y_j)+] is
    :func:`expected_improvement` with eta = a, and G_j(-inf) = 0. Every
    upper bound is a front value or the reference point, so clipping to the
    reference point changes nothing. At zero variance this is the exact
    hypervolume gain of the mean. G is evaluated once per row at each
    distinct finite bound of each objective, and the box volumes are summed
    in chunks, so memory stays O(rows x chunk) however many boxes there are.
    """
    X = np.atleast_2d(np.asarray(x_encoded, dtype=float))
    q = X.shape[0]
    G = []  # per objective: G at each bound, one row per bound, then zeros for -inf
    for model, (values, _, _) in zip(objective_models, tables):
        mean, variance = model.predict(X)
        G.append(np.zeros((len(values) + 1, q)))
        G[-1][:-1] = expected_improvement(mean, variance, values)

    scores = np.zeros(q)
    chunk = max(1, _EHVI_CHUNK_ELEMENTS // q)
    for start in range(0, len(tables[0][1]), chunk):
        box = slice(start, start + chunk)
        volume = 1.0
        for G_j, (_, up, lo) in zip(G, tables):
            volume = volume * (G_j[up[box]] - G_j[lo[box]])
        scores += volume.sum(axis=0)
    scores = np.maximum(scores, 0.0)  # G is monotone, but its rounding need not be
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
    _load_special()
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


def _row_keys(codes: np.ndarray) -> list:
    """The bytes of each float64 code row, read through one ``np.void`` view."""
    rows = np.ascontiguousarray(codes, dtype=float)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def _unseen_mask(codes: np.ndarray, known_keys: set) -> np.ndarray:
    """Whether the bytes of each row of ``codes`` are not in ``known_keys``."""
    return np.array([key not in known_keys for key in _row_keys(codes)], dtype=bool)


def _unseen_rows(codes: np.ndarray, known_keys: set) -> np.ndarray:
    """The rows of ``codes`` whose bytes are not in ``known_keys``, each kept
    once, at its first occurrence, in order."""
    kept = dict.fromkeys(_row_keys(codes))
    for key in known_keys:
        kept.pop(key, None)
    return np.frombuffer(b"".join(kept), dtype=float).reshape(-1, codes.shape[1])


def _rows_in(codes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether the bytes of each row of ``codes`` equal those of a row of
    ``rows``, compared as 64-bit words (for the few rows a step adds)."""
    words = [np.ascontiguousarray(a, dtype=float).view(np.int64) for a in (codes, rows)]
    return (words[0][:, None, :] == words[1][None, :, :]).all(axis=2).any(axis=1)


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


@lru_cache(maxsize=16)
def _move_table(space: SearchSpace) -> tuple:
    """The coordinate moves of the local search, in neighbour order: each
    move's column, then (moves, 1) arrays that broadcast over a (moves, rows)
    array of the moved column's values: the factor on the old value (0 where
    a move sets a category), the sign of a float's +-delta step, the
    constant added (+-1 to an int value or ordinal rank, the category set),
    and the column's code bounds."""
    moves = []
    for j, spec in enumerate(space.parameters):
        if spec.kind == FLOAT:
            moves += [(j, 1, 1, 0, 0, 1), (j, 1, -1, 0, 0, 1)]
        elif spec.kind == CATEGORICAL:
            moves += [(j, 0, 0, c, 0, spec.n_values() - 1) for c in range(spec.n_values())]
        else:
            moves += [(j, 1, 0, sign, *_code_bounds(spec)) for sign in (-1, 1)]
    column, *fields = zip(*moves)
    return (np.array(column), *(np.array(field, dtype=float)[:, None] for field in fields))


def _neighbours(space: SearchSpace, codes: np.ndarray, deltas: np.ndarray):
    """Coordinate-wise neighbourhood of each snapped row, with the index of
    the row each neighbour came from: +-delta on floats, +-1 on int values
    and ordinal ranks, every other choice on categoricals. All moves are
    made as one (moves, rows) array of the moved column's new values, and
    only that column is snapped; neighbours equal to their row are dropped."""
    column, keep, step, add, lo, hi = _move_table(space)
    current = codes[:, column].T
    moved = np.minimum(np.maximum(current * keep + step * deltas + add, lo), hi)
    # onto the float grid; integer codes are on it already, and stay as they are
    moved = np.rint(moved * _GRID) / _GRID + 0.0
    changed = moved != current
    move, origin = np.nonzero(changed)
    neighbours = codes[origin]
    neighbours[np.arange(len(origin)), column[move]] = moved[changed]
    return neighbours, origin


def _top(scores: np.ndarray, k: int) -> np.ndarray:
    """The first k indices of ``np.argsort(-scores, kind="stable")``: larger
    scores first, ties to the lower index, -0.0 equal to 0.0 and NaN after
    every number. Without NaN, only the scores at or above the k-th largest
    are sorted."""
    n = len(scores)
    if k >= n or np.isnan(scores).any():
        return np.argsort(-scores, kind="stable")[:k]
    chosen = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    return chosen[np.argsort(-scores[chosen], kind="stable")[:k]]


def _candidate_pool(
    space: SearchSpace,
    rng: np.random.Generator,
    n_candidates: int,
    known_codes: np.ndarray,
    known_keys,
) -> tuple[np.ndarray, str]:
    """The rows an ask scores before its local search, and how they were
    drawn: every configuration the known rows leave free
    (``"enumerated"``), when the space has at most
    ``max(n_candidates, 100000)`` of them, or else ``n_candidates`` random
    samples followed by two random neighbours of each known row, the
    neighbours drawn first (``"sampled"``). Rows equal to a known row are
    dropped and the others kept once, at their first occurrence."""
    total = space.n_configurations()
    if total is not None and total <= max(n_candidates, _ENUMERATION_CAP):
        pool = _unseen_rows(all_codes(space), known_keys)
        if not len(pool):
            raise ExhaustedSpaceError("all configurations have been suggested")
        return pool, "enumerated"
    seeds = _jittered(space, np.vstack([known_codes, known_codes]), rng)
    candidates = np.vstack([sample_codes(space, n_candidates, rng), seeds])
    pool = _unseen_rows(candidates, known_keys)
    while not len(pool):  # pathological: resample until an unseen row appears
        pool = _unseen_rows(sample_codes(space, n_candidates, rng), known_keys)
    return pool, "sampled"


def maximize_acquisition(
    score_fn: Callable[[np.ndarray], np.ndarray],
    space: SearchSpace,
    pool: tuple,
    encode: Callable[[np.ndarray], np.ndarray],
    known: np.ndarray = (),
    n_local_starts: int = 10,
) -> np.ndarray:
    """Maximize a batched score function over the rows the ``known`` code
    rows (told and pending configurations, see :func:`bbo.space.to_codes`)
    leave free.

    ``pool`` is the non-empty (rows, inputs) of the candidates: distinct
    code rows that are not known, and what ``score_fn`` takes for them.
    Scores the pool, runs coordinate-wise local search from its best
    ``n_local_starts`` rows, scoring each step's unseen neighbours as
    ``score_fn(encode(neighbours))``, and returns the best-scoring row as a
    (1, #parameters) code matrix (the first one scored on ties). Scores rank
    as in :func:`_top`, so a NaN score ranks below every number.

    No scored row equals a known row. Rows compare by their bytes
    (:func:`_row_keys`), so -0.0 and 0.0 differ.
    """

    def score(X: np.ndarray) -> np.ndarray:
        return np.asarray(score_fn(X), dtype=float).ravel()

    candidates, inputs = pool
    pool_scores = score(inputs)
    found, found_scores = [candidates], [pool_scores]

    if n_local_starts > 0:
        known_keys = set(_row_keys(np.reshape(np.asarray(known, dtype=float), (-1, len(space)))))
        # the starts still improving: their rows, scores and step sizes
        # (every parameter's step starts at _STEP_INIT and halves together)
        starts = _top(pool_scores, n_local_starts)
        current, current_score = candidates[starts], pool_scores[starts]
        deltas = np.full(len(starts), _STEP_INIT)
        for _ in range(_LOCAL_STEPS):
            if not len(current):
                break
            moved, origin = _neighbours(space, current, deltas)
            keep = _unseen_mask(moved, known_keys)
            if not keep.all():
                moved, origin = moved[keep], origin[keep]
            scores = score(encode(moved)) if len(moved) else np.empty(0)
            found.append(moved)
            found_scores.append(scores)
            # best neighbour of each start, the first generated on ties
            order = np.lexsort((-scores, origin))
            ranked = origin[order]
            leads = np.ones(len(order), dtype=bool)  # the first of each origin's run
            leads[1:] = ranked[1:] != ranked[:-1]
            first, ranked = order[leads], ranked[leads]
            best = np.full(len(current), -np.inf)
            best[ranked] = scores[first]
            improved = best > current_score
            current[improved] = moved[first[improved[ranked]]]
            current_score[improved] = best[improved]
            deltas[~improved] *= 0.5
            going = improved | (deltas >= _STEP_MIN)
            current, current_score, deltas = current[going], current_score[going], deltas[going]

    # the first best row scored, sliced out of its own block
    (top,) = _top(np.concatenate(found_scores), 1)
    for rows in found:
        if top < len(rows):
            return rows[top : top + 1].copy()  # the pool is a read-only view of its keys
        top -= len(rows)
