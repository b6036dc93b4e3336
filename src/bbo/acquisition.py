"""Acquisition functions and their inner optimization over the search space.

Score functions are vectorized: they take one encoded row or an (n, d) batch
and return a float or an (n,) array. The advisor scores a candidate by its
improvement (:func:`expected_improvement` for one objective, :func:`ehvi`
for several) times :func:`feasibility_product`, the product of the
constraints' probabilities of feasibility. EHVI is exact: over the disjoint
boxes [l, u] the front leaves undominated (:func:`bbo.moo.nondominated_boxes`)
it is the sum over boxes of prod_j (G_j(u_j) - G_j(l_j)), with
G_j(a) = E[(a - y_j)+] the expected improvement of objective j below a.
The inner optimizer (:func:`maximize_acquisition`) scores random candidates
and random neighbours of known configurations, then runs coordinate-wise
local search.
It works on code matrices only (see :mod:`bbo.space`): the known
configurations arrive as snapped code rows, candidates are sampled,
perturbed, snapped, deduplicated and excluded by the bytes of their rows
(keyed by a 64-bit hash of each row, with shared hashes compared byte for
byte), and the one best row is returned for the caller to decode.
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
    encode_codes,
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


# splitmix64's multipliers and shift (Steele, Lea & Flood 2014), as uint64
# scalars so that products wrap and shifts stay unsigned under NEP 50
_HASH_KEY = np.uint64(0xBF58476D1CE4E5B9)
_HASH_MIX = np.uint64(0x94D049BB133111EB)
_HASH_SHIFT = np.uint64(31)
_HALF_WORD = np.uint64(32)


def _row_hashes(codes: np.ndarray) -> np.ndarray:
    """One 64-bit hash per code row, mixed from the row's uint64 words:
    each word folded and multiplied by an odd key of its column, the
    products xor-ed together and finalized, so equal rows hash equally."""
    words = np.ascontiguousarray(codes, dtype=float).view(np.uint64)
    keys = np.arange(1, 2 * words.shape[1], 2, dtype=np.uint64) * _HASH_KEY
    h = np.zeros(len(words), dtype=np.uint64)
    for word, key in zip(words.T, keys):
        h ^= (word ^ (word >> _HALF_WORD)) * key
    h ^= h >> _HASH_SHIFT
    h *= _HASH_MIX
    h ^= h >> _HASH_SHIFT
    return h


def _hash_index(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows' hashes in ascending order, and the rows in that order."""
    h = _row_hashes(rows)
    order = np.argsort(h, kind="stable")
    return h[order], rows[order]


def _member(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each value occurs in the ascending array ``table``."""
    if not len(table):
        return np.zeros(len(values), dtype=bool)
    return table[np.minimum(np.searchsorted(table, values), len(table) - 1)] == values


def _first_equal(rows: np.ndarray) -> np.ndarray:
    """For each row, the index of the first row with the same bytes, found
    by one stable sort over the rows' uint64 words."""
    words = np.ascontiguousarray(rows, dtype=float).view(np.uint64)
    order = np.lexsort(words.T[::-1])
    ranked = words[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first = np.empty(len(order), dtype=np.intp)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


def _unseen(codes: np.ndarray, known: tuple, distinct: bool) -> np.ndarray:
    """Mask of the rows of ``codes`` that equal no known row and, when
    ``distinct``, no earlier row of ``codes``; rows compare by their bytes.
    ``known`` is the :func:`_hash_index` of the known rows.

    A row whose hash no known row (and, when ``distinct``, no other row)
    has is kept as it stands. Rows whose hash is shared are compared byte
    for byte (:func:`_first_equal`), so a collision costs time, never a row."""
    h = _row_hashes(codes)
    known_hashes, known_rows = known
    # the shared hashes: the known ones found among the rows' sorted hashes
    # and, when distinct, those that occur twice; usually there are none, and
    # no row is searched for
    ranked = np.sort(h)
    shared_hashes = known_hashes[_member(known_hashes, ranked)]
    if distinct:
        twice = ranked[1:][ranked[1:] == ranked[:-1]]
        shared_hashes = np.sort(np.concatenate([shared_hashes, twice]))
    shared = _member(h, shared_hashes)
    keep = ~shared
    suspects = np.flatnonzero(shared)
    if len(suspects):
        rivals = known_rows[_member(known_hashes, np.sort(h[suspects]))]
        first = _first_equal(np.concatenate([rivals, codes[suspects]]))[len(rivals) :]
        own = np.arange(len(rivals), len(rivals) + len(suspects))
        keep[suspects] = first == own if distinct else first >= len(rivals)
    return keep


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
    first one scored on ties). Scores rank as in :func:`_top`, so a NaN
    score ranks below every number.

    No scored row equals a known row, and the pool holds each row once.
    Rows are keyed by their bytes through a 64-bit hash per row: the known
    rows' hashes are sorted once per call, and only rows whose hash is
    shared are compared byte for byte (see :func:`_unseen`).
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be >= 1")
    known_codes = np.reshape(np.asarray(known, dtype=float), (-1, len(space)))
    known_index = _hash_index(known_codes)

    def score(codes: np.ndarray) -> np.ndarray:
        return np.asarray(score_fn(encode_codes(space, codes, encoding)), dtype=float).ravel()

    def unseen(codes: np.ndarray) -> np.ndarray:
        return codes[_unseen(codes, known_index, distinct=True)]

    total = space.n_configurations()
    exhaustive = total is not None and total <= max(n_candidates, _ENUMERATION_CAP)
    if exhaustive:
        pool = unseen(all_codes(space))
        if not len(pool):
            raise ExhaustedSpaceError("all configurations have been suggested")
    else:
        seeds = _jittered(space, np.vstack([known_codes, known_codes]), rng)
        pool = unseen(np.vstack([sample_codes(space, n_candidates, rng), seeds]))
        while not len(pool):  # pathological: resample until an unseen row appears
            pool = unseen(sample_codes(space, n_candidates, rng))
    pool_scores = score(pool)
    found, found_scores = [pool], [pool_scores]

    if not exhaustive and n_local_starts > 0:
        # the starts still improving: their rows, scores and step sizes
        # (every parameter's step starts at _STEP_INIT and halves together)
        starts = _top(pool_scores, n_local_starts)
        current, current_score = pool[starts], pool_scores[starts]
        deltas = np.full(len(starts), _STEP_INIT)
        for _ in range(_LOCAL_STEPS):
            if not len(current):
                break
            moved, origin = _neighbours(space, current, deltas)
            keep = _unseen(moved, known_index, distinct=False)
            if not keep.all():
                moved, origin = moved[keep], origin[keep]
            scores = score(moved) if len(moved) else np.empty(0)
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
            return rows[top : top + 1]
        top -= len(rows)
