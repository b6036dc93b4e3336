"""Multi-objective mathematics: dominance, sorting, crowding, hypervolume.

Minimization convention throughout. Hypervolume is exact: a sweep for two
objectives and dimension-recursive slicing for three or more. The region a
front leaves undominated splits into disjoint boxes the same recursive way,
which expected hypervolume improvement scores against.
"""

from __future__ import annotations

import warnings

import numpy as np


def dominates(a, b) -> bool:
    """True iff a <= b componentwise and a < b in at least one component."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"objective vectors differ in length: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def non_dominated_sort(points) -> list[list[int]]:
    """Fast non-dominated sort; returns fronts as lists of point indices.

    Front 0 is the non-dominated set; front k is non-dominated once fronts
    < k are removed. Uses the O(m n^2) domination-count bookkeeping.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, m) array")
    return _peel_fronts(_dominance_matrix(pts))


def _dominance_matrix(pts: np.ndarray) -> np.ndarray:
    """Pairwise dominance of the rows of an (n, m) array: dom[i, j] = i dominates j."""
    less_eq = np.all(pts[:, None, :] <= pts[None, :, :], axis=2)
    less = np.any(pts[:, None, :] < pts[None, :, :], axis=2)
    return less_eq & less


def _peel_fronts(dom: np.ndarray) -> list[list[int]]:
    """Fronts of a strict partial order given as a dominance matrix.

    Each front holds the indices whose dominators all lie in earlier
    fronts, in ascending order.
    """
    counts = dom.sum(axis=0)
    fronts: list[list[int]] = []
    current = np.flatnonzero(counts == 0)
    while current.size:
        fronts.append(current.tolist())
        counts = counts - dom[current].sum(axis=0)
        counts[current] = -1  # placed; never selected again
        current = np.flatnonzero(counts == 0)
    return fronts


def crowding_distance(front_points) -> np.ndarray:
    """NSGA-II crowding distance for one front.

    Boundary points per objective get +inf; interior points accumulate the
    normalized neighbor gap. Objectives with zero range contribute 0.
    """
    pts = np.asarray(front_points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("front must be a non-empty (n, m) array")
    n, m = pts.shape
    dist = np.zeros(n)
    for j in range(m):
        order = np.argsort(pts[:, j], kind="stable")
        col = pts[order, j]
        span = col[-1] - col[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span > 0 and n > 2:
            gaps = (col[2:] - col[:-2]) / span
            dist[order[1:-1]] += gaps
    return dist


def _pareto_filter(pts: np.ndarray) -> np.ndarray:
    """Drop dominated and duplicate rows (keeps the measure unchanged).

    Survivors keep their input order; of equal rows the earliest survives.
    """
    n = pts.shape[0]
    if n <= 1:
        return pts
    if pts.shape[1] == 2:
        # in (f1, f2) order every dominator or earlier duplicate of a row
        # precedes it, so a row survives iff its f2 beats all earlier f2
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        f2 = pts[order, 1]
        prev_best = np.concatenate([[np.inf], np.minimum.accumulate(f2)[:-1]])
        return pts[np.sort(order[f2 < prev_best])]
    dominated = _dominance_matrix(pts).any(axis=0)
    equal = np.all(pts[:, None, :] == pts[None, :, :], axis=2)
    earlier_dup = np.triu(equal, k=1).any(axis=0)
    return pts[~(dominated | earlier_dup)]


def _hv_sweep_2d(pts: np.ndarray, ref: np.ndarray) -> float:
    order = np.argsort(pts[:, 0], kind="stable")
    total = 0.0
    cur = ref[1]
    for a, b in pts[order]:
        if b < cur:
            total += (ref[0] - a) * (cur - b)
            cur = b
    return float(total)


def _hv_recursive(pts: np.ndarray, ref: np.ndarray) -> float:
    """Exact hypervolume by slicing on the last objective."""
    m = ref.shape[0]
    if pts.shape[0] == 0:
        return 0.0
    if m == 1:
        return float(ref[0] - pts[:, 0].min())
    order = np.argsort(pts[:, -1], kind="stable")
    pts = pts[order]
    total = 0.0
    n = pts.shape[0]
    for i in range(n):
        upper = pts[i + 1, -1] if i + 1 < n else ref[-1]
        height = upper - pts[i, -1]
        if height <= 0:
            continue
        slab = _pareto_filter(pts[: i + 1, :-1])
        total += height * _hv_recursive(slab, ref[:-1])
    return float(total)


def nondominated_boxes(pts: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint boxes (lower, upper), each (b, m), that tile the part of
    {z <= ref} no row of pts weakly dominates, so a new point y adds
    hypervolume sum over boxes of prod_j (upper_j - max(lower_j, y_j))+.

    Slices on the first objective: the slab between consecutive front
    values of f1 times the boxes of the (m-1)-objective front of the points
    left of it. At m=1 the one box is (-inf, min] (or (-inf, ref] with no
    points), so the last objective's lower bound is always -inf.
    """
    if ref.shape[0] == 1:
        upper = pts[:, 0].min() if pts.shape[0] else ref[0]
        return np.array([[-np.inf]]), np.array([[upper]])
    pts = _pareto_filter(pts)
    order = np.argsort(pts[:, 0], kind="stable")
    edges = np.concatenate([[-np.inf], pts[order, 0], [ref[0]]])
    lowers, uppers = [], []
    for i in range(len(edges) - 1):
        if edges[i + 1] <= edges[i]:
            continue  # empty slab: tied f1 values or a point on the reference
        sub_lower, sub_upper = nondominated_boxes(pts[order[:i], 1:], ref[1:])
        lowers.append(np.column_stack([np.full(len(sub_lower), edges[i]), sub_lower]))
        uppers.append(np.column_stack([np.full(len(sub_upper), edges[i + 1]), sub_upper]))
    return np.vstack(lowers), np.vstack(uppers)


def hypervolume(points, ref_point, force_recursive: bool = False) -> float:
    """Lebesgue measure of the union of boxes [p_i, ref_point].

    Points with any component beyond the reference point are filtered out
    first. ``force_recursive`` routes m=2 input through the recursive path
    (consistency checks only).
    """
    ref = np.asarray(ref_point, dtype=float)
    if ref.ndim != 1 or ref.shape[0] < 2:
        raise ValueError("ref_point must be a vector of length >= 2")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0.0
    pts = pts.reshape(-1, ref.shape[0])
    pts = pts[np.all(pts <= ref, axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    pts = _pareto_filter(pts)
    if ref.shape[0] == 2 and not force_recursive:
        return _hv_sweep_2d(pts, ref)
    return _hv_recursive(pts, ref)


def hypervolume_difference(points, ref_point, optimal_hv: float) -> float:
    """optimal_hv minus the achieved hypervolume (the regret-style metric).

    Negative values mean optimal_hv underestimates the true optimum; they are
    returned as-is with a warning.
    """
    if optimal_hv < 0:
        raise ValueError("optimal_hv must be >= 0")
    diff = float(optimal_hv) - hypervolume(points, ref_point)
    if diff < 0:
        warnings.warn(
            f"achieved hypervolume exceeds optimal_hv by {-diff:.3g}; "
            "the supplied optimum appears to be an underestimate",
            stacklevel=2,
        )
    return diff
