"""Multi-objective mathematics: dominance, sorting, crowding, hypervolume.

Minimization convention throughout. The region a front leaves undominated
splits into disjoint boxes by slicing one objective at a time down to the
last two, which close in one step; expected hypervolume improvement scores
against these boxes, and exact hypervolume is the volume they leave of the
box from the ideal point to the reference point.
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
    return bool(_pareto_dominates(a, b))


def _pareto_dominates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pareto dominance over the last axis, broadcasting the others: a <= b
    in every objective and a < b in at least one."""
    return np.all(a <= b, axis=-1) & np.any(a < b, axis=-1)


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
    return _pareto_dominates(pts[:, None, :], pts[None, :, :])


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
    """Ascending indices of the rows that are neither dominated nor equal to
    an earlier row (dropping the others keeps the measure unchanged)."""
    n = pts.shape[0]
    if n <= 1:
        return np.arange(n)
    if pts.shape[1] == 2:
        # in (f1, f2) order every dominator or earlier duplicate of a row
        # precedes it, so a row survives iff its f2 beats all earlier f2
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        f2 = pts[order, 1]
        prev_best = np.concatenate([[np.inf], np.minimum.accumulate(f2)[:-1]])
        return np.sort(order[f2 < prev_best])
    dominated = _dominance_matrix(pts).any(axis=0)
    equal = np.all(pts[:, None, :] == pts[None, :, :], axis=2)
    earlier_dup = np.triu(equal, k=1).any(axis=0)
    return np.flatnonzero(~(dominated | earlier_dup))


def nondominated_boxes(pts: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint boxes (lower, upper), each (b, m), that tile the part of
    {z <= ref} no row of pts weakly dominates, so a new point y adds
    hypervolume sum over boxes of prod_j (upper_j - max(lower_j, y_j))+.
    Needs m >= 2.

    Slices on the first objective: the slab between consecutive front
    values of f1 times the boxes of the (m-1)-objective front of the points
    left of it. At m=2 that front's one box is (-inf, least f2], so the last
    objective's lower bound is always -inf.
    """
    pts = pts[_pareto_filter(pts)]
    order = np.argsort(pts[:, 0], kind="stable")
    edges = np.concatenate([[-np.inf], pts[order, 0], [ref[0]]])
    # empty slabs come from tied f1 values or a point on the reference
    keep = np.flatnonzero(edges[1:] > edges[:-1])
    if ref.shape[0] == 2:
        # f2 falls strictly as f1 rises on the filtered front, so the least
        # f2 left of slab i is that of its left edge's point
        tops = np.concatenate([[ref[1]], pts[order, 1]])
        lower = np.column_stack([edges[:-1], np.full(len(tops), -np.inf)])
        return lower[keep], np.column_stack([edges[1:], tops])[keep]
    lowers, uppers = [], []
    for i in keep:
        sub_lower, sub_upper = nondominated_boxes(pts[order[:i], 1:], ref[1:])
        lowers.append(np.column_stack([np.full(len(sub_lower), edges[i]), sub_lower]))
        uppers.append(np.column_stack([np.full(len(sub_upper), edges[i + 1]), sub_upper]))
    return np.vstack(lowers), np.vstack(uppers)


def _hv_boxes(pts: np.ndarray, ref: np.ndarray) -> float:
    """Hypervolume of points within ref: the box [ideal, ref] less the
    nondominated_boxes cut off below at the ideal point. Every upper bound is
    a front value or ref, so no cut box has a negative side."""
    ideal = pts.min(axis=0)
    lower, upper = nondominated_boxes(pts, ref)
    undominated = (upper - np.maximum(lower, ideal)).prod(axis=1).sum()
    return float(np.prod(ref - ideal) - undominated)


def hypervolume(points, ref_point) -> float:
    """Lebesgue measure of the union of boxes [p_i, ref_point].

    ``points`` is an (n, m) array, or one point of length m, with m the
    length of ``ref_point``. Points with any component beyond the reference
    point are filtered out first. The undominated boxes that expected
    hypervolume improvement scores against are subtracted from the box
    between the ideal and the reference point.
    """
    ref = np.asarray(ref_point, dtype=float)
    if ref.ndim != 1 or ref.shape[0] < 2:
        raise ValueError("ref_point must be a vector of length >= 2")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return 0.0
    if pts.ndim != 2 or pts.shape[1] != ref.shape[0]:
        raise ValueError(
            f"points of shape {pts.shape} do not match a ref_point of length {ref.shape[0]}"
        )
    pts = pts[np.all(pts <= ref, axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    return _hv_boxes(pts, ref)  # nondominated_boxes filters the front itself


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
