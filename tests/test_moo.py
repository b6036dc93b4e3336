"""Tests for dominance, sorting, crowding, and hypervolume."""

import math

import numpy as np
import pytest

from bbo.moo import (
    _pareto_filter,
    crowding_distance,
    dominates,
    hypervolume,
    hypervolume_difference,
    non_dominated_sort,
    nondominated_boxes,
)


def peel_fronts(points):
    """Independent oracle: repeatedly peel the brute-force non-dominated set."""
    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        front = []
        for i in remaining:
            if not any(
                dominates(points[j], points[i]) for j in remaining if j != i
            ):
                front.append(i)
        fronts.append(sorted(front))
        remaining = [i for i in remaining if i not in front]
    return fronts


def pareto_filter_oracle(pts):
    """Indices of the rows no other row dominates and no earlier row equals."""
    keep = [
        not any(dominates(q, p) for q in pts)
        and not any(np.array_equal(pts[j], p) for j in range(i))
        for i, p in enumerate(pts)
    ]
    return np.flatnonzero(np.array(keep, dtype=bool))


def inclusion_exclusion_hv(points, ref):
    """Exact oracle: the sum over nonempty subsets S of the front of
    (-1)^(|S|+1) prod_j (ref_j - max_{p in S} p_j), over at most 10 points."""
    ref = np.asarray(ref, dtype=float)
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, ref.shape[0]), axis=0)
    pts = pts[np.all(pts <= ref, axis=1)]
    # rows are distinct, so a row weakly dominated only by itself is on the front
    weakly = np.all(pts[:, None, :] <= pts[None, :, :], axis=2)
    pts = pts[weakly.sum(axis=0) == 1]
    n = pts.shape[0]
    assert n <= 10, "inclusion-exclusion takes 2^n terms"
    masks = ((np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1).astype(bool)  # one row per S
    corners = np.where(masks[:, :, None], pts[None, :, :], -np.inf).max(axis=1, initial=-np.inf)
    signs = np.where(masks.sum(axis=1) % 2 == 1, 1.0, -1.0)
    return math.fsum(signs * np.prod(ref - corners, axis=1))


def boxes_oracle(pts, ref):
    """Independent oracle: the slab recursion of nondominated_boxes carried
    down to one objective, whose one box is (-inf, min] (or (-inf, ref] with
    no points)."""
    if ref.shape[0] == 1:
        upper = pts[:, 0].min() if pts.shape[0] else ref[0]
        return np.array([[-np.inf]]), np.array([[upper]])
    pts = pts[_pareto_filter(pts)]
    order = np.argsort(pts[:, 0], kind="stable")
    edges = np.concatenate([[-np.inf], pts[order, 0], [ref[0]]])
    lowers, uppers = [], []
    for i in range(len(edges) - 1):
        if edges[i + 1] <= edges[i]:
            continue
        sub_lower, sub_upper = boxes_oracle(pts[order[:i], 1:], ref[1:])
        lowers.append(np.column_stack([np.full(len(sub_lower), edges[i]), sub_lower]))
        uppers.append(np.column_stack([np.full(len(sub_upper), edges[i + 1]), sub_upper]))
    return np.vstack(lowers), np.vstack(uppers)


def sweep_hv_2d(points, ref):
    """Independent oracle: two-objective hypervolume by a sweep in f1 order."""
    pts = np.asarray(points, dtype=float)
    pts = pts[np.all(pts <= ref, axis=1)]
    total, cur = 0.0, ref[1]
    for a, b in pts[np.argsort(pts[:, 0], kind="stable")]:
        if b < cur:
            total += (ref[0] - a) * (cur - b)
            cur = b
    return total


def mc_hypervolume(points, ref, n_samples, seed=0):
    """Monte Carlo oracle over the bounding box [min(points), ref]."""
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(ref, dtype=float)
    lower = pts.min(axis=0)
    box = np.prod(ref - lower)
    rng = np.random.default_rng(seed)
    samples = rng.uniform(lower, ref, size=(n_samples, ref.shape[0]))
    dominated = np.zeros(n_samples, dtype=bool)
    for p in pts:
        dominated |= np.all(samples >= p, axis=1)
    return box * dominated.mean()


class TestDominates:
    def test_strict(self):
        assert dominates((0, 0), (1, 1))
        assert not dominates((1, 1), (0, 0))

    def test_incomparable(self):
        assert not dominates((0, 1), (1, 0))
        assert not dominates((1, 0), (0, 1))

    def test_self_not_dominating(self):
        assert not dominates((1, 2), (1, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1, 2), (1, 2, 3))


class TestNonDominatedSort:
    def test_singleton(self):
        assert non_dominated_sort([(1.0, 1.0)]) == [[0]]

    def test_chain(self):
        assert non_dominated_sort([(0, 0), (1, 1), (2, 2)]) == [[0], [1], [2]]

    def test_matches_peeling_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = rng.integers(2, 60)
            m = rng.integers(2, 4)
            pts = rng.uniform(size=(n, m))
            assert non_dominated_sort(pts) == peel_fronts(pts)

    def test_fronts_internally_non_dominated(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(100, 3))
        for front in non_dominated_sort(pts):
            for i in front:
                for j in front:
                    assert not dominates(pts[i], pts[j])


class TestParetoFilter:
    def test_two_objectives_match_oracle(self):
        # a coarse integer grid gives duplicates and ties in either coordinate
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(0, 40))
            if trial % 2:
                pts = rng.integers(0, 5, size=(n, 2)).astype(float)
            else:
                pts = rng.uniform(size=(n, 2))
            assert np.array_equal(_pareto_filter(pts), pareto_filter_oracle(pts))

    def test_three_objectives_match_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            pts = rng.integers(0, 4, size=(int(rng.integers(2, 30)), 3)).astype(float)
            assert np.array_equal(_pareto_filter(pts), pareto_filter_oracle(pts))


class TestCrowdingDistance:
    def test_small_front_all_infinite(self):
        assert np.all(np.isinf(crowding_distance([(0, 1), (1, 0)])))
        assert np.all(np.isinf(crowding_distance([(0, 1)])))

    def test_hand_computed_middle(self):
        dist = crowding_distance([(0, 2), (1, 1), (2, 0)])
        assert np.isinf(dist[0]) and np.isinf(dist[2])
        assert dist[1] == pytest.approx(2.0)  # 1.0 per objective

    def test_identical_points_zero_range(self):
        dist = crowding_distance([(1, 1), (1, 1), (1, 1), (1, 1)])
        finite = dist[np.isfinite(dist)]
        assert np.all(finite == 0.0)


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume([(0, 0)], (1, 1)) == pytest.approx(1.0)

    def test_two_point_union(self):
        assert hypervolume([(1, 0), (0, 1)], (2, 2)) == pytest.approx(3.0)

    def test_out_of_ref_points_filtered(self):
        assert hypervolume([(0, 0), (3, 0)], (1, 1)) == pytest.approx(1.0)
        assert hypervolume([(3, 3)], (1, 1)) == 0.0

    def test_dominated_points_no_effect(self):
        a = hypervolume([(0, 0), (0.5, 0.5)], (1, 1))
        b = hypervolume([(0, 0)], (1, 1))
        assert a == pytest.approx(b)

    def test_monotone_under_adding_points(self):
        rng = np.random.default_rng(0)
        pts = list(rng.uniform(size=(10, 2)))
        ref = (1.5, 1.5)
        values = [hypervolume(pts[: k + 1], ref) for k in range(len(pts))]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(size=(12, 3))
        ref = np.full(3, 1.2)
        base = hypervolume(pts, ref)
        for _ in range(5):
            perm = rng.permutation(12)
            assert hypervolume(pts[perm], ref) == pytest.approx(base, rel=1e-12)

    def test_sweep_matches_boxes_m2(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            pts = rng.uniform(size=(rng.integers(1, 15), 2))
            if trial % 2:
                pts = np.round(pts, 1)  # ties, duplicates and points on the reference
            ref = np.full(2, 1.3 if trial % 4 < 2 else 0.9)
            assert abs(hypervolume(pts, ref) - sweep_hv_2d(pts, ref)) <= 1e-12

    @pytest.mark.parametrize("m", [3, 4])
    def test_matches_inclusion_exclusion(self, m):
        rng = np.random.default_rng(20 + m)
        ref = np.full(m, 1.0)
        for trial in range(160):
            k = int(rng.integers(1, 11))
            if trial % 4 < 2:
                front = rng.uniform(-0.2, 1.2, size=(k, m))
            else:  # on a plane: mutually non-dominated
                front = rng.dirichlet(np.ones(m), size=k) * 1.4 - 0.2
            if trial % 2:
                front = np.round(front, 1)  # ties in every coordinate
            front = np.vstack([front, front[: int(rng.integers(0, k + 1))]])  # duplicates
            front = front[rng.permutation(len(front))]
            assert abs(hypervolume(front, ref) - inclusion_exclusion_hv(front, ref)) <= 1e-12

    def test_width_must_match_ref_point(self):
        with pytest.raises(ValueError):
            hypervolume([(0, 0), (1, 1), (2, 2)], (3, 3, 3))
        with pytest.raises(ValueError):
            hypervolume([(0, 0, 0)], (1, 1))
        assert hypervolume((0, 0, 0), (1, 1, 1)) == pytest.approx(1.0)  # one flat point

    def test_matches_monte_carlo_3d(self):
        rng = np.random.default_rng(7)
        for seed in range(3):
            pts = rng.uniform(size=(8, 3))
            ref = np.full(3, 1.1)
            exact = hypervolume(pts, ref)
            approx = mc_hypervolume(pts, ref, 200_000, seed=seed)
            assert abs(exact - approx) / exact < 0.02

    def test_point_on_ref_boundary_zero_slab(self):
        assert hypervolume([(1.0, 0.0)], (1.0, 1.0)) == 0.0
        assert hypervolume([(0.0, 0.0), (1.0, 0.0)], (1.0, 1.0)) == pytest.approx(1.0)


class TestNondominatedBoxes:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_bits_match_the_one_objective_recursion(self, m):
        rng = np.random.default_rng(40 + m)
        ref = np.full(m, 0.9)
        for trial in range(1000):
            n = int(rng.integers(0, 13 if m == 4 else 25))
            pts = rng.uniform(0.0, 1.0, size=(n, m))
            if trial % 2:
                pts = np.round(pts, 1)  # ties, duplicates and points on the reference
            if trial % 5 == 0 and n:
                pts = np.vstack([pts, pts[rng.integers(0, n, size=2)]])
                pts[-1, rng.integers(0, m)] = ref[0]
            lower, upper = nondominated_boxes(pts, ref)
            want_lower, want_upper = boxes_oracle(pts, ref)
            assert np.array_equal(lower, want_lower) and np.array_equal(upper, want_upper)


class TestHypervolumeDifference:
    def test_exact_front_gives_zero(self):
        pts = [(0, 0)]
        ref = (1, 1)
        opt = hypervolume(pts, ref)
        assert hypervolume_difference(pts, ref, opt) == pytest.approx(0.0)

    def test_empty_set_gives_optimal(self):
        assert hypervolume_difference([], (1, 1), 0.75) == pytest.approx(0.75)

    def test_monotone_in_nested_sets(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(size=(10, 2))
        ref = (1.5, 1.5)
        opt = hypervolume(pts, ref) + 0.5
        d_small = hypervolume_difference(pts[:4], ref, opt)
        d_large = hypervolume_difference(pts, ref, opt)
        assert d_small >= d_large - 1e-12

    def test_underestimate_warns(self):
        with pytest.warns(UserWarning):
            value = hypervolume_difference([(0, 0)], (2, 2), 1.0)
        assert value == pytest.approx(-3.0)
