"""Tests for benchmark problems and the rank-table runner."""

import math
import tracemalloc

import numpy as np
import pytest

import bbo.bench as bench
from bbo.bench import (
    ackley_evaluate,
    branin_evaluate,
    compute_constr_reference,
    constr_evaluate,
    constr_problem,
    get_problem,
    rank_table_csv,
    run_benchmark,
)
from bbo.errors import SetupError
from bbo.moo import _pareto_filter, hypervolume
from bbo.space import Configuration


def constr(x1, x2):
    return constr_evaluate(Configuration({"x1": x1, "x2": x2}))


class TestConstr:
    def test_plug_in_feasible(self):
        f, c = constr(1.0, 0.0)
        assert f == [1.0, 1.0]
        assert c == [-3.0, -8.0]

    def test_plug_in_infeasible(self):
        f, c = constr(0.1, 0.0)
        assert c[0] == pytest.approx(5.1)
        assert c[0] > 0

    def test_plug_in_boundary(self):
        f, c = constr(0.5, 1.5)
        assert f == [0.5, 5.0]
        assert c[0] == pytest.approx(0.0)
        assert c[1] == pytest.approx(-2.0)

    def test_feasible_region_nonempty(self):
        rng = np.random.default_rng(0)
        feasible = 0
        for _ in range(1000):
            _, c = constr(rng.uniform(0.1, 1.0), rng.uniform(0.0, 5.0))
            if max(c) <= 0:
                feasible += 1
        assert feasible > 0


def constr_grid_sweep_hv(grid):
    """Hypervolume of the feasible points of a grid x grid sweep of CONSTR's
    input box; each x1 row keeps its lowest feasible x2, which dominates the
    rest of the row, so the sweep needs no grid x grid objective arrays."""
    x1 = np.linspace(0.1, 1.0, grid)[:, None]
    x2 = np.linspace(0.0, 5.0, grid)[None, :]
    feasible = (6.0 - (x2 + 9.0 * x1) <= 0) & (1.0 - (9.0 * x1 - x2) <= 0)
    rows = feasible.any(axis=1)
    f1 = x1[rows, 0]
    f2 = (1.0 + x2[0, feasible[rows].argmax(axis=1)]) / f1
    return hypervolume(np.column_stack([f1, f2]), (10.0, 10.0))


class TestConstrReference:
    def test_positive_hv(self):
        ref, hv = compute_constr_reference()
        assert ref == (10.0, 10.0)
        assert hv > 0

    def test_matches_trapezoid_of_the_front(self):
        # the front: x2 = max(0, 6 - 9 x1) for x1 in [7/18, 1], so f2 = max(7/f1 - 9, 1/f1)
        f1 = np.linspace(7.0 / 18.0, 1.0, 2_000_001)
        f2 = np.maximum(7.0 / f1 - 9.0, 1.0 / f1)
        gap = 10.0 - f2
        area = float(np.sum((gap[1:] + gap[:-1]) / 2.0 * np.diff(f1)))
        _, hv = compute_constr_reference()
        assert hv == pytest.approx(81.0 + area, abs=1e-9)

    def test_bounds_the_grid_sweeps(self):
        _, hv = compute_constr_reference()
        sweeps = [constr_grid_sweep_hv(grid) for grid in (500, 1000, 2000)]
        assert all(hv >= sweep for sweep in sweeps)
        assert hv - sweeps[-1] < 3e-3

    def test_allocates_under_a_megabyte(self):
        tracemalloc.start()
        try:
            compute_constr_reference()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_problem_carries_the_optimum(self):
        assert constr_problem().optimal_hv == compute_constr_reference()[1]

    def test_front_dominates_feasible_grid(self):
        grid = 300
        x1 = np.linspace(0.1, 1.0, grid)
        x2 = np.linspace(0.0, 5.0, grid)
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        X1, X2 = X1.ravel(), X2.ravel()
        feasible = (6.0 - (X2 + 9.0 * X1) <= 0) & (1.0 - (9.0 * X1 - X2) <= 0)
        f1 = X1[feasible]
        f2 = (1.0 + X2[feasible]) / f1
        pts = np.column_stack([f1, f2])
        front = pts[_pareto_filter(pts)]
        front = front[np.argsort(front[:, 0])]
        # staircase test: the lowest front f2 among points with f1 <= a must be <= b
        idx = np.searchsorted(front[:, 0], f1, side="right") - 1
        cummin = np.minimum.accumulate(front[:, 1])
        assert np.all(idx >= 0)
        assert np.all(cummin[idx] <= f2 + 1e-12)


class TestBranin:
    def test_known_minima(self):
        for x1, x2 in [(-math.pi, 12.275), (math.pi, 2.275), (9.42478, 2.475)]:
            value = branin_evaluate(Configuration({"x1": x1, "x2": x2}))[0][0]
            assert value == pytest.approx(0.39789, abs=1e-4)

    def test_global_optimality_on_grid(self):
        x1 = np.linspace(-5, 10, 1000)
        x2 = np.linspace(0, 15, 1000)
        X1, X2 = np.meshgrid(x1, x2)
        values = (
            (X2 - bench._BRANIN_B * X1**2 + bench._BRANIN_C * X1 - 6.0) ** 2
            + bench._BRANIN_S * (1.0 - bench._BRANIN_T) * np.cos(X1)
            + bench._BRANIN_S
        )
        assert values.min() >= bench.BRANIN_OPTIMUM - 1e-6


class TestAckley:
    def test_origin_is_minimum(self):
        assert ackley_evaluate(Configuration({"x1": 0.0, "x2": 0.0}))[0][0] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_positive_elsewhere(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x1, x2 = rng.uniform(-5, 5, size=2)
            if abs(x1) < 1e-6 and abs(x2) < 1e-6:
                continue
            assert ackley_evaluate(Configuration({"x1": x1, "x2": x2}))[0][0] > 0


class _FakeResult:
    def __init__(self, score):
        class _Inc:
            objectives = (score,)

        self.incumbent = _Inc()
        self.pareto_front = []


class TestRankArithmetic:
    def fake_run(self, table):
        def runner(task, objective, **kwargs):
            strategy = task.task_id.split("-")[1]
            return _FakeResult(table[strategy](task.seed))

        return runner

    def test_strict_winner_medians(self, monkeypatch):
        table = {"gp": lambda seed: 1.0 + seed, "random": lambda seed: 2.0 + seed}
        monkeypatch.setattr(bench, "run", self.fake_run(table))
        result = run_benchmark(["branin"], ["gp", "random"], n_seeds=5, budget=5)
        assert result.median_ranks == {"gp": 1.0, "random": 2.0}
        assert result.wins["gp"]["branin"] == 5

    def test_identical_strategies_tie(self, monkeypatch):
        table = {"gp": lambda seed: 1.0, "random": lambda seed: 1.0}
        monkeypatch.setattr(bench, "run", self.fake_run(table))
        result = run_benchmark(["branin"], ["gp", "random"], n_seeds=4, budget=5)
        assert all(r["rank"] == 1.5 for r in result.rows)

    def test_three_strategy_hand_ranks(self, monkeypatch):
        table = {
            "gp": lambda seed: 1.0,
            "prf": lambda seed: 3.0,
            "random": lambda seed: 1.0,
        }
        monkeypatch.setattr(bench, "run", self.fake_run(table))
        result = run_benchmark(["branin"], ["gp", "prf", "random"], n_seeds=2, budget=5)
        by_strategy = {r["strategy"]: r["rank"] for r in result.rows if r["seed"] == 0}
        assert by_strategy == {"gp": 1.5, "prf": 3.0, "random": 1.5}

    def test_wins_count_ties_in_problem_order(self, monkeypatch):
        scores = {
            ("branin", "gp"): (2.0, 1.0),
            ("branin", "random"): (1.0, 1.0),
            ("ackley", "gp"): (1.0, 1.0),
            ("ackley", "random"): (2.0, 2.0),
        }

        def runner(task, objective, **kwargs):
            problem, strategy = task.task_id.split("-")[:2]
            return _FakeResult(scores[problem, strategy][task.seed])

        monkeypatch.setattr(bench, "run", runner)
        result = run_benchmark(["branin", "ackley"], ["gp", "random"], n_seeds=2, budget=5)
        assert result.wins == {"gp": {"branin": 1, "ackley": 2}, "random": {"branin": 2}}
        assert list(result.wins["gp"]) == ["branin", "ackley"]

    def test_rank_conservation(self, monkeypatch):
        rng = np.random.default_rng(0)
        table = {
            "gp": lambda seed: float(rng.uniform()),
            "ea": lambda seed: float(rng.uniform()),
            "random": lambda seed: float(rng.uniform()),
        }
        monkeypatch.setattr(bench, "run", self.fake_run(table))
        strategies = ["gp", "ea", "random"]
        result = run_benchmark(["branin"], strategies, n_seeds=3, budget=5)
        k = len(strategies)
        for seed in range(3):
            total = sum(r["rank"] for r in result.rows if r["seed"] == seed)
            assert total == k * (k + 1) / 2


class TestAverageRanks:
    def test_matches_scipy_rankdata(self):
        from scipy.stats import rankdata

        rng = np.random.default_rng(0)
        values = np.array([-1.0, 0.0, 0.5, 2.0, math.inf])
        for _ in range(2000):
            scores = list(rng.choice(values, size=int(rng.integers(2, 6))))
            ranks = bench._average_ranks(scores)
            assert ranks.tobytes() == rankdata(scores, method="average").tobytes()


class TestRunBenchmarkEndToEnd:
    def test_reproducible_rows(self):
        kwargs = dict(
            problems=["branin"], strategies=["random", "ea"], n_seeds=2, budget=12
        )
        a = run_benchmark(**kwargs)
        b = run_benchmark(**kwargs)
        assert a.rows == b.rows
        assert rank_table_csv(a) == rank_table_csv(b)

    def test_row_accounting(self):
        result = run_benchmark(["branin"], ["random", "ea"], n_seeds=3, budget=10)
        assert len(result.rows) == 1 * 3 * 2
        csv = rank_table_csv(result)
        assert csv.startswith("problem,seed,strategy,score,rank\n")
        assert len(csv.strip().splitlines()) == 7

    def test_validation(self):
        with pytest.raises(SetupError):
            run_benchmark(["branin"], ["random"], n_seeds=1, budget=5)
        with pytest.raises(SetupError):
            run_benchmark(["branin"], ["random", "sa"], n_seeds=1, budget=5)
        with pytest.raises(SetupError):
            run_benchmark(["branin"], ["random", "ea"], n_seeds=0, budget=5)
        with pytest.raises(SetupError):
            run_benchmark([], ["random", "ea"], n_seeds=1, budget=5)
        with pytest.raises(SetupError):
            get_problem("rosenbrock")
