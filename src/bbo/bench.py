"""Built-in benchmark problems and a rank-based comparison runner.

CONSTR is the standard constrained bi-objective test problem; Branin and
Ackley are classic single-objective surfaces. ``run_benchmark`` scores each
(problem, seed, strategy) cell by the final incumbent (single objective) or
the hypervolume difference from the problem's optimum (multi-objective) and
aggregates competition ranks with ties averaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import moo
from .advisor import TaskSpec
from .errors import SetupError
from .optimizer import run
from .space import Configuration, ParameterSpec, SearchSpace

CONSTR_REF_POINT = (10.0, 10.0)

STRATEGIES = ("auto", "gp", "prf", "ea", "random")


@dataclass(frozen=True)
class BenchmarkProblem:
    name: str
    space: SearchSpace
    num_objectives: int
    num_constraints: int
    evaluate: Callable[[Configuration], tuple[list, list]]
    ref_point: Optional[tuple] = None  # multi-objective problems
    optimal_hv: Optional[float] = None  # multi-objective problems


# --- CONSTR: minimize (x1, (1+x2)/x1) s.t. x2 + 9 x1 >= 6 and 9 x1 - x2 >= 1 ---


def constr_evaluate(config: Configuration) -> tuple[list, list]:
    x1 = float(config["x1"])
    x2 = float(config["x2"])
    f1 = x1
    f2 = (1.0 + x2) / x1
    c1 = 6.0 - (x2 + 9.0 * x1)  # feasible iff <= 0
    c2 = 1.0 - (9.0 * x1 - x2)
    return [f1, f2], [c1, c2]


def _constr_space() -> SearchSpace:
    return SearchSpace(
        [
            ParameterSpec("x1", "float", low=0.1, high=1.0),
            ParameterSpec("x2", "float", low=0.0, high=5.0),
        ]
    )


def compute_constr_reference() -> tuple[tuple, float]:
    """Reference point (10, 10) and CONSTR's optimal hypervolume against it."""
    # The front is x2 = max(0, 6 - 9 x1), x1 in [7/18, 1]: f2 = 7/f1 - 9 on [7/18, 2/3]
    # and 1/f1 on [2/3, 1]; integrate 10 - f2 over both, plus the 9 x 9 square right of f1 = 1.
    hv = 81.0 + 95.0 / 18.0 - 7.0 * math.log(12.0 / 7.0) + 10.0 / 3.0 - math.log(1.5)
    return CONSTR_REF_POINT, hv


def constr_problem() -> BenchmarkProblem:
    return BenchmarkProblem(
        name="constr",
        space=_constr_space(),
        num_objectives=2,
        num_constraints=2,
        evaluate=constr_evaluate,
        ref_point=CONSTR_REF_POINT,
        optimal_hv=compute_constr_reference()[1],
    )


# --- Branin ---

_BRANIN_B = 5.1 / (4.0 * math.pi**2)
_BRANIN_C = 5.0 / math.pi
_BRANIN_S = 10.0
_BRANIN_T = 1.0 / (8.0 * math.pi)
BRANIN_OPTIMUM = 0.39788735772973816


def branin_evaluate(config: Configuration) -> tuple[list, list]:
    x1 = float(config["x1"])
    x2 = float(config["x2"])
    value = (
        (x2 - _BRANIN_B * x1**2 + _BRANIN_C * x1 - 6.0) ** 2
        + _BRANIN_S * (1.0 - _BRANIN_T) * math.cos(x1)
        + _BRANIN_S
    )
    return [value], []


def branin_problem() -> BenchmarkProblem:
    space = SearchSpace(
        [
            ParameterSpec("x1", "float", low=-5.0, high=10.0),
            ParameterSpec("x2", "float", low=0.0, high=15.0),
        ]
    )
    return BenchmarkProblem(
        name="branin",
        space=space,
        num_objectives=1,
        num_constraints=0,
        evaluate=branin_evaluate,
    )


# --- Ackley ---


def ackley_evaluate(config: Configuration) -> tuple[list, list]:
    x = np.array([config["x1"], config["x2"]], dtype=float)
    value = (
        -20.0 * math.exp(-0.2 * math.sqrt(float(np.mean(x**2))))
        - math.exp(float(np.mean(np.cos(2.0 * math.pi * x))))
        + 20.0
        + math.e
    )
    return [value], []


def ackley_problem() -> BenchmarkProblem:
    space = SearchSpace(
        [
            ParameterSpec("x1", "float", low=-5.0, high=5.0),
            ParameterSpec("x2", "float", low=-5.0, high=5.0),
        ]
    )
    return BenchmarkProblem(
        name="ackley",
        space=space,
        num_objectives=1,
        num_constraints=0,
        evaluate=ackley_evaluate,
    )


_PROBLEM_FACTORIES = {
    "constr": constr_problem,
    "branin": branin_problem,
    "ackley": ackley_problem,
}


def get_problem(name: str) -> BenchmarkProblem:
    try:
        return _PROBLEM_FACTORIES[name]()
    except KeyError:
        raise SetupError(
            f"unknown problem {name!r}; valid problems: {sorted(_PROBLEM_FACTORIES)}"
        ) from None


# --- rank-table runner ---


@dataclass
class BenchmarkResult:
    rows: list[dict]  # problem, seed, strategy, score, rank
    median_ranks: dict[str, float]
    wins: dict[str, dict[str, int]]  # strategy -> problem -> win count


def _score_run(problem: BenchmarkProblem, result) -> float:
    if problem.num_objectives == 1:
        if result.incumbent is None:
            return math.inf
        return float(result.incumbent.objectives[0])
    front = [o.objectives for o in result.pareto_front]
    return moo.hypervolume_difference(front, problem.ref_point, problem.optimal_hv or 0.0)


def _average_ranks(scores: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties sharing their average: the number of smaller
    scores plus the mean of the places the equal ones take."""
    s = np.asarray(scores, dtype=float)
    return np.array([np.sum(s < x) + (np.sum(s == x) + 1) / 2 for x in s])


def run_benchmark(
    problems: Sequence,
    strategies: Sequence[str],
    n_seeds: int = 10,
    budget: int = 100,
) -> BenchmarkResult:
    """Run every (problem, seed, strategy) cell and rank strategies per cell.

    Scores are final incumbents (single objective) or hypervolume
    differences (multi-objective); competition ranks share the average on
    ties. Fully seeded, so identical inputs reproduce identical tables.
    """
    if len(strategies) < 2:
        raise SetupError("run_benchmark needs at least 2 strategies")
    if not problems or n_seeds < 1:
        raise SetupError(f"run_benchmark needs a problem and a seed, got {problems!r} and {n_seeds}")
    for s in strategies:
        if s not in STRATEGIES:
            raise SetupError(f"unknown strategy {s!r}; valid strategies: {list(STRATEGIES)}")
    resolved = [get_problem(p) if isinstance(p, str) else p for p in problems]

    rows: list[dict] = []
    wins: dict[str, dict[str, int]] = {s: {} for s in strategies}
    for problem in resolved:
        for seed in range(n_seeds):
            scores = []
            for strategy in strategies:
                task = TaskSpec(
                    space=problem.space,
                    num_objectives=problem.num_objectives,
                    num_constraints=problem.num_constraints,
                    max_runs=budget,
                    algorithm=strategy,
                    ref_point=problem.ref_point,
                    seed=seed,
                    task_id=f"{problem.name}-{strategy}-seed{seed}",
                )
                result = run(task, problem.evaluate)
                scores.append(_score_run(problem, result))
            ranks = _average_ranks(scores)
            best = ranks.min()
            for strategy, score, rank in zip(strategies, scores, ranks):
                rows.append(
                    {
                        "problem": problem.name,
                        "seed": seed,
                        "strategy": strategy,
                        "score": score,
                        "rank": float(rank),
                    }
                )
                if rank == best:
                    wins[strategy][problem.name] = wins[strategy].get(problem.name, 0) + 1

    median_ranks = {
        s: float(np.median([r["rank"] for r in rows if r["strategy"] == s]))
        for s in strategies
    }
    return BenchmarkResult(rows=rows, median_ranks=median_ranks, wins=wins)


def rank_table_csv(result: BenchmarkResult) -> str:
    """CSV rendering (problem,seed,strategy,score,rank), stable byte-for-byte."""
    lines = ["problem,seed,strategy,score,rank"]
    for r in result.rows:
        lines.append(
            f"{r['problem']},{r['seed']},{r['strategy']},{r['score']!r},{r['rank']!r}"
        )
    return "\n".join(lines) + "\n"
