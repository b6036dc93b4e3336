"""Evolutionary optimizers on unit-cube genomes: differential evolution for
single-objective tasks and NSGA-II for multi-objective ones.

Each algorithm is split into a propose step (generate trial genomes) and a
select step (combine evaluated trials into the next population), so the
advisor can drive it through ask-and-tell. A population is a tuple of
arrays, one row per individual.

Constraints enter through Deb's feasibility rule, written once in
:func:`_deb_dominates`: feasible beats infeasible, lower total violation
beats higher, and only then do objectives decide, by Pareto dominance.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import moo
from .errors import PopulationSizeError

DE_F = 0.5
DE_CR = 0.9
SBX_ETA = 15.0
MUTATION_ETA = 20.0
SBX_PROB = 0.9


def total_violation(constraints) -> float:
    """Sum of positive constraint values; 0 iff feasible."""
    if constraints is None or len(constraints) == 0:
        return 0.0
    return float(np.sum(np.maximum(np.asarray(constraints, dtype=float), 0.0)))


class Population(NamedTuple):
    genomes: np.ndarray  # (n, d) rows in the unit cube
    objectives: np.ndarray  # (n, m)
    violations: np.ndarray  # (n,) total violation, 0 iff feasible


def _deb_dominates(obj_a, viol_a, obj_b, viol_b) -> np.ndarray:
    """Deb's feasibility rule, broadcasting over rows: a beats b when both
    are feasible and a Pareto-dominates b, or otherwise when a's violation
    is lower (a feasible violation is 0, an infeasible one positive)."""
    both_feasible = (viol_a <= 0.0) & (viol_b <= 0.0)
    return np.where(both_feasible, moo._pareto_dominates(obj_a, obj_b), viol_a < viol_b)


def _stack(pop: Population, offspring: Population) -> Population:
    """The rows of pop over those of offspring."""
    return Population(*(np.concatenate(pair) for pair in zip(pop, offspring)))


def _take(pop: Population, rows) -> Population:
    return Population(*(field[rows] for field in pop))


# --- differential evolution (rand/1/bin) ---


def de_propose(pop: Population, F: float, CR: float, rng: np.random.Generator) -> np.ndarray:
    """One trial vector per individual: v = x_r1 + F (x_r2 - x_r3), clamped
    to the unit cube, then binomial crossover with a forced gene."""
    genomes = pop.genomes
    n, d = genomes.shape
    if n < 4:
        raise PopulationSizeError("differential evolution needs a population of at least 4")
    if not (0 < F <= 2):
        raise ValueError("F must lie in (0, 2]")
    if not (0 <= CR <= 1):
        raise ValueError("CR must lie in [0, 1]")
    trials = np.empty_like(genomes)
    for i in range(n):
        partners = [j for j in range(n) if j != i]
        r1, r2, r3 = rng.choice(partners, size=3, replace=False)
        mutant = np.clip(genomes[r1] + F * (genomes[r2] - genomes[r3]), 0.0, 1.0)
        j_rand = rng.integers(d)
        cross = rng.uniform(size=d) < CR
        cross[j_rand] = True
        trials[i] = np.where(cross, mutant, genomes[i])
    return trials


def de_select(pop: Population, trials: Population) -> Population:
    """Greedy one-to-one selection; the trial wins ties."""
    keep = _deb_dominates(pop.objectives, pop.violations, trials.objectives, trials.violations)
    n = len(keep)
    return _take(_stack(pop, trials), np.where(keep, np.arange(n), np.arange(n) + n))


# --- NSGA-II ---


def _fronts_and_crowding(pop: Population) -> tuple[np.ndarray, list[list[int]], np.ndarray]:
    """Deb's rule between every pair of rows (dom[i, j]: i beats j), the
    fronts it peels, and each row's crowding distance within its front."""
    obj, viol = pop.objectives, pop.violations
    dom = _deb_dominates(obj[:, None], viol[:, None], obj[None], viol[None])
    fronts = moo._peel_fronts(dom)
    crowding = np.empty(len(viol))
    for front in fronts:
        crowding[front] = moo.crowding_distance(obj[front])
    return dom, fronts, crowding


def _tournament(dom: np.ndarray, crowding: np.ndarray, i: int, j: int) -> int:
    """Binary tournament: Deb's rule, then the larger crowding distance, then i."""
    if dom[j, i] or (not dom[i, j] and crowding[j] > crowding[i]):
        return j
    return i


def _sbx_pair(p1: np.ndarray, p2: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    d = p1.shape[0]
    exponent = 1 / (SBX_ETA + 1)
    c1, c2 = p1.copy(), p2.copy()
    for k in range(d):
        if rng.uniform() > 0.5:
            continue
        u = rng.uniform()
        beta = (2 * u) ** exponent if u <= 0.5 else (1 / (2 * (1 - u))) ** exponent
        c1[k] = 0.5 * ((1 + beta) * p1[k] + (1 - beta) * p2[k])
        c2[k] = 0.5 * ((1 - beta) * p1[k] + (1 + beta) * p2[k])
    return np.clip(c1, 0.0, 1.0), np.clip(c2, 0.0, 1.0)


def _polynomial_mutation(genome: np.ndarray, prob: float, rng) -> np.ndarray:
    eta1 = MUTATION_ETA + 1
    out = genome.copy()
    for k in range(out.shape[0]):
        if rng.uniform() >= prob:
            continue
        x = out[k]
        u = rng.uniform()
        if u < 0.5:
            delta = (2 * u + (1 - 2 * u) * (1 - x) ** eta1) ** (1 / eta1) - 1
        else:
            delta = 1 - (2 * (1 - u) + (2 * u - 1) * x**eta1) ** (1 / eta1)
        out[k] = x + delta
    return np.clip(out, 0.0, 1.0)


def nsga2_propose(pop: Population, rng: np.random.Generator) -> np.ndarray:
    """N offspring genomes via binary tournaments, SBX, polynomial mutation."""
    n, d = pop.genomes.shape
    if n % 2 != 0:
        raise PopulationSizeError("NSGA-II needs an even population size")
    if n < 4:
        raise PopulationSizeError("NSGA-II needs a population of at least 4")
    dom, _, crowding = _fronts_and_crowding(pop)
    mutation_prob = 1.0 / d
    offspring: list[np.ndarray] = []
    while len(offspring) < n:
        p1, p2 = pop.genomes[
            [_tournament(dom, crowding, rng.integers(n), rng.integers(n)) for _ in range(2)]
        ]
        c1, c2 = _sbx_pair(p1, p2, rng) if rng.uniform() < SBX_PROB else (p1, p2)
        offspring.append(_polynomial_mutation(c1, mutation_prob, rng))
        offspring.append(_polynomial_mutation(c2, mutation_prob, rng))
    return np.array(offspring)


def nsga2_select(parents: Population, offspring: Population) -> Population:
    """Environmental selection over parents + offspring: fill whole fronts,
    then truncate the split front by descending crowding distance."""
    n = len(parents.genomes)
    combined = _stack(parents, offspring)
    _, fronts, crowding = _fronts_and_crowding(combined)
    survivors: list[int] = []
    for front in fronts:
        if len(survivors) + len(front) > n:
            by_crowding = np.argsort(-crowding[front], kind="stable")
            survivors.extend(np.asarray(front)[by_crowding[: n - len(survivors)]])
            break
        survivors.extend(front)
    return _take(combined, survivors)
