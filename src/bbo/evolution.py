"""Evolutionary optimizers on unit-cube genomes: differential evolution for
single-objective tasks and NSGA-II for multi-objective ones.

Each algorithm is split into a propose step (generate trial genomes) and a
select step (combine evaluated trials into the next population), so the
advisor can drive it through ask-and-tell.

Constraint handling follows Deb's feasibility rules: feasible beats
infeasible, lower total violation beats higher, and only then do objectives
decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


@dataclass
class Individual:
    genome: np.ndarray
    objectives: np.ndarray | None = None
    constraint_violation: float = 0.0
    rank: int = 0
    crowding: float = 0.0

    def __post_init__(self):
        self.genome = np.clip(np.asarray(self.genome, dtype=float), 0.0, 1.0)
        if self.objectives is not None:
            self.objectives = np.asarray(self.objectives, dtype=float)

    @property
    def feasible(self) -> bool:
        return self.constraint_violation <= 0.0


@dataclass
class Population:
    individuals: list[Individual]
    generation: int = 0

    def __len__(self) -> int:
        return len(self.individuals)

    def genomes(self) -> np.ndarray:
        return np.array([ind.genome for ind in self.individuals])


def _deb_better_scalar(a: Individual, b: Individual) -> bool:
    """Strictly better under feasibility-first rules, scalar objectives."""
    if a.feasible != b.feasible:
        return a.feasible
    if not a.feasible:
        return a.constraint_violation < b.constraint_violation
    return float(a.objectives[0]) < float(b.objectives[0])


def constrained_dominates(a: Individual, b: Individual) -> bool:
    """Deb's constrained-dominance relation for multi-objective selection."""
    if a.feasible != b.feasible:
        return a.feasible
    if not a.feasible:
        return a.constraint_violation < b.constraint_violation
    return moo.dominates(a.objectives, b.objectives)


# --- differential evolution (rand/1/bin) ---


def de_propose(pop: Population, F: float, CR: float, rng: np.random.Generator) -> list[np.ndarray]:
    """One trial vector per individual: v = x_r1 + F (x_r2 - x_r3), clamped
    to the unit cube, then binomial crossover with a forced gene."""
    n = len(pop)
    if n < 4:
        raise PopulationSizeError("differential evolution needs a population of at least 4")
    if not (0 < F <= 2):
        raise ValueError("F must lie in (0, 2]")
    if not (0 <= CR <= 1):
        raise ValueError("CR must lie in [0, 1]")
    genomes = pop.genomes()
    d = genomes.shape[1]
    trials = []
    for i in range(n):
        partners = [j for j in range(n) if j != i]
        r1, r2, r3 = rng.choice(partners, size=3, replace=False)
        mutant = np.clip(genomes[r1] + F * (genomes[r2] - genomes[r3]), 0.0, 1.0)
        j_rand = rng.integers(d)
        cross = rng.uniform(size=d) < CR
        cross[j_rand] = True
        trials.append(np.where(cross, mutant, genomes[i]))
    return trials


def de_select(pop: Population, trial_individuals: Sequence[Individual]) -> Population:
    """Greedy one-to-one selection; the trial wins ties."""
    survivors = []
    for parent, trial in zip(pop.individuals, trial_individuals):
        survivors.append(parent if _deb_better_scalar(parent, trial) else trial)
    return Population(survivors, generation=pop.generation + 1)


# --- NSGA-II ---


def _constrained_fronts(individuals: Sequence[Individual]) -> list[list[int]]:
    """Fast non-dominated sort under constrained dominance."""
    violation = np.array([ind.constraint_violation for ind in individuals])
    feasible = violation <= 0.0
    objectives = np.array([ind.objectives for ind in individuals])
    # unless both are feasible, the lower violation wins: a feasible point's
    # violation is <= 0 and an infeasible one's is > 0
    dom = np.where(
        feasible[:, None] & feasible[None, :],
        moo._dominance_matrix(objectives),
        violation[:, None] < violation[None, :],
    )
    return moo._peel_fronts(dom)


def _assign_rank_and_crowding(individuals: Sequence[Individual]) -> list[list[int]]:
    fronts = _constrained_fronts(individuals)
    for rank, front in enumerate(fronts):
        pts = np.array([individuals[i].objectives for i in front])
        crowd = moo.crowding_distance(pts)
        for i, c in zip(front, crowd):
            individuals[i].rank = rank
            individuals[i].crowding = float(c)
    return fronts


def _tournament(a: Individual, b: Individual) -> Individual:
    if constrained_dominates(a, b):
        return a
    if constrained_dominates(b, a):
        return b
    if a.crowding != b.crowding:
        return a if a.crowding > b.crowding else b
    return a


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


def nsga2_propose(pop: Population, rng: np.random.Generator) -> list[np.ndarray]:
    """N offspring genomes via binary tournaments, SBX, polynomial mutation."""
    n = len(pop)
    if n % 2 != 0:
        raise PopulationSizeError("NSGA-II needs an even population size")
    if n < 4:
        raise PopulationSizeError("NSGA-II needs a population of at least 4")
    _assign_rank_and_crowding(pop.individuals)
    d = pop.individuals[0].genome.shape[0]
    mutation_prob = 1.0 / d
    offspring: list[np.ndarray] = []
    while len(offspring) < n:
        parents = []
        for _ in range(2):
            i, j = rng.integers(n), rng.integers(n)
            parents.append(_tournament(pop.individuals[i], pop.individuals[j]))
        if rng.uniform() < SBX_PROB:
            c1, c2 = _sbx_pair(parents[0].genome, parents[1].genome, rng)
        else:
            c1, c2 = parents[0].genome.copy(), parents[1].genome.copy()
        offspring.append(_polynomial_mutation(c1, mutation_prob, rng))
        offspring.append(_polynomial_mutation(c2, mutation_prob, rng))
    return offspring[:n]


def nsga2_select(
    parents: Sequence[Individual], offspring: Sequence[Individual], n: int, generation: int
) -> Population:
    """Environmental selection over parents + offspring: fill whole fronts,
    then truncate the split front by descending crowding distance."""
    combined = list(parents) + list(offspring)
    fronts = _assign_rank_and_crowding(combined)
    survivors: list[Individual] = []
    for front in fronts:
        if len(survivors) + len(front) <= n:
            survivors.extend(combined[i] for i in front)
        else:
            remaining = n - len(survivors)
            by_crowding = sorted(front, key=lambda i: -combined[i].crowding)
            survivors.extend(combined[i] for i in by_crowding[:remaining])
            break
    return Population(survivors, generation=generation)
