"""Tests for differential evolution and NSGA-II."""

import numpy as np
import pytest

from bbo.errors import PopulationSizeError
from bbo.evolution import (
    Individual,
    Population,
    _constrained_fronts,
    constrained_dominates,
    de_propose,
    de_select,
    nsga2_propose,
    nsga2_select,
    total_violation,
)
from bbo.moo import dominates, hypervolume


def sphere(genome):
    return [float(np.sum((genome - 0.3) ** 2))], []


def evaluate_all(genomes, evaluate):
    individuals = []
    for g in genomes:
        objectives, constraints = evaluate(np.asarray(g))
        individuals.append(
            Individual(genome=g, objectives=objectives, constraint_violation=total_violation(constraints))
        )
    return individuals


def make_population(genomes, evaluate):
    return Population(evaluate_all(genomes, evaluate))


def de_generation(pop, F, CR, evaluate, rng):
    return de_select(pop, evaluate_all(de_propose(pop, F, CR, rng), evaluate))


def nsga2_generation(pop, evaluate, rng):
    offspring = evaluate_all(nsga2_propose(pop, rng), evaluate)
    return nsga2_select(pop.individuals, offspring, len(pop), pop.generation + 1)


def best_objective(pop):
    return min(ind.objectives[0] for ind in pop.individuals)


class TestDE:
    def test_population_size_check(self):
        pop = make_population(np.random.default_rng(0).uniform(size=(3, 2)), sphere)
        with pytest.raises(PopulationSizeError):
            de_propose(pop, 0.5, 0.9, np.random.default_rng(0))

    def test_limit_case_trial_composition(self):
        # F -> 0, CR = 0: the trial is the target vector except the forced
        # gene, which carries the base vector's value
        rng = np.random.default_rng(1)
        genomes = rng.uniform(size=(6, 3))
        pop = make_population(genomes, sphere)
        trials = de_propose(pop, 1e-12, 0.0, np.random.default_rng(2))
        for i, trial in enumerate(trials):
            changed = np.flatnonzero(np.abs(trial - genomes[i]) > 1e-9)
            assert changed.size <= 1
            if changed.size == 1:
                j = changed[0]
                others = np.delete(np.arange(6), i)
                assert np.min(np.abs(genomes[others, j] - trial[j])) < 1e-9

    def test_best_never_worsens(self):
        rng = np.random.default_rng(3)
        pop = make_population(rng.uniform(size=(10, 4)), sphere)
        best = best_objective(pop)
        for _ in range(20):
            pop = de_generation(pop, 0.5, 0.9, sphere, rng)
            cur = best_objective(pop)
            assert cur <= best + 1e-15
            best = cur

    def test_genomes_stay_in_unit_cube(self):
        rng = np.random.default_rng(4)
        pop = make_population(rng.uniform(size=(8, 3)), sphere)
        for _ in range(30):
            pop = de_generation(pop, 1.9, 1.0, sphere, rng)
            g = pop.genomes()
            assert np.all(g >= 0.0) and np.all(g <= 1.0)

    def test_operator_clamp_100k_gene_applications(self):
        # aggressive settings push mutants far outside the cube
        rng = np.random.default_rng(6)
        pop = make_population(rng.uniform(size=(50, 10)), sphere)
        genes = 0
        while genes < 100_000:
            trials = de_propose(pop, 1.9, 1.0, rng)
            stacked = np.array(trials)
            assert np.all(stacked >= 0.0) and np.all(stacked <= 1.0)
            genes += stacked.size

    def test_sphere_convergence_median_of_seeds(self):
        finals = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pop = make_population(rng.uniform(size=(20, 2)), sphere)
            for _ in range(100):
                pop = de_generation(pop, 0.5, 0.9, sphere, rng)
            finals.append(best_objective(pop))
        assert np.median(finals) <= 1e-3

    def test_feasibility_first_selection(self):
        def constrained(genome):
            # feasible only in the left half; objective prefers the right
            return [float(1.0 - genome[0])], [float(genome[0] - 0.5)]

        rng = np.random.default_rng(5)
        pop = make_population(rng.uniform(size=(12, 1)), constrained)
        for _ in range(40):
            pop = de_generation(pop, 0.5, 0.9, constrained, rng)
        feasible = [ind for ind in pop.individuals if ind.feasible]
        assert feasible
        best = min(feasible, key=lambda ind: ind.objectives[0])
        assert best.genome[0] <= 0.5 + 1e-12

    def test_determinism(self):
        genomes = np.random.default_rng(0).uniform(size=(6, 2))
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            pop = make_population(genomes.copy(), sphere)
            for _ in range(5):
                pop = de_generation(pop, 0.5, 0.9, sphere, rng)
            runs.append(pop.genomes())
        assert np.array_equal(runs[0], runs[1])


def biobjective(genome):
    # convex front: f1 = x, f2 = 1 - sqrt(x) plus distance penalty in other dims
    x = genome[0]
    g = 1.0 + 9.0 * np.mean(genome[1:]) if genome.shape[0] > 1 else 1.0
    return [float(x), float(g * (1.0 - np.sqrt(x / g)))], []


def pairwise_fronts(individuals):
    """Oracle: peel the constrained non-dominated set with pairwise comparisons."""
    remaining = list(range(len(individuals)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(constrained_dominates(individuals[j], individuals[i]) for j in remaining)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


class TestNSGA2:
    def test_constrained_fronts_match_pairwise_oracle(self):
        # coarse grids give duplicate objectives and tied violations
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 4))
            objectives = rng.integers(0, 4, size=(n, m)).astype(float)
            violations = np.where(
                rng.uniform(size=n) < 0.5, 0.0, rng.choice([0.5, 1.0, 2.0], size=n)
            )
            individuals = [
                Individual(genome=np.zeros(1), objectives=o, constraint_violation=float(v))
                for o, v in zip(objectives, violations)
            ]
            assert _constrained_fronts(individuals) == pairwise_fronts(individuals)

    def test_even_population_required(self):
        pop = make_population(np.random.default_rng(0).uniform(size=(5, 2)), biobjective)
        with pytest.raises(PopulationSizeError):
            nsga2_propose(pop, np.random.default_rng(0))

    def test_elitism_parents_survive_dominated_offspring(self):
        parents = [
            Individual(genome=np.full(2, 0.1), objectives=[0.0, 0.0]),
            Individual(genome=np.full(2, 0.2), objectives=[0.1, -0.1]),
            Individual(genome=np.full(2, 0.3), objectives=[-0.1, 0.1]),
            Individual(genome=np.full(2, 0.4), objectives=[0.05, 0.05]),
        ]
        offspring = [
            Individual(genome=np.full(2, 0.9), objectives=[5.0, 5.0]) for _ in range(4)
        ]
        pop = nsga2_select(parents, offspring, 4, generation=1)
        got = {tuple(ind.objectives) for ind in pop.individuals}
        assert got == {tuple(np.asarray(p.objectives)) for p in parents}

    def test_hand_traced_environmental_selection(self):
        # 8 individuals, N=4: front0 = 3 points, front1 must be truncated by crowding
        objs = [
            (0.0, 1.0),  # front 0
            (0.5, 0.5),  # front 0
            (1.0, 0.0),  # front 0
            (0.6, 0.6),  # front 1 boundary
            (0.9, 0.55),  # front 1 boundary
            (0.7, 0.58),  # front 1 interior, wider neighbor gap
            (0.72, 0.57),  # front 1 interior, squeezed
            (2.0, 2.0),  # front 2
        ]
        individuals = [
            Individual(genome=np.array([i / 8.0, 0.5]), objectives=o) for i, o in enumerate(objs)
        ]
        pop = nsga2_select(individuals[:4], individuals[4:], 4, generation=1)
        got = {tuple(ind.objectives) for ind in pop.individuals}
        # all of front 0, plus the boundary point of front 1 (infinite crowding)
        assert {(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)} <= got
        assert len(got) == 4
        assert (2.0, 2.0) not in got
        assert (0.6, 0.6) in got or (0.9, 0.55) in got

    def test_first_front_never_dominated_by_previous(self):
        rng = np.random.default_rng(7)
        pop = make_population(rng.uniform(size=(20, 3)), biobjective)
        for _ in range(15):
            prev_front = [
                ind.objectives for ind in pop.individuals if ind.rank == 0 and ind.objectives is not None
            ]
            pop = nsga2_generation(pop, biobjective, rng)
            new_front = [ind.objectives for ind in pop.individuals if ind.rank == 0]
            for new in new_front:
                assert not any(dominates(p, new) for p in prev_front if prev_front)

    def test_beats_random_selection_on_hypervolume(self):
        ref = np.array([2.0, 2.0])
        n, gens = 20, 30
        wins = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pop = make_population(rng.uniform(size=(n, 3)), biobjective)
            for _ in range(gens):
                pop = nsga2_generation(pop, biobjective, rng)
            hv_nsga = hypervolume([ind.objectives for ind in pop.individuals], ref)

            rng = np.random.default_rng(seed)
            random_pool = make_population(rng.uniform(size=(n * (gens + 1), 3)), biobjective)
            keep = rng.choice(len(random_pool.individuals), size=n, replace=False)
            hv_rand = hypervolume(
                [random_pool.individuals[i].objectives for i in keep], ref
            )
            wins.append(hv_nsga - hv_rand)
        assert np.median(wins) > 0

    def test_genomes_stay_in_unit_cube(self):
        rng = np.random.default_rng(8)
        pop = make_population(rng.uniform(size=(10, 4)), biobjective)
        for _ in range(20):
            pop = nsga2_generation(pop, biobjective, rng)
            g = pop.genomes()
            assert np.all(g >= 0.0) and np.all(g <= 1.0)

    def test_operator_clamp_100k_gene_applications(self):
        rng = np.random.default_rng(9)
        pop = make_population(rng.uniform(size=(50, 10)), biobjective)
        genes = 0
        while genes < 100_000:
            offspring = np.array(nsga2_propose(pop, rng))
            assert np.all(offspring >= 0.0) and np.all(offspring <= 1.0)
            genes += offspring.size

    def test_determinism(self):
        genomes = np.random.default_rng(1).uniform(size=(8, 2))
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(9)
            pop = make_population(genomes.copy(), biobjective)
            for _ in range(5):
                pop = nsga2_generation(pop, biobjective, rng)
            runs.append(pop.genomes())
        assert np.array_equal(runs[0], runs[1])
