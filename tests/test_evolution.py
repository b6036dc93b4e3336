"""Tests for differential evolution and NSGA-II."""

import numpy as np
import pytest

from bbo.errors import PopulationSizeError
from bbo.evolution import (
    Population,
    _deb_dominates,
    _fronts_and_crowding,
    _tournament,
    de_propose,
    de_select,
    nsga2_propose,
    nsga2_select,
    total_violation,
)
from bbo.moo import crowding_distance, dominates, hypervolume

FAILED = 1e18  # the objective and violation the advisor gives a failed trial


def deb_better(obj_a, viol_a, obj_b, viol_b) -> bool:
    """Oracle: Deb's feasibility rule for one pair, one comparison at a time."""
    feasible_a, feasible_b = viol_a <= 0.0, viol_b <= 0.0
    if feasible_a != feasible_b:
        return feasible_a
    if not feasible_a:
        return viol_a < viol_b
    pairs = list(zip(obj_a, obj_b))
    return all(a <= b for a, b in pairs) and any(a < b for a, b in pairs)


def random_rows(rng, n, m):
    """Objectives on a coarse grid (ties and duplicates), violations that are
    zero half the time, and some rows of failed-trial sentinels."""
    objectives = rng.integers(0, 4, size=(n, m)).astype(float)
    violations = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.choice([0.5, 1.0, 2.0], size=n))
    failed = rng.uniform(size=n) < 0.15
    objectives[failed] = FAILED
    violations[failed] = FAILED
    return objectives, violations


def sphere(genome):
    return [float(np.sum((genome - 0.3) ** 2))], []


def evaluate_all(genomes, evaluate):
    objectives, violations = [], []
    for g in genomes:
        obj, constraints = evaluate(np.asarray(g))
        objectives.append(obj)
        violations.append(total_violation(constraints))
    return Population(np.array(genomes, dtype=float), np.array(objectives), np.array(violations))


def de_generation(pop, F, CR, evaluate, rng):
    trials = evaluate_all(de_propose(pop, F, CR, rng), evaluate)
    return de_select(pop, trials)


def nsga2_generation(pop, evaluate, rng):
    offspring = evaluate_all(nsga2_propose(pop, rng), evaluate)
    return nsga2_select(pop, offspring)


def best_objective(pop):
    return pop.objectives[:, 0].min()


class TestDebRule:
    def test_matches_scalar_oracle_on_random_pairs(self):
        rng = np.random.default_rng(11)
        checked = ties = both_failed = both_feasible = 0
        for m in (1, 2, 3):
            obj_a, viol_a = random_rows(rng, 800, m)
            obj_b, viol_b = random_rows(rng, 800, m)
            got = _deb_dominates(obj_a, viol_a, obj_b, viol_b)
            assert got.shape == (800,)
            for k in range(800):
                assert got[k] == deb_better(obj_a[k], viol_a[k], obj_b[k], viol_b[k])
                # one pair at a time, too
                assert _deb_dominates(obj_a[k], viol_a[k], obj_b[k], viol_b[k]) == got[k]
            checked += 800
            ties += int(np.sum(np.all(obj_a == obj_b, axis=1)))
            both_failed += int(np.sum((viol_a == FAILED) & (viol_b == FAILED)))
            both_feasible += int(np.sum((viol_a == 0) & (viol_b == 0)))
        assert checked >= 2000
        assert min(ties, both_failed, both_feasible) > 10


class TestDE:
    def test_population_size_check(self):
        pop = evaluate_all(np.random.default_rng(0).uniform(size=(3, 2)), sphere)
        with pytest.raises(PopulationSizeError):
            de_propose(pop, 0.5, 0.9, np.random.default_rng(0))

    def test_limit_case_trial_composition(self):
        # F -> 0, CR = 0: the trial is the target vector except the forced
        # gene, which carries the base vector's value
        rng = np.random.default_rng(1)
        genomes = rng.uniform(size=(6, 3))
        pop = evaluate_all(genomes, sphere)
        trials = de_propose(pop, 1e-12, 0.0, np.random.default_rng(2))
        for i, trial in enumerate(trials):
            changed = np.flatnonzero(np.abs(trial - genomes[i]) > 1e-9)
            assert changed.size <= 1
            if changed.size == 1:
                j = changed[0]
                others = np.delete(np.arange(6), i)
                assert np.min(np.abs(genomes[others, j] - trial[j])) < 1e-9

    def test_selection_matches_pairwise_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(4, 20))
            parents = Population(rng.uniform(size=(n, 2)), *random_rows(rng, n, 1))
            trials = Population(rng.uniform(size=(n, 2)), *random_rows(rng, n, 1))
            survivors = de_select(parents, trials)
            for i in range(n):
                keep = deb_better(
                    parents.objectives[i], parents.violations[i],
                    trials.objectives[i], trials.violations[i],
                )
                winner = parents if keep else trials
                assert np.array_equal(survivors.genomes[i], winner.genomes[i])
                assert np.array_equal(survivors.objectives[i], winner.objectives[i])
                assert survivors.violations[i] == winner.violations[i]

    def test_best_never_worsens(self):
        rng = np.random.default_rng(3)
        pop = evaluate_all(rng.uniform(size=(10, 4)), sphere)
        best = best_objective(pop)
        for _ in range(20):
            pop = de_generation(pop, 0.5, 0.9, sphere, rng)
            cur = best_objective(pop)
            assert cur <= best + 1e-15
            best = cur

    def test_genomes_stay_in_unit_cube(self):
        rng = np.random.default_rng(4)
        pop = evaluate_all(rng.uniform(size=(8, 3)), sphere)
        for _ in range(30):
            pop = de_generation(pop, 1.9, 1.0, sphere, rng)
            g = pop.genomes
            assert np.all(g >= 0.0) and np.all(g <= 1.0)

    def test_operator_clamp_100k_gene_applications(self):
        # aggressive settings push mutants far outside the cube
        rng = np.random.default_rng(6)
        pop = evaluate_all(rng.uniform(size=(50, 10)), sphere)
        genes = 0
        while genes < 100_000:
            trials = de_propose(pop, 1.9, 1.0, rng)
            assert np.all(trials >= 0.0) and np.all(trials <= 1.0)
            genes += trials.size

    def test_sphere_convergence_median_of_seeds(self):
        finals = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pop = evaluate_all(rng.uniform(size=(20, 2)), sphere)
            for _ in range(100):
                pop = de_generation(pop, 0.5, 0.9, sphere, rng)
            finals.append(best_objective(pop))
        assert np.median(finals) <= 1e-3

    def test_feasibility_first_selection(self):
        def constrained(genome):
            # feasible only in the left half; objective prefers the right
            return [float(1.0 - genome[0])], [float(genome[0] - 0.5)]

        rng = np.random.default_rng(5)
        pop = evaluate_all(rng.uniform(size=(12, 1)), constrained)
        for _ in range(40):
            pop = de_generation(pop, 0.5, 0.9, constrained, rng)
        feasible = np.flatnonzero(pop.violations <= 0.0)
        assert feasible.size
        best = feasible[np.argmin(pop.objectives[feasible, 0])]
        assert pop.genomes[best, 0] <= 0.5 + 1e-12

    def test_determinism(self):
        genomes = np.random.default_rng(0).uniform(size=(6, 2))
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            pop = evaluate_all(genomes.copy(), sphere)
            for _ in range(5):
                pop = de_generation(pop, 0.5, 0.9, sphere, rng)
            runs.append(pop.genomes)
        assert np.array_equal(runs[0], runs[1])


def biobjective(genome):
    # convex front: f1 = x, f2 = 1 - sqrt(x) plus distance penalty in other dims
    x = genome[0]
    g = 1.0 + 9.0 * np.mean(genome[1:]) if genome.shape[0] > 1 else 1.0
    return [float(x), float(g * (1.0 - np.sqrt(x / g)))], []


def pairwise_fronts(objectives, violations):
    """Oracle: peel the constrained non-dominated set with pairwise comparisons."""
    remaining = list(range(len(violations)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(
                deb_better(objectives[j], violations[j], objectives[i], violations[i])
                for j in remaining
            )
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def population_of(objectives, violations=None):
    n = len(objectives)
    genomes = np.column_stack([np.arange(n) / max(n, 1), np.full(n, 0.5)])
    violations = np.zeros(n) if violations is None else np.asarray(violations, dtype=float)
    return Population(genomes, np.asarray(objectives, dtype=float), violations)


class TestNSGA2:
    def test_constrained_fronts_match_pairwise_oracle(self):
        # coarse grids give duplicate objectives and tied violations
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 4))
            objectives, violations = random_rows(rng, n, m)
            _, fronts, _ = _fronts_and_crowding(population_of(objectives, violations))
            assert fronts == pairwise_fronts(objectives, violations)

    def test_tournament_matches_pairwise_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 16))
            objectives, violations = random_rows(rng, n, int(rng.integers(1, 4)))
            dom, fronts, crowding = _fronts_and_crowding(population_of(objectives, violations))
            expected_crowding = np.empty(n)
            for front in pairwise_fronts(objectives, violations):
                expected_crowding[front] = crowding_distance(objectives[front])
            assert np.array_equal(crowding, expected_crowding)
            for i in range(n):
                for j in range(n):
                    if deb_better(objectives[i], violations[i], objectives[j], violations[j]):
                        expected = i
                    elif deb_better(objectives[j], violations[j], objectives[i], violations[i]):
                        expected = j
                    elif crowding[i] != crowding[j]:
                        expected = i if crowding[i] > crowding[j] else j
                    else:
                        expected = i
                    assert _tournament(dom, crowding, i, j) == expected

    def test_even_population_required(self):
        pop = evaluate_all(np.random.default_rng(0).uniform(size=(5, 2)), biobjective)
        with pytest.raises(PopulationSizeError):
            nsga2_propose(pop, np.random.default_rng(0))

    def test_elitism_parents_survive_dominated_offspring(self):
        parent_objectives = [[0.0, 0.0], [0.1, -0.1], [-0.1, 0.1], [0.05, 0.05]]
        parents = population_of(parent_objectives)
        offspring = population_of([[5.0, 5.0]] * 4)._replace(genomes=np.full((4, 2), 0.9))
        pop = nsga2_select(parents, offspring)
        assert {tuple(o) for o in pop.objectives} == {tuple(o) for o in parent_objectives}

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
        pop = population_of(objs)
        parents = Population(*(field[:4] for field in pop))
        offspring = Population(*(field[4:] for field in pop))
        pop = nsga2_select(parents, offspring)
        got = {tuple(o) for o in pop.objectives}
        # all of front 0, plus the boundary point of front 1 (infinite crowding)
        assert {(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)} <= got
        assert len(got) == 4
        assert (2.0, 2.0) not in got
        assert (0.6, 0.6) in got or (0.9, 0.55) in got

    def test_first_front_never_dominated_by_previous(self):
        rng = np.random.default_rng(7)
        pop = evaluate_all(rng.uniform(size=(20, 3)), biobjective)
        for _ in range(15):
            previous = pop.objectives
            pop = nsga2_generation(pop, biobjective, rng)
            _, fronts, _ = _fronts_and_crowding(pop)
            for new in pop.objectives[fronts[0]]:
                assert not any(dominates(p, new) for p in previous)

    def test_beats_random_selection_on_hypervolume(self):
        ref = np.array([2.0, 2.0])
        n, gens = 20, 30
        wins = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pop = evaluate_all(rng.uniform(size=(n, 3)), biobjective)
            for _ in range(gens):
                pop = nsga2_generation(pop, biobjective, rng)
            hv_nsga = hypervolume(pop.objectives, ref)

            rng = np.random.default_rng(seed)
            random_pool = evaluate_all(rng.uniform(size=(n * (gens + 1), 3)), biobjective)
            keep = rng.choice(len(random_pool.genomes), size=n, replace=False)
            hv_rand = hypervolume(random_pool.objectives[keep], ref)
            wins.append(hv_nsga - hv_rand)
        assert np.median(wins) > 0

    def test_genomes_stay_in_unit_cube(self):
        rng = np.random.default_rng(8)
        pop = evaluate_all(rng.uniform(size=(10, 4)), biobjective)
        for _ in range(20):
            pop = nsga2_generation(pop, biobjective, rng)
            g = pop.genomes
            assert np.all(g >= 0.0) and np.all(g <= 1.0)

    def test_operator_clamp_100k_gene_applications(self):
        rng = np.random.default_rng(9)
        pop = evaluate_all(rng.uniform(size=(50, 10)), biobjective)
        genes = 0
        while genes < 100_000:
            offspring = nsga2_propose(pop, rng)
            assert np.all(offspring >= 0.0) and np.all(offspring <= 1.0)
            genes += offspring.size

    def test_determinism(self):
        genomes = np.random.default_rng(1).uniform(size=(8, 2))
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(9)
            pop = evaluate_all(genomes.copy(), biobjective)
            for _ in range(5):
                pop = nsga2_generation(pop, biobjective, rng)
            runs.append(pop.genomes)
        assert np.array_equal(runs[0], runs[1])
