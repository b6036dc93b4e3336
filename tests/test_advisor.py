"""Tests for algorithm auto-selection and the ask-and-tell advisor."""

import math
import time

import numpy as np
import pytest

from bbo import moo
from bbo.advisor import EHVI, Advisor, AlgorithmPlan, TaskSpec, auto_select
from bbo.errors import (
    ExhaustedSpaceError,
    InvalidConfigurationError,
    ObservationShapeError,
    SetupError,
)
from bbo.history import Observation, TrialState
from bbo.space import Configuration, ParameterSpec, SearchSpace, from_codes, latin_hypercube


def float_space(d):
    return SearchSpace(
        [ParameterSpec(f"x{i}", "float", low=0.0, high=1.0) for i in range(d)]
    )


def quadratic(config):
    values = np.array([v for v in config.values.values()])
    return [float(np.sum((values - 0.5) ** 2))], []


def dtlz2(config):
    """Three-objective DTLZ2 (Deb et al. 2005): the first two parameters
    place a point on the unit sphere's positive orthant, the rest scale it
    out by 1 + g."""
    m = 3
    x = list(config.values.values())
    g = sum((v - 0.5) ** 2 for v in x[m - 1 :])
    objectives = []
    for i in range(m):
        f = 1.0 + g
        for v in x[: m - 1 - i]:
            f *= math.cos(v * math.pi / 2)
        if i:
            f *= math.sin(x[m - 1 - i] * math.pi / 2)
        objectives.append(f)
    return objectives


def grid12_space():
    return SearchSpace(
        [
            ParameterSpec("a", "int", low=0, high=2),
            ParameterSpec("c", "categorical", choices=("p", "q", "r", "s")),
        ]
    )


def design(task):
    """The Latin hypercube an Advisor draws first from its seeded generator."""
    codes = latin_hypercube(task.space, task.init_count, np.random.default_rng(task.seed))
    return from_codes(task.space, codes)


def success(config, objectives, constraints=None):
    return Observation(
        config=config,
        objectives=objectives,
        constraints=constraints,
        trial_state=TrialState.SUCCESS,
    )


class TestAutoSelect:
    def test_high_dimension_switches_to_prf(self):
        task = TaskSpec(space=float_space(11), max_runs=100)
        plan = auto_select(task)
        assert plan == AlgorithmPlan("PRF", "EI", "random", "constant_liar_median")

    def test_many_runs_switch_to_prf(self):
        task = TaskSpec(space=float_space(5), max_runs=301)
        assert auto_select(task).surrogate_kind == "PRF"

    def test_default_is_gp(self):
        task = TaskSpec(space=float_space(5), max_runs=100)
        plan = auto_select(task)
        assert plan == AlgorithmPlan("GP", "EI", "random", "local_penalization")

    def test_boundary_cases_stay_gp(self):
        assert auto_select(TaskSpec(space=float_space(10), max_runs=300)).surrogate_kind == "GP"

    def test_acquisition_table(self):
        combos = {
            (1, 0): "EI",
            (1, 2): "EIC",
            (2, 0): "EHVI",
            (2, 2): "EHVI_C",
        }
        for (m, p), expected in combos.items():
            task = TaskSpec(space=float_space(3), num_objectives=m, num_constraints=p)
            assert auto_select(task).acquisition_kind == expected

    def test_ea_fallbacks(self):
        single = TaskSpec(space=float_space(3), algorithm="ea")
        multi = TaskSpec(space=float_space(3), num_objectives=2, algorithm="ea")
        assert auto_select(single).fallback == "DE"
        assert auto_select(multi).fallback == "NSGA2"
        assert auto_select(single).surrogate_kind == "none"

    def test_random_plan(self):
        plan = auto_select(TaskSpec(space=float_space(3), algorithm="random"))
        assert plan.surrogate_kind == "none" and plan.acquisition_kind == "none"

    def test_invalid_task(self):
        with pytest.raises(SetupError):
            TaskSpec(space=float_space(2), num_objectives=0)
        with pytest.raises(SetupError):
            TaskSpec(space=float_space(2), algorithm="annealing")


class TestAskTell:
    def test_init_design_served_in_order(self):
        task = TaskSpec(space=float_space(2), init_count=3, max_runs=30, seed=5)
        advisor = Advisor(task)
        first_three = []
        for _ in range(3):
            config = advisor.ask()
            assert advisor.last_ask_info["phase"] == "init"
            first_three.append(config)
            advisor.tell(success(config, *quadratic(config)))
        assert first_three == design(task)

    def test_external_tell_of_a_later_design_point_skips_it(self):
        task = TaskSpec(space=float_space(2), init_count=4, max_runs=30, seed=6)
        points = design(task)
        advisor = Advisor(task)
        advisor.tell(success(points[2], *quadratic(points[2])), external=True)
        asked = []
        for _ in range(3):
            asked.append(advisor.ask())
            advisor.tell(success(asked[-1], *quadratic(asked[-1])))
        assert asked == [points[0], points[1], points[3]]

    def test_external_off_grid_tell_excludes_the_design_point_of_its_code_row(self):
        # 2**-43 is an eighth of the float's grid step on [0, 1]: a different
        # value, but the same code row, so the same configuration
        task = TaskSpec(space=float_space(2), init_count=4, max_runs=30, seed=7)
        points = design(task)
        near = Configuration({**points[0].values, "x0": points[0]["x0"] + 2.0**-43})
        assert near != points[0]
        advisor = Advisor(task)
        advisor.tell(success(near, *quadratic(near)), external=True)
        asked = advisor.ask()
        assert asked == points[1]
        advisor.tell(success(asked, *quadratic(asked)))
        assert advisor.ask() == points[2]

    def test_ask_determinism_across_instances(self):
        task = TaskSpec(space=float_space(2), init_count=4, max_runs=40, seed=11)
        sequences = []
        for _ in range(2):
            advisor = Advisor(task)
            seq = []
            for _ in range(8):
                config = advisor.ask()
                seq.append(config)
                advisor.tell(success(config, *quadratic(config)))
            sequences.append(seq)
        assert sequences[0] == sequences[1]

    def test_tell_decrements_pending(self):
        task = TaskSpec(space=float_space(2), init_count=4, max_runs=40)
        advisor = Advisor(task)
        config = advisor.ask()
        assert advisor.num_pending == 1
        advisor.tell(success(config, *quadratic(config)))
        assert advisor.num_pending == 0

    def test_out_of_order_tells(self):
        task = TaskSpec(space=float_space(2), init_count=4, max_runs=40)
        advisor = Advisor(task)
        batch = [advisor.ask() for _ in range(3)]
        for config in reversed(batch):
            advisor.tell(success(config, *quadratic(config)))
        history = advisor.get_history()
        assert [o.config for o in history.observations] == list(reversed(batch))

    def test_wrong_shape_rejected(self):
        task = TaskSpec(space=float_space(2), init_count=2, max_runs=20)
        advisor = Advisor(task)
        config = advisor.ask()
        with pytest.raises(ObservationShapeError):
            advisor.tell(success(config, [1.0, 2.0]))

    def test_unknown_config_warns_but_records(self):
        task = TaskSpec(space=float_space(2), init_count=2, max_runs=20)
        advisor = Advisor(task)
        alien = Configuration({"x0": 0.5, "x1": 0.5})
        with pytest.warns(UserWarning):
            advisor.tell(success(alien, [1.0]))
        assert advisor.num_told == 1

    def test_external_tell_no_warning(self):
        task = TaskSpec(space=float_space(2), init_count=2, max_runs=20)
        advisor = Advisor(task)
        alien = Configuration({"x0": 0.5, "x1": 0.5})
        advisor.tell(success(alien, [1.0]), external=True)
        assert advisor.num_told == 1

    def test_out_of_space_tell_is_rejected_before_any_state_changes(self):
        space = SearchSpace([ParameterSpec("x", "float", low=0.0, high=1.0)])
        task = TaskSpec(space=space, init_count=2, max_runs=20, algorithm="gp", seed=1)
        advisor = Advisor(task)
        advisor.tell(success(Configuration({"x": 0.25}), [1.0]), external=True)
        advisor.tell(success(Configuration({"x": 0.75}), [0.5]), external=True)
        pending = advisor.ask()
        for alien in ({"x": 5.0}, {"y": 0.5}, {"x": 0.5, "y": 0.5}):
            with pytest.raises(InvalidConfigurationError):
                advisor.tell(success(Configuration(alien), [0.0]), external=True)
        assert advisor.num_told == 2 and advisor.num_pending == 1
        advisor.tell(success(pending, [0.7]))
        for _ in range(3):
            config = advisor.ask()
            assert advisor.last_ask_info["phase"] == "model"
            space.validate(config)
            advisor.tell(success(config, [0.7]))
        assert advisor.num_told == 6

    def test_history_snapshot_isolation(self):
        task = TaskSpec(space=float_space(2), init_count=2, max_runs=40)
        advisor = Advisor(task)
        assert len(advisor.get_history()) == 0
        for _ in range(3):
            config = advisor.ask()
            advisor.tell(success(config, *quadratic(config)))
        snap = advisor.get_history()
        for _ in range(5):
            config = advisor.ask()
            advisor.tell(success(config, *quadratic(config)))
        assert len(snap) == 3
        assert advisor.num_told == 8

    def test_model_ask_matches_dense_grid_argmax(self):
        space = SearchSpace([ParameterSpec("x", "float", low=0.0, high=1.0)])
        task = TaskSpec(space=space, init_count=2, max_runs=20, algorithm="gp", seed=3)
        advisor = Advisor(task)
        advisor.tell(success(Configuration({"x": 0.25}), [1.0]), external=True)
        advisor.tell(success(Configuration({"x": 0.75}), [1.0]), external=True)
        suggestion = advisor.ask()
        score_fn = advisor.last_ask_info["score_fn"]
        grid = np.linspace(0, 1, 2001).reshape(-1, 1)
        oracle = float(grid[np.argmax(score_fn(grid)), 0])
        assert abs(suggestion["x"] - oracle) <= 0.05

    def test_suggestion_beats_random_median_score(self):
        rng = np.random.default_rng(0)
        task = TaskSpec(space=float_space(2), init_count=6, max_runs=60, algorithm="gp", seed=7)
        advisor = Advisor(task)
        for _ in range(6):
            config = advisor.ask()
            advisor.tell(success(config, *quadratic(config)))
        suggestion = advisor.ask()
        info = advisor.last_ask_info
        assert info["phase"] == "model"
        from bbo.space import encode_matrix, sample_random

        candidates = sample_random(task.space, 100, rng)
        scores = info["score_fn"](encode_matrix(task.space, candidates, "one_hot"))
        own = info["score_fn"](encode_matrix(task.space, [suggestion], "one_hot"))
        assert float(own[0]) >= float(np.median(scores))

    def test_no_duplicate_suggestions_until_exhaustion(self):
        space = SearchSpace(
            [
                ParameterSpec("a", "int", low=0, high=3),
                ParameterSpec("b", "categorical", choices=("u", "v")),
            ]
        )
        task = TaskSpec(space=space, init_count=2, max_runs=8, algorithm="random", seed=1)
        advisor = Advisor(task)
        seen = []
        for _ in range(8):
            config = advisor.ask()
            assert config not in seen
            seen.append(config)
            advisor.tell(success(config, [0.0]))
        assert len(seen) == 8  # the whole 4 x 2 space, each exactly once


class TestRefitSchedule:
    def test_first_and_every_tenth_refit_are_deep(self, monkeypatch):
        from bbo import advisor as advisor_module

        fits = []
        fit_gp = advisor_module.fit_gp

        # restarts is read as a keyword, as the benchmark's tracer reads it
        def recording(X, y, **kwargs):
            fits.append((kwargs["restarts"], len(kwargs["extra_inits"])))
            return fit_gp(X, y, **kwargs)

        monkeypatch.setattr(advisor_module, "fit_gp", recording)
        task = TaskSpec(space=float_space(2), init_count=3, max_runs=15, algorithm="gp", seed=4)
        advisor = Advisor(task)
        for _ in range(task.max_runs):
            config = advisor.ask()
            advisor.tell(success(config, *quadratic(config)))
        assert len(fits) >= 11
        # deep: warm + default + 2 random starts (none warm on the first);
        # the others run the warm start alone
        assert fits[0] == (2, 0)
        assert fits[1] == (0, 1)
        assert fits[10] == (2, 1)
        assert [restarts for restarts, _ in fits[:11]] == [2] + [0] * 9 + [2]


class TestThreeObjectives:
    def test_dtlz2_ehvi_asks_are_bounded(self):
        ref = (2.0, 2.0, 2.0)
        task = TaskSpec(
            space=float_space(4), num_objectives=3, max_runs=30, ref_point=ref, seed=3
        )
        advisor = Advisor(task)
        assert advisor.plan.acquisition_kind == EHVI
        ask_s = []
        for _ in range(task.max_runs):
            start = time.perf_counter()
            config = advisor.ask()
            ask_s.append(time.perf_counter() - start)
            advisor.tell(success(config, dtlz2(config)))
        assert max(ask_s) < 10.0, f"slowest ask took {max(ask_s):.1f} s"
        objectives = np.array([o.objectives for o in advisor.get_history().observations])
        initial = moo.hypervolume(objectives[: task.init_count], ref)
        assert moo.hypervolume(objectives, ref) > initial


class TestAskBatch:
    def test_q1_equivalent_to_ask(self):
        task = TaskSpec(space=float_space(2), init_count=4, max_runs=40, seed=9)
        a = Advisor(task)
        b = Advisor(task)
        assert a.ask_batch(1) == [b.ask()]

    def test_batch_distinct(self):
        task = TaskSpec(space=float_space(2), init_count=4, max_runs=40, seed=2)
        advisor = Advisor(task)
        for _ in range(6):
            config = advisor.ask()
            advisor.tell(success(config, *quadratic(config)))
        batch = advisor.ask_batch(3)
        assert len(set(batch)) == 3
        assert advisor.num_pending == 3

    def test_batch_during_init_uses_design(self):
        task = TaskSpec(space=float_space(2), init_count=4, max_runs=40, seed=4)
        advisor = Advisor(task)
        batch = advisor.ask_batch(4)
        assert len(set(batch)) == 4

    def test_constant_liar_path_multiobjective(self):
        task = TaskSpec(
            space=float_space(2),
            num_objectives=2,
            init_count=5,
            max_runs=40,
            algorithm="gp",
            seed=6,
        )
        advisor = Advisor(task)
        for _ in range(5):
            config = advisor.ask()
            x = config["x0"]
            advisor.tell(success(config, [x, 1.0 - x]))
        batch = advisor.ask_batch(2)
        assert len(set(batch)) == 2


    def test_local_penalization_follower_describes_itself(self):
        task = TaskSpec(space=float_space(2), init_count=4, max_runs=40, algorithm="gp", seed=2)
        advisor = Advisor(task)
        for _ in range(4):
            config = advisor.ask()
            advisor.tell(success(config, *quadratic(config)))
        batch = advisor.ask_batch(3)
        assert advisor.plan.batch_strategy == "local_penalization"
        assert advisor.last_ask_info["phase"] == "model"
        assert advisor.last_ask_info["config"] == batch[-1]

    def test_constant_liar_follower_describes_itself(self):
        task = TaskSpec(space=float_space(2), init_count=4, max_runs=40, algorithm="prf", seed=3)
        advisor = Advisor(task)
        for _ in range(4):
            config = advisor.ask()
            advisor.tell(success(config, *quadratic(config)))
        batch = advisor.ask_batch(3)
        assert advisor.plan.batch_strategy == "constant_liar_median"
        assert advisor.last_ask_info["phase"] == "model"
        assert advisor.last_ask_info["config"] == batch[-1]


class TestEvolutionaryMode:
    @pytest.mark.parametrize("num_objectives", [1, 2])
    def test_never_resuggests_told_or_pending_on_a_small_space(self, num_objectives):
        task = TaskSpec(
            space=grid12_space(),
            num_objectives=num_objectives,
            algorithm="ea",
            max_runs=40,
            seed=2,
        )
        advisor = Advisor(task)
        seen = []
        with pytest.raises(ExhaustedSpaceError):
            while True:
                batch = advisor.ask_batch(2)
                assert not set(batch) & set(seen) and len(set(batch)) == 2
                seen.extend(batch)
                for config in reversed(batch):  # told out of suggestion order
                    value = (config["a"] - 1) ** 2 + "pqrs".index(config["c"])
                    advisor.tell(success(config, [value] * num_objectives))
        assert len(seen) == 12
        assert advisor.num_told == 12 and advisor.num_pending == 0

    @pytest.mark.parametrize("num_objectives", [1, 2])
    def test_generations_complete_where_rows_share_a_value(self, num_objectives):
        # a double cannot resolve 2**-40 of [9000, 9001], so neighbouring
        # code rows decode to one value there
        space = SearchSpace(
            [ParameterSpec(f"x{i}", "float", low=9000.0, high=9001.0) for i in range(2)]
        )
        task = TaskSpec(
            space=space, num_objectives=num_objectives, algorithm="ea", max_runs=200, seed=0
        )
        advisor = Advisor(task)
        seen = set()
        for _ in range(150):
            config = advisor.ask()
            assert advisor.last_ask_info["phase"] == "ea"
            assert config not in seen
            seen.add(config)
            x, y = (v - 9000.0 for v in config.values.values())
            advisor.tell(success(config, [x, 1.0 - x + y][:num_objectives]))

    def test_de_improves_over_initial(self):
        task = TaskSpec(space=float_space(3), algorithm="ea", max_runs=200, seed=0)
        advisor = Advisor(task)
        bests = []
        for _ in range(120):
            config = advisor.ask()
            obs = success(config, *quadratic(config))
            advisor.tell(obs)
            bests.append(advisor.get_history().incumbent().objectives[0])
        pop = advisor._ea.pop_size
        assert bests[-1] < bests[pop - 1]

    def test_nsga2_mode_produces_front(self):
        task = TaskSpec(
            space=float_space(2), num_objectives=2, algorithm="ea", max_runs=120, seed=0
        )
        advisor = Advisor(task)
        for _ in range(90):
            config = advisor.ask()
            x = config["x0"]
            y = config["x1"]
            advisor.tell(success(config, [x + 0.01 * y, (1 - x) + 0.01 * y]))
        front = advisor.get_history().pareto_front()
        assert len(front) >= 2

    def test_ea_handles_failures(self):
        task = TaskSpec(space=float_space(2), algorithm="ea", max_runs=100, seed=3)
        advisor = Advisor(task)
        for i in range(60):
            config = advisor.ask()
            if i % 3 == 0:
                advisor.tell(Observation(config=config, trial_state=TrialState.FAILED))
            else:
                advisor.tell(success(config, *quadratic(config)))
        assert advisor.get_history().incumbent() is not None
