"""Tests for algorithm auto-selection and the ask-and-tell advisor."""

import copy
import math
import time

import numpy as np
import pytest

import bbo.advisor
from bbo import moo
from bbo.acquisition import _candidate_pool, _jittered, _unseen_rows, ehvi, ehvi_tables
from bbo.advisor import EHVI, Advisor, AlgorithmPlan, TaskSpec, auto_select
from bbo.errors import (
    ExhaustedSpaceError,
    InvalidConfigurationError,
    ObservationShapeError,
    SetupError,
)
from bbo.history import Observation, TrialState
from bbo.space import (
    Configuration,
    ParameterSpec,
    SearchSpace,
    all_codes,
    encode_codes,
    encode_matrix,
    from_codes,
    latin_hypercube,
    to_codes,
)


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


def mixed_space(**defaults):
    return SearchSpace(
        [
            ParameterSpec("x", "float", low=0.0, high=2.0, default=defaults.get("x")),
            ParameterSpec("k", "int", low=1, high=64, log_scale=True, default=defaults.get("k")),
            ParameterSpec("c", "categorical", choices=("a", "b", "c"), default=defaults.get("c")),
        ]
    )


def mixed(config):
    return [(config["x"] - 0.7) ** 2 + abs(math.log2(config["k"]) - 3) + "abc".index(config["c"])]


def told_advisor(task, objective, n):
    """An advisor that has suggested and been told n points."""
    advisor = Advisor(task)
    for _ in range(n):
        config = advisor.ask()
        advisor.tell(success(config, objective(config)))
    return advisor


def scored_models(monkeypatch, advisor):
    """A list that collects the objective models of every score the advisor
    builds from now on."""
    scored = []
    score_function = advisor._score_function

    def recording(objective_models, constraint_models):
        scored.append(objective_models)
        return score_function(objective_models, constraint_models)

    monkeypatch.setattr(advisor, "_score_function", recording)
    return scored


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_objectives", 1.0),
            ("num_constraints", True),
            ("max_runs", 7.5),
            ("max_runs", True),
            ("batch_size", 2.5),
            ("init_count", 3.0),
            ("seed", 1.5),
            ("seed", "1"),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(SetupError, match=f"{field} must be an integer"):
            TaskSpec(space=float_space(2), **{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(SetupError, match="seed must be >= 0"):
            TaskSpec(space=float_space(2), seed=-1)

    def test_numpy_integers_accepted(self):
        task = TaskSpec(space=float_space(2), max_runs=np.int64(20), batch_size=np.int32(2), seed=np.uint8(3))
        assert Advisor(task).ask_batch() and task.init_count == 6

    def test_tell_rejects_non_numbers(self):
        advisor = Advisor(TaskSpec(space=float_space(2), seed=1))
        config = advisor.ask()
        for values in ("12", b"12", [True], ["1.5"]):
            with pytest.raises(ObservationShapeError):
                advisor.tell(Observation(config, objectives=values))
        assert advisor.num_told == 0

    @pytest.mark.parametrize("ref_point", [(math.nan, 10.0), (math.inf, 10.0), (10.0, -math.inf)])
    def test_non_finite_ref_point_rejected(self, ref_point):
        with pytest.raises(SetupError, match="ref_point must be finite"):
            TaskSpec(space=float_space(2), num_objectives=2, ref_point=ref_point)


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
        assert len(advisor._pending) == 1
        advisor.tell(success(config, *quadratic(config)))
        assert len(advisor._pending) == 0

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
        assert advisor.num_told == 2 and len(advisor._pending) == 1
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

    def test_constant_liar_follower_conditions_the_told_fit(self, monkeypatch):
        from bbo import advisor as advisor_module

        task = TaskSpec(
            space=float_space(2), num_objectives=2, init_count=4, max_runs=40, algorithm="gp", seed=7
        )
        advisor = told_advisor(task, lambda c: [c["x0"], 1.0 - c["x0"] + c["x1"]], 6)
        leader = advisor.ask()  # fits the told rows
        assert advisor.plan.batch_strategy == "constant_liar_median"
        told_models = advisor._models[0]
        attributes = ("X", "y", "L", "alpha", "lengthscales", "signal_var", "noise_var")
        before = [{name: np.copy(getattr(m, name)) for name in attributes} for m in told_models]

        fits = []
        monkeypatch.setattr(advisor_module, "fit_gp", lambda *a, **k: fits.append(k))
        scored = scored_models(monkeypatch, advisor)
        advisor.ask()  # a follower: the leader is pending
        assert fits == []
        configs = [o.config for o in advisor.get_history().observations] + [leader]
        rows = encode_matrix(task.space, configs, "one_hot")
        for follower, told, saved in zip(scored[0], told_models, before):
            assert follower is not told
            assert follower.X.tobytes() == rows.tobytes()
            np.testing.assert_array_equal(follower.lengthscales, told.lengthscales)
            assert (follower.signal_var, follower.noise_var) == (told.signal_var, told.noise_var)
            for name, value in saved.items():
                np.testing.assert_array_equal(getattr(told, name), value)
        assert advisor._models[0] == told_models

    def test_follower_before_any_told_fit_fits_told_and_lies_deep(self, monkeypatch):
        from bbo import advisor as advisor_module

        task = TaskSpec(
            space=float_space(2), num_objectives=2, init_count=4, max_runs=40, algorithm="gp", seed=7
        )
        advisor = Advisor(task)
        design = [advisor.ask() for _ in range(4)]
        for config in design[:3]:
            advisor.tell(success(config, [config["x0"], 1.0 - config["x0"]]))
        fits = []
        fit_gp = advisor_module.fit_gp

        def recording(X, y, **kwargs):
            fits.append((len(X), kwargs["restarts"], kwargs["extra_inits"]))
            return fit_gp(X, y, **kwargs)

        monkeypatch.setattr(advisor_module, "fit_gp", recording)
        advisor.ask()  # the fourth design point is pending, nothing was fit yet
        assert advisor.last_ask_info["phase"] == "model"
        assert fits == [(4, 2, ())] * 2
        assert advisor._models is None

    def test_follower_near_a_told_row_builds_through_jitter(self, monkeypatch):
        """A lie a few grid steps from a told row. The fit's noise floor
        keeps such a pair positive definite in floating point, so a
        stand-in LAPACK declines each follower model's unjittered
        factorization, as dpotrf does for a matrix left indefinite."""
        from bbo import advisor as advisor_module
        from bbo import surrogate
        from bbo.surrogate import JITTERS

        task = TaskSpec(
            space=float_space(2), num_objectives=2, init_count=4, max_runs=40, algorithm="gp", seed=7
        )
        advisor = told_advisor(task, lambda c: [c["x0"], 1.0 - c["x0"] + c["x1"]], 6)
        near = advisor._told[2].copy()
        near[0] += 3 * 2.0**-40 if near[0] < 0.5 else -3 * 2.0**-40
        maximize = advisor_module.maximize_acquisition
        monkeypatch.setattr(advisor_module, "maximize_acquisition", lambda *a, **k: near[None, :])
        leader = advisor.ask()  # fits the told rows, then claims the near row
        monkeypatch.setattr(advisor_module, "maximize_acquisition", maximize)
        assert leader not in [o.config for o in advisor.get_history().observations]

        lapack, calls = surrogate.lapack, []

        class DecliningLapack:
            """Reports a non-positive leading minor on the first try of every
            factorization of the follower's 7 rows."""

            def __getattr__(self, name):
                return getattr(lapack, name)

            def dpotrf(self, a, lower):
                if len(a) == 7:
                    calls.append(len(calls) % 2 == 0)
                    if calls[-1]:
                        return a, 1
                return lapack.dpotrf(a, lower=lower)

        monkeypatch.setattr(surrogate, "lapack", DecliningLapack())
        scored = scored_models(monkeypatch, advisor)
        config = advisor.ask()
        assert [model.jitter for model in scored[0]] == [JITTERS[1]] * 2
        assert calls == [True, False] * 2
        told = [o.config for o in advisor.get_history().observations]
        assert config not in told + [leader]
        assert len(advisor._pending) == 2


class TestRandomFallback:
    """Every phase that yields no row falls back to one random unseen row."""

    def test_gp_plan_whose_initial_design_failed(self):
        task = TaskSpec(space=float_space(2), init_count=3, max_runs=20, algorithm="gp", seed=1)
        advisor = Advisor(task)
        for _ in range(3):
            advisor.tell(Observation(config=advisor.ask(), trial_state=TrialState.FAILED))
        advisor.ask()
        assert advisor.last_ask_info["phase"] == "random"

    def test_gp_plan_with_a_single_success(self):
        task = TaskSpec(space=float_space(2), init_count=1, max_runs=20, algorithm="gp", seed=2)
        advisor = told_advisor(task, lambda c: quadratic(c)[0], 1)
        advisor.ask()
        assert advisor.last_ask_info["phase"] == "random"

    @pytest.mark.parametrize("algorithm, num_objectives", [("prf", 1), ("gp", 2)])
    def test_constant_liar_refit_needs_two_told_rows(self, algorithm, num_objectives):
        task = TaskSpec(
            space=float_space(2),
            num_objectives=num_objectives,
            init_count=1,
            max_runs=20,
            algorithm=algorithm,
            seed=2,
        )
        advisor = told_advisor(task, lambda c: [quadratic(c)[0][0]] * num_objectives, 1)
        assert advisor.plan.batch_strategy == "constant_liar_median"
        for _ in range(2):  # nothing pending, then one pending row
            advisor.ask()
            assert advisor.last_ask_info["phase"] == "random"

    @pytest.mark.parametrize("algorithm", ["gp", "prf"])
    def test_asks_past_the_initial_design_before_any_tell(self, algorithm):
        task = TaskSpec(space=float_space(2), init_count=2, max_runs=20, algorithm=algorithm)
        advisor = Advisor(task)
        phases = []
        for _ in range(4):
            advisor.ask()
            phases.append(advisor.last_ask_info["phase"])
        assert phases == ["init", "init", "random", "random"]
        assert len(advisor._pending) == 4

    def test_evolutionary_bridge(self):
        task = TaskSpec(space=float_space(2), algorithm="ea", max_runs=20, seed=3)
        advisor = Advisor(task)
        for _ in range(advisor._ea.pop_size):
            advisor.ask()
            assert advisor.last_ask_info["phase"] == "ea"
        advisor.ask()  # the whole generation is pending
        assert advisor.last_ask_info["phase"] == "random"


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


class TestScoreFunction:
    def test_ehvi_over_the_front_within_the_task_reference_point(self):
        ref = np.array([1.0, 1.0])
        task = TaskSpec(
            space=float_space(2),
            num_objectives=2,
            init_count=2,
            max_runs=20,
            algorithm="gp",
            ref_point=tuple(ref),
            seed=4,
        )
        advisor = Advisor(task)
        front = [[0.3, 0.6], [0.6, 0.3], [0.05, 1.5]]  # the last is beyond ref
        for x, objectives in zip([0.2, 0.5, 0.8], front):
            advisor.tell(success(Configuration({"x0": x, "x1": x}), objectives), external=True)
        advisor.ask()
        assert advisor.last_ask_info["phase"] == "model"
        X = np.random.default_rng(0).uniform(size=(50, 2))
        objective_models = advisor._models[0]
        inside = moo.nondominated_boxes(np.array(front[:2]), ref)
        got = advisor.last_ask_info["score_fn"](X)
        assert np.array_equal(got, ehvi(X, objective_models, ehvi_tables(inside)))
        everything = moo.nondominated_boxes(np.array(front), ref)
        assert not np.array_equal(got, ehvi(X, objective_models, ehvi_tables(everything)))


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
        assert len(advisor._pending) == 3

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

    @pytest.mark.parametrize(
        "algorithm, num_objectives, strategy",
        [
            ("gp", 1, "local_penalization"),
            ("gp", 2, "constant_liar_median"),
            ("prf", 1, "constant_liar_median"),
        ],
    )
    def test_asks_while_pending_equal_ask_batch(self, algorithm, num_objectives, strategy):
        task = TaskSpec(
            space=float_space(2),
            num_objectives=num_objectives,
            init_count=5,
            max_runs=40,
            algorithm=algorithm,
            seed=8,
        )

        def objective(config):
            x = config["x0"]
            return [(x - 0.3) ** 2 + config["x1"], 1.0 - x][:num_objectives]

        a = told_advisor(task, objective, 6)
        b = told_advisor(task, objective, 6)
        assert a.plan.batch_strategy == strategy
        asked = [a.ask() for _ in range(3)]
        assert asked == b.ask_batch(3)
        assert len(set(asked)) == 3 and len(a._pending) == len(b._pending) == 3

    def test_partial_batch_when_the_space_runs_out(self):
        space = SearchSpace(
            [ParameterSpec("a", "int", low=0, high=2), ParameterSpec("b", "int", low=0, high=3)]
        )
        task = TaskSpec(space=space, init_count=2, max_runs=40, algorithm="prf", seed=5)
        advisor = Advisor(task)
        assert [len(advisor.ask_batch(5)) for _ in range(3)] == [5, 5, 2]
        assert len(advisor._pending) == 12
        with pytest.raises(ExhaustedSpaceError):
            advisor.ask_batch(5)
        assert len(advisor._pending) == 12

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


class TestPendingSet:
    def test_abandoned_suggestion_keeps_local_penalization_until_told(self, monkeypatch):
        task = TaskSpec(space=float_space(2), init_count=4, max_runs=40, algorithm="gp", seed=5)
        advisor = told_advisor(task, lambda c: quadratic(c)[0], 5)
        abandoned = advisor.ask()
        penalized = []
        penalize = bbo.advisor.local_penalization

        def spy(base, X, pending, *args):
            penalized.append(len(pending))
            return penalize(base, X, pending, *args)

        monkeypatch.setattr(bbo.advisor, "local_penalization", spy)
        for _ in range(3):
            config = advisor.ask()
            advisor.tell(success(config, *quadratic(config)))
            assert set(penalized) == {1}
            penalized.clear()
        advisor.tell(Observation(config=abandoned, trial_state=TrialState.FAILED))
        advisor.ask()
        assert penalized == [] and len(advisor._pending) == 1

    def test_abandoned_suggestion_keeps_constant_liar_until_told(self, monkeypatch):
        task = TaskSpec(space=float_space(2), init_count=4, max_runs=40, algorithm="prf", seed=5)
        advisor = told_advisor(task, lambda c: quadratic(c)[0], 5)
        abandoned = advisor.ask()
        rows = []
        fit = bbo.advisor.fit_prf

        def spy(X, y, **kwargs):
            rows.append(len(X))
            return fit(X, y, **kwargs)

        monkeypatch.setattr(bbo.advisor, "fit_prf", spy)
        for i in range(3):
            config = advisor.ask()
            # the first follower conditions the forest fit since the last
            # tell; after a tell, the forest refits on told rows plus the lie
            assert rows == ([] if i == 0 else [advisor.num_told + 1])
            advisor.tell(success(config, *quadratic(config)))
            rows.clear()
        advisor.tell(Observation(config=abandoned, trial_state=TrialState.FAILED))
        advisor.ask()
        assert rows == [advisor.num_told]

    def test_prf_batch_fits_the_forest_once(self, monkeypatch):
        task = TaskSpec(space=mixed_space(), init_count=6, max_runs=40, algorithm="prf", seed=7)
        advisor = told_advisor(task, mixed, 6)
        rows = []
        fit = bbo.advisor.fit_prf

        def spy(X, y, **kwargs):
            rows.append(len(X))
            return fit(X, y, **kwargs)

        monkeypatch.setattr(bbo.advisor, "fit_prf", spy)
        for _ in range(2):
            batch = advisor.ask_batch(4)
            assert len(set(batch)) == 4 and rows == [advisor.num_told]
            for config in batch:
                advisor.tell(success(config, mixed(config)))
            rows.clear()

    def test_follower_leaves_the_told_forest_unchanged(self, monkeypatch):
        task = TaskSpec(space=mixed_space(), init_count=6, max_runs=40, algorithm="prf", seed=8)
        advisor = told_advisor(task, mixed, 6)
        advisor.ask()
        (forest,), _ = advisor._models
        nodes, counts, roots = forest.nodes.copy(), forest._counts.copy(), forest.roots.copy()
        scored = scored_models(monkeypatch, advisor)
        lie = advisor._encode(list(advisor._pending.values()))
        advisor.ask()
        assert advisor._models[0][0] is forest and advisor._models_current
        assert np.array_equal(forest.nodes, nodes) and np.array_equal(forest._counts, counts)
        assert np.array_equal(forest.roots, roots)
        # the follower's forest (scored with the leaves of its ask's pool)
        # holds the lie in the leaf it reaches in each tree
        [(pooled,)] = scored
        follower = pooled.forest
        added = np.zeros_like(counts)
        added[forest._leaves(lie)] = 1
        assert np.array_equal(follower._counts, counts + added)
        assert np.array_equal(follower.nodes[:, :4], nodes[:, :4])

    def test_training_rows_are_the_told_configurations_in_tell_order(self, monkeypatch):
        task = TaskSpec(space=mixed_space(), init_count=6, max_runs=40, algorithm="gp", seed=4)
        advisor = told_advisor(task, mixed, 6)
        inputs = []
        fit = bbo.advisor.fit_gp

        def spy(X, y, **kwargs):
            inputs.append(X)
            return fit(X, y, **kwargs)

        monkeypatch.setattr(bbo.advisor, "fit_gp", spy)
        for _ in range(2):
            batch = advisor.ask_batch(3)
            advisor.tell(Observation(config=batch[1], trial_state=TrialState.FAILED))
            for config in (batch[2], batch[0]):
                advisor.tell(success(config, mixed(config)))
        inputs.clear()
        advisor.ask()
        configs = [o.config for o in advisor.get_history().observations]
        assert len(inputs) == 1
        assert inputs[0].tobytes() == encode_matrix(task.space, configs, "one_hot").tobytes()


def pools_passed(monkeypatch):
    """A list that collects the (rows, inputs) ``pool`` every later
    acquisition search of the advisor module is handed."""
    pools = []
    maximize = bbo.advisor.maximize_acquisition

    def recording(*args, **kwargs):
        pools.append(args[2])
        return maximize(*args, **kwargs)

    monkeypatch.setattr(bbo.advisor, "maximize_acquisition", recording)
    return pools


def far_space():
    """A float on [9000, 9001], where a double does not resolve every
    grid step (README), so some code rows decode to a neighbour's value."""
    return SearchSpace(
        [
            ParameterSpec("x", "float", low=9000.0, high=9001.0),
            ParameterSpec("k", "int", low=0, high=20),
        ]
    )


def far(config):
    return [(config["x"] - 9000.4) ** 2 + abs(config["k"] - 7)]


class TestSharedPool:
    """A constant-liar forest follower whose told forest is current carries
    the last ask's candidate pool on instead of drawing its own."""

    @pytest.mark.parametrize("unresolved", [False, True], ids=["mixed", "unresolved-grid"])
    def test_follower_pool_is_the_last_pool_less_the_rows_seen_plus_two_neighbours_each(
        self, monkeypatch, unresolved
    ):
        if unresolved:
            task = TaskSpec(space=far_space(), init_count=6, max_runs=40, algorithm="prf", seed=5)
            advisor = told_advisor(task, far, 6)

            # the leader claims a pool row that does not survive its round
            # trip, so the claim marks two rows seen
            def unresolved_row(score_fn, space, pool, encode, **kwargs):
                rows = pool[0]
                trips = to_codes(space, from_codes(space, rows))
                return rows[np.flatnonzero((trips != rows).any(axis=1))[:1]].copy()

            monkeypatch.setattr(bbo.advisor, "maximize_acquisition", unresolved_row)
        else:
            task = TaskSpec(space=mixed_space(), init_count=6, max_runs=40, algorithm="prf", seed=8)
            advisor = told_advisor(task, mixed, 6)
        advisor.ask()
        monkeypatch.undo()
        assert advisor.last_ask_info["pool"] == "sampled"
        last, _, _, seen = advisor._pool
        assert advisor.last_ask_info["walked"] == len(last)
        new = np.array(list(advisor._seen.values())[seen:])
        assert len(new) == (2 if unresolved else 1)

        pools = pools_passed(monkeypatch)
        known = dict(advisor._seen)
        rng = copy.deepcopy(advisor._rng)
        advisor.ask()
        neighbours = _jittered(task.space, np.vstack([new, new]), rng)
        want = _unseen_rows(np.vstack([last, neighbours]), known)
        [(rows, _)] = pools
        assert rows.tobytes() == want.tobytes()
        assert advisor._pool[0] is rows
        for row in new:
            assert not (rows == row).all(axis=1).any()
        dropped = sum((last == row).all(axis=1).any() for row in new)
        if unresolved:
            assert dropped == 1  # the claimed pool row; the row it decodes to was not in it
        assert advisor.last_ask_info["pool"] == "shared"
        assert advisor.last_ask_info["walked"] == len(rows) - (len(last) - dropped)

    @pytest.mark.parametrize(
        "num_objectives, num_constraints, acquisition",
        [(1, 0, "EI"), (1, 1, "EIC"), (2, 1, "EHVI_C")],
    )
    def test_shared_pool_scores_are_those_of_a_fresh_predict(
        self, monkeypatch, num_objectives, num_constraints, acquisition
    ):
        task = TaskSpec(
            space=mixed_space(),
            num_objectives=num_objectives,
            num_constraints=num_constraints,
            init_count=6,
            max_runs=40,
            algorithm="prf",
            seed=9,
        )

        def objective(config):
            value = mixed(config)[0]
            return success(config, [value, 3.0 - value][:num_objectives], [config["x"] - 1.0][:num_constraints])

        advisor = Advisor(task)
        assert advisor.plan.acquisition_kind == acquisition
        for _ in range(6):
            advisor.tell(objective(advisor.ask()))
        pools = pools_passed(monkeypatch)
        advisor.ask_batch(3)
        assert len(pools) == 3 and advisor.last_ask_info["pool"] == "shared"
        # the pool's inputs read the carried leaves; encoded rows walk the
        # follower's forests afresh
        (rows, inputs), score_fn = pools[-1], advisor.last_ask_info["score_fn"]
        assert inputs.shape == (len(rows), 0)
        carried = np.asarray(score_fn(inputs), dtype=float)
        fresh = np.asarray(score_fn(encode_codes(task.space, rows, "index")), dtype=float)
        assert carried.tobytes() == fresh.tobytes()

    def test_tell_drops_the_pool(self):
        task = TaskSpec(space=mixed_space(), init_count=6, max_runs=40, algorithm="prf", seed=10)
        advisor = told_advisor(task, mixed, 6)
        batch = advisor.ask_batch(2)
        assert advisor.last_ask_info["pool"] == "shared" and advisor._pool is not None
        advisor.tell(success(batch[0], mixed(batch[0])))
        assert advisor._pool is None
        config = advisor.ask()  # refits told rows plus the lie, whose pool is not kept
        assert advisor.last_ask_info["pool"] == "sampled" and advisor._pool is None
        for config in (batch[1], config):
            advisor.tell(success(config, mixed(config)))
        advisor.ask()  # nothing is pending: the told fit, whose pool is kept
        assert advisor.last_ask_info["pool"] == "sampled"
        assert advisor.last_ask_info["walked"] == len(advisor._pool[0])

    def test_enumerated_pool_is_the_unseen_configurations_until_none_is_left(self, monkeypatch):
        task = TaskSpec(space=grid12_space(), init_count=4, max_runs=40, algorithm="prf", seed=11)
        advisor = told_advisor(task, lambda c: [c["a"] + "pqrs".index(c["c"])], 4)
        pools = pools_passed(monkeypatch)
        records = []
        for _ in range(8):
            known = dict(advisor._seen)
            advisor.ask()
            records.append((advisor.last_ask_info["pool"], advisor.last_ask_info["walked"]))
            want = _unseen_rows(all_codes(task.space), known)
            assert pools[-1][0].tobytes() == want.tobytes()
        assert records == [("enumerated", 8)] + [("shared", 0)] * 7
        with pytest.raises(ExhaustedSpaceError):
            advisor.ask()
        assert len(advisor._pending) == 8

    def test_empty_shared_pool_on_a_sampled_space_draws_afresh(self, monkeypatch):
        task = TaskSpec(space=mixed_space(), init_count=6, max_runs=40, algorithm="prf", seed=12)
        advisor = told_advisor(task, mixed, 6)
        # the leader's pool is one row, which it claims
        candidate_pool = bbo.advisor._candidate_pool
        monkeypatch.setattr(
            bbo.advisor, "_candidate_pool", lambda *args: (candidate_pool(*args)[0][:1], "sampled")
        )
        monkeypatch.setattr(bbo.advisor, "maximize_acquisition", lambda *a, **k: a[2][0].copy())
        advisor.ask()
        monkeypatch.undo()
        # every neighbour the follower draws is a row already seen
        monkeypatch.setattr(bbo.advisor, "_jittered", lambda space, rows, rng: rows)
        known = dict(advisor._seen)
        rng = copy.deepcopy(advisor._rng)
        pools = pools_passed(monkeypatch)
        advisor.ask()
        want, _ = candidate_pool(task.space, rng, 5000, np.array(list(known.values())), known)
        assert advisor.last_ask_info["pool"] == "sampled"
        assert advisor.last_ask_info["walked"] == len(want)
        assert pools[-1][0].tobytes() == want.tobytes()


class TestScoredRows:
    """Every row the acquisition search ranks, the candidate pool's and
    each local-search step's, reaches the score function the advisor hands
    it, once."""

    def counted_ask(self, monkeypatch, advisor, q=1):
        """Ask for a batch of q, returning per acquisition search the rows
        reaching the handed score function, the pool's rows (the first
        ranking of the search: its local-search starts, or with no local
        search its result) and the rows its local search kept."""
        searches = []
        maximize, top, unseen_mask = (
            bbo.advisor.maximize_acquisition,
            bbo.acquisition._top,
            bbo.acquisition._unseen_mask,
        )

        def counting_maximize(score_fn, *args, **kwargs):
            searches.append({"scored": 0, "ranked": [], "local": 0})

            def counting_score(X):
                searches[-1]["scored"] += np.atleast_2d(X).shape[0]
                return score_fn(X)

            return maximize(counting_score, *args, **kwargs)

        def counting_top(scores, k):
            searches[-1]["ranked"].append(len(scores))
            return top(scores, k)

        def counting_unseen_mask(codes, known_keys):
            keep = unseen_mask(codes, known_keys)
            searches[-1]["local"] += int(keep.sum())
            return keep

        monkeypatch.setattr(bbo.advisor, "maximize_acquisition", counting_maximize)
        monkeypatch.setattr(bbo.acquisition, "_top", counting_top)
        monkeypatch.setattr(bbo.acquisition, "_unseen_mask", counting_unseen_mask)
        sources = []
        for _ in range(q):
            advisor.ask()
            sources.append(advisor.last_ask_info.get("pool"))
        monkeypatch.undo()
        return [(s["scored"], s["ranked"][0], s["local"]) for s in searches], sources

    def assert_every_row_scored(self, searches):
        for scored, pool, local in searches:
            assert pool > 0
            assert scored == pool + local

    def test_gp_ask(self, monkeypatch):
        task = TaskSpec(space=float_space(2), init_count=6, max_runs=40, algorithm="gp", seed=13)
        advisor = told_advisor(task, lambda c: quadratic(c)[0], 6)
        searches, _ = self.counted_ask(monkeypatch, advisor)
        assert len(searches) == 1 and searches[0][2] > 0
        self.assert_every_row_scored(searches)

    def test_forest_sampled_and_shared_pools(self, monkeypatch):
        task = TaskSpec(space=mixed_space(), init_count=6, max_runs=40, algorithm="prf", seed=14)
        advisor = told_advisor(task, mixed, 6)
        searches, sources = self.counted_ask(monkeypatch, advisor, q=3)
        assert sources == ["sampled", "shared", "shared"]
        assert all(local > 0 for _, _, local in searches)
        self.assert_every_row_scored(searches)

    def test_forest_enumerated_pool(self, monkeypatch):
        task = TaskSpec(space=grid12_space(), init_count=4, max_runs=40, algorithm="prf", seed=15)
        advisor = told_advisor(task, lambda c: [c["a"] + "pqrs".index(c["c"])], 4)
        searches, sources = self.counted_ask(monkeypatch, advisor, q=2)
        assert sources == ["enumerated", "shared"]
        assert [(pool, local) for _, pool, local in searches] == [(8, 0), (7, 0)]
        self.assert_every_row_scored(searches)


class TestDefaults:
    @pytest.mark.parametrize(
        "algorithm, init_design",
        [("gp", "latin_hypercube"), ("gp", "random"), ("ea", "latin_hypercube"), ("ea", "random")],
    )
    def test_first_ask_is_the_defaults(self, algorithm, init_design):
        space = mixed_space(x=0.25, k=8, c="b")
        task = TaskSpec(space=space, max_runs=30, algorithm=algorithm, init_design=init_design)
        assert Advisor(task).ask() == Configuration({"x": 0.25, "k": 8, "c": "b"})

    @pytest.mark.parametrize("algorithm", ["gp", "ea"])
    def test_one_default_sets_its_parameter_only(self, algorithm):
        plain = Advisor(TaskSpec(space=mixed_space(), max_runs=30, algorithm=algorithm))
        advisor = Advisor(TaskSpec(space=mixed_space(c="c"), max_runs=30, algorithm=algorithm))
        first, baseline = advisor.ask(), plain.ask()
        assert first["c"] == "c"
        assert (first["x"], first["k"]) == (baseline["x"], baseline["k"])
        assert advisor.ask() == plain.ask()  # later design rows are unchanged


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
        assert advisor.num_told == 12 and len(advisor._pending) == 0

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

    @pytest.mark.parametrize("num_objectives", [1, 2])
    def test_generation_does_not_depend_on_tell_order(self, num_objectives):
        # the first generation told in reverse claim order, with an external
        # tell of an unrelated configuration and a second, much better tell
        # of a member between its tells, must give the two generations after
        # it that the same generation told in claim order gives
        def objective(config):
            x, y = config.values.values()
            return [x + 0.1 * y, 1.0 - x + 0.1 * y][:num_objectives]

        def later_generations(shuffled):
            task = TaskSpec(
                space=float_space(2), num_objectives=num_objectives, algorithm="ea",
                max_runs=100, seed=7,
            )
            advisor = Advisor(task)
            first = [advisor.ask() for _ in range(advisor._ea.pop_size)]
            for i, config in enumerate(first[::-1] if shuffled else first):
                advisor.tell(success(config, objective(config)))
                if shuffled and i == 1:
                    unrelated = Configuration({"x0": 0.123456, "x1": 0.654321})
                    advisor.tell(success(unrelated, [-50.0] * num_objectives), external=True)
                    advisor.tell(success(first[-1], [-100.0] * num_objectives), external=True)
            generations = []
            for _ in range(2):
                generation = [advisor.ask() for _ in range(advisor._ea.pop_size)]
                assert advisor.last_ask_info["phase"] == "ea"
                for config in generation:
                    advisor.tell(success(config, objective(config)))
                generations.append(generation)
            return generations

        assert later_generations(shuffled=True) == later_generations(shuffled=False)

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
