"""Tests for the closed-loop executor and safe evaluation."""

import itertools
import threading
import time

import numpy as np
import pytest

from bbo import optimizer
from bbo.advisor import TaskSpec
from bbo.errors import SetupError
from bbo.history import TrialState
from bbo.optimizer import evaluate_safe, run
from bbo.space import Configuration, ParameterSpec, SearchSpace


def float_space(d):
    return SearchSpace(
        [ParameterSpec(f"x{i}", "float", low=0.0, high=1.0) for i in range(d)]
    )


def quadratic(config):
    values = np.array(list(config.values.values()))
    return [float(np.sum((values - 0.5) ** 2))], []


def counter_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


class TestEvaluateSafe:
    def test_success(self):
        obs = evaluate_safe(lambda c: ([1.0], []), Configuration({"x": 0.5}))
        assert obs.trial_state == TrialState.SUCCESS
        assert obs.objectives == (1.0,)
        assert obs.elapsed_time >= 0

    def test_scalar_and_list_returns(self):
        assert evaluate_safe(lambda c: 2.5, Configuration({})).objectives == (2.5,)
        assert evaluate_safe(lambda c: [1.0, 2.0], Configuration({})).objectives == (1.0, 2.0)

    def test_raising_objective_becomes_failed(self):
        def boom(config):
            raise RuntimeError("crashed")

        obs = evaluate_safe(boom, Configuration({}))
        assert obs.trial_state == TrialState.FAILED
        assert obs.objectives is None
        assert "crashed" in obs.extra["error"]

    def test_nan_becomes_failed(self):
        obs = evaluate_safe(lambda c: float("nan"), Configuration({}))
        assert obs.trial_state == TrialState.FAILED

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf")])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        calls = []
        with pytest.raises(SetupError, match="timeout must be finite"):
            evaluate_safe(lambda c: calls.append(c) or 1.0, Configuration({}), timeout=timeout)
        assert calls == []  # rejected before any worker thread starts

    def test_timeout(self):
        def slow(config):
            time.sleep(2.0)
            return 1.0

        start = time.perf_counter()
        obs = evaluate_safe(slow, Configuration({}), timeout=0.1)
        assert obs.trial_state == TrialState.TIMEOUT
        assert obs.extra["error"] == "timed out after 0.1 s"
        assert time.perf_counter() - start < 1.5  # did not wait for the sleep

    def test_objective_timeout_keeps_its_message(self):
        def upstream(config):
            raise TimeoutError("upstream")

        obs = evaluate_safe(upstream, Configuration({}))
        assert obs.trial_state == TrialState.TIMEOUT
        assert obs.extra["error"] == "upstream"

    def test_unusable_return_value(self):
        obs = evaluate_safe(lambda c: "not a number", Configuration({}))
        assert obs.trial_state == TrialState.FAILED

    @pytest.mark.parametrize(
        "value, expected",
        [(np.float32(1.5), 1.5), (np.int64(3), 3.0), (np.array(2.0), 2.0)],
    )
    def test_numpy_scalars_are_bare_numbers(self, value, expected):
        obs = evaluate_safe(lambda c: value, Configuration({}))
        assert obs.trial_state == TrialState.SUCCESS
        assert obs.objectives == (expected,) and obs.constraints == ()

    def test_a_pair_of_numpy_scalars_is_two_objectives(self):
        for pair in ((np.float32(1.0), np.float32(2.0)), (np.array(1.0), np.int64(2))):
            obs = evaluate_safe(lambda c: pair, Configuration({}))
            assert obs.objectives == (1.0, 2.0) and obs.constraints == ()
        obs = evaluate_safe(lambda c: (np.array([1.0]), np.array([-1.0])), Configuration({}))
        assert obs.objectives == (1.0,) and obs.constraints == (-1.0,)


class TestRun:
    def test_budget_accounting(self):
        task = TaskSpec(space=float_space(2), max_runs=10, algorithm="random", seed=0)
        result = run(task, quadratic)
        assert len(result.history) == 10
        assert result.stop_reason == "max_runs"
        assert result.incumbent is not None

    def test_abandoned_evaluations_are_counted(self):
        task = TaskSpec(space=float_space(1), max_runs=2, algorithm="random", seed=0)

        def sleeper(config):
            time.sleep(0.3)
            return 1.0

        result = run(task, sleeper, timeout=0.1)
        assert [o.trial_state for o in result.history.observations] == [TrialState.TIMEOUT] * 2
        assert result.abandoned == 2

        def upstream(config):
            raise TimeoutError("upstream")

        # a TIMEOUT row whose objective returned is not abandoned
        result = run(task, upstream)
        assert [o.trial_state for o in result.history.observations] == [TrialState.TIMEOUT] * 2
        assert result.abandoned == 0
        assert run(task, quadratic, timeout=5.0).abandoned == 0

    def test_wall_clock_stop(self):
        task = TaskSpec(space=float_space(2), max_runs=50, algorithm="random", seed=0)

        def slow(config):
            time.sleep(0.02)
            return quadratic(config)

        result = run(task, slow, wall_clock_limit=0.05)
        assert result.stop_reason == "wall_clock"
        assert len(result.history) < 50

    def test_parallel_budget_exact(self):
        task = TaskSpec(space=float_space(2), max_runs=10, algorithm="random", seed=0)
        result = run(task, quadratic, parallelism=4)
        assert len(result.history) == 10

    def test_batch_size_is_the_default_parallelism(self):
        task = TaskSpec(space=float_space(2), max_runs=8, batch_size=4, algorithm="random", seed=0)
        barrier = threading.Barrier(4, timeout=5.0)

        def rendezvous(config):
            barrier.wait()  # breaks, failing the trial, unless four evaluations run at once
            return quadratic(config)

        result = run(task, rendezvous)
        assert [o.trial_state for o in result.history.observations] == [TrialState.SUCCESS] * 8

        threads = set()

        def record_thread(config):
            threads.add(threading.current_thread())
            return quadratic(config)

        run(task, record_thread, parallelism=1)  # an explicit parallelism wins
        assert threads == {threading.main_thread()}

    def test_crash_isolation_half_failing(self):
        calls = itertools.count()

        def flaky(config):
            if next(calls) % 2 == 0:
                raise ValueError("boom")
            return quadratic(config)

        task = TaskSpec(space=float_space(2), max_runs=20, algorithm="random", seed=1)
        result = run(task, flaky)
        states = [o.trial_state for o in result.history.observations]
        assert states.count(TrialState.FAILED) == 10
        assert result.incumbent is not None

    def test_wrong_shaped_results_become_failed_rows(self):
        calls = itertools.count()

        def drops_its_constraint(config):
            objectives, _ = quadratic(config)
            return (objectives, [-1.0]) if next(calls) < 3 else (objectives, [])

        task = TaskSpec(
            space=float_space(2), num_constraints=1, max_runs=6, algorithm="random", seed=3
        )
        result = run(task, drops_its_constraint)
        states = [o.trial_state for o in result.history.observations]
        assert states == [TrialState.SUCCESS] * 3 + [TrialState.FAILED] * 3
        for obs in result.history.observations[3:]:
            assert obs.objectives is None and obs.constraints is None
            assert obs.extra["error"] == "observation has 0 constraints, task expects 1"
        assert result.stop_reason == "max_runs"
        first_three = [o.objectives[0] for o in result.history.observations[:3]]
        assert result.incumbent.objectives[0] == min(first_three)

    @pytest.mark.parametrize("algorithm", ["random", "ea", "gp", "prf"])
    def test_exhaustion_mid_batch_evaluates_the_claimed_suggestions(self, algorithm):
        space = SearchSpace(
            [
                ParameterSpec("a", "int", low=0, high=2),
                ParameterSpec("c", "categorical", choices=("p", "q", "r", "s")),
            ]
        )
        task = TaskSpec(space=space, max_runs=20, algorithm=algorithm, seed=4)
        result = run(task, lambda c: float(c["a"] + "pqrs".index(c["c"])), parallelism=5)
        assert result.stop_reason == "exhausted"
        assert len(result.history) == 12
        assert len(set(o.config for o in result.history.observations)) == 12

    def test_one_executor_per_round_under_a_timeout(self, monkeypatch):
        pools = []

        class Recording(optimizer.ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                pools.append((max_workers, self))

        monkeypatch.setattr(optimizer, "ThreadPoolExecutor", Recording)
        task = TaskSpec(space=float_space(2), max_runs=7, algorithm="random", seed=0)
        threads = set()

        def record_thread(config):
            threads.add(threading.current_thread())
            return quadratic(config)

        result = run(task, record_thread, parallelism=3, timeout=5.0)
        assert len(result.history) == 7 and result.abandoned == 0
        assert [workers for workers, _ in pools] == [3, 3, 1]  # one executor a round
        assert all(len(pool._threads) <= workers for workers, pool in pools)
        assert threads <= set().union(*(pool._threads for _, pool in pools))

    def test_exhausted_space(self):
        space = SearchSpace([ParameterSpec("a", "categorical", choices=("u", "v"))])
        task = TaskSpec(space=space, max_runs=10, algorithm="random", seed=0)
        result = run(task, lambda c: 1.0)
        assert result.stop_reason == "exhausted"
        assert len(result.history) == 2

    def test_setup_errors(self):
        task = TaskSpec(space=float_space(2), max_runs=5)
        with pytest.raises(SetupError):
            run(task, "not callable")
        with pytest.raises(SetupError):
            run(task, lambda: 1.0)  # zero-argument objective
        with pytest.raises(SetupError):
            run(task, quadratic, parallelism=0)
        for timeout in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(SetupError, match="timeout must be finite and > 0"):
                run(task, quadratic, timeout=timeout)
        for limit in (0, -1.0, float("nan")):
            with pytest.raises(SetupError, match="wall-clock limit must be > 0"):
                run(task, quadratic, wall_clock_limit=limit)

    def test_sequential_determinism_with_injected_clock(self):
        task = TaskSpec(
            space=float_space(2), max_runs=14, init_count=6, algorithm="gp", seed=21
        )
        results = [
            run(task, quadratic, parallelism=1, clock=counter_clock()) for _ in range(2)
        ]
        a, b = (r.history.observations for r in results)
        assert [o.config for o in a] == [o.config for o in b]
        assert [o.objectives for o in a] == [o.objectives for o in b]
        assert [o.elapsed_time for o in a] == [o.elapsed_time for o in b]

    def test_manual_loop_reproduces_run(self):
        from bbo.advisor import Advisor

        task = TaskSpec(
            space=float_space(2), max_runs=12, init_count=5, algorithm="gp", seed=33
        )
        result = run(task, quadratic, clock=counter_clock())

        advisor = Advisor(task)
        clock = counter_clock()
        manual = []
        for _ in range(task.max_runs):
            config = advisor.ask()
            obs = evaluate_safe(quadratic, config, clock=clock)
            advisor.tell(obs)
            manual.append(obs)
        assert [o.config for o in manual] == [o.config for o in result.history.observations]
        assert [o.objectives for o in manual] == [
            o.objectives for o in result.history.observations
        ]

    def test_multiobjective_returns_front(self):
        def biobj(config):
            x = config["x0"]
            return [x, 1.0 - x], []

        task = TaskSpec(
            space=float_space(1), num_objectives=2, max_runs=12, algorithm="random", seed=2
        )
        result = run(task, biobj)
        assert result.incumbent is None
        assert len(result.pareto_front) >= 1
