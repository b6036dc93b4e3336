"""Tests for observation storage, incumbents, Pareto queries, training data."""

import math

import numpy as np
import pytest

from bbo.errors import (
    InsufficientDataError,
    ObservationShapeError,
    WrongTaskTypeError,
)
from bbo.history import History, Observation, TrialState
from bbo.moo import dominates
from bbo.space import Configuration


def obs(x, objectives, constraints=None, state=TrialState.SUCCESS):
    return Observation(
        config=Configuration({"x": x}),
        objectives=objectives if state == TrialState.SUCCESS else None,
        constraints=constraints if state == TrialState.SUCCESS else None,
        trial_state=state,
    )


class TestRecord:
    def test_append(self):
        h = History("t", num_objectives=1)
        h.record(obs(0.1, [1.0]))
        assert len(h) == 1

    def test_shape_error(self):
        h = History("t", num_objectives=1)
        with pytest.raises(ObservationShapeError):
            h.record(obs(0.1, [1.0, 2.0]))

    def test_insertion_order(self):
        h = History("t", num_objectives=1)
        xs = np.linspace(0, 1, 100)
        for x in xs:
            h.record(obs(float(x), [float(x)]))
        assert [o.config["x"] for o in h.observations] == list(xs)

    def test_success_requires_finite(self):
        with pytest.raises(ObservationShapeError):
            obs(0.1, [math.nan])

    @pytest.mark.parametrize("state", [TrialState.SUCCESS, TrialState.FAILED, TrialState.TIMEOUT])
    @pytest.mark.parametrize("key", ["objectives", "constraints"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_values_must_be_finite_in_every_state(self, state, key, value):
        values = {"objectives": (1.0,), key: (0.5, value)}
        with pytest.raises(ObservationShapeError):
            Observation(Configuration({"x": 0.1}), trial_state=state, **values)

    @pytest.mark.parametrize("key", ["objectives", "constraints"])
    @pytest.mark.parametrize(
        "values",
        ["12", b"12", "0", [True, False], [np.True_], ["1.5", "2"], [b"1"], 5.0, np.array(5.0), [[1.0]]],
        ids=["str", "bytes", "str-0", "bools", "numpy-bool", "strs", "bytes-item", "float", "0-d-array", "nested"],
    )
    def test_values_must_be_sequences_of_numbers(self, key, values):
        given = {"objectives": (1.0,), key: values}
        with pytest.raises(ObservationShapeError, match=f"{key} must be a sequence of numbers"):
            Observation(Configuration({"x": 0.1}), **given)

    def test_numpy_numbers_are_numbers(self):
        o = Observation(
            Configuration({"x": 0.1}),
            objectives=np.array([1.5, 2.0], dtype=np.float32),
            constraints=[np.int64(-1), np.array(0.25)],
        )
        assert o.objectives == (1.5, 2.0) and o.constraints == (-1.0, 0.25)
        assert all(type(v) is float for v in o.objectives + o.constraints)

    def test_failed_carries_no_values(self):
        o = obs(0.1, None, state=TrialState.FAILED)
        assert o.objectives is None and not o.is_success

    @pytest.mark.parametrize("elapsed", [math.nan, math.inf, -1.0])
    def test_elapsed_time_must_be_finite_and_non_negative(self, elapsed):
        with pytest.raises(ObservationShapeError):
            Observation(Configuration({"x": 0.1}), (1.0,), elapsed_time=elapsed)


class TestIncumbent:
    def test_minimum(self):
        h = History("t", num_objectives=1)
        for x, y in [(0.1, 3.0), (0.2, 1.0), (0.3, 2.0)]:
            h.record(obs(x, [y]))
        assert h.incumbent().objectives == (1.0,)

    def test_earliest_tie(self):
        h = History("t", num_objectives=1)
        h.record(obs(0.1, [1.0]))
        h.record(obs(0.9, [1.0]))
        assert h.incumbent().config["x"] == 0.1

    def test_feasibility_filter(self):
        h = History("t", num_objectives=1, num_constraints=1)
        h.record(obs(0.1, [0.5], constraints=[1.0]))
        h.record(obs(0.2, [0.9], constraints=[-1.0]))
        assert h.incumbent().objectives == (0.9,)

    def test_wrong_task_type(self):
        h = History("t", num_objectives=2)
        with pytest.raises(WrongTaskTypeError):
            h.incumbent()

    def test_none_when_no_feasible(self):
        h = History("t", num_objectives=1, num_constraints=1)
        h.record(obs(0.1, [0.5], constraints=[2.0]))
        assert h.incumbent() is None

    def test_nonincreasing_over_time(self):
        h = History("t", num_objectives=1)
        rng = np.random.default_rng(0)
        best = math.inf
        for _ in range(200):
            h.record(obs(float(rng.uniform()), [float(rng.normal())]))
            cur = h.incumbent().objectives[0]
            assert cur <= best + 1e-15
            best = cur


class TestParetoFront:
    def test_dominated_point_excluded(self):
        h = History("t", num_objectives=2)
        for x, f in [(0.1, (1, 2)), (0.2, (2, 1)), (0.3, (2, 2))]:
            h.record(obs(x, f))
        front = {o.objectives for o in h.pareto_front()}
        assert front == {(1.0, 2.0), (2.0, 1.0)}

    def test_duplicates_collapse_to_earliest(self):
        h = History("t", num_objectives=2)
        for x in (0.1, 0.5, 0.9):
            h.record(obs(x, (1.0, 1.0)))
        front = h.pareto_front()
        assert len(front) == 1
        assert front[0].config["x"] == 0.1

    def test_wrong_task_type(self):
        h = History("t", num_objectives=1)
        with pytest.raises(WrongTaskTypeError):
            h.pareto_front()

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(11)
        h = History("t", num_objectives=2)
        pts = rng.uniform(size=(50, 2))
        for i, p in enumerate(pts):
            h.record(obs(float(i) / 50, tuple(p)))
        got = {o.objectives for o in h.pareto_front()}
        expected = {
            tuple(pts[i])
            for i in range(len(pts))
            if not any(dominates(pts[j], pts[i]) for j in range(len(pts)) if j != i)
        }
        assert got == expected

    def test_front_dominates_or_equals_excluded(self):
        rng = np.random.default_rng(13)
        h = History("t", num_objectives=3)
        for i in range(120):
            h.record(obs(i / 120, tuple(rng.uniform(size=3))))
        front = [o.objectives for o in h.pareto_front()]
        for o in h.feasible_successes():
            if o.objectives in front:
                continue
            assert any(dominates(f, o.objectives) or f == o.objectives for f in front)


    def test_three_objectives_with_duplicates_and_infeasible_rows(self):
        # three objectives take the Pareto filter's dominance-matrix branch
        rng = np.random.default_rng(17)
        h = History("t", num_objectives=3, num_constraints=1)
        h.record(obs(0.0, (-1.0, -1.0, -1.0), (1.0,)))  # would dominate every row
        for i in range(1, 80):
            if i % 9 == 0:
                h.record(obs(i / 80, None, state=TrialState.FAILED))
            else:
                objectives = tuple(rng.integers(0, 3, size=3).astype(float))  # duplicates
                h.record(obs(i / 80, objectives, (float(rng.uniform(-1.0, 0.5)),)))
        feas = h.feasible_successes()
        expected = [
            o
            for k, o in enumerate(feas)
            if not any(dominates(p.objectives, o.objectives) for p in feas)
            and all(p.objectives != o.objectives for p in feas[:k])
        ]
        got = h.pareto_front()
        assert 1 < len(got) < len(set(o.objectives for o in feas))
        assert len(got) == len(expected)
        assert all(a is b for a, b in zip(got, expected))

class TestReferencePoint:
    def test_task_point(self):
        h = History("t", num_objectives=2, ref_point=(2, 3))
        h.record(obs(0.1, [5.0, 5.0]))
        ref = h.reference_point()
        assert ref.dtype == float and list(ref) == [2.0, 3.0]

    def test_default_worst_plus_ten_percent(self):
        h = History("t", num_objectives=2)
        h.record(obs(0.1, [1.0, -2.0]))
        h.record(obs(0.2, [4.0, -4.0]))
        h.record(obs(0.3, None, state=TrialState.FAILED))
        assert list(h.reference_point()) == pytest.approx([4.4, -1.8])
        assert np.array_equal(h.reference_point(), h.default_ref_point())

    def test_none_before_any_success(self):
        h = History("t", num_objectives=2)
        assert h.reference_point() is None
        h.record(obs(0.3, None, state=TrialState.FAILED))
        assert h.reference_point() is None


class TestTrainingTargets:
    def test_impute_worst_arithmetic(self):
        h = History("t", num_objectives=1)
        h.record(obs(0.1, [1.0]))
        h.record(obs(0.5, [3.0]))
        h.record(obs(0.9, None, state=TrialState.FAILED))
        Y, C = h.training_targets()
        assert Y.shape == (3, 1) and C.shape == (3, 0)
        assert Y[2, 0] == pytest.approx(3.0 + math.sqrt(2.0))  # worst + sample std

    def test_failed_constraints_imputed_violated(self):
        h = History("t", num_objectives=1, num_constraints=2)
        h.record(obs(0.1, [1.0], constraints=[-1.0, -0.5]))
        h.record(obs(0.9, None, state=TrialState.TIMEOUT))
        _, C = h.training_targets()
        assert list(C[0]) == [-1.0, -0.5]
        assert list(C[1]) == [1.0, 1.0]

    def test_only_failures_is_an_error(self):
        h = History("t", num_objectives=1)
        h.record(obs(0.9, None, state=TrialState.FAILED))
        with pytest.raises(InsufficientDataError):
            h.training_targets()


class TestSnapshot:
    def test_isolation(self):
        h = History("t", num_objectives=1)
        h.record(obs(0.1, [1.0]))
        snap = h.snapshot()
        for i in range(5):
            h.record(obs(0.2 + i / 100, [2.0]))
        assert len(snap) == 1 and len(h) == 6
