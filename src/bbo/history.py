"""Observation records and the optimization trace.

History is the single source of truth consumed by advisors, reports, and the
CLI: it stores observations in tell order and answers incumbent/Pareto/
training-data queries.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import moo
from .errors import (
    InsufficientDataError,
    ObservationShapeError,
    WrongTaskTypeError,
)
from .space import Configuration


class TrialState(enum.Enum):
    SUCCESS = "SUCCESS"
    FAILED = "FAILED"
    TIMEOUT = "TIMEOUT"


@dataclass(frozen=True)
class Observation:
    """One evaluation result (minimization convention, constraints feasible iff <= 0).

    FAILED/TIMEOUT trials carry no usable objective or constraint values
    (both are None).
    """

    config: Configuration
    objectives: Optional[tuple] = None
    constraints: Optional[tuple] = None
    trial_state: TrialState = TrialState.SUCCESS
    elapsed_time: float = 0.0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.objectives is not None:
            object.__setattr__(self, "objectives", tuple(float(v) for v in self.objectives))
        if self.constraints is not None:
            object.__setattr__(self, "constraints", tuple(float(v) for v in self.constraints))
        if self.elapsed_time < 0:
            raise ObservationShapeError("elapsed_time must be >= 0")
        if self.trial_state == TrialState.SUCCESS:
            if self.objectives is None:
                raise ObservationShapeError("SUCCESS observations need objective values")
            if not all(math.isfinite(v) for v in self.objectives):
                raise ObservationShapeError("SUCCESS objectives must be finite")
            if self.constraints is not None and not all(
                math.isfinite(v) for v in self.constraints
            ):
                raise ObservationShapeError("SUCCESS constraints must be finite")

    @property
    def is_success(self) -> bool:
        return self.trial_state == TrialState.SUCCESS

    @property
    def is_feasible(self) -> bool:
        """SUCCESS with every constraint value <= 0."""
        if not self.is_success:
            return False
        if not self.constraints:
            return True
        return all(c <= 0 for c in self.constraints)


class History:
    """Append-only optimization trace for one task."""

    def __init__(
        self,
        task_id: str = "task",
        num_objectives: int = 1,
        num_constraints: int = 0,
        ref_point: Optional[Sequence[float]] = None,
    ):
        if num_objectives < 1:
            raise ValueError("num_objectives must be >= 1")
        if num_constraints < 0:
            raise ValueError("num_constraints must be >= 0")
        self.task_id = str(task_id)
        self.num_objectives = int(num_objectives)
        self.num_constraints = int(num_constraints)
        self.ref_point = tuple(float(v) for v in ref_point) if ref_point is not None else None
        if self.ref_point is not None and len(self.ref_point) != self.num_objectives:
            raise ObservationShapeError("ref_point length must equal num_objectives")
        if self.ref_point is not None and not np.isfinite(self.ref_point).all():
            raise ValueError(f"ref_point must be finite, got {self.ref_point!r}")
        self.observations: list[Observation] = []

    def __len__(self) -> int:
        return len(self.observations)

    def record(self, obs: Observation) -> None:
        """Append one observation after checking its dimensions."""
        if obs.objectives is not None and len(obs.objectives) != self.num_objectives:
            raise ObservationShapeError(
                f"observation has {len(obs.objectives)} objectives, task expects "
                f"{self.num_objectives}"
            )
        if obs.constraints is not None and len(obs.constraints) != self.num_constraints:
            raise ObservationShapeError(
                f"observation has {len(obs.constraints)} constraints, task expects "
                f"{self.num_constraints}"
            )
        if obs.is_success and self.num_constraints > 0 and obs.constraints is None:
            raise ObservationShapeError(
                f"SUCCESS observation missing the task's {self.num_constraints} constraints"
            )
        self.observations.append(obs)

    def snapshot(self) -> "History":
        """Immutable-by-convention deep copy; later records do not affect it."""
        return copy.deepcopy(self)

    def successes(self) -> list[Observation]:
        return [o for o in self.observations if o.is_success]

    def feasible_successes(self) -> list[Observation]:
        return [o for o in self.observations if o.is_feasible]

    def incumbent(self) -> Optional[Observation]:
        """Best feasible SUCCESS observation (single-objective tasks only).

        Earliest observation wins ties; None when nothing feasible succeeded.
        """
        if self.num_objectives != 1:
            raise WrongTaskTypeError("incumbent is defined for single-objective tasks")
        best = None
        for obs in self.observations:
            if not obs.is_feasible:
                continue
            if best is None or obs.objectives[0] < best.objectives[0]:
                best = obs
        return best

    def pareto_front(self) -> list[Observation]:
        """Non-dominated feasible SUCCESS observations (multi-objective tasks).

        Duplicates in objective space collapse to the earliest observation.
        """
        if self.num_objectives < 2:
            raise WrongTaskTypeError("pareto_front is defined for multi-objective tasks")
        feas = self.feasible_successes()
        return [feas[i] for i in moo._pareto_filter(np.array([o.objectives for o in feas]))]

    def success_objectives(self) -> Optional[np.ndarray]:
        """Matrix of SUCCESS objective vectors in tell order (None if empty)."""
        succ = self.successes()
        if not succ:
            return None
        return np.array([o.objectives for o in succ])

    def default_ref_point(self) -> Optional[np.ndarray]:
        """Reference point for tasks that set none: the worst SUCCESS value per
        objective plus 10% of its magnitude (0.1 where it is 0), or None
        before any success."""
        observed = self.success_objectives()
        if observed is None:
            return None
        worst = observed.max(axis=0)
        ref = worst + 0.1 * np.abs(worst)
        ref[worst == 0] += 0.1
        return ref

    def reference_point(self) -> Optional[np.ndarray]:
        """The task's reference point, else :meth:`default_ref_point`."""
        if self.ref_point is not None:
            return np.asarray(self.ref_point, dtype=float)
        return self.default_ref_point()

    def training_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """Surrogate training targets: (objective targets, constraint targets).

        Every observation is a row, in tell order. SUCCESS rows keep their
        true values; failed rows get the worst observed objective values plus
        one observed standard deviation, and constraints imputed as violated
        (+1).

        Returns Y (n, m) and C (n, p); C has zero columns when the task is
        unconstrained.
        """
        successes = self.successes()
        if not successes:
            raise InsufficientDataError("no SUCCESS observations to train on")

        obj_values = np.array([o.objectives for o in successes], dtype=float)
        worst = obj_values.max(axis=0)
        if obj_values.shape[0] >= 2:
            spread = obj_values.std(axis=0, ddof=1)
        else:
            spread = np.zeros(self.num_objectives)
        imputed_obj = worst + spread

        rows, p = self.observations, self.num_constraints
        Y = np.array([o.objectives if o.is_success else imputed_obj for o in rows])
        C = np.array([o.constraints if o.is_success and p else (1.0,) * p for o in rows])
        return Y, C.reshape(len(rows), p)
