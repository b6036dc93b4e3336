"""Closed-loop execution: drive ask -> evaluate -> tell to budget.

The objective callable receives a Configuration and returns either a bare
number, a sequence of objective values, or an ``(objectives, constraints)``
pair. Crashes, non-finite values, timeouts, and results with the wrong
number of objectives or constraints are captured as FAILED or TIMEOUT
observations; they never propagate to the caller.
"""

from __future__ import annotations

import inspect
import math
import time
from concurrent.futures import ThreadPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .advisor import Advisor, TaskSpec
from .errors import ExhaustedSpaceError, ObservationShapeError, SetupError
from .history import History, Observation, TrialState, _is_number
from .space import Configuration

STOP_MAX_RUNS = "max_runs"
STOP_WALL_CLOCK = "wall_clock"
STOP_EXHAUSTED = "exhausted"
STOP_USER_ABORT = "user_abort"


@dataclass
class OptResult:
    """Final state of one optimization run.

    ``abandoned`` counts the evaluations that ``run`` stopped waiting for
    at their timeout. Python cannot kill a thread, so their worker threads
    may still be running when ``run`` returns, and the process exits only
    after they finish.
    """

    history: History
    incumbent: Optional[Observation]
    pareto_front: list[Observation]
    total_elapsed: float
    stop_reason: str
    abandoned: int


def _parse_result(result) -> tuple[list[float], list[float]]:
    """(objectives, constraints) of a return value: a bare number, a
    sequence of them, or an (objectives, constraints) pair of sequences.
    Anything else, a bool, a string or a sequence holding either, raises
    TypeError."""
    if _is_number(result):
        return [float(result)], []
    objectives, constraints = result, []
    if isinstance(result, tuple) and len(result) == 2 and not _is_number(result[0]):
        objectives, constraints = result
    if any(isinstance(values, (str, bytes)) for values in (objectives, constraints)):
        raise TypeError(f"a string is not a sequence of numbers: {result!r}")
    objectives, constraints = list(objectives), list(constraints)
    for value in objectives + constraints:
        if not _is_number(value):
            raise TypeError(f"not a number: {value!r}")
    return [float(v) for v in objectives], [float(v) for v in constraints]


def _failure(config: Configuration, state: TrialState, elapsed: float, error: str) -> Observation:
    """A FAILED or TIMEOUT observation with its error message."""
    return Observation(
        config=config, trial_state=state, elapsed_time=elapsed, extra={"error": error}
    )


def _check_timeout(timeout: Optional[float]) -> None:
    if timeout is not None and not 0 < timeout < math.inf:  # nan fails too
        raise SetupError(f"timeout must be finite and > 0 s, got {timeout}")


def evaluate_safe(
    objective: Callable,
    config: Configuration,
    timeout: Optional[float] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> Observation:
    """Run the objective on one configuration, capturing every failure mode.

    Returns SUCCESS with measured elapsed time on a normal, finite return;
    FAILED when the objective raises or returns non-finite values; TIMEOUT
    when the deadline elapses (the worker thread is abandoned, not killed)
    or the objective raises TimeoutError, whose message is then kept. A
    ``timeout`` must be finite and > 0 s (SetupError otherwise).
    """
    _check_timeout(timeout)
    return _evaluate_batch(objective, [config], timeout, clock)[0][0]


def _evaluate_batch(
    objective: Callable, batch: list, timeout: Optional[float], clock: Callable[[], float]
) -> tuple[list[Observation], int]:
    """The observations of a batch, in its order, and how many evaluations
    were abandoned at the timeout, their worker threads possibly still
    running. One configuration with no timeout runs in the calling thread;
    otherwise each runs in a worker thread of one executor, all under one
    deadline, and the executor is abandoned (not joined) only when the
    deadline passes, so a hung objective cannot block the loop."""
    if len(batch) == 1 and timeout is None:
        return [_evaluate(objective, batch[0], clock)], 0
    start = clock()
    pool = ThreadPoolExecutor(max_workers=len(batch))
    futures = [pool.submit(_evaluate, objective, config, clock) for config in batch]
    unfinished = wait(futures, timeout=timeout).not_done
    pool.shutdown(wait=not unfinished)
    observations = [
        _failure(config, TrialState.TIMEOUT, clock() - start, f"timed out after {timeout} s")
        if future in unfinished
        else future.result()
        for config, future in zip(batch, futures)
    ]
    return observations, len(unfinished)


def _evaluate(
    objective: Callable, config: Configuration, clock: Callable[[], float]
) -> Observation:
    """One evaluation in the current thread."""
    start = clock()
    try:
        result = objective(config)
    except (TimeoutError, FuturesTimeoutError) as exc:  # distinct classes before 3.11
        return _failure(config, TrialState.TIMEOUT, clock() - start, str(exc) or repr(exc))
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # crash isolation: everything becomes FAILED
        return _failure(config, TrialState.FAILED, clock() - start, repr(exc))
    elapsed = clock() - start
    try:
        objectives, constraints = _parse_result(result)
    except (TypeError, ValueError) as exc:
        error = f"unusable objective return value: {exc!r}"
        return _failure(config, TrialState.FAILED, elapsed, error)
    if not all(math.isfinite(v) for v in objectives + constraints):
        error = "non-finite objective or constraint value"
        return _failure(config, TrialState.FAILED, elapsed, error)
    return Observation(
        config=config,
        objectives=objectives,
        constraints=constraints,
        trial_state=TrialState.SUCCESS,
        elapsed_time=elapsed,
    )


def run(
    task: TaskSpec,
    objective: Callable,
    wall_clock_limit: Optional[float] = None,
    parallelism: Optional[int] = None,
    timeout: Optional[float] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> OptResult:
    """Optimize to budget with synchronous batch parallelism.

    Each round claims min(parallelism, remaining budget) suggestions with
    ``Advisor.ask_batch``, evaluates them (one thread each, under one
    deadline, when there are several or a timeout is set), and tells results
    back in suggestion order so sequential runs are reproducible per seed.
    When the space runs out mid-round, the suggestions already made are
    evaluated and told before the run stops.
    ``parallelism`` defaults to the task's ``batch_size``. A
    ``wall_clock_limit`` must be > 0 s (``inf`` means none), and a
    ``timeout`` finite and > 0 s. The ``clock`` is injectable so tests can
    freeze elapsed-time accounting.
    """
    if not callable(objective):
        raise SetupError("objective must be callable")
    try:
        sig = inspect.signature(objective)
        sig.bind(Configuration({}))
    except TypeError:
        raise SetupError("objective must accept a single configuration argument") from None
    except ValueError:
        pass  # builtins without introspectable signatures
    if parallelism is None:
        parallelism = task.batch_size
    if parallelism < 1:
        raise SetupError("parallelism must be >= 1")
    _check_timeout(timeout)
    if wall_clock_limit is not None and not wall_clock_limit > 0:  # nan fails too
        raise SetupError(f"wall-clock limit must be > 0 s, got {wall_clock_limit}")

    advisor = Advisor(task)
    start = clock()
    stop_reason = STOP_MAX_RUNS
    abandoned = 0
    try:
        while stop_reason == STOP_MAX_RUNS and advisor.num_told < task.max_runs:
            if wall_clock_limit is not None and clock() - start >= wall_clock_limit:
                stop_reason = STOP_WALL_CLOCK
                break
            q = min(parallelism, task.max_runs - advisor.num_told)
            try:
                batch = advisor.ask_batch(q)
            except ExhaustedSpaceError:
                stop_reason = STOP_EXHAUSTED
                break
            if len(batch) < q:
                stop_reason = STOP_EXHAUSTED  # the suggestions already claimed still run
            observations, gone = _evaluate_batch(objective, batch, timeout, clock)
            abandoned += gone
            for obs in observations:  # told in suggestion order
                try:
                    advisor.tell(obs)
                except ObservationShapeError as exc:  # the task's shape, checked by History
                    obs = _failure(obs.config, TrialState.FAILED, obs.elapsed_time, str(exc))
                    advisor.tell(obs)
    except KeyboardInterrupt:
        stop_reason = STOP_USER_ABORT

    history = advisor.get_history()
    incumbent = history.incumbent() if task.num_objectives == 1 else None
    front = history.pareto_front() if task.num_objectives > 1 else []
    return OptResult(
        history=history,
        incumbent=incumbent,
        pareto_front=front,
        total_elapsed=clock() - start,
        stop_reason=stop_reason,
        abandoned=abandoned,
    )
