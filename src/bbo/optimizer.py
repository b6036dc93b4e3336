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

from .advisor import Advisor, TaskSpec
from .errors import ExhaustedSpaceError, ObservationShapeError, SetupError
from .history import History, Observation, TrialState
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
    if isinstance(result, (int, float)):
        return [float(result)], []
    if (
        isinstance(result, tuple)
        and len(result) == 2
        and not isinstance(result[0], (int, float))
    ):
        objectives, constraints = result
        return [float(v) for v in objectives], [float(v) for v in constraints]
    return [float(v) for v in result], []


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
    or the objective raises TimeoutError, whose message is then kept.
    """
    return _evaluate(objective, config, timeout, clock)[0]


def _evaluate(
    objective: Callable, config: Configuration, timeout: Optional[float], clock: Callable[[], float]
) -> tuple[Observation, bool]:
    """:func:`evaluate_safe`'s observation, and whether the evaluation was
    abandoned at its timeout, its worker thread possibly still running."""
    start = clock()
    abandoned = False
    try:
        if timeout is None:
            result = objective(config)
        else:
            pool = ThreadPoolExecutor(max_workers=1)
            future = pool.submit(objective, config)
            # abandon (not join) the worker so a hung objective cannot
            # block the optimization loop
            pool.shutdown(wait=False)
            abandoned = not wait([future], timeout=timeout).done
            if abandoned:
                raise TimeoutError(f"timed out after {timeout} s")
            result = future.result()
    except (TimeoutError, FuturesTimeoutError) as exc:  # distinct classes before 3.11
        return Observation(
            config=config,
            trial_state=TrialState.TIMEOUT,
            elapsed_time=clock() - start,
            extra={"error": str(exc) or repr(exc)},
        ), abandoned
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # crash isolation: everything becomes FAILED
        return Observation(
            config=config,
            trial_state=TrialState.FAILED,
            elapsed_time=clock() - start,
            extra={"error": repr(exc)},
        ), False
    return _observation(config, result, clock() - start), False


def _observation(config: Configuration, result, elapsed: float) -> Observation:
    """The observation of an objective's return value: SUCCESS, or FAILED
    when the value is unusable or not finite."""
    try:
        objectives, constraints = _parse_result(result)
    except (TypeError, ValueError) as exc:
        return Observation(
            config=config,
            trial_state=TrialState.FAILED,
            elapsed_time=elapsed,
            extra={"error": f"unusable objective return value: {exc!r}"},
        )
    if not all(math.isfinite(v) for v in objectives + constraints):
        return Observation(
            config=config,
            trial_state=TrialState.FAILED,
            elapsed_time=elapsed,
            extra={"error": "non-finite objective or constraint value"},
        )
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

    Each round asks for min(parallelism, remaining budget) suggestions,
    evaluates them (concurrently when parallelism > 1), and tells results
    back in suggestion order so sequential runs are reproducible per seed.
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
    if timeout is not None and not 0 < timeout < math.inf:
        raise SetupError(f"timeout must be finite and > 0 s, got {timeout}")
    if wall_clock_limit is not None and not wall_clock_limit > 0:  # nan fails too
        raise SetupError(f"wall-clock limit must be > 0 s, got {wall_clock_limit}")

    advisor = Advisor(task)
    start = clock()
    stop_reason = STOP_MAX_RUNS
    abandoned = 0
    try:
        while advisor.num_told < task.max_runs:
            if wall_clock_limit is not None and clock() - start >= wall_clock_limit:
                stop_reason = STOP_WALL_CLOCK
                break
            q = min(parallelism, task.max_runs - advisor.num_told)
            try:
                batch = advisor.ask_batch(q)
            except ExhaustedSpaceError:
                stop_reason = STOP_EXHAUSTED
                break
            if q == 1:
                outcomes = [_evaluate(objective, batch[0], timeout, clock)]
            else:
                with ThreadPoolExecutor(max_workers=q) as pool:
                    futures = [
                        pool.submit(_evaluate, objective, config, timeout, clock)
                        for config in batch
                    ]
                    outcomes = [f.result() for f in futures]
            abandoned += sum(gone for _, gone in outcomes)
            for obs, _ in outcomes:  # told in suggestion order
                try:
                    advisor.tell(obs)
                except ObservationShapeError as exc:  # the task's shape, checked by History
                    advisor.tell(
                        Observation(
                            config=obs.config,
                            trial_state=TrialState.FAILED,
                            elapsed_time=obs.elapsed_time,
                            extra={"error": str(exc)},
                        )
                    )
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
