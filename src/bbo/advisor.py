"""The ask-and-tell engine.

An :class:`Advisor` owns the history for one task, picks algorithms from the
task's characteristics (by :func:`auto_select`, so every automatic decision
is auditable in one place), produces suggestions, and ingests observations.

Every suggestion takes one path: a phase gate (evolutionary, initial design,
or else one model-based ask, which picks its models, builds a score function
over them and maximizes it, under the plan's batch strategy while any
suggestion is pending), and a random unseen row when that phase yields none:
no surrogate, too little data, or an evolutionary generation in flight.
Each path yields a code row (see :mod:`bbo.space`), and one claim step
decodes it into the returned configuration, validates it, and records it
under the bytes of its code row. That key is a configuration's one
identity: every path skips the rows the advisor has suggested or been told,
``tell`` matches pending rows by it, and the told rows, in tell order, are
the surrogates' inputs.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import evolution, moo
from .acquisition import (
    _candidate_pool,
    _jittered,
    _load_special,
    _rows_in,
    _unseen_rows,
    ehvi,
    ehvi_tables,
    estimate_lipschitz,
    expected_improvement,
    feasibility_product,
    local_penalization,
    maximize_acquisition,
)
from .errors import ExhaustedSpaceError, InsufficientDataError, SetupError
from .history import History, Observation
from .space import (
    INDEX,
    ONE_HOT,
    Configuration,
    SearchSpace,
    all_codes,
    decode_codes,
    encode_codes,
    from_codes,
    latin_hypercube,
    sample_codes,
    to_codes,
)
from .surrogate import GPModel, _load_gp_libraries, fit_gp, fit_prf, one_blas_thread

GP = "GP"
PRF = "PRF"
NONE = "none"

EI = "EI"
EIC = "EIC"
EHVI = "EHVI"
EHVI_C = "EHVI_C"

DE = "DE"
NSGA2 = "NSGA2"
RANDOM = "random"

LOCAL_PENALIZATION = "local_penalization"
CONSTANT_LIAR_MEDIAN = "constant_liar_median"

_ALGORITHMS = ("auto", "gp", "prf", "ea", "random")
_INIT_DESIGNS = ("latin_hypercube", "random")

# surrogate switch thresholds from the automatic selection rule
_PRF_DIM_THRESHOLD = 10
_PRF_RUNS_THRESHOLD = 300

# inner-optimization budgets; the multi-objective path uses a smaller pool
# because every candidate is scored against every box of the front's
# decomposition, whose count grows steeply with the number of objectives
_N_CANDIDATES = 5000
_N_LOCAL_STARTS = 10
_N_CANDIDATES_MO = 600
_N_LOCAL_STARTS_MO = 5

_FAILED_SENTINEL = 1e18


# the least value of each integer field of a task (init_count may be None)
_LEAST = {"num_objectives": 1, "num_constraints": 0, "max_runs": 1, "batch_size": 1, "init_count": 1, "seed": 0}


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class TaskSpec:
    """Declarative description of one optimization task."""

    space: SearchSpace
    num_objectives: int = 1
    num_constraints: int = 0
    max_runs: int = 100
    batch_size: int = 1
    algorithm: str = "auto"
    init_design: str = "latin_hypercube"
    init_count: Optional[int] = None
    ref_point: Optional[tuple] = None
    seed: int = 0
    task_id: str = "task"

    def __post_init__(self):
        for name, least in _LEAST.items():
            value = getattr(self, name)
            if value is None and name == "init_count":
                continue
            if not _is_integer(value):
                raise SetupError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise SetupError(f"{name} must be >= {least}, got {value}")
        if self.algorithm not in _ALGORITHMS:
            raise SetupError(f"unknown algorithm {self.algorithm!r}; expected one of {_ALGORITHMS}")
        if self.init_design not in _INIT_DESIGNS:
            raise SetupError(f"unknown init_design {self.init_design!r}")
        if self.init_count is None:
            self.init_count = max(1, min(max(2 * len(self.space), 8), self.max_runs // 3))
        if self.ref_point is not None and len(self.ref_point) != self.num_objectives:
            raise SetupError("ref_point length must equal num_objectives")
        if self.ref_point is not None and not np.isfinite(self.ref_point).all():
            raise SetupError(f"ref_point must be finite, got {self.ref_point!r}")


@dataclass(frozen=True)
class AlgorithmPlan:
    """Resolved choice of surrogate, acquisition, fallback, batch strategy."""

    surrogate_kind: str
    acquisition_kind: str
    fallback: str
    batch_strategy: str


def auto_select(task: TaskSpec) -> AlgorithmPlan:
    """Pick an algorithm plan from the task characteristics.

    Surrogate-based plans use PRF instead of GP when the space has more than
    ten parameters or the trial budget exceeds 300; the acquisition follows
    the (objectives, constraints) signature of the task.
    """
    m, p = task.num_objectives, task.num_constraints
    if m == 1:
        acquisition = EI if p == 0 else EIC
    else:
        acquisition = EHVI if p == 0 else EHVI_C

    if task.algorithm in ("ea", "random"):
        surrogate = NONE
        acquisition = NONE
    elif task.algorithm == "gp":
        surrogate = GP
    elif task.algorithm == "prf":
        surrogate = PRF
    else:
        big_space = len(task.space) > _PRF_DIM_THRESHOLD
        many_runs = task.max_runs > _PRF_RUNS_THRESHOLD
        surrogate = PRF if (big_space or many_runs) else GP

    if task.algorithm == "ea":
        fallback = DE if m == 1 else NSGA2
    else:
        fallback = RANDOM

    if surrogate == GP and m == 1:
        batch_strategy = LOCAL_PENALIZATION
    else:
        batch_strategy = CONSTANT_LIAR_MEDIAN

    return AlgorithmPlan(surrogate, acquisition, fallback, batch_strategy)


class _EAState:
    """Generation-buffered evolutionary algorithm behind ask/tell. It files
    each claimed member under its code-row key and keeps no told results:
    :meth:`advance` reads them from the advisor's told rows and history."""

    def __init__(self, task: TaskSpec, kind: str, rng: np.random.Generator):
        self.kind = kind
        self.rng = rng
        if kind == DE:
            self.pop_size = max(4, min(20, task.max_runs // 2))
        else:
            n = max(4, min(40, task.max_runs // 2))
            self.pop_size = n if n % 2 == 0 else n - 1
        self.parents: Optional[evolution.Population] = None
        # slots keep trial order stable even when tells arrive out of order
        self.queue: list[tuple[int, np.ndarray]] = []
        # (slot, genome) of the suggestion being claimed, which the claim
        # files in members under its code-row key
        self.proposed: Optional[tuple[int, np.ndarray]] = None
        self.members: dict[bytes, tuple[int, np.ndarray]] = {}
        self.num_objectives = task.num_objectives

    def advance(self, told: list, observations: list) -> None:
        """Fold each member's first observation among ``observations`` (in
        tell order, with their code rows ``told``), in slot order, into the
        next trial genomes; a failed member scores the failure sentinel."""
        first: dict[bytes, Observation] = {}
        for row, obs in zip(told, observations):
            first.setdefault(row.tobytes(), obs)
        failed = (_FAILED_SENTINEL,) * self.num_objectives
        rows = [None] * self.pop_size
        for key, (slot, genome) in self.members.items():
            obs = first[key]
            if obs.is_success:
                rows[slot] = (genome, obs.objectives, evolution.total_violation(obs.constraints))
            else:
                rows[slot] = (genome, failed, _FAILED_SENTINEL)
        pop = evolution.Population(*map(np.array, zip(*rows)))
        if self.kind == DE:
            if self.parents is not None:
                pop = evolution.de_select(self.parents, pop)
            genomes = evolution.de_propose(pop, evolution.DE_F, evolution.DE_CR, self.rng)
        else:
            if self.parents is not None:
                pop = evolution.nsga2_select(self.parents, pop)
            genomes = evolution.nsga2_propose(pop, self.rng)
        self.parents = pop
        self.queue = list(enumerate(genomes))
        self.members = {}


class _PooledForest:
    """A forest with the (trees, rows) leaves its ask's candidate pool
    reaches in it, which the ask's pool step sets: ``predict`` walks encoded
    rows, and reads the pool's rows, passed as a zero-width (pool rows, 0)
    array, from those leaves."""

    def __init__(self, forest):
        self.forest, self.leaves = forest, None

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.forest.predict(X) if X.shape[1] else self.forest._moments(self.leaves)


class Advisor:
    """Stateful ask-and-tell suggestion engine for one task.

    Each suggestion passes a phase gate and, once the initial design is
    told, a model-based ask: models (the fit on the told rows, or, while
    suggestions of the constant-liar strategy are pending, models that also
    train on them), then a score (locally penalized around the pending
    points under that strategy), then one acquisition maximization.
    ``last_ask_info`` describes the latest suggestion.
    """

    def __init__(self, task: TaskSpec):
        self.task = task
        self.plan = auto_select(task)
        self._rng = np.random.default_rng(task.seed)
        self._history = History(
            task_id=task.task_id,
            num_objectives=task.num_objectives,
            num_constraints=task.num_constraints,
            ref_point=task.ref_point,
        )
        # code rows by their bytes: every configuration suggested or told, in
        # the order first seen, and the suggested ones not yet told
        self._seen: dict[bytes, np.ndarray] = {}
        self._pending: dict[bytes, np.ndarray] = {}
        # the code row of every observation, in tell order: the training inputs
        self._told: list[np.ndarray] = []
        # (objective models, constraint models) last fit on the told rows, and
        # whether no tell has come since; later fits start from it
        self._models: Optional[tuple[list, list]] = None
        self._models_current = False
        # while they stay current, the candidate pool of the last forest ask:
        # its code rows, the leaves each reaches in every told forest, how
        # it was drawn, and how many seen rows it leaves out
        self._pool: Optional[tuple] = None
        self._refit_count = 0
        self._encoding = ONE_HOT if self.plan.surrogate_kind == GP else INDEX
        # import scipy's normal CDF (and for a GP its optimizer and LAPACK)
        # now, not in the first model-based ask
        if self.plan.surrogate_kind != NONE:
            _load_special()
        if self.plan.surrogate_kind == GP:
            _load_gp_libraries()
        self.last_ask_info: dict = {}

        if task.algorithm == "ea":
            self._ea = _EAState(task, self.plan.fallback, self._rng)
            design = self._initial_design(self._ea.pop_size)
            self._ea.queue = list(enumerate(encode_codes(task.space, design, INDEX)))
        else:
            self._ea = None
            self._init_codes = self._initial_design(task.init_count)
        self._init_served = 0

    # --- queries ---

    def get_history(self) -> History:
        """Immutable snapshot of the trace so far."""
        return self._history.snapshot()

    @property
    def num_told(self) -> int:
        return len(self._history)

    # --- ask ---

    def ask(self) -> Configuration:
        """Produce the next configuration to evaluate and mark it pending."""
        return self._claim(self._produce())

    def ask_batch(self, q: Optional[int] = None) -> list[Configuration]:
        """Produce up to q mutually distinct pending configurations: q asks,
        so each after the first is chosen around the ones before it (see
        ``ask``). Fewer are returned when the space runs out mid-batch;
        ``ExhaustedSpaceError`` is raised only when none could be claimed."""
        if q is None:
            q = self.task.batch_size
        if q < 1:
            raise ValueError("batch size must be >= 1")
        batch: list[Configuration] = []
        for _ in range(q):
            try:
                batch.append(self.ask())
            except ExhaustedSpaceError:
                if not batch:
                    raise
                break
        return batch

    # --- tell ---

    def tell(self, obs: Observation, external: bool = False) -> None:
        """Ingest one observation; surrogates refit lazily at the next ask."""
        (row,) = to_codes(self.task.space, [obs.config])  # validates before any state changes
        key = row.tobytes()
        if key not in self._pending and not external:
            warnings.warn(
                "observation for a configuration this advisor never suggested; "
                "recording it anyway",
                stacklevel=2,
            )
        self._history.record(obs)  # raises on shape mismatch before state changes
        self._told.append(row)
        self._pending.pop(key, None)
        self._seen.setdefault(key, row)
        self._models_current = False
        self._pool = None

    # --- internals ---

    def _claim(self, codes: np.ndarray) -> Configuration:
        """Decode a suggestion's (1, p) codes, validate the configuration and
        mark it pending under its code row."""
        (config,) = from_codes(self.task.space, codes)
        (row,) = to_codes(self.task.space, [config])
        key = row.tobytes()
        self._seen[key] = self._pending[key] = row
        # where a double cannot resolve the grid (see README), the row that
        # decoded to config differs from its key; mark it seen too
        self._seen.setdefault(codes.tobytes(), codes[0])
        if self._ea is not None and self._ea.proposed is not None:
            self._ea.members[key], self._ea.proposed = self._ea.proposed, None
        self.last_ask_info["config"] = config
        return config

    def _initial_design(self, count: int) -> np.ndarray:
        """Codes of the initial design; row 0 takes every parameter default set."""
        space = self.task.space
        if self.task.init_design == "latin_hypercube":
            codes = latin_hypercube(space, count, self._rng)
        else:
            codes = sample_codes(space, count, self._rng)
        defaults = {p.name: p.default for p in space if p.default is not None}
        if defaults:
            (first,) = from_codes(space, codes[:1])
            codes[:1] = to_codes(space, [Configuration({**first.values, **defaults})])
        return codes

    def _random_unseen(self) -> np.ndarray:
        for _ in range(256):
            codes = sample_codes(self.task.space, 1, self._rng)
            if codes.tobytes() not in self._seen:
                return codes
        total = self.task.space.n_configurations()
        if total is not None and total <= 1_000_000:
            for row in all_codes(self.task.space)[self._rng.permutation(total)]:
                if row.tobytes() not in self._seen:
                    return row[None, :]
        raise ExhaustedSpaceError("could not sample an unseen configuration")

    def _produce(self) -> np.ndarray:
        """The current phase's row (evolutionary, initial design or
        model-based), or a random unseen row when that phase yields none."""
        codes = None
        if self._ea is not None:
            codes = self._ea_produce()
        elif self.num_told < self.task.init_count:
            codes = self._next_init_point()
        if codes is None and self.plan.surrogate_kind != NONE:
            with one_blas_thread():
                codes = self._model_based_ask()
        if codes is None:
            self.last_ask_info = {"phase": "random"}
            codes = self._random_unseen()
        return codes

    def _next_init_point(self) -> Optional[np.ndarray]:
        while self._init_served < len(self._init_codes):
            codes = self._init_codes[self._init_served : self._init_served + 1]
            self._init_served += 1
            if codes.tobytes() not in self._seen:
                self.last_ask_info = {"phase": "init"}
                return codes
        return None

    def _encode(self, rows) -> np.ndarray:
        return encode_codes(self.task.space, np.asarray(rows), self._encoding)

    def _fit(self, lies: list) -> tuple[list, list]:
        """One model per objective column, then one per constraint column, on
        the told rows followed by the ``lies`` (pending rows told at the
        median observed values). Either needs 2 told rows. Without lies this
        is the told fit, which counts toward the deep-fit schedule and
        becomes ``_models``."""
        Y, C = self._history.training_targets()
        if Y.shape[0] < 2:
            raise InsufficientDataError("need at least 2 told rows to fit surrogates")
        if lies:
            Y = np.vstack([Y, np.tile(np.median(Y, axis=0), (len(lies), 1))])
            C = np.vstack([C, np.tile(np.median(C, axis=0), (len(lies), 1))])
        else:
            self._refit_count += 1
        X = self._encode(self._told + lies)
        last = self._models or ([None] * Y.shape[1], [None] * C.shape[1])
        models = tuple(
            [self._fit_one(X, t, told, len(lies)) for t, told in zip(T.T, told_models)]
            for T, told_models in zip((Y, C), last)
        )
        if not lies:
            self._models, self._models_current = models, True
        return models

    def _fit_one(self, X: np.ndarray, y: np.ndarray, told, lies: int):
        """A model on (X, y), whose last ``lies`` rows are lies (constant
        liar). A forest: with lies and a ``told`` forest fit since the last
        tell, that forest conditioned on the lies without regrowing; else
        fit afresh, as a stale forest lacks the rows told since. A GP: with
        lies, the ``told`` fit's model conditioned on them at its
        hyperparameters; else fit, warm from ``told``. A GP fit with no
        ``told`` and every 10th refit run the full multi-start search to
        escape hyperparameter local optima (README)."""
        if self.plan.surrogate_kind != GP:
            if told is not None and lies and self._models_current:
                return told._conditioned(X[-lies:], y[-lies:])
            return fit_prf(X, y, rng=self._rng)
        if told is not None and lies:
            return GPModel(X, y, told.lengthscales, told.signal_var, told.noise_var)
        deep = told is None or self._refit_count % 10 == 1
        warm = () if told is None else (told.log_hypers,)
        return fit_gp(X, y, restarts=2 if deep else 0, rng=self._rng, extra_inits=warm)

    def _score_function(self, objective_models: list, constraint_models: list):
        """The score of a model-based ask, built from the history: the
        improvement (EI below the incumbent for one objective; for several,
        EHVI over the boxes left undominated by the feasible points that
        weakly dominate the reference point, tabulated once per ask: no point
        outside the reference dominates one inside, so these boxes are the
        feasible front's)
        times the product of the constraints' probabilities of feasibility.
        With one objective and no feasible point yet, the score is that
        product alone."""
        if self.task.num_objectives > 1:
            ref = self._history.reference_point()
            feasible = np.array([o.objectives for o in self._history.feasible_successes()])
            feasible = feasible.reshape(-1, len(ref))
            inside = np.all(feasible <= ref, axis=1) & np.any(feasible < ref, axis=1)
            tables = ehvi_tables(moo.nondominated_boxes(feasible[inside], ref))

            def improvement(X):
                return ehvi(X, objective_models, tables)

        else:
            best = self._history.incumbent()
            if best is None:
                return lambda X: feasibility_product(constraint_models, X)
            eta = best.objectives[0]

            def improvement(X):
                mu, var = objective_models[0].predict(X)
                return expected_improvement(mu, var, eta)

        if not constraint_models:
            return improvement
        return lambda X: improvement(X) * feasibility_product(constraint_models, X)

    def _model_based_ask(self) -> Optional[np.ndarray]:
        """The acquisition maximizer's row, or None while the told data
        cannot train the surrogates."""
        strategy = self.plan.batch_strategy if self._pending else None
        try:
            if strategy == CONSTANT_LIAR_MEDIAN:
                models = self._fit(list(self._pending.values()))
            else:
                models = self._models if self._models_current else self._fit([])
        except InsufficientDataError:
            return None
        if self.plan.surrogate_kind == PRF:
            models = tuple([_PooledForest(forest) for forest in group] for group in models)
        score_fn = self._score_function(*models)
        if strategy == LOCAL_PENALIZATION:
            score_fn = self._penalized(score_fn, models[0][0])
        multi = self.task.num_objectives > 1
        known = np.array(list(self._seen.values()))
        pool, drawn, info = self._candidates(models, _N_CANDIDATES_MO if multi else _N_CANDIDATES, known)
        starts = 0 if drawn == "enumerated" else _N_LOCAL_STARTS_MO if multi else _N_LOCAL_STARTS
        codes = maximize_acquisition(score_fn, self.task.space, pool, self._encode, known=known, n_local_starts=starts)
        self.last_ask_info = {"phase": "model", "score_fn": score_fn, **info}
        return codes

    def _candidates(self, models: tuple, n_candidates: int, known: np.ndarray):
        """An ask's candidate pool as the (rows, inputs) the search scores,
        how it was drawn (``_candidate_pool``) and, under a forest, where it
        came from and how many rows were walked. A GP's inputs are the
        encoded rows; a forest's, a zero-width array its ``_PooledForest``s
        read from the leaves this step hands them. While the told forests
        stay current the pool and its leaves are kept, and the next ask, a
        conditioned follower sharing their structure, carries them on: the
        rows seen since are dropped and, on a sampled space, two random
        neighbours of each appended, the only rows walked. Every other ask,
        or a follower left with no row, draws the pool afresh."""
        space, forests = self.task.space, models[0] + models[1]
        rows = None
        if self._pool is not None:
            rows, leaves, drawn, seen = self._pool
            new = known[seen:]
            added = np.empty((0, len(space)))
            if drawn == "sampled":
                added = _unseen_rows(_jittered(space, np.vstack([new, new]), self._rng), self._seen)
                added = added[~_rows_in(added, rows)]
            kept = ~_rows_in(rows, new)
            rows = np.vstack([rows[kept], added])
            leaves = [np.hstack([old[:, kept], walk]) for old, walk in zip(leaves, self._walk(forests, added))]
            info = {"pool": "shared", "walked": len(added)}
        if rows is None or not len(rows):
            rows, drawn = _candidate_pool(space, self._rng, n_candidates, known, self._seen)
            if self.plan.surrogate_kind == GP:
                return (rows, self._encode(rows)), drawn, {}
            leaves = self._walk(forests, rows)
            info = {"pool": drawn, "walked": len(rows)}
        if self._models_current:
            self._pool = (rows, leaves, drawn, len(self._seen))
        for forest, walk in zip(forests, leaves):
            forest.leaves = walk
        return (rows, np.empty((len(rows), 0))), drawn, info

    def _walk(self, forests: list, rows: np.ndarray) -> list:
        """The leaves the code ``rows`` reach in each forest."""
        X = self._encode(rows)
        return [pooled.forest._leaves(X) for pooled in forests]

    def _penalized(self, base, model):
        """Local penalization of ``base`` around the pending points."""
        pending = self._encode(list(self._pending.values()))
        lipschitz = estimate_lipschitz(model, pending.shape[1], self._rng)
        observed = self._history.success_objectives()
        best_value = float(observed.min()) if observed is not None else 0.0

        def score(X):
            return local_penalization(base(X), X, pending, model, lipschitz, best_value)

        return score

    # --- evolutionary mode ---

    def _ea_produce(self) -> Optional[np.ndarray]:
        """The next genome's row, or None while a generation is in flight
        (``_produce`` bridges it with a random row outside the generation)."""
        ea = self._ea
        # every slot claimed and every member told: the generation is complete
        if len(ea.members) == ea.pop_size and ea.members.keys().isdisjoint(self._pending):
            ea.advance(self._told, self._history.observations)
        if not ea.queue:
            return None
        slot_index, genome = ea.queue.pop(0)
        codes = decode_codes(self.task.space, genome[None, :])
        if codes.tobytes() in self._seen:
            codes = self._random_unseen()
            genome = encode_codes(self.task.space, codes, INDEX)[0]
        ea.proposed = (slot_index, genome)
        self.last_ask_info = {"phase": "ea"}
        return codes
