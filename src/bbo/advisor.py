"""The ask-and-tell engine.

An :class:`Advisor` owns the history for one task, picks algorithms from the
task's characteristics, produces suggestions (single and batch), and ingests
observations. The selection rule lives in :func:`auto_select` so every
automatic decision is auditable in one place.

Every suggestion, including each follower of a batch, takes one path: a
phase gate (evolutionary, initial design, or random when there is no
surrogate) and otherwise one model-based ask, which picks its models, builds
a score function over them and maximizes it. Each of these yields a code row
(see :mod:`bbo.space`), and one claim step decodes it into the returned
configuration, validates it, and records it under the bytes of its code row.
That key is a configuration's one identity: every path skips the rows the
advisor has suggested or been told, and ``tell`` matches pending rows by it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import evolution
from .acquisition import (
    AcquisitionContext,
    ehvi,
    estimate_lipschitz,
    expected_improvement,
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
from .surrogate import fit_gp, fit_prf, one_blas_thread

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
# because every candidate costs a Monte Carlo EHVI evaluation
_N_CANDIDATES = 5000
_N_LOCAL_STARTS = 10
_N_CANDIDATES_MO = 600
_N_LOCAL_STARTS_MO = 5
_EHVI_MC_SAMPLES = 256

_FAILED_SENTINEL = 1e18


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
        if self.num_objectives < 1:
            raise SetupError("num_objectives must be >= 1")
        if self.num_constraints < 0:
            raise SetupError("num_constraints must be >= 0")
        if self.max_runs < 1:
            raise SetupError("max_runs must be >= 1")
        if self.batch_size < 1:
            raise SetupError("batch_size must be >= 1")
        if self.algorithm not in _ALGORITHMS:
            raise SetupError(f"unknown algorithm {self.algorithm!r}; expected one of {_ALGORITHMS}")
        if self.init_design not in _INIT_DESIGNS:
            raise SetupError(f"unknown init_design {self.init_design!r}")
        if self.init_count is None:
            default = max(2 * self.space.dimensionality, 8)
            self.init_count = max(1, min(default, self.max_runs // 3))
        if self.init_count < 1:
            raise SetupError("init_count must be >= 1")
        if self.ref_point is not None and len(self.ref_point) != self.num_objectives:
            raise SetupError("ref_point length must equal num_objectives")


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
        big_space = task.space.dimensionality > _PRF_DIM_THRESHOLD
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
    """Generation-buffered evolutionary algorithm behind ask/tell."""

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
        # files in open under its code-row key until its observation arrives
        self.proposed: Optional[tuple[int, np.ndarray]] = None
        self.open: dict[bytes, tuple[int, np.ndarray]] = {}
        # slot -> (genome, objectives, total violation)
        self.collected: dict[int, tuple] = {}
        self.num_objectives = task.num_objectives

    def receive(self, key: bytes, obs: Observation) -> None:
        entry = self.open.pop(key, None)
        if entry is None:
            return
        slot, genome = entry
        if obs.is_success:
            violation = evolution.total_violation(obs.constraints)
            self.collected[slot] = (genome, obs.objectives, violation)
        else:
            failed = (_FAILED_SENTINEL,) * self.num_objectives
            self.collected[slot] = (genome, failed, _FAILED_SENTINEL)

    def generation_complete(self) -> bool:
        return not self.queue and not self.open and len(self.collected) == self.pop_size

    def advance(self) -> None:
        """Fold the collected evaluations into the next set of trial genomes."""
        columns = zip(*(self.collected.pop(i) for i in range(self.pop_size)))
        # the initial design is generation 0; selection numbers the rest
        pop = evolution.Population(*map(np.array, columns), generation=0)
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


class Advisor:
    """Stateful ask-and-tell suggestion engine for one task.

    Each suggestion passes a phase gate and, once the initial design is
    told, a model-based ask: models (the cached refit, or a constant-liar
    refit for batch followers of that strategy), then a score (locally
    penalized around pending points for followers of that strategy), then
    one acquisition maximization. ``last_ask_info`` describes the latest
    suggestion.
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
        self._stale = True
        self._objective_models: list = []
        self._constraint_models: list = []
        self._warm_hypers: dict = {}
        self._refit_count = 0
        self._encoding = ONE_HOT if self.plan.surrogate_kind == GP else INDEX
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

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    # --- ask ---

    def ask(self) -> Configuration:
        """Produce the next configuration to evaluate and mark it pending."""
        return self._claim(self._produce())

    def ask_batch(self, q: Optional[int] = None) -> list[Configuration]:
        """Produce q mutually distinct pending configurations.

        The first point is a plain ask; later points are chosen under local
        penalization (GP, single objective) or a constant-liar refit at the
        median observed values.
        """
        if q is None:
            q = self.task.batch_size
        if q < 1:
            raise ValueError("batch size must be >= 1")
        batch = [self.ask()]
        for _ in range(q - 1):
            batch.append(self._claim(self._produce(follower=True)))
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
        self._pending.pop(key, None)
        self._seen.setdefault(key, row)
        self._stale = True
        if self._ea is not None:
            self._ea.receive(key, obs)

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
            self._ea.open[key], self._ea.proposed = self._ea.proposed, None
        self.last_ask_info["config"] = config
        return config

    def _initial_design(self, count: int) -> np.ndarray:
        if self.task.init_design == "latin_hypercube":
            return latin_hypercube(self.task.space, count, self._rng)
        return sample_codes(self.task.space, count, self._rng)

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

    def _produce(self, follower: bool = False) -> np.ndarray:
        if self._ea is not None:
            return self._ea_produce()
        if self.num_told < self.task.init_count:
            codes = self._next_init_point()
            if codes is not None:
                self.last_ask_info = {"phase": "init"}
                return codes
        if self.plan.surrogate_kind == NONE:
            self.last_ask_info = {"phase": "random"}
            return self._random_unseen()
        with one_blas_thread():
            return self._model_based_ask(follower)

    def _next_init_point(self) -> Optional[np.ndarray]:
        while self._init_served < len(self._init_codes):
            codes = self._init_codes[self._init_served : self._init_served + 1]
            self._init_served += 1
            if codes.tobytes() not in self._seen:
                return codes
        if self.num_told == 0 or not self._history.successes():
            # no data to model yet; keep the design going with random points
            return self._random_unseen()
        return None

    def _refit(self) -> None:
        X, Y, C = self._history.training_targets(self.task.space, self._encoding)
        if X.shape[0] < 2:
            raise InsufficientDataError("need at least 2 rows to fit surrogates")
        self._refit_count += 1
        self._objective_models, self._constraint_models = self._fit_models(X, Y, C, warm=True)
        self._stale = False

    def _constant_liar_models(self) -> tuple[list, list]:
        """Models refit with every pending point told at the median observed values."""
        X, Y, C = self._history.training_targets(self.task.space, self._encoding)
        lies = len(self._pending)
        pending = np.array(list(self._pending.values()))
        X = np.vstack([X, encode_codes(self.task.space, pending, self._encoding)])
        Y = np.vstack([Y, np.tile(np.median(Y, axis=0), (lies, 1))])
        C = np.vstack([C, np.tile(np.median(C, axis=0), (lies, 1))])
        return self._fit_models(X, Y, C, warm=False)

    def _fit_models(self, X: np.ndarray, Y: np.ndarray, C: np.ndarray, warm: bool):
        """One model per objective column, then one per constraint column."""
        objective_models = [
            self._fit_one(X, Y[:, j], warm_key=("obj", j) if warm else None)
            for j in range(Y.shape[1])
        ]
        constraint_models = [
            self._fit_one(X, C[:, j], warm_key=("con", j) if warm else None)
            for j in range(C.shape[1])
        ]
        return objective_models, constraint_models

    def _fit_one(self, X: np.ndarray, y: np.ndarray, warm_key=None):
        if self.plan.surrogate_kind == GP:
            warm = self._warm_hypers.get(warm_key) if warm_key is not None else None
            # a warm refit runs one L-BFGS start, from the previous fit's
            # hyperparameters: a median of 14-16 likelihood steps on the
            # benchmark's GP workloads at seed 701, against 54-60 with the
            # default start beside it. The first fit and every 10th refit run
            # the full multi-start search to escape hyperparameter local optima.
            deep = warm is None or self._refit_count % 10 == 1
            model = fit_gp(
                X,
                y,
                restarts=2 if deep else 0,
                rng=self._rng,
                extra_inits=(warm,) if warm is not None else (),
            )
            if warm_key is not None:
                self._warm_hypers[warm_key] = model.log_hypers
            return model
        return fit_prf(X, y, rng=self._rng)

    def _build_context(self, objective_models: list, constraint_models: list) -> AcquisitionContext:
        m = self.task.num_objectives
        eta = None
        front = None
        ref = None
        if m == 1:
            best = self._history.incumbent()
            eta = float(best.objectives[0]) if best is not None else None
        else:
            ref = (
                np.asarray(self.task.ref_point, dtype=float)
                if self.task.ref_point is not None
                else self._history.default_ref_point()
            )
            pareto = self._history.pareto_front()
            if pareto:
                pts = np.array([o.objectives for o in pareto])
                inside = np.all(pts <= ref, axis=1) & np.any(pts < ref, axis=1)
                pts = pts[inside]
                front = pts if pts.shape[0] else None
        return AcquisitionContext(
            objective_models=objective_models,
            constraint_models=constraint_models,
            eta=eta,
            front=front,
            ref_point=ref,
        )

    def _score_function(self, ctx: AcquisitionContext):
        """The improvement (EI for one objective, EHVI for several) times the
        product of the constraints' probabilities of feasibility. With one
        objective and no feasible point yet, the improvement is 1, so the
        score is that product alone."""
        if self.task.num_objectives > 1:
            # freeze the Monte Carlo seed for this ask so every batch of
            # candidates is scored with common random numbers
            mc_seed = int(self._rng.integers(2**63))

            def improvement(X):
                return ehvi(X, ctx, _EHVI_MC_SAMPLES, np.random.default_rng(mc_seed))

        elif ctx.eta is not None:

            def improvement(X):
                mu, var = ctx.objective_models[0].predict(X)
                return expected_improvement(mu, var, ctx.eta)

        else:
            return ctx.feasibility_product
        if not ctx.constraint_models:
            return improvement
        return lambda X: improvement(X) * ctx.feasibility_product(X)

    def _inner_budgets(self) -> tuple[int, int]:
        if self.task.num_objectives > 1:
            return _N_CANDIDATES_MO, _N_LOCAL_STARTS_MO
        return _N_CANDIDATES, _N_LOCAL_STARTS

    def _model_based_ask(self, follower: bool) -> np.ndarray:
        constant_liar = follower and self.plan.batch_strategy == CONSTANT_LIAR_MEDIAN
        try:
            if constant_liar:
                models = self._constant_liar_models()
            else:
                if self._stale:
                    self._refit()
                models = (self._objective_models, self._constraint_models)
        except InsufficientDataError:
            self.last_ask_info = {"phase": "random"}
            return self._random_unseen()
        ctx = self._build_context(*models)
        score_fn = self._score_function(ctx)
        if follower and not constant_liar:
            score_fn = self._penalized(score_fn, ctx.objective_models[0])
        n_candidates, n_local = self._inner_budgets()
        codes = maximize_acquisition(
            score_fn,
            self.task.space,
            self._rng,
            n_candidates=n_candidates,
            n_local_starts=n_local,
            encoding=self._encoding,
            known=np.array(list(self._seen.values())),
        )
        self.last_ask_info = {"phase": "model", "score_fn": score_fn, "context": ctx}
        return codes

    def _penalized(self, base, model):
        """Local penalization of ``base`` around the pending points."""
        pending = np.array(list(self._pending.values()))
        pending = encode_codes(self.task.space, pending, self._encoding)
        lipschitz = estimate_lipschitz(
            model, self.task.space.encoded_width(self._encoding), self._rng
        )
        observed = self._history.success_objectives()
        best_value = float(observed.min()) if observed is not None else 0.0

        def score(X):
            return local_penalization(base(X), X, pending, model, lipschitz, best_value)

        return score

    # --- evolutionary mode ---

    def _ea_produce(self) -> np.ndarray:
        ea = self._ea
        if ea.generation_complete():
            ea.advance()
        if not ea.queue:
            # generation still in flight; bridge with a random unseen config
            self.last_ask_info = {"phase": "random"}
            return self._random_unseen()
        slot_index, genome = ea.queue.pop(0)
        codes = decode_codes(self.task.space, genome[None, :], INDEX)
        if codes.tobytes() in self._seen:
            codes = self._random_unseen()
            genome = encode_codes(self.task.space, codes, INDEX)[0]
        ea.proposed = (slot_index, genome)
        self.last_ask_info = {"phase": "ea"}
        return codes
