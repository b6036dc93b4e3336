"""Same-bits check: one history digest per suggestion path.

Runs ``bbo.optimizer.run`` with a frozen clock over a fixed list of tasks
that between them reach every way the advisor produces a suggestion: the
Latin hypercube and random initial designs, random search (also until a
12-configuration space is exhausted), differential evolution (also on that
space, so the evolutionary bridge meets told points), NSGA-II with crashing
evaluations in batches of three, GP + EIC under local penalization, GP +
EHVI_C under constant liar, GP + EHVI on three objectives, PRF batches on a
mixed space, NSGA-II on CONSTR into its third generation, so that its
survivor selection runs, GP + EHVI on four objectives, whose box
decomposition slices twice before its two-objective base, PRF until the
12-configuration space is exhausted (``prf-grid12-exhaust``, so the
acquisition search scores the enumerated pool of the unseen
configurations), and PRF on six ints (``prf-ints6``, no float, so every
sampled candidate pool holds repeated rows that the search drops). For each
task it prints the task name and the first 16 hex digits of the sha256 of
the run's ``export_json`` text. An ``async-workers`` line digests GP on
Branin and PRF on the mixed space driven through ``Advisor`` as three
asynchronous workers would: three suggestions stay in flight and the
oldest is told first, so every ask but the initial design's is made while
others are pending. An ``async-ehvi``
line digests GP + EHVI on CONSTR's two objectives, without its constraints,
driven the same way: no ask is made with nothing pending, so no fit on the
told rows alone exists and every constant-liar ask fits told and pending
rows afresh. An ``hv`` line
digests the hypervolume series ``report.default_analyses`` computes for the
two bi-objective task histories, and an ``hv-m3`` line the one for the
three-objective history, which takes the box-decomposition hypervolume. A
final line, ``importance``, digests the parameter importances it computes
(a random forest fitted and queried for Shapley values) for three of the
task histories, so a change to the forest or the analyses behind the
report shows up even when no suggestion moves.

The ``hv`` line differs by design between trees whose two-objective
hypervolume is a sweep and trees that take it from the box decomposition,
as three or more objectives do; its values agree to about 1e-14.

The ``gp-ehvic-cl-q2``, ``gp-ehvi-dtlz2-m3`` and ``hv`` lines differ by
design between trees whose EHVI draws Monte Carlo samples from the
advisor's random stream and trees that compute it in closed form.

The ``importance`` line differs by design between trees whose Shapley
estimator draws one permutation and one background row per sample and
trees that draw each explicand's permutations as one matrix with a
stratified background; compare it only between trees that draw alike.

Every line with a GP in it (the ``gp-*``, ``async-*``, ``hv``, ``hv-m3``
and ``importance`` lines) differs by design between trees whose GP
hyperparameter fits stop on different rules or warm-start constant-liar
refits differently; the random, DE, NSGA-II and PRF lines do not.

The ``gp-ehvic-cl-q2`` and ``hv`` lines differ by design between trees
whose constant-liar GP followers refit their hyperparameters and trees
whose followers condition the last fit on the told rows at its
hyperparameters; the ``async-ehvi`` line takes neither path and stays.

Two source trees whose advisors suggest the same configurations print the
same lines, so a refactor that claims identical suggestions can be checked
by running this script once per tree:

    PYTHONPATH=src python tools/same_bits.py
    PYTHONPATH=/path/to/other/checkout/src python tools/same_bits.py

Only names that have been stable across bbo's history are used, so the
script also runs against older trees. It takes about ten seconds on two
cores.
"""

from __future__ import annotations

import hashlib
import math

from bbo import Advisor, Observation, TaskSpec, run
from bbo.bench import branin_evaluate, branin_problem, constr_evaluate, constr_problem
from bbo.report import default_analyses, export_json
from bbo.space import ParameterSpec, SearchSpace


def grid12_space() -> SearchSpace:
    return SearchSpace(
        [
            ParameterSpec("a", "int", low=0, high=2),
            ParameterSpec("c", "categorical", choices=("p", "q", "r", "s")),
        ]
    )


def grid12(config):
    return float((config["a"] - 1) ** 2 + 0.5 * "pqrs".index(config["c"]))


def ints6_space() -> SearchSpace:
    return SearchSpace([ParameterSpec(f"i{k}", "int", low=0, high=9) for k in range(6)])


def ints6(config):
    return float(sum((config[f"i{k}"] - k) ** 2 for k in range(6)))


def mixed_space() -> SearchSpace:
    return SearchSpace(
        [
            ParameterSpec("x", "float", low=0.0, high=1.0),
            ParameterSpec("k", "int", low=1, high=1000, log_scale=True),
            ParameterSpec("o", "ordinal", levels=(1, 2, 4)),
            ParameterSpec("c", "categorical", choices=("a", "b", "c")),
        ]
    )


def mixed(config):
    penalty = {"a": 0.3, "b": 0.0, "c": 0.6}[config["c"]]
    return (config["x"] - 0.3) ** 2 + abs(math.log10(config["k"]) - 1.0) + 0.1 * config["o"] + penalty


def branin_capped(config):
    """Branin subject to x1 + x2 <= 8."""
    objectives, _ = branin_evaluate(config)
    return objectives, [config["x1"] + config["x2"] - 8.0]


def constr_crashing(config):
    """CONSTR, raising on about one configuration in seven (a pure function
    of the configuration, so threaded batches stay deterministic)."""
    if int(config["x1"] * 1e6) % 7 == 0:
        raise RuntimeError("simulated crash")
    return constr_evaluate(config)


def dtlz2(config, m):
    """m-objective DTLZ2 (Deb et al. 2005): the first m - 1 parameters place
    a point on the unit sphere's positive orthant, the rest scale it out by
    1 + g."""
    x = list(config.values.values())
    g = sum((v - 0.5) ** 2 for v in x[m - 1 :])
    angles = [v * math.pi / 2 for v in x[: m - 1]]
    values = []
    for i in range(m):
        value = 1 + g
        for angle in angles[: m - 1 - i]:
            value *= math.cos(angle)
        if i:
            value *= math.sin(angles[m - 1 - i])
        values.append(value)
    return values


def tasks():
    """(name, task, objective, parallelism) for every suggestion path."""
    branin = branin_problem().space
    constr = constr_problem().space
    floats = [ParameterSpec(f"x{i}", "float", low=0.0, high=1.0) for i in range(5)]
    return [
        ("random-branin", TaskSpec(branin, max_runs=30, algorithm="random", seed=11), branin_evaluate, 1),
        ("random-grid12-exhaust", TaskSpec(grid12_space(), max_runs=20, algorithm="random", seed=12), grid12, 1),
        ("gp-ei-lhs-init", TaskSpec(branin, max_runs=20, algorithm="gp", seed=13), branin_evaluate, 1),
        (
            "gp-ei-random-init",
            TaskSpec(branin, max_runs=20, algorithm="gp", init_design="random", seed=14),
            branin_evaluate,
            1,
        ),
        ("de-branin", TaskSpec(branin, max_runs=80, algorithm="ea", seed=15), branin_evaluate, 1),
        ("de-grid12-exhaust", TaskSpec(grid12_space(), max_runs=30, algorithm="ea", seed=16), grid12, 1),
        (
            "nsga2-constr-crashing-q3",
            TaskSpec(constr, num_objectives=2, num_constraints=2, max_runs=60, algorithm="ea", seed=17),
            constr_crashing,
            3,
        ),
        (
            "gp-eic-lp-q3",
            TaskSpec(branin, num_constraints=1, max_runs=24, algorithm="gp", seed=18),
            branin_capped,
            3,
        ),
        (
            "gp-ehvic-cl-q2",
            TaskSpec(
                constr,
                num_objectives=2,
                num_constraints=2,
                max_runs=16,
                algorithm="gp",
                ref_point=(10.0, 10.0),
                seed=19,
            ),
            constr_evaluate,
            2,
        ),
        (
            "gp-ehvi-dtlz2-m3",
            TaskSpec(SearchSpace(floats[:4]), num_objectives=3, max_runs=20, algorithm="gp", seed=23),
            lambda c: dtlz2(c, 3),
            1,
        ),
        ("prf-mixed-q3", TaskSpec(mixed_space(), max_runs=30, algorithm="prf", seed=20), mixed, 3),
        (
            "nsga2-constr-3gen",
            TaskSpec(constr, num_objectives=2, num_constraints=2, max_runs=90, algorithm="ea", seed=24),
            constr_evaluate,
            1,
        ),
        (
            "gp-ehvi-dtlz2-m4",
            TaskSpec(SearchSpace(floats), num_objectives=4, max_runs=16, algorithm="gp", seed=26),
            lambda c: dtlz2(c, 4),
            1,
        ),
        ("prf-grid12-exhaust", TaskSpec(grid12_space(), max_runs=20, algorithm="prf", seed=27), grid12, 1),
        ("prf-ints6", TaskSpec(ints6_space(), max_runs=30, algorithm="prf", seed=28), ints6, 1),
    ]


def async_workers(task, objective, in_flight=3):
    """The history of an advisor asked until in_flight suggestions are
    pending, then told the oldest of them, to the task's budget."""
    advisor = Advisor(task)
    pending = []
    while advisor.num_told < task.max_runs:
        while len(pending) < in_flight and advisor.num_told + len(pending) < task.max_runs:
            pending.append(advisor.ask())
        config = pending.pop(0)
        advisor.tell(Observation(config=config, objectives=objective(config)))
    return advisor.get_history()


IMPORTANCE_TASKS = ("gp-ei-lhs-init", "nsga2-constr-crashing-q3", "prf-mixed-q3")
HV_TASKS = ("nsga2-constr-crashing-q3", "gp-ehvic-cl-q2")
HV_M3_TASK = "gp-ehvi-dtlz2-m3"


def main() -> None:
    importance = []
    hv = []
    hv_m3 = []
    for name, task, objective, parallelism in tasks():
        result = run(task, objective, parallelism=parallelism, clock=lambda: 0.0)
        digest = hashlib.sha256(export_json(result.history).encode("utf-8")).hexdigest()
        print(f"{name:26s} {digest[:16]} ({len(result.history)} trials, {result.stop_reason})")
        if name in IMPORTANCE_TASKS or name in HV_TASKS or name == HV_M3_TASK:
            analyses = default_analyses(result.history)
        if name in IMPORTANCE_TASKS:
            values = analyses.get("importance", {})
            importance.append({key: float(value) for key, value in values.items()})
        if name in HV_TASKS:
            hv.append([(int(i), float(value)) for i, value in analyses.get("hv", [])])
        if name == HV_M3_TASK:
            hv_m3 = [(int(i), float(value)) for i, value in analyses.get("hv", [])]
    histories = [
        async_workers(
            TaskSpec(branin_problem().space, max_runs=20, algorithm="gp", seed=21),
            lambda c: branin_evaluate(c)[0],
        ),
        async_workers(
            TaskSpec(mixed_space(), max_runs=24, algorithm="prf", seed=22), lambda c: [mixed(c)]
        ),
    ]
    text = "".join(export_json(h) for h in histories)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    trials = "+".join(str(len(h)) for h in histories)
    print(f"{'async-workers':26s} {digest[:16]} ({trials} trials, max_runs)")
    history = async_workers(
        TaskSpec(
            constr_problem().space,
            num_objectives=2,
            max_runs=20,
            algorithm="gp",
            ref_point=(10.0, 10.0),
            seed=25,
        ),
        lambda c: constr_evaluate(c)[0],
    )
    digest = hashlib.sha256(export_json(history).encode("utf-8")).hexdigest()
    print(f"{'async-ehvi':26s} {digest[:16]} ({len(history)} trials, max_runs)")
    digest = hashlib.sha256(repr(hv).encode("utf-8")).hexdigest()
    counts = "+".join(str(len(series)) for series in hv)
    print(f"{'hv':26s} {digest[:16]} ({counts} points)")
    digest = hashlib.sha256(repr(hv_m3).encode("utf-8")).hexdigest()
    print(f"{'hv-m3':26s} {digest[:16]} ({len(hv_m3)} points)")
    digest = hashlib.sha256(repr(importance).encode("utf-8")).hexdigest()
    counts = "+".join(str(len(values)) for values in importance)
    print(f"{'importance':26s} {digest[:16]} ({counts} parameters)")


if __name__ == "__main__":
    main()
