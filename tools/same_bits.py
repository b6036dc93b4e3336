"""Same-bits check: one history digest per suggestion path.

Runs ``bbo.optimizer.run`` with a frozen clock over a fixed list of tasks
that between them reach every way the advisor produces a suggestion: the
Latin hypercube and random initial designs, random search (also until a
12-configuration space is exhausted), differential evolution (also on that
space, so the evolutionary bridge meets told points), NSGA-II with crashing
evaluations in batches of three, GP + EIC under local penalization, GP +
EHVI_C under constant liar, and PRF batches on a mixed space. For each task
it prints the task name and the first 16 hex digits of the sha256 of the
run's ``export_json`` text.

Two source trees whose advisors suggest the same configurations print the
same lines, so a refactor that claims identical suggestions can be checked
by running this script once per tree:

    PYTHONPATH=src python tools/same_bits.py
    PYTHONPATH=/path/to/other/checkout/src python tools/same_bits.py

Only names that have been stable across bbo's history are used, so the
script also runs against older trees. It takes about half a minute on two
cores.
"""

from __future__ import annotations

import hashlib
import math

from bbo import TaskSpec, run
from bbo.bench import branin_evaluate, branin_problem, constr_evaluate, constr_problem
from bbo.report import export_json
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


def tasks():
    """(name, task, objective, parallelism) for every suggestion path."""
    branin = branin_problem().space
    constr = constr_problem().space
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
        ("prf-mixed-q3", TaskSpec(mixed_space(), max_runs=30, algorithm="prf", seed=20), mixed, 3),
    ]


def main() -> None:
    for name, task, objective, parallelism in tasks():
        result = run(task, objective, parallelism=parallelism, clock=lambda: 0.0)
        digest = hashlib.sha256(export_json(result.history).encode("utf-8")).hexdigest()
        print(f"{name:26s} {digest[:16]} ({len(result.history)} trials, {result.stop_reason})")


if __name__ == "__main__":
    main()
