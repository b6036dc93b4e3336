"""One workload of the bbo overhead benchmark, run in a fresh Python process.

    python3 perfbench/workload.py setup WORKLOAD --seed N
    python3 perfbench/workload.py loop WORKLOAD --seed N --seconds S [--repeats R] [--spans FILE]

Run from the root of a bbo checkout; bbo is imported from ``src/`` there.
``setup`` times importing bbo and building the search space, task and
Advisor (initial design included). ``loop`` runs the closed ask / evaluate
/ tell loop to the trial budget, then the report a ``bbo run`` writes, and
repeats both with the same seed, each time with a fresh Advisor: as many
times as fit in S seconds (at least ``MIN_REPEATS``), or exactly R times.
With ``--spans`` the repeats are traced and the spans written to FILE. Both
print one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


# --- workloads; objectives are written here so evaluation is instant ---

BRANIN_OPTIMUM = 0.39788735772973816


def branin(config):
    x1, x2 = float(config["x1"]), float(config["x2"])
    b, c, t = 5.1 / (4.0 * math.pi**2), 5.0 / math.pi, 1.0 / (8.0 * math.pi)
    value = (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * math.cos(x1) + 10.0
    return [value], []


def branin_space(P):
    return [P("x1", "float", low=-5.0, high=10.0), P("x2", "float", low=0.0, high=15.0)]


def constr(config):
    """CONSTR: minimize (x1, (1 + x2) / x1) s.t. x2 + 9 x1 >= 6 and 9 x1 - x2 >= 1."""
    x1, x2 = float(config["x1"]), float(config["x2"])
    return [x1, (1.0 + x2) / x1], [6.0 - (x2 + 9.0 * x1), 1.0 - (9.0 * x1 - x2)]


def constr_space(P):
    return [P("x1", "float", low=0.1, high=1.0), P("x2", "float", low=0.0, high=5.0)]


MIXED12_TARGET = {"u0": -1.5, "u1": 0.5, "u2": 2.0, "u3": -3.0, "u4": 4.0}
MIXED12_LEVELS = (1, 2, 4, 8, 16, 32)


def mixed12(config):
    """Separable sum of per-parameter penalties, 0 exactly at the optimum noted below."""
    value = sum(((config[k] - v) / 10.0) ** 2 for k, v in MIXED12_TARGET.items())
    value += (math.log10(config["lr"]) + 2.0) ** 2 / 16.0  # lr = 1e-2
    value += ((config["depth"] - 7) / 20.0) ** 2
    value += (math.log10(config["width"]) - 2.0) ** 2 / 9.0  # width = 100
    value += (MIXED12_LEVELS.index(config["batch"]) - 3) ** 2 / 25.0  # batch = 8
    value += 0.0 if config["optimizer"] == "adam" else 0.25
    value += {"relu": 0.0, "gelu": 0.1, "tanh": 0.3, "sigmoid": 0.5}[config["activation"]]
    value += (config["dropout"] - 0.1) ** 2
    return [value], []


def mixed12_space(P):
    return [P(k, "float", low=-5.0, high=5.0) for k in MIXED12_TARGET] + [
        P("lr", "float", low=1e-4, high=1.0, log_scale=True),
        P("depth", "int", low=1, high=30),
        P("width", "int", low=1, high=1000, log_scale=True),
        P("batch", "ordinal", levels=MIXED12_LEVELS),
        P("optimizer", "categorical", choices=("adam", "sgd", "rmsprop")),
        P("activation", "categorical", choices=("relu", "gelu", "tanh", "sigmoid")),
        P("dropout", "float", low=0.0, high=0.5),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    parameters: Callable  # ParameterSpec class -> list of parameters
    evaluate: Callable  # Configuration -> (objectives, constraints)
    max_runs: int
    batch: int = 1  # 1: ask(); q > 1: ask_batch(q)
    num_objectives: int = 1
    num_constraints: int = 0
    ref_point: tuple | None = None
    optimum: float = 0.0  # single-objective workloads

    def task(self, seed: int):
        from bbo import ParameterSpec, SearchSpace, TaskSpec

        return TaskSpec(
            space=SearchSpace(self.parameters(ParameterSpec)),
            num_objectives=self.num_objectives,
            num_constraints=self.num_constraints,
            max_runs=self.max_runs,
            batch_size=self.batch,
            algorithm="auto",
            ref_point=self.ref_point,
            seed=seed,
            task_id=f"{self.name}-seed{seed}",
        )

    def regret(self, history) -> float:
        """Final incumbent minus the optimum; for CONSTR the hypervolume difference."""
        if self.num_objectives == 1:
            return history.incumbent().objectives[0] - self.optimum
        from bbo import bench, moo

        ref, optimal_hv = bench.compute_constr_reference()
        front = [o.objectives for o in history.pareto_front()]
        return moo.hypervolume_difference(front, ref, optimal_hv)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("branin-gp", branin_space, branin, max_runs=40, optimum=BRANIN_OPTIMUM),
        Workload(
            "constr-ehvi",
            constr_space,
            constr,
            max_runs=40,
            num_objectives=2,
            num_constraints=2,
            ref_point=(10.0, 10.0),
        ),
        Workload("mixed12-prf-q4", mixed12_space, mixed12, max_runs=24, batch=4),
    )
}


# --- machine speed ---

# A shared host slows the benchmark's cores by up to about 1.7 times, in
# spells that last from a second to many minutes (NOTES.md, Noise). So a
# fixed pure-Python kernel, the probe, is timed at every boundary between
# timed sections, and each section's time is scaled to the speed at which
# the probe takes REFERENCE_PROBE_S: its least time on an uncontended core of
# the 2-vCPU machine the benchmark was tuned on.
REFERENCE_PROBE_S = 0.00035
PROBE_RUNS = 3
PROBE_WINDOW = 2  # boundaries on each side of a loop step whose probes set its speed


def probe() -> float:
    """Median time of PROBE_RUNS runs of a fixed kernel of dict, tuple and float work."""
    times = []
    for _ in range(PROBE_RUNS):
        t0 = time.perf_counter()
        table = {}
        for i in range(1200):
            key = (i % 61, i & 7)
            table[key] = table.get(key, 0.0) + i * 0.5
        sorted(v * 1.5 for v in table.values() if v > 3.0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, probes: list) -> float:
    """seconds at the reference speed, from the median of the probe times taken around it."""
    return seconds * REFERENCE_PROBE_S / statistics.median(probes)


def step_probes(probes: list, i: int) -> list:
    """The probes at the PROBE_WINDOW step boundaries on each side of step i."""
    return probes[max(0, i + 1 - PROBE_WINDOW) : i + 1 + PROBE_WINDOW]


# --- one closed loop ---

# Same-seed repeats do identical work (their history digests must agree), so
# each step is measured once per repeat, and the repeats spread those
# measurements over the run.
MIN_REPEATS = 3
REPORT_REPEATS = 5  # per loop repeat; the report is a pure function of the history


def run_loop(wl: Workload, seed: int, tracer=None) -> dict:
    """Ask, evaluate, tell to the budget; then the report; returns timings and checks."""
    from bbo import Advisor, Observation
    from bbo import report

    task = wl.task(seed)
    advisor = Advisor(task)
    if tracer is not None:
        tracer.reset()
    call = tracer.call if tracer is not None else (lambda _name, fn, *a: fn(*a))
    calls = []  # (batch, None) or (None, error)
    steps = []  # (model phase, ask seconds, ask + evaluate + tell seconds) per call
    probes = [probe()]  # at every step boundary
    model_suggestions = model_maximize = 0

    while advisor.num_told < task.max_runs:
        q = min(wl.batch, task.max_runs - advisor.num_told)
        model_phase = advisor.num_told >= task.init_count
        maximize_before = tracer.calls["acquisition.maximize"] if tracer else 0
        t0 = time.perf_counter()
        try:
            if wl.batch == 1:
                batch = [call("advisor.ask", advisor.ask)]
            else:
                batch = call("advisor.ask_batch", advisor.ask_batch, q)
        except Exception as exc:  # counted as a failed call; the budget check then fails
            calls.append((None, repr(exc)))
            break
        t1 = time.perf_counter()
        calls.append((batch, None))
        if model_phase and tracer:
            model_suggestions += len(batch)
            model_maximize += tracer.calls["acquisition.maximize"] - maximize_before
        for config in batch:
            objectives, constraints = wl.evaluate(config)
            call("advisor.tell", advisor.tell, Observation(config, objectives, constraints))
        steps.append((model_phase, t1 - t0, time.perf_counter() - t0))
        probes.append(probe())
    loop_layers = tracer.snapshot() if tracer else None

    history = advisor.get_history()
    reports, report_probes = [], [probe()]
    for _ in range(1 if tracer else REPORT_REPEATS):
        reports.append(write_report(history, call))
        report_probes.append(probe())
    text, page, _ = reports[0]
    checks = {
        "budget_reached": len(history) == task.max_runs,
        "json_round_trip": report.export_json(report.import_json(text)) == text,
        "html_non_empty": len(page) > 0,
    }
    return {
        "loop_s": sum(step[2] for step in steps),
        "steps": steps,
        "probes": probes,
        "report_s": [seconds for _, _, seconds in reports],
        "report_probes": report_probes,
        "history": history,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "calls": len(calls),
        "failed_calls": check_calls(task.space, calls),
        "checks": checks,
        "model_suggestions": model_suggestions,
        "model_maximize": model_maximize,
        "loop_layers": loop_layers,
        "layers": tracer.snapshot() if tracer else None,
    }


def write_report(history, call) -> tuple[str, str, float]:
    """What ``bbo run`` writes at the end: history JSON, analyses, HTML; and its time."""
    from bbo import report

    t0 = time.perf_counter()
    text = call("report.export_json", report.export_json, history)
    analyses = call("report.default_analyses", report.default_analyses, history)
    page = call("report.render_html", report.render_html, history, analyses)
    return text, page, time.perf_counter() - t0


def check_calls(space, calls) -> list:
    """Per-call output checks; returns one message per failed call."""
    from bbo.errors import InvalidConfigurationError

    failures = []
    seen = set()
    for i, (batch, error) in enumerate(calls):
        if error is not None:
            failures.append(f"call {i} raised {error}")
            continue
        problems = []
        for config in batch:
            try:
                space.validate(config)
            except InvalidConfigurationError as exc:
                problems.append(f"invalid suggestion: {exc}")
        if len(set(batch)) != len(batch):
            problems.append("batch members repeat")
        if any(config in seen for config in batch):
            problems.append("suggestion repeats a told or pending configuration")
        seen.update(batch)
        if problems:
            failures.append(f"call {i}: " + "; ".join(problems))
    return failures


# --- modes ---


def setup(wl: Workload, seed: int) -> dict:
    """Import bbo and build space, task and Advisor; seconds from before the import."""
    before = probe()
    t0 = time.perf_counter()
    from bbo import Advisor

    Advisor(wl.task(seed))
    return {"setup_s": time.perf_counter() - t0, "probes": [before, probe()]}


def loop(wl: Workload, seed: int, seconds: float, count: int | None, spans: str | None) -> dict:
    """Repeat run_loop for about seconds (at least MIN_REPEATS times), or exactly count times."""
    first_setup = setup(wl, seed)  # bbo is first imported here
    tracer = None
    if spans:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    repeats = []
    history = None  # the first repeat's; the others export the same text (see the digests)
    start = time.perf_counter()
    while True:
        gc.collect()  # so that every repeat starts from the same heap
        repeats.append(run_loop(wl, seed, tracer))
        kept = repeats[-1].pop("history")
        history = kept if history is None else history
        elapsed = time.perf_counter() - start
        if count is not None:
            if len(repeats) == count:
                break
        # stop when one more repeat of average length would overrun the time
        elif len(repeats) >= MIN_REPEATS and elapsed * (len(repeats) + 1) / len(repeats) > seconds:
            break
    measure_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # regret only after the peak is read: the CONSTR optimum is a dense grid sweep
    import numpy
    import scipy

    out = {
        "setup": first_setup,
        "repeats": repeats,
        "regret": wl.regret(history),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "measure_s": measure_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        tracer.dump(spans)
        out["spans"] = len(tracer.spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "loop"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    wl = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(wl, args.seed)
    else:
        result = loop(wl, args.seed, args.seconds, args.repeats, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
