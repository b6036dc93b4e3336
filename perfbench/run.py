"""bbo overhead benchmark: one workload per command, each phase in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bbo checkout (the directory holding ``src/bbo``).
bbo is imported from that ``src/``; nothing is installed or built.

``--trace 0`` measures the end-to-end metrics: the median set-up time of
five fresh processes, and the closed ask / evaluate / tell loop and the
report, repeated with the same seed in one process for about S seconds,
keeping each step's median time over the repeats. Two set-up processes run
before the loop process and two after it, so their samples spread over the
run. Every time is scaled to a reference machine speed by a probe timed
around it (``workload.scaled``); the unscaled times are recorded too.
``--trace 1`` runs the same untraced loop process for about S / 2 seconds,
then a traced one with as many repeats, and reports the per-layer split and
the tracing overhead; the spans go to ``perfbench/out/``.

Every run checks the outputs (see ``workload.check_calls`` and the run-level
checks) and compares the digest of the exported history with earlier runs
of the same seed and code. Human-readable lines come first; the last line
of standard output is the JSON result. The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import REFERENCE_PROBE_S, scaled, step_probes

HERE = Path(__file__).resolve().parent
WORKLOADS = ("branin-gp", "constr-ehvi", "mixed12-prf-q4")
SETUP_PROCESSES = 4  # half before the loop process, half after; it also times its set-up
DEADLINE_S = 170  # the whole command, children included, ends within this
BLAS_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ChildFailed(RuntimeError):
    pass


def child(root: Path, deadline: float, *args: str) -> dict:
    """Run perfbench/workload.py in a fresh interpreter; return its JSON result.

    The child is killed once the monotonic clock passes deadline.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), *args],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"workload.py {' '.join(args)} ran past the {DEADLINE_S} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"workload.py {' '.join(args)} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def code_digest(root: Path) -> str:
    """Digest of the bbo sources and the workload definitions.

    Stored history digests are compared only between runs of the same code.
    """
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + [HERE / "workload.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "python": sys.version.split()[0],
        "git_commit": git_commit(root),
        "code_digest": code_digest(root),
    }


def check_digest(out_dir: Path, key: str, digest: str) -> str | None:
    """Record the history digest for key; return the earlier one if it differs."""
    path = out_dir / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    earlier = store.setdefault(key, digest)
    if earlier == digest:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return None
    return earlier


def checked(loop: dict) -> tuple[int, int, list]:
    """Count attempted and failed operations of one loop process, with messages.

    An operation is one suggestion call (ask or ask_batch) or one run-level
    check of a repeat.
    """
    attempted = failed = 0
    messages = []
    for r in loop["repeats"]:
        attempted += r["calls"] + len(r["checks"])
        failed += len(r["failed_calls"]) + sum(not ok for ok in r["checks"].values())
        messages += r["failed_calls"] + [f"check failed: {k}" for k, ok in r["checks"].items() if not ok]
    return attempted, failed, messages


def per_step(repeats: list, scale: bool = True) -> tuple[list, list, float]:
    """Per suggestion call, the median over the same-seed repeats of its time.

    Returns the model-phase ask times (ms), the step times (ask, evaluate
    and tell; s) and the median report time (s). With scale, each time is
    first scaled to the reference speed by the probes taken around it: for
    a step, those of the nearest step boundaries (workload.step_probes); for
    a report, those of all reports of its repeat.
    """

    def timed(seconds, probes):
        return scaled(seconds, probes) if scale else seconds

    def step(r, i, k):
        return timed(r["steps"][i][k], step_probes(r["probes"], i))

    n = min(len(r["steps"]) for r in repeats)
    ask_ms = [
        1000.0 * statistics.median(step(r, i, 1) for r in repeats) for i in range(n) if repeats[0]["steps"][i][0]
    ]
    step_s = [statistics.median(step(r, i, 2) for r in repeats) for i in range(n)]
    report_s = statistics.median(
        timed(seconds, r["report_probes"]) for r in repeats for seconds in r["report_s"]
    )
    return ask_ms, step_s, report_s


def setup_time(setup: dict, scale: bool = True) -> float:
    return scaled(setup["setup_s"], setup["probes"]) if scale else setup["setup_s"]


def end_to_end(setups: list, loop: dict) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the ones only printed and recorded."""
    ask_ms, step_s, report_s = per_step(loop["repeats"])
    raw_ask_ms, raw_step_s, raw_report_s = per_step(loop["repeats"], scale=False)
    metrics = {
        "setup_s": (statistics.median(setup_time(s) for s in setups), "s"),
        "run_s": (sum(step_s), "s"),
        "ask_ms_p50": (statistics.median(ask_ms), "ms"),
        "report_s": (report_s, "s"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
    }
    probes = [p for r in loop["repeats"] for p in r["probes"]]
    extra = {
        "setup_s_unscaled": (statistics.median(setup_time(s, scale=False) for s in setups), "s"),
        "run_s_unscaled": (sum(raw_step_s), "s"),
        "ask_ms_p50_unscaled": (statistics.median(raw_ask_ms), "ms"),
        "report_s_unscaled": (raw_report_s, "s"),
        "probe_ms_median": (1000.0 * statistics.median(probes), "ms"),
        "probe_ms_least": (1000.0 * min(probes), "ms"),
        "regret": (loop["regret"], "objective"),
        "ask_samples": (len(ask_ms), "count"),
        "loop_s_median": (statistics.median(r["loop_s"] for r in loop["repeats"]), "s"),
        "measure_s": (loop["measure_s"], "s"),
        "repeats": (len(loop["repeats"]), "count"),
    }
    # the highest decile with at least ten samples beyond it
    decile = max((k for k in range(5, 10) if len(ask_ms) * (10 - k) >= 100), default=None)
    if decile is not None:
        extra[f"ask_ms_p{10 * decile}"] = (statistics.quantiles(ask_ms, n=10)[decile - 1], "ms")
    return metrics, extra


LAYERS = ("advisor", "surrogate", "acquisition", "space", "moo", "history", "report")


def per_layer(base: dict, traced: dict) -> tuple[dict, dict, dict, dict]:
    """Per-layer metrics of the traced repeats.

    Returns the reported metrics, the printed-only ones, the self time per
    layer and the fastest traced repeat.

    The repeats do identical work, so counts are the same in each. Layer
    times come from the repeat whose loop was fastest, so they add up to
    at most its loop time. Loop layers (advisor, surrogate, acquisition,
    space, history) count only the ask/tell loop; moo and report also count
    the report.
    """
    reps = traced["repeats"]
    r = min(reps, key=lambda x: x["loop_s"])
    calls, counts = r["loop_layers"]["calls"], r["loop_layers"]["counts"]
    full_calls = r["layers"]["calls"]

    def t(name, kind="self_s", part="loop_layers"):
        return r[part][kind].get(name, 0.0)

    def frac(num, den):
        return num / den if den else 0.0

    fit_gp = calls.get("surrogate.fit_gp", 0)
    rows_scored = counts.get("acquisition.rows_scored", 0)
    run_s = sum(per_step(reps)[1])
    untraced_run_s = sum(per_step(base["repeats"])[1])
    m = {
        "advisor.suggest_calls": (calls.get("advisor.ask", 0) + calls.get("advisor.ask_batch", 0), "count"),
        "advisor.model_calls": (sum(1 for step in r["steps"] if step[0]), "count"),
        "advisor.self_s": (sum(t(k) for k in ("advisor.ask", "advisor.ask_batch", "advisor.tell")), "s"),
        "advisor.fallback_frac": (
            max(0.0, frac(r["model_suggestions"] - r["model_maximize"], r["model_suggestions"])),
            "ratio",
        ),
        "surrogate.fit_gp.calls": (fit_gp, "count"),
        "surrogate.fit_gp.deep_calls": (counts.get("surrogate.fit_gp.deep_calls", 0), "count"),
        "surrogate.fit_gp.rows_max": (counts.get("surrogate.fit_gp.rows_max", 0), "count"),
        "surrogate.fit_gp.jitter_frac": (
            frac(counts.get("surrogate.fit_gp.jitter_models", 0), fit_gp),
            "ratio",
        ),
        "surrogate.fit_prf.calls": (calls.get("surrogate.fit_prf", 0), "count"),
        "surrogate.fit.s": (t("surrogate.fit_gp") + t("surrogate.fit_prf"), "s"),
        "surrogate.predict.calls": (calls.get("surrogate.predict", 0), "count"),
        "surrogate.predict.rows": (counts.get("surrogate.predict.rows", 0), "count"),
        "surrogate.predict.s": (t("surrogate.predict"), "s"),
        "acquisition.maximize.calls": (calls.get("acquisition.maximize", 0), "count"),
        "acquisition.maximize.self_s": (t("acquisition.maximize"), "s"),
        "acquisition.rows_scored": (rows_scored, "count"),
        "acquisition.distinct_frac": (
            frac(counts.get("acquisition.distinct_returned", 0), rows_scored),
            "ratio",
        ),
        "acquisition.score.self_s": (t("acquisition.score"), "s"),
        "acquisition.ehvi.calls": (calls.get("acquisition.ehvi", 0), "count"),
        "acquisition.ehvi.rows": (counts.get("acquisition.ehvi.rows", 0), "count"),
        "space.sample_random.configs": (counts.get("space.sample_random.configs", 0), "count"),
        "space.sample_random.s": (t("space.sample_random"), "s"),
        "space.encode_matrix.rows": (counts.get("space.encode_matrix.rows", 0), "count"),
        "space.encode_matrix.s": (t("space.encode_matrix"), "s"),
        "space.config_hash.calls": (counts.get("space.config_hash.calls", 0), "count"),
        "moo.non_dominated_sort.calls": (full_calls.get("moo.non_dominated_sort", 0), "count"),
        "moo.hypervolume.calls": (full_calls.get("moo.hypervolume", 0), "count"),
        "history.record.calls": (calls.get("history.record", 0), "count"),
        "history.record.s": (t("history.record"), "s"),
        "history.training_targets.s": (t("history.training_targets"), "s"),
        "history.pareto_front.calls": (calls.get("history.pareto_front", 0), "count"),
        "report.export_json.s": (t("report.export_json", "total_s", "layers"), "s"),
        "report.default_analyses.s": (t("report.default_analyses", "total_s", "layers"), "s"),
        "report.render_html.s": (t("report.render_html", "total_s", "layers"), "s"),
        "trace.run_s": (run_s, "s"),
        "trace.overhead_frac": ((run_s - untraced_run_s) / untraced_run_s, "ratio"),
    }
    # times that read 0 on every run of a workload that skips the layer: printed, not reported
    extra = {
        "surrogate.fit_gp.s": (t("surrogate.fit_gp"), "s"),
        "surrogate.fit_prf.s": (t("surrogate.fit_prf"), "s"),
        "acquisition.ehvi.self_s": (t("acquisition.ehvi"), "s"),
        "history.pareto_front.s": (t("history.pareto_front"), "s"),
        "trace.untraced_run_s": (untraced_run_s, "s"),
        "trace.spans": (traced["spans"], "count"),
    }
    for name in sorted(n for n in full_calls if n.startswith("moo.")):
        extra.setdefault(f"{name}.calls", (full_calls[name], "count"))
        extra[f"{name}.s"] = (t(name, part="layers"), "s")
    layer_self = {}
    for layer in LAYERS:
        part = "layers" if layer in ("moo", "report") else "loop_layers"
        layer_self[layer] = sum(
            sec for name, sec in r[part]["self_s"].items() if name.startswith(layer + ".")
        )
    return m, extra, layer_self, r


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {shown:>14} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bbo overhead benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bbo" / "__init__.py").is_file():
        print(f"error: {root} holds no src/bbo; run from the root of a bbo checkout", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = environment(root)
    seed = str(args.seed)
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"

    try:
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{seed}.json"
            base = child(root, deadline, "loop", args.workload, "--seed", seed, "--seconds", str(args.seconds / 2))
            traced = child(
                root, deadline, "loop", args.workload, "--seed", seed,
                "--repeats", str(len(base["repeats"])), "--spans", str(spans),
            )
            loops = [base, traced]
            metrics, extra, layer_self, fastest = per_layer(base, traced)
        else:
            def setup():
                return child(root, deadline, "setup", args.workload, "--seed", seed)

            setups = [setup() for _ in range(SETUP_PROCESSES // 2)]
            loop = child(root, deadline, "loop", args.workload, "--seed", seed, "--seconds", str(args.seconds))
            setups += [setup() for _ in range(SETUP_PROCESSES - SETUP_PROCESSES // 2)]
            loops = [loop]
            metrics, extra = end_to_end(setups + [loop["setup"]], loop)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = list(os.getloadavg())
    env.update(loops[0]["versions"])

    attempted = failed = 0
    messages = []
    for loop in loops:
        a, f, msg = checked(loop)
        attempted, failed, messages = attempted + a, failed + f, messages + msg
    # every repeat, traced or not, and every earlier run of this seed and tree must agree
    digests = sorted({r["digest"] for loop in loops for r in loop["repeats"]})
    for digest in digests:
        attempted += 1
        earlier = check_digest(out_dir, f"{env['code_digest']}:{args.workload}:{seed}", digest)
        if earlier is not None:
            failed += 1
            messages.append(f"history digest {digest[:12]} differs from {earlier[:12]} of an earlier run")
    if args.trace:
        run_s, report_s = fastest["loop_s"], fastest["report_s"][0]
        for layer, seconds in layer_self.items():
            base_s = report_s if layer == "report" else run_s
            attempted += 1
            if seconds > base_s:
                failed += 1
                messages.append(f"layer {layer} self time {seconds:.3f} s exceeds {base_s:.3f} s")
    extra["error_frac"] = (failed / attempted, "ratio")
    correct = failed == 0

    print(f"bbo overhead benchmark: {args.workload}, seed {seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"times in s and ms are scaled to the speed at which the probe takes {1000 * REFERENCE_PROBE_S:g} ms")
    print_metrics("end-to-end" if not args.trace else "per-layer", metrics)
    print_metrics("also recorded", extra)
    if args.trace:
        print(f"self time per layer, fastest traced repeat (loop {run_s:.3f} s, report {report_s:.3f} s)")
        for layer, seconds in layer_self.items():
            base_s = report_s if layer == "report" else run_s
            print(f"  {layer:<12} {seconds:10.4f} s  {100 * seconds / base_s:6.1f}%")
        print(f"spans written to {os.path.relpath(spans, root)}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"history digest {digests[0][:16]} ({len(digests)} distinct)")
    for message in messages:
        print(f"FAILED: {message}")
    print(f"correct {correct}: {failed} of {attempted} operations failed")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(result, also_recorded={k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    record.update(seconds=args.seconds, environment=env, digests=digests, failures=messages)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
