"""Command-line front door.

Subcommands:

- ``bbo run --task task.json --cmd "program args"`` optimizes an external
  program through a one-process-per-evaluation JSON protocol and writes the
  history JSON plus an HTML report.
- ``bbo report history.json -o report.html`` renders a report from a trace.
- ``bbo bench --problems ... --strategies ... --seeds K --budget B`` runs
  the built-in benchmark suite and writes a rank-table CSV and summary.

Exit codes: 0 success, 2 usage/setup error, 3 I/O error.

Subprocess protocol: one JSON object ``{"config": {...}}`` on stdin, one
JSON object ``{"objectives": [...], "constraints": [...]}`` on the first
line of stdout, UTF-8, one request/response pair per process; the
environment variable BBO_TRIAL_INDEX carries the trial number.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import fields
from pathlib import Path

from . import bench, report
from .advisor import TaskSpec
from .errors import BBOError, HistoryParseError, SetupError, SpaceError
from .optimizer import run
from .report import _is_number
from .space import Configuration, space_from_dict

EXIT_OK = 0
EXIT_SETUP = 2
EXIT_IO = 3


# task fields with a JSON type: (accepts the value, what it must be)
_TYPED_FIELDS = {
    **dict.fromkeys(
        ("num_objectives", "num_constraints", "max_runs", "batch_size", "seed", "parallelism"),
        (lambda v: _is_number(v, int), "an integer"),
    ),
    "task_id": (lambda v: isinstance(v, str), "a string"),
    "init_count": (lambda v: v is None or _is_number(v, int), "an integer or null"),
    "timeout": (lambda v: v is None or _is_number(v), "a number or null"),
    "ref_point": (
        lambda v: v is None or (isinstance(v, list) and all(map(_is_number, v))),
        "a list of numbers or null",
    ),
}
_TASK_FIELDS = {"parameters", "algorithm", "init_design", *_TYPED_FIELDS}


class ProtocolError(RuntimeError):
    """The external objective violated the subprocess wire format."""


def atomic_write(path: Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_task_file(path: str) -> tuple[TaskSpec, dict]:
    """Parse a task file: the search-space JSON plus task fields."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read task file {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SetupError(f"task file {path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise SetupError(f"task file {path}: top level must be a JSON object")
    unknown = set(doc) - _TASK_FIELDS
    if unknown:
        raise SetupError(f"task file {path}: unknown fields {sorted(unknown)}")
    for name, (accepts, kind) in _TYPED_FIELDS.items():
        if name in doc and not accepts(doc[name]):
            raise SetupError(f"task file {path}: {name} must be {kind}, got {doc[name]!r}")
    spec = {field.name: doc[field.name] for field in fields(TaskSpec) if field.name in doc}
    if spec.get("ref_point") is not None:
        spec["ref_point"] = tuple(spec["ref_point"])
    spec.setdefault("task_id", Path(path).stem)
    task = TaskSpec(space=space_from_dict(doc), **spec)
    runtime = {
        "parallelism": doc.get("parallelism", 1),
        "timeout": float(doc["timeout"]) if doc.get("timeout") is not None else None,
    }
    return task, runtime


def subprocess_objective(command: str, timeout: float | None = None):
    """Objective adapter: one process per evaluation, JSON over stdio."""
    argv = shlex.split(command)
    if not argv:
        raise SetupError("empty command")
    counter = itertools.count()
    lock = threading.Lock()

    def objective(config: Configuration):
        with lock:
            trial_index = next(counter)
        env = dict(os.environ, BBO_TRIAL_INDEX=str(trial_index))
        request = json.dumps({"config": dict(config.values)}) + "\n"
        try:
            # a session of its own, so that killing its process group on a
            # timeout or an interrupt also kills the processes it started
            proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                start_new_session=True,
            )
        except OSError as exc:
            raise ProtocolError(f"cannot spawn objective process: {exc}") from None
        with proc:
            try:
                stdout, stderr = proc.communicate(request, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise TimeoutError(f"objective process exceeded {timeout} s") from None
            finally:
                if proc.returncode is None:  # still running; leaving the block reaps it
                    os.killpg(proc.pid, signal.SIGKILL)
        if proc.returncode != 0:
            raise ProtocolError(
                f"objective process exited with status {proc.returncode}: "
                f"{stderr.strip()[:200]}"
            )
        line = stdout.strip().splitlines()
        if not line:
            raise ProtocolError("objective process produced no output")
        try:
            payload = json.loads(line[0])
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"objective process wrote invalid JSON: {exc.msg}") from None
        if not isinstance(payload, dict) or "objectives" not in payload:
            raise ProtocolError('objective response must be {"objectives": [...], ...}')
        return payload["objectives"], payload.get("constraints", [])

    return objective


def cmd_run(args) -> int:
    try:
        task, runtime = load_task_file(args.task)
    except (SetupError, SpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    parallelism = args.parallelism if args.parallelism is not None else runtime["parallelism"]
    timeout = args.timeout if args.timeout is not None else runtime["timeout"]
    try:
        objective = subprocess_objective(args.cmd, timeout=timeout)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP

    try:
        result = run(
            task,
            objective,
            wall_clock_limit=args.wall_clock_limit,
            parallelism=parallelism,
        )
    except (SetupError, BBOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP

    out_dir = Path(args.out)
    history_text = report.export_json(result.history)
    analyses = report.default_analyses(result.history)
    html_text = report.render_html(result.history, analyses)
    try:
        atomic_write(out_dir / "history.json", history_text)
        atomic_write(out_dir / "report.html", html_text)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    n_success = len(result.history.successes())
    print(
        f"{task.task_id}: {len(result.history)} trials ({n_success} succeeded), "
        f"stop reason: {result.stop_reason}"
    )
    if result.incumbent is not None:
        print(f"best objective: {result.incumbent.objectives[0]!r}")
    elif result.pareto_front:
        print(f"pareto front size: {len(result.pareto_front)}")
    print(f"wrote {out_dir / 'history.json'} and {out_dir / 'report.html'}")
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        text = Path(args.history).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.history}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        history = report.import_json(text)
    except HistoryParseError as exc:
        print(f"error: {args.history}: {exc}", file=sys.stderr)
        return EXIT_SETUP
    analyses = report.default_analyses(history)
    html_text = report.render_html(history, analyses)
    try:
        atomic_write(Path(args.out), html_text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    problems = [p.strip() for p in args.problems.split(",") if p.strip()]
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    try:
        for name in problems:
            bench.get_problem(name)
        result = bench.run_benchmark(problems, strategies, args.seeds, args.budget)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP

    out_dir = Path(args.out)
    summary = {
        "problems": problems,
        "strategies": strategies,
        "seeds": args.seeds,
        "budget": args.budget,
        "median_ranks": result.median_ranks,
        "wins": result.wins,
    }
    try:
        atomic_write(out_dir / "rank_table.csv", bench.rank_table_csv(result))
        atomic_write(out_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    for strategy, rank in sorted(result.median_ranks.items(), key=lambda kv: kv[1]):
        total_wins = sum(result.wins[strategy].values())
        print(f"{strategy}: median rank {rank}, wins {total_wins}")
    print(f"wrote {out_dir / 'rank_table.csv'} and {out_dir / 'summary.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbo", description="Black-box optimization toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="optimize an external program")
    p_run.add_argument("--task", required=True, help="task definition JSON file")
    p_run.add_argument("--cmd", required=True, help="objective program to spawn per evaluation")
    p_run.add_argument("--out", default="bbo_out", help="output directory")
    p_run.add_argument("--parallelism", type=int, default=None, help="concurrent evaluations")
    p_run.add_argument("--timeout", type=float, default=None, help="per-evaluation timeout (s)")
    p_run.add_argument(
        "--wall-clock-limit", type=float, default=None, help="total run time limit (s)"
    )
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="render an HTML report from a history JSON")
    p_report.add_argument("history", help="history JSON file")
    p_report.add_argument("-o", "--out", default="report.html", help="output HTML path")
    p_report.set_defaults(func=cmd_report)

    p_bench = sub.add_parser("bench", help="run built-in benchmark problems")
    p_bench.add_argument("--problems", default="branin,constr", help="comma-separated problems")
    p_bench.add_argument("--strategies", default="auto,random", help="comma-separated strategies")
    p_bench.add_argument("--seeds", type=int, default=10, help="number of seeds")
    p_bench.add_argument("--budget", type=int, default=100, help="evaluations per run")
    p_bench.add_argument("--out", default="bbo_bench", help="output directory")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
