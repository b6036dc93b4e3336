"""End-to-end tests for the command-line interface."""

import json
import os
import signal
import sys
import textwrap
import time

import pytest

from bbo.cli import main
from bbo.history import TrialState
from bbo.report import export_json, import_json
from bbo.space import Configuration


def write_stub(tmp_path, name, body):
    script = tmp_path / name
    script.write_text(textwrap.dedent(body))
    return f'"{sys.executable}" "{script}"'


SUM_STUB = """
    import json, sys
    request = json.loads(sys.stdin.readline())
    total = sum(float(v) for v in request["config"].values())
    print(json.dumps({"objectives": [total], "constraints": []}))
"""

ECHO_INDEX_STUB = """
    import json, os, sys
    sys.stdin.readline()
    print(json.dumps({"objectives": [float(os.environ["BBO_TRIAL_INDEX"])]}))
"""

CRASH_STUB = """
    import sys
    sys.exit(1)
"""

BAD_JSON_STUB = """
    import sys
    sys.stdin.readline()
    print("this is not json")
"""

SLEEP_STUB = """
    import json, sys, time
    sys.stdin.readline()
    time.sleep(5)
    print(json.dumps({"objectives": [1.0]}))
"""

SPAN_STUB = """
    import json, os, sys, time
    sys.stdin.readline()
    start = time.time()
    time.sleep(0.5)
    name = "span" + os.environ["BBO_TRIAL_INDEX"]
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), name), "w") as f:
        f.write(f"{start} {time.time()}")
    print(json.dumps({"objectives": [1.0]}))
"""

DROPS_CONSTRAINT_STUB = """
    import json, os, sys
    sys.stdin.readline()
    constraints = [-1.0] if int(os.environ["BBO_TRIAL_INDEX"]) < 3 else []
    print(json.dumps({"objectives": [1.0], "constraints": constraints}))
"""

STRING_RESULT_STUB = """
    import json, os, sys
    sys.stdin.readline()
    results = [
        {"objectives": "12"},
        {"objectives": [1.0], "constraints": "0"},
        {"objectives": [True], "constraints": [0.0]},
        {"objectives": ["1.5"], "constraints": [" 2 "]},
    ]
    print(json.dumps(results[int(os.environ["BBO_TRIAL_INDEX"]) % 4]))
"""

DTLZ2_STUB = """
    import json, math, sys
    request = json.loads(sys.stdin.readline())
    a, b, c = (float(request["config"][k]) for k in ("a", "b", "c"))
    r = 1.0 + (c - 0.5) ** 2
    f = [
        r * math.cos(a * math.pi / 2) * math.cos(b * math.pi / 2),
        r * math.cos(a * math.pi / 2) * math.sin(b * math.pi / 2),
        r * math.sin(a * math.pi / 2),
    ]
    print(json.dumps({"objectives": f}))
"""


def process_alive(pid):
    """True while pid runs; a zombie waiting for a reaper counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no /proc
        return True


def write_task(tmp_path, **overrides):
    doc = {
        "parameters": [
            {"name": "a", "type": "float", "low": 0.0, "high": 1.0},
            {"name": "b", "type": "float", "low": 0.0, "high": 1.0},
        ],
        "num_objectives": 1,
        "num_constraints": 0,
        "max_runs": 5,
        "algorithm": "random",
        "seed": 3,
    }
    doc.update(overrides)
    path = tmp_path / "task.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestRunCommand:
    def test_successful_protocol_trace(self, tmp_path):
        task = write_task(tmp_path)
        cmd = write_stub(tmp_path, "obj.py", SUM_STUB)
        out = tmp_path / "out"
        assert main(["run", "--task", task, "--cmd", cmd, "--out", str(out)]) == 0
        history = import_json((out / "history.json").read_text())
        assert len(history) == 5
        assert all(o.trial_state == TrialState.SUCCESS for o in history.observations)
        for obs in history.observations:
            assert obs.objectives[0] == pytest.approx(sum(obs.config.values.values()))
        assert (out / "report.html").read_text().startswith("<!DOCTYPE html>")

    def test_trial_index_env_var(self, tmp_path):
        task = write_task(tmp_path)
        cmd = write_stub(tmp_path, "obj.py", ECHO_INDEX_STUB)
        out = tmp_path / "out"
        assert main(["run", "--task", task, "--cmd", cmd, "--out", str(out)]) == 0
        history = import_json((out / "history.json").read_text())
        assert [o.objectives[0] for o in history.observations] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_always_crashing_stub_completes(self, tmp_path):
        task = write_task(tmp_path)
        cmd = write_stub(tmp_path, "obj.py", CRASH_STUB)
        out = tmp_path / "out"
        assert main(["run", "--task", task, "--cmd", cmd, "--out", str(out)]) == 0
        history = import_json((out / "history.json").read_text())
        assert len(history) == 5
        assert all(o.trial_state == TrialState.FAILED for o in history.observations)
        assert all("status 1" in o.extra["error"] for o in history.observations)

    def test_invalid_json_noted_in_extra(self, tmp_path):
        task = write_task(tmp_path)
        cmd = write_stub(tmp_path, "obj.py", BAD_JSON_STUB)
        out = tmp_path / "out"
        assert main(["run", "--task", task, "--cmd", cmd, "--out", str(out)]) == 0
        history = import_json((out / "history.json").read_text())
        assert all(o.trial_state == TrialState.FAILED for o in history.observations)
        assert all("invalid JSON" in o.extra["error"] for o in history.observations)

    def test_wrong_shaped_results_become_failed_rows(self, tmp_path, capsys):
        task = write_task(tmp_path, num_constraints=1)
        cmd = write_stub(tmp_path, "obj.py", DROPS_CONSTRAINT_STUB)
        out = tmp_path / "out"
        assert main(["run", "--task", task, "--cmd", cmd, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "5 trials (3 succeeded, 0 abandoned at timeout)" in captured.out
        history = import_json((out / "history.json").read_text())
        states = [o.trial_state for o in history.observations]
        assert states == [TrialState.SUCCESS] * 3 + [TrialState.FAILED] * 2
        for obs in history.observations[3:]:
            assert obs.extra["error"] == "observation has 0 constraints, task expects 1"
        assert (out / "report.html").exists()

    def test_string_objectives_and_constraints_become_failed_rows(self, tmp_path):
        task = write_task(tmp_path, num_constraints=1, max_runs=4)
        cmd = write_stub(tmp_path, "obj.py", STRING_RESULT_STUB)
        out = tmp_path / "out"
        assert main(["run", "--task", task, "--cmd", cmd, "--out", str(out)]) == 0
        history = import_json((out / "history.json").read_text())
        assert len(history) == 4
        for obs in history.observations:
            assert obs.trial_state == TrialState.FAILED and obs.objectives is None
            assert obs.extra["error"].startswith("unusable objective return value")

    def test_timeout_rows(self, tmp_path):
        task = write_task(tmp_path, max_runs=2)
        cmd = write_stub(tmp_path, "obj.py", SLEEP_STUB)
        out = tmp_path / "out"
        code = main(
            ["run", "--task", task, "--cmd", cmd, "--out", str(out), "--timeout", "0.3"]
        )
        assert code == 0
        history = import_json((out / "history.json").read_text())
        assert all(o.trial_state == TrialState.TIMEOUT for o in history.observations)
        assert all("exceeded 0.3 s" in o.extra["error"] for o in history.observations)

    def test_timeout_kills_the_objectives_children(self, tmp_path):
        task = write_task(tmp_path, max_runs=1)
        pid_file = tmp_path / "child.pid"
        cmd = f"sh -c 'sleep 30 & echo $! > \"{pid_file}\"; wait'"
        out = tmp_path / "out"
        try:
            code = main(
                ["run", "--task", task, "--cmd", cmd, "--out", str(out), "--timeout", "0.3"]
            )
            assert code == 0
            history = import_json((out / "history.json").read_text())
            assert history.observations[0].trial_state == TrialState.TIMEOUT
            pid = int(pid_file.read_text())
            deadline = time.monotonic() + 2.0
            while process_alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not process_alive(pid), "the objective's background child outlived the timeout"
        finally:  # never leave the sleep behind, even when the check fails
            text = pid_file.read_text().strip() if pid_file.exists() else ""
            if text and process_alive(int(text)):
                os.kill(int(text), signal.SIGKILL)

    def test_batch_size_runs_trials_concurrently(self, tmp_path):
        task = write_task(tmp_path, max_runs=4, batch_size=4)
        cmd = write_stub(tmp_path, "obj.py", SPAN_STUB)
        assert main(["run", "--task", task, "--cmd", cmd, "--out", str(tmp_path / "o")]) == 0
        spans = sorted(tuple(map(float, p.read_text().split())) for p in tmp_path.glob("span*"))
        assert len(spans) == 4
        # trials run one at a time never overlap; a batch of four started together does
        assert any(later[0] < earlier[1] for earlier, later in zip(spans, spans[1:]))

    def test_three_objective_gp_run_and_report(self, tmp_path):
        parameters = [
            {"name": name, "type": "float", "low": 0.0, "high": 1.0} for name in "abc"
        ]
        task = write_task(
            tmp_path, parameters=parameters, num_objectives=3, max_runs=14, algorithm="gp"
        )
        cmd = write_stub(tmp_path, "obj.py", DTLZ2_STUB)
        out = tmp_path / "out"
        assert main(["run", "--task", task, "--cmd", cmd, "--out", str(out)]) == 0
        history = import_json((out / "history.json").read_text())
        assert len(history) == 14
        assert all(o.trial_state == TrialState.SUCCESS for o in history.observations)
        text = (out / "report.html").read_text()
        assert "Pareto front" in text and "Hypervolume" in text

    def test_unknown_task_field_rejected(self, tmp_path):
        task = write_task(tmp_path, warm_start=True)
        cmd = write_stub(tmp_path, "obj.py", SUM_STUB)
        assert main(["run", "--task", task, "--cmd", cmd, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_objectives", True),
            ("num_constraints", 1.5),
            ("max_runs", "ten"),
            ("batch_size", "2"),
            ("seed", None),
            ("parallelism", "2"),
            ("init_count", "3"),
            ("timeout", "1"),
            ("ref_point", ["a"]),
            ("task_id", {"a": 1}),
            ("task_id", 5),
            ("ref_point", [float("nan")]),  # json reads NaN and Infinity
            ("ref_point", [float("inf")]),
        ],
    )
    def test_mistyped_task_field_rejected(self, tmp_path, capsys, field, value):
        task = write_task(tmp_path, **{field: value})
        cmd = write_stub(tmp_path, "obj.py", SUM_STUB)
        code = main(["run", "--task", task, "--cmd", cmd, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [("seed", -1), ("max_runs", 0), ("batch_size", 0)])
    def test_out_of_range_task_field_rejected(self, tmp_path, capsys, field, value):
        task = write_task(tmp_path, **{field: value})
        cmd = write_stub(tmp_path, "obj.py", SUM_STUB)
        code = main(["run", "--task", task, "--cmd", cmd, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "parameters",
        [
            5,
            [5],
            [{"name": "a", "type": "float", "low": "a", "high": 1.0}],
            [{"name": "a", "type": "ordinal", "levels": 5}],
            [{"name": ["x"], "type": "float", "low": 0.0, "high": 1.0}],
            [{"name": "c", "type": "categorical", "choices": [[1], [2]]}],
            [{"name": "a", "type": "float", "low": 0.0, "high": float("inf")}],  # json reads Infinity
            [{"name": "a", "type": "float", "low": 1.0, "high": 10.0, "log": "false"}],
        ],
    )
    def test_malformed_parameters_rejected(self, tmp_path, capsys, parameters):
        task = write_task(tmp_path, parameters=parameters)
        cmd = write_stub(tmp_path, "obj.py", SUM_STUB)
        code = main(["run", "--task", task, "--cmd", cmd, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_missing_task_file(self, tmp_path):
        cmd = write_stub(tmp_path, "obj.py", SUM_STUB)
        code = main(["run", "--task", str(tmp_path / "nope.json"), "--cmd", cmd])
        assert code == 3

    @pytest.mark.parametrize("timeout", [0, -1, float("inf")])
    def test_non_positive_or_infinite_timeout_rejected(self, tmp_path, capsys, timeout):
        cmd = write_stub(tmp_path, "obj.py", SUM_STUB)
        out = tmp_path / "o"
        (tmp_path / "flag").mkdir()
        from_file = ["--task", write_task(tmp_path, timeout=timeout)]
        from_flag = ["--task", write_task(tmp_path / "flag"), "--timeout", str(timeout)]
        for argv in (from_file, from_flag):
            assert main(["run", *argv, "--cmd", cmd, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error: timeout must be finite and > 0")
            assert not out.exists()

    def test_non_positive_wall_clock_limit_rejected(self, tmp_path, capsys):
        cmd = write_stub(tmp_path, "obj.py", SUM_STUB)
        out = tmp_path / "o"
        argv = ["run", "--task", write_task(tmp_path), "--cmd", cmd, "--out", str(out)]
        assert main([*argv, "--wall-clock-limit", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: wall-clock limit must be > 0")
        assert not out.exists()


class TestReportCommand:
    def make_history_file(self, tmp_path, num_objectives=1):
        from bbo.history import History, Observation

        h = History("cli-test", num_objectives=num_objectives)
        import numpy as np

        rng = np.random.default_rng(0)
        for i in range(6):
            h.record(
                Observation(
                    config=Configuration({"a": float(rng.uniform())}),
                    objectives=list(rng.uniform(size=num_objectives)),
                    constraints=[],
                    trial_state=TrialState.SUCCESS,
                )
            )
        path = tmp_path / "history.json"
        path.write_text(export_json(h))
        return path

    def test_single_objective_report(self, tmp_path):
        src = self.make_history_file(tmp_path)
        out = tmp_path / "report.html"
        assert main(["report", str(src), "-o", str(out)]) == 0
        text = out.read_text()
        assert "Convergence" in text

    def test_multiobjective_report(self, tmp_path):
        src = self.make_history_file(tmp_path, num_objectives=2)
        out = tmp_path / "report.html"
        assert main(["report", str(src), "-o", str(out)]) == 0
        text = out.read_text()
        assert "Pareto front" in text and "Hypervolume" in text

    def test_corrupt_input_no_partial_output(self, tmp_path):
        src = tmp_path / "broken.json"
        src.write_text('{"version": "1", "task_id":')
        out = tmp_path / "report.html"
        assert main(["report", str(src), "-o", str(out)]) == 2
        assert not out.exists()

    def test_malformed_history_exits_2(self, tmp_path, capsys):
        src = self.make_history_file(tmp_path, num_objectives=2)
        doc = json.loads(src.read_text())
        doc["observations"][0]["objectives"] = [0.0, 1.0, 2.0]
        src.write_text(json.dumps(doc))
        out = tmp_path / "report.html"
        assert main(["report", str(src), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "observations[0]" in err
        assert not out.exists()

    def test_configs_naming_different_parameters_exit_2(self, tmp_path, capsys):
        src = self.make_history_file(tmp_path)
        doc = json.loads(src.read_text())
        doc["observations"][1]["config"] = {"renamed": 0.5}
        src.write_text(json.dumps(doc))
        out = tmp_path / "report.html"
        assert main(["report", str(src), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "observations[1].config" in err
        assert not out.exists()

    def test_idempotent(self, tmp_path):
        src = self.make_history_file(tmp_path)
        out = tmp_path / "report.html"
        main(["report", str(src), "-o", str(out)])
        first = out.read_bytes()
        main(["report", str(src), "-o", str(out)])
        assert out.read_bytes() == first


class TestBenchCommand:
    def test_row_accounting_and_determinism(self, tmp_path):
        out = tmp_path / "bench"
        args = [
            "bench",
            "--problems", "branin",
            "--strategies", "random,ea",
            "--seeds", "2",
            "--budget", "10",
            "--out", str(out),
        ]
        assert main(args) == 0
        csv_text = (out / "rank_table.csv").read_text()
        assert len(csv_text.strip().splitlines()) == 1 + 2 * 2
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["median_ranks"]) == {"random", "ea"}

        first = (out / "rank_table.csv").read_bytes()
        assert main(args) == 0
        assert (out / "rank_table.csv").read_bytes() == first

    def test_unknown_strategy(self, tmp_path):
        code = main(
            ["bench", "--problems", "branin", "--strategies", "random,sa",
             "--seeds", "1", "--budget", "5", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_unknown_problem(self, tmp_path):
        code = main(
            ["bench", "--problems", "rosenbrock", "--strategies", "random,ea",
             "--seeds", "1", "--budget", "5", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize("problems, seeds", [("branin", "0"), ("branin", "-1"), ("", "1")])
    def test_no_cells_rejected(self, tmp_path, capsys, problems, seeds):
        out = tmp_path / "bench"
        code = main(
            ["bench", "--problems", problems, "--strategies", "random,ea",
             "--seeds", seeds, "--budget", "5", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: run_benchmark needs")
        assert not out.exists()
