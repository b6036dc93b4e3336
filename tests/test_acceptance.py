"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live) and then asserts. Tolerances are fixed here, not calibrated elsewhere.
"""

import itertools
import json
import sys
import textwrap
import time

import numpy as np

from bbo.advisor import Advisor, AlgorithmPlan, TaskSpec, auto_select
from bbo.bench import branin_problem, compute_constr_reference, constr_problem
from bbo.history import TrialState
from bbo.moo import _hv_boxes, hypervolume, hypervolume_difference, non_dominated_sort
from bbo.optimizer import evaluate_safe, run
from bbo.report import export_json, import_json, importance_shapley
from bbo.space import ParameterSpec, SearchSpace
from bbo.surrogate import GPModel, gp_log_marginal_likelihood

from test_report import check_html


def record(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[ACCEPTANCE {number:02d}] {name}: {status} ({detail})")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def counter_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


def float_space(d):
    return SearchSpace(
        [ParameterSpec(f"x{i}", "float", low=0.0, high=1.0) for i in range(d)]
    )


def test_01_auto_selection_exactness():
    start = time.perf_counter()
    cases = [
        (
            TaskSpec(space=float_space(11), max_runs=100),
            AlgorithmPlan("PRF", "EI", "random", "constant_liar_median"),
        ),
        (
            TaskSpec(space=float_space(5), max_runs=301),
            AlgorithmPlan("PRF", "EI", "random", "constant_liar_median"),
        ),
        (
            TaskSpec(space=float_space(5), max_runs=100),
            AlgorithmPlan("GP", "EI", "random", "local_penalization"),
        ),
    ]
    mismatches = [
        (auto_select(task), expected) for task, expected in cases if auto_select(task) != expected
    ]
    elapsed = time.perf_counter() - start
    record(
        1,
        "auto-selection rule exactness",
        not mismatches and elapsed < 1.0,
        f"3 cases exact, {elapsed:.3f}s",
    )


def test_02_branin_convergence():
    start = time.perf_counter()
    problem = branin_problem()
    gp_best, random_best = [], []
    for seed in range(10):
        task = TaskSpec(
            space=problem.space, max_runs=60, init_count=10, algorithm="gp", seed=seed
        )
        gp_best.append(run(task, problem.evaluate).incumbent.objectives[0])
        task = TaskSpec(
            space=problem.space, max_runs=60, init_count=10, algorithm="random", seed=seed
        )
        random_best.append(run(task, problem.evaluate).incumbent.objectives[0])
    elapsed = time.perf_counter() - start
    median_gp = float(np.median(gp_best))
    beats = sum(g < r for g, r in zip(gp_best, random_best))
    passed = median_gp <= 0.8 and beats >= 8 and elapsed < 180.0
    record(
        2,
        "Branin convergence (GP+EI vs random, 10 seeds)",
        passed,
        f"median best {median_gp:.4f} (<= 0.8), beats random on {beats}/10 seeds, {elapsed:.0f}s",
    )


def test_03_constr_dominance_over_random():
    start = time.perf_counter()
    problem = constr_problem()
    plan = auto_select(
        TaskSpec(
            space=problem.space,
            num_objectives=2,
            num_constraints=2,
            max_runs=100,
            ref_point=problem.ref_point,
        )
    )
    assert plan.acquisition_kind == "EHVI_C"
    _, optimal_hv = compute_constr_reference()
    diffs = {"auto": [], "random": []}
    for algorithm in ("auto", "random"):
        for seed in range(10):
            task = TaskSpec(
                space=problem.space,
                num_objectives=2,
                num_constraints=2,
                max_runs=100,
                algorithm=algorithm,
                ref_point=problem.ref_point,
                seed=seed,
            )
            result = run(task, problem.evaluate)
            front = [o.objectives for o in result.pareto_front]
            diffs[algorithm].append(
                hypervolume_difference(front, problem.ref_point, optimal_hv)
            )
    elapsed = time.perf_counter() - start
    median_auto = float(np.median(diffs["auto"]))
    median_random = float(np.median(diffs["random"]))
    passed = median_auto <= 0.5 * median_random and elapsed < 600.0
    record(
        3,
        "CONSTR dominance over random (EHVI+PoF, 100 evals, 10 seeds)",
        passed,
        f"median HV-diff auto {median_auto:.4f} vs random {median_random:.4f} "
        f"(ratio {median_auto / median_random:.3f} <= 0.5), {elapsed:.0f}s",
    )


def mc_hypervolume(points, ref, n_samples, rng, chunk=2_000_000):
    pts = np.asarray(points, dtype=float)
    lower = pts.min(axis=0)
    box = float(np.prod(ref - lower))
    hits = 0
    remaining = n_samples
    while remaining > 0:
        size = min(chunk, remaining)
        samples = rng.uniform(lower, ref, size=(size, ref.shape[0]))
        dominated = np.zeros(size, dtype=bool)
        for p in pts:
            dominated |= np.all(samples >= p, axis=1)
        hits += int(dominated.sum())
        remaining -= size
    return box * hits / n_samples


def test_04_hypervolume_correctness():
    rng = np.random.default_rng(42)
    worst_rel = 0.0
    worst_gap = 0.0
    for i in range(20):
        m = 2 if i % 2 == 0 else 3
        n = int(rng.integers(1, 21))
        pts = rng.uniform(size=(n, m))
        ref = np.full(m, 1.1)
        exact = hypervolume(pts, ref)
        approx = mc_hypervolume(pts, ref, 10**7, rng)
        worst_rel = max(worst_rel, abs(exact - approx) / exact)
        if m == 2:
            worst_gap = max(worst_gap, abs(exact - _hv_boxes(pts, ref)))
    passed = worst_rel < 0.01 and worst_gap <= 1e-12
    record(
        4,
        "hypervolume vs 1e7-sample MC oracle (20 instances)",
        passed,
        f"worst relative error {worst_rel:.4%} (< 1%), sweep-vs-boxes gap {worst_gap:.2e}",
    )


def peel_fronts_oracle(pts):
    """Iterative peeling with its own vectorized dominance test."""
    remaining = np.arange(pts.shape[0])
    fronts = []
    while remaining.size:
        sub = pts[remaining]
        le = np.all(sub[:, None, :] <= sub[None, :, :], axis=2)
        lt = np.any(sub[:, None, :] < sub[None, :, :], axis=2)
        dominated = (le & lt).any(axis=0)
        front = remaining[~dominated]
        fronts.append(sorted(int(i) for i in front))
        remaining = remaining[dominated]
    return fronts


def test_05_non_dominated_sorting_oracle():
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 201))
        m = int(rng.integers(2, 5))
        pts = rng.uniform(size=(n, m))
        if rng.uniform() < 0.2:  # force duplicates and ties
            pts = np.round(pts, 1)
        if non_dominated_sort(pts) != peel_fronts_oracle(pts):
            mismatches += 1
    record(
        5,
        "non-dominated sorting vs peeling oracle (200 instances)",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_06_gp_gradient_check():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        n = 10
        d = int(rng.integers(1, 5))
        X = rng.uniform(size=(n, d))
        y = rng.normal(size=n)
        model = GPModel(X, y, np.full(d, 0.5), 1.0, 1e-3)
        theta = np.concatenate(
            [
                rng.uniform(np.log(0.1), np.log(1.5), size=d),
                [rng.uniform(np.log(0.3), np.log(3.0)), rng.uniform(np.log(1e-5), np.log(1e-2))],
            ]
        )
        _, grad = gp_log_marginal_likelihood(model, theta)
        fd = np.empty_like(theta)
        h = 1e-5
        for k in range(theta.size):
            plus, minus = theta.copy(), theta.copy()
            plus[k] += h
            minus[k] -= h
            fd[k] = (
                gp_log_marginal_likelihood(model, plus)[0]
                - gp_log_marginal_likelihood(model, minus)[0]
            ) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(rel.max()))
    record(
        6,
        "GP marginal-likelihood gradient vs finite differences (20 instances)",
        worst <= 1e-4,
        f"worst per-component relative error {worst:.2e} (<= 1e-4)",
    )


def test_07_ei_pof_numerical_checks():
    from bbo.acquisition import expected_improvement, probability_of_feasibility

    rng = np.random.default_rng(11)
    worst_ei = 0.0
    worst_pof = 0.0
    n_samples = 10**7
    for _ in range(50):
        mean = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0.05, 1.5))
        eta = float(rng.uniform(-2, 2))
        draws = rng.normal(mean, sigma, size=n_samples)
        mc_ei = float(np.maximum(eta - draws, 0.0).mean())
        worst_ei = max(worst_ei, abs(expected_improvement(mean, sigma**2, eta) - mc_ei))
        mc_pof = float((draws <= 0).mean())
        worst_pof = max(
            worst_pof, abs(probability_of_feasibility(mean, sigma**2) - mc_pof)
        )
    passed = worst_ei <= 1e-3 and worst_pof <= 1e-3
    record(
        7,
        "EI/PoF closed forms vs 1e7-sample MC oracles (50 triples)",
        passed,
        f"worst |EI error| {worst_ei:.2e}, worst |PoF error| {worst_pof:.2e} (<= 1e-3)",
    )


def test_08_determinism():
    problem = branin_problem()
    task = TaskSpec(
        space=problem.space, max_runs=14, init_count=6, algorithm="gp", seed=123
    )
    export_a = export_json(
        run(task, problem.evaluate, parallelism=1, clock=counter_clock()).history
    )
    export_b = export_json(
        run(task, problem.evaluate, parallelism=1, clock=counter_clock()).history
    )

    advisor = Advisor(task)
    clock = counter_clock()
    for _ in range(task.max_runs):
        config = advisor.ask()
        advisor.tell(evaluate_safe(problem.evaluate, config, clock=clock))
    export_manual = export_json(advisor.get_history())

    passed = export_a == export_b and export_a == export_manual
    record(
        8,
        "determinism: byte-identical exports, ask-tell reproduces run",
        passed,
        f"runs identical: {export_a == export_b}, manual loop identical: {export_a == export_manual}",
    )


def test_09_failure_robustness():
    problem = constr_problem()
    calls = itertools.count()

    def flaky(config):
        if next(calls) % 10 < 3:  # 30% crash rate
            raise RuntimeError("injected crash")
        return problem.evaluate(config)

    task = TaskSpec(
        space=problem.space,
        num_objectives=2,
        num_constraints=2,
        max_runs=60,
        algorithm="auto",
        ref_point=problem.ref_point,
        seed=5,
    )
    result = run(task, flaky)
    failed = [o for o in result.history.observations if o.trial_state == TrialState.FAILED]
    ok = (
        len(result.history) == 60
        and len(failed) == 18
        and all(o.objectives is None and "injected crash" in o.extra["error"] for o in failed)
        and len(result.pareto_front) > 0
    )
    record(
        9,
        "failure robustness: CONSTR with 30% crashes",
        ok,
        f"60 trials, {len(failed)} FAILED flagged, front size {len(result.pareto_front)}",
    )


def test_10_shapley_importance_sanity():
    from bbo.history import History, Observation
    from bbo.space import Configuration

    rng = np.random.default_rng(17)
    history = History("shapley", num_objectives=1)
    for _ in range(60):
        x1, x2 = rng.uniform(size=2)
        history.record(
            Observation(
                config=Configuration({"x1": float(x1), "x2": float(x2)}),
                objectives=[float(x1)],
                trial_state=TrialState.SUCCESS,
            )
        )
    result = importance_shapley(history, n_permutations=256, rng=np.random.default_rng(1))
    ratio_ok = result.per_parameter["x1"] > 5 * result.per_parameter["x2"]
    efficiency_ok = bool(np.all(result.row_residuals <= result.row_tolerances))
    record(
        10,
        "Shapley importance sanity on f(x1, x2) = x1",
        ratio_ok and efficiency_ok,
        f"importance x1 {result.per_parameter['x1']:.4f} vs x2 {result.per_parameter['x2']:.4f}, "
        f"efficiency holds on {int(np.sum(result.row_residuals <= result.row_tolerances))}/"
        f"{len(result.row_residuals)} rows",
    )


def test_11_end_to_end_cli(tmp_path):
    from bbo.cli import main

    task_doc = {
        "parameters": [
            {"name": "a", "type": "float", "low": 0.0, "high": 1.0},
            {"name": "b", "type": "float", "low": 0.0, "high": 1.0},
        ],
        "num_objectives": 1,
        "max_runs": 5,
        "algorithm": "random",
        "seed": 7,
    }
    task_file = tmp_path / "task.json"
    task_file.write_text(json.dumps(task_doc))

    def stub(name, body):
        path = tmp_path / name
        path.write_text(textwrap.dedent(body))
        return f'"{sys.executable}" "{path}"'

    ok_cmd = stub(
        "ok.py",
        """
        import json, sys
        request = json.loads(sys.stdin.readline())
        total = sum(float(v) for v in request["config"].values())
        print(json.dumps({"objectives": [total], "constraints": []}))
        """,
    )
    crash_cmd = stub("crash.py", "import sys\nsys.exit(3)\n")
    slow_cmd = stub(
        "slow.py",
        """
        import json, sys, time
        sys.stdin.readline()
        time.sleep(10)
        print(json.dumps({"objectives": [1.0]}))
        """,
    )

    out_ok = tmp_path / "out_ok"
    code = main(["run", "--task", str(task_file), "--cmd", ok_cmd, "--out", str(out_ok)])
    history = import_json((out_ok / "history.json").read_text())
    html_text = (out_ok / "report.html").read_text()
    check_html(html_text)
    success_ok = (
        code == 0
        and len(history) == 5
        and all(o.trial_state == TrialState.SUCCESS for o in history.observations)
    )

    out_crash = tmp_path / "out_crash"
    code_crash = main(
        ["run", "--task", str(task_file), "--cmd", crash_cmd, "--out", str(out_crash)]
    )
    crash_history = import_json((out_crash / "history.json").read_text())
    crash_ok = code_crash == 0 and all(
        o.trial_state == TrialState.FAILED for o in crash_history.observations
    )

    out_slow = tmp_path / "out_slow"
    code_slow = main(
        ["run", "--task", str(task_file), "--cmd", slow_cmd, "--out", str(out_slow),
         "--timeout", "0.3"]
    )
    slow_history = import_json((out_slow / "history.json").read_text())
    timeout_ok = code_slow == 0 and all(
        o.trial_state == TrialState.TIMEOUT for o in slow_history.observations
    )

    record(
        11,
        "end-to-end CLI subprocess protocol",
        success_ok and crash_ok and timeout_ok,
        f"success run: {success_ok}, crash mapped to FAILED: {crash_ok}, "
        f"timeout mapped to TIMEOUT: {timeout_ok}",
    )
