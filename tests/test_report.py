"""Tests for analysis series, Shapley importance, HTML and JSON artifacts."""

import json
from html.parser import HTMLParser

import numpy as np
import pytest

from bbo.errors import HistoryParseError, InsufficientDataError, WrongTaskTypeError
from bbo.history import History, Observation, TrialState
from bbo.moo import hypervolume
from bbo.report import (
    _design_matrix,
    convergence_curve,
    default_analyses,
    export_json,
    hv_over_time,
    import_json,
    importance_shapley,
    render_html,
)
from bbo.space import Configuration
from bbo.surrogate import PRFModel, fit_prf


def obs(values, objectives, constraints=None, state=TrialState.SUCCESS, extra=None):
    return Observation(
        config=Configuration(values),
        objectives=objectives if state == TrialState.SUCCESS else None,
        constraints=constraints if state == TrialState.SUCCESS else None,
        trial_state=state,
        extra=extra or {},
    )


def single_history(objs, constraints=None):
    p = 0 if constraints is None else len(constraints[0])
    h = History("t", num_objectives=1, num_constraints=p)
    for i, y in enumerate(objs):
        cons = constraints[i] if constraints is not None else None
        h.record(obs({"x": i / 10}, [y], cons))
    return h


class TestConvergenceCurve:
    def test_basic(self):
        h = single_history([3.0, 1.0, 2.0])
        assert convergence_curve(h) == [(1, 3.0), (2, 1.0), (3, 1.0)]

    def test_feasibility_gating(self):
        h = History("t", num_objectives=1, num_constraints=1)
        h.record(obs({"x": 0.1}, [1.0], [2.0]))
        h.record(obs({"x": 0.2}, [0.5], [0.5]))
        h.record(obs({"x": 0.3}, [5.0], [-1.0]))
        assert convergence_curve(h) == [(3, 5.0)]

    def test_matches_prefix_min_oracle(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=200)
        h = single_history(list(values))
        series = dict(convergence_curve(h))
        running = np.minimum.accumulate(values)
        for i in range(200):
            assert series[i + 1] == running[i]

    def test_nonincreasing(self):
        rng = np.random.default_rng(1)
        h = single_history(list(rng.uniform(size=100)))
        ys = [y for _, y in convergence_curve(h)]
        assert all(b <= a for a, b in zip(ys, ys[1:]))

    def test_wrong_task_type(self):
        h = History("t", num_objectives=2)
        with pytest.raises(WrongTaskTypeError):
            convergence_curve(h)


class TestHvOverTime:
    def test_single_feasible_point(self):
        h = History("t", num_objectives=2)
        h.record(obs({"x": 0.1}, [0.0, 0.0]))
        series = hv_over_time(h, (1.0, 1.0))
        assert series == [(1, 1.0)]

    def test_all_infeasible_all_zero(self):
        h = History("t", num_objectives=2, num_constraints=1)
        for i in range(4):
            h.record(obs({"x": i / 10}, [0.1, 0.1], [1.0]))
        series = hv_over_time(h, (1.0, 1.0))
        assert [v for _, v in series] == [0.0] * 4

    def test_matches_recomputation_oracle(self):
        rng = np.random.default_rng(2)
        h = History("t", num_objectives=2)
        pts = rng.uniform(size=(50, 2))
        for i, p in enumerate(pts):
            h.record(obs({"x": i / 50}, list(p)))
        ref = (1.5, 1.5)
        series = hv_over_time(h, ref)
        for i, value in series:
            feas = pts[:i]
            assert value == pytest.approx(hypervolume(feas, ref))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_running_front_matches_per_prefix_bits(self, m):
        # coarse grid values give ties and points on the reference; values
        # above 1 lie beyond it; every fifth row repeats an earlier one
        rng = np.random.default_rng(m)
        h = History("t", num_objectives=m, num_constraints=1)
        rows = []
        for i in range(120):
            if i % 5 or not rows:
                y = rng.integers(0, 7, size=m) / 5
            else:
                y = rows[rng.integers(len(rows))][0]
            c = float(rng.choice([-1.0, 1.0], p=[0.8, 0.2]))
            rows.append((y, c))
            h.record(obs({"x": i / 120}, [float(v) for v in y], [c]))
        ref = np.ones(m)
        series = hv_over_time(h, ref)
        for i, value in series:
            feasible = [y for y, c in rows[:i] if c <= 0]
            assert value == (hypervolume(feasible, ref) if feasible else 0.0)

    def test_nondecreasing(self):
        rng = np.random.default_rng(3)
        h = History("t", num_objectives=2)
        for i in range(60):
            h.record(obs({"x": i / 60}, list(rng.uniform(size=2))))
        values = [v for _, v in hv_over_time(h, (2.0, 2.0))]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def shapley_setup(history, rng):
    """The forest, design matrix, background, explicand rows and baseline
    importance_shapley draws from rng before its per-explicand draws."""
    X, names = _design_matrix(history)
    model = fit_prf(X, np.array([o.objectives[0] for o in history.successes()]), rng=rng)
    n = X.shape[0]
    background = X[rng.permutation(n)[:32]]
    ex_idx = rng.permutation(n)[:64]
    baseline = float(model.predict(background)[0].mean())
    return model, X, background, ex_idx, baseline


def shapley_reference(history, n_permutations, rng):
    """importance_shapley with one hybrid row and one accumulation per
    sample and feature: the same draws in the same order, so the same bits."""
    model, X, background, ex_idx, baseline = shapley_setup(history, rng)
    d = X.shape[1]
    n_bg = background.shape[0]
    n_shuffles = int(np.ceil(n_permutations / n_bg))
    phi = np.zeros((len(ex_idx), d))
    residuals = np.empty(len(ex_idx))
    tolerances = np.empty(len(ex_idx))
    for row, i in enumerate(ex_idx):
        x = X[i]
        ranks = rng.permuted(np.tile(np.arange(d), (n_permutations, 1)), axis=1)
        z_rows = rng.permuted(np.tile(np.arange(n_bg), (n_shuffles, 1)), axis=1).ravel()
        hybrids = np.empty((n_permutations, d + 1, d))
        perms = np.empty((n_permutations, d), dtype=int)
        for s in range(n_permutations):
            perm = np.argsort(ranks[s])  # the features in the order they join
            z = background[z_rows[s]]
            perms[s] = perm
            current = z.copy()
            hybrids[s, 0] = current
            for k, feature in enumerate(perm):
                current = current.copy()
                current[feature] = x[feature]
                hybrids[s, k + 1] = current
        preds = model.predict(hybrids.reshape(-1, d))[0].reshape(n_permutations, d + 1)
        marginals = np.diff(preds, axis=1)
        for s in range(n_permutations):
            phi[row, perms[s]] += marginals[s]
        phi[row] /= n_permutations
        residuals[row] = abs(phi[row].sum() - (preds[:, -1].mean() - baseline))
        tolerances[row] = 3.0 * (preds[:, 0].std(ddof=1) / np.sqrt(n_permutations) + 1e-12)
    return np.abs(phi).mean(axis=0), residuals, tolerances


class TestImportanceShapley:
    def make_history(self, fn, n=60, seed=0):
        rng = np.random.default_rng(seed)
        h = History("t", num_objectives=1)
        for _ in range(n):
            x1, x2 = rng.uniform(size=2)
            h.record(obs({"x1": float(x1), "x2": float(x2)}, [fn(x1, x2)]))
        return h

    def test_constant_target_null_game(self):
        h = self.make_history(lambda a, b: 1.0)
        result = importance_shapley(h, n_permutations=64, rng=np.random.default_rng(0))
        assert all(v <= 1e-9 for v in result.per_parameter.values())

    def test_dominant_parameter_detected(self):
        h = self.make_history(lambda a, b: float(a))
        result = importance_shapley(h, n_permutations=256, rng=np.random.default_rng(1))
        assert result.per_parameter["x1"] > 5 * result.per_parameter["x2"]

    def test_efficiency_within_tolerance(self):
        h = self.make_history(lambda a, b: float(a + 0.3 * b + a * b), n=80, seed=4)
        result = importance_shapley(h, n_permutations=128, rng=np.random.default_rng(2))
        assert np.all(result.row_residuals <= result.row_tolerances)

    @pytest.mark.parametrize("seed", range(20))
    def test_efficiency_exact_when_samples_cover_background(self, seed):
        # 64 samples use each of the 32 background rows twice, so the
        # samples' mean background prediction is the baseline itself
        h = self.make_history(lambda a, b: float(a + 0.3 * b + a * b), n=80, seed=4)
        result = importance_shapley(h, n_permutations=64, rng=np.random.default_rng(seed))
        model, X, _, ex_idx, baseline = shapley_setup(h, np.random.default_rng(seed))
        gap = np.abs(model.predict(X[ex_idx])[0] - baseline)
        assert np.all(result.row_residuals <= 1e-12 * np.maximum(1.0, gap))

    def test_matches_exhaustive_two_player_shapley(self):
        h = self.make_history(lambda a, b: float(a), n=80, seed=5)
        rng = np.random.default_rng(3)
        result = importance_shapley(h, n_permutations=256, rng=rng)

        # exhaustive oracle for d=2: phi_1 = mean over (x, z) of
        # 0.5 [f(x1,z2) - f(z1,z2)] + 0.5 [f(x1,x2) - f(z1,x2)]
        from bbo.report import _design_matrix
        from bbo.surrogate import fit_prf

        X, names = _design_matrix(h)
        y = np.array([o.objectives[0] for o in h.successes()])
        model = fit_prf(X, y, rng=np.random.default_rng(3))
        phis = np.zeros(2)
        for x in X[:40]:
            for z in X[:20]:
                for j in (0, 1):
                    other = 1 - j
                    with_j = z.copy()
                    with_j[j] = x[j]
                    both = x.copy()
                    only_other = z.copy()
                    only_other[other] = x[other]
                    m1 = model.predict(with_j.reshape(1, -1))[0][0] - model.predict(
                        z.reshape(1, -1)
                    )[0][0]
                    m2 = model.predict(both.reshape(1, -1))[0][0] - model.predict(
                        only_other.reshape(1, -1)
                    )[0][0]
                    phis[j] += abs(0.5 * m1 + 0.5 * m2)
        phis /= 40 * 20
        # both routes agree that x1 dwarfs x2
        assert phis[0] > 5 * phis[1]
        assert result.per_parameter["x1"] > 5 * result.per_parameter["x2"]

    def test_insufficient_data(self):
        h = self.make_history(lambda a, b: float(a), n=3)
        with pytest.raises(InsufficientDataError):
            importance_shapley(h, rng=np.random.default_rng(0))

    def test_fewer_than_two_permutations_rejected(self):
        h = self.make_history(lambda a, b: float(a))
        for n_permutations in (0, 1):
            with pytest.raises(ValueError):
                importance_shapley(h, n_permutations=n_permutations)

    def mixed_history(self, n, seed):
        # float, int, categorical and boolean columns, a constant column and failures
        rng = np.random.default_rng(seed)
        h = History("t", num_objectives=1)
        for i in range(n):
            config = {
                "lr": float(rng.uniform()),
                "depth": int(rng.integers(1, 9)),
                "opt": ("adam", "sgd", "rmsprop")[int(rng.integers(3))],
                "bias": bool(rng.integers(2)),
                "width": 64,
            }
            if i % 7 == 3:
                h.record(obs(config, None, state=TrialState.FAILED))
            else:
                y = config["lr"] * config["depth"] + (config["opt"] == "sgd") + 0.1 * rng.normal()
                h.record(obs(config, [float(y)]))
        return h

    def one_float_history(self, n, seed):
        rng = np.random.default_rng(seed)
        h = History("t", num_objectives=1)
        for x in rng.uniform(size=n):
            h.record(obs({"x": float(x)}, [float(np.sin(6.0 * x) + 0.1 * rng.normal())]))
        return h

    @pytest.mark.parametrize(
        "case, n_permutations",
        [("two-floats", 64), ("mixed-40", 2), ("mixed-120", 37), ("mixed-15", 16), ("one-float", 64)],
    )
    def test_matches_per_sample_reference(self, case, n_permutations):
        if case == "two-floats":
            h = self.make_history(lambda a, b: float(a + 0.3 * b + a * b), n=80, seed=4)
        elif case == "one-float":
            # d = 1: no hybrid lies between a sample's background row and the explicand
            h = self.one_float_history(30, seed=3)
        else:
            n = int(case.split("-")[1])
            h = self.mixed_history(n, seed=n)
        result = importance_shapley(h, n_permutations, np.random.default_rng(9))
        importance, residuals, tolerances = shapley_reference(
            h, n_permutations, np.random.default_rng(9)
        )
        assert np.array_equal(list(result.per_parameter.values()), importance)
        assert np.array_equal(result.row_residuals, residuals)
        assert np.array_equal(result.row_tolerances, tolerances)

    def test_predicts_each_hybrid_once(self, monkeypatch):
        # the background (32 rows) and the explicands (64) are predicted
        # once each; per explicand only hybrids 1 .. d - 1 of its samples
        predict = PRFModel.predict
        rows = []

        def counting_predict(self, X_query):
            rows.append(len(np.atleast_2d(X_query)))
            return predict(self, X_query)

        monkeypatch.setattr(PRFModel, "predict", counting_predict)
        h = self.make_history(lambda a, b: float(a + 0.3 * b + a * b), n=80, seed=4)
        importance_shapley(h, n_permutations=64, rng=np.random.default_rng(9))
        assert sum(rows) == 32 + 64 + 64 * 64 * 1


class TestJsonRoundTrip:
    def mixed_history(self):
        h = History("demo", num_objectives=2, num_constraints=1, ref_point=(5.0, 5.0))
        rng = np.random.default_rng(7)
        for i in range(100):
            state = TrialState.SUCCESS if i % 7 else TrialState.FAILED
            config = {"lr": float(rng.uniform()), "opt": ("adam", "sgd")[i % 2], "k": int(i)}
            if state == TrialState.SUCCESS:
                h.record(
                    obs(config, list(rng.normal(size=2)), [float(rng.normal())], extra={"note": str(i)})
                )
            else:
                h.record(
                    Observation(
                        config=Configuration(config),
                        trial_state=state,
                        elapsed_time=float(i),
                        extra={"error": "boom"},
                    )
                )
        return h

    def test_round_trip_equality(self):
        h = self.mixed_history()
        restored = import_json(export_json(h))
        assert restored.task_id == h.task_id
        assert restored.num_objectives == h.num_objectives
        assert restored.ref_point == h.ref_point
        assert len(restored) == len(h)
        for a, b in zip(h.observations, restored.observations):
            assert a.config == b.config
            assert a.objectives == b.objectives
            assert a.constraints == b.constraints
            assert a.trial_state == b.trial_state
            assert a.elapsed_time == b.elapsed_time
            assert a.extra == b.extra

    def test_export_stable_bytes(self):
        h = self.mixed_history()
        assert export_json(h) == export_json(h)
        assert export_json(h) == export_json(import_json(export_json(h)))

    def test_truncated_file_is_parse_error(self):
        text = export_json(self.mixed_history())
        with pytest.raises(HistoryParseError):
            import_json(text[: len(text) // 2])

    def test_wrong_version(self):
        text = export_json(single_history([1.0])).replace('"version": "1"', '"version": "9"')
        with pytest.raises(HistoryParseError):
            import_json(text)

    def test_missing_field_context(self):
        with pytest.raises(HistoryParseError) as err:
            import_json('{"version": "1", "task_id": "x"}')
        assert "num_objectives" in str(err.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_objectives", 0),
            ("num_objectives", "x"),
            ("num_objectives", True),
            ("num_constraints", -1),
            ("num_constraints", 1.5),
            ("ref_point", [5.0]),
            ("ref_point", ["a", "b"]),
            ("ref_point", 5),
            ("observations", {"0": {}}),
            ("observations", 3),
            ("ref_point", [float("nan"), 5.0]),
            ("ref_point", [5.0, float("inf")]),
            ("ref_point", "12"),
            ("ref_point", ["1", "2"]),
            ("ref_point", [True, 2]),
        ],
    )
    def test_malformed_field_is_parse_error(self, field, value):
        doc = json.loads(export_json(self.mixed_history()))
        doc[field] = value
        with pytest.raises(HistoryParseError) as err:
            import_json(json.dumps(doc))
        assert err.value.field == field

    @pytest.mark.parametrize(
        "index, key, value, field",
        [
            (5, "config", {"lr": 0.5, "opt": "adam"}, "observations[5].config"),
            (5, "config", {"lr": 0.5, "opt": "adam", "k": 1, "extra": 2}, "observations[5].config"),
            (0, "config", {"lr": [0.5], "opt": "adam", "k": 1}, "observations[0].config"),
            (2, "config", {"lr": 0.5, "opt": None, "k": 1}, "observations[2].config"),
            (2, "config", ["lr", "opt", "k"], "observations[2].config"),
            (1, "objectives", ["1.5", 0.0], "observations[1].objectives"),
            (1, "objectives", [True, 0.0], "observations[1].objectives"),
            (1, "objectives", 1.5, "observations[1].objectives"),
            (1, "constraints", ["0.5"], "observations[1].constraints"),
            (3, None, [], "observations[3]"),
        ],
    )
    def test_bad_observation_is_parse_error(self, index, key, value, field):
        doc = json.loads(export_json(self.mixed_history()))
        if key is None:
            doc["observations"][index] = value
        else:
            doc["observations"][index][key] = value
        with pytest.raises(HistoryParseError) as err:
            import_json(json.dumps(doc))
        assert err.value.field == field

    @pytest.mark.parametrize("value", [{"name": "demo"}, 7, None, ["demo"]])
    def test_task_id_must_be_a_string(self, value):
        doc = json.loads(export_json(self.mixed_history()))
        doc["task_id"] = value
        with pytest.raises(HistoryParseError) as err:
            import_json(json.dumps(doc))
        assert err.value.field == "task_id"

    def test_observation_of_the_wrong_width_is_parse_error(self):
        doc = json.loads(export_json(self.mixed_history()))
        doc["observations"][3]["objectives"] = [0.0, 1.0, 2.0]
        with pytest.raises(HistoryParseError) as err:
            import_json(json.dumps(doc))
        assert err.value.field == "observations[3]"


class _StrictChecker(HTMLParser):
    VOID = {"meta", "br", "hr", "img", "input", "link", "circle", "rect", "line", "polyline"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.errors = []

    def handle_starttag(self, tag, attrs):
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        pass

    def handle_endtag(self, tag):
        if tag in self.VOID:
            return
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"mismatched </{tag}> at {self.getpos()}")
        else:
            self.stack.pop()


def check_html(text):
    checker = _StrictChecker()
    checker.feed(text)
    checker.close()
    assert not checker.errors, checker.errors
    assert not checker.stack, f"unclosed tags: {checker.stack}"


class TestRenderHtml:
    def test_contains_table_rows(self):
        h = single_history([3.0, 1.0, 2.0])
        html_text = render_html(h, {})
        assert html_text.count("<tr>") == 1 + 3  # header + one row per observation

    def test_byte_determinism(self):
        h = single_history([3.0, 1.0, 2.0])
        analyses = default_analyses(h)
        assert render_html(h, analyses) == render_html(h, analyses)

    def test_well_formed(self):
        h = single_history(list(np.random.default_rng(0).uniform(size=10)))
        check_html(render_html(h, default_analyses(h)))

    def test_data_island_is_exact_export(self):
        h = self.make_mo_history()
        html_text = render_html(h, default_analyses(h))
        start = html_text.index('id="history-data">') + len('id="history-data">')
        end = html_text.index("</script>", start)
        island = html_text[start:end].strip()
        assert island == export_json(h)

    def make_mo_history(self):
        h = History("mo", num_objectives=2)
        rng = np.random.default_rng(1)
        for i in range(12):
            h.record(obs({"x": float(rng.uniform())}, list(rng.uniform(size=2))))
        return h

    def test_multiobjective_sections(self):
        h = self.make_mo_history()
        text = render_html(h, default_analyses(h))
        assert "Pareto front" in text
        assert "Hypervolume" in text
        check_html(text)

    def test_convergence_section_single_objective(self):
        h = single_history(list(np.random.default_rng(2).uniform(size=8)))
        text = render_html(h, default_analyses(h))
        assert "Convergence" in text
