"""Analysis series and static artifacts derived from a History.

Everything here is a pure function of its inputs: the HTML report is
byte-deterministic (inline SVG charts, no timestamps, no external assets)
and embeds the canonical history JSON as a data island. The JSON export
uses a fixed field order so identical histories serialize to identical
bytes.
"""

from __future__ import annotations

import html
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import moo
from .errors import HistoryParseError, InsufficientDataError, WrongTaskTypeError
from .history import History, Observation, TrialState
from .space import Configuration
from .surrogate import fit_prf

SCHEMA_VERSION = "1"


# --- series ---


def convergence_curve(history: History) -> list[tuple[int, float]]:
    """(trial index, best feasible objective so far) for single-objective runs.

    Indices are 1-based; indices before the first feasible success are
    omitted, and the series is nonincreasing.
    """
    if history.num_objectives != 1:
        raise WrongTaskTypeError("convergence_curve is defined for single-objective tasks")
    out = []
    best = math.inf
    for i, obs in enumerate(history.observations, start=1):
        if obs.is_feasible:
            best = min(best, obs.objectives[0])
        if best < math.inf:
            out.append((i, best))
    return out


def hv_over_time(history: History, ref_point: Sequence[float]) -> list[tuple[int, float]]:
    """(trial index, hypervolume of the feasible front) after each observation.

    Keeps a running front in arrival order: the feasible points within the
    reference point that ``moo._pareto_filter`` keeps, which are the rows
    ``moo.hypervolume`` measures of all feasible points so far. The value is
    recomputed only when an observation joins that front, so each is the
    same float as the hypervolume of its prefix.
    """
    if history.num_objectives < 2:
        raise WrongTaskTypeError("hv_over_time is defined for multi-objective tasks")
    ref = np.asarray(ref_point, dtype=float)
    out = []
    front = np.empty((0, ref.shape[0]))
    value = 0.0
    for i, obs in enumerate(history.observations, start=1):
        if obs.is_feasible and np.all(np.asarray(obs.objectives, dtype=float) <= ref):
            candidates = np.vstack([front, obs.objectives])
            keep = moo._pareto_filter(candidates)
            if keep[-1] == len(front):  # neither dominated by nor equal to a kept point
                front = candidates[keep]
                value = moo.hypervolume(front, ref)
        out.append((i, value))
    return out


# --- parameter importance (Monte Carlo permutation Shapley on a forest) ---


_N_BACKGROUND = 32  # background rows the hybrids start from
_N_EXPLICANDS = 64  # rows whose Shapley values are averaged


@dataclass
class ImportanceResult:
    """Per-parameter mean |Shapley| plus per-explicand efficiency diagnostics."""

    per_parameter: dict[str, float]
    row_residuals: np.ndarray  # |sum(phi) - (prediction - baseline)| per explicand
    row_tolerances: np.ndarray  # 3 Monte Carlo standard errors per explicand


def _design_matrix(history: History) -> tuple[np.ndarray, list[str]]:
    """One encoded column per parameter for all SUCCESS observations.

    Bounds and categories are inferred from the observed values; constant
    columns encode to zero.
    """
    configs = [o.config for o in history.successes()]
    names = list(configs[0].values.keys())
    X = np.zeros((len(configs), len(names)))
    for j, name in enumerate(names):
        values = [c.values[name] for c in configs]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            lo, hi = min(values), max(values)
            if hi > lo:
                X[:, j] = [(v - lo) / (hi - lo) for v in values]
        else:
            seen: dict = {}
            for v in values:
                seen.setdefault(v, len(seen))
            k = len(seen)
            if k > 1:
                X[:, j] = [seen[v] / (k - 1) for v in values]
    return X, names


def importance_shapley(
    history: History,
    n_permutations: int = 256,
    rng: Optional[np.random.Generator] = None,
) -> ImportanceResult:
    """Per-parameter importance as mean |Shapley value| of a forest surrogate.

    Fits a random forest to the history's first objective, then estimates
    Shapley values of up to 64 rows by permutation sampling against up to
    32 background rows. Each of ``n_permutations`` (at least 2) samples
    pairs a feature permutation with a background row; its hybrid k holds
    the background row with the first k permuted features taken from the
    explicand, and the gaps between consecutive hybrids' predictions are the
    features' marginal contributions.

    Draw order, after the forest's fit: the background rows, the explicand
    rows, then for each explicand in turn two ``rng.permuted`` calls, each
    shuffling every row of a tile. With S = ``n_permutations`` and B the
    background size, the first shuffles an (S, d) tile of ``arange(d)``:
    row s gives each feature's rank in sample s (the inverse of a uniform
    permutation is uniform). The second shuffles a (ceil(S / B), B) tile of
    ``arange(B)``; its first S entries, read row by row, are the samples'
    background rows. So the background is stratified: each row serves
    ⌊S/B⌋ or ⌈S/B⌉ samples. The per-row values telescope, so efficiency
    holds up to the Monte Carlo error of the samples' mean background
    prediction, and exactly, to rounding, when S is a multiple of B.
    """
    if n_permutations < 2:
        raise ValueError(f"n_permutations must be >= 2, got {n_permutations}")
    if rng is None:
        rng = np.random.default_rng(0)
    successes = history.successes()
    if not successes:
        raise InsufficientDataError("importance needs SUCCESS observations")
    X, names = _design_matrix(history)
    d = len(names)
    if len(successes) < 2 * d:
        raise InsufficientDataError(
            f"importance needs at least {2 * d} SUCCESS observations, have {len(successes)}"
        )
    y = np.array([o.objectives[0] for o in successes])
    model = fit_prf(X, y, rng=rng)

    n = X.shape[0]
    bg_idx = rng.permutation(n)[:_N_BACKGROUND]
    ex_idx = rng.permutation(n)[:_N_EXPLICANDS]
    background = X[bg_idx]
    bg_pred = model._mean(background)
    ex_pred = model._mean(X[ex_idx])
    baseline = float(bg_pred.mean())

    ranks = np.tile(np.arange(d), (n_permutations, 1))
    n_bg = background.shape[0]
    bg_rows = np.tile(np.arange(n_bg), (-(-n_permutations // n_bg), 1))
    steps = np.arange(1, d)[None, :, None]
    preds = np.empty((n_permutations, d + 1))
    phi = np.zeros((len(ex_idx), d))
    residuals = np.empty(len(ex_idx))
    tolerances = np.empty(len(ex_idx))
    for row, i in enumerate(ex_idx):
        # rank[s, f]: position of feature f in sample s's permutation
        rank = rng.permuted(ranks, axis=1)
        # stratified background: whole shuffles of the rows, cut to S samples
        z_idx = rng.permuted(bg_rows, axis=1).ravel()[:n_permutations]
        # hybrids 0 and d are the background row and the explicand, already
        # predicted; the forest's predictions do not depend on the call's rows
        hybrids = np.where(rank[:, None, :] < steps, X[i], background[z_idx][:, None, :])
        preds[:, 0] = bg_pred[z_idx]
        preds[:, 1:d] = model._mean(hybrids.reshape(-1, d)).reshape(n_permutations, d - 1)
        preds[:, d] = ex_pred[row]
        # marginal of feature f in sample s: the step that added it
        marginals = np.take_along_axis(np.diff(preds, axis=1), rank, axis=1)
        # cumsum adds sample by sample, the order of the per-sample
        # reference loop in tests/test_report.py, so the bits match it
        phi[row] = np.cumsum(marginals, axis=0)[-1] / n_permutations

        f_x = preds[:, -1].mean()  # equals model prediction at x for every sample
        z_preds = preds[:, 0]
        residuals[row] = abs(phi[row].sum() - (f_x - baseline))
        tolerances[row] = 3.0 * (z_preds.std(ddof=1) / math.sqrt(n_permutations) + 1e-12)

    importance = {name: float(v) for name, v in zip(names, np.abs(phi).mean(axis=0))}
    return ImportanceResult(importance, residuals, tolerances)


# --- history JSON (canonical field order, version "1") ---


def export_json(history: History) -> str:
    """Serialize a history to the canonical JSON document."""
    doc = {
        "version": SCHEMA_VERSION,
        "task_id": history.task_id,
        "num_objectives": history.num_objectives,
        "num_constraints": history.num_constraints,
        "ref_point": list(history.ref_point) if history.ref_point is not None else None,
        "observations": [
            {
                "config": dict(obs.config.values),
                "objectives": list(obs.objectives) if obs.objectives is not None else None,
                "constraints": list(obs.constraints) if obs.constraints is not None else None,
                "trial_state": obs.trial_state.value,
                "elapsed_time": obs.elapsed_time,
                "extra": dict(obs.extra),
            }
            for obs in history.observations
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=True, allow_nan=False)


def _is_number(value, kind=(int, float)) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_number_list(value) -> bool:
    """Whether ``value`` is null or a list of numbers."""
    return value is None or (isinstance(value, list) and all(map(_is_number, value)))


def _check_observation(entry, names: Optional[set], where: str) -> None:
    """Raise HistoryParseError unless entry's config is an object with
    scalar values (and the keys ``names``, when given), its objectives and
    constraints are null or lists of numbers, and any extra is an object."""
    if not isinstance(entry, dict):
        raise HistoryParseError("must be an object", field=where)
    config = entry.get("config")
    if not isinstance(config, dict):
        raise HistoryParseError("must be an object", field=f"{where}.config")
    if names is not None and set(config) != names:
        raise HistoryParseError(
            f"must name the parameters {sorted(names)}, got {sorted(config)}",
            field=f"{where}.config",
        )
    for name, value in config.items():
        if not isinstance(value, (str, int, float)):
            raise HistoryParseError(
                f"{name!r} must be a string, number or boolean, got {value!r}",
                field=f"{where}.config",
            )
    for key in ("objectives", "constraints"):
        if not _is_number_list(entry.get(key)):
            message = f"must be null or a list of numbers, got {entry[key]!r}"
            raise HistoryParseError(message, field=f"{where}.{key}")
    if not isinstance(entry.get("extra", {}), dict):
        raise HistoryParseError(f"must be an object, got {entry['extra']!r}", field=f"{where}.extra")


def import_json(text: str) -> History:
    """Parse the canonical JSON document back into a History."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise HistoryParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, dict):
        raise HistoryParseError("history document must be a JSON object")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise HistoryParseError(
            f"unsupported history version {version!r}", field="version"
        )
    for key in ("task_id", "num_objectives", "num_constraints", "observations"):
        if key not in doc:
            raise HistoryParseError("missing required field", field=key)
    for key, least in (("num_objectives", 1), ("num_constraints", 0)):
        value = doc[key]
        if not _is_number(value, int) or value < least:
            raise HistoryParseError(f"must be an integer >= {least}, got {value!r}", field=key)
    if not isinstance(doc["task_id"], str):
        raise HistoryParseError(f"must be a string, got {doc['task_id']!r}", field="task_id")
    if not isinstance(doc["observations"], list):
        raise HistoryParseError("must be a list", field="observations")
    if not _is_number_list(doc.get("ref_point")):
        message = f"must be null or a list of numbers, got {doc['ref_point']!r}"
        raise HistoryParseError(message, field="ref_point")
    try:
        history = History(
            task_id=doc["task_id"],
            num_objectives=doc["num_objectives"],
            num_constraints=doc["num_constraints"],
            ref_point=doc.get("ref_point"),
        )
    except (TypeError, ValueError) as exc:
        raise HistoryParseError(f"bad reference point: {exc}", field="ref_point") from None
    names = None
    for i, entry in enumerate(doc["observations"]):
        _check_observation(entry, names, f"observations[{i}]")
        names = set(entry["config"])
        try:
            state = TrialState(entry["trial_state"])
            obs = Observation(
                config=Configuration(entry["config"]),
                objectives=entry.get("objectives"),
                constraints=entry.get("constraints"),
                trial_state=state,
                elapsed_time=entry.get("elapsed_time", 0.0),
                extra=dict(entry.get("extra", {})),
            )
            history.record(obs)
        except (KeyError, TypeError, ValueError) as exc:
            raise HistoryParseError(
                f"bad observation: {exc}", field=f"observations[{i}]"
            ) from None
    return history


# --- static HTML report ---

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif; margin: 2em auto;
       max-width: 960px; color: #1a202c; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em; }
table { border-collapse: collapse; font-size: 0.85em; width: 100%; }
th, td { border: 1px solid #cbd5e0; padding: 0.3em 0.6em; text-align: right; }
th { background: #edf2f7; }
td.state-FAILED { color: #c53030; } td.state-TIMEOUT { color: #b7791f; }
.meta { color: #4a5568; font-size: 0.9em; }
svg { background: #fbfbfd; border: 1px solid #e2e8f0; }
""".strip()


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _svg_xy_chart(series, width, height, title, draw) -> str:
    """Self-contained SVG with title, axes and range labels for (x, y) pairs;
    ``draw`` renders the data from their pixel coordinates."""
    pad = 46
    xs = [float(p[0]) for p in series]
    ys = [float(p[1]) for p in series]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def sx(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        f'<svg width="{width}" height="{height}" xmlns="http://www.w3.org/2000/svg">',
        f'<text x="{pad}" y="18" font-size="13" fill="#2d3748">{html.escape(title)}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="#a0aec0"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="#a0aec0"/>',
        f'<text x="{pad}" y="{height - pad + 16}" font-size="11">{_fmt(x_lo)}</text>',
        f'<text x="{width - pad - 20}" y="{height - pad + 16}" font-size="11">{_fmt(x_hi)}</text>',
        f'<text x="4" y="{height - pad}" font-size="11">{_fmt(y_lo)}</text>',
        f'<text x="4" y="{pad}" font-size="11">{_fmt(y_hi)}</text>',
        draw([(_fmt(sx(x)), _fmt(sy(y))) for x, y in zip(xs, ys)]),
        "</svg>",
    ]
    return "".join(parts)


def _svg_line_chart(series, width=640, height=280, color="#2b6cb0", title=""):
    """Step/line chart of (index, value) pairs as a self-contained SVG."""

    def polyline(pixels):
        points = " ".join(f"{x},{y}" for x, y in pixels)
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{points}"/>'

    return _svg_xy_chart(series, width, height, title, polyline)


def _svg_scatter(points, width=420, height=340, title=""):
    """Scatter of 2-D objective vectors (first two objectives)."""

    def dots(pixels):
        return "".join(f'<circle cx="{x}" cy="{y}" r="3.5" fill="#2f855a"/>' for x, y in pixels)

    return _svg_xy_chart(points, width, height, title, dots)


def _svg_bar_chart(items, width=640, title=""):
    """Horizontal bars for (label, value) pairs."""
    top = 30
    row_h = 26
    height = top + row_h * len(items) + 10
    vmax = max(v for _, v in items) or 1.0
    label_w = 150
    parts = [
        f'<svg width="{width}" height="{height}" xmlns="http://www.w3.org/2000/svg">',
        f'<text x="8" y="18" font-size="13" fill="#2d3748">{html.escape(title)}</text>',
    ]
    for i, (label, value) in enumerate(items):
        y = top + i * row_h
        bar = (value / vmax) * (width - label_w - 80)
        parts.append(
            f'<text x="{label_w - 8}" y="{y + 14}" font-size="12" text-anchor="end">'
            f"{html.escape(str(label))}</text>"
        )
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{_fmt(bar)}" height="18" fill="#6b46c1"/>'
        )
        parts.append(
            f'<text x="{_fmt(label_w + bar + 6)}" y="{y + 14}" font-size="11">{_fmt(value)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _observation_rows(history: History) -> str:
    rows = []
    for i, obs in enumerate(history.observations, start=1):
        config_txt = ", ".join(f"{k}={v}" for k, v in obs.config.values.items())
        objs = (
            ", ".join(_fmt(v) for v in obs.objectives) if obs.objectives is not None else "-"
        )
        cons = (
            ", ".join(_fmt(v) for v in obs.constraints)
            if obs.constraints is not None
            else "-"
        )
        state = obs.trial_state.value
        rows.append(
            "<tr>"
            f"<td>{i}</td>"
            f'<td style="text-align:left">{html.escape(config_txt)}</td>'
            f"<td>{html.escape(objs)}</td>"
            f"<td>{html.escape(cons)}</td>"
            f'<td class="state-{state}">{state}</td>'
            f"<td>{_fmt(obs.elapsed_time)}</td>"
            "</tr>"
        )
    return "\n".join(rows)


def render_html(history: History, analyses: Optional[dict] = None) -> str:
    """Render a self-contained static HTML report.

    ``analyses`` may hold precomputed series: ``convergence`` (index, value
    pairs), ``hv`` (index, value pairs), ``pareto`` (objective vectors), and
    ``importance`` (name -> value). The exact canonical history JSON is
    embedded as a data island. Output is byte-deterministic.
    """
    analyses = analyses or {}
    sections = []
    if analyses.get("convergence"):
        sections.append("<h2>Convergence</h2>")
        sections.append(
            _svg_line_chart(analyses["convergence"], title="best feasible objective vs trial")
        )
    if analyses.get("pareto"):
        sections.append("<h2>Pareto front</h2>")
        sections.append(_svg_scatter(analyses["pareto"], title="objective 1 vs objective 2"))
    if analyses.get("hv"):
        sections.append("<h2>Hypervolume</h2>")
        sections.append(_svg_line_chart(analyses["hv"], color="#2f855a", title="hypervolume vs trial"))
    if analyses.get("importance"):
        items = sorted(analyses["importance"].items(), key=lambda kv: (-kv[1], kv[0]))
        sections.append("<h2>Parameter importance</h2>")
        sections.append(_svg_bar_chart(items, title="mean |Shapley value|"))

    n_success = len(history.successes())
    doc = f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Optimization report: {html.escape(history.task_id)}</title>
<style>
{_CSS}
</style>
</head>
<body>
<h1>Optimization report: {html.escape(history.task_id)}</h1>
<p class="meta">{len(history)} trials ({n_success} succeeded), {history.num_objectives} objective(s), {history.num_constraints} constraint(s)</p>
{chr(10).join(sections)}
<h2>Observations</h2>
<table>
<thead><tr><th>#</th><th>configuration</th><th>objectives</th><th>constraints</th><th>state</th><th>elapsed (s)</th></tr></thead>
<tbody>
{_observation_rows(history)}
</tbody>
</table>
<script type="application/json" id="history-data">
{export_json(history)}
</script>
</body>
</html>
"""
    return doc


def default_analyses(history: History) -> dict:
    """Compute the standard analysis bundle for a history's task type."""
    analyses: dict = {}
    if history.num_objectives == 1:
        analyses["convergence"] = convergence_curve(history)
    else:
        ref = history.reference_point()
        if ref is not None:
            analyses["hv"] = hv_over_time(history, ref)
        analyses["pareto"] = [o.objectives for o in history.pareto_front()]
    try:
        result = importance_shapley(history, rng=np.random.default_rng(0))
        analyses["importance"] = result.per_parameter
    except InsufficientDataError:
        pass
    return analyses
