"""Span tracer for the traced run of the benchmark.

The tracer wraps bbo's public functions from outside: it replaces the name
that the calling module looks up (``bbo.advisor.fit_gp``,
``bbo.acquisition.encode_matrix``, ``GPModel.predict``, ...) with a wrapper
that records a span. Nothing under ``src/`` is edited.

A span is (id, parent id, call id, name, start, end). Every span opened
while one benchmark call into bbo runs (an ask, a tell, one report
function) shares that call's id. Spans are kept in memory and written out
by :meth:`Tracer.dump`. Self time is span time minus the time of its
direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_call = 0

    def reset(self) -> None:
        """Zero the per-name totals and counts; recorded spans are kept."""
        for totals in (self.self_s, self.total_s, self.calls, self.counts):
            totals.clear()

    # --- spans ---

    def begin(self, name: str) -> None:
        if not self._stack:
            self._next_call += 1
        self._stack.append([len(self.spans) + len(self._stack), name, time.perf_counter(), 0.0])

    def end(self) -> None:
        """Close the innermost span."""
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (span_id, parent[0] if parent else None, self._next_call, name, start, end)
        )
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn, observe=None):
        """Traced stand-in for fn; observe(args, kwargs, result) adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # --- output ---

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def dump(self, path) -> None:
        fields = ["id", "parent", "call", "name", "start", "end"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)


MOO_FUNCTIONS = (
    "dominates",
    "non_dominated_sort",
    "crowding_distance",
    "hypervolume",
    "hypervolume_difference",
)


def instrument(tracer: Tracer) -> None:
    """Patch bbo's public functions, as their callers look them up, to record spans."""
    import bbo.acquisition
    import bbo.advisor
    import bbo.history
    import bbo.moo
    import bbo.report
    import bbo.space
    import bbo.surrogate

    counts = tracer.counts

    def on_fit_gp(args, kwargs, model):
        counts["surrogate.fit_gp.deep_calls"] += kwargs.get("restarts", 2) > 0
        counts["surrogate.fit_gp.jitter_models"] += model.jitter > 0
        rows = np.atleast_2d(args[0]).shape[0]
        counts["surrogate.fit_gp.rows_max"] = max(counts["surrogate.fit_gp.rows_max"], rows)

    def on_predict(args, kwargs, result):
        counts["surrogate.predict.rows"] += len(result[0])

    def on_score(args, kwargs, result):
        counts["acquisition.rows_scored"] += np.atleast_2d(args[0]).shape[0]

    def on_maximize(args, kwargs, ranked):
        counts["acquisition.distinct_returned"] += len(ranked)

    def on_ehvi(args, kwargs, result):
        counts["acquisition.ehvi.rows"] += np.atleast_2d(args[0]).shape[0]

    def on_sample(args, kwargs, configs):
        counts["space.sample_random.configs"] += len(configs)

    def on_encode(args, kwargs, X):
        counts["space.encode_matrix.rows"] += X.shape[0]

    def maximize(fn):
        traced = tracer.wrap("acquisition.maximize", fn, on_maximize)

        def with_traced_score(score_fn, *args, **kwargs):
            return traced(tracer.wrap("acquisition.score", score_fn, on_score), *args, **kwargs)

        return functools.wraps(fn)(with_traced_score)

    advisor, acquisition = bbo.advisor, bbo.acquisition
    advisor.fit_gp = tracer.wrap("surrogate.fit_gp", advisor.fit_gp, on_fit_gp)
    advisor.fit_prf = tracer.wrap("surrogate.fit_prf", advisor.fit_prf)
    advisor.maximize_acquisition = maximize(advisor.maximize_acquisition)
    advisor.ehvi = tracer.wrap("acquisition.ehvi", advisor.ehvi, on_ehvi)
    for model in (bbo.surrogate.GPModel, bbo.surrogate.PRFModel):
        model.predict = tracer.wrap("surrogate.predict", model.predict, on_predict)

    sample_random = tracer.wrap("space.sample_random", bbo.space.sample_random, on_sample)
    encode_matrix = tracer.wrap("space.encode_matrix", bbo.space.encode_matrix, on_encode)
    for module in (advisor, acquisition):
        module.sample_random = sample_random
    for module in (advisor, acquisition, bbo.history, bbo.report):
        module.encode_matrix = encode_matrix

    config_hash = bbo.space.Configuration.__hash__

    def counted_hash(config):
        counts["space.config_hash.calls"] += 1
        return config_hash(config)

    bbo.space.Configuration.__hash__ = counted_hash

    history = bbo.history.History
    for name in ("record", "training_targets", "pareto_front"):
        setattr(history, name, tracer.wrap(f"history.{name}", getattr(history, name)))
    for name in MOO_FUNCTIONS:
        setattr(bbo.moo, name, tracer.wrap(f"moo.{name}", getattr(bbo.moo, name)))
