"""Layer spans and counts, recorded from outside ladderforge.

:meth:`Tracer.install` replaces public functions of the program's modules
with timing wrappers.  Each wrapper sits where the caller looks the name up:
``cli`` binds ``parse_y4m`` by name and ``ladder`` binds ``forest.predict``
by name, so those are wrapped in the importing module, while calls made
through a module attribute (``forest.fit``) are wrapped on that module.
Spans are kept in memory as ``(name, start_ns, end_ns)`` and turned into
per-layer figures by :func:`layer_figures`.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

MIB = float(1 << 20)

# Per-layer metrics in the order they are reported.  "ms" figures are busy
# time (the sum of span durations); the rest are counts.
PER_LAYER = (
    "media.parse_y4m.ms", "media.input_mib",
    "complexity.segment_features.ms", "complexity.frames", "complexity.ms_per_frame",
    "forest.load_training_csv.ms", "forest.fit.ms", "forest.fit.trees", "forest.nodes",
    "forest.serialize_model.ms", "forest.deserialize_model.ms", "forest.model_mib",
    "forest.predict.calls", "forest.predict.ms",
    "ladder.predict_grid.ms", "ladder.grid_cells", "ladder.build_ladder.ms",
    "ladder.prune_jnd.ms", "ladder.rungs_built", "ladder.rungs_kept", "ladder.rungs_over_budget",
    "metrics.load_evaluation_csv.ms", "metrics.compare_schemes.ms",
    "metrics.bd_fits", "metrics.bd_fits_failed",
    *(f"cli.{command}.{kind}" for command in ("analyze", "train", "ladder", "evaluate")
      for kind in ("ms", "self_ms")),
    "cli.workers", "process.cpu_s",
)


def unit(metric: str) -> str:
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith("cpu_s"):
        return "s"
    if metric.endswith(("ms", "ms_per_frame")):
        return "ms"
    return "count"


class Tracer:
    """Collects spans and counts until :meth:`take` hands them over."""

    def __init__(self):
        self.spans: list[tuple[str, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter_ns()))

    def wrap(self, module, attr: str, name: str | None, count=None) -> None:
        """Time ``module.attr`` as span ``name``; ``count(tracer, args, result)``
        runs after the span closes so its cost is not charged to the layer."""
        original = getattr(module, attr)
        spans = self.spans

        def traced(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                if name is not None:
                    spans.append((name, start, time.perf_counter_ns()))
            if count is not None:
                count(self, args, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def install(self, cli, complexity, forest, ladder, metrics) -> None:
        # Functions without a metric of their own (the features CSV reader
        # and writer, forest.evaluate apart from its predictions, and
        # ladder_to_manifest, wrapped only to count rungs) get no span, so
        # their cost stays in the command's self time.
        add = self.add
        self.wrap(cli, "parse_y4m", "media.parse_y4m",
                  lambda t, a, r: add("media.input_mib", len(a[0]) / MIB))
        self.wrap(complexity, "segment_features", "complexity.segment_features",
                  lambda t, a, r: add("complexity.frames", len(a[0])))
        self.wrap(forest, "load_training_csv", "forest.load_training_csv")
        self.wrap(forest, "fit", "forest.fit",
                  lambda t, a, r: add("forest.fit.trees", len(r.trees)))
        self.wrap(forest, "serialize_model", "forest.serialize_model")
        self.wrap(forest, "deserialize_model", "forest.deserialize_model",
                  lambda t, a, r: add("forest.model_mib", len(a[0]) / MIB))
        # Called tens of thousands of times from two threads, so it gets no
        # count callback: round_figures counts its spans instead.
        for module in (forest, ladder):  # forest.evaluate and ladder.predict_grid
            self.wrap(module, "predict", "forest.predict")
        self.wrap(ladder, "predict_grid", "ladder.predict_grid",
                  lambda t, a, r: add("ladder.grid_cells", len(r.entries)))

        def built(tracer, args, ladder_):
            add("ladder.rungs_built", len(ladder_.reps))
            add("ladder.rungs_over_budget", sum(rep.over_budget for rep in ladder_.reps))

        self.wrap(ladder, "build_ladder", "ladder.build_ladder", built)
        self.wrap(ladder, "prune_jnd", "ladder.prune_jnd")

        def kept(tracer, args, manifest):
            if args[1] != "baseline":
                add("ladder.rungs_kept", len(manifest["reps"]))

        self.wrap(ladder, "ladder_to_manifest", None, kept)
        self.wrap(metrics, "load_evaluation_csv", "metrics.load_evaluation_csv")
        self.wrap(metrics, "compare_schemes", "metrics.compare_schemes")
        self.wrap(cli, "_worker_count", None, lambda t, a, r: t.peak("cli.workers", r))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def take(self) -> tuple[list, dict]:
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def _covered_ns(start: int, end: int, spans) -> int:
    """Length of [start, end] covered by the union of ``spans``."""
    covered, reach = 0, start
    for s, e in sorted((max(s, start), min(e, end)) for s, e in spans):
        if e <= reach:
            continue
        covered += e - max(s, reach)
        reach = e
    return covered


def round_figures(spans, counts: dict, calls: int) -> dict[str, float]:
    """One round's per-layer figures, per timed call."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    for name, value in counts.items():
        out[name] = value / calls if name != "cli.workers" else value
    children = [(s, e) for name, s, e in spans if not name.startswith("cli.")]
    for name, start, end in spans:
        key = f"{name}.ms"
        if key in out:
            out[key] += (end - start) / 1e6 / calls
        if name == "forest.predict":
            out["forest.predict.calls"] += 1 / calls
        if name.startswith("cli."):
            own = end - start - _covered_ns(start, end, children)
            out[f"{name}.self_ms"] += own / 1e6 / calls
    if out["complexity.frames"]:
        out["complexity.ms_per_frame"] = (
            out["complexity.segment_features.ms"] / out["complexity.frames"])
    return out


def layer_figures(rounds: list[dict[str, float]]) -> dict[str, dict]:
    """Median over rounds of each per-layer figure, with its unit."""
    return {
        name: {"value": statistics.median(r[name] for r in rounds), "unit": unit(name)}
        for name in PER_LAYER
    }
