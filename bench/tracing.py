"""Spans around spphbt's public functions, for the traced benchmark run.

`install` replaces each traced function by a wrapper in the module that
calls it (cli -> pipeline -> montecarlo / optics / correlator / fitter /
tagio), so the program itself is unchanged.  Every call records a span:
name, start, end, parent, the tracemalloc peak above the memory held at
entry, and counts taken from the return value.  `layer_metrics` turns the
spans of one pass into the per-module metrics.
"""

from __future__ import annotations

import functools
import tracemalloc
from dataclasses import asdict, dataclass, field
from pathlib import Path

MB = 1024.0 * 1024.0


@dataclass
class Span:
    index: int
    name: str
    start: float
    parent: int | None
    pass_index: int
    end: float = 0.0
    peak_bytes: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; nesting follows the call stack of one thread."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[Span] = []
        self.pass_index = 0
        # open spans: [span index, traced bytes at entry, peak seen so far]
        self._stack: list[list[int]] = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if counts is not None:
                self.spans[index].counts.update(counts(result))
            return result
        return traced

    def _enter(self, name: str) -> int:
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], peak)
        tracemalloc.reset_peak()
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(index, name, self.clock(), parent, self.pass_index))
        self._stack.append([index, current, current])
        return index

    def _exit(self, index: int) -> None:
        end = self.clock()
        _, peak = tracemalloc.get_traced_memory()
        _, entry_bytes, seen = self._stack.pop()
        peak = max(peak, seen)
        span = self.spans[index]
        span.end = end
        span.peak_bytes = peak - entry_bytes
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], peak)
        tracemalloc.reset_peak()

    def to_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _with_sidecar(path) -> dict:
    return {"bytes_written": _file_bytes(path, str(path) + ".json")}


def install(tracer: Tracer) -> None:
    """Wrap the traced functions where their callers look them up."""
    from spphbt import cli, montecarlo, pipeline, tagio

    def patch(module, attr: str, name: str, counts=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), counts))

    patch(cli, "main", "cli.main")
    patch(cli, "validate_config", "scenarios.validate_config")
    for module in (cli, pipeline):
        patch(module, "correlate_tags", "pipeline.correlate_tags")
        patch(module, "fit_histogram", "pipeline.fit_histogram")
        patch(module, "report_photophysics", "fitter.report_photophysics")
        patch(module, "write_histogram_csv", "tagio.write_histogram_csv", _with_sidecar)
        patch(module, "write_json", "tagio.write_json",
              lambda p: {"bytes_written": _file_bytes(p)})
    patch(cli, "run_pipeline", "pipeline.run_pipeline")
    patch(cli, "read_time_tags", "tagio.read_time_tags")
    patch(cli, "read_histogram_csv", "tagio.read_histogram_csv")
    # `spphbt simulate` imports these from their modules at call time
    patch(pipeline, "acquire", "pipeline.acquire")
    for module in (pipeline, tagio):
        patch(module, "write_time_tags", "tagio.write_time_tags", _with_sidecar)
    patch(pipeline, "simulate_ensemble", "montecarlo.simulate_ensemble",
          lambda s: {"emitted_events": len(s)})
    patch(pipeline, "route_events", "optics.route_events",
          lambda r: {"detected_tags": r.n_detected, "routed_events": r.n_events})
    for attr in ("cross_correlate", "auto_correlate"):
        patch(pipeline, attr, f"correlator.{attr}",
              lambda h: {"pairs": int(h.counts.sum())})
    patch(pipeline, "fit_g2", "fitter.fit_g2", lambda f: {"iterations": f.n_iterations})
    patch(pipeline, "sha256_file", "tagio.sha256_file")
    montecarlo.EventStream.merge = staticmethod(
        tracer.wrap("montecarlo.merge", montecarlo.EventStream.merge))


# per-module metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "montecarlo.simulate_s": "s",
    "montecarlo.merge_s": "s",
    "montecarlo.emitted_events": "count",
    "montecarlo.events_per_s": "1/s",
    "montecarlo.peak_mb": "MB",
    "optics.route_s": "s",
    "optics.detected_tags": "count",
    "optics.kept_ratio": "ratio",
    "optics.peak_mb": "MB",
    "correlator.correlate_s": "s",
    "correlator.pairs": "count",
    "correlator.pairs_per_s": "1/s",
    "correlator.peak_mb": "MB",
    "fitter.fit_s": "s",
    "fitter.iterations": "count",
    "fitter.report_s": "s",
    "tagio.write_tags_s": "s",
    "tagio.read_tags_s": "s",
    "tagio.hist_csv_s": "s",
    "tagio.sha256_s": "s",
    "tagio.bytes_written": "B",
    "pipeline.self_s": "s",
    "cli.self_s": "s",
    "scenarios.resolve_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-module metrics of one pass; a module that did no work reads 0."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def named(*names):
        return [s for s in spans if s.name in names]

    def seconds(*names) -> float:
        return sum(s.duration for s in named(*names))

    def count(key: str, *names) -> int:
        return sum(s.counts.get(key, 0) for s in named(*names))

    def peak_mb(*names) -> float:
        return max((s.peak_bytes for s in named(*names)), default=0) / MB

    def self_seconds(prefix: str) -> float:
        return sum(s.duration - child_time.get(s.index, 0.0)
                   for s in spans if s.name.startswith(prefix))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    correlate = ("correlator.cross_correlate", "correlator.auto_correlate")
    simulate_s = seconds("montecarlo.simulate_ensemble")
    emitted = count("emitted_events", "montecarlo.simulate_ensemble")
    correlate_s = seconds(*correlate)
    pairs = count("pairs", *correlate)
    detected = count("detected_tags", "optics.route_events")
    return {
        "montecarlo.simulate_s": simulate_s,
        "montecarlo.merge_s": seconds("montecarlo.merge"),
        "montecarlo.emitted_events": emitted,
        "montecarlo.events_per_s": ratio(emitted, simulate_s),
        "montecarlo.peak_mb": peak_mb("montecarlo.simulate_ensemble"),
        "optics.route_s": seconds("optics.route_events"),
        "optics.detected_tags": detected,
        "optics.kept_ratio": ratio(detected, count("routed_events", "optics.route_events")),
        "optics.peak_mb": peak_mb("optics.route_events"),
        "correlator.correlate_s": correlate_s,
        "correlator.pairs": pairs,
        "correlator.pairs_per_s": ratio(pairs, correlate_s),
        "correlator.peak_mb": peak_mb(*correlate),
        "fitter.fit_s": seconds("fitter.fit_g2"),
        "fitter.iterations": count("iterations", "fitter.fit_g2"),
        "fitter.report_s": seconds("fitter.report_photophysics"),
        "tagio.write_tags_s": seconds("tagio.write_time_tags"),
        "tagio.read_tags_s": seconds("tagio.read_time_tags"),
        "tagio.hist_csv_s": seconds("tagio.write_histogram_csv", "tagio.read_histogram_csv"),
        "tagio.sha256_s": seconds("tagio.sha256_file"),
        "tagio.bytes_written": count("bytes_written", "tagio.write_time_tags",
                                     "tagio.write_histogram_csv", "tagio.write_json"),
        "pipeline.self_s": self_seconds("pipeline."),
        "cli.self_s": self_seconds("cli."),
        "scenarios.resolve_s": seconds("scenarios.validate_config"),
    }
