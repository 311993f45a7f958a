"""Spans recorded around the benchmark's calls into the library's layers.

Every call a workload makes into ``petalstar`` goes through ``tracer.call``.
The untraced run passes a :class:`NullTracer`, which only forwards the call;
the traced run passes a :class:`Tracer`, which keeps one :class:`Span` per
call in memory and writes them out when the run ends.  Spans are recorded
only here, in the benchmark's own files; the library is measured from
outside.

Span names are ``<layer>.<what>[.<variant>]``, where ``<layer>`` is a module
of ``petalstar`` (``search``, ``series``, ``functionals``, ``extremal``,
``diskmax``, ``caratheodory``).  Each op is a root span named ``op``; the
layer calls it makes are its children.  Spans whose name starts with
``baseline.`` belong to the traced run's single-threaded reference scan and
are kept out of the layer totals.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    op_id: int
    parent: int | None
    start: float
    end: float = 0.0
    cpu_s: float = 0.0
    work: int = 0
    failed: bool = False
    failed_layer: str | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """Forwards calls untouched; used for the untraced (end-to-end) run."""

    op_id = -1

    def call(self, name, fn, *args, work=None, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call, with wall and process CPU time.

    ``work`` is a count of work units for the span: an int, or a function
    of the call's result (for example the samples of a ``BoundReport``).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_id = -1

    def call(self, name, fn, *args, work=None, **kwargs):
        span = Span(name, self.op_id, self._stack[-1] if self._stack else None, 0.0)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        cpu0 = time.process_time()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except GateError as exc:
            span.failed = True
            span.failed_layer = exc.layer
            raise
        except Exception:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            span.cpu_s = time.process_time() - cpu0
            self._stack.pop()
        if work is not None:
            span.work = int(work(result) if callable(work) else work)
        return result

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


class GateError(Exception):
    """An op's output failed its correctness gate; ``layer`` produced it."""

    def __init__(self, layer: str, message: str):
        super().__init__(f"{layer}: {message}")
        self.layer = layer


LAYERS = ("search", "series", "functionals", "extremal", "diskmax", "caratheodory")


def _busy(spans) -> float:
    return sum(s.wall_s for s in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, ops: int, baseline_search_s: float | None) -> dict:
    """The per-layer metrics, each as ``(value, unit)``, derived from spans.

    ``ops`` is the number of traced ops; ``baseline_search_s`` the busy time
    of the single-threaded reference certification (certify only).
    """
    calls = [s for s in spans if s.name != "op" and not s.name.startswith("baseline.")]
    by_layer = {layer: [s for s in calls if s.layer == layer] for layer in LAYERS}

    def named(prefix):
        return [s for s in calls if s.name == prefix or s.name.startswith(prefix + ".")]

    search = by_layer["search"]
    points = sum(s.work for s in search)
    search_busy = _busy(search)
    hankel = [s for s in search if s.name.endswith(".hankel")]
    toeplitz = [s for s in search if s.name.endswith(".toeplitz")]
    revert = named("series.revert")
    compose = named("series.compose")
    build = named("extremal.build")
    class_check = named("extremal.class_check")
    closed_disk = named("diskmax.closed")
    oracle = named("diskmax.oracle")

    m = {
        "search.calls": (len(search), "count"),
        "search.points": (points, "count"),
        "search.busy_s": (search_busy, "s"),
        "search.ns_per_point": (_ratio(search_busy * 1e9, points), "ns"),
        "search.cpu_per_wall": (_ratio(sum(s.cpu_s for s in search), search_busy), "ratio"),
        "search.thread_speedup": (
            _ratio(baseline_search_s or 0.0, search_busy / ops if ops else 0.0), "ratio"
        ),
        "search.call_p50_ms": (_p50([s.wall_s * 1e3 for s in search]), "ms"),
        "search.max.busy_s": (_busy(named("search.max")), "s"),
        "search.min.busy_s": (_busy(named("search.min")), "s"),
        "search.hankel.busy_s": (_busy(hankel), "s"),
        "search.toeplitz.busy_s": (_busy(toeplitz), "s"),
        "series.revert.calls": (len(revert), "count"),
        "series.revert.busy_s": (_busy(revert), "s"),
        "series.revert.p50_ms": (_p50([s.wall_s * 1e3 for s in revert]), "ms"),
        "series.compose.calls": (len(compose), "count"),
        "series.compose.busy_s": (_busy(compose), "s"),
        "functionals.calls": (len(by_layer["functionals"]), "count"),
        "functionals.busy_s": (_busy(by_layer["functionals"]), "s"),
        "functionals.inv_log.busy_s": (_busy(named("functionals.inv_log_coeffs")), "s"),
        "functionals.closed.busy_s": (_busy(named("functionals.closed")), "s"),
        "extremal.build.calls": (len(build), "count"),
        "extremal.build.busy_s": (_busy(build), "s"),
        "extremal.class_check.calls": (len(class_check), "count"),
        "extremal.class_check.busy_s": (_busy(class_check), "s"),
        "extremal.class_check.us_per_sample": (
            _ratio(_busy(class_check) * 1e6, sum(s.work for s in class_check)), "us"
        ),
        "diskmax.closed.calls": (len(closed_disk), "count"),
        "diskmax.closed.busy_s": (_busy(closed_disk), "s"),
        "diskmax.oracle.calls": (len(oracle), "count"),
        "diskmax.oracle.busy_s": (_busy(oracle), "s"),
        "diskmax.oracle.ns_per_point": (
            _ratio(_busy(oracle) * 1e9, sum(s.work for s in oracle)), "ns"
        ),
        "caratheodory.calls": (len(by_layer["caratheodory"]), "count"),
        "caratheodory.busy_s": (_busy(by_layer["caratheodory"]), "s"),
    }
    # a layer's failures: its calls that raised, plus ops whose gate
    # rejected that layer's output
    for layer in LAYERS:
        raised = sum(1 for s in by_layer[layer] if s.failed)
        gated = sum(1 for s in spans if s.name == "op" and s.failed_layer == layer)
        m[f"{layer}.failed"] = (raised + gated, "count")
    return m
