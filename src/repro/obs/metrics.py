"""Typed metrics: counters, gauges, and histograms with labels.

A :class:`MetricsRegistry` is a queryable, exportable store of labelled
series.  Three consumers build one:

* the exploration service keeps one live registry
  (``ExplorationService.metrics``) that its hot path updates; its
  ``counters()`` ints and BENCH counter block are views over it, and
  its latency histograms are fed from the spans that time each stage;
* ``repro trace --prometheus`` rebuilds one from a flushed trace
  (stage histograms, escalation-rung counters, contract timing);
* ``repro dash`` merges the registries scraped from N replicas.

Sweep BENCH files are not registry views:
:class:`~repro.runtime.metrics.SweepMetrics` keeps plain per-group
fields, filled from the same spans the trace records (see
:mod:`repro.obs.trace`), so the two agree.

Everything here is dependency-free stdlib; rendering follows the
Prometheus text exposition format so a node_exporter textfile collector
can scrape snapshots directly.

Two serving-stack extensions ride on the same types:

* **Buckets** — a :class:`Histogram` constructed with ``buckets=...``
  keeps cumulative per-bucket counts (Prometheus ``_bucket{le=...}``
  rendering, always monotone, closed by ``+Inf``) alongside the
  count/sum/min/max summary, and can estimate quantiles from them.
  The bucket-free default stays a pure summary.
* **Merge + wire form** — every metric can :meth:`merge` a peer of the
  same type, and a :class:`MetricsRegistry` round-trips through a
  plain-JSON wire form (:meth:`~MetricsRegistry.to_wire` /
  :meth:`~MetricsRegistry.from_wire`).  ``repro dash`` uses both to
  fold N replicas' scraped registries into one fleet-wide view whose
  counters are exact per-replica sums.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
]

LabelKey = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds) for service-path histograms:
#: sub-millisecond cache hits through minute-scale supervised solves.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


@dataclass
class Counter:
    """A monotonically increasing sum, optionally split by labels.

    Mutators take a per-metric lock: the exploration service increments
    from both its event loop and ``to_thread`` solver threads, and a
    lost first-touch of a label key would silently undercount.
    """

    name: str
    help: str = ""
    _series: Dict[LabelKey, float] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, amount: float = 1.0, **labels) -> None:
        self._add(_label_key(labels), amount)

    def labels(self, **labels) -> "_BoundCounter":
        """A child bound to one label set: its ``inc`` skips building
        and sorting the label key (hot paths bind once, up front).  The
        series appears on the first ``inc``, as with ``inc(**labels)``."""
        return _BoundCounter(self, _label_key(labels))

    def _add(self, key: LabelKey, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def merge(self, other: "Counter") -> None:
        """Fold another counter's series into this one (sums add)."""
        with self._lock:
            for key, value in other.series().items():
                self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        return sum(self.series().values())

    def series(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._series)

    def by_label(self, label: str) -> Dict[str, float]:
        """Sum series grouped by one label's values."""
        out: Dict[str, float] = {}
        for key, value in self._series.items():
            for name, lv in key:
                if name == label:
                    out[lv] = out.get(lv, 0.0) + value
        return out

    def to_prometheus(self, prefix: str) -> List[str]:
        full = f"{prefix}{self.name}"
        lines = []
        if self.help:
            lines.append(f"# HELP {full} {self.help}")
        lines.append(f"# TYPE {full} counter")
        if not self._series:
            lines.append(f"{full} 0")
        for key in sorted(self._series):
            lines.append(f"{full}{_render_labels(key)} {self._series[key]:.9g}")
        return lines


@dataclass
class Gauge:
    """A point-in-time value that can move either way."""

    name: str
    help: str = ""
    _series: Dict[LabelKey, float] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in (values add — fleet totals semantics)."""
        with self._lock:
            for key, value in other.series().items():
                self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def series(self) -> Dict[LabelKey, float]:
        return dict(self._series)

    def to_prometheus(self, prefix: str) -> List[str]:
        full = f"{prefix}{self.name}"
        lines = []
        if self.help:
            lines.append(f"# HELP {full} {self.help}")
        lines.append(f"# TYPE {full} gauge")
        if not self._series:
            lines.append(f"{full} 0")
        for key in sorted(self._series):
            lines.append(f"{full}{_render_labels(key)} {self._series[key]:.9g}")
        return lines


@dataclass
class _HistogramSeries:
    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    #: Per-bucket (non-cumulative) counts, parallel to the histogram's
    #: ``buckets`` tuple plus one overflow slot; empty when bucket-free.
    bucket_counts: List[int] = field(default_factory=list)

    def observe(self, value: float, buckets: Tuple[float, ...]) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if buckets:
            if not self.bucket_counts:
                self.bucket_counts = [0] * (len(buckets) + 1)
            self.bucket_counts[bisect_left(buckets, value)] += 1

    def cumulative(self) -> List[int]:
        """Cumulative bucket counts (monotone; last == observations)."""
        out: List[int] = []
        running = 0
        for n in self.bucket_counts:
            running += n
            out.append(running)
        return out


@dataclass
class Histogram:
    """Count / sum / min / max per label set, with optional buckets.

    Bucket-free (the default) it is a pure summary: the quantities the
    BENCH schema needs are totals and counts, and the full sample
    distribution of a traced run already lives in its spans.  The
    serving stack constructs latency histograms with ``buckets=...``
    (upper bounds, ascending) — those additionally keep cumulative
    bucket counts, render as a true Prometheus histogram
    (``_bucket{le="..."}`` closed by ``+Inf``), and estimate quantiles
    for the fleet dashboard.
    """

    name: str
    help: str = ""
    unit: str = "seconds"
    buckets: Tuple[float, ...] = ()
    _series: Dict[LabelKey, _HistogramSeries] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.buckets = tuple(float(b) for b in self.buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError(
                f"histogram {self.name} buckets must be strictly "
                f"ascending, got {self.buckets}"
            )

    def observe(self, value: float, **labels) -> None:
        self._observe(_label_key(labels), value)

    def labels(self, **labels) -> "_BoundHistogram":
        """A child bound to one label set (see :meth:`Counter.labels`)."""
        return _BoundHistogram(self, _label_key(labels))

    def _observe(self, key: LabelKey, value: float) -> None:
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries()
            series.observe(float(value), self.buckets)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in (bucket layouts must agree)."""
        if tuple(other.buckets) != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name}: bucket layout "
                f"{other.buckets} != {self.buckets}"
            )
        with self._lock:
            for key, theirs in other.series().items():
                series = self._series.get(key)
                if series is None:
                    series = self._series[key] = _HistogramSeries()
                series.count += theirs.count
                series.total += theirs.total
                series.minimum = min(series.minimum, theirs.minimum)
                series.maximum = max(series.maximum, theirs.maximum)
                if theirs.bucket_counts:
                    if not series.bucket_counts:
                        series.bucket_counts = [0] * len(theirs.bucket_counts)
                    for i, n in enumerate(theirs.bucket_counts):
                        series.bucket_counts[i] += n

    def quantile(self, q: float, **labels) -> Optional[float]:
        """Estimate the q-quantile from bucket counts (None if empty).

        Linear interpolation within the winning bucket, the standard
        Prometheus ``histogram_quantile`` estimate.  Labels select one
        series; with no labels and several series, their buckets are
        summed first (the fleet-wide view).
        """
        if not self.buckets:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if labels:
            series = self._series.get(_label_key(labels))
            counts = list(series.bucket_counts) if series else []
        else:
            counts = [0] * (len(self.buckets) + 1)
            for series in self._series.values():
                for i, n in enumerate(series.bucket_counts):
                    counts[i] += n
        total = sum(counts)
        if total == 0:
            return None
        rank = q * total
        running = 0.0
        for i, n in enumerate(counts):
            if running + n >= rank and n > 0:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                upper = (
                    self.buckets[i] if i < len(self.buckets) else self.buckets[-1]
                )
                return lower + (upper - lower) * ((rank - running) / n)
            running += n
        return self.buckets[-1]

    def count(self, **labels) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels) -> float:
        series = self._series.get(_label_key(labels))
        return series.total if series else 0.0

    def total_sum(self) -> float:
        return sum(s.total for s in self._series.values())

    def total_count(self) -> int:
        return sum(s.count for s in self._series.values())

    def sum_by_label(self, label: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key, series in self._series.items():
            for name, lv in key:
                if name == label:
                    out[lv] = out.get(lv, 0.0) + series.total
        return out

    def count_by_label(self, label: str) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for key, series in self._series.items():
            for name, lv in key:
                if name == label:
                    out[lv] = out.get(lv, 0) + series.count
        return out

    def series(self) -> Dict[LabelKey, _HistogramSeries]:
        return dict(self._series)

    def to_prometheus(self, prefix: str) -> List[str]:
        full = f"{prefix}{self.name}_{self.unit}"
        lines = []
        if self.help:
            lines.append(f"# HELP {full} {self.help}")
        lines.append(f"# TYPE {full} {'histogram' if self.buckets else 'summary'}")
        for key in sorted(self._series):
            series = self._series[key]
            labels = _render_labels(key)
            if self.buckets:
                cumulative = series.cumulative() or [0] * (len(self.buckets) + 1)
                for bound, running in zip(self.buckets, cumulative):
                    le = _render_labels(key + (("le", f"{bound:g}"),))
                    lines.append(f"{full}_bucket{le} {running}")
                inf = _render_labels(key + (("le", "+Inf"),))
                lines.append(f"{full}_bucket{inf} {series.count}")
            lines.append(f"{full}_sum{labels} {series.total:.9g}")
            lines.append(f"{full}_count{labels} {series.count}")
        if not self._series:
            lines.append(f"{full}_sum 0")
            lines.append(f"{full}_count 0")
        return lines


class _BoundCounter:
    """One label set of a :class:`Counter`, bound by ``labels()``."""

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: LabelKey):
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._counter._add(self._key, amount)


class _BoundHistogram:
    """One label set of a :class:`Histogram`, bound by ``labels()``."""

    __slots__ = ("_histogram", "_key")

    def __init__(self, histogram: Histogram, key: LabelKey):
        self._histogram = histogram
        self._key = key

    def observe(self, value: float) -> None:
        self._histogram._observe(self._key, value)


class MetricsRegistry:
    """A named collection of typed metrics with one export surface."""

    def __init__(self, namespace: str = "repro"):
        self.namespace = namespace
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------
    def _register(self, kind, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}"
                    )
                return existing
            metric = kind(name=name, help=help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        unit: str = "seconds",
        buckets: Tuple[float, ...] = (),
    ) -> Histogram:
        return self._register(Histogram, name, help, unit=unit, buckets=buckets)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def metrics(self) -> Iterable[Any]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    # -- export ---------------------------------------------------------
    def to_prometheus(self) -> str:
        """Render every metric in Prometheus text exposition format."""
        prefix = f"{self.namespace}_" if self.namespace else ""
        lines: List[str] = []
        for metric in self.metrics():
            lines.extend(metric.to_prometheus(prefix))
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Any]:
        """A plain-JSON dump of every series, for tests and debugging."""
        out: Dict[str, Any] = {}
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                out[metric.name] = {
                    _render_labels(k) or "total": {
                        "count": s.count,
                        "sum": s.total,
                    }
                    for k, s in metric.series().items()
                }
            else:
                out[metric.name] = {
                    _render_labels(k) or "total": v for k, v in metric.series().items()
                }
        return out

    # -- merge + wire form ----------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every metric of ``other`` into this registry.

        Unknown metrics are registered with the peer's shape (help,
        unit, buckets); known ones must match type — the same guard
        ``_register`` applies locally.  This is the fleet-aggregation
        primitive behind ``repro dash``.
        """
        for metric in other.metrics():
            if isinstance(metric, Counter):
                self.counter(metric.name, metric.help).merge(metric)
            elif isinstance(metric, Gauge):
                self.gauge(metric.name, metric.help).merge(metric)
            elif isinstance(metric, Histogram):
                self.histogram(
                    metric.name, metric.help, unit=metric.unit, buckets=metric.buckets
                ).merge(metric)
            else:  # pragma: no cover - registry only holds the three kinds
                raise TypeError(f"cannot merge metric of type {type(metric).__name__}")

    def to_wire(self) -> Dict[str, Any]:
        """A plain-JSON form that :meth:`from_wire` reconstructs exactly.

        Shipped in the service ``metrics`` response so ``repro dash``
        can merge replica registries without parsing Prometheus text.
        """
        metrics: List[Dict[str, Any]] = []
        for metric in self.metrics():
            entry: Dict[str, Any] = {"name": metric.name, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["type"] = "histogram"
                entry["unit"] = metric.unit
                entry["buckets"] = list(metric.buckets)
                entry["series"] = [
                    {
                        "labels": dict(key),
                        "count": s.count,
                        "sum": s.total,
                        "min": None if s.count == 0 else s.minimum,
                        "max": None if s.count == 0 else s.maximum,
                        "bucket_counts": list(s.bucket_counts),
                    }
                    for key, s in sorted(metric.series().items())
                ]
            else:
                entry["type"] = "counter" if isinstance(metric, Counter) else "gauge"
                entry["series"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(metric.series().items())
                ]
            metrics.append(entry)
        return {"namespace": self.namespace, "metrics": metrics}

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_wire` output."""
        registry = cls(namespace=str(payload.get("namespace", "repro")))
        for entry in payload.get("metrics", []):
            kind = entry.get("type")
            name = str(entry["name"])
            help_text = str(entry.get("help", ""))
            if kind == "histogram":
                metric = registry.histogram(
                    name,
                    help_text,
                    unit=str(entry.get("unit", "seconds")),
                    buckets=tuple(entry.get("buckets", ())),
                )
                for raw in entry.get("series", []):
                    key = _label_key(raw.get("labels", {}))
                    series = metric._series.setdefault(key, _HistogramSeries())
                    series.count = int(raw.get("count", 0))
                    series.total = float(raw.get("sum", 0.0))
                    series.minimum = (
                        math.inf if raw.get("min") is None else float(raw["min"])
                    )
                    series.maximum = (
                        -math.inf if raw.get("max") is None else float(raw["max"])
                    )
                    series.bucket_counts = [
                        int(n) for n in raw.get("bucket_counts", [])
                    ]
            elif kind in ("counter", "gauge"):
                metric = (
                    registry.counter(name, help_text)
                    if kind == "counter"
                    else registry.gauge(name, help_text)
                )
                for raw in entry.get("series", []):
                    key = _label_key(raw.get("labels", {}))
                    metric._series[key] = float(raw.get("value", 0.0))
            else:
                raise ValueError(f"unknown metric type in wire payload: {kind!r}")
        return registry
