"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` is the single counter schema of the
facility, dispatcher, overload protector and power-cap enforcer.  Each
component publishes its counters into a registry through
``publish_metrics(registry)``; the registry renders them as one flat
:meth:`MetricsRegistry.snapshot` dict or as Prometheus-style text
exposition (:meth:`MetricsRegistry.exposition`).  Chaos reports are built
from the snapshot of a private registry every component publishes into.

Everything is designed for bit-reproducibility:

* values are plain Python floats, mutated only by explicit calls;
* histograms use **fixed bucket edges** chosen at creation time (no
  auto-scaling, so two identically-seeded runs land samples in identical
  buckets);
* snapshots and expositions render in sorted-name order with ``repr``
  floats, so equal registries render byte-identically.

Metric naming convention (documented in ``docs/observability.md``): every
name is ``<component>_<counter>`` in ``snake_case`` -- e.g.
``facility_meter_fallbacks``, ``dispatch_completed``, ``overload_shed``,
``powercap_level``.  Per-machine counters keep the machine name embedded
(``dispatch_sb0_dispatched``) rather than using labels, which keeps the
flat-dict schema the chaos fingerprints already rely on.
"""

from __future__ import annotations

from typing import Optional


class Counter:
    """A monotonically non-decreasing value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0.0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        self.value += amount


class Histogram:
    """A histogram over fixed, caller-chosen bucket edges.

    ``edges`` are the inclusive upper bounds of the finite buckets, in
    strictly increasing order; one implicit ``+Inf`` bucket catches the
    rest.  Cumulative bucket counts follow the Prometheus convention (each
    bucket counts every observation less than or equal to its edge).
    """

    __slots__ = ("name", "help", "edges", "bucket_counts", "count", "sum")

    def __init__(
        self, name: str, edges: tuple[float, ...], help: str = ""
    ) -> None:
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.help = help
        self.edges = tuple(float(e) for e in edges)
        #: Per-finite-bucket observation counts (non-cumulative).
        self.bucket_counts = [0] * len(self.edges)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        for i, edge in enumerate(self.edges):
            if value <= edge:
                self.bucket_counts[i] += 1
                return
        # Falls only into the implicit +Inf bucket (tracked via ``count``).

    def cumulative_counts(self) -> list[int]:
        """Cumulative counts per finite edge (Prometheus ``le`` semantics)."""
        total = 0
        out = []
        for n in self.bucket_counts:
            total += n
            out.append(total)
        return out


def _edge_token(edge: float) -> str:
    """A stable, name-safe rendering of one bucket edge."""
    text = repr(edge)
    return text.replace(".", "_").replace("-", "m").replace("+", "")


class MetricsRegistry:
    """Get-or-create registry of named metrics with deterministic export."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, kind, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        metric = kind(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(name, Gauge, help=help)

    def histogram(
        self, name: str, edges: tuple[float, ...], help: str = ""
    ) -> Histogram:
        """Get or create a :class:`Histogram` (edges fixed at creation)."""
        metric = self._get_or_create(name, Histogram, edges=edges, help=help)
        if metric.edges != tuple(float(e) for e in edges):
            raise ValueError(
                f"histogram {name!r} already registered with different edges"
            )
        return metric

    def get(self, name: str) -> Optional[object]:
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Every metric's kind, help, and current value(s)."""
        metrics: dict[str, list] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                metrics[name] = ["counter", metric.help, metric.value]
            elif isinstance(metric, Gauge):
                metrics[name] = ["gauge", metric.help, metric.value]
            else:
                metrics[name] = [
                    "histogram",
                    metric.help,
                    list(metric.edges),
                    list(metric.bucket_counts),
                    metric.count,
                    metric.sum,
                ]
        return {"v": 1, "metrics": metrics}

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Flat ``{name: value}`` dict in sorted-name order.

        Histograms expand into ``<name>_count``, ``<name>_sum``, and one
        cumulative ``<name>_bucket_le_<edge>`` entry per finite edge -- a
        flat float dict, so chaos reports can absorb a snapshot unchanged.
        """
        out: dict[str, float] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[f"{name}_count"] = float(metric.count)
                out[f"{name}_sum"] = float(metric.sum)
                for edge, total in zip(
                    metric.edges, metric.cumulative_counts()
                ):
                    out[f"{name}_bucket_le_{_edge_token(edge)}"] = float(total)
            else:
                out[name] = float(metric.value)
        return out

    def exposition(self) -> str:
        """Prometheus-style text exposition (sorted, repr floats)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {metric.value!r}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {metric.value!r}")
            else:
                lines.append(f"# TYPE {name} histogram")
                for edge, total in zip(
                    metric.edges, metric.cumulative_counts()
                ):
                    lines.append(
                        f'{name}_bucket{{le="{edge!r}"}} {total}'
                    )
                lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{name}_sum {metric.sum!r}")
                lines.append(f"{name}_count {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")
