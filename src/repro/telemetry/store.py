"""Energy-service store: windowed rollups over the merged shard stream.

The :class:`TelemetryStore` is the SmartWatts-style central half of the
energy service (PAPERS.md): per-machine sensors -- here, the merged
completion stream plus per-shard telemetry frames -- feed one
coordinator-side store that answers deterministic queries and exports a
self-contained dashboard.  Everything is keyed by *window index* (the
epoch-barrier index), never by wall clock, so two identically-seeded runs
produce byte-identical rollups for any shard or worker count.

Rollups kept per window:

* per-rack joules (rendered as watts over the epoch length) -- the rack
  power time series the cap-violation detector consumes;
* shed / deferred / failover / completion counters (the brownout-side
  story at cluster scale);

and across the whole run:

* per-machine and per-request-type joules and request counts;
* a bounded top-k of individual request containers by attributed energy
  (min-heap, ties broken by request id -- deterministic);
* per-request-type energy samples for nearest-rank percentile queries.

Exports: :meth:`TelemetryStore.dashboard` (self-contained JSON dict),
:meth:`TelemetryStore.dashboard_json`, and :meth:`TelemetryStore.csv_rows`
(rack power series + top-k, spreadsheet-friendly).  The store follows the
checkpoint layer's plain-data snapshot protocol so a coordinator resume
continues its rollups bit-identically.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math


class TelemetryStore:
    """Windowed energy rollups with deterministic queries and exports."""

    def __init__(
        self,
        epoch_seconds: float,
        rack_of: dict[str, int],
        top_k: int = 10,
    ) -> None:
        if epoch_seconds <= 0.0:
            raise ValueError(
                f"epoch_seconds must be positive, got {epoch_seconds!r}"
            )
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k!r}")
        self.epoch_seconds = float(epoch_seconds)
        #: machine name -> rack index (placement geometry, fixed per run).
        self.rack_of = dict(rack_of)
        self.top_k = int(top_k)
        self.requests_seen = 0
        self.total_joules = 0.0
        #: machine -> [requests, joules].
        self._machines: dict[str, list] = {}
        #: rack -> {window: joules}.
        self._rack_windows: dict[int, dict[int, float]] = {}
        #: window -> [shed, deferred, failovers, completed, joules].
        self._windows: dict[int, list] = {}
        #: rtype -> [requests, joules, response_sum].
        self._rtypes: dict[str, list] = {}
        #: rtype -> unsorted energy samples (sorted at query time).
        self._rtype_energies: dict[str, list[float]] = {}
        #: Min-heap of ``(energy, request_id, machine, rtype)`` -- the
        #: bounded top-k; the heap root is the smallest member, so pushing
        #: then popping keeps exactly the k largest (ties on energy break
        #: toward the larger request id, a total order).
        self._topk: list[tuple] = []

    # -- ingest ----------------------------------------------------------
    def ingest_completion(
        self,
        window: int,
        machine: str,
        request_id: int,
        rtype: str,
        energy_joules: float,
        response_time: float,
    ) -> None:
        """Fold one merged completion record into every rollup."""
        self.requests_seen += 1
        self.total_joules += energy_joules
        row = self._machines.setdefault(machine, [0, 0.0])
        row[0] += 1
        row[1] += energy_joules
        rack = self.rack_of.get(machine, -1)
        windows = self._rack_windows.setdefault(rack, {})
        windows[window] = windows.get(window, 0.0) + energy_joules
        rrow = self._rtypes.setdefault(rtype, [0, 0.0, 0.0])
        rrow[0] += 1
        rrow[1] += energy_joules
        rrow[2] += response_time
        self._rtype_energies.setdefault(rtype, []).append(energy_joules)
        heapq.heappush(
            self._topk, (energy_joules, request_id, machine, rtype)
        )
        if len(self._topk) > self.top_k:
            heapq.heappop(self._topk)

    def ingest_window(
        self,
        window: int,
        shed: int = 0,
        deferred: int = 0,
        failovers: int = 0,
        completed: int = 0,
        joules: float = 0.0,
    ) -> None:
        """Record one barrier's cluster-wide deltas."""
        row = self._windows.setdefault(window, [0, 0, 0, 0, 0.0])
        row[0] += shed
        row[1] += deferred
        row[2] += failovers
        row[3] += completed
        row[4] += joules

    # -- queries ---------------------------------------------------------
    def windows(self) -> list[int]:
        """Every window index any rollup has touched, ascending."""
        seen = set(self._windows)
        for windows in self._rack_windows.values():
            seen.update(windows)
        return sorted(seen)

    def rack_watts(self, window: int) -> dict[int, float]:
        """Per-rack mean watts over one window (joules / epoch)."""
        return {
            rack: windows.get(window, 0.0) / self.epoch_seconds
            for rack, windows in sorted(self._rack_windows.items())
        }

    def rack_power_series(self) -> dict[int, list[list[float]]]:
        """``rack -> [[window_start_seconds, watts], ...]`` (all windows)."""
        all_windows = self.windows()
        series: dict[int, list[list[float]]] = {}
        for rack in sorted(self._rack_windows):
            windows = self._rack_windows[rack]
            series[rack] = [
                [window * self.epoch_seconds,
                 windows.get(window, 0.0) / self.epoch_seconds]
                for window in all_windows
            ]
        return series

    def top_energy(self) -> list[dict]:
        """The k most expensive request containers, most expensive first."""
        ranked = sorted(self._topk, reverse=True)
        return [
            {
                "request_id": request_id,
                "machine": machine,
                "rtype": rtype,
                "joules": energy,
            }
            for energy, request_id, machine, rtype in ranked
        ]

    @staticmethod
    def _nearest_rank(samples: list[float], percentile: float) -> float:
        """Nearest-rank percentile over a sorted sample list."""
        if not samples:
            return 0.0
        rank = math.ceil(percentile / 100.0 * len(samples))
        return samples[max(rank, 1) - 1]

    def joules_percentiles(
        self, percentiles: tuple[float, ...] = (50.0, 90.0, 99.0)
    ) -> dict[str, dict[str, float]]:
        """Joules-per-request percentiles per request type plus ``_all``."""
        out: dict[str, dict[str, float]] = {}
        everything: list[float] = []
        for rtype in sorted(self._rtype_energies):
            samples = sorted(self._rtype_energies[rtype])
            everything.extend(samples)
            out[rtype] = {
                f"p{percentile:g}": self._nearest_rank(samples, percentile)
                for percentile in percentiles
            }
        everything.sort()
        out["_all"] = {
            f"p{percentile:g}": self._nearest_rank(everything, percentile)
            for percentile in percentiles
        }
        return out

    def machine_table(self) -> list[list]:
        """``[machine, rack, requests, joules]`` rows, machine-sorted."""
        return [
            [name, self.rack_of.get(name, -1), row[0], row[1]]
            for name, row in sorted(self._machines.items())
        ]

    def rtype_table(self) -> list[list]:
        """``[rtype, requests, joules, mean_response]`` rows, sorted."""
        return [
            [rtype, row[0], row[1], row[2] / row[0] if row[0] else 0.0]
            for rtype, row in sorted(self._rtypes.items())
        ]

    def window_table(self) -> list[list]:
        """``[window, shed, deferred, failovers, completed, joules]``."""
        return [
            [window, *self._windows[window]]
            for window in sorted(self._windows)
        ]

    # -- fingerprints and exports ---------------------------------------
    def _canonical_lines(self) -> list[str]:
        lines = [
            f"requests={self.requests_seen}",
            f"joules={self.total_joules!r}",
        ]
        lines.extend(
            f"machine:{name}={rack}:{count}:{joules!r}"
            for name, rack, count, joules in self.machine_table()
        )
        lines.extend(
            f"rtype:{rtype}={count}:{joules!r}:{mean!r}"
            for rtype, count, joules, mean in self.rtype_table()
        )
        lines.extend(
            f"window:{window}={shed}:{deferred}:{failovers}:"
            f"{completed}:{joules!r}"
            for window, shed, deferred, failovers, completed, joules
            in self.window_table()
        )
        for rack, points in sorted(self.rack_power_series().items()):
            for start, watts in points:
                lines.append(f"rack:{rack}@{start!r}={watts!r}")
        lines.extend(
            f"top:{row['request_id']}={row['machine']}:{row['rtype']}:"
            f"{row['joules']!r}"
            for row in self.top_energy()
        )
        for rtype, values in sorted(self.joules_percentiles().items()):
            for key, value in sorted(values.items()):
                lines.append(f"pct:{rtype}:{key}={value!r}")
        return lines

    def store_fingerprint(self) -> str:
        """sha256[:16] over every query surface's canonical rendering."""
        return hashlib.sha256(
            "\n".join(self._canonical_lines()).encode()
        ).hexdigest()[:16]

    def dashboard(
        self, meta: dict | None = None, alerts: list | None = None
    ) -> dict:
        """Self-contained dashboard document (plain data, JSON-ready)."""
        return {
            "v": 1,
            "meta": dict(meta or {}),
            "summary": {
                "requests": self.requests_seen,
                "total_joules": self.total_joules,
                "machines": len(self._machines),
                "racks": len(self._rack_windows),
                "windows": len(self.windows()),
                "epoch_seconds": self.epoch_seconds,
            },
            "rack_power_series": {
                str(rack): points
                for rack, points in self.rack_power_series().items()
            },
            "top_energy": self.top_energy(),
            "joules_percentiles": self.joules_percentiles(),
            "machines": self.machine_table(),
            "request_types": self.rtype_table(),
            "window_counters": self.window_table(),
            "alerts": [dict(alert) for alert in (alerts or [])],
            "store_fingerprint": self.store_fingerprint(),
        }

    def dashboard_json(
        self,
        meta: dict | None = None,
        alerts: list | None = None,
        indent: int | None = 2,
    ) -> str:
        """:meth:`dashboard` rendered as deterministic (sorted-key) JSON."""
        return json.dumps(
            self.dashboard(meta=meta, alerts=alerts),
            indent=indent,
            sort_keys=True,
        )

    def csv_rows(self) -> list[list]:
        """Flat CSV rows: rack power series then the top-k table."""
        rows: list[list] = [["section", "key", "time_s", "value"]]
        for rack, points in sorted(self.rack_power_series().items()):
            for start, watts in points:
                rows.append(["rack_watts", f"rack{rack}", start, watts])
        for row in self.top_energy():
            rows.append([
                "top_energy",
                f"{row['machine']}/{row['rtype']}/r{row['request_id']}",
                "",
                row["joules"],
            ])
        return rows

    def write_csv(self, path: str) -> None:
        """Write :meth:`csv_rows` to ``path`` (repr floats, stable order)."""
        with open(path, "w") as handle:
            for row in self.csv_rows():
                handle.write(",".join(
                    repr(cell) if isinstance(cell, float) else str(cell)
                    for cell in row
                ) + "\n")

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        """Plain-data snapshot of every rollup (checkpoint layer)."""
        return {
            "v": 1,
            "epoch_seconds": self.epoch_seconds,
            "top_k": self.top_k,
            "requests_seen": self.requests_seen,
            "total_joules": self.total_joules,
            "rack_of": dict(sorted(self.rack_of.items())),
            "machines": {
                name: list(row)
                for name, row in sorted(self._machines.items())
            },
            "rack_windows": {
                str(rack): {str(w): j for w, j in sorted(windows.items())}
                for rack, windows in sorted(self._rack_windows.items())
            },
            "windows": {
                str(w): list(row) for w, row in sorted(self._windows.items())
            },
            "rtypes": {
                rtype: list(row)
                for rtype, row in sorted(self._rtypes.items())
            },
            "rtype_energies": {
                rtype: list(values)
                for rtype, values in sorted(self._rtype_energies.items())
            },
            "topk": [list(entry) for entry in sorted(self._topk)],
        }
