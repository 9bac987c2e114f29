"""Step timing, with the host's drifting speed measured alongside.

On a shared host the same work can take 65% longer one minute than the
next: on the shared 2-core x86-64 VM this benchmark was defined on, one
Solr run flipped between 2.3 s and 3.8 s as neighbours came and went,
without any steal time showing inside the guest.  A benchmark cannot resolve a 10%
change through that.  So between steps a :class:`StepClock` times a fixed
pure-Python probe that does not touch ``repro``: half a loop of dict and
float work that stays in the first-level cache, half an event-heap walk
over a few thousand objects, like the simulator's own.  Under contention
the first half slows more than the simulator and the second less;
together they track it: over two minutes of back-to-back repeats the
spread (coefficient of variation) of one world's run time fell from 8.3%
to 1.9% on solr-pkgmeter and from 14% to 2.2% on cluster-steady.  The
mean over a run of each step boundary's median probe time, relative to
:data:`NOMINAL_PROBE_S`, is the run's slowdown; dividing its host times
by the slowdown cancels the drift.  Probe time is excluded from every
step.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Mean probe time on the 2-core x86-64 VM the benchmark was defined on,
#: in seconds, so normalized times read as host times there.
NOMINAL_PROBE_S = 8.5e-5

#: Probes timed at each step boundary (their median is kept).
PROBES_PER_STEP = 3


class _Node:
    __slots__ = ("value", "peer")

    def __init__(self) -> None:
        self.value = 0.5
        self.peer: _Node = self


class Probe:
    """A fixed chunk of interpreter work, the same on every call."""

    def __init__(self, nodes: int = 4096) -> None:
        self.nodes = [_Node() for _ in range(nodes)]
        for index, node in enumerate(self.nodes):
            node.peer = self.nodes[(index * 2654435761) % nodes]
        self.heap = [(float(i), i, node)
                     for i, node in enumerate(self.nodes[:64])]
        heapq.heapify(self.heap)
        self.seq = len(self.heap)

    def __call__(self) -> float:
        """Seconds this chunk of work took."""
        start = time.perf_counter()
        table: dict[int, float] = {}
        acc = 0.0
        for i in range(300):
            key = (i * 7919) & 255
            acc += (table.get(key, 0.5) * 1.0001 + i) % 97.0
            table[key] = acc
        heap, nodes, mask = self.heap, self.nodes, len(self.nodes) - 1
        for _ in range(40):
            now, _seq, node = heapq.heappop(heap)
            node.value = (node.value * 1.0001 + node.peer.value * 0.5
                          + now) % 97.0
            self.seq += 1
            other = nodes[(self.seq * 40503) & mask]
            heapq.heappush(heap, (now + 0.25 + other.value * 1e-3,
                                  self.seq, other))
        return time.perf_counter() - start


class StepClock:
    """Records the host time between consecutive :meth:`tick` calls."""

    def __init__(self) -> None:
        self.probe = Probe()
        self.steps: list[float] = []
        #: Median probe time at each step boundary.
        self.probes: list[float] = []
        #: Host seconds spent probing (to subtract from a run's wall).
        self.probe_s = 0.0
        self._since: float | None = None

    def tick(self) -> None:
        """Close the step in progress (if any), probe, start the next."""
        now = time.perf_counter()
        if self._since is not None:
            self.steps.append(now - self._since)
        self.probes.append(statistics.median(
            self.probe() for _ in range(PROBES_PER_STEP)
        ))
        self.probe_s += time.perf_counter() - now
        self._since = time.perf_counter()

    def slowdown(self) -> float:
        """Host seconds here per host second on the reference host,
        averaged over the run."""
        return statistics.fmean(self.probes) / NOMINAL_PROBE_S

    def normalized_steps(self) -> list[float]:
        """Each step divided by the mean slowdown at its two ends."""
        return [
            step * 2.0 * NOMINAL_PROBE_S / (before + after)
            for step, before, after
            in zip(self.steps, self.probes, self.probes[1:])
        ]
