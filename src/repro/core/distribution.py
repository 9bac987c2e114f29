"""Per-request cross-machine energy profiles (Section 3.4, Fig. 13-14).

Power containers measure each request type's energy on each machine model.
The :class:`EnergyProfileTable` aggregates those measurements into mean
energy-per-request values, from which the workload-heterogeneity-aware
dispatcher derives *relative energy affinity*: the ratio of a request
type's energy on one machine to its energy on another.  Types with the
lowest ratio benefit most from the efficient machine; types with a ratio
near 1.0 (like the paper's Stress at 0.91) lose little when displaced to
the older machine.
"""

from __future__ import annotations

from collections import defaultdict


class EnergyProfileTable:
    """Mean per-request energy, keyed by (machine name, request type)."""

    def __init__(self) -> None:
        self._sum: dict[tuple[str, str], float] = defaultdict(float)
        self._count: dict[tuple[str, str], int] = defaultdict(int)

    def record(self, machine: str, request_type: str, energy_joules: float) -> None:
        """Fold one completed request's measured energy into the profile."""
        if energy_joules < 0:
            raise ValueError("energy must be non-negative")
        key = (machine, request_type)
        self._sum[key] += energy_joules
        self._count[key] += 1

    def has_profile(self, machine: str, request_type: str) -> bool:
        """True when at least one sample exists for the pair."""
        return self._count[(machine, request_type)] > 0

    def mean_energy(self, machine: str, request_type: str) -> float:
        """Mean energy of the request type on the machine (J)."""
        key = (machine, request_type)
        if self._count[key] == 0:
            raise KeyError(f"no energy profile for {key}")
        return self._sum[key] / self._count[key]

    def sample_count(self, machine: str, request_type: str) -> int:
        """Number of recorded requests for the pair."""
        return self._count[(machine, request_type)]

    def ratio(self, request_type: str, numerator: str, denominator: str) -> float:
        """Cross-machine energy ratio (paper Fig. 13's Y axis)."""
        denom = self.mean_energy(denominator, request_type)
        if denom <= 0:
            raise ValueError(f"zero denominator energy for {request_type}")
        return self.mean_energy(numerator, request_type) / denom

    def affinity_order(
        self, request_types: list[str], preferred: str, fallback: str
    ) -> list[str]:
        """Request types sorted by how strongly they prefer ``preferred``.

        The first entries gain the most (lowest energy ratio) from running
        on the preferred machine; the last entries are the cheapest to
        displace onto the fallback machine.
        """
        def key(rtype: str) -> float:
            try:
                return self.ratio(rtype, preferred, fallback)
            except KeyError:
                return 1.0  # unknown types are neutral

        return sorted(request_types, key=key)

    def known_types(self, machine: str) -> list[str]:
        """Request types profiled on a machine."""
        return sorted(
            {rtype for (m, rtype), n in self._count.items() if m == machine and n}
        )

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Sums and counts flattened to ``machine|rtype`` string keys."""
        return {
            "v": 1,
            "sums": {
                f"{machine}|{rtype}": value
                for (machine, rtype), value in sorted(self._sum.items())
            },
            "counts": {
                f"{machine}|{rtype}": value
                for (machine, rtype), value in sorted(self._count.items())
            },
        }
