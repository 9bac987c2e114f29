"""Named deterministic random-number streams.

Experiments need independent randomness per concern (request arrivals,
service-time jitter, meter noise, ...) that stays stable when unrelated code
adds or removes random draws.  :class:`RngHub` derives one
:class:`numpy.random.Generator` per stream name from a root seed, so each
stream is reproducible in isolation.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngHub:
    """Factory for named, independently-seeded random generators."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """Root seed of the hub."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self._seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def fork(self, name: str) -> "RngHub":
        """Derive a child hub whose streams are independent of this hub's."""
        digest = hashlib.sha256(f"{self._seed}:fork:{name}".encode()).digest()
        return RngHub(int.from_bytes(digest[:8], "little"))

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Root seed plus every materialized stream's bit-generator state."""
        from repro.checkpoint.state import generator_state

        return {
            "v": 1,
            "seed": self._seed,
            "streams": {
                name: generator_state(self._streams[name])
                for name in sorted(self._streams)
            },
        }
