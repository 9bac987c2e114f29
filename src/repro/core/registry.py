"""Container lifecycle: creation, lookup, refcounting, background bucket.

Activity that has no traceable connection to any request -- the paper finds
a substantial amount of it in Google App Engine (Fig. 9) -- is charged to a
special *background* container so that the energy-sum validation (Fig. 8)
still accounts for all measured power.

The paper releases a container's 784-byte structure when its task refcount
drops to zero; we keep released containers in a ``closed`` state (statistics
intact) because the experiments aggregate them afterwards.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Optional

from repro.core.container import PowerContainer

#: Identifier of the per-machine background container.
BACKGROUND_CONTAINER_ID = 0


class ContainerRegistry:
    """All power containers known to one machine's facility."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self.background = PowerContainer(
            BACKGROUND_CONTAINER_ID, label="background"
        )
        self._containers: dict[int, PowerContainer] = {
            BACKGROUND_CONTAINER_ID: self.background
        }

    def create(
        self,
        label: str = "",
        created_at: float = 0.0,
        meta: Optional[dict[str, Any]] = None,
    ) -> PowerContainer:
        """Create a fresh container for a new request."""
        container = PowerContainer(
            next(self._ids), label=label, created_at=created_at, meta=meta
        )
        self._containers[container.id] = container
        return container

    def get(self, container_id: Optional[int]) -> PowerContainer:
        """Resolve a binding to a container; ``None`` means background."""
        if container_id is None:
            return self.background
        container = self._containers.get(container_id)
        if container is None:
            # An unknown id can arrive on a cross-machine message before the
            # local side has seen the request: materialize it.
            container = PowerContainer(container_id, label=f"remote-{container_id}")
            self._containers[container_id] = container
        return container

    def incref(self, container_id: Optional[int]) -> None:
        """A task became linked to the container."""
        self.get(container_id).refcount += 1

    def decref(self, container_id: Optional[int]) -> None:
        """A linked task exited; close the container at refcount zero."""
        container = self.get(container_id)
        container.refcount = max(container.refcount - 1, 0)
        if container.refcount == 0 and container.id != BACKGROUND_CONTAINER_ID:
            container.closed = True

    def all_containers(self, include_background: bool = True) -> list[PowerContainer]:
        """Every known container (optionally without the background one)."""
        return [
            c
            for c in self._containers.values()
            if include_background or c.id != BACKGROUND_CONTAINER_ID
        ]

    def request_containers(self) -> list[PowerContainer]:
        """All request (non-background) containers."""
        return self.all_containers(include_background=False)

    def with_label_prefix(self, prefix: str) -> list[PowerContainer]:
        """Request containers whose label starts with ``prefix``."""
        return [c for c in self.request_containers() if c.label.startswith(prefix)]

    def total_energy(self, approach: str, containers: Iterable[PowerContainer] | None = None) -> float:
        """Sum of estimated energy (CPU + I/O) over containers."""
        pool = self.all_containers() if containers is None else list(containers)
        return sum(c.total_energy(approach) for c in pool)

    def __len__(self) -> int:
        return len(self._containers)

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Id counter plus every container's state, keyed by id.

        Containers are never removed from the registry (closing keeps the
        statistics), so the replayed registry holds every id the
        checkpoint does.
        """
        value = next(self._ids)
        self._ids = itertools.count(value)
        return {
            "v": 1,
            "id_next": value,
            "containers": {
                str(cid): container.snapshot_state()
                for cid, container in sorted(self._containers.items())
            },
        }
