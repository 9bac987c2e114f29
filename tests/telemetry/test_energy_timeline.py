"""The per-window energy timeline is an exact subsample.

A spy on ``CoreAccountant._charge`` logs every enabled-telemetry charge
``(now, container id, total_energy(primary), mchipshare, ops)``, a spy on
``PowerContainerFacility.on_overflow`` logs every counter-overflow
interrupt ``(now, core index)``, and both log the window closes the run
takes (shard barriers, ``Facility.flush``).  An independent model replays
that log through the window rule -- a window also closes at the first
charge or overflow at or past its ``ENERGY_WINDOW`` grid end -- and
predicts every counter the timeline must emit.  The recorded trace must
match it bit for bit:

* each ``energy_j``/``chipshare`` pair is the spy's value at the
  container's last charge in the window, stamped at that charge;
* each ``observer_ops`` is the window's exact sum (emitted when nonzero);
* a charged container has exactly one row per window it was charged in;
* a container's last ``energy_j`` is its final ``total_energy(primary)``;
* each ``overflows`` value is the core's interrupt count in the window,
  stamped at its last interrupt, one row per core per window with an
  interrupt, and per machine the values sum to its
  ``overflow_interrupts_total`` counter;
* no per-interrupt ``overflow`` instant is recorded.
"""

import math
from collections import defaultdict

import pytest

from repro.core.accounting import ENERGY_WINDOW, CoreAccountant, EnergyTimeline
from repro.core.facility import PowerContainerFacility
from repro.telemetry import Telemetry, TelemetryFrame
from repro.telemetry.tracer import KIND_COUNTER, KIND_INSTANT

pytestmark = pytest.mark.slow


class _Spy:
    """Log of every machine's charges, overflow interrupts and window
    closes, in run order; entries carry the machine's track prefix."""

    def __init__(self, monkeypatch) -> None:
        self.log: list[tuple] = []
        charge = CoreAccountant._charge
        on_overflow = PowerContainerFacility.on_overflow
        flush = PowerContainerFacility.flush

        def spied_charge(accountant, now, *args):
            chipshare = charge(accountant, now, *args)
            t = accountant.telemetry
            if t is not None and t.enabled:
                container = accountant.bound_container
                self.log.append((
                    accountant._timeline.prefix, "charge", now, container.id,
                    container.total_energy(accountant.primary),
                    chipshare, args[-1],
                ))
            return chipshare

        def spied_on_overflow(facility, core, process):
            on_overflow(facility, core, process)
            t = facility.telemetry
            if t is not None and t.enabled:
                self.log.append((
                    facility.energy_timeline.prefix, "overflow",
                    facility.simulator.now, core.index,
                ))

        def spied_flush(facility):
            flush(facility)
            self.close(facility)

        monkeypatch.setattr(CoreAccountant, "_charge", spied_charge)
        monkeypatch.setattr(
            PowerContainerFacility, "on_overflow", spied_on_overflow
        )
        monkeypatch.setattr(PowerContainerFacility, "flush", spied_flush)

    def close(self, facility) -> None:
        if facility.energy_timeline is not None:
            self.log.append((facility.energy_timeline.prefix, "close"))


def _expected(log: list) -> list[tuple]:
    """Every ``(track, now, name, value)`` counter the timeline must emit,
    in emission order: the spy's log replayed through the window rule."""
    emitted = []
    rows: dict[str, dict] = defaultdict(dict)
    cores: dict[str, dict] = defaultdict(dict)
    ends: dict[str, float] = defaultdict(lambda: ENERGY_WINDOW)

    def close(prefix):
        for cid, charges in sorted(rows.pop(prefix, {}).items()):
            _, _, now, _, energy_j, chipshare, _ = charges[-1]
            ops = sum(charge[6] for charge in charges)
            track = f"container:{prefix}{cid}"
            emitted.append((track, now, "energy_j", energy_j))
            emitted.append((track, now, "chipshare", chipshare))
            if ops:
                emitted.append((track, now, "observer_ops", float(ops)))
        for index, stamps in sorted(cores.pop(prefix, {}).items()):
            emitted.append(
                (f"core:{prefix}{index}", stamps[-1], "overflows",
                 float(len(stamps)))
            )

    for entry in log:
        prefix = entry[0]
        if entry[1] == "close":
            close(prefix)
            continue
        now, key = entry[2], entry[3]
        if now >= ends[prefix]:
            close(prefix)
            ends[prefix] = (math.floor(now / ENERGY_WINDOW) + 1) * ENERGY_WINDOW
        if entry[1] == "charge":
            rows[prefix].setdefault(key, []).append(entry)
        else:
            cores[prefix].setdefault(key, []).append(now)
    return emitted


def _recorded(events) -> list[tuple]:
    """Timeline counters (container and core tracks) of ``(kind, now,
    track, name, args)`` events as ``(track, now, name, value)``, in event
    order.  Fails on any per-interrupt ``overflow`` instant."""
    recorded = []
    for kind, now, track, name, args in events:
        assert not (kind == KIND_INSTANT and name == "overflow"), (now, track)
        if kind == KIND_COUNTER and track.startswith(("container:", "core:")):
            recorded.append((track, now, name, dict(args)["value"]))
    return recorded


def _per_track(counters: list[tuple]) -> dict[str, list]:
    tracks: dict[str, list] = defaultdict(list)
    for track, now, name, value in counters:
        tracks[track].append((now, name, value))
    return tracks


def _overflow_total(registry, prefix: str) -> float:
    """A machine's ``facility[_<node>]_overflow_interrupts_total``."""
    node = f"{prefix[:-1]}_" if prefix else ""
    return registry.get(f"facility_{node}overflow_interrupts_total").value


def _check(recorded: list, expected: list, facilities) -> None:
    """``recorded`` equals ``expected`` per track -- bit for bit (``==``
    on floats), same stamps, same order, one row per (container or core,
    window) -- every timeline ends on its container's final energy, and
    every machine's ``overflows`` sum to its interrupt counter."""
    assert expected, "the run charged nothing with telemetry on"
    tracks = _per_track(recorded)
    assert tracks == _per_track(expected)
    checked = 0
    interrupts = 0.0
    for facility in facilities:
        prefix = facility.energy_timeline.prefix
        for container in facility.registry.all_containers():
            series = tracks.get(f"container:{prefix}{container.id}")
            if series is None:
                continue
            last = [value for _, name, value in series if name == "energy_j"]
            assert last[-1] == container.total_energy(facility.primary)
            checked += 1
        counted = sum(
            value for track, _, name, value in recorded
            if name == "overflows" and track.startswith(f"core:{prefix}")
        )
        total = _overflow_total(facility.telemetry.registry, prefix)
        assert counted == total, (prefix, counted, total)
        interrupts += total
    assert checked
    assert interrupts


def test_sharded_flash_timeline_matches_every_charge(monkeypatch):
    """The flash world on two shards, 3/16 s epochs: barriers fall off the
    window grid, so barrier closes split windows the grid would not."""
    from dataclasses import replace

    from repro.shard import SCENARIOS, run_sharded
    from repro.shard.worker import ShardWorld

    spy = _Spy(monkeypatch)
    recorded = []
    worlds = {}  # shard id -> (world, its latest barrier)
    drain_frame = ShardWorld.drain_frame

    def spied_drain_frame(world):
        # The window closes at every barrier, just before the drain.
        for member in world.cluster.machines:
            spy.close(member.facility)
        wire = drain_frame(world)
        events = TelemetryFrame.from_wire(wire).events
        shipped = _recorded(
            (kind, now, track, name, args)
            for now, track, _seq, kind, name, args in events
        )
        # A frame ships exactly its own epoch's windows.
        barrier = world.cluster.simulator.now
        _, previous = worlds.get(world.config.shard_id, (world, -1.0))
        assert all(previous < now <= barrier for _, now, _, _ in shipped)
        worlds[world.config.shard_id] = (world, barrier)
        recorded.extend(shipped)
        return wire

    monkeypatch.setattr(ShardWorld, "drain_frame", spied_drain_frame)
    config = SCENARIOS["flash"](n_shards=2, n_machines=4, duration=1.5)
    result = run_sharded(replace(config, epoch=0.1875, telemetry="on"))
    assert result.failovers > 0  # crashed machines held open windows
    facilities = [
        member.facility for world, _ in worlds.values()
        for member in world.cluster.machines
    ]
    assert len(facilities) == 4
    # The final flush closes one more window after the last barrier; its
    # counters stay in the (never drained) worker ring.
    for world, _ in worlds.values():
        recorded.extend(_recorded(world.telemetry.tracer.events))
    _check(recorded, _expected(spy.log), facilities)


@pytest.mark.parametrize("name", ("cluster-crash", "meter-nan-burst"))
def test_single_process_timeline_matches_every_charge(monkeypatch, name):
    """One process, one tracer: the emission order across containers and
    machines must match too (ascending container id per close)."""
    from repro.faults import prepare_scenario, scenario_by_name
    from repro.faults.harness import SingleMachineWorld, finalize_scenario

    spy = _Spy(monkeypatch)
    telemetry = Telemetry(capacity=None)
    live = prepare_scenario(scenario_by_name(name), 42, telemetry=telemetry)
    live.world.simulator.run_until(live.duration)
    finalize_scenario(live)
    world = live.world
    if isinstance(world, SingleMachineWorld):
        facilities = [world.facility]
    else:
        facilities = [member.facility for member in world.cluster.machines]
    recorded = _recorded(telemetry.tracer.events)
    expected = _expected(spy.log)
    assert recorded == expected
    _check(recorded, expected, facilities)


def test_overflow_counts_roll_on_the_grid_without_charges():
    """An interrupt whose sample charges nothing still rolls the window:
    counts never leak across a grid end, and cores close in index order."""
    telemetry = Telemetry(capacity=None)
    timeline = EnergyTimeline(telemetry, "m0/")
    for now, index in ((0.01, 3), (0.02, 1), (0.03, 3),
                       (ENERGY_WINDOW, 3), (0.3, 1), (0.31, 1)):
        timeline.overflow(now, index)
    timeline.close()
    assert _recorded(telemetry.tracer.events) == [
        ("core:m0/1", 0.02, "overflows", 1.0),
        ("core:m0/3", 0.03, "overflows", 2.0),
        ("core:m0/3", ENERGY_WINDOW, "overflows", 1.0),
        ("core:m0/1", 0.31, "overflows", 2.0),
    ]
