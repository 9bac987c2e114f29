"""Transport-layer units: frames, fault plans, channels, and the
stop-and-wait exactly-once protocol -- all without a real worker process
(a local helper executes each released command in its place)."""

import numpy as np
import pytest

from repro.shard import transport
from repro.shard.transport import (
    DIRECTION_C2W,
    DIRECTION_W2C,
    FRAME_DATA,
    FRAME_PONG,
    FRAME_PROBE,
    MAX_ROUNDS,
    LossyChannel,
    ReliableLink,
    TransportFaultPlan,
    TransportTimeoutError,
    TransportWindow,
    WorkerEndpoint,
    WorkerUnresponsiveError,
    channel_seed,
    corrupt_frame,
    frame_valid,
    make_frame,
)


# -- frames ------------------------------------------------------------
def _sealed(kind, seq, ack, payload):
    return make_frame(kind, seq, ack, payload, sealed=True)


def test_frame_round_trip_validates():
    frame = _sealed(FRAME_DATA, 3, 2, ("epoch", 0.25, [("inject", ())]))
    assert frame_valid(frame)


def test_unsealed_frame_carries_no_checksum(monkeypatch):
    def no_crc(*_args):
        raise AssertionError("an unsealed frame computed a checksum")

    monkeypatch.setattr(transport, "frame_crc", no_crc)
    frame = make_frame(FRAME_DATA, 1, 0, "payload", sealed=False)
    assert frame[4] is None
    assert frame_valid(frame)


def test_corrupt_frame_always_rejected():
    frame = _sealed(FRAME_DATA, 1, 0, "payload")
    mangled = corrupt_frame(frame)
    assert not frame_valid(mangled)
    # Original is untouched (corruption happens on a copy on the wire).
    assert frame_valid(frame)


@pytest.mark.parametrize("junk", [
    None, "data", (), ("data", 1, 0, "x"), ("data", 1, 0, "x", 0, 0),
])
def test_malformed_frames_rejected(junk):
    assert not frame_valid(junk)


# -- fault plans -------------------------------------------------------
def test_window_validation():
    with pytest.raises(ValueError):
        TransportWindow(5, 5)
    with pytest.raises(ValueError):
        TransportWindow(-1, 3)
    with pytest.raises(ValueError):
        TransportWindow(0, 3, drop=1.5)
    with pytest.raises(ValueError):
        TransportWindow(0, 3, max_delay=0)
    with pytest.raises(ValueError):
        TransportWindow(0, 3, direction="sideways")


def test_rates_merge_as_independent_events():
    plan = (
        TransportFaultPlan()
        .drop_window(0, 10, 0.5)
        .drop_window(5, 10, 0.5)
    )
    assert plan.rates_for(2, 0, DIRECTION_C2W).drop == 0.5
    assert plan.rates_for(7, 0, DIRECTION_C2W).drop == pytest.approx(0.75)
    assert plan.rates_for(12, 0, DIRECTION_C2W) is None


def test_window_scoping_by_worker_and_direction():
    plan = TransportFaultPlan().drop_window(
        0, 10, 0.4, worker=1, direction=DIRECTION_W2C
    )
    assert plan.rates_for(3, 1, DIRECTION_W2C) is not None
    assert plan.rates_for(3, 0, DIRECTION_W2C) is None
    assert plan.rates_for(3, 1, DIRECTION_C2W) is None


def test_random_plans_are_seed_deterministic():
    first = TransportFaultPlan.random(np.random.default_rng(9), 8)
    second = TransportFaultPlan.random(np.random.default_rng(9), 8)
    assert [w for w in first.windows] == [w for w in second.windows]
    assert 1 <= len(first) <= 3


# -- lossy channels ----------------------------------------------------
def _channel(plan, seed=7, worker=0, direction=DIRECTION_C2W):
    return LossyChannel(
        plan, np.random.default_rng(seed), worker, direction
    )


def test_clean_channel_delivers_in_order():
    channel = _channel(None)
    frames = [_sealed(FRAME_DATA, i, 0, i) for i in (1, 2, 3)]
    for frame in frames:
        channel.send(frame, epoch=0)
    assert channel.take_due() == frames
    assert channel.in_transit() == 0


def test_total_drop_delivers_nothing():
    channel = _channel(TransportFaultPlan().drop_window(0, 100, 1.0))
    for i in range(5):
        channel.send(_sealed(FRAME_DATA, i + 1, 0, None), epoch=0)
    assert channel.take_due() == []
    assert channel.stats["dropped"] == 5


def test_delayed_frames_surface_in_later_rounds():
    channel = _channel(
        TransportFaultPlan().delay_window(0, 100, 1.0, max_delay=2)
    )
    frame = _sealed(FRAME_DATA, 1, 0, None)
    channel.send(frame, epoch=0)
    assert channel.stats["delayed"] == 1
    rounds = 0
    while channel.in_transit():
        delivered = channel.take_due()
        rounds += 1
        assert rounds <= 3, "delay exceeded 1 + max_delay rounds"
    assert delivered == [frame]


def test_channel_faults_replay_from_seed():
    def run():
        channel = _channel(
            TransportFaultPlan().chaos_window(
                0, 100, drop=0.3, duplicate=0.3, reorder=0.3, delay=0.3
            ),
            seed=channel_seed(5, 1, 0, DIRECTION_W2C),
        )
        log = []
        for i in range(40):
            channel.send(_sealed(FRAME_DATA, i + 1, 0, i), epoch=0)
            log.extend(frame[1] for frame in channel.take_due())
        while channel.in_transit():
            log.extend(frame[1] for frame in channel.take_due())
        return log, dict(channel.stats)

    assert run() == run()


# -- endpoint ----------------------------------------------------------
def _serve(endpoint, frames, log):
    """One round at the far end: the worker applies whatever the endpoint
    releases, and its reply takes the pending places."""
    command, out = endpoint.handle_frames(frames)
    if command is None:
        return out
    log.append(command)
    return endpoint.replied(out, f"done:{command}")


def test_endpoint_applies_exactly_once():
    log = []
    endpoint = WorkerEndpoint()
    frame = _sealed(FRAME_DATA, 1, 0, "a")
    first = _serve(endpoint, [frame, frame], log)
    assert log == ["a"]
    assert [f[3] for f in first] == ["done:a", "done:a"]  # cached re-send
    assert all(frame_valid(f) and f[4] is not None for f in first)
    assert endpoint.stats["applied"] == 1
    assert endpoint.stats["duplicates_ignored"] == 1


def test_endpoint_rejects_corruption_and_gaps():
    log = []
    endpoint = WorkerEndpoint()
    out = _serve(endpoint, [
        corrupt_frame(_sealed(FRAME_DATA, 1, 0, "a")),
        _sealed(FRAME_DATA, 3, 0, "c"),
    ], log)
    assert out == []
    assert log == []
    assert endpoint.stats["corrupt_rejected"] == 1
    assert endpoint.stats["out_of_order_ignored"] == 1


def test_endpoint_prunes_cache_by_cumulative_ack():
    endpoint = WorkerEndpoint()
    _serve(endpoint, [_sealed(FRAME_DATA, 1, 0, "a")], [])
    _serve(endpoint, [_sealed(FRAME_DATA, 2, 1, "b")], [])
    assert list(endpoint._replies) == [2]
    replies = _serve(endpoint, [_sealed(FRAME_DATA, 1, 0, "a")], [])
    assert replies == []  # acked reply is gone; duplicate is just ignored
    assert endpoint.stats["duplicates_ignored"] == 1


def test_endpoint_answers_probes_with_progress():
    endpoint = WorkerEndpoint()
    _serve(endpoint, [_sealed(FRAME_DATA, 1, 0, "a")], [])
    (pong,) = _serve(endpoint, [_sealed(FRAME_PROBE, 0, 1, None)], [])
    assert frame_valid(pong)
    assert pong[1] == 1  # pong carries last_applied
    assert endpoint.stats["probes_answered"] == 1


# -- the link end to end -----------------------------------------------
def _request(link, payload, epoch, log=None):
    """Drive one exchange to its end, executing each released command."""
    rounds = link.request_rounds(payload, epoch)
    command = next(rounds)
    while True:
        reply = None
        if command is not None:
            if log is not None:
                log.append(command)
            reply = f"done:{command}"
        try:
            command = rounds.send(reply)
        except StopIteration as done:
            return done.value


def test_link_survives_heavy_weather_exactly_once():
    log = []
    link = ReliableLink(
        TransportFaultPlan().chaos_window(
            0, 1000, drop=0.4, duplicate=0.3, reorder=0.3, delay=0.3,
            corrupt=0.3,
        ),
        3, worker_index=0,
    )
    for i in range(20):
        assert _request(link, f"p{i}", epoch=i, log=log) == f"done:p{i}"
    assert log == [f"p{i}" for i in range(20)]  # exactly once, in order
    assert link.endpoint.stats["applied"] == 20
    stats = link.combined_stats()
    assert stats["worker_applied"] == 20
    assert stats["retransmits"] > 0
    assert stats["c2w_dropped"] + stats["w2c_dropped"] > 0


def test_link_lossless_bypasses_fault_channels(monkeypatch):
    # A link without a plan is lossless: its frames skip both channels
    # and carry no checksum, and each command reaches the worker once.
    def no_crc(*_args):
        raise AssertionError("a plan-less link computed a checksum")

    monkeypatch.setattr(transport, "frame_crc", no_crc)
    link = ReliableLink(None, 3, worker_index=0)
    log = []
    assert _request(link, "replay", epoch=0, log=log) == "done:replay"
    assert log == ["replay"]
    assert link.c2w.stats["sent"] == 0
    assert link.w2c.stats["sent"] == 0


def test_silent_worker_declared_dead():
    link = ReliableLink(
        TransportFaultPlan().drop_window(0, 1000, 1.0), 3, worker_index=0
    )
    with pytest.raises(WorkerUnresponsiveError):
        _request(link, "x", epoch=0)
    assert link.stats["probes_sent"] > 0


class _ZombieEndpoint(WorkerEndpoint):
    """Answers every round with a pong but never releases the command."""

    def handle_frames(self, frames):
        return None, [make_frame(FRAME_PONG, 0, 0, None, sealed=False)]


def test_round_budget_is_terminal():
    # A worker that stays audible (every round yields a pong) but never
    # completes the command starves the detector of silence -- only the
    # hard round budget can end the exchange.
    link = ReliableLink(None, 3, worker_index=0)
    link.endpoint = _ZombieEndpoint()
    with pytest.raises(TransportTimeoutError, match=str(MAX_ROUNDS)):
        _request(link, "x", epoch=0)
    assert link.stats["pongs_received"] == MAX_ROUNDS
