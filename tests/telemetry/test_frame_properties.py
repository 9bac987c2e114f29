"""Properties of telemetry frame rendering and checksums.

* the coordinator renders each barrier's merged events itself
  (``render_lines``); its text must equal the reference rendering of
  every event in ``(now, track, seq)`` order, and the aggregator hashes
  exactly that text;
* a frame's checksum depends on values only: equal events checksum
  equally however their objects are shared or copied;
* tampering with any field of a frame's wire tuple, any byte of its
  encoded body, or any value inside that body is rejected.
"""

import copy
import hashlib
import marshal
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    FrameChecksumError,
    TelemetryAggregator,
    TelemetryFrame,
    TraceSpanEvent,
)
from repro.telemetry.aggregate import MERGE_CHAIN_SEED, render_lines

TRACKS = ("core:m0/0", "request:m0/7", "container:m1/3", "facility:m2")

floats = st.one_of(
    st.sampled_from((-0.0, 0.0, 1e-300, 1e300)),
    st.floats(allow_nan=False, allow_infinity=False),
)
values = st.one_of(
    floats,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=6),
    st.booleans(),
)
args = st.dictionaries(
    st.text(alphabet="abcxyz_", min_size=1, max_size=4), values, max_size=3
).map(lambda pairs: tuple(sorted(pairs.items())))
raw_events = st.lists(
    st.tuples(
        floats,
        st.sampled_from(TRACKS),
        st.sampled_from("BEIC"),
        st.text(max_size=8),
        args,
    ),
    max_size=25,
)


def _reference_canonical(kind, now, track, name, pairs) -> str:
    """The canonical line exactly as the trace fingerprint defines it."""
    parts = [kind, repr(now), track, name]
    for key, value in pairs:
        if isinstance(value, float):
            parts.append(f"{key}={value!r}")
        else:
            parts.append(f"{key}={value}")
    return "|".join(parts)


def _wire_events(raw) -> list:
    """``(now, track, seq, kind, name, args)`` with per-track seqs."""
    seqs: dict[str, int] = {}
    out = []
    for now, track, kind, name, pairs in raw:
        seq = seqs.get(track, 0)
        seqs[track] = seq + 1
        out.append((now, track, seq, kind, name, pairs))
    return out


def _key(event):
    return event[0], event[1], event[2]


def _fresh(value):
    """An equal copy sharing no object with ``value``."""
    if isinstance(value, tuple):
        return tuple(_fresh(item) for item in value)
    if isinstance(value, str):
        return (value + ".")[:-1]
    if isinstance(value, float):
        return float(repr(value))
    return value


@settings(max_examples=60, deadline=None)
@given(raw=raw_events, n_shards=st.integers(min_value=1, max_value=3))
@example(
    raw=[
        (-0.0, "core:m0/0", "B", "stage:x", (("container", 3),)),
        (1e-300, "request:m0/7", "I", "shed", (("n", -1), ("why", "cap"))),
        (1e300, "container:m1/3", "C", "energy_j", (("value", -0.0),)),
        (0.5, "facility:m2", "E", "", ()),
    ],
    n_shards=2,
)
def test_batched_barrier_text_matches_reference_rendering(raw, n_shards):
    events = _wire_events(raw)
    by_shard: dict[int, list] = {}
    for event in events:
        shard = TRACKS.index(event[1]) % n_shards
        by_shard.setdefault(shard, []).append(event)
    frames = [
        TelemetryFrame.build(shard, 0, tuple(sorted(evs, key=_key)), ())
        .to_wire()
        for shard, evs in sorted(by_shard.items())
    ]
    aggregator = TelemetryAggregator()
    aggregator.ingest(frames)

    ordered = sorted(events, key=_key)
    merged = [
        TraceSpanEvent(kind, now, track, name, pairs)
        for now, track, _seq, kind, name, pairs in ordered
    ]
    reference = [_reference_canonical(*span) for span in merged]
    assert render_lines(ordered) == reference
    assert [span.canonical() for span in merged] == reference
    text = "".join(line + "\n" for line in reference)
    expected = (
        hashlib.sha256((MERGE_CHAIN_SEED + text).encode()).hexdigest()
        if merged else MERGE_CHAIN_SEED
    )
    assert aggregator.chain == expected
    assert aggregator.events_merged == len(merged)


@settings(max_examples=60, deadline=None)
@given(raw=raw_events)
def test_checksum_depends_on_values_only(raw):
    events = tuple(sorted(_wire_events(raw), key=_key))
    metrics = (("c", "facility_m0_total", "help", 2.0),)
    frame = TelemetryFrame.build(1, 3, events, metrics)
    for copied in (
        pickle.loads(pickle.dumps(events)),
        copy.deepcopy(events),
        _fresh(events),
    ):
        assert TelemetryFrame.build(1, 3, copied, metrics).checksum \
            == frame.checksum
    wire = pickle.loads(pickle.dumps(frame.to_wire()))
    assert TelemetryFrame.from_wire(_fresh(wire)).checksum == frame.checksum


def _tweak(value):
    """A value of the same kind that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        if not value:
            return (("k", 1),)
        return (_tweak(value[0]),) + value[1:]
    raise AssertionError(f"no tweak for {value!r}")


@settings(max_examples=80, deadline=None)
@given(raw=raw_events, data=st.data())
def test_any_tampered_field_is_rejected(raw, data):
    events = tuple(sorted(_wire_events(raw), key=_key))
    frame = TelemetryFrame.build(2, 5, events, (("g", "cap", "", 1.5),))
    wire = list(frame.to_wire())
    field = data.draw(
        st.sampled_from(("shard", "epoch", "checksum", "byte", "event",
                         "metric")),
        label="field",
    )
    if field in ("shard", "epoch", "checksum"):
        index = {"shard": 1, "epoch": 2, "checksum": 4}[field]
        wire[index] = _tweak(wire[index])
    elif field == "byte":
        body = bytearray(frame.body)
        at = data.draw(
            st.integers(min_value=0, max_value=len(body) - 1), label="at"
        )
        body[at] ^= data.draw(st.integers(min_value=1, max_value=255))
        wire[3] = bytes(body)
    else:
        # Re-encode the body with one value changed; keep the checksum.
        body = [list(part) for part in (frame.events, frame.metrics)]
        rows = body[("event", "metric").index(field)] or body[1]
        row = data.draw(
            st.integers(min_value=0, max_value=len(rows) - 1), label="row"
        )
        values = list(rows[row])
        column = data.draw(
            st.integers(min_value=0, max_value=len(values) - 1),
            label="column",
        )
        values[column] = _tweak(values[column])
        rows[row] = tuple(values)
        wire[3] = marshal.dumps(tuple(tuple(part) for part in body), 2)
    with pytest.raises(FrameChecksumError):
        TelemetryFrame.from_wire(tuple(wire))
