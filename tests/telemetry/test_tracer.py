"""Unit tests for the span tracer: nesting, eviction, export, fingerprint."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import RequestTracer, Telemetry


def test_unnamed_end_closes_innermost_span():
    tracer = RequestTracer()
    tracer.begin(0.0, "request:1", "request")
    tracer.begin(0.1, "request:1", "stage:parse")
    assert tracer.open_depth("request:1") == 2
    tracer.end(0.2, "request:1")
    assert tracer.open_depth("request:1") == 1
    tracer.end(0.3, "request:1")
    assert tracer.open_depth("request:1") == 0
    kinds = [e.kind for e in tracer.events]
    names = [e.name for e in tracer.events]
    assert kinds == ["B", "B", "E", "E"]
    assert names == ["request", "stage:parse", "stage:parse", "request"]


def test_named_end_abandons_nested_opens():
    tracer = RequestTracer()
    tracer.begin(0.0, "t", "outer")
    tracer.begin(0.1, "t", "inner")
    tracer.end(0.5, "t", name="outer")
    assert tracer.open_depth("t") == 0


def test_closed_tracks_release_their_open_span_stacks():
    """A finished track keeps no entry, so open-span state stays bounded
    by what is open, like the ring, however many requests a run traces."""
    tracer = RequestTracer(capacity=100)
    for i in range(10_000):
        track = f"request:m0/{i}"
        tracer.begin(float(i), track, "request", args={"container": i})
        tracer.begin(float(i), track, "stage:parse")
        tracer.end(i + 0.5, track, name="request")  # abandons the stage
    tracer.begin(1e4, "request:m0/open", "request")
    tracer.end(1e4, "request:m0/never-opened", name="request")
    assert len(tracer) == 100
    assert list(tracer._open) == ["request:m0/open"]
    assert list(tracer.snapshot_state()["open"]) == ["request:m0/open"]


def test_ring_buffer_evicts_oldest_and_counts_drops():
    tracer = RequestTracer(capacity=4)
    for i in range(6):
        tracer.instant(float(i), "t", f"e{i}")
    assert len(tracer) == 4
    assert tracer.dropped_events == 2
    assert [e.name for e in tracer.events] == ["e2", "e3", "e4", "e5"]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        RequestTracer(capacity=0)


def test_fingerprint_stable_across_identical_sequences():
    def record(tracer):
        tracer.begin(0.0, "r", "request", args={"container": 1})
        tracer.counter(0.5, "c", "energy_j", 1.25)
        tracer.end(1.0, "r", args={"energy_j": 1.25})

    a, b = RequestTracer(), RequestTracer()
    record(a)
    record(b)
    assert a.trace_fingerprint() == b.trace_fingerprint()


def test_fingerprint_sensitive_to_args_and_drops():
    a, b = RequestTracer(), RequestTracer()
    a.instant(0.0, "t", "e", args={"v": 1.0})
    b.instant(0.0, "t", "e", args={"v": 2.0})
    assert a.trace_fingerprint() != b.trace_fingerprint()

    full = RequestTracer(capacity=1)
    full.instant(0.0, "t", "e", args={"v": 1.0})
    full.instant(1.0, "t", "e2")  # evicts the first event
    alone = RequestTracer(capacity=1)
    alone.instant(1.0, "t", "e2")
    assert full.trace_fingerprint() != alone.trace_fingerprint()


def test_chrome_trace_pairs_spans_and_merges_args():
    tracer = RequestTracer()
    tracer.begin(0.0, "r", "request", args={"container": 7})
    tracer.instant(0.5, "r", "overflow")
    tracer.counter(0.5, "r", "energy_j", 2.0)
    tracer.end(1.0, "r", args={"energy_j": 2.0})
    trace = json.loads(tracer.to_chrome_json())
    events = trace["traceEvents"]
    by_ph = {e["ph"] for e in events}
    assert by_ph == {"M", "X", "i", "C"}
    (span,) = [e for e in events if e["ph"] == "X"]
    assert span["name"] == "request"
    assert span["ts"] == 0.0
    assert span["dur"] == pytest.approx(1e6)
    assert span["args"] == {"container": 7, "energy_j": 2.0}
    (meta,) = [e for e in events if e["ph"] == "M"]
    assert meta["args"]["name"] == "r"
    (counter,) = [e for e in events if e["ph"] == "C"]
    assert counter["args"] == {"energy_j": 2.0}


def test_chrome_trace_skips_unmatched_end():
    tracer = RequestTracer()
    tracer.end(1.0, "r", name="never-opened")
    events = tracer.to_chrome_trace()["traceEvents"]
    assert all(e["ph"] != "X" for e in events)


def test_timeline_markers_limit_and_drop_footer():
    tracer = RequestTracer(capacity=3)
    tracer.begin(0.0, "t", "span")
    tracer.instant(0.1, "t", "point", args={"k": "v"})
    tracer.counter(0.2, "t", "series", 1.0)
    tracer.end(0.3, "t")  # evicts the begin; ring keeps the last 3 events
    text = tracer.timeline(limit=2)
    lines = text.splitlines()
    assert "* " in lines[0] and "[k=v]" in lines[0]
    assert "= " in lines[1] and "series" in lines[1]
    assert "more events" in lines[2]
    assert "1 events dropped" in lines[-1]


def test_telemetry_handle_defaults():
    t = Telemetry()
    assert t.enabled
    assert t.tracer is not None
    assert t.registry is not None
    t.tracer.instant(0.0, "t", "e")
    assert t.trace_fingerprint() == t.tracer.trace_fingerprint()

    off = Telemetry(enabled=False)
    assert not off.enabled
    assert len(off.tracer.events) == 0


_span_args = st.dictionaries(
    st.sampled_from(("container", "reason", "energy_j", "label")),
    st.one_of(
        st.none(),
        st.integers(min_value=-5, max_value=5),
        st.sampled_from((-0.0, 0.0, 1e-300, 1.5)),
        st.text(alphabet="ab", max_size=2),
    ),
    max_size=2,
)
_span_ops = st.lists(
    st.tuples(
        st.sampled_from(("begin", "end")),
        st.sampled_from(("core:m0/0", "core:m0/1", "request:m0/7")),
        st.one_of(st.none(), st.sampled_from(("stage:a", "stage:b"))),
        _span_args,
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(ops=_span_ops, capacity=st.sampled_from((None, 3, 64)))
def test_frozen_span_path_records_what_the_dict_path_records(ops, capacity):
    """``begin_frozen``/``end_frozen`` with pre-sorted pair tuples give
    the same events, depths, state and fingerprint as ``begin``/``end``
    with args dicts."""
    by_dict = RequestTracer(capacity=capacity)
    frozen = RequestTracer(capacity=capacity)
    for i, (op, track, name, args) in enumerate(ops):
        now = i * 0.25
        pairs = tuple(sorted(args.items()))
        if op == "begin":
            name = name or "request"
            by_dict.begin(now, track, name, args)
            frozen.begin_frozen(now, track, name, pairs)
        else:
            by_dict.end(now, track, name, args)
            frozen.end_frozen(now, track, name, pairs)
    assert list(frozen.events) == list(by_dict.events)
    for track in ("core:m0/0", "core:m0/1", "request:m0/7"):
        assert frozen.open_depth(track) == by_dict.open_depth(track)
    assert frozen.snapshot_state() == by_dict.snapshot_state()
    assert frozen.trace_fingerprint() == by_dict.trace_fingerprint()
    assert frozen.dropped_events == by_dict.dropped_events
