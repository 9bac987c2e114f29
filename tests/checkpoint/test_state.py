"""Snapshot payload rules: plain-data validation, digests, and diffs."""

import math

import numpy as np
import pytest

from repro.checkpoint import (
    canonical_bytes,
    diff_states,
    generator_state,
    payload_digest,
    validate_plain,
)


# ---------------------------------------------------------------------------
# validate_plain
# ---------------------------------------------------------------------------
def test_plain_tree_passes():
    validate_plain({
        "v": 1, "name": "x", "values": [1, 2.5, None, True],
        "nested": {"t": (1, "a"), "raw": b"bytes"},
    })


def test_object_reference_rejected_with_path():
    class Thing:
        pass

    with pytest.raises(TypeError, match=r"payload\['a'\]\[1\]"):
        validate_plain({"a": [0, Thing()]})


def test_non_string_dict_key_rejected():
    with pytest.raises(TypeError, match="not a string"):
        validate_plain({1: "x"})


def test_set_rejected():
    with pytest.raises(TypeError, match="set"):
        validate_plain({"s": {1, 2}})


def test_numpy_scalar_rejected():
    with pytest.raises(TypeError):
        validate_plain({"x": np.float64(1.0)})


# ---------------------------------------------------------------------------
# canonical bytes / digest
# ---------------------------------------------------------------------------
def test_canonical_bytes_stable_for_equal_payloads():
    payload = {"a": 1, "b": [1.5, "x"], "c": {"d": None}}
    clone = {"a": 1, "b": [1.5, "x"], "c": {"d": None}}
    assert canonical_bytes(payload) == canonical_bytes(clone)
    assert payload_digest(payload) == payload_digest(clone)


def test_digest_sensitive_to_any_field():
    base = {"a": 1, "b": 2.0}
    assert payload_digest(base) != payload_digest({"a": 1, "b": 2.0000001})


# ---------------------------------------------------------------------------
# diff_states
# ---------------------------------------------------------------------------
def test_identical_trees_have_no_diff():
    tree = {"x": [1, 2.0, float("nan")], "y": {"z": "s"}}
    clone = {"x": [1, 2.0, float("nan")], "y": {"z": "s"}}
    assert diff_states(tree, clone) == []


def test_nan_equals_nan():
    assert diff_states({"w": float("nan")}, {"w": float("nan")}) == []


def test_negative_zero_differs_from_zero():
    diffs = diff_states({"w": -0.0}, {"w": 0.0})
    assert diffs and "-0.0" in diffs[0]


def test_scalar_divergence_named_by_path():
    diffs = diff_states({"a": {"b": [1, 2]}}, {"a": {"b": [1, 3]}})
    assert diffs == ["state['a']['b'][1]: 2 != 3"]


def test_missing_and_unexpected_keys_sorted():
    diffs = diff_states({"a": 1, "b": 2}, {"b": 2, "c": 3})
    assert diffs == [
        "state['a']: missing in replayed state",
        "state['c']: unexpected in replayed state",
    ]


def test_length_mismatch_reported_once():
    assert diff_states([1, 2, 3], [1, 2]) == ["state: length 3 != 2"]


def test_diff_limit_respected():
    expected = {str(i): i for i in range(20)}
    actual = {str(i): i + 1 for i in range(20)}
    assert len(diff_states(expected, actual, limit=5)) == 5


# ---------------------------------------------------------------------------
# RNG state capture
# ---------------------------------------------------------------------------
def test_generator_state_roundtrip_is_bit_exact():
    gen = np.random.Generator(np.random.PCG64(123))
    gen.random(17)
    state = generator_state(gen)
    validate_plain(state)
    ahead = gen.random(5).tolist()
    clone = np.random.Generator(np.random.PCG64(0))
    clone.bit_generator.state = state
    assert clone.random(5).tolist() == ahead


def test_generator_state_capture_does_not_advance():
    gen = np.random.Generator(np.random.PCG64(7))
    before = generator_state(gen)
    after = generator_state(gen)
    assert before == after
    assert math.isfinite(gen.random())
