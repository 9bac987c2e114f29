"""Tests for counter banks and the sibling sample mailbox."""

import pytest

from repro.hardware import CounterBank, SampleMailbox, EventVector
from repro.hardware.counters import UtilizationSample


def test_counterbank_accumulates():
    bank = CounterBank()
    bank.accumulate(EventVector(nonhalt_cycles=100, instructions=200))
    bank.accumulate(EventVector(nonhalt_cycles=50))
    snap = bank.read()
    assert snap.nonhalt_cycles == 150
    assert snap.instructions == 200


def test_read_returns_snapshot_not_live_reference():
    bank = CounterBank()
    snap = bank.read()
    bank.accumulate(EventVector(nonhalt_cycles=10))
    assert snap.nonhalt_cycles == 0


def test_overflow_disabled_by_default():
    bank = CounterBank()
    assert bank.cycles_until_overflow() == float("inf")
    assert not bank.overflow_pending()


def test_overflow_threshold_counts_down():
    bank = CounterBank(overflow_threshold_cycles=1000)
    assert bank.cycles_until_overflow() == 1000
    bank.accumulate(EventVector(nonhalt_cycles=400))
    assert bank.cycles_until_overflow() == 600
    bank.accumulate(EventVector(nonhalt_cycles=600))
    assert bank.overflow_pending()


def test_acknowledge_rearms_from_current_count():
    bank = CounterBank(overflow_threshold_cycles=1000)
    bank.accumulate(EventVector(nonhalt_cycles=1500))
    assert bank.overflow_pending()
    bank.acknowledge_overflow()
    assert not bank.overflow_pending()
    assert bank.cycles_until_overflow() == 1000


def test_overflow_remaining_never_negative():
    bank = CounterBank(overflow_threshold_cycles=100)
    bank.accumulate(EventVector(nonhalt_cycles=250))
    assert bank.cycles_until_overflow() == 0


def test_mailbox_initially_zero():
    box = SampleMailbox()
    sample = box.peek()
    assert sample.time == 0.0
    assert sample.mcore == 0.0


def test_mailbox_post_and_peek():
    box = SampleMailbox()
    box.post(1.5, 0.75)
    assert box.peek() == UtilizationSample(time=1.5, mcore=0.75)


def test_mailbox_keeps_only_latest():
    box = SampleMailbox()
    box.post(1.0, 0.2)
    box.post(2.0, 0.9)
    assert box.peek().mcore == 0.9


def test_mailbox_rejects_out_of_range_utilization():
    box = SampleMailbox()
    with pytest.raises(ValueError):
        box.post(1.0, 1.5)
    with pytest.raises(ValueError):
        box.post(1.0, -0.1)


def test_mailbox_clamps_tiny_overshoot():
    box = SampleMailbox()
    box.post(1.0, 1.0 + 5e-10)
    assert box.peek().mcore == 1.0


def test_frozen_mailbox_ignores_trusted_posts():
    box = SampleMailbox()
    box.post(1.0, 0.4)
    box.frozen = True
    box.post_trusted(2.0, 0.9)
    box.post(3.0, 0.1)
    assert box.peek() == UtilizationSample(time=1.0, mcore=0.4)
    box.frozen = False
    box.post_trusted(4.0, 0.9)
    assert box.peek() == UtilizationSample(time=4.0, mcore=0.9)
