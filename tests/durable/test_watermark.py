"""Unit tests for the cluster stability watermark (repro.durable.watermark)."""

from dataclasses import fields

import pytest

from repro.durable import DurabilityConfig, StabilityTracker
from repro.durable.watermark import AGGRESSIVE, CONSERVATIVE, POLICIES


def tracker_with(monkeypatch, policy):
    monkeypatch.setattr(StabilityTracker, "policy", policy)
    return StabilityTracker()


def test_stable_seq_is_min_over_members():
    tracker = StabilityTracker()
    tracker.register("R0")
    tracker.register("R1")
    tracker.register("R2")
    assert tracker.stable_seq() == 0
    tracker.ack("R0", 5)
    tracker.ack("R1", 3)
    tracker.ack("R2", 7)
    assert tracker.stable_seq() == 3
    tracker.ack("R1", 9)
    assert tracker.stable_seq() == 5


def test_acks_are_monotonic_and_unregistered_ignored():
    tracker = StabilityTracker()
    tracker.register("R0")
    tracker.ack("R0", 5)
    tracker.ack("R0", 2)  # stale ack must not move the mark backwards
    assert tracker.stable_seq() == 5
    tracker.ack("ghost", 1)  # never registered
    assert tracker.stable_seq() == 5


def test_conservative_policy_pins_crashed_member():
    tracker = StabilityTracker()
    tracker.register("R0")
    tracker.register("R1")
    tracker.ack("R0", 4)
    tracker.ack("R1", 10)
    tracker.crash("R0")
    # the crashed member's last ack keeps holding the watermark, so a
    # donor retains exactly the suffix the rejoiner will ask for
    assert tracker.stable_seq() == 4
    tracker.ack("R1", 20)
    assert tracker.stable_seq() == 4
    # re-registration (recovery) releases the pin
    tracker.register("R0", 4)
    tracker.ack("R0", 20)
    assert tracker.stable_seq() == 20


def test_aggressive_policy_forgets_crashed_member(monkeypatch):
    tracker = tracker_with(monkeypatch, AGGRESSIVE)
    tracker.register("R0")
    tracker.register("R1")
    tracker.ack("R0", 4)
    tracker.ack("R1", 10)
    tracker.crash("R0")
    assert tracker.stable_seq() == 10  # survivors only


def test_register_max_merges_prior_state():
    tracker = StabilityTracker()
    tracker.register("R0", 7)
    tracker.register("R0", 3)  # a stale re-register must not regress
    assert tracker.stable_seq() == 7


def test_bad_policy_rejected(monkeypatch):
    with pytest.raises(ValueError):
        tracker_with(monkeypatch, "yolo")


def test_durability_config_takes_exactly_two_policies(monkeypatch):
    """A log that keeps every record takes no checkpoints; there is no
    policy that disables truncation.  The policy is no config field: a
    deployment runs the conservative one, and tests set the class
    constant."""
    assert POLICIES == (CONSERVATIVE, AGGRESSIVE)
    assert StabilityTracker.policy == CONSERVATIVE
    assert "truncation" not in {f.name for f in fields(DurabilityConfig)}
    for policy in POLICIES:
        assert tracker_with(monkeypatch, policy).policy == policy
    with pytest.raises(ValueError):
        tracker_with(monkeypatch, "none")
