"""Persists complete at WPQ acceptance: no access waits for an NVM write.

Under ADR a write the WPQ has accepted is durable, so the Rcr-PS intent
record and the integrity commit lines are posted, like a drainer round:
they are issued at the access's current cycle and the access moves on.
These tests pin that rule at both sites, and check the premise that makes
posting safe: in normal operation no timed read ever targets an intent
line or an integrity digest line, so nothing can read a posted line early.
"""

import pytest

from repro.config import small_config
from repro.engine.registry import build_scheduled
from repro.mem.request import Access
from repro.util.rng import DeterministicRNG
from tests.cases import case


def _build(variant, integrity=False, window=4):
    config = small_config(height=6, seed=5, integrity=integrity)
    return build_scheduled(variant, config, window=window)


def _drive(controller, accesses=120, space=60, seed=5):
    """Mixed reads and writes; returns the per-access results."""
    rng = DeterministicRNG(seed)
    results = []
    for i in range(accesses):
        address = rng.randrange(space)
        if rng.randrange(2):
            results.append(controller.write(address, bytes([i % 256])))
        else:
            results.append(controller.read(address))
    return results


def _clock_pairs(variant, before, after, integrity=False):
    """(clock at ``before``, clock at ``after``) for every access firing both.

    The clock read is the bare controller's ``now``, not the window's
    completion horizon.
    """
    controller = _build(variant, integrity)
    bare = controller.controller
    pending = []
    pairs = []

    def listener(label):
        if label == before:
            pending.append(bare.now)
        elif label == after and pending:
            pairs.append((pending.pop(), bare.now))

    controller.crash_hook = listener
    _drive(controller)
    return pairs


def test_intent_record_does_not_advance_the_clock():
    pairs = _clock_pairs("rcr-ps", "step2:before-remap", "step2:after-intent")
    assert len(pairs) > 50
    assert all(before == after for before, after in pairs)


@pytest.mark.parametrize("variant,integrity", [case("ps", True), case("rcr-ps", True)])
def test_integrity_commit_does_not_advance_the_clock(variant, integrity):
    pairs = _clock_pairs(variant, "integrity:after-propagate", "integrity:after-persist",
                         integrity)
    assert len(pairs) > 50
    assert all(before == after for before, after in pairs)


def _drive_observed(controller):
    """Drive a run under a request observer; returns the results and the
    (address, access) of every timed line."""
    events = []
    controller.memory.request_observer = (
        lambda address, request: events.append((address, request.access))
    )
    return _drive(controller), events


def _observed_run(variant, integrity=False):
    """Drive a run under a request observer.

    Returns the results, the (address, access) of every timed line, and
    the byte ranges [lo, hi) of the posted lines: the intent log and the
    integrity digest lines, whichever the variant has.
    """
    controller = _build(variant, integrity)
    results, events = _drive_observed(controller)
    ranges = []
    intent_log = getattr(controller, "intent_log", None)
    if intent_log is not None:
        ranges.append((intent_log.base, intent_log.base + intent_log.size_bytes))
    if controller.integrity is not None:
        ranges.append((controller.integrity.node_base, controller.integrity.node_end))
    return results, events, ranges


@pytest.mark.parametrize("variant,integrity", [
    case("rcr-ps"), case("ps", True), case("rcr-ps", True),
])
def test_posted_lines_are_never_read(variant, integrity):
    _, events, ranges = _observed_run(variant, integrity)

    def posted(address):
        return any(lo <= address < hi for lo, hi in ranges)

    writes = [a for a, access in events if access is Access.WRITE and posted(a)]
    reads = [a for a, access in events if access is Access.READ and posted(a)]
    assert writes, "the run wrote no posted line: the check would be vacuous"
    assert reads == []


@pytest.mark.parametrize("window", [1, 4])
@pytest.mark.parametrize("variant", ["ps", "naive-ps", "rcr-ps"])
def test_residual_tree_lines_are_never_read(variant, window):
    """No timed read touches a line the residual line tree covers or a
    digest line.  Recovery rebuilds the residual tree from the image and
    reads only the witness, so this is why a lazy commit persists the
    witness alone: a persisted interior digest would never be read."""
    controller = _build(variant, integrity=True, window=window)
    domain = controller.integrity
    assert domain.discipline in ("lazy", "eager")
    _, events = _drive_observed(controller)

    def residual(address):
        return (domain.line_tree.base <= address < domain.protect_bytes
                and domain._route(address) is domain.line_tree)

    def digest(address):
        return domain.node_base <= address < domain.node_end

    for covered in (residual, digest):
        writes = [a for a, access in events if access is Access.WRITE and covered(a)]
        reads = [a for a, access in events if access is Access.READ and covered(a)]
        assert writes, f"the run wrote no {covered.__name__} line: the check would be vacuous"
        assert reads == []


def test_rcr_ps_writes_one_intent_line_per_access():
    results, events, [(lo, hi)] = _observed_run("rcr-ps")
    intent_writes = sum(
        1 for address, access in events if access is Access.WRITE and lo <= address < hi
    )
    full_accesses = sum(1 for result in results if not result.stash_hit)
    assert full_accesses > 0
    assert intent_writes == full_accesses
