"""Bit-identity fixture for the memory-side tap: the bus observer.

The bus observer records every line request through
:class:`repro.mem.controller.NVMMainMemory`'s ``request_observer``.  These
digests pin what it sees on a seeded ``ps`` run (and an ``rcr-ps`` run,
whose intent log issues single lines rather than path bursts), so a change
to how the tap is wired into the memory cannot move a line, a request kind
or its order.
"""

import hashlib
import json

import pytest

from repro.config import small_config
from repro.core.variants import build_variant
from repro.security.observer import BusObserver
from repro.util.rng import DeterministicRNG

#: sha256 of the observed ``(address, is_write, kind)`` event list.  The
#: ``rcr-ps`` digest was captured at the last commit that still carried the
#: Ring hierarchy, before any of its removal touched ``src/``.
BUS_EXPECTED = {
    "ps": "654e23c8836df0321daf2469e90b3268e81cec92ccd53e314ec39dda2da35010",
    "rcr-ps": "b4196ade3efbcaa7e2580263e239c0b7f88fc80a47381a0deefc6925faacbc0a",
}


def drive(controller, n, space, seed=99):
    rng = DeterministicRNG(seed)
    for i in range(n):
        addr = rng.randrange(space)
        if rng.randrange(2):
            controller.write(addr, addr.to_bytes(4, "little") + bytes([i % 256]))
        else:
            controller.read(addr)


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def bus_events(variant):
    controller = build_variant(variant, small_config(height=6, seed=4))
    with BusObserver(controller.memory) as observer:
        drive(controller, 80, 120)
    return _sha([[e.address, e.is_write, e.kind] for e in observer.events])


@pytest.mark.parametrize("variant", sorted(BUS_EXPECTED))
def test_bus_observer_events_are_bit_identical(variant):
    assert bus_events(variant) == BUS_EXPECTED[variant]
