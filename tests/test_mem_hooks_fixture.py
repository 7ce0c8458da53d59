"""Bit-identity fixture for the memory-side taps: wear leveling and the bus observer.

Start-Gap wear leveling translates every line address below the ORAM
controller, and the bus observer records every line request.  Both tap
:class:`repro.mem.controller.NVMMainMemory`; these digests pin what they
produce on a seeded ``ps`` run (and an ``rcr-ps`` run, whose intent log
issues single lines rather than path bursts), so a change to how the taps are
wired into the memory cannot move a line, a cycle or a counter.
"""

import hashlib
import json

import pytest

from repro.config import small_config
from repro.core.variants import build_variant
from repro.mem.wearlevel import attach_wear_leveling
from repro.security.observer import BusObserver
from repro.util.rng import DeterministicRNG

#: (image sha256, final cycle, startgap stats, per-line wear sha256),
#: captured while both taps still overwrote ``memory.issue`` per instance.
#: Only the final cycle was recaptured (2,232,454 -> 1,535,534) when the
#: busy-interval calendar became the only memory timing model.  Each gap
#: move issues at the triggering write's completion cycle.  The old
#: call-order dispatch cursor then queued the rest of that write burst
#: behind the move; the calendar serves the burst's lines in the idle
#: slots before it.
WEAR_EXPECTED = (
    "7c45d897cc8761c95693c831dd498a70d59b19374c04b210d8b90c7665685d76",
    1535534,
    {"gap_moves": 840, "sweeps": 1},
    "1727594fea9766c0aa35a018d010a00463dd0b75a734b4db686aa3169c98294c",
)

#: sha256 of the observed ``(address, is_write, kind)`` event list.  The
#: ``rcr-ps`` digest was captured at the last commit that still carried the
#: Ring hierarchy, before any of its removal touched ``src/``.
BUS_EXPECTED = {
    "ps": "654e23c8836df0321daf2469e90b3268e81cec92ccd53e314ec39dda2da35010",
    "rcr-ps": "b4196ade3efbcaa7e2580263e239c0b7f88fc80a47381a0deefc6925faacbc0a",
}


def drive(controller, n, space, seed=99, crash_at=None):
    rng = DeterministicRNG(seed)
    for i in range(n):
        if crash_at is not None and i == crash_at:
            controller.crash()
            assert controller.recover()
        addr = rng.randrange(space)
        if rng.randrange(2):
            controller.write(addr, addr.to_bytes(4, "little") + bytes([i % 256]))
        else:
            controller.read(addr)


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def wear_run():
    controller = build_variant("ps", small_config(height=6, seed=4))
    controller.memory.traffic.track_wear = True
    remapper = attach_wear_leveling(controller, gap_period=8)
    drive(controller, 240, 150, crash_at=120)
    memory = controller.memory
    image = _sha([[line, memory._image[line].hex()] for line in sorted(memory._image)])
    wear = _sha(sorted(memory.traffic._line_writes.items()))
    return image, controller.now, dict(remapper.stats.snapshot()), wear


def bus_events(variant):
    controller = build_variant(variant, small_config(height=6, seed=4))
    with BusObserver(controller.memory) as observer:
        drive(controller, 80, 120)
    return _sha([[e.address, e.is_write, e.kind] for e in observer.events])


def test_wear_leveled_ps_run_is_bit_identical():
    assert wear_run() == WEAR_EXPECTED


@pytest.mark.parametrize("variant", sorted(BUS_EXPECTED))
def test_bus_observer_events_are_bit_identical(variant):
    assert bus_events(variant) == BUS_EXPECTED[variant]
