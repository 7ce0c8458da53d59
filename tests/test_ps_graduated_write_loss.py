"""No-crash data loss of flat PS-ORAM after a graduating write.

A read leaves its block in the stash with a pending remap.  A write of
the same block then graduates that pending label, and its eviction
commits the live copy's PosMap entry and then the graduated one in the
same WPQ round.  When the live copy was placed in the tree, the PosMap
ends up naming the backup's path while the newer live copy sits on it.
The next access from another block through that path keeps the newer
copy, drops it as stale, and the block is gone.

This module runs that construction on every flat-PosMap PS row of the
registry, with the integrity domain off and on.  The six cases that lose
the block today are strict xfails: fixing ``DirtyEntryPSPolicy.evict``'s
commit order has to flip all of them.  The recursive rows are not
covered: their remap never graduates a label.
"""

import random

import pytest

from repro.config import small_config
from repro.core.variants import build_variant, variant_specs
from tests.cases import case

#: Persistence policies that park fresh labels in the temporary PosMap.
PS_POLICIES = ("dirty-entry-ps", "naive-flush-all")

#: Every flat PS row of the registry.
FLAT_PS_ROWS = [
    spec.name for spec in variant_specs()
    if spec.posmap == "flat" and spec.policy in PS_POLICIES
]

#: (row, integrity) cases that lose the block: all of them.
LOSING_CASES = [(name, integrity) for name in ("naive-ps", "ps", "ps-hybrid")
                for integrity in (False, True)]

_LOSS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="DirtyEntryPSPolicy.evict commits a graduated PosMap entry after "
           "the live entry of the same block in one WPQ round",
)

ADDRESSES = 600


def test_every_losing_row_is_a_flat_ps_row():
    assert {name for name, _ in LOSING_CASES} <= set(FLAT_PS_ROWS)


@pytest.mark.parametrize("variant,integrity", [
    case(name, integrity, marks=_LOSS if (name, integrity) in LOSING_CASES else ())
    for name in FLAT_PS_ROWS
    for integrity in (False, True)
])
def test_graduated_write_keeps_its_data(variant, integrity):
    controller = build_variant(variant, small_config(height=8, seed=1, integrity=integrity))
    rng = random.Random(1)
    shadow = {}

    def write(address):
        value = rng.randbytes(8)
        controller.write(address, value)
        shadow[address] = value + bytes(56)

    for address in range(ADDRESSES):
        write(address)
    # Read, then a graduating write that leaves the block in the tree.
    for _ in range(3000):
        address = rng.randrange(ADDRESSES)
        controller.read(address)
        graduated = controller.stats.get("labels_graduated")
        write(address)
        if controller.stats.get("labels_graduated") > graduated \
                and controller.stash.find(address) is None:
            break
    else:
        pytest.fail("no graduated write left its block placed in the tree")
    # Another block's access through the block's persistent label.
    label = controller.posmap.get(address)
    other = next(block for block in range(ADDRESSES)
                 if block != address and controller._position_of(block) == label)
    controller.read(other)
    assert controller.read(address).data == shadow[address]
