"""The codec's decode memo holds exactly the live tree lines.

:class:`~repro.oram.block.BlockCodec` keys its plaintext memo by NVM line
address, so an entry lives exactly as long as its line's content.  After
a seeded drive, the memo's keys must be the tree's written lines and
every entry's wire must be the very object the NVM image stores at that
line: a stale entry is memory the memo should not keep, and a missing
one sends a decode down the MAC-verifying slow path.
"""

import pytest

from repro.config import small_config
from repro.engine.registry import build_scheduled
from repro.util.rng import DeterministicRNG
from tests.cases import case

ACCESSES = 300


def _engines(controller):
    """The bare controller and its posmap-tree controller, if recursive."""
    bare = getattr(controller, "controller", controller)
    engines = [bare]
    posmap = getattr(bare, "posmap_oram", None)
    if posmap is not None:
        engines.append(posmap.controller)
    return engines


@pytest.mark.parametrize("window", [1, 4])
@pytest.mark.parametrize(
    "variant,integrity", [case("ps"), case("rcr-ps"), case("ps", True)]
)
def test_every_memo_entry_is_its_lines_current_wire(variant, integrity, window):
    config = small_config(height=6, channels=2, seed=3, sched_window=window,
                          integrity=integrity)
    controller = build_scheduled(variant, config)
    rng = DeterministicRNG(11)
    space = min(128, config.oram.num_logical_blocks)
    for i in range(ACCESSES):
        address = rng.randrange(space)
        if rng.randrange(2):
            controller.write(address, bytes([i % 256]) * 4)
        else:
            controller.read(address)
    if window > 1:
        controller.drain()
    engines = _engines(controller)
    assert len(engines) == (2 if variant == "rcr-ps" else 1)
    assert len({id(engine.tree.codec) for engine in engines}) == len(engines)
    for engine in engines:
        memo = engine.tree.codec._plain_memo
        region = engine.tree.region
        memory = engine.memory
        assert sorted(memo) == memory.written_lines(region.base, region.size_bytes)
        for line, entry in memo.items():
            wire = entry if isinstance(entry, bytes) else entry[0]
            assert memory.load_line(line) is wire
