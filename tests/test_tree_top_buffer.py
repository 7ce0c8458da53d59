"""Windowed timing soundness and the on-chip tree-top bucket buffer.

A window deeper than 1 overlaps consecutive accesses (docs/SCHEDULER.md)
and serves the top levels of every ORAM tree from an on-chip
write-through bucket buffer.  Two properties keep that timing causal:

* the **read-after-write oracle** — no NVM read of a line completes
  before the latest earlier write of that line (in call order) does,
  checked through ``NVMMainMemory.request_observer`` on every registry
  variant that has a tree, with the integrity domain off and on, at
  windows 1, 4 and 16;
* the **buffer's own rule** — a path fetch completes no earlier than the
  cycle the same controller's previous eviction refreshed the buffer.

The buffer changes reads only: NVM write traffic and the final image
equal the serial run's.
"""

from collections import Counter

import pytest

from repro.config import small_config
from repro.engine.registry import build_scheduled, variant_specs
from repro.mem.request import Access
from repro.util.rng import DeterministicRNG
from tests.cases import case, layout_cases

HEIGHT = 8
ACCESSES = 300
SEED = 3

RECURSIVE_VARIANTS = [
    spec.name for spec in variant_specs() if spec.posmap == "recursive"
]


def _engines(controller):
    """The controller and its posmap-tree controller, if recursive."""
    engines = [controller]
    posmap = getattr(controller, "posmap_oram", None)
    if posmap is not None:
        engines.append(posmap.controller)
    return engines


def _tree_level(tree, address):
    """Level of the bucket holding ``address``, or None outside ``tree``."""
    region = tree.region
    if not region.base <= address < region.base + region.size_bytes:
        return None
    bucket = (address - region.base) // region.line_bytes // region.z
    return (bucket + 1).bit_length() - 1


class _Run:
    """One seeded mixed trace with every timed line request observed."""

    def __init__(self, variant, window, instrument=None, integrity=False):
        config = small_config(height=HEIGHT, channels=2, seed=SEED, sched_window=window,
                              integrity=integrity)
        self.controller = build_scheduled(variant, config)
        bare = getattr(self.controller, "controller", self.controller)
        self.bare = bare
        trees = [(index, engine.tree) for index, engine in enumerate(_engines(bare))]
        #: (tree index, level) -> reads that completed before their write.
        self.early = Counter()
        #: (tree index, level) of every timed read, NVM and DRAM alike.
        self.read_levels = Counter()
        last_write = {}

        def locate(address):
            for index, tree in trees:
                level = _tree_level(tree, address)
                if level is not None:
                    return index, level
            return None

        def observe_nvm(address, request):
            if request.access is Access.WRITE:
                last_write[address] = request.complete_cycle
                return
            where = locate(address)
            if where is not None:
                self.read_levels[where] += 1
            written = last_write.get(address)
            if written is not None and request.complete_cycle < written:
                self.early[where] += 1

        def observe_dram(address, request):
            where = locate(address)
            if request.access is Access.READ and where is not None:
                self.read_levels[where] += 1

        bare.memory.request_observer = observe_nvm
        dram = getattr(bare, "dram", None)
        if dram is not None:
            dram.request_observer = observe_dram
        if instrument is not None:
            instrument(bare)
        rng = DeterministicRNG(SEED)
        space = min(256, config.oram.num_logical_blocks)
        for _ in range(ACCESSES):
            address = rng.randrange(space)
            if rng.randrange(2):
                self.controller.write(address, address.to_bytes(4, "little"))
            else:
                self.controller.read(address)
        if window > 1:
            self.controller.drain()


class TestReadAfterWriteOracle:
    @pytest.mark.parametrize("window", [1, 4, 16])
    @pytest.mark.parametrize("variant,integrity", layout_cases())
    def test_no_read_completes_before_its_write(self, variant, integrity, window):
        run = _Run(variant, window, integrity=integrity)
        if window > 1:
            # The posmap tree's deeper levels are not yet floored; pinned
            # by the strict xfail below.
            checked = {where: n for where, n in run.early.items() if where[0] == 0}
        else:
            checked = dict(run.early)
        assert checked == {}, f"early reads by (tree, level): {checked}"

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 'Make windowed timing sound in the posmap tree': the "
        "scheduler floors only the data tree, so the rcr-* posmap tree's fetches "
        "of levels 2 and deeper can complete before an in-flight write-back of "
        "their line",
    )
    def test_posmap_tree_reads_wait_for_their_writes(self):
        early = Counter()
        for variant in RECURSIVE_VARIANTS:
            for integrity in (False, True):
                early.update(_Run(variant, 4, integrity=integrity).early)
        assert early == Counter()


class TestTreeTopBuffer:
    @pytest.mark.parametrize("variant", ["baseline", "ps", "ps-hybrid", "rcr-ps"])
    def test_no_timed_read_of_a_buffered_level(self, variant):
        run = _Run(variant, 4)
        assert run.read_levels, "the trace issued no timed reads"
        buffered = {where: n for where, n in run.read_levels.items() if where[1] < 2}
        assert buffered == {}

    @pytest.mark.parametrize("variant,integrity", [
        case("baseline"), case("ps"), case("ps-hybrid"), case("rcr-ps", True),
    ])
    def test_writes_and_image_equal_serial(self, variant, integrity):
        serial = _Run(variant, 1, integrity=integrity).bare
        windowed = _Run(variant, 4, integrity=integrity).bare

        def writes(bare):
            snapshot = bare.memory.traffic.snapshot()
            return {name: n for name, n in snapshot.items() if name.startswith("writes")}

        assert writes(windowed) == writes(serial)
        assert windowed.memory.snapshot_image() == serial.memory.snapshot_image()
        # Reads drop by exactly the buffered levels: 2 x Z lines per path
        # fetch of each tree (ps-hybrid's top levels were DRAM reads).
        fetches = 0
        for engine in _engines(serial):
            stats = engine.stats.snapshot()
            fetches += (
                stats.get("accesses", 0)
                - stats.get("stash_hits", 0)
                + stats.get("background_evictions", 0)
            )
        saved = serial.memory.traffic.total_reads - windowed.memory.traffic.total_reads
        expected = 0 if variant == "ps-hybrid" else 2 * serial.tree.z * fetches
        assert saved == expected

    @pytest.mark.parametrize("variant", ["baseline", "ps", "ps-hybrid", "rcr-ps"])
    def test_fetch_finishes_after_previous_eviction(self, variant):
        checks = Counter()
        late = []

        def instrument(bare):
            for engine in _engines(bare):
                clock = engine.clock
                tree = engine.tree
                evicted = [None]
                finish_eviction = engine._finish_eviction
                read_path = tree.read_path

                def on_eviction(placed, engine=engine, evicted=evicted,
                                finish_eviction=finish_eviction):
                    evicted[0] = engine.now
                    finish_eviction(placed)

                def on_fetch(path_id, start_cycle, level_floors=None,
                             clock=clock, evicted=evicted, read_path=read_path):
                    blocks, finish = read_path(path_id, start_cycle, level_floors)
                    if evicted[0] is not None:
                        checks["fetches"] += 1
                        if clock.mem_to_core(finish) < evicted[0]:
                            late.append((clock.mem_to_core(finish), evicted[0]))
                    return blocks, finish

                engine._finish_eviction = on_eviction
                tree.read_path = on_fetch

        _Run(variant, 4, instrument=instrument)
        assert checks["fetches"] > 0
        assert late == [], f"{len(late)} fetches finished before the buffer refresh"
