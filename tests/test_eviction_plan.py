"""Property test: the optimized eviction planner matches the reference.

``_plan_eviction`` was rewritten for the hot path — the deepest legal
level is computed once per entry in its inlined XOR/bit-length form and
shared between the sort key and the placement scan, with the sort running
over pre-decorated tuples instead of a per-comparison closure.  This test
replays randomized stash states through both the optimized planner and a
straightforward transcription of the original algorithm and asserts the
plans are identical, entry for entry — the decorated sort must preserve
Python's stable-sort order exactly, or eviction outcomes (and therefore
every downstream NVM image) silently change.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_config
from repro.oram.block import Block
from repro.oram.controller import PathORAMController
from repro.oram.stash import StashEntry
from repro.util.bitops import lowest_common_level

HEIGHT = 6
NUM_PATHS = 1 << HEIGHT
BLOCK_BYTES = 16


def reference_plan(entries, path_id, height, z, current_round):
    """The pre-optimization planner, transcribed verbatim."""

    def priority(entry):
        resident = entry.is_backup or entry.fetch_round == current_round
        depth = lowest_common_level(path_id, entry.block.path_id, height)
        return (resident, depth)

    assignment = [[] for _ in range(height + 1)]
    placed = []
    for entry in sorted(entries, key=priority, reverse=True):
        deepest = lowest_common_level(path_id, entry.block.path_id, height)
        for level in range(deepest, -1, -1):
            if len(assignment[level]) < z:
                assignment[level].append(entry.block)
                placed.append(entry)
                break
    return assignment, placed


# One stash entry: (path label, is_backup, fetched this round).
entry_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_PATHS - 1),
        st.booleans(),
        st.booleans(),
    ),
    max_size=40,
)
path_ids = st.integers(min_value=0, max_value=NUM_PATHS - 1)


def populate(controller, specs):
    controller.stash.clear()
    for address, (path_id, is_backup, fetched_now) in enumerate(specs):
        block = Block(address=address, path_id=path_id, data=bytes(BLOCK_BYTES))
        controller.stash.add(
            StashEntry(
                block,
                is_backup=is_backup,
                fetch_round=controller._round if fetched_now else -1,
            )
        )


def assert_plans_equal(controller, specs, path_id, height, z):
    populate(controller, specs)
    got_assignment, got_placed = controller._plan_eviction(path_id)
    want_assignment, want_placed = reference_plan(
        controller.stash.entries(), path_id, height, z, controller._round
    )
    # Identity comparison: the same Block/StashEntry objects in the same
    # order at every level, not just equal-looking contents.
    assert [[id(b) for b in bucket] for bucket in got_assignment] == [
        [id(b) for b in bucket] for bucket in want_assignment
    ]
    assert [id(e) for e in got_placed] == [id(e) for e in want_placed]


# Shared controller: the planner only reads the stash (repopulated per
# example) and static geometry, so one instance is safe.
_PATH_CONTROLLER = PathORAMController(small_config(height=HEIGHT))


@settings(max_examples=200, deadline=None)
@given(specs=entry_specs, path_id=path_ids)
def test_path_oram_planner_matches_reference(specs, path_id):
    controller = _PATH_CONTROLLER
    assert_plans_equal(
        controller, specs, path_id, controller.tree.height, controller.tree.z
    )

