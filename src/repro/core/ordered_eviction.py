"""Limited-WPQ ordered eviction (paper Section 4.2.3, Claim 5).

When the write-pending queues are too small to stage a whole path
(``Z * (L + 1)`` slots), a single atomic round is impossible.  The paper's
fallback: split the path write into several small rounds and *order* the
real-block writes so no block's durable copy is overwritten before the
block's new copy has committed — the Figure-3 overwrite chains (``e -> c ->
b``) become scheduling constraints, and dummy writes are slotted in between
to fill the rounds.

Formally: every slot on the path is written exactly once.  For a real block
``X`` fetched from line ``old(X)`` and re-placed at line ``new(X)``, the
round committing ``new(X)`` must be no later than the round committing the
write that lands on ``old(X)``.  Chains are handled by topological order;
swap cycles are packed into one round (they fit as long as the cycle is no
longer than the WPQ).  A crash between rounds leaves some slots old and
some new — but every real block then has at least one committed copy, which
is exactly the recovery invariant PS-ORAM needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import WPQOverflowError


class SlotWrite:
    """One pending slot write within an eviction."""

    __slots__ = ("line_address", "wire", "old_line")

    def __init__(self, line_address: int, wire: bytes, old_line: Optional[int] = None):
        self.line_address = line_address
        self.wire = wire
        #: Line currently holding this block's durable copy (constrains
        #: ordering); None for dummies and blocks with no on-path copy.
        self.old_line = old_line


def plan_rounds(
    writes: Sequence[SlotWrite],
    capacity: int,
    bounce_lines: Optional[Sequence[int]] = None,
) -> List[List[SlotWrite]]:
    """Partition slot writes into ordered atomic rounds of <= capacity.

    Returns rounds in commit order such that for every real block, the
    round writing its new line is no later than the round overwriting its
    old line.

    Slot-permutation cycles longer than the WPQ cannot be ordered; with
    ``bounce_lines`` given, each oversized cycle is broken by first staging
    one member's write into a bounce line (an extra committed copy makes
    its old-line constraint moot — recovery restores from the bounce region
    if the crash lands inside the broken cycle).  Without bounce lines an
    oversized cycle raises :class:`WPQOverflowError`.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")

    by_new_line: Dict[int, int] = {w.line_address: i for i, w in enumerate(writes)}
    # Edge i -> j: write i (new copy) must commit no later than write j
    # (which overwrites i's old line).
    successors: Dict[int, List[int]] = {i: [] for i in range(len(writes))}
    for i, write in enumerate(writes):
        if write.old_line is None or write.old_line == write.line_address:
            continue
        j = by_new_line.get(write.old_line)
        if j is None:
            continue  # the old line is not rewritten this eviction
        if j != i:
            successors[i].append(j)

    # Break oversized cycles with bounce copies until every SCC fits.
    bounce_pool = list(bounce_lines or [])
    prelude: List[SlotWrite] = []
    while True:
        groups = _topological_groups(successors, len(writes))
        oversized = next((g for g in groups if len(g) > capacity), None)
        if oversized is None:
            break
        if not bounce_pool:
            raise WPQOverflowError(
                f"overwrite cycle of {len(oversized)} slots exceeds WPQ "
                f"capacity {capacity} and no bounce lines remain"
            )
        victim = min(oversized)  # deterministic choice
        prelude.append(SlotWrite(bounce_pool.pop(0), writes[victim].wire))
        successors[victim] = []  # its old-line constraint is now covered

    rounds: List[List[SlotWrite]] = []
    current: List[SlotWrite] = list(prelude[:capacity])
    overflow_prelude = prelude[capacity:]
    while overflow_prelude:
        rounds.append(current)
        current = list(overflow_prelude[:capacity])
        overflow_prelude = overflow_prelude[capacity:]
    for group in groups:
        if len(current) + len(group) > capacity:
            rounds.append(current)
            current = []
        current.extend(writes[i] for i in group)
    if current:
        rounds.append(current)
    assert sum(len(r) for r in rounds) == len(writes) + len(prelude)
    return rounds


def _topological_groups(
    successors: Dict[int, List[int]], n: int
) -> List[List[int]]:
    """Topologically order writes, grouping dependency cycles together.

    Uses Tarjan's strongly-connected-components algorithm (iterative) on the
    precedence graph, then emits SCCs in topological order.  Singleton SCCs
    are the common case; larger ones are slot swap cycles.
    """
    index_of: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Dict[int, bool] = {}
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = [0]

    for root in range(n):
        if root in index_of:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_idx = work.pop()
            if child_idx == 0:
                index_of[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            children = successors[node]
            advanced = False
            for k in range(child_idx, len(children)):
                child = children[k]
                if child not in index_of:
                    work.append((node, k + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack.get(child):
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            if lowlink[node] == index_of[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    # Tarjan emits SCCs in reverse topological order of the condensation;
    # reversing yields sources (no unmet predecessors) first, which is the
    # commit order we need (an edge i -> j means i commits no later than j).
    sccs.reverse()
    return sccs
