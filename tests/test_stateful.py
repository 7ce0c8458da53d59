"""Stateful property testing: hypothesis drives the ORAM like a filesystem.

A rule-based state machine performs arbitrary interleavings of writes,
reads, read-modify-writes, crashes and recoveries against PS-ORAM and
checks the dict model after every step — the strongest functional test in
the suite, because hypothesis *shrinks* any failure to a minimal operation
sequence.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.config import small_config
from repro.core.variants import build_variant

ADDRESSES = st.integers(min_value=0, max_value=24)
PAYLOADS = st.binary(min_size=0, max_size=8)


class PSORAMMachine(RuleBasedStateMachine):
    """PS-ORAM must behave as a durable dict under any op interleaving."""

    def __init__(self):
        super().__init__()
        self.controller = None
        self.model = {}
        self.ops = 0

    @initialize(seed=st.integers(min_value=0, max_value=2**16))
    def build(self, seed):
        self.controller = build_variant("ps", small_config(height=5, seed=seed))
        self.model = {}

    def _pad(self, data: bytes) -> bytes:
        return data + bytes(64 - len(data))

    @rule(address=ADDRESSES, data=PAYLOADS)
    def write(self, address, data):
        self.controller.write(address, data)
        self.model[address] = self._pad(data)
        self.ops += 1

    @rule(address=ADDRESSES)
    def read(self, address):
        got = self.controller.read(address).data
        assert got == self.model.get(address, bytes(64))
        self.ops += 1

    @rule(address=ADDRESSES, tweak=st.integers(min_value=0, max_value=255))
    def read_modify_write(self, address, tweak):
        old = self.model.get(address, bytes(64))
        result = self.controller.read_modify_write(
            address, lambda data: bytes([tweak]) + data[1:]
        )
        assert result.data == old
        self.model[address] = bytes([tweak]) + old[1:]
        self.ops += 1

    @precondition(lambda self: self.ops > 0)
    @rule()
    def crash_and_recover(self):
        self.controller.crash()
        assert self.controller.recover()

    @invariant()
    def stash_bounded(self):
        if self.controller is not None:
            assert (
                self.controller.stash.occupancy
                <= self.controller.stash.capacity
            )

    @invariant()
    def temp_posmap_tracks_stash(self):
        """Every pending remap's block is live in the stash (the drain
        invariant that background eviction relies on)."""
        if self.controller is None:
            return
        for address in self.controller.temp_posmap:
            assert self.controller.stash.find(address) is not None


PSORAMStatefulTest = PSORAMMachine.TestCase
PSORAMStatefulTest.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
