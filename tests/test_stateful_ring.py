"""Stateful property testing for PS-Ring (mirror of test_stateful.py)."""

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

ADDRESSES = st.integers(min_value=0, max_value=20)
PAYLOADS = st.binary(min_size=0, max_size=8)


class PSRingMachine(RuleBasedStateMachine):
    """PS-Ring must behave as a durable dict under any op interleaving."""

    def __init__(self):
        super().__init__()
        self.controller = None
        self.model = {}
        self.ops = 0

    @initialize(seed=st.integers(min_value=0, max_value=2**16))
    def build(self, seed):
        self.controller = build_variant("ring-ps", small_config(height=5, seed=seed))
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
    def dummy_budgets_consistent(self):
        """No touched bucket may exceed its access budget between
        reshuffles (S dummies + the slack of the in-flight access)."""
        if self.controller is None or self.ops == 0:
            return
        params = self.controller.params
        store = self.controller.store
        for bucket_idx in range(min(8, store.layout.slots.num_buckets)):
            meta = store.load_metadata(bucket_idx)
            assert meta.accesses <= params.s + 1


PSRingStatefulTest = PSRingMachine.TestCase
PSRingStatefulTest.settings = settings(
    max_examples=10, stateful_step_count=25, deadline=None
)
