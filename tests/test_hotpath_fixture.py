"""End-to-end bit-identity fixture for the hot-path optimizations.

Drives every controller variant with a fixed seeded workload and checks
the SHA-256 of the resulting NVM image and stats snapshot against digests
captured from the pre-optimization tree (commit f36398e).  The perf work
(keystream fast path, big-int XOR, cached path addresses, decorated
eviction sort, popcount cell-flip accounting, bound counters) claims to
be a pure speedup — these digests are the proof: any change to ciphertext
bytes, block placement, timing, or recorded statistics shows up here.

If a future PR changes simulation behavior *on purpose*, recapture the
digests with the drive loop below and say so in the commit message.
"""

import hashlib
import json

import pytest

from repro.config import small_config
from repro.core.variants import get_spec
from repro.util.rng import DeterministicRNG

#: (image sha256, stats sha256, final cycle) per variant, captured at
#: commit f36398e with drive(seed=1234) below.
EXPECTED = {
    "baseline": (
        "5433fda7a1a3674366ad9de115ad99ad159d533daea83af030bfe20356b16e11",
        "508fe0ab59b08c3a33eaea7916429ca8d36194a58c4e56e18908b56b9bc108a6",
        1329559,
    ),
    "ps": (
        "8946069c78052e801e5c9a21def0bd0f20aa8e6365361be912a2ae303eb815ee",
        "2ae6d84023c40afebdf350c73204acc9da1b8b87d6c5028901b5cd72bfa5cf6c",
        1446022,
    ),
    "naive-ps": (
        "8946069c78052e801e5c9a21def0bd0f20aa8e6365361be912a2ae303eb815ee",
        "6290499c06b488c3e9c7c382626aa658b4262f1d6ddd7e0a7e9b92753a9d5259",
        2146454,
    ),
    "rcr-ps": (
        "35cb338d383c96ab486707e5224562bfe127b36a73d5913901370dbaa3e3e4a9",
        "436882a04fedaa31e17f0c70d49c59078681fabc3eef4e002e096cb90e6d6e2a",
        1062398,
    ),
    "ring": (
        "b1bf5707593d50ae002d29c1f55a7bc718ac1fdf175e07a9735117000f0b52f7",
        "c5dfc24d6377ae1c264da500c036e1a8b25733cdcf6197d60f3e0177cef53773",
        1940846,
    ),
    "ring-ps": (
        "a80c7fa0a052be9bdc634b7fcfda653dd31f0c6428dc1ee8c10489f206c571eb",
        "3b3330c7dde401231689b6bf205175354e79fbd0988aab57857cf01cffa0ec2a",
        2196326,
    ),
    # ps-hybrid and eadr-oram goldens captured at acba882 (pre-engine
    # refactor) with the same drive; eadr-oram includes a mid-drive
    # crash+recover (CRASH_AT) so the digest pins the drain/restore path.
    "ps-hybrid": (
        "8946069c78052e801e5c9a21def0bd0f20aa8e6365361be912a2ae303eb815ee",
        "007151859bdcf3d8863d73879513b1daee083821d4af87af4a713e6db51d5144",
        1163990,
    ),
    "eadr-oram": (
        "71dbd6842cb921adf65700ba2e44b5946f27a34f19c28a966e5b8454506064ec",
        "e4d3f07e4c03a10e632eb19abf02cf8fd1734c8ba0d6ab13a1ffceaa9b88f0ae",
        1329559,
    ),
}

#: Fixture key -> (registry variant, accesses, address space).
CONTROLLERS = {
    "baseline": ("baseline", 300, 200),
    "ps": ("ps", 300, 200),
    "naive-ps": ("naive-ps", 300, 200),
    # The recursive design pays an ORAM access per PosMap level; a shorter
    # drive keeps the fixture fast without losing coverage.
    "rcr-ps": ("rcr-ps", 120, 100),
    "ring": ("ring-baseline", 300, 200),
    "ring-ps": ("ring-ps", 300, 200),
    "ps-hybrid": ("ps-hybrid", 300, 200),
    "eadr-oram": ("eadr-oram", 300, 200),
}

#: Mid-drive crash+recover points, exercised so the digest also pins the
#: crash/recovery code path of variants whose whole point is the crash.
CRASH_AT = {
    "eadr-oram": 150,
}


def drive(controller, n, space, seed=1234, crash_at=None):
    rng = DeterministicRNG(seed)
    for i in range(n):
        if crash_at is not None and i == crash_at:
            controller.crash()
            controller.recover()
        addr = rng.randrange(space)
        if rng.randrange(2):
            controller.write(addr, addr.to_bytes(4, "little") + bytes([i % 256]))
        else:
            controller.read(addr)


def image_digest(memory):
    digest = hashlib.sha256()
    for line in sorted(memory._image):
        data = memory._image[line]
        digest.update(line.to_bytes(8, "little"))
        digest.update(len(data).to_bytes(4, "little"))
        digest.update(data)
    return digest.hexdigest()


def stats_digest(controller):
    snap = dict(sorted(controller.stats.snapshot().items()))
    snap["now"] = controller.now
    snap["traffic"] = dict(sorted(controller.traffic.snapshot().items()))
    return hashlib.sha256(json.dumps(snap, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("variant", sorted(EXPECTED))
def test_seeded_run_is_bit_identical(variant):
    name, n, space = CONTROLLERS[variant]
    controller = get_spec(name).make(small_config(height=6))
    drive(controller, n, space, crash_at=CRASH_AT.get(variant))
    expected_image, expected_stats, expected_now = EXPECTED[variant]
    assert image_digest(controller.memory) == expected_image
    assert stats_digest(controller) == expected_stats
    assert controller.now == expected_now
