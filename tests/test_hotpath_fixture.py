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
from tests.cases import case

#: (image sha256, stats sha256, final cycle) per variant, captured at
#: commit f36398e with drive(seed=1234) below.  The stats digests and
#: final cycles were recaptured when the busy-interval calendar became the
#: only memory timing model: serial bursts now reach the bank and bus
#: stages by arrival time rather than issue order, so every serial run
#: finishes 2-3% sooner (ps 1,446,022 -> 1,405,438 cycles).  Every image
#: digest was unchanged by that recapture.  The rcr-ps stats digest and
#: final cycle were recaptured again, with drive() below, when persists
#: became complete at WPQ acceptance: the intent-log line is still issued
#: at the same cycle with the same bytes, but the access no longer waits
#: for it to reach the NVM (1,034,942 -> 1,004,030 cycles).  The rcr-ps
#: image digest and every traffic counter were unchanged by that recapture.
EXPECTED = {
    ("baseline", False): (
        "5433fda7a1a3674366ad9de115ad99ad159d533daea83af030bfe20356b16e11",
        "21a1423ba73cc48cb8b7bc45aff501df1746f52a1285a9d5bbbf52f1bddabba6",
        1299375,
    ),
    ("ps", False): (
        "8946069c78052e801e5c9a21def0bd0f20aa8e6365361be912a2ae303eb815ee",
        "c455cdb808c13f258c3ffa37f577b3ba7c092490e82c56e70f502829b23fdae4",
        1405438,
    ),
    ("naive-ps", False): (
        "8946069c78052e801e5c9a21def0bd0f20aa8e6365361be912a2ae303eb815ee",
        "1669d2d10c56f6668b4d3faa9de8ee435e229c6af40206842015385d7e756f3c",
        2102430,
    ),
    ("rcr-ps", False): (
        "35cb338d383c96ab486707e5224562bfe127b36a73d5913901370dbaa3e3e4a9",
        "ec10d37b5995bc2dacfc64a1dbdebd43345e695231c898697d0b6cc03387ba18",
        1004030,
    ),
    # rcr-baseline captured at aefebe0 with the same drive, before the
    # posmap tree stopped being a one-level chain controller.
    ("rcr-baseline", False): (
        "5060e12f0ebaf912e858b75367a6369d2fdd3912b0b2e0d2c6c4fc7cb75d28df",
        "3069fd10ea97cc3a112d70720b8f3fe5919182d934f08fee413bb5ba8db32c79",
        956906,
    ),
    # ps-hybrid and eadr-oram goldens captured at acba882 (pre-engine
    # refactor) with the same drive; eadr-oram includes a mid-drive
    # crash+recover (CRASH_AT) so the digest pins the drain/restore path.
    ("ps-hybrid", False): (
        "8946069c78052e801e5c9a21def0bd0f20aa8e6365361be912a2ae303eb815ee",
        "399f78f023b088e90c79e52bce423241f7e847da3eff1245adbe31130a2312ac",
        1124398,
    ),
    ("eadr-oram", False): (
        "71dbd6842cb921adf65700ba2e44b5946f27a34f19c28a966e5b8454506064ec",
        "7df9a1856d38b8a50bd15de7e0203533387559b402215b64706b08843e4af4c3",
        1299375,
    ),
    # ps and rcr-ps with the integrity domain attached (config.integrity),
    # captured at ed3de36 with the same drive, through the integrity rows
    # the registry still had then; config.integrity built the same runs.
    # Both were recaptured with the same drive when a lazy commit began to
    # persist the root witness alone: the image no longer holds the
    # residual tree's sibling-group lines (ps 13 lines, rcr-ps 46) and is
    # otherwise byte-identical, witness included; integrity_node_writes
    # and writes.integrity fall to one line per commit (ps 2,099 -> 300,
    # rcr-ps 1,839 -> 120), and with fewer posted lines contending for
    # banks and bus the runs finish sooner (ps 1,599,750 -> 1,436,286
    # cycles, rcr-ps 1,186,678 -> 1,019,278).
    ("ps", True): (
        "6cea2b7496201c40839d870d52d222a3d14a27af65313998c82074b0a8ddc231",
        "aeddb9d9441a6c1145ab3f81c2301e0dd5cd5bb8a585dfa3ac1f28ed1b566de9",
        1436286,
    ),
    ("rcr-ps", True): (
        "786983be5e931bc298c2ab25b430ef8f60efb2b93f256c4b5462d63a3bfebf0d",
        "c43d54eae0e9b89b201e91ecba0172f2d6dea6b4a84afc76f3169285a3249a5f",
        1019278,
    ),
}

#: (accesses, address space) per variant, default 300 / 200.  The
#: recursive design pays an ORAM access per PosMap level; a shorter drive
#: keeps the fixture fast without losing coverage.
DRIVES = {
    "rcr-ps": (120, 100),
    "rcr-baseline": (120, 100),
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


@pytest.mark.parametrize("variant,integrity", [case(*key) for key in sorted(EXPECTED)])
def test_seeded_run_is_bit_identical(variant, integrity):
    n, space = DRIVES.get(variant, (300, 200))
    controller = get_spec(variant).make(small_config(height=6, integrity=integrity))
    drive(controller, n, space, crash_at=CRASH_AT.get(variant))
    expected_image, expected_stats, expected_now = EXPECTED[variant, integrity]
    assert image_digest(controller.memory) == expected_image
    assert stats_digest(controller) == expected_stats
    assert controller.now == expected_now
