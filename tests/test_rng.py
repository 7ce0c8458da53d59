"""Unit tests for the deterministic RNG."""

import hashlib
from array import array

import pytest

from repro.util.rng import DeterministicRNG, zipf_cdf
from repro.workloads.spec import spec_workload


def _sha256(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = DeterministicRNG(42)
        b = DeterministicRNG(42)
        assert [a.randrange(100) for _ in range(20)] == [
            b.randrange(100) for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a = [DeterministicRNG(1).randrange(1000) for _ in range(10)]
        b = [DeterministicRNG(2).randrange(1000) for _ in range(10)]
        assert a != b

    def test_substreams_are_independent(self):
        root = DeterministicRNG(7)
        s1 = root.substream("remap")
        # Drawing from the root must not perturb the substream.
        root.randrange(10)
        s1_values = [s1.randrange(1000) for _ in range(5)]
        root2 = DeterministicRNG(7)
        s1_again = root2.substream("remap")
        assert s1_values == [s1_again.randrange(1000) for _ in range(5)]

    def test_substreams_by_name_differ(self):
        root = DeterministicRNG(7)
        a = root.substream("a").randrange(1 << 30)
        b = root.substream("b").randrange(1 << 30)
        assert a != b


class TestDistributions:
    def test_randint_inclusive_bounds(self):
        rng = DeterministicRNG(3)
        values = {rng.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_randbytes_length(self):
        rng = DeterministicRNG(3)
        assert len(rng.randbytes(17)) == 17
        assert rng.randbytes(0) == b""

    def test_geometric_mean_close(self):
        rng = DeterministicRNG(5)
        samples = [rng.geometric(0.5) for _ in range(3000)]
        mean = sum(samples) / len(samples)
        assert 0.8 < mean < 1.2  # E = (1-p)/p = 1

    def test_geometric_rejects_bad_p(self):
        rng = DeterministicRNG(5)
        with pytest.raises(ValueError):
            rng.geometric(0.0)
        with pytest.raises(ValueError):
            rng.geometric(1.5)

    def test_zipf_skews_to_low_indices(self):
        rng = DeterministicRNG(5)
        samples = [rng.zipf_index(100, 1.2) for _ in range(2000)]
        head = sum(1 for s in samples if s < 10)
        tail = sum(1 for s in samples if s >= 90)
        assert head > 5 * max(tail, 1)

    def test_zipf_in_range(self):
        rng = DeterministicRNG(5)
        assert all(0 <= rng.zipf_index(7, 0.8) < 7 for _ in range(200))

    def test_zipf_rejects_empty(self):
        with pytest.raises(ValueError):
            DeterministicRNG(1).zipf_index(0, 1.0)
        with pytest.raises(ValueError):
            DeterministicRNG(1).zipf_index(-3, 1.0)

    def test_zipf_single_index(self):
        rng = DeterministicRNG(5)
        assert [rng.zipf_index(1, 0.8) for _ in range(20)] == [0] * 20

    def test_shuffle_and_sample(self):
        rng = DeterministicRNG(9)
        items = list(range(10))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert len(rng.sample(items, 4)) == 4


class TestZipfGolden:
    """The Zipf sampler defines kv-read-skew's keys and three Table-4 traces.

    Each digest is the sha256 of ``repr`` of the listed values; a changed
    draw anywhere moves every modeled number those workloads report.
    """

    @pytest.mark.parametrize("n,alpha,digest", [
        (256, 0.99, "970ceaf175c8e7ec1e95b6c19b5d4e9ab3f22dfe875d226094934c41214c1084"),
        (250_000, 0.8, "f7e5d404b704ff2eb50f821cb0cb1e29886e0113f61b115a5c54121e551a81ef"),
    ])
    def test_draws(self, n, alpha, digest):
        rng = DeterministicRNG(7)
        assert _sha256([rng.zipf_index(n, alpha) for _ in range(10_000)]) == digest

    @pytest.mark.parametrize("name,digest", [
        ("471.omnetpp", "7db67e86575f2b8368191ae01b101e5b3fad286d6ebfe54de5976b58e4e9120a"),
        ("483.xalancbmk", "e2c221fccf4a8fd12f618bbab6a286398af05c8fe56140e4e95c1b8d74e9f5ea"),
        ("482.sphinx3", "699e4909b1478b59a537c9919f441976890a731eed61a6a4f5057d713c25d060"),
    ])
    def test_spec_traces(self, name, digest):
        trace = spec_workload(name, references=2000, seed=7)
        assert _sha256([(op.gap, op.address, op.is_write) for op in trace]) == digest


class TestZipfTable:
    @pytest.mark.parametrize("n,alpha,digest", [
        (256, 0.99, "f9046b427d86ddc3cda6a9e66f3b838813e41a4aaee7c5ba4756e6db4a16f632"),
        (250_000, 0.8, "265bf880534e34e0fdbdee885c35950c7e6e6e8d720f329ddae59fa22d347da3"),
        (200_000, 0.9, "41d5d2585228dd4e2480a3683b3d25fa7e1e0382df9cc8a99b6faa66bf2c8825"),
        (300_000, 0.7, "0ddce8f57672ebfe4d6792438ae94361bb1df0178cdccfd337c0c518fef1051b"),
        (7, 0.5, "5cf86b133888324537208b73f732e950668e3a12f6ded82b4371974a6810f819"),
        (1000, 2.5, "e2dc7575f4d57c4b50986d723d3e554777c46ffdb6d8d966b25cee0998bd1f1f"),
    ])
    def test_cdf_values(self, n, alpha, digest):
        """Every CDF entry, bit for bit.  Captured under CPython 3.11 (CI's
        version), whose float ``sum`` adds left to right; 3.12's
        compensated ``sum`` may move the last bit of the total."""
        assert _sha256(zipf_cdf(n, alpha).tolist()) == digest

    def test_instances_share_one_table(self):
        zipf_cdf.cache_clear()
        a, b = DeterministicRNG(1), DeterministicRNG(2)
        a.zipf_index(1000, 0.9)
        b.zipf_index(1000, 0.9)
        info = zipf_cdf.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert not hasattr(a, "_zipf_cdf_cache")

    def test_table_is_flat_doubles(self):
        cdf = zipf_cdf(1000, 0.9)
        assert isinstance(cdf, array) and cdf.typecode == "d"
        assert len(cdf) == 1000 and cdf[-1] == 1.0
        assert all(x <= y for x, y in zip(cdf, cdf[1:]))
