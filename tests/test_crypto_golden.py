"""Golden-vector tests freezing the crypto wire formats.

The hot-path optimizations (single-digest keystream fast path, big-int
XOR, cached dummy-block ciphertext headers) must be bit-identical to the
original implementations: every ciphertext ever written to the NVM image
depends on these bytes.  The vectors below were captured from the
pre-optimization code and pin the formats down — a change here is a
breaking change to every stored image and recorded result.
"""

import hashlib

import pytest

from repro.crypto.ctr import CtrCipher, IntegrityError
from repro.crypto.engine import CryptoEngine
from repro.crypto.prf import Prf
from repro.oram.block import Block, BlockCodec


class TestPrfGolden:
    def test_evaluate(self):
        prf = Prf(b"golden-key", digest_size=16)
        assert prf.evaluate(b"message").hex() == "c4efbdad43c1b4515bd9ffbcb854124b"

    @pytest.mark.parametrize(
        "length, expected",
        [
            (5, "7a7827adae"),
            (16, "7a7827adae9e1ff5020e4924d4c11304"),
            (40, "7a7827adae9e1ff5020e4924d4c11304"
                 "c6ad74892265dc0d26ab2f038067037130d8dc81d31f85b4"),
        ],
    )
    def test_keystream_truncation_and_extension(self, length, expected):
        # Covers the sub-digest fast path (5), the exact-digest path (16),
        # and the multi-counter loop with a partial tail block (40).
        prf = Prf(b"golden-key", digest_size=16)
        assert prf.keystream(b"nonce-16", length).hex() == expected

    def test_keystream_wide_digest(self):
        prf = Prf(b"golden-key", digest_size=32)
        assert prf.keystream(b"nonce-32", 64).hex() == (
            "993f5ebf9a8304ce62395dab2928ac8a38704b7177ccb20cc564aec45f787d9c"
            "54e4b5dacea9a6a956274bc8229796e5cef4d588033b18bf1a0999f4e608cf74"
        )

    def test_keystream_empty(self):
        assert Prf(b"golden-key", digest_size=32).keystream(b"nonce-32", 0) == b""

    def test_derive_domain_separation(self):
        derived = Prf(b"golden-key", digest_size=32).derive("ctr-keystream")
        assert derived.evaluate(b"x").hex() == (
            "2f0082ef5bb55fbec11bd28b5e94a37dce7407fa41b3fbe6e7acde8bdebc2d44"
        )


class TestCtrCipherGolden:
    @pytest.mark.parametrize(
        "plaintext, iv, expected",
        [
            (bytes(range(64)), 1,
             "be02deb6c181f8e6bebe6d5b470d4172dc58624565faad99edce5d3586a2c641"
             "f86a2335b8498a3438c86bb9ede000e327fd13a78f6a3c62fd965bceae54eb5b"
             "8d5aa6053bc3ccc4"),
            (bytes(24), 7,
             "49259631217e58c8183881e04583621e79cdf5bd6d11fa622c9d94aadbff9261"),
            (b"", 9, "f54562a490b4a812"),
            (b"hello", (1 << 127) - 1, "07695c9077dc6ea63bac581f2c"),
        ],
    )
    def test_encrypt(self, plaintext, iv, expected):
        cipher = CtrCipher(b"golden-cipher-key")
        ciphertext = cipher.encrypt(plaintext, iv)
        assert ciphertext.hex() == expected
        assert cipher.decrypt(ciphertext, iv) == plaintext

    def test_decrypt_rejects_tamper(self):
        cipher = CtrCipher(b"golden-cipher-key")
        wire = bytearray(cipher.encrypt(bytes(24), iv=7))
        wire[0] ^= 1
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(wire), iv=7)


class TestBlockCodecGolden:
    def test_encode_real_block(self):
        codec = BlockCodec(CryptoEngine(b"golden-codec-key"), block_bytes=64)
        wire = codec.encode(
            Block(address=42, path_id=13, data=bytes(range(64)), version=99)
        )
        assert hashlib.sha256(wire).hexdigest() == (
            "dc26195dfb22cb4b00c4f5cc66bab367639c81e449306f064fa63d387e89597c"
        )
        decoded = codec.decode(wire)
        assert (decoded.address, decoded.path_id, decoded.version) == (42, 13, 99)
        assert decoded.data == bytes(range(64))

    def test_encode_dummy_block(self):
        # Exercises the cached dummy-header fast path.
        codec = BlockCodec(CryptoEngine(b"golden-codec-key"), block_bytes=32)
        wire = codec.encode(Block.dummy(32))
        assert hashlib.sha256(wire).hexdigest() == (
            "8c5e4be5491af4a1cb7b54078f2fe7228b4841987bd6d8b003267bd49fa0ce63"
        )
        assert codec.decode(wire).is_dummy

    def test_wire_bytes(self):
        codec = BlockCodec(CryptoEngine(b"golden-codec-key"), block_bytes=64)
        assert codec.wire_bytes == 120


class TestBatchedCryptoGolden:
    """The path-batched crypto must be byte-identical to the looped form."""

    def test_keystream_many_matches_looped_keystream(self):
        prf = Prf(b"golden-key", digest_size=16)
        nonces = [bytes([i]) * 16 for i in range(6)]
        # Lengths cover the sub-digest, exact-digest and multi-counter
        # paths — each batch must equal the per-nonce loop byte for byte.
        for length in (5, 16, 40, 64):
            batched = prf.keystream_many(nonces, length)
            assert batched == [prf.keystream(n, length) for n in nonces]

    def test_keystream_many_mixed_lengths_match_looped_keystream(self):
        prf = Prf(b"golden-key", digest_size=16)
        nonces = [bytes([i]) * 16 for i in range(8)]
        # Runs of equal length, a zero-length unit alone and ahead of a
        # multi-counter run, and a length that reappears after a change.
        lengths = [24, 24, 0, 40, 40, 16, 5, 24]
        batched = prf.keystream_many(nonces, lengths)
        assert batched == [prf.keystream(n, l) for n, l in zip(nonces, lengths)]
        assert prf.keystream_many(nonces[:1], [0]) == [b""]
        with pytest.raises(ValueError):
            prf.keystream_many(nonces[:2], [8, -1])

    def test_evaluate_many_matches_fresh_keyed_blake2b(self):
        prf = Prf(b"golden-key", digest_size=16)
        messages = [b"", b"m", bytes(range(200))]
        reference = [
            hashlib.blake2b(m, key=b"golden-key", digest_size=16).digest()
            for m in messages
        ]
        assert prf.evaluate_many(messages) == reference
        assert [prf.evaluate(m) for m in messages] == reference
        assert prf.evaluate_many([]) == []

    def test_keystream_many_golden_vector(self):
        prf = Prf(b"golden-key", digest_size=16)
        streams = prf.keystream_many([b"nonce-16", b"other-16"], 40)
        assert streams[0].hex() == (
            "7a7827adae9e1ff5020e4924d4c11304"
            "c6ad74892265dc0d26ab2f038067037130d8dc81d31f85b4"
        )
        assert hashlib.sha256(b"".join(streams)).hexdigest() == (
            "d2aa9f224ce8c8a6ae074bd48d9693f291c28224f54dab5ddffb00fc601c822e"
        )

    def test_encrypt_batch_matches_looped_encrypt(self):
        cipher = CtrCipher(b"golden-cipher-key")
        plaintexts = [bytes([i]) * 48 for i in range(5)]
        ivs = [100 + 2 * i for i in range(5)]
        batched = cipher.encrypt_batch(plaintexts, ivs)
        assert batched == [cipher.encrypt(p, iv) for p, iv in zip(plaintexts, ivs)]
        assert cipher.decrypt_batch(batched, ivs) == plaintexts
        # Mixed lengths, as the path codec passes them (headers, then
        # payloads), and empty units alone and ahead of a longer run.
        for plaintexts in (
            [bytes([i]) * 24 for i in range(3)] + [bytes([i]) * 64 for i in range(3)],
            [b""],
            [b"", b"", bytes(48), bytes(48), b"", bytes(5)],
        ):
            ivs = [300 + i for i in range(len(plaintexts))]
            batched = cipher.encrypt_batch(plaintexts, ivs)
            assert batched == [cipher.encrypt(p, iv) for p, iv in zip(plaintexts, ivs)]

    def test_decrypt_batch_rejects_tamper(self):
        cipher = CtrCipher(b"golden-cipher-key")
        wires = cipher.encrypt_batch([bytes(24), bytes(24)], [7, 8])
        tampered = [wires[0], bytes([wires[1][0] ^ 1]) + wires[1][1:]]
        with pytest.raises(IntegrityError):
            cipher.decrypt_batch(tampered, [7, 8])


class TestPathCodecGolden:
    def test_encode_path_matches_looped_encode(self):
        """Batched and per-block codecs draw identical IVs and bytes."""
        looped = BlockCodec(CryptoEngine(b"golden-codec-key"), block_bytes=64)
        batched = BlockCodec(CryptoEngine(b"golden-codec-key"), block_bytes=64)
        blocks = [
            Block(address=i, path_id=i * 3, data=bytes([i]) * 64, version=i)
            for i in range(1, 5)
        ] + [Block.dummy(64), Block.dummy(64)]
        assert batched.encode_path(blocks) == [looped.encode(b) for b in blocks]

    def test_whole_path_round_trip(self):
        codec = BlockCodec(CryptoEngine(b"golden-codec-key"), block_bytes=64)
        blocks = [
            Block(address=i, path_id=7 - i, data=i.to_bytes(1, "little") * 64, version=i)
            for i in range(6)
        ] + [Block.dummy(64)] * 2
        lines = [64 * i for i in range(len(blocks))]
        wires = codec.encode_path(blocks, lines)
        # Fresh codec: no memo hits, every block goes through the batched
        # decrypt walk.
        fresh = BlockCodec(CryptoEngine(b"golden-codec-key"), block_bytes=64)
        decoded = fresh.decode_path(wires)
        for original, copy in zip(blocks, decoded):
            assert (copy.address, copy.path_id, copy.version, copy.data) == (
                original.address, original.path_id, original.version, original.data
            )
        # Same codec instance, same lines: the plaintext memo
        # short-circuits, with identical results.
        memoed = codec.decode_path(wires, lines)
        for original, copy in zip(blocks, memoed):
            assert (copy.address, copy.path_id, copy.version, copy.data) == (
                original.address, original.path_id, original.version, original.data
            )

    def test_encode_path_golden_vector(self):
        codec = BlockCodec(CryptoEngine(b"golden-codec-key"), block_bytes=64)
        wires = codec.encode_path(
            [
                Block(address=42, path_id=13, data=bytes(range(64)), version=99),
                Block.dummy(64),
            ]
        )
        # First wire must equal the single-encode golden vector above
        # (same codec state, same IV counter start).
        assert hashlib.sha256(wires[0]).hexdigest() == (
            "dc26195dfb22cb4b00c4f5cc66bab367639c81e449306f064fa63d387e89597c"
        )
        assert hashlib.sha256(b"".join(wires)).hexdigest() == (
            "8d2ad716f0b4d99f9fbb57097eac88495530a47187d6d0a370cda40682ea01ee"
        )
