"""Unit tests for the block format and codec."""

import pytest

from repro.crypto.ctr import IntegrityError
from repro.crypto.engine import CryptoEngine
from repro.oram.block import Block, BlockCodec, DUMMY_ADDRESS


@pytest.fixture
def codec():
    return BlockCodec(CryptoEngine(b"test-key"), block_bytes=64)


class TestBlock:
    def test_dummy(self):
        d = Block.dummy(64)
        assert d.is_dummy
        assert d.address == DUMMY_ADDRESS
        assert d.data == bytes(64)

    def test_copy_is_independent(self):
        b = Block(address=1, path_id=2, data=b"x" * 64, version=3)
        c = b.copy()
        assert c == b and c is not b

    def test_rejects_invalid_fields(self):
        with pytest.raises(ValueError):
            Block(address=-2, path_id=0, data=b"")
        with pytest.raises(ValueError):
            Block(address=0, path_id=-1, data=b"")


class TestCodec:
    def test_roundtrip(self, codec):
        block = Block(address=42, path_id=7, data=bytes(range(64)), version=9)
        assert codec.decode(codec.encode(block)) == block

    def test_dummy_roundtrip(self, codec):
        wire = codec.encode(Block.dummy(64))
        assert codec.decode(wire).is_dummy

    def test_wire_size_constant(self, codec):
        a = codec.encode(Block.dummy(64))
        b = codec.encode(Block(address=1, path_id=1, data=b"\xff" * 64))
        assert len(a) == len(b) == codec.wire_bytes

    def test_fresh_ivs_every_encode(self, codec):
        block = Block(address=1, path_id=1, data=b"same" * 16)
        assert codec.encode(block) != codec.encode(block)

    def test_header_only_decode(self, codec):
        block = Block(address=5, path_id=3, data=b"q" * 64, version=8)
        header = codec.decode_header(codec.encode(block))
        assert header.address == 5
        assert header.path_id == 3
        assert header.version == 8
        assert header.data == bytes(64)  # payload not decrypted

    def test_tampered_wire_detected(self, codec):
        wire = bytearray(codec.encode(Block(address=1, path_id=1, data=b"s" * 64)))
        wire[20] ^= 0x01
        with pytest.raises(IntegrityError):
            codec.decode(bytes(wire))

    def test_wrong_payload_size_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.encode(Block(address=1, path_id=1, data=b"short"))

    def test_wrong_wire_size_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.decode(b"nope")

    def test_cross_key_isolation(self):
        a = BlockCodec(CryptoEngine(b"key-a"), 64)
        b = BlockCodec(CryptoEngine(b"key-b"), 64)
        wire = a.encode(Block(address=1, path_id=1, data=b"z" * 64))
        with pytest.raises(IntegrityError):
            b.decode(wire)


def _verified_decrypts(codec, monkeypatch):
    """Count the codec's MAC-verifying decrypt calls (memo misses)."""
    calls = []
    engine = codec._engine
    for name in ("decrypt", "decrypt_batch"):
        real = getattr(engine, name)

        def spy(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(engine, name, spy)
    return calls


class TestDecodeMemo:
    """The decode memo is keyed by NVM line: a decode hits only when it
    names the line and decodes the very wire last encoded for it."""

    def test_memo_decodes_equal_a_cold_codec(self, monkeypatch):
        codec = BlockCodec(CryptoEngine(b"memo-key"), 64)
        blocks = [
            Block(address=i, path_id=i % 5, data=bytes([i]) * 64, version=i)
            for i in range(20)
        ] + [Block.dummy_template(64)] * 4
        lines = [64 * i for i in range(len(blocks))]
        wires = [codec.encode(b, line) for b, line in zip(blocks[:12], lines[:12])]
        wires += codec.encode_path(blocks[12:], lines[12:])
        assert len(codec._plain_memo) == len(blocks)
        # A codec with no memo entries decodes every wire the slow way;
        # memo hits must match it byte for byte and count the same work.
        cold = BlockCodec(CryptoEngine(b"memo-key"), 64)
        verified = _verified_decrypts(codec, monkeypatch)
        assert codec.decode_path(wires, lines) == blocks
        assert [codec.decode(w, line) for w, line in zip(wires, lines)] == [
            cold.decode(w) for w in wires
        ]
        assert [codec.decode_header(w, line) for w, line in zip(wires, lines)] == [
            cold.decode_header(w) for w in wires
        ]
        assert cold.decode_path(wires) == blocks
        assert verified == []
        def decrypt_counts(c):
            return {
                name: value
                for name, value in c._engine.stats.snapshot().items()
                if name.startswith("decrypt")
            }

        assert decrypt_counts(codec) == decrypt_counts(cold)

    def test_rewriting_a_line_replaces_its_entry(self, monkeypatch):
        codec = BlockCodec(CryptoEngine(b"memo-key"), 64)
        old = Block(address=1, path_id=2, data=b"o" * 64, version=1)
        new = Block(address=3, path_id=4, data=b"n" * 64, version=2)
        old_wire = codec.encode(old, 128)
        new_wire = codec.encode_path([new], [128])[0]
        assert list(codec._plain_memo) == [128]
        assert codec._plain_memo[128][0] is new_wire
        verified = _verified_decrypts(codec, monkeypatch)
        assert codec.decode(new_wire, 128) == new
        assert verified == []
        # The overwritten wire still decodes, through the verifying path.
        assert codec.decode(old_wire, 128) == old
        assert len(verified) == 2

    def test_tampered_wire_misses_and_raises(self):
        codec = BlockCodec(CryptoEngine(b"memo-key"), 64)
        wire = bytearray(codec.encode(Block(address=1, path_id=1, data=b"s" * 64), 64))
        wire[40] ^= 0x01
        with pytest.raises(IntegrityError):
            codec.decode(bytes(wire), 64)
        with pytest.raises(IntegrityError):
            codec.decode_path([bytes(wire)], [64])

    def test_wire_stored_behind_the_codecs_back_decodes_verified(self, monkeypatch):
        codec = BlockCodec(CryptoEngine(b"memo-key"), 64)
        codec.encode(Block(address=1, path_id=1, data=b"a" * 64), 64)
        other = Block(address=2, path_id=5, data=b"b" * 64, version=7)
        stored = codec.encode(other)  # no line: the memo never sees it
        verified = _verified_decrypts(codec, monkeypatch)
        assert codec.decode(stored, 64) == other
        assert codec.decode_path([stored], [64]) == [other]
        assert codec.decode_header(stored, 64).version == 7
        assert len(verified) == 5

    def test_decode_without_a_line_always_verifies(self, monkeypatch):
        codec = BlockCodec(CryptoEngine(b"memo-key"), 64)
        block = Block(address=9, path_id=1, data=b"v" * 64, version=3)
        wire = codec.encode(block, 64)
        verified = _verified_decrypts(codec, monkeypatch)
        assert codec.decode(wire) == block
        assert codec.decode_path([wire]) == [block]
        assert codec.decode_header(wire).address == 9
        assert len(verified) == 5
        tampered = bytearray(wire)
        tampered[20] ^= 0x01
        with pytest.raises(IntegrityError):
            codec.decode(bytes(tampered))

    def test_dummy_entries(self, monkeypatch):
        codec = BlockCodec(CryptoEngine(b"memo-key"), 64)
        template = Block.dummy_template(64)
        labelled = Block.dummy(64, path_id=3)
        template_wire, labelled_wire = codec.encode_path([template, labelled], [0, 64])
        # The shared template is remembered as its bare wire; any other
        # dummy carries its own fields.
        assert codec._plain_memo[0] is template_wire
        assert codec._plain_memo[64][2] == 3
        verified = _verified_decrypts(codec, monkeypatch)
        decoded = codec.decode_path([template_wire, labelled_wire], [0, 64])
        assert decoded == [Block.dummy(64), labelled]
        assert decoded[0] is not template  # callers may mutate decoded blocks
        assert codec.decode(labelled_wire, 64).path_id == 3
        assert verified == []
