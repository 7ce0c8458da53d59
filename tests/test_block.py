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


class TestDecodeMemo:
    def test_fifo_bounded_and_decodes_identical(self):
        codec = BlockCodec(CryptoEngine(b"memo-key"), 64)
        codec._memo_capacity = 8
        blocks = [
            Block(address=i, path_id=i % 5, data=bytes([i]) * 64, version=i)
            for i in range(20)
        ]
        wires = []
        for block in blocks[:12]:
            wires.append(codec.encode(block))
            assert len(codec._plain_memo) <= 8
        wires += codec.encode_path(blocks[12:])
        assert len(codec._plain_memo) == 8
        # Oldest-first eviction: exactly the 8 newest IV1s remain, in order.
        iv1s = [int.from_bytes(w[:8], "little") for w in wires]
        assert list(codec._plain_memo) == iv1s[-8:]
        # A codec with no memo entries decodes every wire the slow way;
        # memo hits and evicted entries must both match it byte for byte.
        cold = BlockCodec(CryptoEngine(b"memo-key"), 64)
        assert codec.decode_path(wires) == blocks
        assert [codec.decode(w) for w in wires] == [cold.decode(w) for w in wires]
        assert [codec.decode_header(w) for w in wires] == [
            cold.decode_header(w) for w in wires
        ]
