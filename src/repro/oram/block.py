"""ORAM block format.

Each block stores ``block_bytes`` of program data plus a header carrying:

* the program (logical) address, with a reserved sentinel for dummies;
* the path id (leaf label) the block is currently mapped to;
* a monotonically increasing version number.

Following the paper (and Fletcher et al., which it cites for the format),
the header and the data payload are encrypted under two separate
initialization vectors, IV1 and IV2, both stored in the clear next to the
ciphertext — standard AES-CTR practice.

The version number is an engineering addition on top of the paper's format:
the paper disambiguates a backup (shadow) block from the live copy purely by
path-id mismatch (footnote 1), which has a 2**-L false-match probability
when the fresh remap draws the old leaf again.  At the paper's L = 23 this
is negligible; at the small tree heights used for testing it is not, so the
version field makes staleness detection exact.  DESIGN.md records this
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.crypto.engine import CryptoEngine

#: Sentinel program address marking a dummy block (the paper's ``\bot``).
DUMMY_ADDRESS = -1

_HEADER_BYTES = 24  # address (8) + path id (8) + version (8)
_IV_BYTES = 8

#: Shared read-only dummy instances, keyed by payload size.
_DUMMY_TEMPLATES: dict = {}


def _raw_block(address: int, path_id: int, data: bytes, version: int) -> "Block":
    """Construct a Block without __init__ validation.

    Used only where the fields were just produced by a MAC-verified
    decrypt, so the range checks in ``__post_init__`` are redundant;
    skipping dataclass initialization is a measurable win at one header
    decode per slot per access.
    """
    block = Block.__new__(Block)
    block.address = address
    block.path_id = path_id
    block.data = data
    block.version = version
    return block


@dataclass
class Block:
    """One plaintext ORAM block (header + payload)."""

    address: int
    path_id: int
    data: bytes
    version: int = 0

    @property
    def is_dummy(self) -> bool:
        return self.address == DUMMY_ADDRESS

    @staticmethod
    def dummy(block_bytes: int, path_id: int = 0) -> "Block":
        """A dummy block (zero payload, sentinel address)."""
        return Block(address=DUMMY_ADDRESS, path_id=path_id, data=bytes(block_bytes))

    @staticmethod
    def dummy_template(block_bytes: int) -> "Block":
        """A shared dummy-block instance for hot paths.

        Path reads and write-back padding materialize ``Z * (L + 1)`` dummy
        blocks per access; every consumer treats them as read-only, so one
        cached instance per size replaces millions of allocations.  Callers
        that hand blocks to code which may mutate them must use
        :meth:`dummy` instead.
        """
        block = _DUMMY_TEMPLATES.get(block_bytes)
        if block is None:
            block = Block.dummy(block_bytes)
            _DUMMY_TEMPLATES[block_bytes] = block
        return block

    def copy(self) -> "Block":
        """Deep copy (payload bytes are immutable, so a field copy suffices)."""
        return Block(self.address, self.path_id, self.data, self.version)

    def __post_init__(self) -> None:
        if self.address < DUMMY_ADDRESS:
            raise ValueError(f"invalid block address {self.address}")
        if self.path_id < 0:
            raise ValueError(f"invalid path id {self.path_id}")


class BlockCodec:
    """Encrypts/decrypts blocks to/from their stored wire format.

    Wire format::

        iv1 (8B clear) || iv2 (8B clear) || Enc[iv1](header) || Enc[iv2](data)

    IVs are drawn from a single monotonic counter owned by the codec, so no
    (key, IV) pair is ever reused — fresh randomness for every re-encryption
    is what makes repeated path writebacks indistinguishable.
    """

    def __init__(self, engine: CryptoEngine, block_bytes: int):
        if block_bytes <= 0:
            raise ValueError(f"block size must be positive, got {block_bytes}")
        self._engine = engine
        self.block_bytes = block_bytes
        self._iv_counter = 1
        # The dummy-block header (sentinel address, label 0, version 0) is
        # a constant per codec; padding writes encode it Z*(L+1) times per
        # access.
        self._dummy_header = (
            DUMMY_ADDRESS.to_bytes(8, "little", signed=True)
            + (0).to_bytes(8, "little")
            + (0).to_bytes(8, "little")
        )
        self._mac_bytes = engine.cipher.MAC_BYTES
        self._header_end = 2 * _IV_BYTES + _HEADER_BYTES + self._mac_bytes
        self._wire_bytes = self._header_end + block_bytes + self._mac_bytes
        # Write-through plaintext memo, keyed by NVM line address: the
        # wire this codec last encoded for each line, with its plaintext
        # fields.  Encoding for a line replaces its entry, so the memo
        # holds at most one entry per line ever written and never a wire
        # a later encode overwrote: it needs no capacity or eviction.  A
        # decode hits only when it names the line and the wire it decodes
        # is the remembered one (identity first, then equality); the
        # plaintext is then identical by construction (decode inverts
        # encode).  Anything else — no line, a tampered wire, a wire stored
        # behind the codec's back, a write a crash discarded — takes the
        # MAC-verifying slow path.  The shared dummy template, most of a
        # sparse tree's slots, is remembered as its bare wire.
        self._plain_memo: dict = {}
        self._dummy_block = Block.dummy_template(block_bytes)
        self._dummy_fields = (None, DUMMY_ADDRESS, 0, self._dummy_block.data, 0)

    @property
    def wire_bytes(self) -> int:
        """Stored size of one encrypted block."""
        return self._wire_bytes

    def encode(self, block: Block, line: Optional[int] = None) -> bytes:
        """Encrypt a block into its wire format with fresh IVs.

        ``line`` is the NVM line address the wire is stored at; given, the
        wire becomes that line's decode-memo entry.
        """
        if len(block.data) != self.block_bytes:
            raise ValueError(
                f"payload is {len(block.data)} bytes, expected {self.block_bytes}"
            )
        iv_counter = self._iv_counter
        iv1 = iv_counter
        iv2 = iv_counter + 1
        self._iv_counter = iv_counter + 2
        if block.address == DUMMY_ADDRESS and block.path_id == 0 and block.version == 0:
            header = self._dummy_header
        else:
            header = (
                block.address.to_bytes(8, "little", signed=True)
                + block.path_id.to_bytes(8, "little", signed=False)
                + block.version.to_bytes(8, "little", signed=False)
            )
        engine = self._engine
        enc_header = engine.encrypt(header, iv1)
        enc_data = engine.encrypt(block.data, iv2)
        wire = (
            iv1.to_bytes(_IV_BYTES, "little")
            + iv2.to_bytes(_IV_BYTES, "little")
            + enc_header
            + enc_data
        )
        if line is not None:
            self._plain_memo[line] = self._memo_entry(wire, block)
        return wire

    def encode_path(self, blocks, lines: Optional[Sequence[int]] = None) -> list:
        """Encrypt a whole path's blocks in one batched codec pass.

        Byte-identical to ``[self.encode(b) for b in blocks]`` — the IV
        counter advances in the same (iv1, iv2) per-block order and the
        wire layout is untouched — but every header and payload of the
        path is encrypted by one :meth:`CryptoEngine.encrypt_batch` call
        (one keystream and one MAC :meth:`Prf.evaluate_many` pass).
        ``lines`` (one NVM line address per block) makes each wire its
        line's decode-memo entry.
        """
        n = len(blocks)
        if lines is not None and len(lines) != n:
            raise ValueError(f"{len(lines)} lines for {n} blocks")
        if n == 0:
            return []
        block_bytes = self.block_bytes
        payloads = [block.data for block in blocks]
        if set(map(len, payloads)) != {block_bytes}:
            size = next(len(p) for p in payloads if len(p) != block_bytes)
            raise ValueError(f"payload is {size} bytes, expected {block_bytes}")
        base_iv = self._iv_counter
        self._iv_counter = base_iv + 2 * n
        iv1s = range(base_iv, base_iv + 2 * n, 2)
        iv2s = range(base_iv + 1, base_iv + 2 * n, 2)
        # The shared dummy template's header is a per-codec constant (any
        # other dummy encodes to the same bytes).
        dummy_block = self._dummy_block
        dummy_header = self._dummy_header
        headers = [
            dummy_header if block is dummy_block
            else block.address.to_bytes(8, "little", signed=True)
            + block.path_id.to_bytes(8, "little", signed=False)
            + block.version.to_bytes(8, "little", signed=False)
            for block in blocks
        ]
        units = self._engine.encrypt_batch(headers + payloads, [*iv1s, *iv2s])
        # iv1 || iv2 in the clear, as one 16-byte little-endian integer.
        shift = 8 * _IV_BYTES
        wires = list(map(b"".join, zip(
            [(iv + ((iv + 1) << shift)).to_bytes(2 * _IV_BYTES, "little") for iv in iv1s],
            units[:n],
            units[n:],
        )))
        if lines is not None:
            self._plain_memo.update(zip(lines, map(self._memo_entry, wires, blocks)))
        return wires

    def _memo_entry(self, wire: bytes, block: Block):
        """The decode-memo entry for ``block`` encoded as ``wire``."""
        if block is self._dummy_block:
            return wire
        return (wire, block.address, block.path_id, block.data, block.version)

    def _memo_fields(self, wire: bytes, line: Optional[int]):
        """``(wire, address, path_id, data, version)`` remembered for
        ``line`` if its memo entry holds exactly ``wire``; else None."""
        if line is None:
            return None
        entry = self._plain_memo.get(line)
        if entry is None:
            return None
        if entry.__class__ is bytes:
            if entry is wire or entry == wire:
                return self._dummy_fields
            return None
        remembered = entry[0]
        if remembered is wire or remembered == wire:
            return entry
        return None

    def decode(self, wire: bytes, line: Optional[int] = None) -> Block:
        """Decrypt a wire-format block read from NVM line ``line``."""
        if len(wire) != self.wire_bytes:
            raise ValueError(f"wire block is {len(wire)} bytes, expected {self.wire_bytes}")
        fields = self._memo_fields(wire, line)
        if fields is not None:
            self._engine.count_decrypt(2, self.wire_bytes - 2 * _IV_BYTES)
            return _raw_block(fields[1], fields[2], fields[3], fields[4])
        header_end = self._header_end
        iv1 = int.from_bytes(wire[:_IV_BYTES], "little")
        iv2 = int.from_bytes(wire[_IV_BYTES : 2 * _IV_BYTES], "little")
        engine = self._engine
        header = engine.decrypt(wire[2 * _IV_BYTES : header_end], iv1)
        data = engine.decrypt(wire[header_end:], iv2)
        return _raw_block(
            int.from_bytes(header[0:8], "little", signed=True),
            int.from_bytes(header[8:16], "little", signed=False),
            data,
            int.from_bytes(header[16:24], "little", signed=False),
        )

    def decode_path(self, wires, lines: Optional[Sequence[int]] = None) -> list:
        """Decrypt a whole path's blocks in one batched codec pass.

        Result-identical to ``[self.decode(w, l) for w, l in zip(wires,
        lines)]`` (including the :class:`~repro.crypto.ctr.IntegrityError`
        on a tampered wire): memo hits short-circuit, and all misses share
        two batched keystream walks (headers, then payloads).
        """
        n = len(wires)
        if n == 0:
            return []
        if lines is None:
            lines = [None] * n
        wire_bytes = self._wire_bytes
        memo_fields = self._memo_fields
        blocks = [None] * n
        miss_idx = []
        for i, wire in enumerate(wires):
            fields = memo_fields(wire, lines[i])
            if fields is not None:
                blocks[i] = _raw_block(fields[1], fields[2], fields[3], fields[4])
            else:
                miss_idx.append(i)
        engine = self._engine
        hits = n - len(miss_idx)
        if hits:
            engine.count_decrypt(2 * hits, hits * (wire_bytes - 2 * _IV_BYTES))
        if miss_idx:
            header_end = self._header_end
            header_cts = []
            header_ivs = []
            data_cts = []
            data_ivs = []
            for i in miss_idx:
                wire = wires[i]
                if len(wire) != wire_bytes:
                    raise ValueError(
                        f"wire block is {len(wire)} bytes, expected {wire_bytes}"
                    )
                header_ivs.append(int.from_bytes(wire[:_IV_BYTES], "little"))
                data_ivs.append(int.from_bytes(wire[_IV_BYTES : 2 * _IV_BYTES], "little"))
                header_cts.append(wire[2 * _IV_BYTES : header_end])
                data_cts.append(wire[header_end:])
            headers = engine.decrypt_batch(header_cts, header_ivs)
            datas = engine.decrypt_batch(data_cts, data_ivs)
            from_bytes = int.from_bytes
            for i, header, data in zip(miss_idx, headers, datas):
                blocks[i] = _raw_block(
                    from_bytes(header[0:8], "little", signed=True),
                    from_bytes(header[8:16], "little", signed=False),
                    data,
                    from_bytes(header[16:24], "little", signed=False),
                )
        return blocks

    def decode_header(self, wire: bytes, line: Optional[int] = None) -> Block:
        """Decrypt only the header (payload left zeroed).

        Models the controller peeking at headers to find the block of
        interest before the full payload decrypt; also used by recovery.
        """
        header_end = self._header_end
        fields = self._memo_fields(wire, line)
        if fields is not None:
            self._engine.count_decrypt(1, header_end - 2 * _IV_BYTES)
            return _raw_block(fields[1], fields[2], bytes(self.block_bytes), fields[4])
        iv1 = int.from_bytes(wire[:_IV_BYTES], "little")
        header = self._engine.decrypt(wire[2 * _IV_BYTES : header_end], iv1)
        return _raw_block(
            int.from_bytes(header[0:8], "little", signed=True),
            int.from_bytes(header[8:16], "little", signed=False),
            bytes(self.block_bytes),
            int.from_bytes(header[16:24], "little", signed=False),
        )
