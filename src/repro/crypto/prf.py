"""A keyed pseudo-random function on BLAKE2b.

This is the primitive everything else in :mod:`repro.crypto` builds on:
counter-mode keystream generation and MAC tags are both PRF evaluations.
BLAKE2b's keyed mode gives us a fast, dependency-free keyed hash from the
standard library.
"""

from __future__ import annotations

import hashlib
from collections import deque
from itertools import groupby, repeat
from typing import List, Optional

#: LE64 encoding of counter 0, hoisted for the single-digest fast path.
_COUNTER0 = (0).to_bytes(8, "little")

_copy = hashlib.blake2b.copy
_update = hashlib.blake2b.update
_digest = hashlib.blake2b.digest


class Prf:
    """Keyed PRF: ``bytes -> digest_size bytes``.

    The keyed BLAKE2b state is built once; every evaluation copies it and
    absorbs the message, which is byte-identical to a fresh keyed
    ``hashlib.blake2b(message, key=..., digest_size=...)`` but skips the
    per-call parameter parsing and key block compression.
    """

    def __init__(self, key: bytes, digest_size: int = 16):
        if not key:
            raise ValueError("PRF key must be non-empty")
        if not 1 <= digest_size <= 64:
            raise ValueError(f"digest size must be in [1, 64], got {digest_size}")
        self._key = key[:64]  # BLAKE2b keyed mode allows at most 64 key bytes.
        self._digest_size = digest_size
        self._state = hashlib.blake2b(key=self._key, digest_size=digest_size)

    @property
    def digest_size(self) -> int:
        return self._digest_size

    def evaluate(self, message: bytes) -> bytes:
        """PRF output for ``message``."""
        h = self._state.copy()
        h.update(message)
        return h.digest()

    def evaluate_many(
        self, messages: List[bytes], prefixes: Optional[List[bytes]] = None
    ) -> List[bytes]:
        """``[self.evaluate(m) for m in messages]`` as three C-level passes.

        With ``prefixes``, message ``i`` is ``prefixes[i] || messages[i]``,
        absorbed in two updates instead of being concatenated first.
        """
        states = list(map(_copy, repeat(self._state, len(messages))))
        if prefixes is not None:
            deque(map(_update, states, prefixes), maxlen=0)
        deque(map(_update, states, messages), maxlen=0)
        return list(map(_digest, states))

    def keystream(self, nonce: bytes, length: int) -> bytes:
        """``length`` keystream bytes derived from ``nonce`` in counter mode.

        The output is a frozen wire format (tests/test_crypto_golden.py):
        block ``i`` is ``BLAKE2b(nonce || LE64(i))`` at this PRF's digest
        size, truncated to ``length``.  A wider one-shot digest would be
        faster still but changes every ciphertext (the digest size is part
        of BLAKE2b's parameter block), so optimizations here must keep the
        per-counter digest structure.
        """
        if length < 0:
            raise ValueError(f"keystream length must be >= 0, got {length}")
        if length == 0:
            return b""
        if length <= self._digest_size:
            # One digest covers the request (the common case for headers
            # and MAC-sized outputs): no buffer assembly at all.
            digest = self.evaluate(nonce + _COUNTER0)
            return digest if length == self._digest_size else digest[:length]
        evaluate = self.evaluate
        stream = b"".join(
            evaluate(nonce + counter.to_bytes(8, "little"))
            for counter in range(-(-length // self._digest_size))
        )
        return stream if len(stream) == length else stream[:length]

    def keystream_many(self, nonces, length):
        """Keystreams for many nonces in one pass.

        ``length`` is one length shared by every nonce, or a sequence of
        one length per nonce.  Byte-identical to ``[self.keystream(n, l)
        for n, l in zip(nonces, lengths)]`` (the frozen per-counter digest
        wire format is untouched); the win is amortization: every counter
        block of the whole batch is one :meth:`evaluate_many` pass.
        Consecutive nonces of equal length form a run whose messages go
        counter-major, so each counter suffix is encoded once per run.
        Batched encryption and decryption
        (:meth:`repro.crypto.ctr.CtrCipher.encrypt_batch`,
        :meth:`~repro.crypto.ctr.CtrCipher.decrypt_batch`) both use it.
        """
        lengths = [length] * len(nonces) if isinstance(length, int) else length
        digest_size = self._digest_size
        runs = []
        messages = []
        start = 0
        for run_length, group in groupby(lengths):
            if run_length < 0:
                raise ValueError(f"keystream length must be >= 0, got {run_length}")
            stop = start + len(list(group))
            run_nonces = nonces[start:stop]
            blocks = -(-run_length // digest_size)
            for counter in range(blocks):
                suffix = counter.to_bytes(8, "little")
                messages += [nonce + suffix for nonce in run_nonces]
            runs.append((stop - start, run_length, blocks))
            start = stop
        digests = self.evaluate_many(messages)
        streams = []
        cursor = 0
        for count, run_length, blocks in runs:
            columns = [
                digests[cursor + k * count:cursor + (k + 1) * count]
                for k in range(blocks)
            ]
            cursor += count * blocks
            if blocks == 0:
                run = [b""] * count
            elif blocks == 1:
                run = columns[0]
            else:
                run = list(map(b"".join, zip(*columns)))
            if run_length != blocks * digest_size:
                run = [stream[:run_length] for stream in run]
            streams += run
        return streams

    def derive(self, label: str) -> "Prf":
        """Derive an independent PRF keyed by ``label`` (domain separation)."""
        subkey = hashlib.blake2b(
            label.encode("utf-8"), key=self._key, digest_size=32
        ).digest()
        return Prf(subkey, self._digest_size)
