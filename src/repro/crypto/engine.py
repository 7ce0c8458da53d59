"""Latency-modelled encryption engine for the ORAM controller.

The controller does not call :class:`CtrCipher` directly: it goes through
this engine, which performs the real operation *and* accounts the AES
pipeline latency.  Following the paper (and Osiris), decryption-pad
generation is overlapped with the data fetch, so only the first operation of
a batch pays the full ``aes_latency_cycles``; subsequent blocks stream
through the pipeline at one block per ``pipeline_interval`` cycles.
"""

from __future__ import annotations

from repro.crypto.ctr import CtrCipher
from repro.util.stats import LazyCounter, StatSet


class CryptoEngine:
    """A :class:`CtrCipher` wrapped with pipeline-latency accounting."""

    def __init__(self, key: bytes, aes_latency_cycles: int = 32, pipeline_interval: int = 1):
        if aes_latency_cycles < 0:
            raise ValueError(f"AES latency must be >= 0, got {aes_latency_cycles}")
        if pipeline_interval < 1:
            raise ValueError(f"pipeline interval must be >= 1, got {pipeline_interval}")
        self._cipher = CtrCipher(key)
        self.aes_latency_cycles = aes_latency_cycles
        self.pipeline_interval = pipeline_interval
        self.stats = StatSet("crypto")
        # Counters bound once: encrypt/decrypt run per slot per access, so
        # a per-call registry lookup is measurable.
        self._encrypt_ops = LazyCounter(self.stats, "encrypt_ops")
        self._encrypt_bytes = LazyCounter(self.stats, "encrypt_bytes")
        self._decrypt_ops = LazyCounter(self.stats, "decrypt_ops")
        self._decrypt_bytes = LazyCounter(self.stats, "decrypt_bytes")

    @property
    def cipher(self) -> CtrCipher:
        """The underlying cipher (for size calculations)."""
        return self._cipher

    def encrypt(self, plaintext: bytes, iv: int) -> bytes:
        """Encrypt one unit and count it."""
        self._encrypt_ops.add()
        self._encrypt_bytes.add(len(plaintext))
        return self._cipher.encrypt(plaintext, iv)

    def decrypt(self, ciphertext: bytes, iv: int) -> bytes:
        """Decrypt one unit and count it."""
        self._decrypt_ops.add()
        self._decrypt_bytes.add(len(ciphertext))
        return self._cipher.decrypt(ciphertext, iv)

    def encrypt_batch(self, plaintexts, ivs):
        """Encrypt a batch of units (any lengths); counts match the loop."""
        n = len(plaintexts)
        if n:
            self._encrypt_ops.add(n)
            self._encrypt_bytes.add(sum(map(len, plaintexts)))
        return self._cipher.encrypt_batch(plaintexts, ivs)

    def decrypt_batch(self, ciphertexts, ivs):
        """Decrypt a batch of same-length units; counts match the loop."""
        n = len(ciphertexts)
        if n:
            self._decrypt_ops.add(n)
            self._decrypt_bytes.add(n * len(ciphertexts[0]))
        return self._cipher.decrypt_batch(ciphertexts, ivs)

    def count_decrypt(self, units: int, nbytes: int) -> None:
        """Account decrypts answered from a plaintext memo.

        The codec's decode memo returns remembered plaintext for a wire it
        produced itself (byte-equality checked), skipping the keystream
        walk.  The modeled hardware still performs the decrypt, so the
        counters must advance exactly as if :meth:`decrypt` had run.
        """
        self._decrypt_ops.add(units)
        self._decrypt_bytes.add(nbytes)

    def batch_latency_cycles(self, num_blocks: int) -> int:
        """Core cycles to push ``num_blocks`` through the AES pipeline.

        The first block pays the full pipeline depth; each further block adds
        one issue interval.  With fetch/pad overlap (Osiris-style), this is
        the *additional* latency beyond the memory fetch itself.
        """
        if num_blocks <= 0:
            return 0
        return self.aes_latency_cycles + (num_blocks - 1) * self.pipeline_interval
