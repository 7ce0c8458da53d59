"""Counter-mode cipher with tamper-evident MAC.

Per the paper (following Fletcher et al.'s hardware ORAM controller), every
ORAM block carries two initialization vectors: IV1 encrypts the header
(program address + path id) and IV2 encrypts the data payload.  This module
provides the IV-based encrypt/decrypt primitive; block layout lives in
:mod:`repro.oram.block`.

Encryption XORs the plaintext with a PRF keystream expanded from the IV and
appends a short MAC so decryption with a wrong IV or tampered ciphertext is
detected rather than silently returning garbage — crash-recovery tests rely
on this to prove the recovered image is byte-exact.
"""

from __future__ import annotations

from itertools import accumulate

from repro.crypto.prf import Prf


class IntegrityError(Exception):
    """Ciphertext failed its MAC check (tamper or wrong IV)."""


class CtrCipher:
    """IV-indexed counter-mode encryption with an appended MAC tag."""

    MAC_BYTES = 8

    def __init__(self, key: bytes):
        base = Prf(key, digest_size=32)
        self._enc_prf = base.derive("ctr-keystream")
        self._mac_prf = base.derive("ctr-mac")

    def encrypt(self, plaintext: bytes, iv: int) -> bytes:
        """Encrypt ``plaintext`` under counter ``iv``; output is MAC_BYTES longer."""
        nonce = iv.to_bytes(16, "little", signed=False)
        length = len(plaintext)
        stream = self._enc_prf.keystream(nonce, length)
        # One big-int XOR replaces the per-byte generator (same bytes,
        # ~10x faster for 64B payloads).
        body = (
            int.from_bytes(plaintext, "little") ^ int.from_bytes(stream, "little")
        ).to_bytes(length, "little")
        tag = self._mac_prf.evaluate(nonce + body)[: self.MAC_BYTES]
        return body + tag

    def decrypt(self, ciphertext: bytes, iv: int) -> bytes:
        """Decrypt and verify; raises :class:`IntegrityError` on mismatch."""
        mac_bytes = self.MAC_BYTES
        if len(ciphertext) < mac_bytes:
            raise IntegrityError("ciphertext shorter than MAC tag")
        body, tag = ciphertext[:-mac_bytes], ciphertext[-mac_bytes:]
        nonce = iv.to_bytes(16, "little", signed=False)
        expected = self._mac_prf.evaluate(nonce + body)[:mac_bytes]
        if tag != expected:
            raise IntegrityError(f"MAC mismatch for iv={iv}")
        length = len(body)
        stream = self._enc_prf.keystream(nonce, length)
        return (
            int.from_bytes(body, "little") ^ int.from_bytes(stream, "little")
        ).to_bytes(length, "little")

    def encrypt_batch(self, plaintexts, ivs):
        """Encrypt many units in one pass; the units may differ in length.

        Byte-identical to ``[self.encrypt(p, iv) for p, iv in zip(...)]``;
        the keystreams for the whole batch come from one
        :meth:`Prf.keystream_many` pass, the whole batch is XORed as one
        big int, and all MAC tags come from one :meth:`Prf.evaluate_many`
        pass.  The path codec passes a path's headers, then its payloads.
        """
        if not plaintexts:
            return []
        nonces = [iv.to_bytes(16, "little") for iv in ivs]
        lengths = list(map(len, plaintexts))
        stream = b"".join(self._enc_prf.keystream_many(nonces, lengths))
        joined = (
            int.from_bytes(b"".join(plaintexts), "little")
            ^ int.from_bytes(stream, "little")
        ).to_bytes(len(stream), "little")
        ends = list(accumulate(lengths))
        bodies = [joined[start:end] for start, end in zip([0, *ends], ends)]
        mac_bytes = self.MAC_BYTES
        tags = self._mac_prf.evaluate_many(bodies, prefixes=nonces)
        return [body + tag[:mac_bytes] for body, tag in zip(bodies, tags)]

    def decrypt_batch(self, ciphertexts, ivs):
        """Decrypt + verify many same-length units in one pass.

        Byte-identical to the per-unit :meth:`decrypt` loop, including the
        :class:`IntegrityError` on the first MAC mismatch.
        """
        if not ciphertexts:
            return []
        mac_bytes = self.MAC_BYTES
        body_len = len(ciphertexts[0]) - mac_bytes
        if body_len < 0:
            raise IntegrityError("ciphertext shorter than MAC tag")
        nonces = [iv.to_bytes(16, "little", signed=False) for iv in ivs]
        streams = self._enc_prf.keystream_many(nonces, body_len)
        mac_evaluate = self._mac_prf.evaluate
        from_bytes = int.from_bytes
        out = []
        append = out.append
        for ciphertext, iv, nonce, stream in zip(ciphertexts, ivs, nonces, streams):
            body = ciphertext[:body_len]
            if ciphertext[body_len:] != mac_evaluate(nonce + body)[:mac_bytes]:
                raise IntegrityError(f"MAC mismatch for iv={iv}")
            append(
                (from_bytes(body, "little") ^ from_bytes(stream, "little")).to_bytes(
                    body_len, "little"
                )
            )
        return out

    def ciphertext_length(self, plaintext_length: int) -> int:
        """Length of the ciphertext for a plaintext of the given length."""
        return plaintext_length + self.MAC_BYTES
