"""Application layer: oblivious, crash-safe data structures.

What a downstream user actually builds on an ORAM: block storage is the
primitive, but applications want maps.  This structure adds
allocation, multi-block values and commit ordering on top of any
crash-consistent controller from :mod:`repro.core.variants`, preserving
both guarantees:

* **obliviousness** — every operation decomposes into ordinary ORAM block
  accesses, so the bus trace stays independent of keys and values;
* **crash consistency** — every mutation is a sequence of durable block
  writes ordered so the *commit point* is a single block write (the
  directory entry), making each operation atomic across crashes.
"""

from repro.apps.kvstore import ObliviousKVStore

__all__ = ["ObliviousKVStore"]
