"""Draining energy/time model for crash-time persistence (paper Tables 1-2)."""

from repro.energy.model import (
    DrainCostModel,
    DrainEstimate,
    EADR_CACHE,
    EADR_ORAM,
    PS_ORAM,
)

__all__ = [
    "DrainCostModel",
    "DrainEstimate",
    "EADR_CACHE",
    "EADR_ORAM",
    "PS_ORAM",
]
