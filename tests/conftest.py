"""Shared fixtures: small configurations and pre-built controllers."""

from __future__ import annotations

import pytest

from repro.config import small_config


@pytest.fixture
def tiny_config():
    """Height-5 tree: fast enough for per-test construction."""
    return small_config(height=5, seed=11)


@pytest.fixture
def small_cfg():
    """Height-7 tree: room for a few hundred blocks."""
    return small_config(height=7, seed=11)


@pytest.fixture
def baseline(small_cfg):
    from repro.oram.controller import PathORAMController

    return PathORAMController(small_cfg)


@pytest.fixture
def ps(small_cfg):
    from repro.core.variants import build_variant

    return build_variant("ps", small_cfg)


@pytest.fixture
def rcr_ps():
    from repro.config import small_config
    from repro.core.recursive_ps import RcrPSORAMController

    return RcrPSORAMController(small_config(height=7, seed=11))
