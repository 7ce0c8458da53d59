"""(variant, integrity) test cases.

The integrity domain is a config switch (``SystemConfig.integrity``), not
a registry row, so a test that covers it runs a registered variant with
the switch on.  An integrity-on case's test id is the variant's name,
less any ``-oram`` suffix, plus ``-int``.
"""

import pytest

from repro.engine.registry import variant_specs


def case_id(variant, integrity):
    return f"{variant.removesuffix('-oram')}-int" if integrity else variant


def case(variant, integrity=False, marks=()):
    """One ``(variant, integrity)`` parameter set for ``parametrize``."""
    return pytest.param(variant, integrity, id=case_id(variant, integrity), marks=marks)


def layout_cases():
    """Every registered variant with an ORAM layout — all but the plain
    yardstick — with integrity off and on."""
    return [
        case(spec.name, integrity)
        for spec in variant_specs()
        if spec.hierarchy != "plain"
        for integrity in (False, True)
    ]


def registry_cases():
    """:func:`layout_cases` plus the variants without a layout, which the
    integrity domain cannot attach to, with integrity off."""
    plain = [case(spec.name) for spec in variant_specs() if spec.hierarchy == "plain"]
    return plain + layout_cases()
