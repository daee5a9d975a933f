"""The public API: every exported name resolves, once."""

import pglacier as pg


def test_every_exported_name_resolves():
    missing = [name for name in pg.__all__ if not hasattr(pg, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(pg.__all__)) == len(pg.__all__)
