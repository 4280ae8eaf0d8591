"""The package's public names: every export exists and is listed once."""

from __future__ import annotations

from collections import Counter

import cgrs


def test_every_export_exists():
    assert [name for name in cgrs.__all__ if not hasattr(cgrs, name)] == []


def test_every_export_listed_once():
    assert [name for name, n in Counter(cgrs.__all__).items() if n > 1] == []
