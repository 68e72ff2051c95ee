"""The public surface of the package."""

import re
from pathlib import Path

import coverlink

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_exported_name_resolves():
    missing = [name for name in coverlink.__all__ if not hasattr(coverlink, name)]
    assert not missing
    assert len(set(coverlink.__all__)) == len(coverlink.__all__)


def test_version_matches_pyproject():
    text = PYPROJECT.read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == coverlink.__version__
