"""The public surface of the package."""

import ast
import re
from pathlib import Path

import pytest

import coverlink

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SOURCES = sorted((PYPROJECT.parent / "src" / "coverlink").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in coverlink.__all__ if not hasattr(coverlink, name)]
    assert not missing
    assert len(set(coverlink.__all__)) == len(coverlink.__all__)


def test_version_matches_pyproject():
    text = PYPROJECT.read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == coverlink.__version__


def test_sources_parse_as_the_oldest_supported_python():
    # requires-python sets the floor; ast rejects newer syntax, such as 3.11's except*.
    text = PYPROJECT.read_text(encoding="utf-8")
    floor = (3, int(re.search(r'^requires-python = ">=3\.(\d+)"$', text, re.M).group(1)))
    assert floor == (3, 10) and SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)
