"""The public surface of the package."""

import ast
import hashlib
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import coverlink
from test_cli import SELFTEST_SHA256

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SOURCES = sorted((PYPROJECT.parent / "src" / "coverlink").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in coverlink.__all__ if not hasattr(coverlink, name)]
    assert not missing
    assert len(set(coverlink.__all__)) == len(coverlink.__all__)


def test_exports_are_exactly_the_imports_and_sorted():
    # A name that leaves a module must leave both the imports and __all__.
    tree = ast.parse(Path(coverlink.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == set(coverlink.__all__)
    assert coverlink.__all__ == sorted(coverlink.__all__)


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


def _floor_python() -> str | None:
    """A working Python 3.10: ``python3.10`` on the path, else a pyenv install of 3.10."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates = [shutil.which("python3.10")]
    candidates += sorted(str(p) for p in pyenv.glob("versions/3.10*/bin/python"))
    probe = "import sys; print(sys.version_info[:2] == (3, 10))"
    for exe in filter(None, candidates):
        try:  # a pyenv shim for a version that is not selected exits non-zero
            done = subprocess.run([exe, "-c", probe], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if done.stdout.strip() == "True":
            return exe
    return None


def _newest_python() -> str | None:
    """The newest working pyenv install of a Python 3.1x, or None."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = []
    for exe in pyenv.glob("versions/3.1*/bin/python"):
        if version := re.fullmatch(r"3\.(1\d)\.(\d+)", exe.parents[1].name):
            found.append(((int(version[1]), int(version[2])), str(exe)))
    for (minor, _), exe in sorted(found, reverse=True):
        probe = f"import sys; print(sys.version_info[:2] == (3, {minor}))"
        try:
            done = subprocess.run([exe, "-c", probe], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if done.stdout.strip() == "True":
            return exe
    return None


def _assert_selftest_pinned(exe: str) -> None:
    env = {k: v for k, v in os.environ.items() if k != "HEDDEN_SEED"}
    env["PYTHONPATH"] = str(PYPROJECT.parent / "src")
    done = subprocess.run(
        [exe, "-m", "coverlink", "selftest"], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == SELFTEST_SHA256


def test_selftest_runs_on_the_oldest_supported_python():
    exe = _floor_python()
    if exe is None:
        pytest.skip("no working Python 3.10 interpreter found")
    _assert_selftest_pinned(exe)


def test_selftest_runs_on_the_newest_python_found():
    # Records are named tuples and slotted dataclasses, whose machinery changes between
    # versions (3.12 dropped cached_property's lock); the pin must hold on the newest too.
    exe = _newest_python()
    if exe is None:
        pytest.skip("no working pyenv Python 3.1x interpreter found")
    _assert_selftest_pinned(exe)
