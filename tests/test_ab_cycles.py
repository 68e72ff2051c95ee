"""The in-process A/B of benchmark cycles, ``scripts/ab_cycles.py``: one round, and its refusal."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ab_cycles():
    """The script, loaded afresh, timing one cycle per tree per round."""
    spec = importlib.util.spec_from_file_location("ab_cycles", ROOT / "scripts" / "ab_cycles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.CYCLES = dict.fromkeys(module.CYCLES, 1)
    return module


def test_one_round_of_the_tree_against_itself(capsys):
    assert _ab_cycles().main([str(ROOT), str(ROOT), "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["ladder", "sweep", "cables"]
    assert all("B won" in line and "of 1" in line for line in lines[1:])


def test_trees_whose_reports_differ_are_not_timed(tmp_path, capsys):
    shutil.copytree(ROOT / "src" / "coverlink", tmp_path / "src" / "coverlink")
    obstruct = tmp_path / "src" / "coverlink" / "obstruct.py"
    text = obstruct.read_text(encoding="utf-8")
    assert text.count("    return str(q)\n") == 1
    obstruct.write_text(text.replace("    return str(q)\n", "    return str(q) + ' '\n"))
    argv = [str(ROOT), str(tmp_path), "--rounds", "1", "--workloads", "cables"]
    assert _ab_cycles().main(argv) == 1
    out = capsys.readouterr().out
    assert "differs between the trees; not timed" in out and "B won" not in out
