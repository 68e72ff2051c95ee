"""Command-line behavior: exit codes, determinism, and mutation sensitivity."""

import json
from pathlib import Path

import coverlink.diagram
import coverlink.linalg
import coverlink.obstruct
from coverlink.cli import main
from coverlink.linalg import IntMatrix

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_good_pattern(capsys):
    code, _ = run(capsys, "validate", str(CORPUS / "example-w6.pattern"))
    assert code == 0


def test_validate_framing_not_unit(tmp_path, capsys):
    f = tmp_path / "framing0.annular"
    f.write_text(
        "annular v1\nseam 4 +-++\nlabel L1 seam 1\nlabel eta seam 3\n"
        "cap 1\nx 1 under\ncup 1 +\n"
    )
    code, out = run(capsys, "validate", str(f))
    assert code == 2
    assert "FramingNotUnit" in out


def test_validate_malformed_dsl(tmp_path, capsys):
    f = tmp_path / "bad.pattern"
    f.write_text("pattern v1\ncable 6\nclasp slot x\n")
    code = main(["validate", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3" in err


def test_obstruct_cable6(capsys):
    code, out = run(capsys, "obstruct", str(CORPUS / "cable-6.pattern"), "--m-list", "2")
    assert code == 0
    assert "Obstructed" in out and "(3)" in out


def test_obstruct_cable8_all_two_powers(capsys):
    code, out = run(
        capsys, "obstruct", str(CORPUS / "cable-8.pattern"), "--m-list", "2,4,8"
    )
    assert code == 0
    assert "(4)" in out and "(2, 2, 2)" in out and "(1, 1, 1, 1, 1, 1, 1)" in out
    assert out.count("Obstructed") == 4  # three degrees plus the aggregate


def test_obstruct_w8_inconclusive_everywhere(capsys):
    code, out = run(
        capsys, "obstruct", str(CORPUS / "w8-mixed-sign.pattern"), "--m-list", "2,4,8",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["aggregate"] == "Inconclusive"
    assert [r["verdict"] for r in doc["per_m"]] == ["Inconclusive"] * 3
    assert doc["per_m"][2]["linkings"] == ["1", "0", "-1", "-1", "-1", "0", "1"]


def test_json_reports_byte_identical(capsys):
    args = ("obstruct", str(CORPUS / "example-w6.pattern"), "--format", "json")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_compile_then_cover_pipeline(tmp_path, capsys):
    code, compiled = run(capsys, "compile", str(CORPUS / "example-w6.pattern"))
    assert code == 0
    f = tmp_path / "compiled.annular"
    f.write_text(compiled)
    code, covered = run(capsys, "cover", str(f), "--m", "2")
    assert code == 0
    assert "# lift eta.0" in covered and "# lift eta.1" in covered
    assert covered.startswith("annular v1")


def test_linkings_text(capsys):
    code, out = run(capsys, "linkings", str(CORPUS / "cable-8.pattern"), "--m", "4")
    assert code == 0
    assert "lk(eta, t^1 eta) = 2" in out and "|H1| = 1" in out


def test_normalize_round_trip(tmp_path, capsys):
    from coverlink.diagram import serialize
    from coverlink.downhill import random_annular_word

    f = tmp_path / "word.annular"
    f.write_text(serialize(random_annular_word(6, 4)))
    code, out = run(capsys, "normalize", str(f))
    assert code == 0
    assert out.startswith("pattern v1")
    assert "# orientation" in out


def test_corpus_runner_ordered(capsys):
    code, out = run(capsys, "corpus", str(CORPUS), "--m-list", "2")
    assert code == 0
    names = [line[3:] for line in out.splitlines() if line.startswith("== ")]
    assert names == sorted(names)
    assert "cable-6.pattern" in names and "w8-mixed-sign.pattern" in names


def test_json_pattern_input(tmp_path, capsys):
    from coverlink.pattern import random_presentation, to_json

    f = tmp_path / "p.json"
    f.write_text(to_json(random_presentation(6, 2, 5)))
    code, out = run(capsys, "obstruct", str(f), "--json", "--m-list", "2")
    assert code == 0
    assert "Obstructed" in out


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_selftest_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HEDDEN_SEED", "99")
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "(seed 99)" in out


def test_mutated_crossing_sign_fails_cable_goldens(capsys, monkeypatch):
    # Deliberate mutation: a globally flipped sign convention must negate the
    # cable goldens and make the self-test fail.
    real = coverlink.diagram.crossing_sign
    monkeypatch.setattr(
        coverlink.diagram, "crossing_sign", lambda lo, up, over: -real(lo, up, over)
    )
    coverlink.diagram.analyze.cache_clear()
    try:
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL cable-" in out
    finally:
        coverlink.diagram.analyze.cache_clear()


def test_mutated_snf_fails_order_goldens(capsys, monkeypatch):
    # Deliberate mutation: a broken Smith normal form must break the
    # order-in-quotient goldens.
    def broken(m):
        n = m.rows
        return IntMatrix.identity(n), IntMatrix.identity(n), IntMatrix.identity(n)

    monkeypatch.setattr(coverlink.linalg, "smith_normal_form", broken)
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL order-" in out


def test_mutated_solve_fails_linking_goldens(capsys, monkeypatch):
    # Deliberate mutation: a sign-flipped solve on the verdict path must break
    # the winding-8 linking goldens.
    real = coverlink.obstruct.solve
    monkeypatch.setattr(coverlink.obstruct, "solve", lambda m, b: [-v for v in real(m, b)])
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL w8-linkings-" in out


def test_unknown_file_reports_error(capsys):
    code = main(["obstruct", "/nonexistent/nope.pattern"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_invariant_violation_maps_to_exit_3(capsys, monkeypatch):
    import coverlink.cli
    import coverlink.obstruct as obs

    def boom(p, m_list=(2, 4)):
        raise obs.InvariantViolationError("synthetic")

    monkeypatch.setattr(coverlink.cli.obs, "auto_verdict", boom)
    code = main(["obstruct", str(CORPUS / "cable-6.pattern")])
    assert code == 3
    assert "invariant violation" in capsys.readouterr().err
