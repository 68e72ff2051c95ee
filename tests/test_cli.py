"""Command-line behavior: exit codes, determinism, and mutation sensitivity."""

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_cover_of_word_with_seam_free_component(tmp_path, capsys):
    f = tmp_path / "loop.annular"
    f.write_text("annular v1\nseam 1 +\nlabel eta seam 1\ncup 1\ncap 1\n")
    code, out = run(capsys, "cover", str(f), "--m", "1")
    assert code == 0
    assert "# lift eta.0 component 0" in out and "# lift component1.0 component 1" in out


def test_cover_names_an_unlabelled_component_once_when_its_winding_does_not_divide(
    tmp_path, capsys
):
    f = tmp_path / "winding1.annular"
    f.write_text("annular v1\nseam 4 ++++\nlabel eta seam 1\nx 1 over\n")
    assert main(["cover", str(f), "--m", "2"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: component 1 has winding 1, not divisible by m=2; "
    )


def test_cover_names_a_label_above_its_lowest_seam_strand(tmp_path, capsys):
    f = tmp_path / "winding2.annular"
    f.write_text("annular v1\nseam 2 ++\nlabel eta seam 2\nx 1 over\n")
    code, out = run(capsys, "cover", str(f), "--m", "1")
    assert code == 0
    assert "\nlabel eta.0 seam 1\n" in out


def test_linkings_text(capsys):
    code, out = run(capsys, "linkings", str(CORPUS / "cable-8.pattern"), "--m", "4")
    assert code == 0
    assert "lk(eta, t^1 eta) = 2" in out and "|H1| = 1" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("m", [3, 6])
def test_linkings_degree_not_dividing_winding_exits_2(capsys, fmt, m):
    path = str(CORPUS / "cable-8.pattern")
    code = main(["linkings", path, "--m", str(m), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: m={m} does not divide winding 8\n"



@pytest.mark.parametrize(
    "option, value, entry",
    [
        ("--m", "\u0662", "'\u0662'"),  # int() reads the Arabic-Indic digit two
        ("--m-list", "2_0", "'2_0'"),  # int() reads 20
        ("--m-list", "2,,4", "''"),
        ("--m-list", "2,4,", "''"),
    ],
    ids=["arabic-indic-m", "underscore", "empty-inner", "empty-last"],
)
def test_cover_degrees_read_as_ascii_integers(capsys, option, value, entry):
    command = "linkings" if option == "--m" else "obstruct"
    try:
        code = main([command, str(CORPUS / "cable-8.pattern"), option, value])
    except SystemExit as exc:  # argparse rejects --m itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"cover degree must be an integer, got {entry}" in captured.err


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "coverlink", "obstruct", "corpus/cable-6.pattern", "--m-list", "2"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("aggregate: Obstructed\n")

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


def test_corpus_json_report_sha256(capsys):
    # The byte-identity of the corpus reports, pinned: any change to a
    # linking, an order, a verdict, a check or the JSON layout shows here.
    code, out = run(capsys, "corpus", "--format", "json", "--m-list", "2,3,4,8", str(CORPUS))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c039761a5e8352941475453aef2e91958f557dada152e7cbd8f4eec21c7a765c"
    )


def test_corpus_reads_a_bad_m_list_once(capsys):
    # A bad list fails before any file: one error, no file headers.
    code = main(["corpus", str(CORPUS), "--m-list", "2,,4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: bad m-list '2,,4': cover degree must be an integer, got ''\n"


def _validation_files(tmp_path):
    """The corpus, then words from the validation oracle sample that fail or warn."""
    import random

    from coverlink.diagram import serialize
    from coverlink.pattern import compile, random_presentation
    from oracles import twist_surgery_pairs
    from test_pattern import _flip_one_flag, _swap_eta

    words = {
        "eta-on-clasp": _swap_eta(compile(random_presentation(6, 2, 0))),
        "flipped-flag": compile(_flip_one_flag(random_presentation(6, 3, 1), random.Random(1))),
        "twisted-pairs": twist_surgery_pairs(
            compile(random_presentation(8, 3, 0)), random.Random(0), 4
        ),
    }
    for name, word in words.items():
        (tmp_path / f"{name}.annular").write_text(serialize(word))
    return sorted(CORPUS.glob("*.pattern")) + [tmp_path / f"{name}.annular" for name in words]


def test_validate_stdout_sha256(tmp_path, capsys):
    # Every validation row's status, name, curve and detail, pinned, with each exit code.
    codes, outs = [], []
    for f in _validation_files(tmp_path):
        code, out = run(capsys, "validate", str(f))
        codes.append(code)
        outs.append(out)
    assert codes == [0, 0, 0, 0, 2, 2, 0]
    assert "warning  ClaspClaspLinking" in outs[-1]
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == (
        "7e861f7082103b925f351c69ebe7ab5a018b3fc43cdee35fc6fbae246ce9bc14"
    )


@pytest.mark.parametrize(
    "doc",
    [
        '{"pattern": "v1", "cable": 1e400, "clasps": []}',
        '{"pattern": "v1", "cable": 8, "clasps": [{"slot": 0, "enter": 1e400, "exit": 1}]}',
        '{"pattern": "v1", "cable": 8.5, "clasps": []}',
        '{"pattern": "v1", "cable": " 8", "clasps": []}',
        '{"pattern": "v1", "cable": 8, "clasps": [{"slot": true, "enter": 1, "exit": 1}]}',
    ],
    ids=["cable-1e400", "enter-1e400", "cable-8.5", "cable-string", "slot-true"],
)
def test_validate_json_non_integer_exits_2(tmp_path, capsys, doc):
    f = tmp_path / "p.json"
    f.write_text(doc + "\n")
    code = main(["validate", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err and "must be an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, located",
    [
        ("pattern v1\ncable 8\nclasp slot 0 enter 1 exit 1 sign +-\n",
         "line 3: sign must be + or -, got '+-'"),
        ("pattern v1\ncable 8\nclasp slot 1_0 enter 1 exit 1\n",
         "line 3: slot must be an integer, got '1_0'"),
        ("pattern v1\ncable 8\nclasp slot 0 enter \u0662 exit 1\n",
         "line 3: enter must be an integer, got '\u0662'"),
        ("pattern v1\ncable 1_0\n", "line 2: usage: cable N"),
        ("annular v1\nseam 2 ++\nlabel eta seam 1\nx 1_0 over\n",
         "line 4, col 1: expected gap, got '1_0'"),
        ("annular v1\nseam 2 ++\nlabel eta seam 1\nx \u0661 over\n",
         "line 4, col 1: expected gap, got '\u0661'"),
        ("annular v1\nseam 2 +-\nlabel eta seam 1\nlabel eta seam 2\n",
         "line 4, col 2: duplicate label 'eta'"),
        ('{"pattern": "v1", "cable": 8, "clasps": [{"slot": 0, "enter": 1, "exit": 1, '
         '"frameing": 1}]}', "line 1: unknown clasp keys ['frameing']"),
        ('{"pattern": "v1", "cable": 4, "clasp": [{"slot": 0, "enter": 1, "exit": 1}]}',
         "line 1: unknown top-level keys ['clasp']"),
        ('{"pattern": "v1", "cable": 8, "clasps": [{"slot": 0, "enter": 1, "exit": 2, '
         '"weave": ["o", "o"]}]}', "line 1: weave must be a string, got ['o', 'o']"),
        ('{"pattern": "v1", "cable": 8, "clasps": {"a": 1}}',
         "line 1: clasps must be an array, got {'a': 1}"),
        ('{"pattern": "v1", "cable": 8, "clasps": [7]}', "line 1: clasp must be an object, got 7"),
        ('{"pattern": "v1", "clasps": []}', "line 1: missing top-level key 'cable'"),
        ('{"pattern": "v1", "cable": 8, "clasps": [{"enter": 1, "exit": 1}]}',
         "line 1: missing clasp key 'slot'"),
        ("annular v1\nseam 2 ++\nlabel eta seam 1\nlabel L1 seam 2\nx 1 over\n",
         "line 4, col 2: label 'L1' names the component labeled 'eta'"),
        ("pattern v1\ncable 8\nclasp enter 0 exit 1 weave ou\n",
         "line 3: missing clasp key 'slot'"),
        ("pattern v1\nname a\ncable 8\nname b\n", "line 4: duplicate name line"),
        ('{"pattern": "v1", "cable": 8, "clasps": [], "cable": 4}',
         "line 1: duplicate JSON key 'cable'"),
        ('{"pattern": "v1", "cable": 8, "clasps": [{"slot": 0, "enter": 1, "exit": 1, '
         '"framing": 1, "framing": -1}]}', "line 1: duplicate JSON key 'framing'"),
        ("# c\n\nfoo\n",
         "line 3: unrecognized input (expected annular v1, pattern v1, or JSON)"),
    ],
    ids=[
        "sign-+-", "slot-1_0", "enter-arabic-indic-2", "cable-1_0", "gap-1_0", "gap-arabic-indic-1",
        "label-repeated", "json-clasp-key-frameing", "json-top-key-clasp", "json-weave-list",
        "json-clasps-object", "json-clasp-int", "json-cable-missing", "json-slot-missing",
        "label-second-on-component", "slot-missing", "name-repeated", "json-cable-repeated",
        "json-framing-repeated", "unrecognized-after-comment-and-blank",
    ],
)
def test_validate_non_canonical_number_or_sign_exits_2(tmp_path, capsys, text, located):
    f = tmp_path / "p.txt"
    f.write_text(text, encoding="utf-8")
    assert main(["validate", str(f)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {located}\n"


def test_json_pattern_input(tmp_path, capsys):
    from coverlink.pattern import random_presentation, to_json

    f = tmp_path / "p.json"
    f.write_text(to_json(random_presentation(6, 2, 5)))
    code, out = run(capsys, "obstruct", str(f), "--m-list", "2")
    assert code == 0
    assert "Obstructed" in out


def test_corpus_reads_each_file_by_its_first_line(tmp_path, capsys):
    # A .json file holding the text form reads as a pattern, as any file does.
    from coverlink.pattern import random_presentation, to_json

    (tmp_path / "a.json").write_text(to_json(random_presentation(6, 2, 5)), encoding="utf-8")
    shutil.copy(CORPUS / "cable-6.pattern", tmp_path / "b.json")
    code, out = run(capsys, "corpus", "--m-list", "2", str(tmp_path))
    assert code == 0
    assert out.count("aggregate: Obstructed\n") == 2


@pytest.mark.parametrize("command", ["obstruct", "compile", "validate", "cover", "normalize"])
def test_json_input_is_detected_not_flagged(tmp_path, capsys, command):
    # A leading '{' marks JSON input, so no command takes a --json flag.
    f = tmp_path / "p.json"
    f.write_text('{"pattern": "v1", "cable": 4}', encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([command, str(f), "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


SELFTEST_SHA256 = "4b082b8a30f6c11fea5796a9207918b968254fb39464ebc8e5fd6403dc961ea5"


def test_selftest_stdout_sha256(capsys, monkeypatch):
    # Every check's name and order and the summary line at the default seed, pinned.
    monkeypatch.delenv("HEDDEN_SEED", raising=False)
    assert main(["selftest"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SELFTEST_SHA256


def test_selftest_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HEDDEN_SEED", "99")
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "(seed 99)" in out


@pytest.mark.parametrize(
    "value",
    ["1_0", "\u0662", "abc"],  # int() reads the first two as 10 and 2
    ids=["underscore", "arabic-indic", "letters"],
)
def test_selftest_seed_env_read_as_ascii_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("HEDDEN_SEED", value)
    assert main(["selftest"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: HEDDEN_SEED must be an integer, got {value!r}\n"


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
    # Deliberate mutation: a flipped framing sign on the verdict's lift (every
    # diagonal entry negated, still diag(+-1)) must break the winding-8
    # linking goldens.
    real = coverlink.obstruct.lift_data

    def flipped(word, m):
        data = real(word, m)
        a = data.matrix
        negated = {ij: -v for ij, v in a.nonzeros.items()}
        return data._replace(matrix=IntMatrix(a.rows, a.cols, negated))

    monkeypatch.setattr(coverlink.obstruct, "lift_data", flipped)
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL w8-linkings-" in out


def test_mutated_blocks_fail_selftest(capsys, monkeypatch):
    # Deliberate mutation: a diagonal test that calls every matrix diagonal
    # ignores the off-diagonal entries and must break the coupled goldens.
    monkeypatch.setattr(coverlink.linalg, "_is_diagonal", lambda m: True)
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 1
    assert all(f"FAIL {name}" in out for name in ("det-2x2", "det-blocks", "solve-blocks"))


def test_mutated_sheet_offset_fails_the_lift_oracle(capsys, monkeypatch):
    # Deliberate mutation: the flat lift table puts one component's segments
    # one sheet off before the tally reads it. The one-sweep lift data then
    # names that curve's lifts one off from the cover word's, which the
    # selftest's lift-oracle rows catch.
    real = coverlink.diagram.WordAnalysis._lift_tally

    def offset(self):
        if self._tally is None and len(self.components) > 1:
            cid, comp = len(self.components) - 1, self._segment_component
            self._segment_sheet = [v + (comp[s] == cid) for s, v in enumerate(self._segment_sheet)]
            self._sheet_range[cid] = tuple(v + 1 for v in self._sheet_range[cid])
        return real(self)

    monkeypatch.setattr(coverlink.diagram.WordAnalysis, "_lift_tally", offset)
    coverlink.diagram.analyze.cache_clear()
    try:
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 1
        assert all(f"FAIL lift-oracle-m{m}:" in out for m in (2, 4, 8))
    finally:
        coverlink.diagram.analyze.cache_clear()


def test_unknown_file_reports_error(capsys):
    code = main(["obstruct", "/nonexistent/nope.pattern"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "compile", "obstruct"])
@pytest.mark.parametrize(
    "data, where",
    [(b"\xffpattern v1\n", "invalid start byte at byte 0"),
     (b"pattern v1\ncable 4\n\xc3(", "invalid continuation byte at byte 19")],
)
def test_non_utf8_input_is_reported_with_its_file_name(tmp_path, capsys, command, data, where):
    f = tmp_path / "bin.pattern"
    f.write_bytes(data)
    assert main([command, str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {f}: not UTF-8 text ({where})\n"


@pytest.mark.parametrize("n", [sys.maxsize + 1, 10**20])
@pytest.mark.parametrize("reader", ["text", "json"])
@pytest.mark.parametrize(
    "command", [["obstruct"], ["compile"], ["validate"], ["cover", "--m", "2"], ["normalize"]],
    ids=["obstruct", "compile", "validate", "cover", "normalize"],
)
def test_a_cable_too_wide_to_index_is_a_located_error(tmp_path, capsys, command, reader, n):
    # Only windings above sys.maxsize: they fail before any list is allocated.
    f = tmp_path / f"wide.{reader}"
    if reader == "text":
        f.write_text(f"pattern v1\nname wide\ncable {n}\n", encoding="utf-8")
        where = 3
    else:
        f.write_text(json.dumps({"pattern": "v1", "cable": n}), encoding="utf-8")
        where = 1
    assert main([*command, str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: line {where}: cable {n} needs a seam of {n} strands, too many to index\n"
    )


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _cli_in_a_child(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a child process held to 1 GiB of address space and a minute."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-m", "coverlink", *argv], env=env, capture_output=True, text=True,
        timeout=60, preexec_fn=_limit_address_space,
    )


# Only sizes that fail on the size arithmetic, before anything is allocated: a winding of
# sys.maxsize or one less, and a degree of sys.maxsize or 10**20.
@pytest.mark.parametrize("reader", ["text", "json"])
@pytest.mark.parametrize(
    "command, n",
    [(["compile"], sys.maxsize), (["validate"], sys.maxsize), (["cover", "--m", "2"], sys.maxsize),
     (["normalize"], sys.maxsize), (["obstruct"], sys.maxsize - 1)],
    ids=["compile", "validate", "cover", "normalize", "obstruct"],
)
def test_a_cable_too_wide_to_hold_is_a_located_error(tmp_path, command, n, reader):
    f = tmp_path / f"wide.{reader}"
    if reader == "text":
        f.write_text(f"pattern v1\ncable {n}\n", encoding="utf-8")
    else:
        f.write_text(json.dumps({"pattern": "v1", "cable": n}), encoding="utf-8")
    done = _cli_in_a_child(*command, str(f))
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr == f"error: {f}: too large to build (MemoryError)\n"


@pytest.mark.parametrize("m", [sys.maxsize, 10**20])
def test_a_cover_degree_too_large_to_hold_is_a_located_error(tmp_path, m):
    # A circle has winding 0, so every degree divides it: the m copies must fail at once.
    f = tmp_path / "circle.annular"
    f.write_text("annular v1\nseam 0\ncup 1 +\ncap 1\n", encoding="utf-8")
    done = _cli_in_a_child("cover", "--m", str(m), str(f))
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith(f"error: {f}: too large to build (")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_the_cover_of_an_empty_word_needs_no_copy(tmp_path):
    # No event and no seam strand: the cover at any degree a tuple can count is the same
    # empty word, and one no tuple can count is too large to build.
    f = tmp_path / "empty.annular"
    f.write_text("annular v1\nseam 0\n", encoding="utf-8")
    done = _cli_in_a_child("cover", "--m", str(sys.maxsize), str(f))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "annular v1\nseam 0\n# lift map (name.copy -> cover component)\n"
    done = _cli_in_a_child("cover", "--m", str(10**20), str(f))
    assert done.returncode == 2 and done.stderr.startswith(f"error: {f}: too large to build (")


def test_corpus_runs_every_file_after_one_too_large_to_hold(tmp_path):
    wide = tmp_path / "a-wide.pattern"
    wide.write_text(f"pattern v1\ncable {sys.maxsize - 1}\n", encoding="utf-8")
    shutil.copy(CORPUS / "cable-6.pattern", tmp_path / "b-cable-6.pattern")
    done = _cli_in_a_child("corpus", "--m-list", "2", str(tmp_path))
    assert done.returncode == 2
    assert done.stderr == f"error: {wide}: too large to build (MemoryError)\n"
    assert done.stdout.startswith("== a-wide.pattern\n== b-cable-6.pattern\n")
    assert done.stdout.endswith("aggregate: Obstructed\n")


def test_input_keeps_universal_newlines(tmp_path, capsys):
    f = tmp_path / "crlf.pattern"
    f.write_bytes((CORPUS / "cable-6.pattern").read_bytes().replace(b"\n", b"\r\n"))
    assert main(["obstruct", str(f)]) == 0
    crlf = capsys.readouterr().out
    assert main(["obstruct", str(CORPUS / "cable-6.pattern")]) == 0
    assert crlf == capsys.readouterr().out


def test_invariant_violation_maps_to_exit_3(capsys, monkeypatch):
    import coverlink.cli
    import coverlink.obstruct as obs

    def boom(p, m_list=(2, 4)):
        raise obs.InvariantViolationError("synthetic")

    monkeypatch.setattr(coverlink.cli.obs, "auto_verdict", boom)
    code = main(["obstruct", str(CORPUS / "cable-6.pattern")])
    assert code == 3
    assert "invariant violation" in capsys.readouterr().err


def _one_violation_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1, captured.err
    assert captured.err.startswith("invariant violation: ") and "Traceback" not in captured.err
    return captured.err


def test_lifts_that_do_not_close_up_exit_3(capsys, monkeypatch):
    # Every lift lands on one cover component, so build_cover's lift map is not m per base one.
    monkeypatch.setattr(coverlink.diagram.WordAnalysis, "component_of_segment", lambda self, s: 0)
    assert main(["cover", "--m", "2", str(CORPUS / "cable-6.pattern")]) == 3
    assert "lifts are not m distinct components" in _one_violation_line(capsys)


def test_an_odd_crossing_count_in_the_cover_tables_exits_3(capsys, monkeypatch):
    # One more crossing in a pair's tally row: two closed curves cannot cross oddly.
    real = coverlink.diagram.WordAnalysis._lift_tally

    def odd(self):
        rows, kinks = real(self)
        ab, (lo, counts) = next(iter(rows.items()))
        return {**rows, ab: (lo, [counts[0] + 1, *counts[1:]])}, kinks

    monkeypatch.setattr(coverlink.diagram.WordAnalysis, "_lift_tally", odd)
    assert main(["obstruct", "--m-list", "2", str(CORPUS / "w8-mixed-sign.pattern")]) == 3
    assert "closed curves must cross evenly: " in _one_violation_line(capsys)
