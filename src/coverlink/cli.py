"""Command-line front end: validate, compile, cover, linkings, obstruct, normalize,
selftest, and a corpus runner.

Exit codes: 0 on success (a computed Obstructed or Inconclusive verdict is
success); 2 for input or validation failures; 3 for internal invariant
violations (for example an even first-homology order at a cover of degree
2, 4 or 8), which indicate a pipeline or encoding bug rather than a property
of the data.
The environment variable ``HEDDEN_SEED`` overrides the default seed of the
seeded self-test sweeps; like ``--m``, it must be an ASCII integer.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import cover as cov
from . import diagram as dia
from . import downhill as nrm
from . import obstruct as obs
from . import pattern as pat

DEFAULT_SEED = 20250810

_USER_ERRORS = (
    dia.DiagramError,
    pat.PatternError,
    obs.PatternValidationError,
    obs.NotRationalHomologySphereError,
    cov.WindingNotDivisibleError,
    nrm.MultiComponentError,
    nrm.WindingTooSmallError,
    nrm.NotDownhillError,
    OSError,
    ValueError,
)


def _read(path: str) -> str:
    """The file's text; bytes that are not UTF-8 raise a ValueError that names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _sniff(text: str) -> str:
    lineno, line = next(dia._lines(text), (1, ""))
    if line.startswith("{"):
        return "json"
    if line in ("annular v1", "pattern v1"):
        return line.split()[0]  # the header names the kind
    raise pat.PatternSyntaxError(
        "unrecognized input (expected annular v1, pattern v1, or JSON)", lineno
    )


def _load_pattern(path: str, force_json: bool) -> pat.ClaspPresentation:
    text = _read(path)
    kind = "json" if force_json else _sniff(text)
    if kind == "json":
        return pat.from_json(text)
    if kind != "pattern":
        raise pat.PatternSyntaxError(f"{path} is not a pattern file", 1)
    return pat.parse(text)


def _load_word(path: str, force_json: bool) -> dia.AnnularWord:
    text = _read(path)
    kind = "json" if force_json else _sniff(text)
    if kind == "annular":
        return dia.parse(text)
    if kind == "json":
        return pat.compile(pat.from_json(text))
    return pat.compile(pat.parse(text))


def _degree(tok: str) -> int:
    """A cover degree, read by the DSLs' number rule (ASCII ``[+-]?[0-9]+``)."""
    try:
        return dia._int_literal(tok.strip(), "cover degree")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_m_list(raw: str) -> tuple[int, ...]:
    try:
        out = tuple(_degree(tok) for tok in raw.split(","))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"bad m-list {raw!r}: {exc}") from None
    if any(m < 2 for m in out):
        raise ValueError("m-list entries must be integers >= 2")
    return out


def cmd_validate(args) -> int:
    report = pat.validate(_load_word(args.file, args.json))
    for item in report.items:
        status = "ok" if item.ok else ("warning" if item.warning else "FAIL")
        print(f"{status:8} {item.name:22} {item.component:12} {item.detail}")
    if not report.passed:
        return 2
    return 0


def cmd_compile(args) -> int:
    p = _load_pattern(args.file, args.json)
    sys.stdout.write(dia.serialize(pat.compile(p)))
    return 0


def cmd_cover(args) -> int:
    word = _load_word(args.file, args.json)
    cd = cov.build_cover(word, args.m)
    sys.stdout.write(dia.serialize(cd.word))
    base_ana = dia.analyze(word)
    names = base_ana.labels()
    print("# lift map (name.copy -> cover component)")
    for (cid, j), cover_cid in sorted(cd.lift_map.items()):
        name = names.get(cid, f"component{cid}")
        print(f"# lift {name}.{j} component {cover_cid}")
    return 0


def cmd_linkings(args) -> int:
    p = _load_pattern(args.file, args.json)
    report = obs.verdict(p, args.m)  # rejects m < 2 first
    if p.n % args.m:
        raise ValueError(f"{args.file}: m={args.m} does not divide winding {p.n}")
    if args.format == "json":
        agg = obs.AggregateReport(p.name or "unnamed", p.n, [report], report.verdict)
        sys.stdout.write(obs.report_to_json(agg))
        return 0
    print(f"pattern {p.name or 'unnamed'} (winding {p.n}), cover degree {args.m}")
    for k, text in enumerate(report.linking_texts, start=1):
        print(f"  lk(eta, t^{k} eta) = {text}")
    print(f"  |H1| = {report.h1_order}")
    print(f"  eta order = {report.eta_order}")
    return 0


def cmd_obstruct(args) -> int:
    p = _load_pattern(args.file, args.json)
    agg = obs.auto_verdict(p, _parse_m_list(args.m_list))
    out = obs.report_to_json(agg) if args.format == "json" else obs.report_to_text(agg)
    sys.stdout.write(out)
    return 0


def cmd_normalize(args) -> int:
    word = _load_word(args.file, args.json)
    result = nrm.normalize(word)
    sys.stdout.write(pat.serialize(result.presentation))
    print(f"# orientation {result.orientation}")
    print(f"# {len(result.changes)} crossing change(s)")
    for ch in result.changes:
        print(
            f"# change at event {ch.event}: straightened strands "
            f"{ch.strand_low},{ch.strand_high} -> clasp slot {ch.clasp.slot} "
            f"enter {ch.clasp.gap_enter} exit {ch.clasp.gap_exit} "
            f"framing {ch.clasp.framing:+d}"
        )
    print(
        "# note: clasp slot/gap coordinates follow this tool's gadget convention;"
        " they are verified by the invariant suite, not by isotopy."
    )
    return 0


def cmd_corpus(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise OSError(f"{root} is not a directory")
    files = sorted(
        f for f in root.iterdir() if f.suffix in (".pattern", ".json") and f.is_file()
    )
    if not files:
        raise OSError(f"no .pattern or .json files in {root}")
    m_list = _parse_m_list(args.m_list)
    worst = 0
    for f in files:
        print(f"== {f.name}")
        try:
            p = _load_pattern(str(f), force_json=f.suffix == ".json")
            agg = obs.auto_verdict(p, m_list)
            out = obs.report_to_json(agg) if args.format == "json" else obs.report_to_text(agg)
            sys.stdout.write(out)
        except obs.InvariantViolationError as exc:
            print(f"invariant violation: {exc}", file=sys.stderr)
            worst = max(worst, 3)
        except _USER_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            worst = max(worst, 2)
    return worst


def _selftest_checks(seed: int):
    """Yield (name, passed, detail) tuples for every golden and invariant."""
    from .linalg import (
        IntMatrix,
        det,
        inverse,
        order_in_quotient,
        smith_normal_form,
        solve,
    )

    def check(name, got, want):
        return (name, got == want, f"got {got}, want {want}")

    m = IntMatrix.from_rows([[2, 1], [1, 2]])
    yield check("det-2x2", det(m), 3)
    yield check("det-empty", det(IntMatrix.zeros(0, 0)), 1)
    inv = inverse(m)
    yield check(
        "inverse-2x2",
        inv,
        [[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)]],
    )
    yield check("solve-2x2", solve(m, [1, 0]), [Fraction(2, 3), Fraction(-1, 3)])
    # Indices 0 and 3 form the block [[3, 1], [1, 2]] (det 5); 1 and 2 stand alone.
    blocks = IntMatrix.from_rows([[3, 0, 0, 1], [0, 5, 0, 0], [0, 0, 7, 0], [1, 0, 0, 2]])
    yield check("det-blocks", det(blocks), 175)
    yield check(
        "solve-blocks",
        solve(blocks, [1, 1, 1, 0]),
        [Fraction(2, 5), Fraction(1, 5), Fraction(1, 7), Fraction(-1, 5)],
    )
    d, u, v = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    yield check("snf-diag", (d[0, 0], d[1, 1]), (1, 6))
    yield check("snf-product", u.mul(IntMatrix.from_rows([[2, 0], [0, 3]])).mul(v), d)
    yield check("order-cyclic", order_in_quotient(IntMatrix.from_rows([[3]]), [1]), 3)
    yield check("order-2x2", order_in_quotient(m, [1, 0]), 3)

    # Cable goldens: every divisor cover of every winding up to 12.
    for n in range(2, 13):
        p = pat.ClaspPresentation(n, (), name=f"cable-{n}")
        for deg in range(2, n + 1):
            if n % deg:
                continue
            rep = obs.verdict(p, deg)
            want = (Fraction(n, deg),) * (deg - 1)
            yield check(f"cable-{n}-m{deg}", rep.linkings, want)

    # The shipped winding-8 profile: Inconclusive at every 2-power cover.
    # (Rebuilt inline: the corpus directory is not part of the package.)
    w8 = pat.ClaspPresentation(
        8,
        (
            pat.ClaspSpec(0, 1, 3, "oooo", 1, -1),
            pat.ClaspSpec(1, 1, 4, "oooooo", 1, -1),
            pat.ClaspSpec(2, 2, 5, "oooooo", 1, -1),
            pat.ClaspSpec(3, 1, 5, "oooooooo", 1, -1),
        ),
        name="w8-mixed-sign",
    )
    targets = {2: (0,), 4: (0, 0, 0), 8: (1, 0, -1, -1, -1, 0, 1)}
    for deg, want in targets.items():
        rep = obs.verdict(w8, deg)
        yield check(f"w8-linkings-m{deg}", tuple(rep.linkings), tuple(Fraction(x) for x in want))
        yield check(f"w8-verdict-m{deg}", rep.verdict, "Inconclusive")

    # The verdict's one-sweep lift data against the m-copy cover word.
    for deg in (2, 4, 8):
        words = [pat.compile(pat.random_presentation(8, i, seed + i)) for i in range(1, 5)]
        bad = sum(
            cov.lift_data(w, deg) != cov.lifted_linking_matrix(cov.build_cover(w, deg))
            for w in words
        )
        yield (f"lift-oracle-m{deg}", not bad, f"{bad} of {len(words)} lifts differ")

    # Seeded invariant sweeps.
    for i in range(10):
        for n in (2, 6, 10):
            p = pat.random_presentation(n, (i % 4) + 1, seed + i)
            rep = obs.verdict(p, 2)
            yield check(f"sweep2-n{n}-{i}", rep.verdict, "Obstructed")
    for i in range(10):
        p = pat.random_presentation(4, (i % 4) + 1, seed + i)
        r2, r4 = obs.verdict(p, 2), obs.verdict(p, 4)
        yield (
            f"sweep4-{i}",
            r2.verdict == "Obstructed" or r4.verdict == "Obstructed",
            f"m2 {r2.verdict}, m4 {r4.verdict}",
        )
        yield check(f"doubling-{i}", r2.linkings[0], 2 * r4.linkings[0])
    for i in range(5):
        p = pat.random_presentation(8, (i % 3) + 1, seed + i)
        bad = [c for c in obs.cross_checks(p) if not c.passed]
        yield (f"cross-checks-{i}", not bad, "; ".join(c.name for c in bad) or "all pass")

    # Normalizer sweep.
    for i in range(10):
        w = nrm.random_annular_word(6, seed + i)
        dw, _ = nrm.force_downhill(w)
        yield (f"downhill-{i}", nrm.is_downhill(dw), "re-traversal")
        red = nrm.reduce_returning(dw)
        ana = dia.analyze(red)
        yield check(f"reduce-{i}", ana.components[0].wrapping, abs(ana.components[0].winding))
        res = nrm.normalize(w)
        agg = obs.auto_verdict(res.presentation, (2,))
        yield check(f"normalize-verdict-{i}", agg.aggregate, "Obstructed")


def cmd_selftest(_args) -> int:
    raw = os.environ.get("HEDDEN_SEED")
    seed = DEFAULT_SEED if raw is None else dia._int_literal(raw.strip(), "HEDDEN_SEED")
    failures = 0
    count = 0
    for name, passed, detail in _selftest_checks(seed):
        count += 1
        if not passed:
            failures += 1
            print(f"FAIL {name}: {detail}")
        else:
            print(f"pass {name}")
    print(f"{count - failures}/{count} checks passed (seed {seed})")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverlink",
        description=(
            "Linking numbers of meridian lifts in cyclic branched covers of "
            "satellite patterns, with a sign-based obstruction certificate."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, file=True, m=False, m_list=False, fmt=False):
        sp = sub.add_parser(name, help=help_text)
        if file:
            sp.add_argument("file", help="input file")
            sp.add_argument("--json", action="store_true", help="input is the JSON pattern schema")
        if m:
            sp.add_argument("--m", type=_degree, default=2, help="cover degree (default 2)")
        if m_list:
            sp.add_argument(
                "--m-list",
                default=",".join(map(str, obs.DEFAULT_M_LIST)),
                help="comma-separated cover degrees (default %(default)s)",
            )
        if fmt:
            sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.set_defaults(func=func)
        return sp

    add("validate", cmd_validate, "parse a file and run the surgery-curve checks")
    add("compile", cmd_compile, "compile a pattern to the annular DSL")
    add("cover", cmd_cover, "emit the m-fold cover word with its lift map", m=True)
    add("linkings", cmd_linkings, "branched-cover linking numbers at one degree", m=True, fmt=True)
    add("obstruct", cmd_obstruct, "full obstruction report", m_list=True, fmt=True)
    add("normalize", cmd_normalize, "annular word in, cable-plus-clasps pattern out")
    add("selftest", cmd_selftest, "run golden values and seeded invariant sweeps", file=False)
    corpus = add("corpus", cmd_corpus, "run obstruct over a directory", file=False, m_list=True, fmt=True)
    corpus.add_argument("dir", help="directory of .pattern/.json files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except obs.InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
