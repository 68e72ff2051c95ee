"""Acceptance suite: one test per release criterion, all arithmetic exact.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
even on success). Tolerances are zero throughout: every comparison is exact
rational arithmetic.
"""

from fractions import Fraction
from pathlib import Path

from coverlink.cover import build_cover, lift_data, lifted_eta_linkings, lifted_linking_matrix
from coverlink.diagram import analyze
from coverlink.downhill import (
    force_downhill,
    is_downhill,
    normalize,
    random_annular_word,
    reduce_returning,
)
from coverlink.obstruct import (
    auto_verdict,
    cross_checks,
    verdict,
)
from coverlink.pattern import (
    ClaspPresentation,
    ClaspSpec,
    add_cancelling_pair,
    cable_template,
    compile,
    parse,
    random_presentation,
)
from oracles import block_circulant_split, cover_eta_rows, rotated_eta_rows

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
SEED = 20250810


def _report(name: str, ok: bool) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _sweep_presentations(windings, count, max_clasps=6):
    """Deterministic stream of `count` valid presentations over the windings."""
    out = []
    i = 0
    while len(out) < count:
        n = windings[i % len(windings)]
        k = i % (max_clasps + 1)
        out.append(random_presentation(n, k, SEED + i))
        i += 1
    return out


def test_criterion_1_cable_goldens():
    """Zero-clasp pipeline returns lk = n/m exactly, all n <= 12, all m | n."""
    ok = True
    for n in range(2, 13):
        p = ClaspPresentation(n, (), name=f"cable-{n}")
        for m in range(2, n + 1):
            if n % m:
                continue
            rep = verdict(p, m)
            ok = ok and rep.linkings == (Fraction(n, m),) * (m - 1)
    ok = ok and verdict(ClaspPresentation(6, ()), 2).linkings == (Fraction(3),)
    ok = ok and verdict(ClaspPresentation(8, ()), 4).linkings == (Fraction(2),) * 3
    _report("1 cable goldens (lk = n/m for n <= 12, m | n)", ok)


def test_criterion_2_winding8_reproduction():
    """The shipped winding-8 encoding reproduces the published linking profile."""
    p = parse((CORPUS / "w8-mixed-sign.pattern").read_text())
    targets = {
        2: (Fraction(0),),
        4: (Fraction(0), Fraction(0), Fraction(0)),
        8: tuple(Fraction(x) for x in (1, 0, -1, -1, -1, 0, 1)),
    }
    ok = True
    for m, want in targets.items():
        rep = verdict(p, m)
        palindrome_match = rep.linkings == want or rep.linkings == want[::-1]
        ok = ok and palindrome_match and rep.verdict == "Inconclusive"
    _report("2 winding-8 profile (Inconclusive at m = 2, 4, 8)", ok)


def test_criterion_3_mod4_sweep():
    """200 seeded presentations, n in {2, 6, 10}: Obstructed at m=2 with parity."""
    ok = True
    for p in _sweep_presentations((2, 6, 10), 200):
        rep = verdict(p, 2)
        val = (rep.linkings[0] - Fraction(p.n, 2)) * rep.h1_order
        ok = (
            ok
            and rep.verdict == "Obstructed"
            and rep.h1_order % 2 == 1
            and val.denominator == 1
            and int(val) % 2 == 0
        )
    _report("3 sweep n in {2,6,10}: Obstructed at m=2, parity, odd |H1|", ok)


def test_criterion_4_mod8_sweep():
    """200 seeded presentations, n in {4, 12}: Obstructed via m=2 or m=4."""
    ok = True
    for p in _sweep_presentations((4, 12), 200):
        r2 = verdict(p, 2)
        r4 = verdict(p, 4)
        ok = ok and (r2.verdict == "Obstructed" or r4.verdict == "Obstructed")
        if r2.linkings[0] == 0:
            ok = ok and r4.linkings[0] == 0 and r4.linkings[1] != 0
    _report("4 sweep n in {4,12}: Obstructed via m=2 or m=4, zero chain", ok)


def test_criterion_5_doubling_identity():
    """100 seeded presentations with 4 | n: lk_2 equals twice lk_4 (adjacent lifts)."""
    ok = True
    for p in _sweep_presentations((4, 8, 12), 100):
        lk2 = verdict(p, 2).linkings[0]
        lk4 = verdict(p, 4).linkings[0]
        ok = ok and lk2 == 2 * lk4
    _report("5 doubling identity lk_2 = 2 lk_4 (100 instances)", ok)


def test_criterion_6_structural_invariants():
    """A symmetric block circulant; lifted vector shapes; palindromic linkings."""
    ok = True
    for i, p in enumerate(_sweep_presentations((4, 8, 12), 60)):
        k = len(p.clasps)
        word = compile(p)
        for m in (2, 4):
            cd = build_cover(word, m)
            data = lifted_linking_matrix(cd)
            a = data.matrix
            ok = ok and all(
                a[r, c] == a[c, r] for r in range(a.rows) for c in range(a.rows)
            )
            if a.rows:
                try:
                    block_circulant_split(a, m)
                except Exception:
                    ok = False
            rep = verdict(p, m)
            ok = ok and all(
                rep.linkings[j - 1] == rep.linkings[m - j - 1] for j in range(1, m)
            )
            # On the cover word: each surgery curve's lifts, over all sheets,
            # link eta_0 as the curve links eta, that is 0; and the deck
            # carries the verdict's one eta row to every eta lift's row.
            rows = cover_eta_rows(cd)
            ok = ok and all(sum(rows[0][c::k]) == 0 for c in range(k))
            ok = ok and rows == rotated_eta_rows(lift_data(word, m).eta_row, m)
    _report("6 structural invariants (block circulant, vector shapes, palindrome)", ok)


def test_criterion_7_differential_tests():
    """Cancelling pairs, deck relabeling, and the direct-count route agree."""
    ok = True
    for i, p in enumerate(_sweep_presentations((2, 4, 6, 8), 100, max_clasps=4)):
        template = ClaspSpec(
            slot=max((c.slot for c in p.clasps), default=0) + 1,
            gap_enter=i % (p.n + 1),
            gap_exit=(i * 3) % (p.n + 1),
            weave=_mirrored(i, abs((i * 3) % (p.n + 1) - i % (p.n + 1))),
            clasp_sign=1 if i % 2 == 0 else -1,
            framing=1 if i % 3 else -1,
        )
        doubled = add_cancelling_pair(p, template)
        ok = ok and verdict(p, 2).linkings == verdict(doubled, 2).linkings
    for p in _sweep_presentations((6, 8), 20):
        checks = {c.name: c.passed for c in cross_checks(p)}
        ok = ok and all(
            passed for name, passed in checks.items() if name.startswith("deck-relabel")
        )
    for n in (2, 4, 6, 8, 10, 12):
        p = ClaspPresentation(n, ())
        direct = lifted_eta_linkings(build_cover(cable_template(n), 2))[(0, 1)]
        ok = ok and verdict(p, 2).linkings[0] == direct
    _report("7 differential tests (cancelling pair, deck relabel, dual route)", ok)


def _mirrored(seed: int, d: int) -> str:
    import random

    rng = random.Random(("weave", seed).__repr__())
    flags = "".join(rng.choice("ou") for _ in range(d))
    return flags + flags[::-1]


def test_criterion_8_normalizer():
    """100 seeded winding-6 words: downhill, tight wrapping, Obstructed."""
    ok = True
    for seed in range(100):
        word = random_annular_word(6, SEED + seed)
        downhill, _ = force_downhill(word)
        ok = ok and is_downhill(downhill)
        reduced = reduce_returning(downhill)
        comp = analyze(reduced).components[0]
        ok = ok and comp.wrapping == abs(comp.winding)
        result = normalize(word)
        ok = ok and auto_verdict(result.presentation, (2,)).aggregate == "Obstructed"
    _report("8 normalizer (downhill, wrapping = winding, end-to-end Obstructed)", ok)
