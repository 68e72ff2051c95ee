"""Surgery formula, branched linkings, verdicts, and the check ledger."""

import json
import random
from fractions import Fraction

import pytest

import coverlink.obstruct
from coverlink.cover import LiftedData, build_cover, lifted_linking_matrix
from coverlink.linalg import IntMatrix, block_circulant_split, det, inverse, order_in_quotient
from coverlink.obstruct import (
    FramedLinkingMatrix,
    NotRationalHomologySphereError,
    auto_verdict,
    branched_linkings,
    cha_ko,
    cross_checks,
    format_rational,
    report_to_dict,
    report_to_json,
    verdict,
)
from coverlink.pattern import ClaspPresentation, ClaspSpec, random_presentation
from coverlink.pattern import compile as compile_presentation

W8 = ClaspPresentation(
    8,
    (
        ClaspSpec(0, 1, 3, "oooo", 1, -1),
        ClaspSpec(1, 1, 4, "oooooo", 1, -1),
        ClaspSpec(2, 2, 5, "oooooo", 1, -1),
        ClaspSpec(3, 1, 5, "oooooooo", 1, -1),
    ),
    name="w8-mixed-sign",
)


def test_cha_ko_empty_surgery():
    assert cha_ko(Fraction(3), IntMatrix.zeros(0, 0), [], []) == 3


def test_cha_ko_blow_down_oracle():
    # Two meridians of a +1-framed unknot acquire linking -1 after the twist.
    a = IntMatrix.from_rows([[1]])
    assert cha_ko(0, a, [1], [1]) == -1


def test_cha_ko_singular_rejected():
    with pytest.raises(NotRationalHomologySphereError):
        cha_ko(0, IntMatrix.from_rows([[1, 1], [1, 1]]), [1, 0], [0, 1])


def test_cha_ko_two_block_structural_identity():
    # x = (v, -v), y = (-v, v), A = [[B, C], [C, B]]: the correction is
    # 2 v^T (G - F) v where the inverse has blocks [[F, G], [G, F]].
    rng = random.Random(3)
    found = 0
    while found < 15:
        s = rng.choice([1, 2, 3])
        b = [[rng.randint(-3, 3) for _ in range(s)] for _ in range(s)]
        c = [[rng.randint(-3, 3) for _ in range(s)] for _ in range(s)]
        for i in range(s):
            for j in range(i):
                b[i][j] = b[j][i]
                c[i][j] = c[j][i]
        rows = [b[i] + c[i] for i in range(s)] + [c[i] + b[i] for i in range(s)]
        a = IntMatrix.from_rows(rows)
        if det(a) == 0:
            continue
        found += 1
        v = [rng.randint(-3, 3) for _ in range(s)]
        x = v + [-t for t in v]
        y = [-t for t in v] + v
        base = Fraction(rng.randint(-5, 5))
        f_blk, g_blk = block_circulant_split(inverse(a), 2)
        expected = base - 2 * sum(
            v[i] * (g_blk[i, j] - f_blk[i, j]) * v[j] for i in range(s) for j in range(s)
        )
        assert cha_ko(base, a, x, y) == expected


def _reference_linkings(p, m):
    """Linkings, |H1| and eta order from a full inverse and the Smith normal form."""
    data = lifted_linking_matrix(build_cover(compile_presentation(p), m))
    a, x = data.matrix, data.eta_vs_surgery[0]
    inv = inverse(a)
    linkings = tuple(
        data.eta_linkings[(0, k)]
        - sum(x[i] * inv[i, j] * data.eta_vs_surgery[k][j]
              for i in range(a.rows) for j in range(a.rows))
        for k in range(1, m)
    )
    return linkings, abs(det(a)), order_in_quotient(a, list(x))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
def test_branched_linkings_match_inverse_reference(m):
    for seed in range(20):
        p = random_presentation(m * (1 + seed % 2), 1 + seed % 4, seed)
        rep = branched_linkings(p, m)
        assert (rep.linkings, rep.h1_order, rep.eta_order) == _reference_linkings(p, m)


def test_branched_linkings_eta_order_is_lcm_of_denominators(monkeypatch):
    # Seeded presentations all have |H1| = 1, so the verdict path gets a lift
    # with A = diag(3, 5) and x = (1, 1): z = (1/3, 1/5), eta order 15.
    a = IntMatrix.from_rows([[3, 0], [0, 5]])
    lifted = LiftedData(3, ("L1^1", "L1^2"), a, ((1, 1), (0, 0), (0, 0)),
                        {(0, 1): Fraction(0), (0, 2): Fraction(0)})
    monkeypatch.setattr(coverlink.obstruct, "lifted_linking_matrix", lambda cd: lifted)
    rep = branched_linkings(ClaspPresentation(3, ()), 3)
    assert (rep.h1_order, rep.eta_order) == (15, 15) == (det(a), order_in_quotient(a, [1, 1]))


def test_framed_matrix_requires_symmetry():
    with pytest.raises(ValueError):
        FramedLinkingMatrix(IntMatrix.from_rows([[0, 1], [2, 0]]), ("a", "b"))


def test_branched_linkings_cable_goldens():
    assert branched_linkings(ClaspPresentation(6, ()), 2).linkings == (Fraction(3),)
    rep = branched_linkings(ClaspPresentation(8, ()), 4)
    assert rep.linkings == (Fraction(2),) * 3
    assert rep.h1_order == 1


def test_branched_linkings_parity_property():
    for seed in range(12):
        n = random.Random(seed).choice([2, 4, 6, 8])
        p = random_presentation(n, (seed % 5) + 1, seed)
        rep = branched_linkings(p, 2)
        val = (rep.linkings[0] - Fraction(n, 2)) * rep.h1_order
        assert val.denominator == 1 and int(val) % 2 == 0
        assert rep.h1_order % 2 == 1


def test_verdict_cable6_obstructed():
    rep = verdict(ClaspPresentation(6, (), name="cable-6"), 2)
    assert rep.verdict == "Obstructed"
    assert rep.linkings == (Fraction(3),)
    assert rep.h1_order == 1


def test_verdict_w8_inconclusive_everywhere():
    for m, want in ((2, (0,)), (4, (0, 0, 0)), (8, (1, 0, -1, -1, -1, 0, 1))):
        rep = verdict(W8, m)
        assert rep.verdict == "Inconclusive"
        assert rep.linkings == tuple(Fraction(x) for x in want)


def test_verdict_not_applicable_composite_m():
    rep = verdict(ClaspPresentation(6, ()), 6)
    assert rep.verdict == "NotApplicable"
    assert rep.linkings == (Fraction(1),) * 5  # computed but not used


def test_verdict_not_applicable_non_divisor():
    rep = verdict(ClaspPresentation(6, ()), 4)
    assert rep.verdict == "NotApplicable"
    assert rep.linkings == ()


def test_verdict_odd_prime_power():
    rep = verdict(ClaspPresentation(6, ()), 3)
    assert rep.verdict == "Obstructed"
    assert rep.linkings == (Fraction(2), Fraction(2))


def test_verdict_condition2_zero_vector_reason():
    rep = verdict(W8, 2)
    assert not rep.condition2
    assert "all zero" in rep.condition2_reason


def test_auto_verdict_default_degrees():
    agg = auto_verdict(random_presentation(12, 3, 5))
    assert [r.m for r in agg.per_m] == [2, 4]
    assert agg.aggregate == "Obstructed"


def test_auto_verdict_w8_inconclusive():
    agg = auto_verdict(W8, (2, 4, 8))
    assert agg.aggregate == "Inconclusive"


def test_cross_checks_all_pass():
    for seed in (0, 5, 9):
        checks = cross_checks(random_presentation(8, (seed % 3) + 1, seed))
        failed = [c.name for c in checks if not c.passed]
        assert not failed, failed


def test_cross_checks_cable_values():
    checks = {c.name: c for c in cross_checks(ClaspPresentation(8, ()))}
    assert checks["two-vs-four-doubling"].passed
    assert checks["direct-count-m2"].passed


def test_report_json_schema_and_determinism():
    p = random_presentation(4, 2, 8)
    a = report_to_json(auto_verdict(p))
    b = report_to_json(auto_verdict(p))
    assert a == b  # byte-identical on identical inputs
    doc = json.loads(a)
    assert set(doc) == {"pattern", "n", "per_m", "aggregate"}
    row = doc["per_m"][0]
    assert set(row) == {
        "m",
        "linkings",
        "h1",
        "eta_order",
        "condition1",
        "condition2",
        "verdict",
        "checks",
    }
    assert all(set(c) == {"name", "pass", "detail"} for c in row["checks"])
    assert all(isinstance(v, str) for v in row["linkings"])


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 5)) == "-7/5"


def test_na_rows_keep_schema_keys():
    doc = report_to_dict(auto_verdict(ClaspPresentation(6, ()), (4,)))
    row = doc["per_m"][0]
    assert row["verdict"] == "NotApplicable"
    assert row["linkings"] == [] and row["h1"] == 0 and row["eta_order"] == 0
