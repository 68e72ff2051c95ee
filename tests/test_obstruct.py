"""Surgery formula, branched linkings, verdicts, and the check ledger."""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import coverlink.diagram
import coverlink.obstruct
import coverlink.pattern
from coverlink.cli import main
from coverlink.cover import (
    LiftedData,
    build_cover,
    lift_data,
    lifted_eta_linkings,
    lifted_linking_matrix,
)
from coverlink.diagram import WordAnalysis, analyze
from coverlink.downhill import normalize, random_annular_word
from coverlink.linalg import IntMatrix, det, inverse, order_in_quotient
from coverlink.obstruct import (
    _INVARIANTS,
    _linkings_from_data,
    AggregateReport,
    CheckResult,
    InvariantViolationError,
    NotRationalHomologySphereError,
    PatternValidationError,
    auto_verdict,
    cha_ko,
    cross_checks,
    format_rational,
    ObstructionReport,
    report_to_dict,
    report_to_json,
    verdict,
)
from coverlink.pattern import (
    ClaspPresentation,
    ClaspSpec,
    parse,
    random_presentation,
    serialize,
    validate,
)
from coverlink.pattern import compile as compile_presentation
from oracles import (
    block_circulant_split,
    clasp_calculus,
    cover_eta_rows,
    per_k_linkings,
    report_json,
    twist_surgery_pairs,
)
from test_linalg import _pivoting_block_diagonal, square_and_vector

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
            v[i] * (g_blk[i][j] - f_blk[i][j]) * v[j] for i in range(s) for j in range(s)
        )
        assert cha_ko(base, a, x, y) == expected


@given(
    st.one_of(square_and_vector, _pivoting_block_diagonal()),
    st.lists(st.integers(-9, 9), min_size=12, max_size=12),
    st.fractions(max_denominator=9),
)
@settings(max_examples=200, deadline=None)
def test_cha_ko_matches_sympy_with_blocks_and_pivot_swaps(ay, xs, base):
    # Coupled blocks, zero leading pivots and singular blocks, against sympy's inverse.
    a, y = ay
    x = xs[: a.rows]
    ref = sympy.Matrix(a.to_rows())
    if ref.det() == 0:
        with pytest.raises(NotRationalHomologySphereError):
            cha_ko(base, a, x, y)
        return
    want = sympy.Rational(base.numerator, base.denominator) - (
        sympy.Matrix([x]) * ref.inv() * sympy.Matrix(y)
    )[0]
    assert cha_ko(base, a, x, y) == Fraction(int(want.p), int(want.q))


def _reference_linkings(word, m):
    """Linkings, |H1| and eta order from a full inverse and the Smith normal form."""
    cd = build_cover(word, m)
    a, eta_lks, rows = lifted_linking_matrix(cd).matrix, lifted_eta_linkings(cd), cover_eta_rows(cd)
    x = rows[0]
    inv = inverse(a)
    linkings = tuple(
        eta_lks[(0, k)]
        - sum(x[i] * inv[i][j] * rows[k][j] for i in range(a.rows) for j in range(a.rows))
        for k in range(1, m)
    )
    return linkings, abs(det(a)), order_in_quotient(a, list(x))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
def test_branched_linkings_match_inverse_reference(m):
    for seed in range(20):
        p = random_presentation(m * (1 + seed % 2), 1 + seed % 4, seed)
        rep = verdict(p, m)
        want = _reference_linkings(compile_presentation(p), m)
        assert (rep.linkings, rep.h1_order, rep.eta_order) == want


def test_linkings_from_twisted_lifts_match_inverse_reference():
    # Every seeded compiled word lifts to a diagonal matrix; full twists
    # between surgery curves couple the lifts, so the solve meets real blocks.
    coupled = 0
    for seed in range(12):
        p = random_presentation(8, 2 + seed % 3, seed)
        word = twist_surgery_pairs(compile_presentation(p), random.Random(seed), 4)
        for m in (2, 4, 8):
            data = lift_data(word, m)
            a = data.matrix
            coupled += any(a[i, j] for i in range(a.rows) for j in range(a.rows) if i != j)
            linkings, order = _linkings_from_data(data, m)
            want, _h1, want_order = _reference_linkings(word, m)
            assert (linkings, order) == (want, want_order), (seed, m)
    assert coupled


def _block_circulant(m, blocks):
    """The lift-major matrix whose (sheet x, sheet x + d) block is ``blocks[d]``."""
    k = len(blocks[0])
    rows = [[0] * (k * m) for _ in range(k * m)]
    for x in range(m):
        for d, block in enumerate(blocks):
            for p in range(k):
                for q in range(k):
                    rows[x * k + p][(x + d) % m * k + q] = block[p][q]
    return IntMatrix.from_rows(rows)


def test_linkings_from_data_coupled_block_and_unit_blocks():
    # Two curves over three sheets. L1 has framing 2 and links each of its
    # other lifts once, so its lifts 0, 2, 4 form the coupled circulant block
    # [[2, 1, 1], [1, 2, 1], [1, 1, 2]] (det 4); L2's lifts 1, 3, 5 are blocks
    # of framing 5. With eta_row x = (1, 1, 0, 0, 0, 0),
    # z = (3/4, 1/5, -1/4, 0, -1/4, 0): eta order 20; lift 1's row
    # (0, 0, 1, 1, 0, 0) and lift 2's (0, 0, 0, 0, 1, 1) both give z.y = -1/4.
    a = _block_circulant(3, ([[2, 0], [0, 5]], [[1, 0], [0, 0]], [[1, 0], [0, 0]]))
    lifted = LiftedData(a, (1, 1, 0, 0, 0, 0), (0, 1, 1))
    linkings, order = _linkings_from_data(lifted, 3)
    assert linkings == (Fraction(5, 4), Fraction(5, 4))
    assert order == 20 == order_in_quotient(a, [1, 1, 0, 0, 0, 0])


def test_branched_linkings_eta_order_is_lcm_of_denominators(monkeypatch):
    # Seeded presentations all have |H1| = 1, so the verdict path gets a lift
    # with A = diag(3, 5) in each of three sheets and x = (1, 1) in sheet 0:
    # z = (1/3, 1/5, 0, 0, 0, 0), eta order 15.
    a = _block_circulant(3, ([[3, 0], [0, 5]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]))
    x = (1, 1, 0, 0, 0, 0)
    lifted = LiftedData(a, x, (0, 0, 0))
    monkeypatch.setattr(coverlink.obstruct, "lift_data", lambda word, m: lifted)
    rep = verdict(ClaspPresentation(3, ()), 3)
    assert (rep.h1_order, rep.eta_order) == (3375, 15) == (det(a), order_in_quotient(a, list(x)))


def test_verdict_degree_eliminates_a_coupled_matrix_once_for_det_and_once_to_solve(monkeypatch):
    # Three curves over three sheets: L1 and L2 link once in each sheet, so
    # {0, 1}, {3, 4} and {6, 7} are coupled blocks [[2, 1], [1, 2]] (det 3);
    # L3's lifts {2}, {5}, {8} are 1x1 of framing 5. The matrix is not
    # diagonal, so det and the solve each eliminate all of it once:
    # z = (2/3, -1/3, 1/5, 0, 0, 1/5, 0, 0, 0), eta order 15, and the rows
    # (0, 0, 0, 1, 0, 1, 0, 0, 1) and (0, 0, 1, 0, 0, 0, 1, 0, 1) of eta
    # lifts 1 and 2 both give z.y = 1/5.
    import coverlink.linalg

    zero = [[0] * 3] * 3
    a = _block_circulant(3, ([[2, 1, 0], [1, 2, 0], [0, 0, 5]], zero, zero))
    lifted = LiftedData(a, (1, 0, 1, 0, 0, 1, 0, 0, 0), (0, 2, 2))
    monkeypatch.setattr(coverlink.obstruct, "lift_data", lambda word, m: lifted)
    eliminated = []
    eliminate = coverlink.linalg._eliminate
    monkeypatch.setattr(
        coverlink.linalg, "_eliminate", lambda rows, n: eliminated.append(n) or eliminate(rows, n)
    )
    rep = verdict(ClaspPresentation(3, ()), 3)
    assert eliminated == [9, 9]
    assert (rep.h1_order, rep.eta_order) == (3375, 15)
    assert rep.linkings == (2 - Fraction(1, 5),) * 2


# One planted failure per row of the invariant table, on the (m,1)-cable at
# degree m: (row, m, name in coverlink.obstruct to stub, stub).
_VIOLATIONS = [
    # A non-palindromic vector at m = 3.
    ("linkings-palindromic", 3, "_linkings_from_data",
     lambda data, m: ((Fraction(1), Fraction(2)), 1)),
    # A lifted matrix with even det at m = 2: A = diag(2, 2), so |H1| = 4.
    ("h1-odd", 2, "lift_data",
     lambda word, m: LiftedData(IntMatrix.from_rows([[2, 0], [0, 2]]), (0, 0), (0, 1))),
    # An odd parity value at m = 2, n = 2, with |H1| = 1: (2 - 1) * 1 = 1.
    ("parity-m2", 2, "_linkings_from_data", lambda data, m: ((Fraction(2),), 1)),
]


def test_every_invariant_row_has_a_violation_case():
    assert [row for row, *_ in _VIOLATIONS] == [name.format(m=2) for name, _, _ in _INVARIANTS]


@pytest.mark.parametrize("row, m, target, stub", _VIOLATIONS, ids=[v[0] for v in _VIOLATIONS])
def test_invariant_violation_raises_and_exits_3(monkeypatch, tmp_path, capsys, row, m, target, stub):
    monkeypatch.setattr(coverlink.obstruct, target, stub)
    p = ClaspPresentation(m, (), name=f"cable-{m}")
    with pytest.raises(InvariantViolationError, match=f"^{row} fails at m={m}: "):
        auto_verdict(p, (m,))
    path = tmp_path / "cable.pattern"
    path.write_text(serialize(p), encoding="utf-8")
    assert main(["obstruct", str(path), "--m-list", str(m)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: ") and row in err


def test_cross_checks_record_a_failed_invariant_row(monkeypatch, tmp_path, capsys):
    # The verdict raises on the odd parity value; the ledger records it as failed.
    stub = lambda data, m, preferred=0: ((2,), 1)  # noqa: E731
    monkeypatch.setattr(coverlink.obstruct, "_linkings_from_data", stub)
    p = ClaspPresentation(2, (), name="cable-2")
    checks = cross_checks(p)
    assert [c.name for c in checks[:3]] == ["linkings-palindromic", "h1-odd", "parity-m2"]
    assert [c.passed for c in checks[:3]] == [True, True, False]
    assert checks[2].detail == "(lk - 1)*|H1| = 1"
    path = tmp_path / "cable.pattern"
    path.write_text(serialize(p), encoding="utf-8")
    assert main(["obstruct", str(path), "--m-list", "2"]) == 3
    assert capsys.readouterr().err.startswith("invariant violation: parity-m2 fails at m=2: ")


def test_cross_checks_record_a_nonzero_sheet_sum(monkeypatch):
    # One curve over two sheets whose lifts link eta_0 once and not at all:
    # its sheet sum is 1, where validation makes the base linking 0. Every
    # other row still passes, as deck rotation keeps the linkings at (1,).
    lifted = LiftedData(IntMatrix.from_rows([[1, 0], [0, 1]]), (1, 0), (0, 1))
    monkeypatch.setattr(coverlink.obstruct, "lift_data", lambda word, m: lifted)
    checks = cross_checks(ClaspPresentation(2, (), name="cable-2"))
    assert [(c.name, c.detail) for c in checks if not c.passed] == [
        ("vector-shape-m2", "sheet sums (1,)")
    ]


def test_cross_checks_record_a_mis_shifted_row_read(monkeypatch):
    # Reads eta lift j's row shifted by j lifts rather than by j sheets.
    real = _linkings_from_data

    def misread(data, m, preferred=0):
        row = data.eta_row
        return real(data._replace(eta_row=row[preferred:] + row[:preferred]), m)

    monkeypatch.setattr(coverlink.obstruct, "_linkings_from_data", misread)
    checks = cross_checks(random_presentation(8, 2, 1))
    assert [c.name for c in checks if not c.passed] == [
        "deck-relabel-m2", "deck-relabel-m4", "deck-relabel-m8"
    ]


def test_cross_checks_check_the_vector_shape_at_every_degree():
    names = [c.name for c in cross_checks(random_presentation(8, 2, 1))]
    assert [n for n in names if n.startswith("vector-shape")] == [
        "vector-shape-m2", "vector-shape-m4", "vector-shape-m8"
    ]
    assert not [n for n in (c.name for c in cross_checks(ClaspPresentation(8, ()))) if "shape" in n]


@pytest.mark.parametrize(
    "m, bump, failed",
    [
        # Palindromic bumps of one degree's linkings keep that degree's own rows
        # and deck relabelling; only the transfer rows that read it can fail.
        (8, (1, 0, 0, 0, 0, 0, 1), ["transfer-m2-m8", "transfer-m4-m8"]),
        (8, (0, 1, 0, 0, 0, 1, 0), ["transfer-m4-m8"]),
        (2, (2,), ["two-vs-four-doubling", "transfer-m2-m8"]),
    ],
    ids=["m8-odd-k", "m8-k-2-mod-4", "m2"],
)
def test_cross_checks_record_a_broken_transfer(monkeypatch, m, bump, failed):
    real = _linkings_from_data

    def bumped(data, degree, preferred=0):
        linkings, order = real(data, degree, preferred)
        if degree == m:
            linkings = tuple(v + b for v, b in zip(linkings, bump))
        return linkings, order

    monkeypatch.setattr(coverlink.obstruct, "_linkings_from_data", bumped)
    checks = cross_checks(random_presentation(8, 2, 1))
    assert [c.name for c in checks if not c.passed] == failed


def test_cross_checks_check_the_transfer_at_every_divisor_pair():
    def transfer_rows(p):
        rows = ("two-vs-four-doubling", "transfer-")
        return [(c.name, c.detail) for c in cross_checks(p) if c.name.startswith(rows)]

    assert transfer_rows(ClaspPresentation(8, ())) == [
        ("two-vs-four-doubling", "lk_2 = 4, 2*lk_4(adjacent) = 4"),
        ("transfer-m2-m8", "lk_2 = (4), sums (4)"),
        ("transfer-m4-m8", "lk_4 = (2, 2, 2), sums (2, 2, 2)"),
    ]
    assert [name for name, _ in transfer_rows(random_presentation(4, 2, 1))] == [
        "two-vs-four-doubling"
    ]
    # Every pair d | m of degrees dividing n, up to m = 16, odd degrees too.
    assert transfer_rows(random_presentation(6, 2, 1)) == [
        ("transfer-m2-m6", "lk_2 = (-1), sums (-1)"),
        ("transfer-m3-m6", "lk_3 = (0, 0), sums (0, 0)"),
    ]
    assert [name for name, _ in transfer_rows(random_presentation(24, 3, 2))] == [
        "two-vs-four-doubling",
        "transfer-m2-m6", "transfer-m3-m6",
        "transfer-m2-m8", "transfer-m4-m8",
        "transfer-m2-m12", "transfer-m3-m12", "transfer-m4-m12", "transfer-m6-m12",
    ]
    assert [name for name, _ in transfer_rows(ClaspPresentation(32, ()))][-3:] == [
        "transfer-m2-m16", "transfer-m4-m16", "transfer-m8-m16"
    ]
    assert transfer_rows(ClaspPresentation(9, ())) == [
        ("transfer-m3-m9", "lk_3 = (3, 3), sums (3, 3)")
    ]
    assert transfer_rows(ClaspPresentation(34, ())) == transfer_rows(ClaspPresentation(7, ())) == []


@pytest.mark.parametrize("n, m", [(6, 3), (9, 3), (12, 6), (16, 16)])
def test_cross_checks_record_a_broken_transfer_at_every_divisor_pair(monkeypatch, n, m):
    # A palindromic bump of degree m's linkings fails exactly the transfer rows that read m.
    real = _linkings_from_data

    def bumped(data, degree, preferred=0):
        linkings, order = real(data, degree, preferred)
        if degree == m:
            linkings = (linkings[0] + 1, *linkings[1:-1], linkings[-1] + 1)
        return linkings, order

    monkeypatch.setattr(coverlink.obstruct, "_linkings_from_data", bumped)
    failed = [c.name for c in cross_checks(random_presentation(n, 2, 5)) if not c.passed]
    divisors = [d for d in range(2, 17) if n % d == 0]
    want = [
        "two-vs-four-doubling" if (d, e) == (2, 4) else f"transfer-m{d}-m{e}"
        for e in divisors
        for d in divisors
        if d < e and e % d == 0 and m in (d, e)
    ]
    assert want and failed == want



def _lifted_samples():
    """Lift data of seeded presentations at small degrees, and planted data of eta order > 1."""
    for n in (2, 3, 4, 6, 8, 9, 12, 16):
        for k in range(5):
            for seed in range(3):
                word = compile_presentation(random_presentation(n, k, seed))
                for m in (2, 3, 4, 8, 16):
                    if n % m == 0:
                        yield lift_data(word, m), m, "compiled"
    # Framings other than +-1 (never compiled) leave fractional linkings behind.
    yield LiftedData(IntMatrix(2, 2, {(0, 0): 3, (1, 1): 3}), (1, -1), (2, 1)), 2, "planted"
    diagonal = IntMatrix(3, 3, {(0, 0): -5, (1, 1): 2, (2, 2): 7})
    yield LiftedData(diagonal, (1, 0, -2), (0, 1, 1)), 3, "planted"
    coupled = {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 2, (2, 2): -1, (3, 3): 4}
    yield LiftedData(IntMatrix(4, 4, coupled), (1, 2, 0, -1), (0, 3, 3, 3)), 4, "planted"
    unit = IntMatrix(4, 4, {(i, i): 1 for i in range(4)})
    yield LiftedData(unit, (2, 0, -2, 0), (1, 0, 0, 0)), 4, "planted"


def test_linkings_match_the_per_k_fraction_oracle():
    # One rotation of the eta row per k gives the old Fraction values, as ints at order 1.
    orders: dict[str, set[int]] = {"compiled": set(), "planted": set()}
    for data, m, kind in _lifted_samples():
        for preferred in range(m):
            got, order = _linkings_from_data(data, m, preferred)
            want, want_order = per_k_linkings(data, m, preferred)
            assert (got, order) == (want, want_order), (data, m, preferred)
            assert [type(v) is int for v in got] == [order == 1] * (m - 1)
            assert list(map(format_rational, got)) == list(map(format_rational, want))
            orders[kind].add(order)
    assert orders == {"compiled": {1}, "planted": {1, 3, 4, 6, 7, 10, 12, 35}}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_cross_checks_record_a_broken_mod8_theorem(monkeypatch, n):
    # An even eta order at every degree fails condition (1) at m = 2 and 4,
    # and a cable's linkings are not all 0: only the theorem's row can fail.
    real = _linkings_from_data

    def even_order(data, m, preferred=0):
        return real(data, m, preferred)[0], 2

    monkeypatch.setattr(coverlink.obstruct, "_linkings_from_data", even_order)
    checks = cross_checks(ClaspPresentation(n, ()))
    assert [c.name for c in checks if not c.passed] == ["hedden-mod8"]
    degrees = ", ".join(f"m{m} Inconclusive" for m in (2, 4) if n % m == 0)
    assert [c.detail for c in checks if c.name == "hedden-mod8"] == [degrees]


@pytest.mark.parametrize("n, passed", [(4, False), (8, True)])
def test_cross_checks_excuse_all_zero_linkings_only_when_8_divides_n(monkeypatch, n, passed):
    zero = lambda data, m, preferred=0: ((0,) * (m - 1), 1)  # noqa: E731
    monkeypatch.setattr(coverlink.obstruct, "_linkings_from_data", zero)
    rows = [c for c in cross_checks(ClaspPresentation(n, ())) if c.name == "hedden-mod8"]
    detail = "m2 Inconclusive, m4 Inconclusive, all linkings 0"
    assert [(c.passed, c.detail) for c in rows] == [(passed, detail)]


def test_cross_checks_hold_the_mod8_theorem_on_random_and_normalized_inputs():
    inputs = [
        (n, s, random_presentation(n, k, s))
        for n in range(2, 33, 2)
        for k in range(5)
        for s in range(4)
    ]
    inputs += [
        (n, s, normalize(random_annular_word(n, s)).presentation)
        for n in (4, 6, 8, 12, 16, 24)
        for s in range(60)
    ]
    rows = [(n, s, c) for n, s, p in inputs for c in cross_checks(p) if c.name == "hedden-mod8"]
    assert len(rows) == 680 and all(c.passed for _n, _s, c in rows)
    # Inconclusive at both degrees happens only at 8 | n, with every linking 0.
    zero = "m2 Inconclusive, m4 Inconclusive, all linkings 0"
    assert [(n, s, c.detail) for n, s, c in rows if "Obstructed" not in c.detail] == [
        (8, 28, zero), (8, 30, zero), (24, 30, zero)
    ]

def test_verdict_path_never_densifies(monkeypatch):
    def dense(*_args):
        raise AssertionError("the verdict path asked for a dense matrix")

    monkeypatch.setattr(IntMatrix, "to_rows", dense)
    for n, k, m in ((8, 8, 8), (64, 16, 64), (128, 32, 128)):
        rep = auto_verdict(random_presentation(n, k, 0), (m,)).per_m[0]
        assert rep.h1_order == 1 and len(rep.linkings) == m - 1
    # N = 4,096: the lifted matrix is diag(+-1), stored as its N nonzeros.
    a = lift_data(compile_presentation(random_presentation(128, 32, 0)), 128).matrix
    off_diagonal = sum(i != j for i, j in a.nonzeros)
    assert a.rows == 4096 and len(a.nonzeros) <= a.rows + off_diagonal
    assert off_diagonal == 0 and set(a.nonzeros.values()) <= {-1, 1}


def test_verdict_path_solves_the_benchmark_shapes_without_elimination(monkeypatch):
    # Every presentation the benchmark's workloads send lifts to a diagonal
    # matrix, which det and the solve read in place: the ladder rungs
    # (n, k, m), the sweep's windings 2..12 with a degree in {2, 3, 4} and
    # up to 4 clasps, and normalized annular words of winding 4 and 6.
    import coverlink.linalg

    def eliminate(*_args):
        raise AssertionError("the verdict path eliminated a matrix")

    monkeypatch.setattr(coverlink.linalg, "_eliminate", eliminate)
    runs = [
        (random_presentation(n, k, s), (m,))
        for n, k, m in ((8, 4, 8), (8, 8, 8), (16, 4, 16))
        for s in range(3)
    ]
    runs += [
        (random_presentation(n, k, s), degrees)
        for n in range(2, 13)
        if (degrees := tuple(m for m in (2, 3, 4) if n % m == 0))
        for k in range(5)
        for s in range(3)
    ]
    runs += [
        (normalize(random_annular_word(n, s)).presentation, (2,))
        for n in (4, 6)
        for s in range(20)
    ]
    reports = [r for p, ms in runs for r in auto_verdict(p, ms).per_m]
    assert len(runs) == 169 and all(r.h1_order == 1 for r in reports)


def test_full_twists_couple_the_lifts(monkeypatch):
    # Full twists couple the lifts into blocks of up to 16 at m = 8, which
    # det and the solve eliminate whole.
    p = random_presentation(8, 3, 4)
    word = twist_surgery_pairs(compile_presentation(p), random.Random(4), 4)
    monkeypatch.setattr(coverlink.obstruct, "_checked_word", lambda q: word)
    assert [r.h1_order for r in auto_verdict(p, (2, 4, 8)).per_m] == [85, 10285, 109113565]


def test_branched_linkings_cable_goldens():
    assert verdict(ClaspPresentation(6, ()), 2).linkings == (Fraction(3),)
    rep = verdict(ClaspPresentation(8, ()), 4)
    assert rep.linkings == (Fraction(2),) * 3
    assert rep.h1_order == 1


def test_branched_linkings_parity_property():
    for seed in range(12):
        n = random.Random(seed).choice([2, 4, 6, 8])
        p = random_presentation(n, (seed % 5) + 1, seed)
        rep = verdict(p, 2)
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


def _count_compiles(monkeypatch) -> list:
    """Record every presentation ``coverlink.pattern.compile`` is called on."""
    seen = []
    real = coverlink.pattern.compile

    def counting(p):
        seen.append(p)
        return real(p)

    monkeypatch.setattr(coverlink.pattern, "compile", counting)
    return seen


def test_auto_verdict_compiles_once_across_degrees(monkeypatch):
    compiled = _count_compiles(monkeypatch)
    cable = ClaspPresentation(64, (), name="cable-64")
    agg = auto_verdict(cable, (2, 4, 8, 16, 32, 64))
    assert compiled == [cable]
    assert [r.verdict for r in agg.per_m] == ["Obstructed"] * 6
    compiled.clear()
    agg = auto_verdict(cable, (3, 5, 7, 9))
    assert compiled == []
    assert agg.aggregate == "NotApplicable"


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_auto_verdict_equals_per_degree_verdicts(n):
    # Folded degrees, in any order and repeated, read as their own lifts do.
    for ms in ((3, 2, 5, 4, 8, 6, 9, 12), (8, 2, 4, 2), (4, 2, 2)):
        for k in range(4):
            for seed in range(3):
                p = random_presentation(n, k, seed)
                agg = auto_verdict(p, ms)
                assert agg.per_m == [verdict(p, m) for m in ms]
                assert [r.m for r in agg.per_m] == list(ms)


@pytest.mark.parametrize("n", [64, 96, 128, 192, 256, 384, 512])
def test_auto_verdict_equals_per_degree_verdicts_on_cables(n):
    p = ClaspPresentation(n, (), name=f"cable-{n}")
    ms = [m for m in range(2, n + 1) if n % m == 0 and coverlink.obstruct._prime_power(m)]
    agg = auto_verdict(p, ms)
    assert agg.per_m == [verdict(p, m) for m in ms]
    assert report_to_json(agg) == report_json(agg)


def test_verdict_and_cross_checks_lift_every_degree_themselves(monkeypatch):
    # The transfer rows compare per-degree lifts, so they check the fold only
    # while no per-degree report is folded.
    def no_fold(data, m):
        raise AssertionError("a per-degree report folded its lifted data")

    monkeypatch.setattr(coverlink.obstruct, "_fold", no_fold)
    presentations = (ClaspPresentation(16, ()), random_presentation(16, 3, 0))
    for p in (*presentations, random_presentation(12, 2, 1)):
        assert [verdict(p, m).m for m in (2, 4, 8, 16, 3)] == [2, 4, 8, 16, 3]
        checks = cross_checks(p)
        assert checks and all(c.passed for c in checks), [c for c in checks if not c.passed]
        assert any(c.name.startswith("transfer-") for c in checks)
    with pytest.raises(AssertionError, match="folded"):
        auto_verdict(ClaspPresentation(16, ()), (2, 4))


def test_auto_verdict_error_precedence(monkeypatch):
    bad = ClaspPresentation(4, (ClaspSpec(0, 1, 3, "oouu", 1, 1),))
    compiled = _count_compiles(monkeypatch)
    with pytest.raises(ValueError):  # a bad degree surfaces before validation
        auto_verdict(bad, (1, 2))
    assert compiled == []
    for ms in ((3, 2), (2, 1)):
        with pytest.raises(PatternValidationError):
            auto_verdict(bad, ms)
        with pytest.raises(PatternValidationError):
            verdict(bad, 2)
    # A good presentation still raises at m = 1 after earlier degrees ran.
    with pytest.raises(ValueError):
        auto_verdict(ClaspPresentation(4, ()), (2, 1))


@pytest.mark.parametrize("p", [ClaspPresentation(8, ()), random_presentation(8, 2, 3)])
def test_cross_checks_compile_the_presentation_and_its_cancelling_pair(monkeypatch, p):
    compiled = _count_compiles(monkeypatch)
    checks = cross_checks(p)
    assert all(c.passed for c in checks)
    assert [q.clasps[: len(p.clasps)] for q in compiled] == [p.clasps, p.clasps]
    assert [len(q.clasps) for q in compiled] == [len(p.clasps), len(p.clasps) + 2]


def test_cross_checks_compile_nothing_without_a_divisor_pair(monkeypatch):
    # No degree 2, 4 or 8 and no transfer pair: no row, so nothing to compile.
    compiled = _count_compiles(monkeypatch)
    for n in (7, 25):  # 25's only degree up to 16 is 5
        assert cross_checks(ClaspPresentation(n, ())) == []
    assert compiled == []
    # A transfer pair alone compiles the word once.
    nine = ClaspPresentation(9, ())
    assert [c.name for c in cross_checks(nine)] == ["transfer-m3-m9"] and compiled == [nine]


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



def _reports_to_write():
    corpus = Path(__file__).resolve().parents[1] / "corpus"
    for f in sorted(corpus.glob("*.pattern")):
        p = parse(f.read_text(encoding="utf-8"))
        yield auto_verdict(p)
        yield auto_verdict(p, (2, 3, 4, 8))
    # Degrees 6 and 9 add NotApplicable reports, with linkings where m | n.
    for n in range(2, 19):
        for k in range(5):
            yield auto_verdict(random_presentation(n, k, 3 * n + k), (2, 3, 4, 6, 8, 9))
    # Long linking arrays: a cable of winding 512 at every prime-power degree.
    yield auto_verdict(ClaspPresentation(512, (), name="cable-512"), [2**e for e in range(1, 10)])
    yield auto_verdict(ClaspPresentation(6, ()), ())  # "per_m": []
    # No presentation takes this name, so it goes straight into the report.
    named = auto_verdict(ClaspPresentation(6, ()), (2, 3))
    yield dataclasses.replace(named, pattern='q"\\é\t\u2028')
    linkings = (Fraction(-7, 5), 0, Fraction(10**30, 3))
    texts = tuple(map(format_rational, linkings))
    odd_row = (CheckResult("odd", False, ""),)
    odd = ObstructionReport(4, linkings, texts, 5, 3, True, "", False, "", "", odd_row)
    empty = ObstructionReport(9, (), (), 0, 0, False, "", False, "", "", ())
    yield AggregateReport("", 0, [odd, empty], "")


def test_report_writer_matches_the_json_dumps_oracle():
    reports = list(_reports_to_write())
    written = [report_to_json(agg) for agg in reports]
    assert written == [report_json(agg) for agg in reports]
    assert len(written) == 97
    text = "".join(written)
    for part in ('"per_m": []', '"linkings": []', '"checks": []', '"q\\"\\\\\\u00e9\\t\\u2028"'):
        assert part in text


@pytest.mark.parametrize(
    "p, degrees",
    [(random_presentation(8, 3, 0), (2, 3, 4, 8)), (ClaspPresentation(6, ()), (2, 3, 4, 6))],
    ids=["clasped-8", "cable-6"],
)
def test_a_built_report_is_immutable(p, degrees):
    # Each degree's report is decided where it is built; no reader can change it.
    reports = auto_verdict(p, degrees).per_m
    assert "NotApplicable" in {r.verdict for r in reports}  # a degree not dividing n too
    for report in reports:
        with pytest.raises(AttributeError):
            report.verdict = "Obstructed"
        with pytest.raises(AttributeError):
            report.linkings = (Fraction(1, 2),)


def test_report_formats_each_linking_once(monkeypatch):
    # A cable degree's linkings are one value: one format_rational call per degree.
    calls = []
    real = coverlink.obstruct.format_rational
    monkeypatch.setattr(coverlink.obstruct, "format_rational", lambda q: calls.append(q) or real(q))
    agg = auto_verdict(ClaspPresentation(64, (), name="cable-64"), (2, 4, 8, 16, 32, 64))
    written = report_to_json(agg)
    distinct = [v for r in agg.per_m for v in dict.fromkeys(r.linkings)]
    assert distinct == [32, 16, 8, 4, 2, 1] and calls == distinct  # a cable degree has one value
    assert written == report_json(agg) and calls == distinct  # the dict reuses the texts


def test_cable_work_stays_per_sweep_and_per_degree(monkeypatch):
    # A per-crossing or per-linking Python call on the cable path would show here.
    sign_calls, sweeps, format_calls = [], [], []
    real_sign, real_sweep = coverlink.diagram.crossing_sign, coverlink.diagram._sweep
    real_format = coverlink.obstruct.format_rational
    monkeypatch.setattr(
        coverlink.diagram, "crossing_sign", lambda *a: sign_calls.append(a) or real_sign(*a)
    )
    monkeypatch.setattr(coverlink.diagram, "_sweep", lambda w: sweeps.append(w) or real_sweep(w))
    monkeypatch.setattr(
        coverlink.obstruct, "format_rational", lambda q: format_calls.append(q) or real_format(q)
    )
    analyze.cache_clear()
    degrees = [2**i for i in range(1, 10)]  # every prime power dividing 512
    agg = auto_verdict(ClaspPresentation(512, (), name="cable-512"), degrees)
    report_to_json(agg)
    analyze.cache_clear()
    assert [r.linking_texts for r in agg.per_m] == [(str(512 // m),) * (m - 1) for m in degrees]
    assert sweeps and len(sign_calls) <= 8 * len(sweeps)
    assert format_calls == [512 // m for m in degrees]


def test_format_rational():
    cases = [
        (0, "0"),
        (3, "3"),
        (-4, "-4"),
        (10**30, "1" + "0" * 30),
        (Fraction(0), "0"),
        (Fraction(3), "3"),
        (Fraction(-7, 5), "-7/5"),
        (Fraction(6, 4), "3/2"),
        (Fraction(-1, 3), "-1/3"),
        (Fraction(10**30, 7), "1" + "0" * 30 + "/7"),
    ]
    for q, text in cases:
        assert format_rational(q) == text
        # The numerator alone for an integer, else numerator/denominator, in lowest terms.
        a, b = Fraction(q).as_integer_ratio()
        assert text == (str(a) if b == 1 else f"{a}/{b}")


_F = Fraction
_NONNEG = "linkings all non-negative and not all zero"
_NONPOS = "linkings all non-positive and not all zero"
_MIXED = "condition (2) fails: mixed signs"
# One rational linking vector per sign case: (m, eta order, linkings) and the
# expected (condition2, condition2_reason, verdict) and palindrome row (ok, detail).
_SIGN_CASES = {
    "all-zero": (
        (3, 1, (_F(0), _F(0))),
        (False, "condition (2) fails: all zero", "Inconclusive"),
        (True, "(0, 0)"),
    ),
    "non-negative-zero-halves": (
        (4, 1, (_F(1, 2), _F(0), _F(1, 2))),
        (True, _NONNEG, "Obstructed"),
        (True, "(1/2, 0, 1/2)"),
    ),
    "non-positive-thirds": (
        (5, 3, (_F(-1, 3), _F(-2, 3), _F(-2, 3), _F(-1, 3))),
        (True, _NONPOS, "Obstructed"),
        (True, "(-1/3, -2/3, -2/3, -1/3)"),
    ),
    "mixed-signs": (
        (4, 2, (_F(1), _F(-1, 2), _F(1))),
        (False, _MIXED, "Inconclusive"),
        (True, "(1, -1/2, 1)"),
    ),
    "equal-in-distinct-objects": (
        (3, 1, (_F(2, 4), _F(1, 2))),
        (True, _NONNEG, "Obstructed"),
        (True, "(1/2, 1/2)"),
    ),
    "ints-and-fractions": (
        (5, 1, (2, _F(2), _F(4, 2), -2)),
        (False, _MIXED, "Inconclusive"),
        (False, "(2, 2, 2, -2)"),
    ),
    "non-palindromic": (
        (3, 1, (_F(1), _F(2))),
        (True, _NONNEG, "Obstructed"),
        (False, "(1, 2)"),
    ),
}


@pytest.mark.parametrize("case", list(_SIGN_CASES))
def test_decide_and_palindrome_row_on_rational_vectors(case):
    (m, order, linkings), decided, palindrome = _SIGN_CASES[case]
    texts = tuple(map(format_rational, linkings))
    p = ClaspPresentation(m, ())
    assert coverlink.obstruct._palindromic(p, m, linkings, texts, 0) == palindrome
    fields = coverlink.obstruct._decide(m, linkings, order, ())
    report = ObstructionReport(m, linkings, texts, 0, order, *fields)
    assert report.condition1 == (order % 2 == 1)
    assert report.condition1_reason == f"eta lift has order {order} in H1"
    assert (report.condition2, report.condition2_reason, report.verdict) == decided
    assert report.checks == ()


@pytest.mark.parametrize(
    "p, degrees, validation_folds, lifted",
    [
        # A zero-clasp cable has no surgery curve, so validation reads no linking.
        (ClaspPresentation(512, ()), tuple(2**e for e in range(1, 10)), [], [512]),
        (random_presentation(8, 3, 0), (2, 4, 8), [1], [8]),
        # Each prime's finest degree is lifted, in any order of the m-list.
        (ClaspPresentation(384, ()), (3, 2, 128, 64), [], [128, 3]),
    ],
    ids=["cable-512", "clasped-8", "cable-384"],
)
def test_report_folds_the_lift_tally_once_per_degree(
    monkeypatch, p, degrees, validation_folds, lifted
):
    # The tally is built once per report and folded once per prime's finest
    # degree, plus once at m = 1 for the base linkings that validation reads;
    # every coarser degree folds the lifted data of a finer one.
    builds, folds = [], []
    tally, tables = WordAnalysis._lift_tally, WordAnalysis.cover_tables
    monkeypatch.setattr(
        WordAnalysis, "_lift_tally", lambda self: builds.append(self._tally is None) or tally(self)
    )
    monkeypatch.setattr(
        WordAnalysis, "cover_tables", lambda self, m: folds.append(m) or tables(self, m)
    )
    analyze.cache_clear()
    report = auto_verdict(p, degrees)
    assert builds.count(True) == 1
    assert folds == [*validation_folds, *lifted]
    assert [r.m for r in report.per_m] == list(degrees)


def test_na_rows_keep_schema_keys():
    doc = report_to_dict(auto_verdict(ClaspPresentation(6, ()), (4,)))
    row = doc["per_m"][0]
    assert row["verdict"] == "NotApplicable"
    assert row["linkings"] == [] and row["h1"] == 0 and row["eta_order"] == 0


@st.composite
def _any_presentation(draw):
    """Shared slots and weaves balanced or not: valid presentations and invalid ones."""
    n = draw(st.sampled_from((2, 3, 4, 6, 8, 9, 12, 16)))
    k = draw(st.integers(0, 5))
    clasps = []
    for _ in range(k):
        enter, exit_ = draw(st.integers(0, n)), draw(st.integers(0, n))
        d = abs(exit_ - enter)
        flags = draw(st.text("ou", min_size=d, max_size=d))
        back = flags[::-1] if draw(st.booleans()) else draw(st.text("ou", min_size=d, max_size=d))
        sign, framing = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
        clasps.append(ClaspSpec(draw(st.integers(0, k)), enter, exit_, flags + back, sign, framing))
    return ClaspPresentation(n, tuple(clasps))


def _divisors(n: int) -> list[int]:
    return [m for m in range(1, n + 1) if n % m == 0]


@given(_any_presentation())
@settings(max_examples=300, deadline=None)
def test_clasp_calculus_rows_and_linkings_match_the_pipeline(p):
    word = compile_presentation(p)
    ana = analyze(word)
    labels = ana.labels()
    # Lifts sit in label-name order within a sheet: L10 before L2.
    place = {labels[cid]: i for i, cid in enumerate(ana.lift_order)}
    valid = validate(word).passed
    for m in _divisors(p.n):
        rows, linkings = clasp_calculus(p, m)
        eta_row = lift_data(word, m).eta_row
        for c, row in enumerate(rows):
            assert list(eta_row[place[f"L{c + 1}"] :: len(rows)]) == row
        assert valid == all(sum(row) == 0 for row in rows)  # lk(L_c, eta) = 0
        if valid and m > 1:
            report = auto_verdict(p, (m,)).per_m[0]
            assert (report.h1_order, report.eta_order) == (1, 1)
            assert report.linkings == linkings


@pytest.mark.parametrize("n", [2, 4, 6, 8, 9, 12, 16])
def test_clasp_calculus_gives_every_degree_of_random_presentations(n):
    for k in range(6):
        for seed in range(2):
            p = random_presentation(n, k, seed)
            for m in _divisors(n)[1:]:
                report = auto_verdict(p, (m,)).per_m[0]
                assert (report.h1_order, report.eta_order) == (1, 1)
                assert report.linkings == clasp_calculus(p, m)[1]


def test_clasp_calculus_mod2_linking_is_odd_when_n_is_2_mod_4():
    for n in (2, 6, 10, 14):
        for seed in range(5):
            (linking,) = clasp_calculus(random_presentation(n, 4, seed), 2)[1]
            assert linking.denominator == 1 and linking.numerator % 2 == 1


def _m2_m4_closed_forms(p):
    """lk2 and (lk4_1, lk4_2, lk4_3) from each clasp's m = 4 row (a, b, c, d), as derived in
    the docstring of ``clasp_calculus``."""
    rows = clasp_calculus(p, 4)[0]
    assert all(sum(row) == 0 for row in rows)  # the presentation is valid
    assert clasp_calculus(p, 2)[0] == [[a + c, b + d] for a, b, c, d in rows]
    lk2 = Fraction(p.n, 2) + 2 * sum(
        c.framing * (a + cc) ** 2 for c, (a, _, cc, _) in zip(p.clasps, rows)
    )
    lk4_2 = Fraction(p.n, 4) - 2 * sum(
        c.framing * (a * cc + b * d) for c, (a, b, cc, d) in zip(p.clasps, rows)
    )
    return lk2, (lk2 / 2, lk4_2, lk2 / 2)


def test_m2_and_m4_closed_forms_match_auto_verdict():
    for n in (4, 8, 12, 16, 20, 24):
        for k in range(6):
            for seed in range(4):
                p = random_presentation(n, k, seed)
                lk2, lk4 = _m2_m4_closed_forms(p)
                at2, at4 = auto_verdict(p, (2, 4)).per_m
                assert (at2.linkings, at4.linkings) == ((lk2,), lk4)
                assert (at2.h1_order, at2.eta_order, at4.h1_order, at4.eta_order) == (1, 1, 1, 1)


def test_n_4_mod_8_is_obstructed_at_m2_or_else_at_m4_by_0_odd_0():
    # lk2 = 0 is the case the m = 2 report leaves open; no corpus file reaches it.
    found = 0
    for n in (4, 12, 20):
        for k in range(1, 6):
            for seed in range(100):
                p = random_presentation(n, k, seed)
                agg = auto_verdict(p, (2, 4))
                assert agg.aggregate == "Obstructed"
                lk2, lk4 = _m2_m4_closed_forms(p)
                if lk2:
                    continue
                found += 1
                assert lk4[0] == lk4[2] == 0 and lk4[1].denominator == 1 and lk4[1].numerator % 2
                assert [r.verdict for r in agg.per_m] == ["Inconclusive", "Obstructed"]
                assert agg.per_m[0].linkings == (0,) and agg.per_m[1].linkings == lk4
                assert lk4 == clasp_calculus(p, 4)[1]
    assert found == 148


def test_reassigning_slots_leaves_the_report_unchanged():
    # Slots order the gadgets in the word, and nothing in the calculus reads them.
    rng = random.Random(0)
    moved = 0
    for n in (4, 6, 8, 9, 12):
        for seed in range(8):
            p = random_presentation(n, 1 + seed % 5, seed)
            k = len(p.clasps)
            shuffled = dataclasses.replace(
                p, clasps=tuple(dataclasses.replace(c, slot=rng.randint(0, k)) for c in p.clasps)
            )
            moved += compile_presentation(shuffled) != compile_presentation(p)
            ms = _divisors(n)[1:]
            assert report_to_json(auto_verdict(shuffled, ms)) == report_to_json(auto_verdict(p, ms))
    assert moved > 20
