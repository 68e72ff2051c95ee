"""Surgery-formula evaluation, homology bookkeeping, and the sign verdict.

A report compiles and validates its presentation once. Each prime's finest
degree it covers reads the m-fold cover's lift data off one sweep of that
word (``cover.lift_data``), and every coarser degree folds the data of a
finer one (``cover._fold``), in integers: the framed linking matrix A of the
lifted surgery curves, one eta lift's row of linkings with them, and the
eta-lift linkings. It converts base linkings into branched-cover linkings
via ``base - x^T A^{-1} y``; one exact solve ``z = A^{-1} x`` per degree, on
integers (in place when A is diagonal, as it is on every presentation),
yields every linking (an ``int`` when eta's order is 1, else a
``Fraction``) and eta's order. The verdict then asks whether the meridian
lift has odd order in first homology and whether the linking vector is
nonzero and of uniform sign; both must hold (and m must be a prime power)
to certify the obstruction. Each degree's report is built once, in
``_branched``, and is immutable: its linking texts, its checks against one
table of theorems (``_INVARIANTS``), both conditions and the verdict are
all decided there, and every reader takes its fields. A failed row is a
pipeline bug: a verdict raises :class:`InvariantViolationError`, and the
:func:`cross_checks` ledger records the row as failed. ``json`` leaves its
C encoder whenever ``indent`` is set, so :func:`report_to_json` writes the
fixed report schema in ``json.dumps(indent=2)``'s layout itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps' C encoder
from operator import mul
from typing import NamedTuple, Sequence

from . import pattern as pat
from .cover import LiftedData, _fold, build_cover, lift_data, lifted_eta_linkings
from .diagram import AnnularWord
from .linalg import IntMatrix, det, solve_numerators
from .pattern import ClaspPresentation, ClaspSpec, add_cancelling_pair

DEFAULT_M_LIST = (2, 4)


class NotRationalHomologySphereError(Exception):
    """Surgery matrix is singular: the surgered manifold has infinite H1."""


class InvariantViolationError(Exception):
    """A structural invariant failed: pipeline or encoding bug, never data."""


class PatternValidationError(Exception):
    def __init__(self, report: pat.ValidationReport):
        self.report = report
        msgs = "; ".join(f"{i.name}[{i.component}]: {i.detail}" for i in report.failures())
        super().__init__(f"presentation fails validation: {msgs}")


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class ObstructionReport(NamedTuple):  # one degree's report, built once and immutable
    m: int
    linkings: tuple[int | Fraction, ...]
    linking_texts: tuple[str, ...]  # each linking as format_rational writes it
    h1_order: int
    eta_order: int
    condition1: bool
    condition1_reason: str
    condition2: bool
    condition2_reason: str
    verdict: str
    checks: tuple[CheckResult, ...]


def cha_ko(base_lk: Fraction | int, a: IntMatrix, x: Sequence[int], y: Sequence[int]) -> Fraction:
    """Linking number after surgery: ``base - x^T A^{-1} y``, exactly.

    A ``det`` of 0 raises: the surgered manifold is then not a rational
    homology sphere. Otherwise one :func:`solve_numerators` gives
    ``A^{-1} y = w / d`` on integers, and the correction is one integer dot
    product over w's support and one ``Fraction``. With an empty surgery
    link this collapses to the base linking number (empty determinant is 1).
    """
    if len(x) != a.rows or len(y) != a.rows:
        raise ValueError("vector dimensions must match the matrix")
    if det(a) == 0:
        raise NotRationalHomologySphereError("surgery matrix is singular")
    w, d = solve_numerators(a, y)
    return Fraction(base_lk) - Fraction(sum(x[i] * v for i, v in w.items()), d)


def _prime_power(m: int) -> bool:
    if m < 2:
        return False
    p = 2
    n = m
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True  # m itself is prime


def _linkings_from_data(
    data: LiftedData, m: int, preferred: int = 0
) -> tuple[tuple[int | Fraction, ...], int]:
    """Linkings lk(eta, t^k eta) for k = 1..m-1, and eta's order in H1.

    x and y_k are the rows of eta lifts ``preferred`` and ``preferred + k``,
    read by index off the one ``eta_row`` (see ``LiftedData``). One solve
    ``z = A^{-1} x`` serves every k: A is symmetric, so
    ``x^T A^{-1} y_k = z . y_k``. For nonsingular A, d*x lies in the column
    span of A iff d*z is integral, so eta's order is the lcm of the
    denominators of z. ``solve_numerators`` gives z = w / order with w
    integral, so each linking is ``base_k - (w . y_k) / order``. y_k is the
    eta row rotated by (preferred + k) sheets, one slice of the row written
    twice, and the dot product is one ``sum(map(mul, ...))`` against w laid
    out densely. A linking is an ``int`` when the order is 1, else a
    ``Fraction``; with no surgery curve the base's integer linkings pass
    through. The caller has checked that A is nonsingular.
    """
    row, size = data.eta_row, len(data.eta_row)
    if not size:
        return data.eta_linkings[1:], 1
    sheet = size // m
    cut = size - preferred * sheet % size
    w, order = solve_numerators(data.matrix, row[cut:] + row[:cut])
    dense = [0] * size
    for i, v in w.items():
        dense[i] = v
    twice = row + row  # twice[size - s + i] is row[(i - s) % size]
    linkings = []
    for k in range(1, m):
        start = size - (preferred + k) * sheet % size
        dot = sum(map(mul, dense, twice[start : start + size]))
        base = data.eta_linkings[k]
        linkings.append(base - dot if order == 1 else Fraction(base * order - dot, order))
    return tuple(linkings), order


def _checked_word(p: ClaspPresentation) -> AnnularWord:
    """Compile p and validate the word; raise PatternValidationError if it fails."""
    word = pat.compile(p)
    validation = pat.validate(word)
    if not validation.passed:
        raise PatternValidationError(validation)
    return word


def _palindromic(p: ClaspPresentation, m: int, linkings, texts, h1: int) -> tuple[bool, str]:
    # Rationals in lowest terms are equal iff their texts are, and the detail needs the texts.
    return texts == texts[::-1], "(" + ", ".join(texts) + ")"


def _h1_odd(p: ClaspPresentation, m: int, linkings, texts, h1: int) -> tuple[bool, str]:
    return h1 % 2 == 1, f"|H1| = {h1}"


def _parity(p: ClaspPresentation, m: int, linkings, texts, h1: int) -> tuple[bool, str]:
    k0 = p.n // m  # m divides n at every degree a report is made for
    val = (linkings[m // 2 - 1] - k0) * h1
    return val.denominator == 1 and int(val) % 2 == 0, f"(lk - {k0})*|H1| = {val}"


# The theorems every report is checked against, in ledger order: (name, the
# degrees the theorem holds at or None for every degree, check(p, m, linkings,
# texts, |H1|) -> (ok, detail)). A failure is a pipeline bug, never a property
# of the input. The parity form is a theorem only at m = 2 and 4.
_INVARIANTS = (
    ("linkings-palindromic", None, _palindromic),
    ("h1-odd", (2, 4, 8), _h1_odd),
    ("parity-m{m}", (2, 4), _parity),
)


def _decide(m: int, values, eta_order: int, checks: tuple[CheckResult, ...]) -> tuple:
    """The report's fields from condition1 on; m not a prime power adds a failed row to checks."""
    condition1 = eta_order % 2 == 1
    low, high = (min(values), max(values)) if values else (0, 0)
    if low == 0 and high == 0:
        condition2, reason2 = False, "condition (2) fails: all zero"
    elif low >= 0 or high <= 0:
        sign = "non-negative" if low >= 0 else "non-positive"
        condition2, reason2 = True, f"linkings all {sign} and not all zero"
    else:
        condition2, reason2 = False, "condition (2) fails: mixed signs"
    decision = "Obstructed" if condition1 and condition2 else "Inconclusive"
    if not _prime_power(m):
        decision = "NotApplicable"
        checks += (CheckResult("m-prime-power", False, f"m={m} is not a prime power"),)
    reason1 = f"eta lift has order {eta_order} in H1"
    return condition1, reason1, condition2, reason2, decision, checks


def _branched(p: ClaspPresentation, data: LiftedData) -> ObstructionReport:
    """The report of p at the degree of ``data``, built once and immutable.

    Its linkings are formatted, checked and decided here. A vector of one
    value, as a cable's is at every degree, is one text repeated, found by
    one C-level count, with min and max read off that one linking. Each
    invariant row that holds at the degree is recorded, failed or not, before
    any ``m-prime-power`` row; :func:`_checked_report` raises on a failed
    invariant row, :func:`cross_checks` only records it.
    """
    m = len(data.eta_linkings)
    h1 = abs(det(data.matrix)) if data.eta_row else 1  # no surgery curve: the empty det
    if h1 == 0:
        raise NotRationalHomologySphereError("surgery matrix is singular")
    linkings, eta_order = _linkings_from_data(data, m)
    if linkings and linkings.count(linkings[0]) == len(linkings):
        values = linkings[:1]
        texts = (format_rational(linkings[0]),) * len(linkings)
    else:
        values = linkings
        texts = tuple(map(format_rational, linkings))
    checks = []
    for name, degrees, check in _INVARIANTS:
        if degrees is None or m in degrees:
            ok, detail = check(p, m, linkings, texts, h1)
            checks.append(CheckResult(name.format(m=m), ok, detail))
    decided = _decide(m, values, eta_order, tuple(checks))
    return ObstructionReport(m, linkings, texts, h1, eta_order, *decided)


def _checked_report(p: ClaspPresentation, data: LiftedData) -> ObstructionReport:
    """The report at data's degree; a failed invariant row raises InvariantViolationError."""
    report = _branched(p, data)
    for c in report.checks:
        if not c.passed and c.name != "m-prime-power":
            raise InvariantViolationError(f"{c.name} fails at m={report.m}: {c.detail}")
    return report


def verdict(p: ClaspPresentation, m: int) -> ObstructionReport:
    """Apply the two-condition sign test at cover degree m.

    NotApplicable when m is not a prime power or does not divide the
    winding; otherwise Obstructed iff eta's lift has odd order in H1 and the
    linking vector is nonzero with all entries of one sign. A failed
    invariant row raises :class:`InvariantViolationError`: a pipeline bug,
    never a property of the input data.
    """
    return auto_verdict(p, (m,)).per_m[0]


@dataclass
class AggregateReport:
    pattern: str
    n: int
    per_m: list[ObstructionReport]
    aggregate: str


def _planned_data(word: AnnularWord, degrees: Sequence[int]) -> dict[int, LiftedData]:
    """The lifted data of each degree, planned from the finest down.

    A degree with a multiple among the degrees is folded from the smallest
    such multiple (see ``cover._fold``); any other, each prime's finest, is
    lifted with ``lift_data``. Every degree must divide the word's windings.
    """
    data: dict[int, LiftedData] = {}
    for m in sorted(set(degrees), reverse=True):
        source = next((d for d in reversed(data) if d % m == 0), None)
        data[m] = lift_data(word, m) if source is None else _fold(data[source], m)
    return data


def auto_verdict(p: ClaspPresentation, m_list: Sequence[int] = DEFAULT_M_LIST) -> AggregateReport:
    """Run the verdict for each m; the aggregate is Obstructed if any m is.

    The presentation is compiled and validated once, at the first degree
    that divides its winding. The lifted data of every dividing degree then
    comes from one lift per finest degree, folded down to the others
    (:func:`_planned_data`), and each degree runs its own surgery solve. The
    reports and the order in which errors surface are those of
    ``[verdict(p, m) for m in m_list]``.
    """
    data = None
    reports = []
    for m in m_list:
        if m < 2:
            raise ValueError(f"verdict needs m >= 2, got {m}")
        if p.n % m:
            reason = f"m={m} does not divide winding {p.n}"
            row = CheckResult("m-divides-winding", False, f"{m} does not divide {p.n}")
            fields = (False, reason, False, reason, "NotApplicable", (row,))
            report = ObstructionReport(m, (), (), 0, 0, *fields)
        else:
            if data is None:
                degrees = [d for d in m_list if d >= 2 and p.n % d == 0]
                data = _planned_data(_checked_word(p), degrees)
            report = _checked_report(p, data[m])
        reports.append(report)
    if any(r.verdict == "Obstructed" for r in reports):
        agg = "Obstructed"
    elif any(r.verdict == "Inconclusive" for r in reports):
        agg = "Inconclusive"
    else:
        agg = "NotApplicable"
    return AggregateReport(p.name or "unnamed", p.n, reports, agg)


_TRANSFER_MAX = 16  # the largest degree m of a transfer row


def cross_checks(p: ClaspPresentation) -> list[CheckResult]:
    """Structural consistency ledger for a presentation.

    Collects the own report checks (palindrome, odd |H1|, parity forms) of
    each degree 2, 4 and 8 dividing n, recording a failed row rather than
    raising, and adds the transfer identity at each pair of degrees d | m
    dividing n with m <= 16, then, at degrees 2, 4 and 8, divisibility of
    |H1|, the lifted eta vector's shape, deck-relabel invariance, the paper's
    mod-8 theorem (``hedden-mod8``) and cancelling-pair invariance. One checked
    word serves every degree and the direct count; the cancelling-pair
    presentation is compiled on its own.
    """
    checks: list[CheckResult] = []
    n = p.n
    degrees = [m for m in (2, 4, 8) if n % m == 0]
    divisors = [m for m in range(2, _TRANSFER_MAX + 1) if n % m == 0]
    pairs = [(d, m) for m in divisors for d in divisors if d < m and m % d == 0]
    needed = sorted({*degrees, *(m for pair in pairs for m in pair)})
    word = _checked_word(p) if needed else None
    lifted = {m: lift_data(word, m) for m in needed}
    reports = {m: _branched(p, data) for m, data in lifted.items()}

    # Transfer: for d | m, lk_d[j] sums lk_m[k] over 0 < k < m with k = j mod d.
    for d, m in pairs:
        lk_d, lk_m = reports[d].linkings, reports[m].linkings
        sums = tuple(sum(lk_m[j - 1 :: d]) for j in range(1, d))
        detail = f"lk_{d} = {_fmt_linkings(lk_d)}, sums {_fmt_linkings(sums)}"
        if (d, m) == (2, 4):  # this row keeps the name and detail of the doubling check
            detail = f"lk_2 = {lk_d[0]}, 2*lk_4(adjacent) = {2 * lk_m[0]}"
        name = "two-vs-four-doubling" if (d, m) == (2, 4) else f"transfer-m{d}-m{m}"
        checks.append(CheckResult(name, sums == tuple(lk_d), detail))
    if 4 in reports:
        checks.append(
            CheckResult(
                "h1-divisibility",
                reports[4].h1_order % reports[2].h1_order == 0,
                f"|H1(2)| = {reports[2].h1_order} divides |H1(4)| = {reports[4].h1_order}",
            )
        )
    for m in degrees:
        rep, data = reports[m], lifted[m]
        checks.extend(rep.checks)
        # Over all sheets a surgery curve's lifts link eta_0 as the curve
        # links eta in the base, which validation requires to be 0.
        k = len(data.eta_row) // m
        if k:
            sums = tuple(sum(data.eta_row[c::k]) for c in range(k))
            checks.append(CheckResult(f"vector-shape-m{m}", not any(sums), f"sheet sums {sums}"))
        # Deck-relabel invariance: any preferred lift gives the same vector.
        shifted, _order = _linkings_from_data(data, m, preferred=1)
        checks.append(
            CheckResult(
                f"deck-relabel-m{m}",
                shifted == rep.linkings,
                "linkings invariant under shifting the preferred lift",
            )
        )
    # The paper's theorem: for even n with 8 not dividing n, the sign test
    # obstructs at m = 2 or 4; for 8 | n, it does or every linking there is 0.
    if 2 in reports:
        low = [reports[m] for m in (2, 4) if m in reports]
        zero = not any(v for rep in low for v in rep.linkings)
        ok = any(rep.verdict == "Obstructed" for rep in low) or (n % 8 == 0 and zero)
        detail = ", ".join(f"m{rep.m} {rep.verdict}" for rep in low)
        checks.append(CheckResult("hedden-mod8", ok, detail + (", all linkings 0" if zero else "")))
    if degrees:
        m0 = degrees[0]
        template = ClaspSpec(
            slot=max((c.slot for c in p.clasps), default=0) + 1,
            gap_enter=0,
            gap_exit=min(2, n),
            weave="ou" * min(2, n),
            clasp_sign=1,
            framing=1,
        )
        doubled = add_cancelling_pair(p, template)
        checks.append(
            CheckResult(
                f"cancelling-pair-m{m0}",
                _branched(doubled, lift_data(_checked_word(doubled), m0)).linkings
                == reports[m0].linkings,
                "linkings unchanged by a cancelling clasp pair",
            )
        )
        # Zero-clasp route: the surgery formula must agree with direct counts
        # on the m-copy cover word, independent of the verdict's lift data.
        if not p.clasps:
            direct = lifted_eta_linkings(build_cover(word, m0))[(0, 1)]
            checks.append(
                CheckResult(
                    f"direct-count-m{m0}",
                    direct == reports[m0].linkings[0],
                    f"signed-count path = {direct}",
                )
            )
    return checks


# ---------------------------------------------------------------------------
# Report serialization


def format_rational(q: Fraction | int) -> str:
    """``"a"`` for an integer, else ``"a/b"`` in lowest terms with b > 0."""
    return str(q)


def _fmt_linkings(linkings: Sequence[Fraction]) -> str:
    return "(" + ", ".join(format_rational(v) for v in linkings) + ")"


def report_to_dict(agg: AggregateReport) -> dict:
    return {
        "pattern": agg.pattern,
        "n": agg.n,
        "per_m": [
            {
                "m": r.m,
                "linkings": list(r.linking_texts),
                "h1": r.h1_order,
                "eta_order": r.eta_order,
                "condition1": r.condition1,
                "condition2": r.condition2,
                "verdict": r.verdict,
                "checks": [
                    {"name": c.name, "pass": c.passed, "detail": c.detail} for c in r.checks
                ],
            }
            for r in agg.per_m
        ],
        "aggregate": agg.aggregate,
    }


_BOOL = ("false", "true")


def _json_array(items: list[str], indent: str) -> str:
    """Encoded items as a JSON array, laid out as ``json.dumps(indent=2)`` lays it out."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return f"[{inner}{(',' + inner).join(items)}\n{indent}]"


# Between two linking texts of a JSON degree: a text matches ``[-0-9/]+``, so it needs no escape.
_LINKING_SEP = '",\n        "'


def _json_degree(r: ObstructionReport) -> str:
    """One degree's report object, its linking array written by one ``str.join`` of the texts."""
    checks = [
        f'{{\n          "name": {_json_str(c.name)},\n          "pass": {_BOOL[c.passed]},'
        f'\n          "detail": {_json_str(c.detail)}\n        }}'
        for c in r.checks
    ]
    texts = r.linking_texts
    linkings = f'[\n        "{_LINKING_SEP.join(texts)}"\n      ]' if texts else "[]"
    return (
        f'{{\n      "m": {r.m},\n      "linkings": {linkings},'
        f'\n      "h1": {r.h1_order},\n      "eta_order": {r.eta_order},'
        f'\n      "condition1": {_BOOL[r.condition1]},\n      "condition2": {_BOOL[r.condition2]},'
        f'\n      "verdict": {_json_str(r.verdict)},'
        f'\n      "checks": {_json_array(checks, "      ")}\n    }}'
    )


def report_to_json(agg: AggregateReport) -> str:
    """``json.dumps(report_to_dict(agg), indent=2) + "\n"``, byte for byte, in one pass."""
    per_m = _json_array([_json_degree(r) for r in agg.per_m], "  ")
    return (
        f'{{\n  "pattern": {_json_str(agg.pattern)},\n  "n": {agg.n},\n  "per_m": {per_m},'
        f'\n  "aggregate": {_json_str(agg.aggregate)}\n}}\n'
    )


def report_to_text(agg: AggregateReport) -> str:
    lines = [f"pattern {agg.pattern} (winding {agg.n})"]
    for r in agg.per_m:
        lines.append(f"  m={r.m}: verdict {r.verdict}")
        if r.linkings:
            lines.append(f"    linkings ({', '.join(r.linking_texts)})")
            lines.append(f"    |H1| {r.h1_order}, eta order {r.eta_order}")
        lines.append(f"    condition1 {r.condition1}: {r.condition1_reason}")
        lines.append(f"    condition2 {r.condition2}: {r.condition2_reason}")
        for c in r.checks:
            lines.append(f"    check {c.name}: {'pass' if c.passed else 'FAIL'} ({c.detail})")
    lines.append(f"aggregate: {agg.aggregate}")
    return "\n".join(lines) + "\n"
