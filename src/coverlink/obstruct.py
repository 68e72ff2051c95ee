"""Surgery-formula evaluation, homology bookkeeping, and the sign verdict.

A report compiles and validates its presentation once. Each prime's finest
degree it covers reads the m-fold cover's lift data off one sweep of that
word (``cover.lift_data``), and every coarser degree folds the data of a
finer one (``cover._fold``), in integers: the framed linking matrix A of the
lifted surgery curves, one eta lift's row of linkings with them, and the
eta-lift linkings. Every compiled presentation lifts to A = diag(+-1) (no
two surgery lifts link, and each carries one kink), so a linking,
``base - x^T A^{-1} y``, is the base linking less each surgery curve's
framed cyclic autocorrelation of its eta row, an ``int``; any other lift is
a pipeline bug (:func:`_linkings_from_data`). :func:`cha_ko`, the general
solve, is the ledger's independent path. The verdict then asks whether the
meridian lift has odd order in first homology and whether the linking vector
is nonzero and of uniform sign; both must hold (and m must be a prime power)
to certify the obstruction. Each degree's report is built once, in
``_branched``, and is immutable: its linking texts, its checks against one
table of theorems (``_INVARIANTS``), both conditions and the verdict are all
decided there, and every reader takes its fields. A failed row is a pipeline
bug: a verdict raises :class:`InvariantViolationError`, and the
:func:`cross_checks` ledger records the row as failed. ``json`` leaves its C
encoder whenever ``indent`` is set, so :func:`report_to_json` writes the
fixed report schema in ``json.dumps(indent=2)``'s layout itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps' C encoder
from operator import sub
from typing import NamedTuple, Sequence

from . import pattern as pat
from .cover import LiftedData, _fold, build_cover, lift_data, lifted_eta_linkings
from .diagram import AnnularWord
from .diagram import InvariantViolationError  # noqa: F401 (re-exported)
from .linalg import IntMatrix, det, solve_numerators
from .pattern import ClaspPresentation, ClaspSpec, add_cancelling_pair

DEFAULT_M_LIST = (2, 4)


class NotRationalHomologySphereError(Exception):
    """Surgery matrix is singular: the surgered manifold has infinite H1."""


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


def _linkings_from_data(data: LiftedData, m: int) -> tuple[tuple[int, ...], int]:
    """Linkings lk(eta, t^j eta) for j = 1..m-1, and eta's order in H1, 1.

    The theorem: no two surgery lifts link and each carries one kink, so
    A = diag(f) with every f = +-1, and ``A^{-1} = A``. Eta lift j's row is
    ``eta_row`` rotated by j sheets, so with k surgery curves and r_c =
    ``eta_row[c::k]`` curve c's row over the sheets, lk_j = ``eta_linkings[j]``
    less the sum, over curves c and pairs of nonzero entries with
    b1 - b2 = j mod m, of f * r_c[b1] * r_c[b2], f the framing of lift b1 of
    c. A lift that is not diag(+-1) raises InvariantViolationError.
    """
    row, size = data.eta_row, len(data.eta_row)
    if not size:
        return data.eta_linkings[1:], 1
    nonzeros, lifts = data.matrix.nonzeros, range(size)
    framing = [*map(nonzeros.get, zip(lifts, lifts))]
    if len(nonzeros) != size or not {*framing} <= {1, -1}:
        off = [ij for ij in nonzeros if ij[0] != ij[1]]
        bad = off[0] if off else next((i, i) for i, f in enumerate(framing) if f not in (1, -1))
        detail = f"entry {bad} is {nonzeros.get(bad, 0)}"
        raise InvariantViolationError(f"lifted matrix is not diag(+-1) at m={m}: {detail}")
    k = size // m
    lags = [0] * m
    for c in range(k):
        support = [(b, v) for b, v in enumerate(row[c::k]) if v]
        for b1, v1 in support:
            fv = framing[b1 * k + c] * v1
            for b2, v2 in support:
                lags[(b1 - b2) % m] += fv * v2
    return tuple(map(sub, data.eta_linkings[1:], lags[1:])), 1


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
    (:func:`_planned_data`), and each degree reads its own linkings. The
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


def cross_checks(p: ClaspPresentation) -> list[CheckResult]:
    """Structural consistency ledger for a presentation, at every degree dividing n.

    Each degree m >= 2 dividing n is lifted and reported on its own, with no
    fold, so the transfer rows compare independent paths. Each degree adds,
    in this order and recording a failed row rather than raising: the
    transfer identity from each smaller degree d dividing m, its report's own
    rows (palindrome, and odd |H1| and the parity form where they hold; not
    ``m-prime-power``, a verdict condition rather than a theorem), the
    lifted eta vector's sheet sums (``vector-shape``) and deck relabelling
    (:func:`cha_ko` read from eta lift 1). Then, at m = 2 and 4, divisibility
    of |H1| and the paper's mod-8 theorem (``hedden-mod8``); and at the
    least degree, cancelling-pair invariance and, for a cable, the direct
    count on the m-copy cover word. One checked word serves every degree and
    the direct count; the cancelling-pair presentation is compiled on its own.
    """
    checks: list[CheckResult] = []
    n = p.n
    degrees = [m for m in range(2, n + 1) if n % m == 0]  # n >= 2, so n itself is one
    word = _checked_word(p)
    reports: dict[int, ObstructionReport] = {}
    for m in degrees:
        data = lift_data(word, m)
        rep = _branched(p, data)
        # Transfer: for d | m, lk_d[j] sums lk_m[k] over 0 < k < m with k = j mod d.
        for d in [d for d in reports if m % d == 0]:
            lk_d = reports[d].linkings
            sums = tuple(sum(rep.linkings[j - 1 :: d]) for j in range(1, d))
            detail = f"lk_{d} = {_fmt_linkings(lk_d)}, sums {_fmt_linkings(sums)}"
            checks.append(CheckResult(f"transfer-m{d}-m{m}", sums == lk_d, detail))
        reports[m] = rep
        checks.extend(c for c in rep.checks if c.name != "m-prime-power")
        # Over all sheets a surgery curve's lifts link eta_0 as the curve
        # links eta in the base, which validation requires to be 0.
        k = len(data.eta_row) // m
        if k:
            sums = tuple(sum(data.eta_row[c::k]) for c in range(k))
            checks.append(CheckResult(f"vector-shape-m{m}", not any(sums), f"sheet sums {sums}"))
        # Deck relabelling through cha_ko: rows[j] is eta lift 1 + j's row.
        row, size, base = data.eta_row, len(data.eta_row), data.eta_linkings
        rows = [row[size - j * k :] + row[: size - j * k] for j in range(1, m + 1)]
        lks = tuple(cha_ko(base[j], data.matrix, rows[0], rows[j]) for j in range(1, m))
        detail = f"cha_ko from eta lift 1: {_fmt_linkings(lks)}"
        checks.append(CheckResult(f"deck-relabel-m{m}", lks == rep.linkings, detail))
    if 4 in reports:
        h2, h4 = reports[2].h1_order, reports[4].h1_order
        detail = f"|H1(2)| = {h2} divides |H1(4)| = {h4}"
        checks.append(CheckResult("h1-divisibility", h4 % h2 == 0, detail))
    # The paper's theorem: for even n with 8 not dividing n, the sign test
    # obstructs at m = 2 or 4; for 8 | n, it does or every linking there is 0.
    if 2 in reports:
        low = [reports[m] for m in (2, 4) if m in reports]
        zero = not any(v for rep in low for v in rep.linkings)
        ok = any(rep.verdict == "Obstructed" for rep in low) or (n % 8 == 0 and zero)
        detail = ", ".join(f"m{rep.m} {rep.verdict}" for rep in low)
        checks.append(CheckResult("hedden-mod8", ok, detail + (", all linkings 0" if zero else "")))
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
    lk = _branched(doubled, lift_data(_checked_word(doubled), m0)).linkings
    detail = "linkings unchanged by a cancelling clasp pair"
    checks.append(CheckResult(f"cancelling-pair-m{m0}", lk == reports[m0].linkings, detail))
    # Zero-clasp route: the surgery formula must agree with direct counts
    # on the m-copy cover word, independent of the verdict's lift data.
    if not p.clasps:
        direct = lifted_eta_linkings(build_cover(word, m0))[(0, 1)]
        detail = f"signed-count path = {direct}"
        checks.append(CheckResult(f"direct-count-m{m0}", direct == reports[m0].linkings[0], detail))
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
