"""Surgery-formula evaluation, homology bookkeeping, and the sign verdict.

The pipeline lifts a compiled presentation to the m-fold cover, reads off the
framed linking matrix A of the lifted surgery curves, and converts base
linkings into branched-cover linkings via ``base - x^T A^{-1} y``; one exact
solve ``z = A^{-1} x`` per degree yields every linking and eta's order. The
verdict then asks whether the meridian lift has odd order in first homology
and whether the linking vector is nonzero and of uniform sign; both must hold
(and m must be a prime power) to certify the obstruction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import pattern as pat
from .cover import LiftedData, build_cover, lifted_linking_matrix
from .linalg import IntMatrix, det, solve
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


@dataclass(frozen=True)
class FramedLinkingMatrix:
    """Symmetric integer matrix: framings on the diagonal, linkings off it."""

    matrix: IntMatrix
    labels: tuple[str, ...]

    def __post_init__(self):
        m = self.matrix
        if not m.is_square or m.rows != len(self.labels):
            raise ValueError("labels must match a square matrix")
        if any(m[i, j] != m[j, i] for i in range(m.rows) for j in range(m.rows)):
            raise ValueError("linking-framing matrix must be symmetric")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ObstructionReport:
    m: int
    linkings: tuple[Fraction, ...] = ()
    h1_order: int = 0
    eta_order: int = 0
    condition1: bool = False
    condition1_reason: str = ""
    condition2: bool = False
    condition2_reason: str = ""
    verdict: str = "Unevaluated"
    checks: list[CheckResult] = field(default_factory=list)


def cha_ko(
    base_lk: Fraction | int,
    a: FramedLinkingMatrix | IntMatrix,
    x: Sequence[int],
    y: Sequence[int],
) -> Fraction:
    """Linking number after surgery: ``base - x^T A^{-1} y``, exactly.

    With an empty surgery link this collapses to the base linking number
    (empty determinant is 1). Raises when A is singular: the surgered
    manifold is then not a rational homology sphere.
    """
    m = a.matrix if isinstance(a, FramedLinkingMatrix) else a
    if len(x) != m.rows or len(y) != m.rows:
        raise ValueError("vector dimensions must match the matrix")
    if det(m) == 0:
        raise NotRationalHomologySphereError("surgery matrix is singular")
    return Fraction(base_lk) - _dot(solve(m, y), x)


def _dot(z: Sequence[Fraction], y: Sequence[int]) -> Fraction:
    return sum((zi * yi for zi, yi in zip(z, y)), Fraction(0))


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
) -> tuple[tuple[Fraction, ...], list[Fraction]]:
    """Linkings lk(eta, t^k eta) for k = 1..m-1, and ``z = A^{-1} x``.

    One solve serves every k: A is symmetric, so ``x^T A^{-1} y_k = z . y_k``.
    The caller has checked that A is nonsingular.
    """
    x = data.eta_vs_surgery[preferred % m]
    z = solve(data.matrix, x)
    linkings = tuple(
        data.eta_linkings[(preferred % m, (preferred + k) % m)]
        - _dot(z, data.eta_vs_surgery[(preferred + k) % m])
        for k in range(1, m)
    )
    return linkings, z


def _branched(p: ClaspPresentation, m: int) -> tuple[ObstructionReport, LiftedData]:
    """:func:`branched_linkings` plus the lifted data it was computed from."""
    word = pat.compile(p)
    validation = pat.validate(word)
    if not validation.passed:
        raise PatternValidationError(validation)
    data = lifted_linking_matrix(build_cover(word, m))
    h1 = abs(det(data.matrix))
    if h1 == 0:
        raise NotRationalHomologySphereError("surgery matrix is singular")
    linkings, z = _linkings_from_data(data, m)
    # For nonsingular A, d*x lies in the column span of A iff d*z is integral.
    eta_order = math.lcm(*(q.denominator for q in z))
    report = ObstructionReport(m=m, linkings=linkings, h1_order=h1, eta_order=eta_order)

    palindromic = all(linkings[k - 1] == linkings[m - k - 1] for k in range(1, m))
    report.checks.append(
        CheckResult("linkings-palindromic", palindromic, _fmt_linkings(linkings))
    )
    if not palindromic:
        raise InvariantViolationError(f"linkings not palindromic at m={m}: {linkings}")
    if m in (2, 4, 8):
        odd = report.h1_order % 2 == 1
        report.checks.append(CheckResult("h1-odd", odd, f"|H1| = {report.h1_order}"))
        if not odd:
            raise InvariantViolationError(f"|H1| = {report.h1_order} even at m={m}")
    if m in (2, 4):
        # The parity form is a theorem only at these two degrees.
        k0 = Fraction(p.n, m)
        parity_val = (linkings[m // 2 - 1] - k0) * report.h1_order
        ok = parity_val.denominator == 1 and int(parity_val) % 2 == 0
        report.checks.append(
            CheckResult(
                f"parity-m{m}", ok, f"(lk - {k0})*|H1| = {parity_val}"
            )
        )
        if not ok:
            raise InvariantViolationError(
                f"parity failure at m={m}: (lk - {k0})*|H1| = {parity_val}"
            )
    return report, data


def branched_linkings(p: ClaspPresentation, m: int) -> ObstructionReport:
    """Compute lk(eta, t^k eta) for k = 1..m-1 plus |H1| and eta's order.

    Requires m to divide the cable winding and the compiled word to validate.
    Structural failures (non-palindromic vector, even |H1| at a 2-power
    cover) raise :class:`InvariantViolationError`: they indicate a pipeline
    bug, never a property of the input data.
    """
    return _branched(p, m)[0]


def verdict(p: ClaspPresentation, m: int) -> ObstructionReport:
    """Apply the two-condition sign test at cover degree m.

    NotApplicable when m is not a prime power or does not divide the
    winding; otherwise Obstructed iff eta's lift has odd order in H1 and the
    linking vector is nonzero with all entries of one sign.
    """
    if m < 2:
        raise ValueError(f"verdict needs m >= 2, got {m}")
    if p.n % m != 0:
        report = ObstructionReport(m=m, verdict="NotApplicable")
        report.condition1_reason = report.condition2_reason = (
            f"m={m} does not divide winding {p.n}"
        )
        report.checks.append(
            CheckResult("m-divides-winding", False, f"{m} does not divide {p.n}")
        )
        return report
    report = branched_linkings(p, m)
    order = report.eta_order
    report.condition1 = order % 2 == 1
    report.condition1_reason = f"eta lift has order {order} in H1"
    nonzero = any(v != 0 for v in report.linkings)
    nonneg = all(v >= 0 for v in report.linkings)
    nonpos = all(v <= 0 for v in report.linkings)
    if not nonzero:
        report.condition2 = False
        report.condition2_reason = "condition (2) fails: all zero"
    elif nonneg or nonpos:
        report.condition2 = True
        report.condition2_reason = (
            f"linkings all {'non-negative' if nonneg else 'non-positive'} and not all zero"
        )
    else:
        report.condition2 = False
        report.condition2_reason = "condition (2) fails: mixed signs"
    if not _prime_power(m):
        report.verdict = "NotApplicable"
        report.checks.append(
            CheckResult("m-prime-power", False, f"m={m} is not a prime power")
        )
    elif report.condition1 and report.condition2:
        report.verdict = "Obstructed"
    else:
        report.verdict = "Inconclusive"
    return report


@dataclass
class AggregateReport:
    pattern: str
    n: int
    per_m: list[ObstructionReport]
    aggregate: str


def auto_verdict(p: ClaspPresentation, m_list: Sequence[int] = DEFAULT_M_LIST) -> AggregateReport:
    """Run the verdict for each m; the aggregate is Obstructed if any m is."""
    reports = [verdict(p, m) for m in m_list]
    if any(r.verdict == "Obstructed" for r in reports):
        agg = "Obstructed"
    elif any(r.verdict == "Inconclusive" for r in reports):
        agg = "Inconclusive"
    else:
        agg = "NotApplicable"
    return AggregateReport(p.name or "unnamed", p.n, reports, agg)


def cross_checks(p: ClaspPresentation) -> list[CheckResult]:
    """Structural consistency ledger for a presentation.

    Collects each degree's own report checks (palindrome, odd |H1|, parity
    forms) and adds the 2-vs-4 cover doubling identity, divisibility of
    |H1|, the lifted vector shapes, deck-relabel invariance, and
    cancelling-pair invariance, at every applicable cover degree.
    """
    checks: list[CheckResult] = []
    n = p.n
    degrees = [m for m in (2, 4, 8) if n % m == 0]
    runs = {m: _branched(p, m) for m in degrees}
    reports = {m: rep for m, (rep, _data) in runs.items()}

    if 4 in reports:
        lk2 = reports[2].linkings[0]
        lk4_1 = reports[4].linkings[0]
        checks.append(
            CheckResult(
                "two-vs-four-doubling",
                lk2 == 2 * lk4_1,
                f"lk_2 = {lk2}, 2*lk_4(adjacent) = {2 * lk4_1}",
            )
        )
        checks.append(
            CheckResult(
                "h1-divisibility",
                reports[4].h1_order % reports[2].h1_order == 0,
                f"|H1(2)| = {reports[2].h1_order} divides |H1(4)| = {reports[4].h1_order}",
            )
        )
    for m in degrees:
        rep, data = runs[m]
        checks.extend(rep.checks)
        k = len(p.clasps)
        x = data.eta_vs_surgery[0]
        if m == 2 and k:
            v = x[:k]
            ok = x[k:] == tuple(-t for t in v)
            y = data.eta_vs_surgery[1]
            ok = ok and y == tuple(-t for t in v) + v
            checks.append(CheckResult("vector-shape-m2", ok, f"x = {x}"))
        if m == 4 and k:
            u, v4, w4 = x[:k], x[k : 2 * k], x[2 * k : 3 * k]
            s = tuple(-(a + b + c) for a, b, c in zip(u, v4, w4))
            ok = x[3 * k :] == s
            y = data.eta_vs_surgery[2]
            ok = ok and y == w4 + s + u + v4
            checks.append(CheckResult("vector-shape-m4", ok, f"x = {x}"))
        # Deck-relabel invariance: any preferred lift gives the same vector.
        shifted, _z = _linkings_from_data(data, m, preferred=1)
        checks.append(
            CheckResult(
                f"deck-relabel-m{m}",
                shifted == rep.linkings,
                "linkings invariant under shifting the preferred lift",
            )
        )
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
                branched_linkings(doubled, m0).linkings == reports[m0].linkings,
                "linkings unchanged by a cancelling clasp pair",
            )
        )
        # Zero-clasp route: the surgery formula must agree with direct counts.
        if not p.clasps:
            direct = runs[m0][1].eta_linkings[(0, 1)]
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


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _fmt_linkings(linkings: Sequence[Fraction]) -> str:
    return "(" + ", ".join(format_rational(v) for v in linkings) + ")"


def report_to_dict(agg: AggregateReport) -> dict:
    return {
        "pattern": agg.pattern,
        "n": agg.n,
        "per_m": [
            {
                "m": r.m,
                "linkings": [format_rational(v) for v in r.linkings],
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


def report_to_json(agg: AggregateReport) -> str:
    return json.dumps(report_to_dict(agg), indent=2) + "\n"


def report_to_text(agg: AggregateReport) -> str:
    lines = [f"pattern {agg.pattern} (winding {agg.n})"]
    for r in agg.per_m:
        lines.append(f"  m={r.m}: verdict {r.verdict}")
        if r.linkings:
            lines.append(f"    linkings {_fmt_linkings(r.linkings)}")
            lines.append(f"    |H1| {r.h1_order}, eta order {r.eta_order}")
        lines.append(f"    condition1 {r.condition1}: {r.condition1_reason}")
        lines.append(f"    condition2 {r.condition2}: {r.condition2_reason}")
        for c in r.checks:
            lines.append(f"    check {c.name}: {'pass' if c.passed else 'FAIL'} ({c.detail})")
    lines.append(f"aggregate: {agg.aggregate}")
    return "\n".join(lines) + "\n"
