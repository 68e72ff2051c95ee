"""Correctness gate of the benchmark, run outside the timed region.

Every op is checked against the goldens when its spec has one (every op of
the default seed, since runs cycle over the set-up pool the goldens cover,
and every ``cables`` op), and against facts that hold at any seed:

* every degree: m - 1 linkings, palindromic; odd |H1| at 2-power degrees;
  the verdict and the aggregate follow from the linkings and the eta order;
* ``cables``: lk = n/m for every lift, |H1| = 1, verdict Obstructed;
* ``sweep``: lk_2 = 2 * lk_4[0] wherever both degrees run;
* the pattern text parses back to the op's presentation.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import degrees

GOLDENS = Path(__file__).with_name("goldens.json")
DEFAULT_SEED = 0


def op_key(op: tuple) -> str:
    return " ".join(str(v) for v in op)


def digest(text: str, report: str) -> str:
    return hashlib.sha256((text + report).encode()).hexdigest()[:16]


def load_goldens(workload: str) -> dict[str, str]:
    with GOLDENS.open() as fh:
        return json.load(fh)["workloads"][workload]


def _is_power_of_two(m: int) -> bool:
    return m & (m - 1) == 0


def _expected_verdict(linkings: list[Fraction], eta_order: int) -> str:
    nonzero = any(v != 0 for v in linkings)
    one_sign = all(v >= 0 for v in linkings) or all(v <= 0 for v in linkings)
    # Every degree the workloads run is a prime power.
    return "Obstructed" if eta_order % 2 == 1 and nonzero and one_sign else "Inconclusive"


def check(prog, op: tuple, inp, text: str, report: str, goldens: dict[str, str]) -> list[str]:
    """Problems with one op's output; an empty list means it is correct."""
    problems = []
    want = goldens.get(op_key(op))
    if want is not None and digest(text, report) != want:
        problems.append("output differs from the golden")

    doc = json.loads(report)
    if doc["n"] != op[1]:
        problems.append(f"winding {doc['n']} != {op[1]}")
    per_m = {r["m"]: r for r in doc["per_m"]}
    if list(per_m) != degrees(op):
        problems.append(f"degrees {list(per_m)} != {degrees(op)}")
    verdicts = []
    for m, r in per_m.items():
        lks = [Fraction(v) for v in r["linkings"]]
        if len(lks) != m - 1 or lks != lks[::-1]:
            problems.append(f"m={m}: linkings {r['linkings']} not m-1 palindromic values")
        if _is_power_of_two(m) and r["h1"] % 2 == 0:
            problems.append(f"m={m}: even |H1| = {r['h1']}")
        expected = _expected_verdict(lks, r["eta_order"])
        if r["verdict"] != expected:
            problems.append(f"m={m}: verdict {r['verdict']}, expected {expected}")
        verdicts.append(r["verdict"])
        if op[0] == "cable":
            n = op[1]
            if lks != [Fraction(n, m)] * (m - 1) or r["h1"] != 1 or r["verdict"] != "Obstructed":
                problems.append(f"m={m}: cable of winding {n} is not lk = n/m, |H1| = 1, Obstructed")
    aggregate = "Obstructed" if "Obstructed" in verdicts else "Inconclusive"
    if doc["aggregate"] != aggregate:
        problems.append(f"aggregate {doc['aggregate']}, expected {aggregate}")
    if 2 in per_m and 4 in per_m:
        lk2 = Fraction(per_m[2]["linkings"][0])
        lk4 = Fraction(per_m[4]["linkings"][0])
        if lk2 != 2 * lk4:
            problems.append(f"doubling identity fails: lk_2 = {lk2}, lk_4[0] = {lk4}")

    parsed = prog.pattern.parse(text)
    if op[0] == "annular":
        if parsed.n != op[1] or prog.pattern.serialize(parsed) != text:
            problems.append("normalized pattern text does not round-trip")
    elif parsed != inp:
        problems.append("pattern text does not parse back to the input")
    return problems
