"""The benchmark's workloads: seeded op specs, their inputs, and one timed op.

An op spec is a tuple of plain values that fully determines the op's input
through the program's own deterministic generators, so it also serves as the
op's key in the goldens. ``spec(workload, seed, i)`` gives op i of a run; ops
come in cycles (``CYCLE``) and a run stops only at a cycle boundary, so every
run holds the same mix of ops.

* ``ladder``: the ROADMAP size ladder up to lifted matrix size 64, one degree
  per op. The surgery-formula solve (``cha_ko``) is nearly all of the time.
* ``sweep``: many small patterns, as in the acceptance and selftest sweeps,
  a quarter of them normalized annular words. Lifted matrices stay small
  (at most 16 for the random presentations), so per-call fixed cost counts.
* ``cables``: zero-clasp cables of large winding at every prime-power degree.
  The surgery matrix is empty; building the cover and its lift data is the
  time.
"""

from __future__ import annotations

import random

WORKLOADS = ("ladder", "sweep", "cables")

# (winding n, clasps k, degree m); lifted matrix size N = k*m.
RUNGS = ((8, 4, 8), (8, 8, 8), (16, 4, 16))
CABLE_WINDINGS = (64, 96, 128, 192, 256, 384, 512)
SWEEP_DEGREES = (2, 3, 4)
# Windings 2..12 that at least one sweep degree divides (5, 7 and 11 would be
# ops with no degree to run).
SWEEP_WINDINGS = tuple(n for n in range(2, 13) if any(n % m == 0 for m in SWEEP_DEGREES))

# One sweep cycle: each (winding, clasps) shape once, and a quarter of the
# cycle normalized annular words. Fixing the mix per cycle keeps seeds from
# drawing different shares of the slow shapes.
SWEEP_SHAPES = tuple(("random", n, k) for n in SWEEP_WINDINGS for k in range(5)) + (
    ("annular", 4),
    ("annular", 6),
) * 7

CYCLE = {"ladder": len(RUNGS), "sweep": len(SWEEP_SHAPES), "cables": len(CABLE_WINDINGS)}


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}/{i}")


def _shuffled(items: tuple, workload: str, seed: int, i: int):
    """Item i of a sequence made of seeded shuffles of ``items``, one per cycle."""
    cycle, pos = divmod(i, len(items))
    order = list(items)
    _rng(workload, seed, -1 - cycle).shuffle(order)
    return order[pos]


def prime_power_degrees(n: int) -> list[int]:
    out = []
    for m in range(2, n + 1):
        if n % m:
            continue
        p = next(d for d in range(2, m + 1) if m % d == 0)  # smallest prime factor
        q = m
        while q % p == 0:
            q //= p
        if q == 1:
            out.append(m)
    return out


def spec(workload: str, seed: int, i: int) -> tuple:
    """Op i of a run with this seed."""
    if workload == "ladder":
        n, k, m = RUNGS[i % len(RUNGS)]
        return ("rung", n, k, m, _rng(workload, seed, i).randrange(2**31))
    if workload == "sweep":
        return _shuffled(SWEEP_SHAPES, workload, seed, i) + (_rng(workload, seed, i).randrange(2**31),)
    if workload == "cables":
        return ("cable", _shuffled(CABLE_WINDINGS, workload, seed, i))
    raise ValueError(f"unknown workload {workload!r}")


def make_input(prog, op: tuple):
    """The program input an op spec stands for: a presentation or an annular word."""
    kind = op[0]
    if kind == "rung":
        return prog.pattern.random_presentation(op[1], op[2], op[4])
    if kind == "random":
        return prog.pattern.random_presentation(op[1], op[2], op[3])
    if kind == "annular":
        return prog.downhill.random_annular_word(op[1], op[2])
    if kind == "cable":
        return prog.pattern.ClaspPresentation(op[1], (), name=f"cable-{op[1]}")
    raise ValueError(f"unknown op kind {kind!r}")


def degrees(op: tuple) -> list[int]:
    kind = op[0]
    if kind == "rung":
        return [op[3]]
    if kind == "random":
        return [m for m in SWEEP_DEGREES if op[1] % m == 0]
    if kind == "annular":
        return [2]
    return prime_power_degrees(op[1])


def run_op(prog, op: tuple, inp) -> tuple[str, str]:
    """The timed work of one op: the pattern text and its JSON verdict report.

    An annular input is first normalized to a presentation.
    """
    if op[0] == "annular":
        inp = prog.downhill.normalize(inp).presentation
    text = prog.pattern.serialize(inp)
    agg = prog.obstruct.auto_verdict(inp, degrees(op))
    return text, prog.obstruct.report_to_json(agg)
