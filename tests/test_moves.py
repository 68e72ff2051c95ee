"""Metamorphic checks of the lift tables: moves on a word transform them as on the curves.

Each move is a change to the diagram whose effect on every framing and
linking is known without computing either, so these check the sweep, the
tally and the per-degree fold against the geometry, not against an older
path. At every degree m dividing the windings:

* an R2 insertion ``Cross(p, f), Cross(p, not f)`` at an event index where p
  is a live gap leaves ``cover_tables(m)`` and ``lift_data`` unchanged;
* so does R3 on a same-flag triple: ``Cross(g, f) Cross(h, f) Cross(g, f)``
  with h = g ± 1 becomes ``Cross(h, f) Cross(g, f) Cross(h, f)``;
* the mirror (every crossing flag flipped, every kink negated) negates every
  framing and linking;
* reversing ``eta`` negates eta's rows with each clasp and leaves the
  framings and eta's self rows unchanged.

The direct reading of a random annular word, relabelled ``eta``, is also
checked against the theorems: palindromic at every prime-power degree, and
for even n with 8 not dividing n, Obstructed at m = 2 or m = 4.
"""

import dataclasses
import inspect
import math
import random
import textwrap
from itertools import count, islice

import pytest

import coverlink.diagram
from coverlink.cover import LiftedData, lift_data
from coverlink.diagram import _CROSSES, _KINKS, AnnularWord, Cap, Cross, Cup, Kink, WordAnalysis
from coverlink.diagram import _grow_tables, analyze
from coverlink.downhill import random_annular_word
from coverlink.linalg import IntMatrix
from coverlink.obstruct import _decide, _prime_power
from coverlink.pattern import cable_template, compile, random_presentation
from oracles import random_event_word


def _as_eta(word: AnnularWord) -> AnnularWord:
    """The word with the component through seam strand 1, its only label, labelled ``eta``."""
    return dataclasses.replace(word, labels=(("eta", 1),))


def _words():
    for n in (2, 3, 4, 6, 8, 12):
        for k in range(4):
            for seed in range(3):
                yield compile(random_presentation(n, k, seed))
    for seed in range(6):
        yield _as_eta(random_annular_word((2, 3, 4, 6, 8, 12)[seed], seed))
    yield cable_template(64)  # one run record, which an R2 insertion can split
    # Any number of components of any windings, the others unlabelled.
    event_words = (random_event_word(random.Random(f"moves-{seed}")) for seed in count())
    yield from islice((_as_eta(w) for w in event_words if w.seam_width), 40)


def _tables(word: AnnularWord) -> dict:
    """``cover_tables(m)`` and ``lift_data`` at each degree m dividing the windings."""
    ana = analyze(word)
    g = math.gcd(*(c.winding for c in ana.components))
    return {
        m: (*ana.cover_tables(m), lift_data(word, m)) for m in range(1, g + 1) if g % m == 0
    }


def _negated(tables: dict) -> dict:
    out = {}
    for m, (framing, lk, data) in tables.items():
        a = data.matrix
        out[m] = (
            {c: -f for c, f in framing.items()},
            {key: [-v for v in row] for key, row in lk.items()},
            LiftedData(
                IntMatrix(a.rows, a.cols, {key: -v for key, v in a.nonzeros.items()}),
                tuple(-v for v in data.eta_row),
                tuple(-v for v in data.eta_linkings),
            ),
        )
    return out


def _eta_reversed_tables(word: AnnularWord, tables: dict) -> dict:
    """The tables as reversing eta changes them: eta's rows with the clasps negate."""
    eta = analyze(word).component_by_name("eta")
    out = {}
    for m, (framing, lk, data) in tables.items():
        rows = {
            (a, b): [-v for v in row] if (a == eta) != (b == eta) else row
            for (a, b), row in lk.items()
        }
        out[m] = (framing, rows, data._replace(eta_row=tuple(-v for v in data.eta_row)))
    return out


def _mirror(word: AnnularWord) -> AnnularWord:
    """Every crossing flag flipped and every kink negated, from the shared tables."""
    _grow_tables(max((ev.position for ev in word.events), default=0) + 1)
    events = []
    for ev in word.events:
        if isinstance(ev, Cross):
            ev = _CROSSES[not ev.upper_over][ev.position]
        elif isinstance(ev, Kink):
            ev = _KINKS[ev.sign < 0][ev.position]
        events.append(ev)
    return dataclasses.replace(word, events=tuple(events))


def _reverse_eta(word: AnnularWord) -> AnnularWord:
    """eta run backwards: its seam strands and the cups that bear it change orientation."""
    ana = analyze(word)
    eta = ana.component_by_name("eta")
    seam = list(word.seam_orientations)
    for pos in ana.components[eta].seam_positions:
        seam[pos - 1] = -seam[pos - 1]
    events, born = [], word.seam_width  # the j-th cup bears segments width + 2j and + 2j + 1
    for ev in word.events:
        if isinstance(ev, Cup):
            if ana.component_of_segment(born) == eta:
                ev = Cup(ev.position, -ev.sign)
            born += 2
        events.append(ev)
    return dataclasses.replace(word, seam_orientations=tuple(seam), events=tuple(events))


def _r2_sites(word: AnnularWord, rng: random.Random, count: int):
    """``count`` random (event index, live gap, flag) sites of an R2 insertion."""
    live, gaps = word.seam_width, []
    for idx in range(len(word.events) + 1):
        gaps.append(live - 1)
        if idx < len(word.events):
            ev = word.events[idx]
            live += 2 if isinstance(ev, Cup) else -2 if isinstance(ev, Cap) else 0
    sites = [idx for idx, g in enumerate(gaps) if g >= 1]
    for idx in rng.sample(sites, min(count, len(sites))):
        yield idx, rng.randint(1, gaps[idx]), rng.random() < 0.5


def _r2(word: AnnularWord, idx: int, p: int, flag: bool) -> AnnularWord:
    crosses = _grow_tables(p + 1)
    pair = (crosses[flag][p], crosses[not flag][p])
    return dataclasses.replace(word, events=word.events[:idx] + pair + word.events[idx:])


def _r3_sites(word: AnnularWord):
    """Each same-flag triple ``Cross(g, f) Cross(h, f) Cross(g, f)``, h = g ± 1: (index, g, h, f)."""
    events = word.events
    for idx in range(len(events) - 2):
        a, b, c = events[idx : idx + 3]
        if type(a) is type(b) is Cross and a == c and b.upper_over == a.upper_over:
            if abs(b.position - a.position) == 1:
                yield idx, a.position, b.position, a.upper_over


def _r3(word: AnnularWord, idx: int, g: int, h: int, flag: bool) -> AnnularWord:
    crosses = _grow_tables(max(g, h) + 1)[flag]
    triple = (crosses[h], crosses[g], crosses[h])
    return dataclasses.replace(word, events=word.events[:idx] + triple + word.events[idx + 3 :])


def _check_moves(words) -> int:
    """Assert every move on every word; the number of (move, degree) pairs compared."""
    rng = random.Random("moves")
    compared = 0
    for word in words:
        tables = _tables(word)
        assert _tables(_mirror(word)) == _negated(tables), word
        assert _tables(_reverse_eta(word)) == _eta_reversed_tables(word, tables), word
        for idx, p, flag in _r2_sites(word, rng, 3):
            assert _tables(_r2(word, idx, p, flag)) == tables, (word, idx, p, flag)
        compared += 5 * len(tables)
    return compared


def test_moves_transform_the_lift_tables_as_they_transform_the_curves():
    analyze.cache_clear()
    assert _check_moves(_words()) == 1620


def test_r3_on_same_flag_triples_keeps_the_lift_tables():
    analyze.cache_clear()
    words = [
        compile(random_presentation(n, k, seed))
        for n in (2, 3, 4, 6, 8, 12, 16)
        for k in range(7)
        for seed in range(3)
    ]
    words += [_as_eta(random_annular_word(n, seed)) for n in range(2, 13) for seed in range(30)]
    sites, kinds = 0, set()
    for word in words:
        moves = list(_r3_sites(word))
        if moves:
            tables = _tables(word)
        for idx, g, h, flag in moves:
            assert _tables(_r3(word, idx, g, h, flag)) == tables, (word, idx, g, h, flag)
            sites += 1
            kinds.add((flag, h - g))
    # Enough triples of every (flag, direction) kind that the test checks something.
    assert sites >= 31 and kinds == {(f, d) for f in (False, True) for d in (-1, 1)}


@pytest.mark.parametrize("pair", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_a_mis_signed_orientation_pair_fails_the_moves(monkeypatch, pair):
    real = coverlink.diagram.crossing_sign

    def mis_signed(o_lower, o_upper, upper_over):
        sign = real(o_lower, o_upper, upper_over)
        return -sign if (o_lower, o_upper) == pair else sign

    monkeypatch.setattr(coverlink.diagram, "crossing_sign", mis_signed)
    analyze.cache_clear()
    try:
        with pytest.raises(AssertionError):
            _check_moves(_words())
    finally:
        analyze.cache_clear()


def test_a_self_row_fold_that_files_minus_d_under_the_wrong_d_fails_the_moves(monkeypatch):
    # Deliberate mutation: the tally folds a component's own row onto |d|
    # with its negative half unreversed, so a self crossing at -d lands under
    # r + 1 - d. An R2 insertion's two self crossings sit at d and -d with
    # opposite signs, so they stop cancelling, and
    # test_moves_transform_the_lift_tables_as_they_transform_the_curves fails.
    source = textwrap.dedent(inspect.getsource(WordAnalysis._lift_tally))
    fold = "c[r - 1 :: -1]"  # the deltas -1, ..., -r, against 1, ..., r
    assert source.count(fold) == 1
    namespace: dict = {}
    exec(source.replace(fold, "c[:r]"), vars(coverlink.diagram), namespace)
    monkeypatch.setattr(WordAnalysis, "_lift_tally", namespace["_lift_tally"])
    try:
        with pytest.raises(AssertionError):
            test_moves_transform_the_lift_tables_as_they_transform_the_curves()
    finally:
        analyze.cache_clear()


def test_direct_reading_of_random_annular_words_follows_the_theorems():
    # The reading a one-component word gets with no normalizer: its own lifts,
    # with |H1| = 1 and eta's order 1 (there is no surgery curve).
    degrees = words = 0
    for n in range(2, 25):
        for seed in range(30):
            word = _as_eta(random_annular_word(n, seed))
            verdicts = {}
            for m in filter(_prime_power, range(2, n + 1)):
                if n % m == 0:
                    vector = lift_data(word, m).eta_linkings[1:]
                    assert vector == vector[::-1], (n, seed, m)
                    verdicts[m] = _decide(m, vector, 1, ())[4]  # the decided verdict
                    degrees += 1
            if n % 2 == 0 and n % 8:
                assert any(verdicts[m] == "Obstructed" for m in (2, 4) if m in verdicts)
                words += 1
    assert (degrees, words) == (1350, 270)
