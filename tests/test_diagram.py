"""Annular word mechanics: parsing, components, and the counting rules."""

import contextlib
import dataclasses
import io
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import coverlink.diagram
from coverlink.cli import main
from coverlink.cover import build_cover
from coverlink.diagram import (
    AnnularWord,
    Cap,
    Component,
    Cross,
    Cup,
    DiagramError,
    DiagramSyntaxError,
    Kink,
    OrientationMismatch,
    SeamMismatch,
    StrandCountMismatch,
    UnknownComponentError,
    _AHEAD,
    _CROSSES,
    _RUN,
    _SweepResult,
    _sweep,
    analyze,
    parse,
    serialize,
)
from coverlink.downhill import force_downhill, normalize, random_annular_word
from coverlink.obstruct import auto_verdict
from coverlink.pattern import ClaspPresentation, cable_template, random_presentation
from coverlink.pattern import compile as compile_presentation
from coverlink.pattern import _grow_tables, validate
import oracles
from oracles import (
    crossing_lift_tally,
    keyed_cover_tables,
    locate_lift_tally,
    pair_stack_sweep,
    random_event_word,
    tally_keys,
    twist_surgery_pairs,
    two_orientation_cover_tables,
    union_find_analyze,
)
from test_pattern import _FUZZ, _NUMBERS, _compile_sample, _mutated


def _lift_table_words():
    # A kinked loop off the seam, clasping the bottom cable strand twice.
    loop = (Cup(1), Kink(1, -1), Cross(2, True), Cross(2, True), Cap(1))
    cable = cable_template(8)
    yield dataclasses.replace(cable, events=loop + cable.events)
    for seed in range(30):
        yield compile_presentation(random_presentation(2 + seed % 7, seed % 5, seed))
    for seed in range(15):
        word = random_annular_word(3 + seed % 6, seed)
        result = normalize(word)
        yield from (word, result.word, compile_presentation(result.presentation))
    for seed in range(12):  # the twisted-surgery words of test_obstruct
        p = random_presentation(8, 2 + seed % 3, seed)
        yield twist_surgery_pairs(compile_presentation(p), random.Random(seed), 4)


def test_flat_lift_table_matches_union_find_walk():
    analyze.cache_clear()
    words = list(_lift_table_words())
    assert any(c.seam_positions == () for w in words for c in analyze(w).components)
    for word in words:
        ana = analyze(word)
        lifts, tally = locate_lift_tally(ana)
        assert list(zip(ana._segment_component, ana._segment_sheet)) == lifts
        assert [ana.component_of_segment(s) for s in range(len(lifts))] == [c for c, _ in lifts]
        # The rows hold the walk's tally: every key inside its pair's row, every count in
        # place, and a component's own row folded onto |d|.
        (rows, kinks), (crossings, walk_kinks) = ana._lift_tally(), tally
        assert kinks == walk_kinks
        folded: dict[tuple[int, int, int], int] = {}
        for (a, b, d), v in crossings.items():
            key = (a, b, abs(d) if a == b else d)
            folded[key] = folded.get(key, 0) + v
        assert set(rows) == {(a, b) for a, b, _ in crossings}
        assert all(rows[a, a][0] == 0 for a, b, _ in crossings if a == b)
        assert all(rows[a, b][0] <= d < rows[a, b][0] + len(rows[a, b][1]) for a, b, d in folded)
        assert tally_keys(rows) == {key: v for key, v in folded.items() if v}


def _oracle_words():
    """Compiled, random, normalized and cover words, and one with a loop off the seam."""
    for i, p in enumerate(_compile_sample()):
        word = compile_presentation(p)
        yield word
        if i % 12 == 0:
            yield from (build_cover(word, m).word for m in (2, 3, 4) if p.n % m == 0)
    for n in range(2, 25):
        for seed in range(60):
            word = random_annular_word(n, seed)
            result = normalize(word)
            yield from (word, result.word, compile_presentation(result.presentation))
    loop = (Cup(1), Kink(1, -1), Cross(2, True), Cross(2, True), Cap(1))
    yield dataclasses.replace(cable_template(8), events=loop + cable_template(8).events)


def test_cycle_walk_matches_the_union_find_oracle():
    count = covers = off_seam = 0
    for word in _oracle_words():
        ana, oracle = analyze(word), union_find_analyze(word)
        assert ana.components == oracle.components
        assert ana._segment_component == oracle._segment_component
        assert ana._segment_sheet == oracle._segment_sheet
        assert ana._sheet_range == oracle._sheet_range
        assert ana._lift_tally() == oracle._lift_tally()
        count += 1
        covers += any(name.endswith(".1") for name, _ in word.labels)
        off_seam += any(not c.seam_positions for c in ana.components)
    assert count == 1057 + covers + 3 * 23 * 60 + 1
    assert (covers, off_seam) == (104, 86)


def _flat(sweep: _SweepResult) -> _SweepResult:
    """The sweep with every run spelled out as single crossings, as the oracle records them."""
    return sweep._replace(crossings=sweep.flat_crossings(), runs=[])


def _sweep_outcome(sweep, word):
    """``(result, None)``, or ``(None, (class, message, event))`` when the sweep raises."""
    try:
        return _flat(sweep(word)), None
    except Exception as exc:  # the class, the message and the event at fault must agree
        return None, (type(exc), str(exc), getattr(exc, "event", None))


def _broken(rng: random.Random, word: AnnularWord) -> AnnularWord:
    """The word with one event moved, retyped, re-signed, dropped or added, or its seam flipped."""
    events, seam = list(word.events), list(word.seam_orientations)
    i = rng.randrange(len(events) + 1)
    kind = rng.choice(("move", "retype", "sign", "drop", "add", "seam", "foreign"))
    if kind == "seam" and seam:
        h = rng.randrange(len(seam))
        seam[h] = -seam[h]
    elif kind == "add" or not events:
        p = rng.randint(-1, 8)
        events.insert(i, rng.choice((Cross(p, True), Cup(p, -1), Cap(p), Kink(p, 1))))
    elif kind == "foreign":
        events.insert(i, ("x", 1))
    else:
        i = min(i, len(events) - 1)
        ev = events[i]
        if kind == "drop":
            del events[i]
        elif kind == "move":
            moved = ev.position + rng.choice((-2, -1, 1, 2, 9))
            events[i] = dataclasses.replace(ev, position=moved)
        elif kind == "sign":
            events[i] = rng.choice((Cup(ev.position, rng.choice((-1, 1))), Kink(ev.position, -1)))
        else:
            events[i] = rng.choice((Cross(ev.position, False), Cup(ev.position), Cap(ev.position)))
    return AnnularWord(tuple(seam), tuple(events))


def test_sweep_matches_the_pair_stack_oracle():
    # Well-formed words give equal results; broken ones raise alike, down to the message.
    words = list(_oracle_words())
    rng = random.Random(28)
    words += [random_event_word(rng) for _ in range(2000)]
    for word in words:
        assert _flat(_sweep(word)) == pair_stack_sweep(word)
    raised: dict[type, int] = {}
    for word in [_broken(rng, rng.choice(words[-2000:])) for _ in range(4000)]:
        got, error = _sweep_outcome(_sweep, word)
        assert (got, error) == _sweep_outcome(pair_stack_sweep, word)
        if error:
            raised[error[0]] = raised.get(error[0], 0) + 1
    assert set(raised) == {
        StrandCountMismatch, OrientationMismatch, SeamMismatch, DiagramError
    }, raised


def _hand_built_runs():
    """Words whose crossings come from the shared table: runs at the edges of the rules."""
    r = _RUN
    lower, upper = _grow_tables(3 * r)
    seam, wide = (1,) * (r + 4), (1,) * (2 * r + 4)
    yield AnnularWord(seam, tuple(lower[1 : r + 4]))  # a run ending at the top gap
    yield AnnularWord(seam, tuple(lower[1 : r + 1] + upper[r + 1 : r + 4]))  # a flag change
    yield AnnularWord(seam, tuple(upper[1 : r + 4] + lower[1 : r + 4]))  # two runs, back to back
    for size in (r - 1, r, 2 * r - 1):
        yield AnnularWord(wide, tuple(lower[2 : 2 + size]))
        yield AnnularWord(wide, (Kink(3, 1), *lower[2 : 2 + size]))  # a run off the stride
    yield AnnularWord(seam, tuple(lower[r + 3 : 0 : -1]))  # a descending run
    mixed = (1, -1) * (r // 2 + 2)  # a run over strands of both orientations
    yield AnnularWord(mixed, tuple(lower[1 : r + 4] + upper[1 : r + 4]))
    # A run over two components: the mover passes a circle born below the top.
    yield AnnularWord(
        seam, (Cup(5), *(Kink(1, 1),) * (r - 1), *lower[1 : r + 6], Cap(4), *upper[r + 3 : 0 : -1])
    )
    # A run up to the shared table's last gap, with live strands above it and an event after it.
    top = len(lower)
    yield AnnularWord((1,) * (top + 4), (*lower[top - r - 4 :], lower[3]))


def _run_words():
    yield from (cable_template(n) for n in range(2, 513))
    for n in range(2, 20):
        for k in range(5):
            yield from (compile_presentation(random_presentation(n, k, s)) for s in range(2))
    for n in range(2, 14):
        yield from (random_annular_word(n, s) for s in range(4))
    hand = list(_hand_built_runs())
    yield from hand
    yield from (parse(serialize(w)) for w in hand)  # events that are not the shared objects


def test_runs_flatten_to_the_pair_stack_sweep_and_tally_alike():
    analyze.cache_clear()
    paths = {"slice": 0, "mixed": 0}
    for word in _run_words():
        sweep = _sweep(word)
        assert _flat(sweep) == pair_stack_sweep(word)
        ana = analyze(word)
        assert ana._lift_tally() == crossing_lift_tally(ana)
        comp = ana._segment_component
        for mover, crossed, signs, first in sweep.runs:
            assert len(crossed) >= _RUN and first % _RUN == 0
            covered = word.events[first : first + len(crossed)]
            assert all(ev is _CROSSES[ev.upper_over][ev.position] for ev in covered)
            paths["slice" if {comp[c] for c in crossed} == {comp[mover]} else "mixed"] += 1
    # Each cable with at least _RUN crossings is one run, added as one slice.
    assert paths["slice"] >= 512 - _RUN and paths["mixed"] > 0, paths
    analyze.cache_clear()


def test_run_records_sit_where_the_shared_crossings_run():
    hand = list(_hand_built_runs())
    runs = [[(first, len(crossed)) for _, crossed, _, first in _sweep(w).runs] for w in hand]
    r = _RUN
    assert runs == [
        [(0, r + 3)],  # up to the top gap
        [(0, r)],  # up to the flag change
        [(0, r + 3)],  # the second run starts off the stride, with 6 crossings after it
        [], [],  # _RUN - 1 crossings
        [(0, r)], [],  # _RUN crossings, on and off the stride
        [(0, 2 * r - 1)], [(r, r)],  # 2 * _RUN - 1 crossings: the stride catches _RUN
        [],  # descending
        [(0, r + 3)],  # over strands of both orientations
        [(r, r + 5)],  # over a circle
        [(0, r + 4)],  # up to the end of the shared table
    ]
    assert all(_sweep(parse(serialize(w))).runs == [] for w in hand)


def test_run_partners_grow_with_the_crossing_table():
    # Grown a little at a time, the index equals one built from the whole table.
    for width in (2, _RUN - 1, _RUN, _RUN + 1, 2 * _RUN + 3, len(_CROSSES[0]) + 5):
        _grow_tables(width)
        want = {
            id(row[p]): row[p + _RUN - 1] for row in _CROSSES for p in range(1, len(row) - _RUN + 1)
        }
        assert _AHEAD == want


def test_sweep_and_tally_signs_follow_the_crossing_sign_hook(monkeypatch):
    # A sign that is not a product of orientations: only (-1, +1, over) is positive.
    def hook(o_lower, o_upper, upper_over):
        return 1 if (o_lower, o_upper, upper_over) == (-1, 1, True) else -1

    calls = []
    monkeypatch.setattr(coverlink.diagram, "crossing_sign", lambda *a: calls.append(a) or hook(*a))
    monkeypatch.setattr(oracles, "crossing_sign", hook)
    analyze.cache_clear()
    words = [*_hand_built_runs(), cable_template(64)]
    words += [compile_presentation(random_presentation(9, k, k)) for k in range(4)]
    for word in words:
        sweep = _sweep(word)
        want = pair_stack_sweep(word)
        assert _flat(sweep) == want
        # The tally of the run records equals the tally of the oracle's single crossings.
        ana = analyze(word)
        singles = dataclasses.replace(ana, _sweep=want, _tally=None)
        assert ana._lift_tally() == singles._lift_tally()
    assert {sign for w in words for _, _, sign, _ in _sweep(w).flat_crossings()} == {-1, 1}
    assert len(calls) == 8  # the table, built once for the hook
    analyze.cache_clear()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AnnularWord([1, -1], (Cup(1, 1), Cap(1))), "seam_orientations must be a tuple"),
        (lambda: AnnularWord((1, -1), [Cup(1, 1), Cap(1)]), "events must be a tuple"),
        (lambda: AnnularWord((1,), (), [("eta", 1)]), "labels must be a tuple"),
        (lambda: AnnularWord((1,), (), (["eta", 1],)), "a label must be a (name, seam position)"),
        (lambda: AnnularWord((1,), (), (("eta", 1, 2),)), "a label must be a (name, seam"),
        (lambda: AnnularWord((1,), (), (("eta", True),)), "'eta' seam position must be an integer"),
        (lambda: AnnularWord((1,), (), (("eta", 1.0),)), "'eta' seam position must be an integer"),
        (lambda: Cross(1.0, True), "crossing position must be an integer, got 1.0"),
        (lambda: Cross(True, True), "crossing position must be an integer, got True"),
        (lambda: Cross(1, "x"), "upper_over must be a bool, got 'x'"),
        (lambda: Cross(1, 1), "upper_over must be a bool, got 1"),
        (lambda: Cup(1.5), "cup position must be an integer"),
        (lambda: Cap(False), "cap position must be an integer"),
        (lambda: Kink("1", 1), "kink position must be an integer"),
        (lambda: Kink(1, 2), "kink sign must be +1 or -1, got 2"),
        (lambda: Kink(1, True), "kink sign must be +1 or -1, got True"),
        (lambda: Cup(1, 0), "cup sign must be +1 or -1, got 0"),
        (lambda: Cup(1, -1.0), "cup sign must be +1 or -1, got -1.0"),
        (lambda: AnnularWord((1.0, 1), (Cross(1, False),)), "seam orientations must be +1 or -1"),
        (lambda: AnnularWord((True, -1), (Cross(1, False),)), "seam orientations must be +1 or -1"),
    ],
    ids=[
        "list-seam", "list-events", "list-labels", "list-label", "long-label", "bool-label",
        "float-label", "float-cross", "bool-cross", "str-flag", "int-flag", "float-cup",
        "bool-cap", "str-kink", "two-kink", "bool-kink", "zero-cup", "float-cup-sign",
        "float-seam", "bool-seam",
    ],
)
def test_words_hold_only_what_their_text_form_reads_back(build, message):
    # Each of these once built, then failed in analyze, hash or the round trip.
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_kink_and_cup_signs_round_trip():
    # Only +1 and -1 build, and each reads back as itself, not as the other sign.
    for sign in (1, -1):
        for word in (AnnularWord((1,), (Kink(1, sign),)), AnnularWord((), (Cup(1, sign), Cap(1)))):
            assert parse(serialize(word)) == word


def test_a_word_with_a_non_event_entry_fails_at_its_index():
    word = AnnularWord((1,), (Kink(1, 1), "junk"))  # the constructor does no per-event work
    for step in (serialize, analyze):
        with pytest.raises(DiagramError, match=re.escape("event 1: unknown event 'junk'")) as info:
            step(word)
        assert type(info.value) is DiagramError and info.value.event == 1


def test_words_of_the_checked_types_round_trip():
    events = (Cup(1, 1), Cross(2, False), Cross(2, False), Cap(1))
    word = AnnularWord((1, -1), events, (("eta", 2),))
    assert parse(serialize(word)) == word and hash(parse(serialize(word))) == hash(word)
    assert analyze(word).components == (
        Component(0, (1,), 1, 1), Component(1, (2,), -1, 1), Component(2, (), 0, 0)
    )
    assert Component._fields == ("cid", "seam_positions", "winding", "wrapping")


def test_analyze_builds_no_union_find():
    # analyze and the normalizer walk the sweep's joins; the union-find is gone.
    assert not hasattr(coverlink.diagram, "_UnionFind")
    analyze.cache_clear()
    assert len(analyze(cable_template(512))._segment_sheet) == 512


def test_two_labels_on_one_component_raise_naming_both():
    # The winding-2 cable is one component through both seam strands.
    # analyze rejects the word, so nothing downstream accepts a word that parse would refuse.
    word = AnnularWord((1, 1), (Cross(1, True),), (("eta", 1), ("L1", 2)))
    for reader in (analyze, validate, force_downhill, normalize):
        with pytest.raises(DiagramError, match="^label 'L1' names the component labeled 'eta'$"):
            reader(word)
    with pytest.raises(DiagramSyntaxError, match="^line 4, col 2: label 'L1' names the component"):
        parse(serialize(word))
    ana = analyze(AnnularWord((1, 1), (Cross(1, True),), (("eta", 1),)))
    assert ana.labels() == {0: "eta"} and ana.labels() is ana.labels()


def _fold_words():
    for n in range(2, 17):
        for k in range(7):
            yield compile_presentation(random_presentation(n, k, 100 * n + k))
    for seed in range(15):
        word = random_annular_word(3 + seed % 6, seed)
        result = normalize(word)
        yield from (word, result.word)
    for seed in range(12):
        p = random_presentation(8, 2 + seed % 3, seed)
        yield twist_surgery_pairs(compile_presentation(p), random.Random(seed), 4)
    for n in (64, 96, 128, 192, 256, 384, 512):
        yield cable_template(n)


def _fold_path_words():
    # Two loops off the seam, hooked once, one with a curl, before the
    # (4,1)-cable: their pair's row and the curled loop's own row each hold
    # one count at delta 0, so they are placed without wrapping.
    cable = cable_template(4)
    loops = (Cup(1), Cup(3), Cross(2, True), Cross(2, True), Cross(1, True), Cap(1), Cap(1))
    yield dataclasses.replace(cable, events=loops + cable.events)
    yield from _fold_words()


def _fold_degrees(ana):
    # Every divisor m of the windings' gcd (every m up to 6 when all windings are 0).
    g = math.gcd(*(c.winding for c in ana.components))
    return [m for m in range(1, g + 1) if g % m == 0] if g else range(1, 7)


def _fold_path(a, b, lo, counts, m):
    size, s = len(counts), lo % m
    if a == b:
        return "self"
    if size > m * m:
        return "slice sums"
    if size > m:
        return "chunks"
    return "wrapped" if s + size > m else "placed"


def test_cover_tables_match_the_two_orientation_fold():
    # The one fold per row gives the oracle's framings and halved linkings.
    analyze.cache_clear()
    degrees_seen = set()
    for word in _fold_words():
        ana = analyze(word)
        for m in _fold_degrees(ana):
            framing, lk = ana.cover_tables(m)
            framing_oracle, twice = two_orientation_cover_tables(ana, m)
            assert framing == framing_oracle
            assert all(v % 2 == 0 for v in twice.values())
            rows = {pair: (0, row) for pair, row in lk.items()}
            assert tally_keys(rows) == {key: v // 2 for key, v in twice.items() if v}
            assert all(len(row) == m for row in lk.values())
            entries = [v for row in lk.values() for v in row]
            assert all(type(v) is int for v in (*framing.values(), *entries))
            degrees_seen.add(m)
    assert set(range(1, 17)) | {64, 128, 256, 512} <= degrees_seen


def test_cover_tables_rows_match_the_key_by_key_fold():
    # Bit for bit against the fold the rows replaced, on words that take
    # every fold path: m slice sums, m-chunks after the first wrap, a short
    # row wrapped or placed whole, and a component's own row.
    analyze.cache_clear()
    paths = set()
    for word in _fold_path_words():
        ana = analyze(word)
        for m in _fold_degrees(ana):
            framing, lk = ana.cover_tables(m)
            framing_oracle, keyed = keyed_cover_tables(ana, m)
            assert framing == framing_oracle
            pairs = set(lk) | {(a, b) for a, b, _ in keyed}
            for a, b in pairs:
                assert lk.get((a, b), [0] * m) == [keyed.get((a, b, d), 0) for d in range(m)]
            rows = ana._lift_tally()[0]
            paths.update(_fold_path(a, b, lo, c, m) for (a, b), (lo, c) in rows.items() if any(c))
    assert paths == {"slice sums", "chunks", "wrapped", "placed", "self"}


def _plant(rows, a, b, delta):
    # One more crossing of pair (a, b) at delta, widening the row if needed.
    lo, counts = rows.get((a, b), (delta, [0]))
    start, stop = min(lo, delta), max(lo + len(counts), delta + 1)
    planted = [0] * (stop - start)
    planted[lo - start : lo - start + len(counts)] = counts
    planted[delta - start] += 1
    return {**rows, (a, b): (start, planted)}


@pytest.mark.parametrize("key, m", [((0, 1, 0), 1), ((0, 1, 3), 4), ((0, 0, 1), 4)])
def test_cover_tables_assert_closed_curves_cross_evenly(key, m):
    # One crossing too many: between eta and a surgery curve, or between two eta lifts.
    ana = analyze(compile_presentation(random_presentation(4, 2, 0)))
    rows, kinks = ana._lift_tally()
    planted = dataclasses.replace(ana, _tally=(_plant(rows, *key), kinks))
    with pytest.raises(AssertionError, match="closed curves must cross evenly"):
        planted.cover_tables(m)


def test_parse_serialize_round_trip():
    word = cable_template(3)
    assert parse(serialize(word)) == word


def test_parse_round_trip_with_all_event_kinds():
    word = AnnularWord(
        (1, -1, 1),
        (Cup(2, -1), Cross(2, True), Cap(2), Kink(1, -1), Cross(1, False), Cross(1, True)),
        (("eta", 3),),
    )
    # Only valid words round-trip; make sure this one is valid first.
    analyze(word)
    assert parse(serialize(word)) == word



@pytest.mark.parametrize(
    "labels, message",
    [
        ((("eta", 1), ("eta", 2)), "duplicate label 'eta'"),
        ((("my curve", 1),), "label name must be one token without '#', got 'my curve'"),
        ((("a#b", 1),), "label name must be one token without '#', got 'a#b'"),
        ((("", 1),), "label name must be one token without '#', got ''"),
    ],
    ids=["repeated", "space", "hash", "empty"],
)
def test_word_rejects_labels_that_parse_cannot_read_back(labels, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        AnnularWord((1, 1), (Cross(1, True),) * 2, labels)


def test_labelled_words_still_round_trip():
    covers = [
        build_cover(compile_presentation(random_presentation(8, 3, seed)), m).word
        for seed in range(4)
        for m in (2, 4, 8)
    ]
    words = [w for w in (*_lift_table_words(), *covers) if w.labels]
    assert len(words) == 100
    for word in words:
        assert parse(serialize(word)) == word


def test_a_pickled_word_hashes_afresh_in_another_process():
    # String hashes are salted per process, so a word's cached hash must not travel.
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    word = "AnnularWord((1, 1), (Cross(1, True),), (('eta', 1),))"
    head = f"import pickle, sys; from coverlink.diagram import *; w = {word}; "
    dump = head + "hash(w); sys.stdout.buffer.write(pickle.dumps(w))"
    load = head + (
        "w2 = pickle.loads(sys.stdin.buffer.read()); analyze(w); "
        "print(w2 == w, hash(w2) == hash(w), w2 in {w}, analyze(w2) is analyze(w))"
    )

    def run(script: str, seed: str, stdin: bytes | None = None) -> bytes:
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        command = [sys.executable, "-c", script]
        return subprocess.run(
            command, input=stdin, env=env, capture_output=True, check=True, timeout=60
        ).stdout

    assert run(load, "2", run(dump, "1")) == b"True True True True\n"


def test_events_are_slotted_values():
    events = (Cup(2, -1), Cross(2, True), Cap(2), Kink(1, -1), Cross(1, False), Cross(1, True))
    assert not any(hasattr(ev, "__dict__") for ev in events)
    with pytest.raises(dataclasses.FrozenInstanceError):
        events[1].position = 3
    copies = tuple(dataclasses.replace(ev) for ev in events)
    assert copies == events and all(a is not b for a, b in zip(copies, events))
    assert [hash(a) for a in copies] == [hash(ev) for ev in events]
    assert len(set(events + copies)) == len(events) and Cross(1, True) != Cross(1, False)
    word = AnnularWord((1, -1, 1), events, (("eta", 3),))
    assert parse(serialize(word)).events == events

def test_empty_events_single_seam_strand():
    word = parse("annular v1\nseam 1 +\n")
    (comp,) = analyze(word).components
    assert comp.wrapping == 1 and comp.winding == 1


def test_parse_rejects_out_of_range_cap():
    text = "annular v1\nseam 2 ++\ncap 5\n"
    with pytest.raises(StrandCountMismatch):
        parse(text)


def test_parse_type_errors_name_their_line():
    # Comments, blank lines and a label put event 1 on line 7 and the seam on line 3.
    head = "annular v1\n# two strands\nseam 2 ++\n\nlabel eta seam 1\nx 1 over\n"
    with pytest.raises(StrandCountMismatch, match="^line 7: event 1: crossing at gap 3 "):
        parse(head + "x 3 over  # past the top\n")
    with pytest.raises(OrientationMismatch, match="^line 6: event 0: cap joins"):
        parse(head.replace("x 1 over", "cap 1"))
    with pytest.raises(SeamMismatch, match="^line 3: word ends with 4 strands"):
        parse(head + "cup 1 +\n")


def test_parse_syntax_error_carries_location():
    with pytest.raises(DiagramSyntaxError) as exc:
        parse("annular v1\nseam 2 ++\nx nonsense over\n")
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "line, token",
    [("x 1_0 over", "1_0"), ("x \u0661 over", "\u0661"), ("cup 0_1 +", "0_1"),
     ("kink \u0662 -", "\u0662"), ("label eta seam 0_1", "0_1")],
)
def test_parse_rejects_non_canonical_numbers(line, token):
    # The cable of winding 2 with one line swapped; "1" and "+1" read as 1.
    text = "annular v1\nseam 2 ++\nlabel eta seam 1\nx 1 over\n"
    assert parse(text.replace("x 1 ", "x +1 ")) == parse(text)
    bad = text.replace("x 1 over", line) if line.startswith("x") else text + line + "\n"
    with pytest.raises(DiagramSyntaxError, match=f"got {token!r}$") as exc:
        parse(bad)
    assert exc.value.line == bad.splitlines().index(line) + 1


def test_parse_rejects_missing_header():
    with pytest.raises(DiagramSyntaxError):
        parse("seam 2 ++\n")


def test_seam_orientation_mismatch():
    # One crossing on anti-parallel strands swaps a + into a - position.
    word_text = "annular v1\nseam 2 +-\nx 1 over\n"
    with pytest.raises(SeamMismatch):
        parse(word_text)


def test_cap_needs_opposite_orientations():
    with pytest.raises(OrientationMismatch):
        analyze(AnnularWord((1, 1, 1, -1), (Cap(1),)))


def test_parallel_seam_strands_do_not_link():
    ana = analyze(parse("annular v1\nseam 2 ++\n"))
    assert len(ana.components) == 2
    assert ana.cover_tables(1) == ({0: 0, 1: 0}, {})


def test_two_split_circles_do_not_link():
    # Two circles on disjoint gaps, neither crossing the seam.
    ana = analyze(AnnularWord((), (Cup(1, 1), Cup(3, 1), Cap(3), Cap(1))))
    assert len(ana.components) == 2
    assert ana.cover_tables(1)[1] == {}
    assert ana.components[0].wrapping == 0


def test_positive_hopf_clasp_linking_is_one():
    # Two circles clasped by two same-sign crossings; half-sum oracle gives +1.
    word = AnnularWord(
        (),
        (
            Cup(1, 1),
            Cup(2, 1),
            Cross(1, False),
            Cross(3, False),
            Cap(2),
            Cap(1),
        ),
    )
    ana = analyze(word)
    assert len(ana.components) == 2
    lk = ana.cover_tables(1)[1]
    assert lk[0, 1] == [1] and type(lk[0, 1][0]) is int


def test_linking_symmetric():
    # Mixed flags cancel, so the pair has no row; two over flags clasp negatively.
    for first_over, want in ((False, 0), (True, -1)):
        word = AnnularWord(
            (),
            (Cup(1, 1), Cup(2, 1), Cross(1, first_over), Cross(3, True), Cap(2), Cap(1)),
        )
        ana = analyze(word)
        assert len(ana.components) == 2
        lk = ana.cover_tables(1)[1]
        assert lk.get((0, 1), (0,))[0] == lk.get((1, 0), (0,))[0] == want


def test_kink_framing():
    word = AnnularWord((1,), (Kink(1, 1),))
    assert analyze(word).cover_tables(1)[0] == {0: 1}


def test_cable_template_framing_counts_self_crossings():
    ana = analyze(cable_template(6))
    eta = ana.component_by_name("eta")
    assert ana.cover_tables(1)[0][eta] == 5


def test_winding_negates_under_orientation_reversal():
    word = cable_template(5)
    flipped = AnnularWord(
        tuple(-o for o in word.seam_orientations), word.events, word.labels
    )
    assert analyze(word).components[0].winding == 5
    (comp,) = analyze(flipped).components
    assert (comp.winding, comp.wrapping) == (-5, 5)


def test_winding_bounded_by_wrapping():
    for word in (cable_template(2), cable_template(7)):
        for comp in analyze(word).components:
            assert abs(comp.winding) <= comp.wrapping


def test_component_ids_stable_under_round_trip():
    word = cable_template(4)
    again = parse(serialize(word))
    assert [c.seam_positions for c in analyze(word).components] == [
        c.seam_positions for c in analyze(again).components
    ]


def test_component_lookups_reject_an_index_out_of_range():
    ana = analyze(compile_presentation(random_presentation(4, 2, 0)))
    count = len(ana._segment_component)
    assert count == 12
    assert {ana.component_of_segment(s) for s in range(count)} == {0, 1, 2}
    for seg in (-1, -3, count, 10**6):
        with pytest.raises(UnknownComponentError, match=f"^segment {seg} out of range$"):
            ana.component_of_segment(seg)
    for pos in (0, ana.word.seam_width + 1):
        with pytest.raises(UnknownComponentError, match=f"^seam position {pos} out of range$"):
            ana.component_of_seam(pos)


def test_cup_sign_parses_and_defaults():
    w1 = parse("annular v1\nseam 0\ncup 1\ncap 1\n")
    w2 = parse("annular v1\nseam 0\ncup 1 +\ncap 1\n")
    w3 = parse("annular v1\nseam 0\ncup 1 -\ncap 1\n")
    assert w1 == w2 and w2 != w3


def test_labels_resolve_to_components():
    word = cable_template(6)
    ana = analyze(word)
    assert ana.labels() == {ana.component_by_name("eta"): "eta"}


def test_equal_words_hash_equal_and_hash_once():
    word = cable_template(6)
    again = parse(serialize(word))
    assert again == word and again is not word
    events = word.events
    key = (word.seam_orientations, word.labels, len(events), events[:2], events[-2:])
    assert hash(again) == hash(word) == hash(key)
    assert hash(AnnularWord((1,), (Kink(1, 1),))) != hash(AnnularWord((1,), (Kink(1, -1),)))
    # The hash is kept on the word; fields, equality and repr are the dataclass's own.
    assert "_hash" in vars(word) and "_hash" not in repr(word)
    assert [f.name for f in dataclasses.fields(word)] == ["seam_orientations", "events", "labels"]


def test_words_sharing_the_hash_key_keep_their_own_analyses():
    # The key reads the first and last two events only; a middle event tells these apart.
    word = cable_template(6)
    events = list(word.events)
    events[2] = Cross(events[2].position, not events[2].upper_over)
    other = dataclasses.replace(word, events=tuple(events))
    assert other != word and hash(other) == hash(word)
    analyze.cache_clear()
    ana, other_ana = analyze(word), analyze(other)
    assert ana is not other_ana and (ana.word, other_ana.word) == (word, other)
    assert ana.cover_tables(1)[0] == {0: 5} and other_ana.cover_tables(1)[0] == {0: 3}
    assert analyze(word) is ana and analyze(other) is other_ana


def test_cable_op_analyze_hits_and_misses():
    # One cable report at every prime-power degree analyzes its word once.
    analyze.cache_clear()
    auto_verdict(ClaspPresentation(64, (), name="cable-64"), (2, 4, 8, 16, 32, 64))
    info = analyze.cache_info()
    assert (info.hits, info.misses) == (7, 1)


# ---------------------------------------------------------------------------
# Fuzzing the annular reader: a mutated text is a word or a DiagramError, and
# ``coverlink validate`` on it exits 0 or 2 without a traceback.

_WORD_TEXTS = [
    serialize(compile_presentation(random_presentation(n, k, 0))) for n, k in ((2, 1), (4, 2))
] + [serialize(random_annular_word(4, seed)) for seed in range(2)] + [
    serialize(cable_template(3)),
    "annular v1\nseam 3 +-+\nlabel eta seam 3\ncup 2 -\nx 2 over\ncap 2\nkink 1 -\n",
]
_WORD_TOKENS = st.one_of(
    _NUMBERS,
    st.sampled_from([
        "", " ", "\n", "#", "-", "+", "+-", "-+", "x", "over", "under", "cup", "cap", "kink",
        "label", "seam", "eta", "annular v1",
    ]),
    st.text(max_size=6),
)


@_FUZZ
@given(st.one_of(_mutated(_WORD_TEXTS, _WORD_TOKENS), st.text(max_size=40)))
@example("annular v1\nseam 2 ++\nlabel eta seam 1\nx 1_0 over\n")
@example("annular v1\nseam 2 ++\nlabel eta seam 1\nx \u0661 over\n")
def test_parse_fuzzed_text_raises_only_diagram_errors(tmp_path_factory, text):
    try:
        word = parse(text)
    except DiagramSyntaxError as exc:
        assert str(exc).startswith(f"line {exc.line}, col {exc.col}: ")
    except DiagramError as exc:  # a well-formed word that fails its type check
        assert str(exc).startswith("line ")
    else:
        assert isinstance(word, AnnularWord)
        # Every number it read is an ASCII [+-]?[0-9]+ token.
        for line in text.splitlines():
            toks = line.split("#", 1)[0].split()
            if toks and toks[0] in ("seam", "x", "cup", "cap", "kink", "label"):
                assert re.fullmatch(r"[+-]?[0-9]+", toks[3 if toks[0] == "label" else 1]), line
    path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    assert code in (0, 2) and "Traceback" not in err.getvalue()
