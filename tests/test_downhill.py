"""Downhill traversal, returning-strand reduction, and clasp emission."""

import hashlib
import random

import pytest
from oracles import (
    backward_curve,
    forward_curve,
    greedy_strand_heights,
    random_event_word,
    stepwise_annular_word,
)

import coverlink.downhill
from coverlink import diagram, pattern
from coverlink.diagram import AnnularWord, Cap, Cross, Cup, Kink, analyze
from coverlink.downhill import (
    MultiComponentError,
    NotDownhillError,
    WindingTooSmallError,
    _curve,
    _Passage,
    _reversed,
    _strand_heights,
    force_downhill,
    is_downhill,
    normalize,
    random_annular_word,
    reduce_returning,
)
from coverlink.obstruct import auto_verdict, branched_linkings
from coverlink.pattern import cable_template, compile, validate


def _flip(word: AnnularWord, idx: int) -> AnnularWord:
    events = list(word.events)
    events[idx] = Cross(events[idx].position, not events[idx].upper_over)
    return AnnularWord(word.seam_orientations, tuple(events), word.labels)


def test_template_is_downhill_fixed_point():
    word = cable_template(6)
    out, changes = force_downhill(word)
    assert changes == () and out == word


def test_single_flip_detected_and_restored():
    word = cable_template(6)
    flipped = _flip(word, 2)
    out, changes = force_downhill(flipped)
    assert changes == (2,)
    assert out.events == word.events


def test_force_downhill_idempotent():
    word = _flip(_flip(cable_template(5), 1), 3)
    out, _ = force_downhill(word)
    assert is_downhill(out)
    again, changes = force_downhill(out)
    assert changes == () and again == out


def test_changes_bounded_by_crossing_count():
    for seed in range(20):
        word = random_annular_word(6, seed)
        crossings = sum(isinstance(e, Cross) for e in word.events)
        _, changes = force_downhill(word)
        assert len(changes) <= crossings


def test_force_downhill_rejects_multi_component():
    from coverlink.pattern import random_presentation

    word = compile(random_presentation(4, 1, 0))
    with pytest.raises(MultiComponentError):
        force_downhill(word)


def test_reduce_needs_downhill():
    mirror = AnnularWord(
        cable_template(4).seam_orientations,
        tuple(Cross(e.position, not e.upper_over) for e in cable_template(4).events),
        cable_template(4).labels,
    )
    with pytest.raises(NotDownhillError):
        reduce_returning(mirror)


def test_reduce_returning_reaches_wrapping_equals_winding():
    for seed in range(15):
        word = random_annular_word(6, seed)
        downhill, _ = force_downhill(word)
        reduced = reduce_returning(downhill)
        comp = analyze(reduced).components[0]
        assert comp.wrapping == abs(comp.winding) == 6


def test_reduce_wrapping_four_to_two():
    # Winding-2 word with one finger: wrapping 4 drops to 2 in one reduction.
    for seed in range(40):
        word = random_annular_word(2, seed)
        comp = analyze(word).components[0]
        if comp.wrapping != 4:
            continue
        downhill, _ = force_downhill(word)
        reduced = reduce_returning(downhill)
        assert analyze(reduced).components[0].wrapping == 2
        return
    raise AssertionError("no wrapping-4 sample found")


def test_reduce_returning_winding_zero_circle():
    word = AnnularWord((), (Cup(1, 1), Cap(1)))
    reduced = reduce_returning(word)
    comp = analyze(reduced).components[0]
    assert comp.wrapping == 0


def test_reduce_returning_unchanged_when_already_tight():
    word = cable_template(7)
    assert reduce_returning(word) == word


def test_normalize_template_is_cable_only():
    result = normalize(cable_template(6))
    assert result.orientation == "Standard"
    assert result.presentation.n == 6
    assert result.presentation.clasps == ()


def test_normalize_mirrored_cable_reports_reversed():
    word = cable_template(6)
    mirror = AnnularWord(
        word.seam_orientations,
        tuple(Cross(e.position, not e.upper_over) for e in word.events),
        word.labels,
    )
    result = normalize(mirror)
    assert result.orientation == "Reversed"
    assert result.presentation.clasps == ()


def test_normalize_single_flip_gives_one_clasp_with_parity():
    word = _flip(cable_template(6), 3)
    result = normalize(word)
    assert len(result.presentation.clasps) == 1
    rep = branched_linkings(result.presentation, 2)
    from fractions import Fraction

    val = (rep.linkings[0] - Fraction(3)) * rep.h1_order
    assert val.denominator == 1 and int(val) % 2 == 0


def test_normalize_requires_winding_at_least_two():
    with pytest.raises(WindingTooSmallError):
        normalize(cable_template(1))


def test_normalize_strips_kinks():
    word = cable_template(6)
    kinked = AnnularWord(
        word.seam_orientations, word.events + (Kink(2, -1),), word.labels
    )
    result = normalize(kinked)
    assert result.presentation.clasps == ()


def test_normalize_negative_winding_reports_reversed():
    word = cable_template(6)
    reversed_word = AnnularWord(
        tuple(-o for o in word.seam_orientations), word.events, word.labels
    )
    result = normalize(reversed_word)
    assert result.presentation.n == 6
    assert result.orientation == "Reversed"


def test_normalize_output_always_validates():
    for seed in range(25):
        result = normalize(random_annular_word(6, seed))
        assert validate(compile(result.presentation)).passed


def test_normalize_end_to_end_obstructed():
    for seed in range(25):
        result = normalize(random_annular_word(6, seed))
        assert auto_verdict(result.presentation, (2,)).aggregate == "Obstructed"


def test_random_annular_word_deterministic():
    assert random_annular_word(6, 12) == random_annular_word(6, 12)
    assert random_annular_word(6, 12) != random_annular_word(6, 13)


def test_random_annular_word_single_component_winding():
    for seed in range(30):
        comp = analyze(random_annular_word(6, seed)).components
        assert len(comp) == 1 and comp[0].winding == 6


def test_random_annular_word_matches_the_stepwise_oracle():
    # The oracle moves strands on an assembler stack; at n = 1 it fails unless
    # it draws no extra crossing pair, the generator's last draw.
    returned = 0
    for n in range(1, 33):
        for seed in range(300):
            try:
                want = stepwise_annular_word(n, seed)
            except ValueError:
                assert n == 1
                continue
            assert random_annular_word(n, seed) == want, (n, seed)
            returned += 1
    assert 31 * 300 < returned < 32 * 300


def test_random_annular_word_at_winding_one():
    for seed in range(300):
        comp = analyze(random_annular_word(1, seed)).components
        assert len(comp) == 1 and comp[0].winding == 1


@pytest.mark.parametrize("n", [0, -3])
def test_random_annular_word_rejects_winding_below_one(n):
    with pytest.raises(ValueError, match=f"got {n}$"):
        random_annular_word(n, 0)


def test_downhill_has_no_strand_assembler():
    # The generator keeps its stack as a list of strand ids; the assembler is an oracle.
    assert not hasattr(coverlink.downhill, "_Assembler")
    assert not hasattr(coverlink.downhill, "_Strand")


# ---------------------------------------------------------------------------
# The one walk over the sweep's joins, both ways, against the curve graph it replaced


def _flipped_and_kinked(word: AnnularWord, rng: random.Random) -> AnnularWord:
    """Flip about half the crossings and put a random kink before about a fifth of the events."""
    events: list = []
    size = len(word.seam_orientations)
    for ev in word.events:
        if size and rng.random() < 0.2:
            events.append(Kink(rng.randint(1, size), rng.choice((1, -1))))
        if isinstance(ev, Cross) and rng.random() < 0.5:
            ev = Cross(ev.position, not ev.upper_over)
        events.append(ev)
        size += 2 if isinstance(ev, Cup) else -2 if isinstance(ev, Cap) else 0
    return AnnularWord(word.seam_orientations, tuple(events), word.labels)


def _negated(word: AnnularWord) -> AnnularWord:
    """The same curve with its orientation reversed: winding -n."""
    return AnnularWord(
        tuple(-o for o in word.seam_orientations),
        tuple(Cup(ev.position, -ev.sign) if isinstance(ev, Cup) else ev for ev in word.events),
        word.labels,
    )


def test_curve_and_its_reverse_match_the_graph_walks():
    rng = random.Random(0)
    # Both seamless circles: the walk starts on a rightward and on a leftward cup.
    words = [AnnularWord((), (Cup(1, 1), Cap(1))), AnnularWord((), (Cup(1, -1), Cap(1)))]
    for n in range(2, 25):
        for seed in range(60):
            word = random_annular_word(n, seed)
            kinked = _flipped_and_kinked(word, rng)
            words += [word, kinked, _negated(word), _negated(kinked)]
    fuzzed = []
    while len(fuzzed) < 1000:
        word = random_event_word(rng)
        if len(analyze(word).components) == 1:
            fuzzed.append(word)
    assert {type(ev) for w in fuzzed for ev in w.events} == {Cross, Cup, Cap, Kink}
    assert any(len(set(w.seam_orientations)) == 2 for w in fuzzed)
    assert any(w.seam_width == 0 and len(w.events) > 2 for w in fuzzed)
    assert any(analyze(w).components[0].winding < 0 for w in fuzzed)
    for word in words + fuzzed:
        forward = _curve(word)
        assert forward == forward_curve(word)
        assert _reversed(forward) == backward_curve(word)


def test_random_annular_words_and_normalize_are_pinned():
    # Digests over n 2..24 and seeds 0..59 (1,380 words): any change to the
    # generated words, or to what normalize emits from them, shows here.
    words, results = hashlib.sha256(), hashlib.sha256()
    for n in range(2, 25):
        for seed in range(60):
            word = random_annular_word(n, seed)
            words.update(diagram.serialize(word).encode())
            r = normalize(word)
            results.update(
                (
                    pattern.serialize(r.presentation)
                    + r.orientation
                    + repr(r.changes)
                    + diagram.serialize(r.word)
                ).encode()
            )
    assert words.hexdigest() == (
        "7ba2474be9ac06528188f7acbdc0a7307879228777ed05c6e2540101e52feb58"
    )
    assert results.hexdigest() == (
        "c2912953399560749e3118e506844aca11875114aa5a74d847ff8d6e84caeb56"
    )


def test_strand_heights_match_the_greedy_oracle_on_random_cyclic_walks():
    # Shuffled directions put returning pairs anywhere, across the walk's ends too.
    rng = random.Random(0)
    straddling = 0
    for _ in range(3000):
        n, pairs, sign = rng.randint(2, 8), rng.randint(0, 6), rng.choice((1, -1))
        dirs = [sign] * n + [1, -1] * pairs
        rng.shuffle(dirs)
        straddling += dirs[0] == -dirs[-1]
        walk = []
        for i, d in enumerate(dirs):
            walk += [_Passage(i, rng.choice(("over", "under")))] * rng.randint(0, 2)
            walk.append(_Passage(-1, "seam", d))
        walk = walk[-3:] + walk[:-3]  # start mid-arc, not just after a seam crossing
        assert _strand_heights(walk, n) == greedy_strand_heights(walk, n)
    assert straddling > 500


def test_strand_heights_match_the_greedy_oracle_on_the_pinned_words():
    # Both walks of each of the 1,380 words that the normalize pin covers.
    for n in range(2, 25):
        for seed in range(60):
            forward = _curve(random_annular_word(n, seed))
            for walk in (forward, _reversed(forward)):
                assert _strand_heights(walk, n) == greedy_strand_heights(walk, n)
