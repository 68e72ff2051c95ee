"""Cut-and-stack covers: lift counts, deck action, and lifted data.

The one-sweep ``lift_data`` is checked bit for bit against the cover word.
"""

import dataclasses
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import coverlink.cover
from coverlink.cover import (
    WindingNotDivisibleError,
    build_cover,
    lift_data,
    lifted_eta_linkings,
    lifted_linking_matrix,
)
import coverlink.diagram
from coverlink.diagram import AnnularWord, Cap, Cross, Cup, analyze, parse, serialize
from coverlink.downhill import normalize, random_annular_word
from coverlink.pattern import ClaspPresentation, ClaspSpec, cable_template, compile, random_presentation
from coverlink.pattern import parse as parse_pattern
from coverlink.obstruct import auto_verdict
from oracles import (
    block_circulant_split,
    cover_eta_rows,
    deck_translate,
    keyed_cover_tables,
    pairwise_lifted_linking_matrix,
    rotated_eta_rows,
    snapshot_lift_map,
    twist_surgery_pairs,
    union_find_sweep,
)
from test_pattern import _validation_sample


def test_trivial_cover_is_base():
    word = cable_template(4)
    cd = build_cover(word, 1)
    assert cd.word.events == word.events
    assert all(cd.deck[c] == c for c in cd.deck)


def test_trivial_cover_of_a_word_without_events():
    # The oracle sweep's only record of live segments is then the one after the last event.
    word = AnnularWord((1, -1), (), (("eta", 1),))
    cd = build_cover(word, 1)
    assert cd.lift_map == {(0, 0): 0, (1, 0): 1}
    assert union_find_sweep(word).live_segments == [(0, 1)]
    assert snapshot_lift_map(word, 1) == cd


def test_cable_6_double_cover_links_3():
    cd = build_cover(cable_template(6), 2)
    eta = analyze(cable_template(6)).component_by_name("eta")
    assert len(cd.lifts_of(eta)) == 2
    assert lifted_eta_linkings(cd)[(0, 1)] == 3


def test_cable_goldens_all_divisors():
    for n in range(2, 13):
        word = cable_template(n)
        for m in range(2, n + 1):
            if n % m:
                continue
            vals = set(lifted_eta_linkings(build_cover(word, m)).values())
            assert vals == {Fraction(n, m)}, (n, m, vals)


def test_winding_not_divisible_rejected():
    with pytest.raises(WindingNotDivisibleError) as exc:
        build_cover(cable_template(6), 4)
    assert exc.value.winding == 6 and exc.value.m == 4


def test_winding_zero_component_always_lifts():
    p = ClaspPresentation(4, (ClaspSpec(0, 1, 2, "ou", 1, -1),))
    word = compile(p)
    cd = build_cover(word, 4)
    clasp = analyze(word).component_by_name("L1")
    assert len(set(cd.lifts_of(clasp))) == 4


def test_deck_translate_orders():
    word = compile(random_presentation(6, 2, 1))
    cd = build_cover(word, 2)
    eta = analyze(word).component_by_name("eta")
    pref = cd.lift(eta, 0)
    assert deck_translate(cd, pref, 0) == pref
    assert deck_translate(cd, pref, cd.m) == pref
    assert deck_translate(cd, pref, 1) == cd.lift(eta, 1)
    assert deck_translate(cd, pref, 1) != pref


def test_lifted_matrix_empty_without_clasps():
    cd = build_cover(cable_template(6), 2)
    data = lifted_linking_matrix(cd)
    assert data.matrix.rows == 0


def test_one_clasp_m2_block_form():
    p = ClaspPresentation(4, (ClaspSpec(0, 1, 3, "uoou", 1, 1),))
    data = lifted_linking_matrix(build_cover(compile(p), 2))
    a = data.matrix
    assert a.rows == 2
    assert a[0, 0] == a[1, 1]  # equal framings on the diagonal
    assert a[0, 1] == a[1, 0]


def test_framing_linking_sum_rule():
    p = random_presentation(8, 3, 4)
    word = compile(p)
    base = analyze(word)
    base_framing = base.cover_tables(1)[0]
    eps = {cid: base_framing[cid] for cid, name in base.labels().items() if name != "eta"}
    for m in (2, 4, 8):
        cd = build_cover(word, m)
        framing, lk = cd.analysis.cover_tables(1)
        for cid, eps_c in eps.items():
            lifts = cd.lifts_of(cid)
            total = sum(framing[c] for c in lifts)
            total += 2 * sum(
                lk.get((lifts[i], lifts[j]), (0,))[0]
                for i in range(m)
                for j in range(i + 1, m)
            )
            assert total == m * eps_c


def test_equivariance_block_circulant_and_eta_difference():
    p = random_presentation(8, 3, 7)
    word = compile(p)
    for m in (2, 4):
        cd = build_cover(word, m)
        data = lifted_linking_matrix(cd)
        block_circulant_split(data.matrix, m)  # raises if not block circulant
        lks = lifted_eta_linkings(cd)
        for j in range(m):
            for k in range(m):
                if j != k:
                    assert lks[(j, k)] == lks[(0, (k - j) % m)]


def test_matrix_symmetric_and_lift_major_ordering():
    p = random_presentation(6, 2, 2)
    word = compile(p)
    data = lifted_linking_matrix(build_cover(word, 2))
    a = data.matrix
    assert all(a[i, j] == a[j, i] for i in range(a.rows) for j in range(a.rows))
    ana = analyze(word)
    order = [f"{ana.labels()[c]}.{b}" for b in range(2) for c in ana.lift_order]
    assert order == ["L1.0", "L2.0", "L1.1", "L2.1"]


def test_deck_is_m_cycle_on_eta_lifts():
    word = cable_template(8)
    cd = build_cover(word, 4)
    eta = analyze(word).component_by_name("eta")
    seen = {cd.lift(eta, 0)}
    cur = cd.lift(eta, 0)
    for _ in range(3):
        cur = cd.deck[cur]
        seen.add(cur)
    assert len(seen) == 4


def test_cover_word_carries_lift_labels():
    cd = build_cover(cable_template(6), 2)
    names = [name for name, _ in cd.word.labels]
    assert "eta.0" in names and "eta.1" in names


def test_cover_word_names_every_base_label():
    # A clasp whose exit gap is below its enter gap is labelled above its
    # lowest seam strand; its lifts are named all the same.
    above_lowest = 0
    for n in (4, 6, 8):
        for k in range(1, 5):
            for seed in range(25):
                word = compile(random_presentation(n, k, seed))
                base = analyze(word)
                above_lowest += any(
                    pos != min(base.components[base.component_of_seam(pos)].seam_positions)
                    for _, pos in word.labels
                )
                # A labels() call on the unlabelled m-copy word's analysis must not carry over.
                analyze(AnnularWord(word.seam_orientations, word.events * 2)).labels()
                cd = build_cover(word, 2)
                names = {name.rsplit(".", 1)[0] for name, _ in cd.word.labels}
                assert names == {name for name, _ in word.labels}
                assert parse(serialize(cd.word)) == cd.word
                assert cd.analysis.labels() == analyze(cd.word).labels()
    assert above_lowest == 209


def _lift_oracle_words():
    """Cables, compiled and annular words, and words with a component off the seam."""
    for n in range(2, 25):
        yield cable_template(n)
    for n in (2, 3, 4, 6, 8, 12, 16):
        for k in range(6):
            for seed in range(6):
                yield compile(random_presentation(n, k, seed))
    for n in range(2, 13):
        for seed in range(15):
            word = random_annular_word(n, seed)
            yield from (word, compile(normalize(word).presentation))
    for body in ("seam 0\ncup 1\ncap 1\n", "seam 1 +\nlabel eta seam 1\ncup 1\ncap 1\n"):
        yield parse("annular v1\n" + body)


def test_build_cover_matches_the_snapshot_oracle():
    covers = added = 0
    for word in dict.fromkeys(_lift_oracle_words()):  # 560 distinct words
        windings = [c.winding for c in analyze(word).components]
        for m in range(1, 25):
            if any(w % m for w in windings):
                continue
            cd, want = build_cover(word, m), snapshot_lift_map(word, m)
            assert (cd.lift_map, cd.deck) == (want.lift_map, want.deck)
            ana, oracle = cd.analysis, want.analysis
            assert ana.word is cd.word
            assert ana.components == oracle.components
            assert ana._segment_component == oracle._segment_component
            assert ana._segment_sheet == oracle._segment_sheet
            unlabelled = (dataclasses.replace(w, labels=()) for w in (cd.word, want.word))
            assert serialize(next(unlabelled)) == serialize(next(unlabelled))
            # Every lift the oracle names keeps its name; labels are only added.
            assert set(want.word.labels) <= set(cd.word.labels)
            covers += 1
            added += cd.word.labels != want.word.labels
    assert (covers, added) == (1897, 575)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_cover_and_its_lifted_oracles_sweep_the_m_copies_once(monkeypatch, m):
    word = compile(random_presentation(8, 3, m))
    analyze.cache_clear()
    analyze(word)
    swept = []
    sweep = coverlink.diagram._sweep

    def counted(*args):
        swept.append(args[0])
        return sweep(*args)

    # Count the sweep at every module binding of it.
    monkeypatch.setattr(coverlink.diagram, "_sweep", counted)
    monkeypatch.setattr(coverlink.cover, "_sweep", counted, raising=False)
    cd = build_cover(word, m)
    lifted_linking_matrix(cd)
    lifted_eta_linkings(cd)
    assert swept == [AnnularWord(word.seam_orientations, word.events * m)]


def _assert_lift_data_matches_cover(word, m):
    got = lift_data(word, m)
    cd = build_cover(word, m)
    want = lifted_linking_matrix(cd)
    # Whole objects: the sparse matrix stores exactly the cover word's nonzeros.
    assert got == want and hash(got) == hash(want)
    assert len(got.eta_linkings) == m
    # The one eta row gives every eta lift's row on the cover word by deck rotation.
    assert cover_eta_rows(cd) == rotated_eta_rows(got.eta_row, m)
    lks = lifted_eta_linkings(cd)
    assert all(lks[(j, k)] == got.eta_linkings[(k - j) % m] for j, k in lks)


@pytest.mark.parametrize("seed", range(5))
def test_lift_data_matches_cover_word_at_every_divisor(seed):
    for n in range(2, 13):
        for k in range(5):
            p = random_presentation(n, k, 100 * seed + 7 * n + k)
            word = compile(p) if k else cable_template(n)
            for m in range(1, n + 1):
                if n % m == 0:
                    _assert_lift_data_matches_cover(word, m)


def test_lift_data_matches_cover_word_on_normalized_words():
    for seed in range(6):
        word = compile(normalize(random_annular_word(6, seed)).presentation)
        _assert_lift_data_matches_cover(word, 2)


def test_lift_data_matches_cover_word_with_asymmetric_blocks():
    asymmetric = coupled = 0
    for seed in range(10):
        p = random_presentation(8, 2 + seed % 3, seed)
        word = twist_surgery_pairs(compile(p), random.Random(seed), 4)
        for m in (2, 4, 8):
            _assert_lift_data_matches_cover(word, m)
            a = lift_data(word, m).matrix
            blocks = block_circulant_split(a, m)
            asymmetric += any(b.to_rows() != [list(r) for r in zip(*b.to_rows())] for b in blocks)
            coupled += any(i != j for i, j in a.nonzeros)
    assert asymmetric and coupled


CORPUS = Path(__file__).resolve().parents[1] / "corpus"
CABLE_WINDINGS = (64, 96, 128, 192, 256, 384, 512)


def _relabelled(word, name):
    """The word with its label ``name`` renamed ``eta`` and every other label kept."""
    labels = tuple(("eta" if label == name else label, pos) for label, pos in word.labels)
    return dataclasses.replace(word, labels=labels)


def _fold_words():
    """Words whose lifts the fold is checked on, each with its label eta."""
    for n in range(2, 25):
        for k in range(5):
            for seed in range(3):
                yield compile(random_presentation(n, k, seed))
    for seed in range(6):
        annular = random_annular_word(4 + 2 * (seed % 3), seed)
        yield _relabelled(annular, annular.labels[0][0])
        yield compile(normalize(annular).presentation)
    for path in sorted(CORPUS.glob("*.pattern")):
        yield compile(parse_pattern(path.read_text(encoding="utf-8")))
    yield from map(cable_template, CABLE_WINDINGS)
    # Cover words with eta's lift 0 as eta: every other lift of eta is a surgery
    # curve linking it, so these lift to non-diagonal matrices.
    for n, k, seed in ((8, 3, 1), (8, 2, 4), (16, 2, 0), (12, 1, 2)):
        word = compile(random_presentation(n, k, seed))
        for m in (2, 4):
            yield _relabelled(build_cover(word, m).word, "eta.0")


def test_fold_of_the_finer_lift_is_the_lift_bit_for_bit():
    # The transfer identity as an algorithm: the lifted data of degree M folds to
    # that of every m dividing M, field by field, entry by entry.
    pairs = coupled = 0
    for word in _fold_words():
        g = math.gcd(*(c.winding for c in analyze(word).components))
        divisors = [d for d in range(1, g + 1) if g % d == 0]
        lifts = {d: lift_data(word, d) for d in divisors}
        for big in divisors:
            for m in divisors:
                if big % m == 0:
                    folded = coverlink.cover._fold(lifts[big], m)
                    assert folded == lifts[m], (word, big, m)
                    assert all(type(v) is int for v in folded.eta_row + folded.eta_linkings)
                    pairs += 1
                    coupled += any(i != j for i, j in folded.matrix.nonzeros)
    assert pairs > 3000 and coupled > 20


def test_lift_data_winding_not_divisible_like_build_cover():
    with pytest.raises(WindingNotDivisibleError) as got:
        lift_data(cable_template(6), 4)
    with pytest.raises(WindingNotDivisibleError) as want:
        build_cover(cable_template(6), 4)
    assert (got.value.component, got.value.winding, got.value.m) == (
        want.value.component, want.value.winding, want.value.m) == ("eta", 6, 4)


def test_cover_tables_reject_a_degree_that_leaves_lifts_open():
    # The table checks its own degree, with the error class the cover module re-exports.
    assert coverlink.diagram.WindingNotDivisibleError is WindingNotDivisibleError
    ana = analyze(cable_template(3))
    with pytest.raises(WindingNotDivisibleError, match="component eta has winding 3") as exc:
        ana.cover_tables(2)
    assert (exc.value.component, exc.value.winding, exc.value.m) == ("eta", 3, 2)
    for m in (0, -2):
        with pytest.raises(ValueError, match=f"cover degree must be at least 1, got {m}"):
            ana.cover_tables(m)


def test_lifted_oracles_match_the_pairwise_queries():
    # The cover word's base table, read whole, gives what one lookup per pair of lifts
    # in the independent keyed table gives.
    covers = {2: 0, 4: 0, 8: 0}
    for word in _validation_sample():
        base = analyze(word)
        for m in covers:
            if any(c.winding % m for c in base.components):
                continue
            cd = build_cover(word, m)
            assert lifted_linking_matrix(cd) == pairwise_lifted_linking_matrix(cd)
            lifts = cd.lifts_of(base.component_by_name("eta"))
            got = lifted_eta_linkings(cd)
            assert all(type(v) is int for v in got.values())
            keyed = keyed_cover_tables(cd.analysis, 1)[1]
            assert got == {
                (j, k): keyed.get((a, b, 0), 0)
                for j, a in enumerate(lifts)
                for k, b in enumerate(lifts)
                if j != k
            }
            covers[m] += 1
    assert all(covers.values())


def test_seam_free_component_lifts_to_its_copies():
    # A loop born and killed in one sheet, clasping the bottom cable strand
    # once: lift j of it is copy j, which links eta's lift j and no other.
    loop = (Cup(1), Cross(2, True), Cross(2, True), Cap(1))
    base = cable_template(8)
    word = dataclasses.replace(base, events=loop + base.events)
    ana = analyze(word)
    eta = ana.component_by_name("eta")
    (free,) = [c.cid for c in ana.components if not c.seam_positions]
    assert ana.cover_tables(1)[1][free, eta] == [1]
    for m in (1, 2, 4):
        _assert_lift_data_matches_cover(word, m)
        cd = build_cover(word, m)
        lk = cd.analysis.cover_tables(1)[1]
        for j in range(m):
            got = [lk.get((cd.lift(free, j), cd.lift(eta, x)), (0,))[0] for x in range(m)]
            assert got == [1 if x == j else 0 for x in range(m)], (m, j, got)


def test_lift_data_holds_one_eta_row_and_builds_no_fraction(monkeypatch):
    def no_fraction(*_args):
        raise AssertionError("the verdict path built a Fraction in coverlink.cover")

    # The module imports no Fraction; the stub stands in for any it might bind.
    monkeypatch.setattr(coverlink.cover, "Fraction", no_fraction, raising=False)
    cable = ClaspPresentation(512, (), name="cable-512")
    clasped = random_presentation(16, 4, 0)
    assert auto_verdict(cable, tuple(2**e for e in range(1, 10))).aggregate == "Obstructed"
    auto_verdict(clasped, (16,))
    for p, m in ((cable, 512), (clasped, 16)):
        data = lift_data(compile(p), m)
        assert len(data.eta_row) == len(p.clasps) * m and len(data.eta_linkings) == m
        assert all(type(v) is int for v in data.eta_row + data.eta_linkings)
    src = Path(coverlink.cover.__file__).parent
    assert not [f.name for f in src.glob("*.py") if "eta_vs_surgery" in f.read_text()]
