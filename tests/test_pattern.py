"""Presentations, the gadget compiler, validation, and the DSLs."""

import dataclasses
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coverlink.cli import main
from coverlink.cover import build_cover
from coverlink.diagram import AnnularWord, Cap, Cross, Cup, Kink, analyze
from coverlink.diagram import serialize as serialize_word
from coverlink.downhill import normalize, random_annular_word
from coverlink.pattern import (
    _CAPS,
    _CROSSES,
    _CUPS,
    _KINKS,
    ClaspPresentation,
    ClaspSpec,
    GapOutOfRangeError,
    PatternError,
    PatternSyntaxError,
    SlotOutOfRangeError,
    ValidationItem,
    WeaveLengthError,
    add_cancelling_pair,
    cable_template,
    compile,
    from_json,
    parse,
    random_presentation,
    serialize,
    to_json,
    validate,
)
from oracles import _Assembler, pairwise_validate, stepwise_compile, twist_surgery_pairs


def test_cable_template_core():
    word = cable_template(1)
    assert word.seam_width == 1 and word.events == ()


def test_cable_template_goldens():
    for n in (6, 8):
        word = cable_template(n)
        ana = analyze(word)
        assert len(ana.components) == 1
        eta = ana.component_by_name("eta")
        assert ana.components[eta].winding == n


def test_compile_empty_equals_template():
    p = ClaspPresentation(6, ())
    assert compile(p) == cable_template(6)


def test_compile_gadget_contract():
    p = ClaspPresentation(
        6, (ClaspSpec(slot=0, gap_enter=1, gap_exit=3, weave="uoou", framing=-1),)
    )
    word = compile(p)
    ana = analyze(word)
    eta = ana.component_by_name("eta")
    clasp = ana.component_by_name("L1")
    framing, lk = ana.cover_tables(1)
    assert (ana.components[clasp].winding, ana.components[clasp].wrapping) == (0, 2)
    assert framing[clasp] == -1
    assert lk.get((eta, clasp), (0,))[0] == 0


def test_compile_balanced_weave_n2():
    p = ClaspPresentation(2, (ClaspSpec(0, 0, 2, "uoou", 1, 1),))
    word = compile(p)
    ana = analyze(word)
    assert len(ana.components) == 2
    pair = (ana.component_by_name("eta"), ana.component_by_name("L1"))
    assert ana.cover_tables(1)[1].get(pair, (0,))[0] == 0


def test_compile_unbalanced_weave_flags_eta_linking():
    p = ClaspPresentation(6, (ClaspSpec(0, 1, 3, "oouu", 1, 1),))
    report = validate(compile(p))
    assert not report.passed
    assert {item.name for item in report.failures()} == {"EtaLinkingNonzero"}


def test_compile_deterministic():
    p = random_presentation(6, 3, 9)
    assert compile(p) == compile(p)



def _with_shuffled_slots(n, k, seed):
    """A seeded presentation, then the same clasps with their slots shuffled."""
    p = random_presentation(n, k, seed)
    slots = [c.slot for c in p.clasps]
    random.Random(f"{n}/{k}/{seed}").shuffle(slots)
    yield p
    yield dataclasses.replace(
        p, clasps=tuple(dataclasses.replace(c, slot=s) for c, s in zip(p.clasps, slots))
    )


def _compile_sample():
    """Seeded presentations, each also with its slots shuffled, and large cables."""
    for n in range(2, 17):
        for k in range(7):
            for seed in range(5):
                yield from _with_shuffled_slots(n, k, seed)
    for n in (64, 96, 128, 192, 256, 384, 512):
        yield ClaspPresentation(n, ())


_COMPILE_PIN = (1057, "97756ccfc96041a44bcb6cb4126166c607643dc9986649d7777c7ad45399b7da")


def _compile_digest(words):
    digest = hashlib.sha256()
    for word in words:
        digest.update(serialize_word(word).encode())
    return len(words), digest.hexdigest()


def test_compiled_words_are_pinned():
    assert _compile_digest([compile(p) for p in _compile_sample()]) == _COMPILE_PIN


def test_compile_pin_holds_in_a_fresh_interpreter():
    # A fresh process starts with an empty crossing table, and compiling the sample
    # largest-first grows it to full width at once: no word depends on its growth.
    code = (
        "import coverlink.pattern as pat\n"
        "from test_pattern import _compile_digest, _compile_sample\n"
        "assert pat._CROSSES == ([], [])\n"
        "words = [pat.compile(p) for p in reversed(list(_compile_sample()))]\n"
        "print(*_compile_digest(words[::-1]))\n"
    )
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(_COMPILE_PIN[0]), _COMPILE_PIN[1]]


def test_compiles_share_their_crossings():
    first, second = compile(random_presentation(8, 3, 1)), compile(random_presentation(8, 3, 2))
    crossings = {ev: ev for ev in first.events if isinstance(ev, Cross)}
    shared = [ev for ev in second.events if ev in crossings]
    assert shared and all(crossings[ev] is ev for ev in shared)
    assert all(a is b for a, b in zip(cable_template(64).events, cable_template(64).events))

def test_compile_injective_on_sample():
    words = {}
    for seed in range(12):
        p = random_presentation(6, 2, seed)
        w = compile(p)
        key = serialize(p)
        for other_key, other_w in words.items():
            if other_key != key:
                assert other_w != w
        words[key] = w


def test_gap_out_of_range():
    with pytest.raises(GapOutOfRangeError):
        ClaspPresentation(4, (ClaspSpec(0, 0, 5, "u" * 10),))


def test_slot_out_of_range():
    with pytest.raises(SlotOutOfRangeError):
        ClaspSpec(-1, 0, 1, "uu")


def test_weave_length_enforced():
    with pytest.raises(WeaveLengthError):
        ClaspSpec(0, 0, 2, "uo")


def test_validate_winding_check_on_raw_word():
    # A labeled surgery curve winding once: flagged WindingNonzero.
    from coverlink.diagram import parse as parse_word

    text = "annular v1\nseam 2 ++\nlabel eta seam 1\nlabel L1 seam 2\n"
    report = validate(parse_word(text))
    names = {item.name for item in report.failures()}
    assert "WindingNonzero" in names


def test_validate_passes_compiled_presentations():
    for seed in range(8):
        p = random_presentation(6, (seed % 4) + 1, seed)
        assert validate(compile(p)).passed


def _flip_one_flag(p: ClaspPresentation, rng: random.Random) -> ClaspPresentation:
    """p with one weave flag of one woven clasp flipped, so it links eta."""
    woven = [i for i, c in enumerate(p.clasps) if c.weave]
    if not woven:
        return p
    i = rng.choice(woven)
    c, f = p.clasps[i], rng.randrange(len(p.clasps[i].weave))
    weave = c.weave[:f] + "uo"[c.weave[f] == "u"] + c.weave[f + 1 :]
    clasps = p.clasps[:i] + (dataclasses.replace(c, weave=weave),) + p.clasps[i + 1 :]
    return dataclasses.replace(p, clasps=clasps)


def _swap_eta(word: AnnularWord) -> AnnularWord:
    """A compiled word with its ``eta`` label on the first clasp, and that clasp's on the cable."""
    (eta, cable), (name, clasp), *rest = word.labels
    return dataclasses.replace(word, labels=((eta, clasp), (name, cable), *rest))


def _validation_sample():
    """Words that reach every validation row, both passing and failing or advisory.

    Seeded presentations, every other one with a weave flag flipped
    (``EtaLinkingNonzero``), some with ``eta`` swapped onto a clasp (the cable
    becomes a surgery curve: ``WindingNonzero``, ``FramingNotUnit``,
    ``WrappingNotTwo``), words with twisted surgery pairs
    (``ClaspClaspLinking``), normalized words and the corpus.
    """
    for n in (2, 3, 4, 6, 8, 12):
        for k in range(6):
            for seed in range(6):
                p = random_presentation(n, k, seed)
                word = compile(_flip_one_flag(p, random.Random(seed)) if seed % 2 else p)
                yield word
                if k and seed < 2:
                    yield _swap_eta(word)
    for seed in range(6):
        word = compile(random_presentation(8, 2 + seed % 3, seed))
        yield twist_surgery_pairs(word, random.Random(seed), 4)
    for seed in range(6):
        yield compile(normalize(random_annular_word(6, seed)).presentation)
    for f in sorted(_CORPUS.glob("*.pattern")):
        yield compile(parse(f.read_text()))


def _cover_words():
    """The 2-, 4- and 8-fold covers of seeded words, with lift ``eta.0`` named ``eta``."""
    for seed in range(4):
        word = compile(random_presentation(8, 2 + seed % 3, seed))
        for m in (2, 4, 8):
            cover = build_cover(word, m).word
            labels = tuple(("eta" if name == "eta.0" else name, pos) for name, pos in cover.labels)
            yield dataclasses.replace(cover, labels=labels)


_VALIDATION_ROWS = (
    "WindingNonzero", "EtaLinkingNonzero", "FramingNotUnit", "WrappingNotTwo", "ClaspClaspLinking"
)


def _status(item) -> str:
    return "ok" if item.ok else ("warning" if item.warning else "FAIL")


def test_validate_matches_the_pairwise_oracle():
    # One read of the base table gives the report of one query per curve and per pair.
    seen = set()
    for word in [*_validation_sample(), *_cover_words()]:
        report = validate(word)
        assert report == pairwise_validate(word)
        seen.update((item.name, _status(item)) for item in report.items)
    assert seen == {
        *((name, "ok") for name in _VALIDATION_ROWS),
        *((name, "FAIL") for name in _VALIDATION_ROWS[:3]),
        *((name, "warning") for name in _VALIDATION_ROWS[3:]),
    }


def test_add_cancelling_pair_structure():
    p = ClaspPresentation(6, ())
    template = ClaspSpec(slot=0, gap_enter=1, gap_exit=3, weave="ouuo", clasp_sign=1, framing=1)
    doubled = add_cancelling_pair(p, template)
    assert len(doubled.clasps) == 2
    first, second = doubled.clasps
    assert first == template
    assert second.framing == -template.framing
    assert second.clasp_sign == -template.clasp_sign
    assert (second.gap_enter, second.gap_exit, second.weave) == (1, 3, "ouuo")
    redoubled = add_cancelling_pair(doubled, template)
    assert len(redoubled.clasps) == 4


def test_random_presentation_deterministic():
    assert random_presentation(6, 3, 42) == random_presentation(6, 3, 42)
    assert random_presentation(6, 3, 42) != random_presentation(6, 3, 43)


def test_random_presentation_validates():
    p = random_presentation(4, 5, 7)
    assert validate(compile(p)).passed


def test_stacked_template_closes_to_torus_link():
    # m stacked copies of the n-cable close to a gcd(n, m)-component link.
    for n, m in [(6, 2), (6, 4), (8, 6), (5, 3)]:
        base = cable_template(n)
        stacked = AnnularWord(base.seam_orientations, base.events * m)
        assert len(analyze(stacked).components) == math.gcd(n, m)


def test_pattern_dsl_round_trip():
    p = ClaspPresentation(
        6,
        (
            ClaspSpec(2, 1, 3, "uoou", 1, -1),
            ClaspSpec(0, 4, 4, "", -1, 1),
        ),
        name="example-w6",
    )
    assert parse(serialize(p)) == p


def test_pattern_dsl_documented_example():
    text = (
        "pattern v1\n"
        "name example-w6\n"
        "cable 6\n"
        "clasp slot 2 enter 1 exit 3 weave uoou sign + framing -1\n"
    )
    p = parse(text)
    assert p.n == 6 and p.clasps[0].framing == -1 and p.clasps[0].weave == "uoou"


def test_pattern_json_mirror():
    p = random_presentation(8, 2, 3)
    assert from_json(to_json(p)) == p


@pytest.mark.parametrize(
    "name",
    [None, [1, 2], 7, "a b", "x#y", "a\nb", " a", "a\u2028b"],
    ids=["null", "list", "int", "space", "hash", "newline", "leading-space", "line-separator"],
)
def test_from_json_rejects_names_the_text_form_cannot_carry(name, tmp_path, capsys):
    doc = json.dumps({"pattern": "v1", "name": name, "cable": 4, "clasps": []})
    with pytest.raises(PatternSyntaxError) as exc:
        from_json(doc)
    assert exc.value.line == 1
    path = tmp_path / "named.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["obstruct", str(path), "--json"]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: name must be one token")


@pytest.mark.parametrize("name", ["a#b", "a b", "a\nb", " a"])
def test_presentation_rejects_names_the_text_forms_cannot_read_back(name):
    with pytest.raises(PatternError, match="name must be one token"):
        ClaspPresentation(4, (), name=name)
    assert parse(serialize(ClaspPresentation(4, (), name="a-b"))).name == "a-b"


@pytest.mark.parametrize(
    "field, value",
    [("slot", True), ("gap_enter", False), ("gap_exit", 1.0), ("clasp_sign", True),
     ("framing", -1.0), ("n", 4.0), ("n", True)],
)
def test_presentations_hold_only_ints_the_text_forms_read_back(field, value):
    # `slot True` or `cable 4.0` would be written, but neither text form reads it back.
    fields = {"slot": 0, "gap_enter": 0, "gap_exit": 1, "weave": "oo"}
    p = ClaspPresentation(4, (ClaspSpec(**fields),))
    assert parse(serialize(p)) == p and from_json(to_json(p)) == p
    n = 4
    if field == "n":
        n = value
    else:
        fields[field] = value
    with pytest.raises(PatternError, match=f"^{field} must be an integer, got {value!r}$"):
        ClaspPresentation(n, (ClaspSpec(**fields),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ClaspSpec(0, 0, 1, ["o", "o"]), "weave must be a string, got ['o', 'o']"),
        (lambda: ClaspSpec(0, 0, 1, None), "weave must be a string, got None"),
        (
            lambda: ClaspPresentation(4, [ClaspSpec(0, 0, 1, "oo")]),
            "clasps must be a tuple of ClaspSpec, got [ClaspSpec(",
        ),
        (lambda: ClaspPresentation(4, ((0, 0, 1, "oo"),)), "clasps must be a tuple of ClaspSpec"),
        (lambda: ClaspPresentation(4, ("clasp",)), "clasps must be a tuple of ClaspSpec"),
    ],
    ids=["list-weave", "none-weave", "list-clasps", "tuple-clasp", "str-clasp"],
)
def test_presentations_hold_only_clasps_the_text_forms_read_back(build, message):
    # A list weave serialized as `weave ['o', 'o']`; a list of clasps broke hash and round trips.
    with pytest.raises(PatternError, match=re.escape(message)):
        build()


def test_presentations_of_the_checked_types_round_trip():
    presentations = [ClaspPresentation(4, (ClaspSpec(0, 0, 1, "oo"),), name="one")]
    presentations += [
        random_presentation(n, k, seed) for n in (2, 5, 8) for k in range(4) for seed in range(3)
    ]
    for p in presentations:
        for back in (parse(serialize(p)), from_json(to_json(p))):
            assert back == p and hash(back) == hash(p) and type(back.clasps) is tuple
    doubled = add_cancelling_pair(presentations[0], ClaspSpec(1, 0, 2, "ouuo"))
    assert parse(serialize(doubled)) == doubled


def test_pattern_dsl_rejects_framing_zero():
    text = "pattern v1\ncable 6\nclasp slot 0 enter 1 exit 1 sign + framing 0\n"
    with pytest.raises(PatternSyntaxError):
        parse(text)


def test_pattern_dsl_rejects_bad_directive():
    with pytest.raises(PatternSyntaxError) as exc:
        parse("pattern v1\ncable 6\nfrobnicate 1\n")
    assert exc.value.line == 3


# ---------------------------------------------------------------------------
# The seam-layout compiler against the stack-simulating compiler it replaced,
# and that compiler's O(1) assembler against the linear-scan assembler


class _ScanAssembler:
    """Oracle: the assembler that finds a strand by scanning the stack, O(n) per lookup.

    The compiler reads a strand's index as ``s.pos``, so after every step this
    one rewrites ``pos`` for the whole stack from a fresh scan, where the fast
    assembler patches only the strands a step moves.
    """

    def __init__(self, stack):
        self.stack = stack
        self.events = []
        self._scan()

    def _scan(self):
        for i, t in enumerate(self.stack):
            t.pos = i

    def idx(self, s):
        return next(i for i, t in enumerate(self.stack) if t is s)

    def cross_up(self, s, s_over):
        i = self.idx(s)
        other = self.stack[i + 1]
        self.events.append(Cross(i + 1, upper_over=not s_over))
        self.stack[i], self.stack[i + 1] = other, s
        self._scan()

    def cross_down(self, s, s_over):
        i = self.idx(s)
        other = self.stack[i - 1]
        self.events.append(Cross(i, upper_over=s_over))
        self.stack[i - 1], self.stack[i] = s, other
        self._scan()

    def cap(self, lower):
        i = self.idx(lower)
        self.events.append(Cap(i + 1))
        del self.stack[i : i + 2]
        self._scan()

    def cup(self, at, lower, upper):
        self.events.append(Cup(at + 1, lower.orient))
        self.stack[at:at] = [lower, upper]
        self._scan()


class _CheckedAssembler(_Assembler):
    """The O(1) assembler, checking after every step that each strand's pos is its index."""

    # Crossings between two gadget strands over all instances, keyed by whether the
    # moving strand goes over: over an earlier gadget, under a later one.
    transits = Counter()

    def _check(self):
        for i, t in enumerate(self.stack):
            assert t.pos == i  # that is, stack[s.pos] is s for every s on the stack

    def cross_up(self, s, s_over):
        if s.kind == self.stack[s.pos + 1].kind == "clasp":
            _CheckedAssembler.transits[s_over] += 1
        super().cross_up(s, s_over)
        self._check()

    def cross_down(self, s, s_over):
        if s.kind == self.stack[s.pos - 1].kind == "clasp":
            _CheckedAssembler.transits[s_over] += 1
        super().cross_down(s, s_over)
        self._check()

    def cap(self, lower):
        super().cap(lower)
        self._check()

    def cup(self, at, lower, upper):
        super().cup(at, lower, upper)
        self._check()


def test_assembler_matches_linear_scan_on_random_presentations():
    _CheckedAssembler.transits.clear()
    for n in range(2, 17):
        for k in range(7):
            for seed in range(3):
                p = random_presentation(n, k, seed)
                fast = stepwise_compile(n, p.clasps, _CheckedAssembler)
                assert fast == stepwise_compile(n, p.clasps, _ScanAssembler)
                assert fast == compile(p)
    # The sample weaves gadgets past earlier and later ones.
    assert _CheckedAssembler.transits[True] and _CheckedAssembler.transits[False]


def _shared_instance(ev):
    """The shared-table event equal to ev."""
    if type(ev) is Cross:
        return _CROSSES[ev.upper_over][ev.position]
    if type(ev) is Kink:
        return _KINKS[ev.sign > 0][ev.position]
    if type(ev) is Cup:
        return _CUPS[ev.sign > 0][ev.position]
    return _CAPS[ev.position]


def test_compiled_words_take_every_event_from_the_shared_tables():
    rng = random.Random(5)
    tied = []  # slots drawn from {0, 1}, so most presentations tie
    for n, k, seed in ((n, k, s) for n in (3, 8, 13) for k in range(2, 7) for s in range(4)):
        p = random_presentation(n, k, seed)
        clasps = tuple(dataclasses.replace(c, slot=rng.randint(0, 1)) for c in p.clasps)
        tied.append(ClaspPresentation(n, clasps))
    kinds = Counter()
    for p in [*_compile_sample(), *tied]:
        word = compile(p)
        for ev in word.events:
            assert ev is _shared_instance(ev) and ev == _shared_instance(ev)
            kinds[type(ev), getattr(ev, "sign", getattr(ev, "upper_over", None))] += 1
    assert len(kinds) == 7  # both crossing flags, both kink and cup signs, and caps
    # Tied slots keep the clasps' order, as the stack compiler orders them.
    for p in tied:
        _assert_compiles_like_the_oracle(p)
    assert sum(len({c.slot for c in p.clasps}) < len(p.clasps) for p in tied) > 50


def test_validation_items_are_named_tuples():
    report = validate(compile(random_presentation(8, 2, 1)))
    assert ValidationItem._fields == ("name", "component", "ok", "warning", "detail")
    item = report.items[0]
    assert item == ValidationItem(*item) and item == tuple(item) and item.name == "WindingNonzero"


@pytest.mark.parametrize("n", [1, 2, 3, 64, 127, 512])
def test_assembler_matches_linear_scan_on_cables(n):
    fast = stepwise_compile(n, (), _CheckedAssembler)
    assert fast == stepwise_compile(n, (), _ScanAssembler)
    assert fast == cable_template(n)


def _assert_compiles_like_the_oracle(p):
    word, expected = compile(p), stepwise_compile(p.n, p.clasps, _CheckedAssembler)
    assert len(word.events) == len(expected.events), p
    for i, (ev, want) in enumerate(zip(word.events, expected.events)):
        assert ev == want, (p, i)
    assert word == expected


def test_compile_matches_stepwise_oracle_on_pinned_sample():
    for p in _compile_sample():
        _assert_compiles_like_the_oracle(p)


def test_compile_matches_stepwise_oracle_on_random_presentations():
    for n in range(2, 25):
        for k in range(9):
            for seed in range(5):
                for p in _with_shuffled_slots(n, k, seed):
                    _assert_compiles_like_the_oracle(p)


_HAND_BUILT = {
    "enter-below-exit": (5, [ClaspSpec(0, 1, 4, "ouo" + "uou", 1, -1)]),
    "enter-at-exit": (4, [ClaspSpec(0, 2, 2, "", -1, 1)]),
    "enter-above-exit": (5, [ClaspSpec(0, 4, 1, "uou" + "ouu", -1, -1)]),
    "shared-gap": (4, [ClaspSpec(1, 2, 3, "ou", 1, 1), ClaspSpec(0, 2, 0, "uoou", -1, -1)]),
    # Gadgets weave past parked strands of earlier and of later gadgets.
    "transits": (
        3,
        [ClaspSpec(2, 0, 3, "ouo" + "oou", 1, 1), ClaspSpec(0, 1, 2, "uo", -1, 1),
         ClaspSpec(1, 1, 3, "ou" + "uo", 1, -1)],
    ),
    "transits-descending": (
        3,
        [ClaspSpec(0, 3, 0, "uou" + "ouo", -1, 1), ClaspSpec(1, 2, 1, "oo", 1, -1),
         ClaspSpec(2, 3, 1, "uo" + "ou", -1, -1)],
    ),
}


@pytest.mark.parametrize("name", sorted(_HAND_BUILT))
def test_compile_matches_stepwise_oracle_on_hand_built_gadgets(name):
    n, clasps = _HAND_BUILT[name]
    _CheckedAssembler.transits.clear()
    for ordered in (clasps, clasps[::-1]):
        _assert_compiles_like_the_oracle(ClaspPresentation(n, tuple(ordered)))
    if name.startswith("transits"):
        assert _CheckedAssembler.transits[True] and _CheckedAssembler.transits[False]
    elif len(clasps) == 1:
        assert not _CheckedAssembler.transits


# ---------------------------------------------------------------------------
# Fuzzing the readers: a mutated text is a presentation or a PatternSyntaxError.
# Parse only: a fuzzed ``cable N`` may ask for a huge N, so nothing is compiled.

_CORPUS = Path(__file__).resolve().parents[1] / "corpus"
_DSL_TEXTS = [f.read_text() for f in sorted(_CORPUS.glob("*.pattern"))] + [
    serialize(random_presentation(n, k, 0)) for n, k in ((2, 1), (6, 3), (9, 2))
]
_JSON_TEXTS = [
    to_json(random_presentation(n, k, 1)) for n, k in ((2, 1), (6, 3), (8, 0))
]
_NUMBERS = st.sampled_from([
    "1e400", "-1e400", "Infinity", "-Infinity", "NaN", "8.5", "0.5", "2.0", "\u00b2", "\u0663",
    "\u0662", "\u0661", "9" * 5000, "--6", "+6", "0x10", "1_0", "0_1", "-0", "0", "2",
])
_TOKENS = st.one_of(
    _NUMBERS,
    st.sampled_from([
        "", " ", "\n", "#", "-", "+", "+-", "-+", "+1", "-1", "o", "u", "ou", "null", "true",
        "[]", "{}", '"', ",", ":", "cable", "clasp", "slot", "enter", "exit", "weave", "sign",
        "framing", "name", "pattern v1",
    ]),
    st.integers(-(10**30), 10**30).map(str),
    st.text(max_size=6),
)
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-(10**30), 10**30),
        st.sampled_from([float("inf"), float("-inf"), float("nan"), 8.5, 0.5, 2.0, 1e300]),
        st.floats(), st.text(max_size=6), st.sampled_from([" 8", "8", "+1", "1_0", "\u0662"]),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_FUZZ = settings(
    max_examples=300, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _mutated(draw, texts, tokens=_TOKENS):
    """A valid text with a few spans replaced by tokens (insertions and deletions included).

    Most spans are whole words, numbers above all, so that a value is swapped
    for another while the text around it stays well formed.
    """
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        words = list(re.finditer(r'[^\s,:"\[\]{}]+', text))
        numbers = [w for w in words if re.fullmatch(r"-?\d+", w.group())]
        mode = draw(st.sampled_from(["number", "word", "span"]))
        if mode == "number" and numbers:
            i, j = draw(st.sampled_from(numbers)).span()
            text = text[:i] + draw(_NUMBERS) + text[j:]
            continue
        if mode == "word" and words:
            i, j = draw(st.sampled_from(words)).span()
        else:
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(tokens) + text[j:]
    return text


_STRICT_INT = re.compile(r"[+-]?[0-9]+")


def _assert_numbers_canonical(reader, text):
    """Each number and sign a reader accepted is spelled as the one strict rule allows."""
    if reader is from_json:
        doc = json.loads(text)
        keys = ("slot", "enter", "exit", "sign", "framing")
        values = [doc["cable"]]
        values += [c[key] for c in doc.get("clasps", []) for key in keys if key in c]
        assert all(type(v) is int or type(v) is float and v.is_integer() for v in values), values
        return
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        if toks[:1] == ["cable"]:
            assert _STRICT_INT.fullmatch(toks[1]), line
        elif toks[:1] == ["clasp"]:
            fields = dict(zip(toks[1::2], toks[2::2]))
            assert fields.get("sign", "+") in ("+", "-"), line
            keys = ("slot", "enter", "exit", "framing")
            assert all(_STRICT_INT.fullmatch(v) for key, v in fields.items() if key in keys), line


def _reads_or_rejects(reader, text):
    try:
        result = reader(text)
    except PatternSyntaxError as exc:
        assert str(exc).startswith(f"line {exc.line}: ")
    else:
        assert isinstance(result, ClaspPresentation)
        # Whatever a reader accepts, the text form carries: it parses back equal.
        assert parse(serialize(result)) == result
        _assert_numbers_canonical(reader, text)


@_FUZZ
@given(_mutated(_DSL_TEXTS))
@example("pattern v1\ncable 8\nclasp slot 0 enter 1 exit 1 sign +-\n")
@example("pattern v1\ncable 8\nclasp slot 1_0 enter 1 exit 1\n")
@example("pattern v1\ncable 8\nclasp slot 0 enter \u0662 exit 1\n")
@example("pattern v1\ncable 1_0\n")
def test_parse_fuzzed_text_raises_only_syntax_errors(text):
    _reads_or_rejects(parse, text)


@_FUZZ
@given(_mutated(_JSON_TEXTS))
@example('{"pattern": "v1", "cable": " 8", "clasps": []}')
@example('{"pattern": "v1", "cable": 8, "clasps": [{"slot": true, "enter": 1, "exit": 1}]}')
def test_from_json_fuzzed_text_raises_only_syntax_errors(text):
    _reads_or_rejects(from_json, text)


@st.composite
def _mutated_doc(draw):
    """A valid JSON document with a few values, anywhere in it, replaced."""
    doc = json.loads(draw(st.sampled_from(_JSON_TEXTS)))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and draw(st.booleans()):
                node = node[key]
                continue
            node[key] = draw(_JSON_VALUES)
            break
    return json.dumps(doc)


@_FUZZ
@given(_mutated_doc())
@example('{"pattern": "v1", "cable": 8, "clasps": [{"slot": 0, "enter": 1, "exit": "1"}]}')
def test_from_json_fuzzed_values_raise_only_syntax_errors(text):
    _reads_or_rejects(from_json, text)


@pytest.mark.parametrize(
    "text",
    [
        "pattern v1\ncable \u00b2\n",
        "pattern v1\ncable --6\n",
        "pattern v1\ncable " + "9" * 5000 + "\n",
        "pattern v1\ncable 6\nclasp slot \u00b2 enter 1 exit 1\n",
        "pattern v1\ncable 1_0\n",
        "pattern v1\ncable 6\nclasp slot 1_0 enter 1 exit 1\n",
        "pattern v1\ncable 6\nclasp slot 0 enter \u0662 exit 1\n",
        "pattern v1\ncable 6\nclasp slot 0 enter 1 exit 0_1\n",
        "pattern v1\ncable 6\nclasp slot 0 enter 1 exit 1 framing -1_0\n",
        "pattern v1\ncable 6\nclasp slot 0 enter 1 exit 1 sign +-\n",
        "pattern v1\ncable 6\nclasp slot 0 enter 1 exit 1 sign -+\n",
    ],
    ids=[
        "superscript", "double-minus", "5000-digits", "clasp-superscript", "cable-1_0",
        "slot-1_0", "enter-arabic-indic-2", "exit-0_1", "framing--1_0", "sign-+-", "sign--+",
    ],
)
def test_parse_rejects_digits_int_cannot_read(text):
    # Numbers are ASCII [+-]?[0-9]+ and signs + or -, though int() reads "1_0" and "\u0662".
    with pytest.raises(PatternSyntaxError) as exc:
        parse(text)
    assert exc.value.line == 2 + text.count("clasp")


@pytest.mark.parametrize(
    "doc",
    [
        '{"pattern": "v1", "cable": 1e400, "clasps": []}',
        '{"pattern": "v1", "cable": 8.5, "clasps": []}',
        '{"pattern": "v1", "cable": NaN, "clasps": []}',
        '{"pattern": "v1", "cable": 8, "clasps": [{"slot": 0, "enter": 1e400, "exit": 1}]}',
        '{"pattern": "v1", "cable": 8, "clasps": [{"slot": 0.5, "enter": 1, "exit": 1}]}',
        '{"pattern": "v1", "cable": 8, "x": ' + "[" * 100000 + "]" * 100000 + "}",
        '{"pattern": "v1", "cable": ' + "9" * 5000 + "}",
        '{"pattern": "v1", "cable": " 8", "clasps": []}',
        '{"pattern": "v1", "cable": true, "clasps": []}',
        '{"pattern": "v1", "cable": 8, "clasps": [{"slot": true, "enter": 1, "exit": 1}]}',
        '{"pattern": "v1", "cable": 8, "clasps": [{"slot": 0, "enter": "1", "exit": 1}]}',
        '{"pattern": "v1", "cable": 8, "clasps": [{"slot": 0, "enter": 1, "exit": 1, '
        '"sign": true}]}',
        '{"pattern": "v1", "cable": 8, "clasps": [{"slot": 0, "enter": 1, "exit": 1, '
        '"framing": "+1"}]}',
        '{"pattern": "v1", "cable": 8, "clasps": [{"slot": 0, "enter": 1, "exit": 1, '
        '"frameing": 1}]}',
        '{"pattern": "v1", "cable": 4, "clasp": [{"slot": 0, "enter": 1, "exit": 1}]}',
        '{"pattern": "v1", "cable": 8, "clasps": [{"slot": 0, "enter": 1, "exit": 2, '
        '"weave": ["o", "o"]}]}',
        '{"pattern": "v1", "cable": 8, "clasps": {"a": 1}}',
        '{"pattern": "v1", "clasps": []}',
        '{"pattern": "v1", "cable": 8, "clasps": [], "cable": 4}',
        '{"pattern": "v1", "cable": 8, "clasps": [{"slot": 0, "enter": 1, "exit": 1, '
        '"framing": 1, "framing": -1}]}',
    ],
    ids=[
        "cable-1e400", "cable-8.5", "cable-nan", "enter-1e400", "slot-0.5", "deep-nesting",
        "5000-digits", "cable-string", "cable-true", "slot-true", "enter-string", "sign-true",
        "framing-string", "clasp-key-frameing", "top-key-clasp", "weave-list", "clasps-object",
        "cable-missing", "cable-repeated", "framing-repeated",
    ],
)
def test_from_json_rejects_non_integers_and_deep_nesting(doc):
    with pytest.raises(PatternSyntaxError) as exc:
        from_json(doc)
    assert exc.value.line == 1


def test_from_json_accepts_integral_floats():
    doc = '{"pattern": "v1", "cable": 8.0, "clasps": [{"slot": 0, "enter": 1, "exit": 1.0}]}'
    assert from_json(doc) == ClaspPresentation(8, (ClaspSpec(0, 1, 1, ""),))
