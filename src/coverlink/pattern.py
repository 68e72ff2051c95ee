"""Cable-plus-clasps presentations of patterns and their compiler to annular words.

A presentation is the n-strand one-shift positive cable braid (one component,
``eta``, winding n) together with parameterized clasp gadgets. A gadget is a
closed curve crossing the seam twice with opposite signs (winding 0, wrapping
2): its enter strand weaves across the intermediate cable strands to meet its
exit strand at a cap, a cup re-births the pair, and the return weave restores
the seam heights. The framing field becomes a single kink, so each compiled
gadget carries framing exactly +1 or -1.

Gadget bookkeeping rules that keep incidental crossings balanced:

* weave flags apply only to crossings with ``eta`` strands; transit crossings
  with other gadgets' strands are weaver-over when the parked gadget has a
  smaller index and weaver-under otherwise (this asymmetry is what makes a
  cancelling pair's mutual lift linkings vanish identically);
* in the braid section ``eta`` strands always cross over parked gadget
  strands (once on the shifting strand's way up, once on the displaced
  strand's way down, with cancelling signs).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

from .diagram import AnnularWord, Cap, Cross, Cup, Event, Kink, analyze
from .diagram import _check_token, _int_literal, _lines


class PatternError(Exception):
    """Base class for presentation-level failures."""


class PatternSyntaxError(PatternError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class SlotOutOfRangeError(PatternError):
    pass


class GapOutOfRangeError(PatternError):
    pass


class WeaveLengthError(PatternError):
    pass


@dataclass(frozen=True)
class ClaspSpec:
    """One clasp gadget.

    ``gap_enter``/``gap_exit`` are gaps between cable strands (0 = below all,
    n = above all); ``weave`` holds one ``o``/``u`` flag per cable strand
    crossed on the full round trip, so its length is twice the gap distance;
    ``clasp_sign`` orients the gadget (the enter seam strand's direction).
    """

    slot: int
    gap_enter: int
    gap_exit: int
    weave: str
    clasp_sign: int = 1
    framing: int = -1

    def __post_init__(self):
        if self.slot < 0:
            raise SlotOutOfRangeError(f"slot {self.slot} is negative")
        if self.clasp_sign not in (-1, 1):
            raise PatternError(f"clasp sign must be +1 or -1, got {self.clasp_sign}")
        if self.framing not in (-1, 1):
            raise PatternError(f"framing must be +1 or -1, got {self.framing}")
        if any(ch not in "ou" for ch in self.weave):
            raise WeaveLengthError(f"weave {self.weave!r} may only contain 'o' and 'u'")
        d = abs(self.gap_exit - self.gap_enter)
        if len(self.weave) != 2 * d:
            raise WeaveLengthError(
                f"weave {self.weave!r} has {len(self.weave)} flags, "
                f"gap distance {d} needs {2 * d}"
            )


@dataclass(frozen=True)
class ClaspPresentation:
    n: int
    clasps: tuple[ClaspSpec, ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise PatternError(f"cable winding must be at least 2, got {self.n}")
        for c in self.clasps:
            for g in (c.gap_enter, c.gap_exit):
                if not 0 <= g <= self.n:
                    raise GapOutOfRangeError(f"gap {g} outside 0..{self.n}")


class _Strand:
    __slots__ = ("kind", "clasp", "orient", "pos")

    def __init__(self, kind: str, orient: int, clasp: int = -1):
        self.kind = kind  # "eta" | "clasp"
        self.clasp = clasp
        self.orient = orient
        self.pos = -1  # index in the assembler's stack while the strand is on it


# Every compile takes its crossings from this one table, keyed by (position,
# upper_over); it holds at most two per stack position ever compiled. A cable's
# braid crossings sit at distinct positions, so only a shared table saves
# anything. Events are immutable values: sharing them changes no word or hash.
_CROSSES: dict[tuple[int, bool], Cross] = {}


class _Assembler:
    """The seam stack of a word under construction, and the events so far.

    Every strand on the stack knows its own index (``pos``), so finding one
    is O(1): a crossing patches the two strands it swaps, and a cap or a cup
    (one of each per clasp) renumbers the stack from the changed index up.
    Compiling a word therefore costs O(events) plus O(stack) per clasp.
    """

    def __init__(self, stack: list[_Strand]):
        self.stack = stack
        self.events: list[Event] = []
        self._renumber(0)

    def _renumber(self, start: int) -> None:
        for i in range(start, len(self.stack)):
            self.stack[i].pos = i

    def cross_up(self, s: _Strand, s_over: bool) -> None:
        """Cross s with the strand directly above it."""
        i = s.pos
        other = self.stack[i + 1]
        key = (i + 1, not s_over)
        self.events.append(_CROSSES.get(key) or _CROSSES.setdefault(key, Cross(*key)))
        self.stack[i], self.stack[i + 1] = other, s
        other.pos, s.pos = i, i + 1

    def cross_down(self, s: _Strand, s_over: bool) -> None:
        i = s.pos
        other = self.stack[i - 1]
        key = (i, s_over)
        self.events.append(_CROSSES.get(key) or _CROSSES.setdefault(key, Cross(*key)))
        self.stack[i - 1], self.stack[i] = s, other
        s.pos, other.pos = i - 1, i

    def cap(self, lower: _Strand) -> None:
        i = lower.pos
        self.events.append(Cap(i + 1))
        del self.stack[i : i + 2]
        self._renumber(i)

    def cup(self, at: int, lower: _Strand, upper: _Strand) -> None:
        self.events.append(Cup(at + 1, lower.orient))
        self.stack[at:at] = [lower, upper]
        self._renumber(at)

    def kink(self, s: _Strand, sign: int) -> None:
        self.events.append(Kink(s.pos + 1, sign))


def _weave(asm: _Assembler, s: _Strand, target: int, flags: str, clasp: int) -> int:
    """Cross s one strand at a time until it sits at index target.

    A cable strand is crossed over or under as the next of ``flags`` says;
    another gadget's strand is crossed over only if that gadget came earlier.
    Returns how many flags were used.
    """
    used = 0
    up = target > s.pos
    while s.pos != target:
        neighbor = asm.stack[s.pos + (1 if up else -1)]
        if neighbor.kind == "eta":
            over = flags[used] == "o"
            used += 1
        else:
            assert neighbor.clasp != clasp
            over = neighbor.clasp < clasp  # transit: over earlier gadgets only
        (asm.cross_up if up else asm.cross_down)(s, over)
    return used


def _compile_word(n: int, clasps: tuple[ClaspSpec, ...]) -> AnnularWord:
    if n < 1:
        raise PatternError(f"cable winding must be at least 1, got {n}")
    # Seam stack, bottom to top: gap-0 strands, cable level 1, gap-1 strands,
    # ..., cable level n, gap-n strands. Within a gap: by clasp index, enter
    # below exit, which is the order the gaps are filled in.
    gap_members: list[list[_Strand]] = [[] for _ in range(n + 1)]
    enters: list[_Strand] = []
    exits: list[_Strand] = []
    for i, c in enumerate(clasps):
        e = _Strand("clasp", c.clasp_sign, clasp=i)
        x = _Strand("clasp", -c.clasp_sign, clasp=i)
        enters.append(e)
        exits.append(x)
        gap_members[c.gap_enter].append(e)
        gap_members[c.gap_exit].append(x)
    etas = [_Strand("eta", 1) for _ in range(n)]
    seam_order: list[_Strand] = []
    for g in range(n + 1):
        if g > 0:
            seam_order.append(etas[g - 1])
        seam_order += gap_members[g]
    asm = _Assembler(list(seam_order))
    home = {s: i for i, s in enumerate(seam_order)}
    labels = [("eta", home[etas[0]] + 1)]
    labels += [(f"L{i + 1}", home[e] + 1) for i, e in enumerate(enters)]

    for i in sorted(range(len(clasps)), key=lambda i: (clasps[i].slot, i)):
        c = clasps[i]
        e, x = enters[i], exits[i]
        asm.kink(e, c.framing)
        d = abs(c.gap_exit - c.gap_enter)
        flags_in, flags_out = c.weave[:d], c.weave[d:]
        # x keeps its index while e weaves in to sit next to it.
        xi = x.pos
        used = _weave(asm, e, xi - 1 if xi > e.pos else xi + 1, flags_in, i)
        assert used == d, "weave must cross each intermediate cable strand once"
        ascending = e.pos < x.pos
        lower = e if ascending else x
        at = lower.pos
        asm.cap(lower)
        e2 = _Strand("clasp", c.clasp_sign, clasp=i)
        x2 = _Strand("clasp", -c.clasp_sign, clasp=i)
        asm.cup(at, e2 if ascending else x2, x2 if ascending else e2)
        used = _weave(asm, e2, home[e], flags_out, i)
        assert used == d
        # The reborn pair now sits exactly where the seam expects it.
        home[e2], home[x2] = home.pop(e), home.pop(x)

    # Braid section: the bottom cable strand shifts over everything to the
    # top; every other cable strand steps down one level, re-crossing over the
    # parked gadget strands of the gap it lands above.
    mover = etas[0]
    for l in range(1, n):
        passed = 0
        while True:
            above = asm.stack[mover.pos + 1]
            if above.kind == "eta":
                break
            asm.cross_up(mover, True)  # cable over gadget
            passed += 1
        descending = asm.stack[mover.pos + 1]
        asm.cross_up(mover, True)  # positive cable crossing: shifting strand over
        for _ in range(passed):
            asm.cross_down(descending, True)  # cable over gadget

    orientations = tuple(s.orient for s in seam_order)
    word = AnnularWord(orientations, tuple(asm.events), tuple(labels))
    analyze(word)  # structural self-check; raises on assembler bugs
    return word


def cable_template(n: int) -> AnnularWord:
    """The (n,1)-cable word: one component ``eta`` of winding n."""
    return _compile_word(n, ())


def compile(p: ClaspPresentation) -> AnnularWord:
    """Compile a presentation to an annular word with components eta, L1..Lk."""
    return _compile_word(p.n, p.clasps)


@dataclass(frozen=True)
class ValidationItem:
    name: str
    component: str
    ok: bool
    warning: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    items: tuple[ValidationItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.ok or item.warning for item in self.items)

    def failures(self) -> tuple[ValidationItem, ...]:
        return tuple(i for i in self.items if not i.ok and not i.warning)


def validate(word: AnnularWord) -> ValidationReport:
    """Check the surgery-curve contracts on a word with a component named eta.

    Hard checks per labeled non-eta component L: winding(L) = 0,
    linking(L, eta) = 0, framing(L) in {+1, -1}. Advisory warnings:
    wrapping(L) != 2 and nonzero mutual gadget linkings.
    """
    ana = analyze(word)
    labels = ana.labels()
    eta = ana.component_by_name("eta")
    surgery = [(cid, name) for cid, name in sorted(labels.items()) if name != "eta"]
    items: list[ValidationItem] = []
    for cid, name in surgery:
        w = ana.winding(cid)
        items.append(
            ValidationItem("WindingNonzero", name, w == 0, False, f"winding {w}")
        )
        lk = ana.linking(cid, eta)
        items.append(
            ValidationItem("EtaLinkingNonzero", name, lk == 0, False, f"linking with eta {lk}")
        )
        fr = ana.framing(cid)
        items.append(
            ValidationItem("FramingNotUnit", name, fr in (-1, 1), False, f"framing {fr}")
        )
        wr = ana.wrapping(cid)
        items.append(
            ValidationItem("WrappingNotTwo", name, wr == 2, True, f"wrapping {wr}")
        )
    for a in range(len(surgery)):
        for b in range(a + 1, len(surgery)):
            lk = ana.linking(surgery[a][0], surgery[b][0])
            items.append(
                ValidationItem(
                    "ClaspClaspLinking",
                    f"{surgery[a][1]},{surgery[b][1]}",
                    lk == 0,
                    True,
                    f"mutual linking {lk}",
                )
            )
    return ValidationReport(tuple(items))


def add_cancelling_pair(p: ClaspPresentation, template: ClaspSpec) -> ClaspPresentation:
    """Append two parallel copies of ``template`` with opposite sign and framing.

    Surgery on the pair cancels, so every downstream linking number is
    unchanged; this is the differential-testing hook.
    """
    twin = replace(template, clasp_sign=-template.clasp_sign, framing=-template.framing)
    return replace(p, clasps=p.clasps + (template, twin))


def random_presentation(n: int, k: int, seed: int) -> ClaspPresentation:
    """Deterministic generator of valid presentations (balanced weaves)."""
    rng = random.Random(("presentation", n, k, seed).__repr__())
    clasps = []
    for i in range(k):
        g1 = rng.randint(0, n)
        g2 = rng.randint(0, n)
        d = abs(g2 - g1)
        flags_in = "".join(rng.choice("ou") for _ in range(d))
        clasps.append(
            ClaspSpec(
                slot=i,
                gap_enter=g1,
                gap_exit=g2,
                weave=flags_in + flags_in[::-1],
                clasp_sign=rng.choice((-1, 1)),
                framing=rng.choice((-1, 1)),
            )
        )
    return ClaspPresentation(n, tuple(clasps), name=f"random-n{n}-k{k}-s{seed}")


# ---------------------------------------------------------------------------
# Text DSL and JSON mirror


_HEADER = "pattern v1"


def serialize(p: ClaspPresentation) -> str:
    lines = [_HEADER]
    if p.name:
        lines.append(f"name {p.name}")
    lines.append(f"cable {p.n}")
    for c in p.clasps:
        parts = [f"clasp slot {c.slot} enter {c.gap_enter} exit {c.gap_exit}"]
        if c.weave:
            parts.append(f"weave {c.weave}")
        parts.append(f"sign {'+' if c.clasp_sign == 1 else '-'}")
        parts.append(f"framing {'+1' if c.framing == 1 else '-1'}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse(text: str) -> ClaspPresentation:
    name: str | None = None
    n: int | None = None
    clasps: list[ClaspSpec] = []
    lines = _lines(text)
    lineno, line = next(lines, (1, ""))
    if line != _HEADER:
        raise PatternSyntaxError(f"{'expected' if line else 'missing'} {_HEADER!r} header", lineno)
    for lineno, line in lines:
        toks = line.split()
        if toks[0] == "name":
            if name is not None:
                raise PatternSyntaxError("duplicate name line", lineno)
            if len(toks) != 2:
                raise PatternSyntaxError("usage: name NAME", lineno)
            name = toks[1]
        elif toks[0] == "cable":
            if n is not None:
                raise PatternSyntaxError("duplicate cable line", lineno)
            try:
                (tok,) = toks[1:]  # a ValueError unless there is exactly one
                n = _int_literal(tok, "cable")
            except ValueError:
                raise PatternSyntaxError("usage: cable N", lineno) from None
        elif toks[0] == "clasp":
            if n is None:
                raise PatternSyntaxError("cable line must precede clasps", lineno)
            if len(toks) % 2 == 0:
                raise PatternSyntaxError("clasp takes key-value pairs", lineno)
            fields = _unique_keys(zip(toks[1::2], toks[2::2]), "clasp", lineno)
            try:
                _check_keys(fields, "clasp", *_CLASP_KEYS)
                sign_tok = fields.get("sign", "+")
                if sign_tok not in ("+", "-"):
                    raise ValueError(f"sign must be + or -, got {sign_tok!r}")
                clasps.append(
                    ClaspSpec(
                        slot=_int_literal(fields["slot"], "slot"),
                        gap_enter=_int_literal(fields["enter"], "enter"),
                        gap_exit=_int_literal(fields["exit"], "exit"),
                        weave=fields.get("weave", ""),
                        clasp_sign=1 if sign_tok == "+" else -1,
                        framing=_int_literal(fields.get("framing", "-1"), "framing"),
                    )
                )
            except (ValueError, PatternError) as exc:
                raise PatternSyntaxError(str(exc), lineno) from exc
        else:
            raise PatternSyntaxError(f"unknown directive {toks[0]!r}", lineno)
    if n is None:
        raise PatternSyntaxError("missing cable line", 1)
    try:
        return ClaspPresentation(n, tuple(clasps), name=name or "")
    except PatternError as exc:
        raise PatternSyntaxError(str(exc), 1) from exc


def to_json(p: ClaspPresentation) -> str:
    doc = {
        "pattern": "v1",
        "name": p.name,
        "cable": p.n,
        "clasps": [
            {
                "slot": c.slot,
                "enter": c.gap_enter,
                "exit": c.gap_exit,
                "weave": c.weave,
                "sign": c.clasp_sign,
                "framing": c.framing,
            }
            for c in p.clasps
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _json_int(value, key: str) -> int:
    # A JSON integer (not true or false) or an integral float such as 8.0;
    # int() would also read " 8" and true, and truncate 8.5.
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


_CLASP_KEYS = (("slot", "enter", "exit"), ("weave", "sign", "framing"))  # required, optional


def _check_keys(value, what: str, required: tuple[str, ...], optional: tuple[str, ...]) -> None:
    # The keys the text form knows, and no others: a misspelt key is an error, not a default.
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {value!r}")
    unknown = set(value) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown {what} keys {sorted(unknown)}")
    for key in required:
        if key not in value:
            raise ValueError(f"missing {what} key {key!r}")


def _unique_keys(pairs, what: str = "JSON", line: int = 1) -> dict:
    # Both pattern forms reject a repeated key; json.loads alone would keep the last one.
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise PatternSyntaxError(f"duplicate {what} key {key!r}", line)
        doc[key] = value
    return doc


def from_json(text: str) -> ClaspPresentation:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise PatternSyntaxError(f"invalid JSON: {exc}", exc.lineno) from exc
    except RecursionError:
        raise PatternSyntaxError("invalid JSON: nested too deeply", 1) from None
    except ValueError as exc:  # an integer literal longer than int() may read
        raise PatternSyntaxError(f"invalid JSON: {exc}", 1) from exc
    if not isinstance(doc, dict) or doc.get("pattern") != "v1":
        raise PatternSyntaxError('expected {"pattern": "v1", ...}', 1)
    try:
        _check_keys(doc, "top-level", ("pattern", "cable"), ("name", "clasps"))
        clasps = doc.get("clasps", [])
        if not isinstance(clasps, list):
            raise ValueError(f"clasps must be an array, got {clasps!r}")
        for c in clasps:
            _check_keys(c, "clasp", *_CLASP_KEYS)
            if not isinstance(c.get("weave", ""), str):
                raise ValueError(f"weave must be a string, got {c['weave']!r}")
        specs = tuple(
            ClaspSpec(
                slot=_json_int(c["slot"], "slot"),
                gap_enter=_json_int(c["enter"], "enter"),
                gap_exit=_json_int(c["exit"], "exit"),
                weave=c.get("weave", ""),
                clasp_sign=_json_int(c.get("sign", 1), "sign"),
                framing=_json_int(c.get("framing", -1), "framing"),
            )
            for c in clasps
        )
        n = _json_int(doc["cable"], "cable")
        name = doc.get("name", "")
        if name != "":
            _check_token(name, "name")
        return ClaspPresentation(n, specs, name=name)
    except (ValueError, PatternError) as exc:
        raise PatternSyntaxError(str(exc), 1) from exc
