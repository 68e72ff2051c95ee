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
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

from .diagram import _CAPS, _CUPS, _KINKS, AnnularWord, Event, analyze
from .diagram import _check_token, _grow_tables, _int_literal, _lines


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


def _check_ints(obj, *names: str) -> None:
    # Only an int (not a bool, nor an integral float) reads back from the text forms.
    for name in names:
        if type(value := getattr(obj, name)) is not int:
            raise PatternError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, slots=True)
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
        _check_ints(self, "slot", "gap_enter", "gap_exit", "clasp_sign", "framing")
        if self.slot < 0:
            raise SlotOutOfRangeError(f"slot {self.slot} is negative")
        if self.clasp_sign not in (-1, 1):
            raise PatternError(f"clasp sign must be +1 or -1, got {self.clasp_sign}")
        if self.framing not in (-1, 1):
            raise PatternError(f"framing must be +1 or -1, got {self.framing}")
        if not isinstance(self.weave, str):
            raise PatternError(f"weave must be a string, got {self.weave!r}")
        if self.weave.strip("ou"):  # a flag other than 'o' or 'u'
            raise WeaveLengthError(f"weave {self.weave!r} may only contain 'o' and 'u'")
        d = abs(self.gap_exit - self.gap_enter)
        if len(self.weave) != 2 * d:
            raise WeaveLengthError(
                f"weave {self.weave!r} has {len(self.weave)} flags, "
                f"gap distance {d} needs {2 * d}"
            )


@dataclass(frozen=True, slots=True)
class ClaspPresentation:
    n: int
    clasps: tuple[ClaspSpec, ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.name != "":  # the text forms must read the name back
            _check_token(self.name, "name", PatternError)
        _check_ints(self, "n")
        # Only a tuple of specs hashes, and reads back equal from the text forms.
        if not isinstance(self.clasps, tuple) or any(type(c) is not ClaspSpec for c in self.clasps):
            raise PatternError(f"clasps must be a tuple of ClaspSpec, got {self.clasps!r}")
        if self.n < 2:
            raise PatternError(f"cable winding must be at least 2, got {self.n}")
        if (width := self.n + 2 * len(self.clasps)) > sys.maxsize:  # no list indexes its seam
            raise PatternError(f"cable {self.n} needs a seam of {width} strands, too many to index")
        for c in self.clasps:
            for g in (c.gap_enter, c.gap_exit):
                if not 0 <= g <= self.n:
                    raise GapOutOfRangeError(f"gap {g} outside 0..{self.n}")


def _compile_word(n: int, clasps: tuple[ClaspSpec, ...]) -> AnnularWord:
    """Emit a presentation's word from its seam layout alone.

    The seam layout, bottom to top, is the gap-0 gadget strands, cable level
    1, the gap-1 strands, ..., cable level n, the gap-n strands; within a gap
    by clasp index, enter below exit. It is laid out by occupied gaps alone:
    every index starts as a cable strand, and a gadget strand in gap g with j
    gadget strands below it sits at index g + j. Each gadget section, in slot
    order, starts and ends with every strand at its seam index. With a and b
    the seam indices of its enter and exit strands, it is a kink at a + 1;
    the weave-in run, where the enter strand crosses each strand strictly
    between a and b in turn; a cap and a cup at b (a < b) or b + 1 (a > b),
    which re-birth the pair; and the weave-out run, the same strands crossed
    back in reverse order. Only the weaving strand moves, so each crossing's
    gap is read off the crossed strand's seam index. The strands crossed are
    the d = |gap_exit - gap_enter| cable strands between the two gaps and the
    parked strands of other gadgets: each run takes d weave flags in turn,
    and a parked strand is crossed over only if its gadget has a smaller index.
    Every event comes from the shared tables, so a compile builds none.

    The braid section then shifts the bottom cable strand to the top. At a
    level with the shifting strand at index pos and g parked gadget strands
    above it, the shifting strand crosses over those and the next cable strand
    (gaps pos + 1 ... pos + g + 1), and that cable strand steps down over the
    parked strands (gaps pos + g ... pos + 1). The section steps only over
    occupied gaps, where pos is one below the gap's lowest seat: a run of
    levels with no parked strand is one slice of lower-over crossings.
    """
    if n < 1:
        raise PatternError(f"cable winding must be at least 1, got {n}")
    gaps: dict[int, list[int]] = {}  # occupied gap -> strands; 2i: enter of clasp i, 2i + 1: exit
    for i, c in enumerate(clasps):
        gaps.setdefault(c.gap_enter, []).append(2 * i)
        gaps.setdefault(c.gap_exit, []).append(2 * i + 1)
    occupied = sorted(gaps)
    width = n + 2 * len(clasps)
    owner = [-1] * width  # the clasp of each seam strand, -1 for a cable strand
    orientations = [1] * width
    seat = [0] * (2 * len(clasps))  # each gadget strand's seam index
    below = 0  # the gadget strands in lower gaps
    for g in occupied:
        for s in gaps[g]:
            sign = clasps[s >> 1].clasp_sign
            seat[s] = h = g + below  # above cable levels 1..g
            below += 1
            owner[h] = s >> 1
            orientations[h] = -sign if s & 1 else sign
    crosses = _grow_tables(width)
    events: list[Event] = []
    # A stable sort by slot keeps the clasp order within a slot.
    for i in sorted(range(len(clasps)), key=[c.slot for c in clasps].__getitem__):
        c = clasps[i]
        a, b = seat[2 * i], seat[2 * i + 1]
        up = a < b  # the weaving strand is the lower of each pair on the way in iff up
        shift = 0 if up else 1  # crossing strand s takes gap s going up, s + 1 going down
        run = range(a + 1, b) if up else range(a - 1, b, -1)
        flags = iter(c.weave)
        # The upper strand is over when the weaving strand goes over from above or under
        # from below: on the way in, ``over`` is the row of the weaving strand going over.
        over, under = crosses[not up], crosses[up]
        events.append(_KINKS[c.framing > 0][a + 1])
        events += [
            (over if (next(flags) == "o" if owner[s] < 0 else owner[s] < i) else under)[s + shift]
            for s in run
        ]
        # The lower newborn is the enter strand going up, the exit strand going down.
        events += (_CAPS[b + shift], _CUPS[(c.clasp_sign > 0) == up][b + shift])
        events += [
            (under if (next(flags) == "o" if owner[s] < 0 else owner[s] < i) else over)[s + shift]
            for s in reversed(run)
        ]
    start = bottom = len(gaps.get(0, ()))  # start: the shifting strand's index where the run began
    for g in occupied:
        if 0 < g < n:
            # The shifting strand, at level g, sits just below the gap's parked strands.
            pos, top = seat[gaps[g][0]] - 1, seat[gaps[g][-1]]
            events += crosses[False][start + 1 : top + 2]  # the lower strand over
            events += crosses[True][top : pos : -1]  # the upper strand over
            start = top + 1
    events += crosses[False][start + 1 : width - len(gaps.get(n, ()))]
    labels = [("eta", bottom + 1)]
    labels += [(f"L{i + 1}", seat[2 * i] + 1) for i in range(len(clasps))]
    word = AnnularWord(tuple(orientations), tuple(events), tuple(labels))
    analyze(word)  # structural self-check; raises on compiler bugs
    return word


def cable_template(n: int) -> AnnularWord:
    """The (n,1)-cable word: one component ``eta`` of winding n."""
    return _compile_word(n, ())


def compile(p: ClaspPresentation) -> AnnularWord:
    """Compile a presentation to an annular word with components eta, L1..Lk."""
    return _compile_word(p.n, p.clasps)


class ValidationItem(NamedTuple):
    name: str
    component: str
    ok: bool
    warning: bool
    detail: str


# ``ValidationItem(...)`` runs the generated ``__new__``, one Python call per item;
# ``tuple.__new__`` builds the same named tuple in C.
_item = partial(tuple.__new__, ValidationItem)


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
    wrapping(L) != 2 and nonzero mutual gadget linkings. Framings and
    linkings come from one read of the base table, ``cover_tables(1)``.
    """
    ana = analyze(word)
    eta = ana.component_by_name("eta")
    surgery = [(cid, name) for cid, name in sorted(ana.labels().items()) if name != "eta"]
    framing, lk = ana.cover_tables(1) if surgery else ({}, {})
    items: list[ValidationItem] = []
    for cid, name in surgery:
        w, wr = ana.components[cid].winding, ana.components[cid].wrapping
        fr, v = framing[cid], lk.get((cid, eta), (0,))[0]
        items += (
            _item(("WindingNonzero", name, w == 0, False, f"winding {w}")),
            _item(("EtaLinkingNonzero", name, v == 0, False, f"linking with eta {v}")),
            _item(("FramingNotUnit", name, fr in (-1, 1), False, f"framing {fr}")),
            _item(("WrappingNotTwo", name, wr == 2, True, f"wrapping {wr}")),
        )
    for i, (a, name_a) in enumerate(surgery):
        for b, name_b in surgery[i + 1 :]:
            v = lk.get((a, b), (0,))[0]
            pair = f"{name_a},{name_b}"
            items.append(_item(("ClaspClaspLinking", pair, v == 0, True, f"mutual linking {v}")))
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
    cable_line = 1
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
            cable_line = lineno
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
    except PatternError as exc:  # each such error reads the cable line's winding
        raise PatternSyntaxError(str(exc), cable_line) from exc


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
        return ClaspPresentation(n, specs, name=doc.get("name", ""))
    except (ValueError, PatternError) as exc:
        raise PatternSyntaxError(str(exc), 1) from exc
