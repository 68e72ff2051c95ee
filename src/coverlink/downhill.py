"""Normalizing a one-component annular diagram to cable-plus-clasps form.

The traversal walks the curve once, from the bottom seam strand along its
orientation, over the segment joins that ``analyze`` has already swept; the
walk against the orientation is the same passages run backwards. Either walk
flips each crossing that is first reached on the under strand; a diagram in
which every crossing is first reached on the over strand (the downhill
property) is isotopic to the standard cable, so the flips are exactly the
crossing changes separating the input from the cable, and each one is
emitted as a clasp gadget. Returning strands (arcs entering
and leaving the rectangle on the same side) are removed pairwise by merging
them into their neighbors; the reduced word is returned in straightened
canonical form, where the wrapping number equals the absolute winding number.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .diagram import _CAPS, _CUPS, AnnularWord, Cap, Cross, Cup, Event, Kink, _grow_tables
from .diagram import InvariantViolationError, analyze
from .pattern import ClaspPresentation, ClaspSpec, cable_template


class MultiComponentError(Exception):
    """The traversal needs a single-component diagram."""


class NotDownhillError(Exception):
    """A crossing is first reached on the under strand."""


class WindingTooSmallError(Exception):
    """Normalization needs |winding| >= 2."""


class _Passage(NamedTuple):
    event: int  # event index, or -1 for a seam crossing
    kind: str  # "over" | "under" | "seam"
    direction: int = 0  # seam crossings only: +1 rightward, -1 leftward


def _curve(word: AnnularWord) -> list[_Passage]:
    """Ordered passages of the single closed curve, along its orientation.

    Starts at the bottom seam strand at the word start (the diagram's unique
    minimal point), or at a seamless circle's first-cup lower newborn: the
    analysis's segment 0. The walk reads the same joins that ``analyze``
    walks, rightward from segment 0: each segment gives its crossings in event
    order, reversed when walked leftward, and each seam join a seam passage.
    When segment 0 runs leftward the curve's orientation is that walk run
    backwards, :func:`_reversed`, which is also the walk against the
    orientation from the same point.
    """
    ana = analyze(word)
    if len(ana.components) != 1:
        raise MultiComponentError(f"diagram has {len(ana.components)} components")
    sweep = ana._sweep
    on_segment: list[list[_Passage]] = [[] for _ in range(sweep.seg_count)]
    for lo, up, _, idx in sweep.flat_crossings():
        upper_over = word.events[idx].upper_over
        on_segment[lo].append(_Passage(idx, "under" if upper_over else "over"))
        on_segment[up].append(_Passage(idx, "over" if upper_over else "under"))
    passages: list[_Passage] = []
    seg, forward = 0, True
    while True:
        passages += on_segment[seg] if forward else reversed(on_segment[seg])
        j = sweep.ends[seg] if forward else sweep.starts[seg]
        if j >= 0:  # a cup or cap turns the walk around
            seg, forward = j, not forward
        else:
            passages.append(_Passage(-1, "seam", 1 if forward else -1))
            seg = ~j if forward else sweep.seam_ends[~j]
        if seg == 0:
            break
    # A seamless circle's only component starts with its first event, a cup.
    orientation = word.seam_orientations[0] if word.seam_width else word.events[0].sign
    return passages if orientation == 1 else _reversed(passages)


def _reversed(passages: list[_Passage]) -> list[_Passage]:
    """The same closed walk run backwards: reverse order, seam directions negated."""
    return [
        _Passage(-1, "seam", -p.direction) if p.kind == "seam" else p
        for p in reversed(passages)
    ]


def _first_visit_flips(passages: list[_Passage]) -> list[int]:
    """Event indices of crossings first reached on the under strand."""
    seen: set[int] = set()
    flips: list[int] = []
    for event, kind, _ in passages:
        if kind != "seam" and event not in seen:
            seen.add(event)
            if kind == "under":
                flips.append(event)
    return flips


def _flip_events(word: AnnularWord, flips: list[int]) -> AnnularWord:
    if not flips:
        return word
    events = list(word.events)
    crosses = _grow_tables(max(events[idx].position for idx in flips) + 1)
    for idx in flips:
        ev = events[idx]
        if not isinstance(ev, Cross):
            raise InvariantViolationError(f"event {idx} to flip is not a crossing")
        events[idx] = crosses[not ev.upper_over][ev.position]
    return AnnularWord(word.seam_orientations, tuple(events), word.labels)


def force_downhill(word: AnnularWord) -> tuple[AnnularWord, tuple[int, ...]]:
    """Flip crossings so every crossing is first reached as an overcrossing.

    Returns the adjusted word and the flipped event indices, in traversal
    order. Kinks are exempt: a kink flips by an isotopy of the curve, never
    by a crossing change. Idempotent: the output re-traverses with no flips.
    """
    flips = _first_visit_flips(_curve(word))
    return _flip_events(word, flips), tuple(flips)


def is_downhill(word: AnnularWord) -> bool:
    return not _first_visit_flips(_curve(word))


def reduce_returning(word: AnnularWord) -> AnnularWord:
    """Remove returning strands pairwise; the result has wrapping = |winding|.

    Requires a downhill single-component word. The output is the reduced
    diagram in straightened canonical form (strands pulled straight along
    the removal isotopies, which introduce no crossings): the |w|-strand
    cable word for winding w, orientation-reversed when w < 0, and a
    seamless circle in the degenerate winding-0 case.
    """
    if not is_downhill(word):
        raise NotDownhillError("input must satisfy the downhill property")
    ana = analyze(word)
    w = ana.components[0].winding
    if w == 0:
        return AnnularWord((), (Cup(1, 1), Cap(1)))
    template = cable_template(abs(w))
    if w > 0:
        return template
    flipped = tuple(-o for o in template.seam_orientations)
    return AnnularWord(flipped, template.events, template.labels)


def _strand_heights(passages: list[_Passage], n: int) -> list[int]:
    """Straightened cable height for every passage position.

    Seam crossings split the closed walk into arcs; arc i runs into seam
    crossing i. Adjacent seam crossings of opposite direction bound a
    returning arc, and removing the pair merges the arc before, between and
    after them. One pass in walk order cancels each crossing against the
    last uncancelled one, a stack. The stack only holds crossings of one
    direction, so no pair is left to cancel across the cycle's ends, and the
    directions sum to +-n, so n crossings survive. Every cancelled pair lies
    between two surviving crossings, so each arc merges into the arc of the
    first surviving crossing at or after it, wrapping to the first. Those n
    arcs are the cable strands, with the base-point arc as the shifting strand
    (height 1) and the j-th later arc at height n+1-j.
    """
    arc_of_passage: list[int] = []
    dirs: list[int] = []
    for p in passages:
        arc_of_passage.append(len(dirs))
        if p.kind == "seam":
            dirs.append(p.direction)
    stack: list[int] = []  # the uncancelled seam crossings, in walk order
    for i, d in enumerate(dirs):
        if stack and dirs[stack[-1]] == -d:
            stack.pop()
        else:
            stack.append(i)
    if len(stack) != n:
        raise InvariantViolationError(f"{len(stack)} seam crossings survive, not the cable's {n}")
    return [-bisect_left(stack, a) % n + 1 for a in arc_of_passage]


@dataclass(frozen=True)
class ChangeRecord:
    """One emitted crossing change and the clasp gadget realizing it."""

    event: int
    strand_low: int  # straightened cable heights of the two crossing strands
    strand_high: int
    clasp: ClaspSpec


@dataclass(frozen=True)
class NormalizeResult:
    presentation: ClaspPresentation
    orientation: str  # "Standard" | "Reversed"
    changes: tuple[ChangeRecord, ...]
    word: AnnularWord  # the downhill word the changes were read from


def normalize(word: AnnularWord) -> NormalizeResult:
    """Emit the cable-plus-clasps presentation realizing the input pattern.

    Kinks are stripped first, into a new word (isotopies; the pattern curve
    carries no framing data). The crossing-change traversal reads the one
    walk both along and against the curve's orientation and keeps whichever
    needs fewer changes (ties prefer along); the result is Reversed exactly
    when the emitted data describes the input curve run backwards.
    """
    kept = tuple(ev for ev in word.events if not isinstance(ev, Kink))
    stripped = AnnularWord(word.seam_orientations, kept, word.labels)
    ana = analyze(stripped)
    if len(ana.components) != 1:
        raise MultiComponentError(f"diagram has {len(ana.components)} components")
    w = ana.components[0].winding
    if abs(w) < 2:
        raise WindingTooSmallError(f"winding {w}; need |winding| >= 2")
    input_reversed = False
    if w < 0:
        stripped = AnnularWord(
            tuple(-o for o in stripped.seam_orientations),
            tuple(
                Cup(ev.position, -ev.sign) if isinstance(ev, Cup) else ev
                for ev in stripped.events
            ),
            stripped.labels,
        )
        input_reversed = True
        w = -w

    forward = _curve(stripped)
    backward = _reversed(forward)
    flips_fwd = _first_visit_flips(forward)
    flips_bwd = _first_visit_flips(backward)
    use_backward = len(flips_bwd) < len(flips_fwd)
    passages = backward if use_backward else forward
    flips = flips_bwd if use_backward else flips_fwd
    downhill_word = _flip_events(stripped, flips)

    heights = _strand_heights(passages, w)
    by_event: dict[int, list[int]] = {idx: [] for idx in flips}  # each flip's two passages
    for pos, (event, kind, _) in enumerate(passages):
        if event in by_event:
            by_event[event].append(pos)
    # _curve analysed this same word, so its sweep is a cache hit.
    signs = {idx: sign for _, _, sign, idx in analyze(stripped)._sweep.flat_crossings()}
    changes: list[ChangeRecord] = []
    for slot, ev_idx in enumerate(flips):
        pos1, pos2 = by_event[ev_idx]
        h1, h2 = sorted((heights[pos1], heights[pos2]))
        g_e, g_x = h1 - 1, h2
        # Levels h1..h2: under the two crossing strands, over every strand between.
        flags_in = "u" + "o" * (h2 - h1 - 1) + "u" if h2 > h1 else "u"
        clasp = ClaspSpec(
            slot=slot,
            gap_enter=g_e,
            gap_exit=g_x,
            weave=flags_in + flags_in[::-1],
            clasp_sign=1,
            framing=-signs[ev_idx],
        )
        changes.append(ChangeRecord(ev_idx, h1, h2, clasp))
    presentation = ClaspPresentation(w, tuple(c.clasp for c in changes), name="normalized")
    orientation = "Reversed" if (input_reversed != use_backward) else "Standard"
    return NormalizeResult(presentation, orientation, tuple(changes), downhill_word)


def random_annular_word(n: int, seed: int) -> AnnularWord:
    """Deterministic single-component word of winding n, wrapping n, n+2 or n+4.

    Starts from the cable skeleton and splices in up to two seam fingers
    (a strand diverted backwards through the seam and re-joined, raising the
    wrapping by two and creating returning arcs), with random over/under
    flags everywhere and random extra crossing pairs (none when n is 1). The
    stack lists strand ids bottom to top: ids below n are cable strands, and
    each finger adds an inward (+1) and an outward (-1) strand. A strand
    moves one crossing at a time, swapping places with its neighbour.
    """
    if n < 1:
        raise ValueError(f"winding must be at least 1, got {n}")
    rng = random.Random(("annular", n, seed).__repr__())
    fingers = rng.randint(0, 2)
    finger_pairs = [(f, f + 1) for f in range(n, n + 2 * fingers, 2)]
    seam_order = list(range(n))
    for pair in finger_pairs:
        gap = rng.randint(0, len(seam_order))
        seam_order[gap:gap] = pair
    outward = {t_out for _, t_out in finger_pairs}
    stack = list(seam_order)
    crosses = _grow_tables(len(stack))
    events: list[Event] = []

    def move_to(s: int, target: int) -> None:
        """Cross s one strand at a time to index target; the upper strand is over at random."""
        i = stack.index(s)
        while i != target:
            k = i + 1 if target > i else i - 1  # s swaps with the strand at index k
            events.append(crosses[rng.random() < 0.5][max(i, k)])
            stack[i], stack[k] = stack[k], s
            i = k

    home = {s: i for i, s in enumerate(seam_order)}
    for t_in, t_out in finger_pairs:
        # The ids below t_in left on the stack: cable strands and earlier splice strands.
        victim = rng.choice([s for s in stack if s < t_in])
        # t_out keeps its index while the victim moves in next to it.
        at = stack.index(t_out)
        move_to(victim, at - 1 if at > stack.index(victim) else at + 1)
        lower = min(at, stack.index(victim))
        events.append(_CAPS[lower + 1])
        del stack[lower : lower + 2]
        home[t_in] = home.pop(victim)
        home.pop(t_out)
        # The splice strand takes over the victim's slot in seam order.
        move_to(t_in, sum(1 for s in stack if s != t_in and home[s] < home[t_in]))

    # One-shift braid with random flags, finger-free stack of n strands.
    move_to(stack[0], n - 1)
    # Random extra crossing pairs keep the permutation but add crossings.
    for _ in range(rng.randint(0, 4) if n > 1 else 0):
        i = rng.randint(0, n - 2)
        s = stack[i]
        move_to(s, i + 1)
        move_to(s, i)

    # Re-birth the finger pairs at their seam heights, bottom-up.
    births = sorted(seam_order.index(t_in) for t_in, _ in finger_pairs)
    events += [_CUPS[True][at + 1] for at in births]
    word = AnnularWord(
        tuple(-1 if s in outward else 1 for s in seam_order), tuple(events), (("pattern", 1),)
    )
    if [c.winding for c in analyze(word).components] != [n]:
        raise InvariantViolationError(f"random word is not one curve of winding {n}")
    return word
