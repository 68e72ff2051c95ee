"""Annular diagrams of oriented curves in the cut-open complement of an unknotted axis.

A diagram is a rectangle read left to right whose right edge re-glues to its
left edge (the seam). Curves appear as horizontal strands transformed by
events: crossings between adjacent strands, births (cups), deaths (caps) and
framing kinks. The branch axis itself is implicit — it is the core of the
identified seam and never a component.

Conventions:

* Strand positions are 1-based, bottom to top. A ``Cross`` at gap p involves
  the strands at positions p and p+1.
* Each strand carries an orientation: +1 for a curve running rightward
  (in the reading direction), -1 for leftward.
* Crossing signs are never stored in a word; they are computed from the two
  strand orientations and the over/under flag:
  ``sign = o_lower * o_upper * (-1 if upper_over else +1)``. The sweep reads
  them off an 8-entry table of :func:`crossing_sign`, built again whenever
  that function is replaced.
* A component's framing is its writhe: signed kinks plus signed
  self-crossings.
* The sweep records each segment's two joins: a cup or cap partner, or a seam
  edge. Every component is a cycle of segments, so one walk around it gives
  each segment a sheet offset (one sheet per seam passage), and one pass over
  the base word's crossings yields, per pair of components, one row of
  crossing counts by sheet delta: every cyclic cover's crossing data. A
  component's own row is folded once onto |delta|, since a self crossing at
  -delta joins the same lift pairs as one at delta.
  ``WordAnalysis.cover_tables(m)`` folds each row once per degree.
* A run of at least ``_RUN`` crossings ``Cross(p), Cross(p + 1), ...`` with
  one flag, all from the shared table ``_CROSSES``, is one sweep record: one
  strand, the mover, passes each strand above it in turn. A compiled cable
  of winding above ``_RUN`` is one run; a shorter stretch, such as a braid
  slice of a small presentation, costs less read crossing by crossing. When
  the crossed strands lie in the mover's component at consecutive sheets,
  the tally adds the whole run into that component's row as one slice.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress, count, islice, repeat
from operator import add, is_, is_not, itemgetter
from typing import NamedTuple


class DiagramError(Exception):
    """Base class for diagram-level failures; ``event`` indexes the event at fault, if one is."""

    def __init__(self, message: str, event: int | None = None):
        self.event = event
        super().__init__(message if event is None else f"event {event}: {message}")


class DiagramSyntaxError(DiagramError):
    def __init__(self, message: str, line: int, col: int = 1):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class StrandCountMismatch(DiagramError):
    """An event addresses a strand position that does not exist."""


class SeamMismatch(DiagramError):
    """Strands at the right edge do not re-glue to the left edge."""


class OrientationMismatch(DiagramError):
    """A cap joins two strands running the same way."""


class UnknownComponentError(DiagramError):
    """No component at the requested segment, seam position or label."""


class WindingNotDivisibleError(Exception):
    """A component's winding is not divisible by the cover degree."""

    def __init__(self, component: str, winding: int, m: int):
        self.component = component
        self.winding = winding
        self.m = m
        super().__init__(
            f"component {component} has winding {winding}, not divisible by m={m}; "
            "its preimage is not m closed lifts"
        )


class _LabelClash(DiagramError):
    """A second label names a labelled component."""

    def __init__(self, name: str, first: str):
        self.name = name
        super().__init__(f"label {name!r} names the component labeled {first!r}")


def _check_position(position: object, what: str) -> None:
    # Only an int (not a bool) reads back from the text form.
    if type(position) is not int:
        raise ValueError(f"{what} position must be an integer, got {position!r}")


def _check_sign(sign: object, what: str) -> None:
    # The text form writes a sign as '+' or '-', so only the int +1 or -1 reads back.
    if type(sign) is not int or sign not in (-1, 1):
        raise ValueError(f"{what} sign must be +1 or -1, got {sign!r}")


@dataclass(frozen=True, slots=True)
class Cross:
    position: int
    upper_over: bool

    def __post_init__(self):
        _check_position(self.position, "crossing")
        if type(self.upper_over) is not bool:
            raise ValueError(f"upper_over must be a bool, got {self.upper_over!r}")


@dataclass(frozen=True, slots=True)
class Cup:
    position: int
    sign: int = 1  # +1: lower newborn strand runs rightward

    def __post_init__(self):
        _check_position(self.position, "cup")
        _check_sign(self.sign, "cup")


@dataclass(frozen=True, slots=True)
class Cap:
    position: int

    def __post_init__(self):
        _check_position(self.position, "cap")


@dataclass(frozen=True, slots=True)
class Kink:
    position: int
    sign: int

    def __post_init__(self):
        _check_position(self.position, "kink")
        _check_sign(self.sign, "kink")


Event = Cross | Cup | Cap | Kink


def _check_token(name: object, what: str, error: type[Exception] = ValueError) -> None:
    """Reject a name the text forms cannot carry: one token, and no '#', which starts a comment."""
    if not isinstance(name, str) or name.split() != [name] or "#" in name:
        raise error(f"{what} must be one token without '#', got {name!r}")


@dataclass(frozen=True)
class AnnularWord:
    """Event-word presentation of curves relative to the seam.

    ``labels`` attaches names to components via a seam strand they contain,
    as ``(name, seam_position)`` pairs.
    """

    seam_orientations: tuple[int, ...]
    events: tuple[Event, ...] = ()
    labels: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        seam, labels = self.seam_orientations, self.labels
        # A word is hashed as the analysis cache's key, so every field is a tuple.
        for what in ("seam_orientations", "events", "labels"):
            if not isinstance(value := getattr(self, what), tuple):
                raise ValueError(f"{what} must be a tuple, got {type(value).__name__}")
        width = len(seam)
        if seam.count(1) + seam.count(-1) != width or [*map(type, seam)].count(int) != width:
            raise ValueError("seam orientations must be +1 or -1")
        names = set()
        for label in labels:
            if not isinstance(label, tuple) or len(label) != 2:
                raise ValueError(f"a label must be a (name, seam position) tuple, got {label!r}")
            name, pos = label
            _check_token(name, "label name")
            if name in names:
                raise ValueError(f"duplicate label {name!r}")
            names.add(name)
            if type(pos) is not int:
                raise ValueError(f"label {name!r} seam position must be an integer, got {pos!r}")
            if not 1 <= pos <= len(seam):
                raise ValueError(f"label {name!r} references seam strand {pos}")

    def __hash__(self) -> int:
        """A hash of the seam, the labels, the event count and the first and last two events.

        analyze() is cached by word, so the word is hashed on every lookup;
        the hash is kept on the frozen instance. Equal words hash equal, and
        a fresh word costs O(1) event hashes, not one per event. Unequal
        words that share this key fall back to ``__eq__``, a tuple comparison
        that returns on identity for the compiler's shared events.
        """
        try:
            return self._hash
        except AttributeError:
            events = self.events
            h = hash((self.seam_orientations, self.labels, len(events), events[:2], events[-2:]))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        # String hashes differ between processes, so a pickle leaves the cached hash out.
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def seam_width(self) -> int:
        return len(self.seam_orientations)


def crossing_sign(o_lower: int, o_upper: int, upper_over: bool) -> int:
    return o_lower * o_upper * (-1 if upper_over else 1)


@lru_cache(maxsize=1)
def _sign_table(sign) -> tuple[list, list]:
    """``table[upper_over][o_lower][o_upper]`` is ``sign(o_lower, o_upper, upper_over)``.

    An orientation of +1 or -1 indexes a 3-list directly. ``_sweep`` passes
    the module's ``crossing_sign``, so the table follows any replacement.
    """
    return tuple(
        [None, *([0, sign(o, 1, over), sign(o, -1, over)] for o in (1, -1))]
        for over in (False, True)
    )


# The one crossing table every compile and the normalizer's random words share:
# ``_CROSSES[upper_over][p]`` is ``Cross(p, upper_over)``, so a run of crossings is a
# slice or a comprehension of shared events. Index 0 is never emitted. Events are
# immutable values: sharing them changes no word or hash. ``pattern._grow_tables``
# grows it.
_CROSSES: tuple[list[Cross], list[Cross]] = ([], [])
_RUN = 16  # the fewest crossings the sweep records as one run; fewer cost less one by one
# ``_AHEAD[id(row[p])]`` is ``row[p + _RUN - 1]`` for each row of ``_CROSSES`` and p >= 1:
# the shared crossing a run from ``row[p]`` reaches, which ``_sweep`` tests. It grows with
# the table.
_AHEAD: dict[int, Cross] = {}


def _grow_crosses(width: int) -> None:
    """Grow the shared crossing table to every gap of a ``width``-strand stack."""
    reach = _RUN - 1
    for upper_over, row in enumerate(_CROSSES):
        new = max(len(row) - reach, 1)  # the first crossing whose partner is new
        row.extend(Cross(p, bool(upper_over)) for p in range(len(row), width))
        _AHEAD.update(zip(map(id, row[new:]), row[new + reach :]))


class _SweepResult(NamedTuple):
    """A checked word's segments, their joins, and the crossings and kinks on them.

    Segment h starts at left-edge position h + 1 for h < width; every cup
    makes two more, lower first. The joins make every component a cycle that
    ``analyze`` walks once; ``downhill._curve`` walks a single curve's cycle
    again to list its crossings in order. By this numbering the sweep of m
    concatenated copies is determined by the sweep of one:
    ``cover.build_cover`` reads each copy's edge segments off ``seam_ends``.
    A crossing is a record of its own or part of a run record; ``flat_crossings``
    lists them all alike, in event order.
    """

    seg_count: int
    # Each segment's two joins: its cup partner, or ~h at left-edge position h + 1,
    # where it starts, and its cap partner, or ~h at right-edge position h + 1, where
    # it ends. ``seam_ends[h]`` is the segment ending at right-edge position h + 1.
    starts: list[int]
    ends: list[int]
    seam_ends: list[int]
    crossings: list[tuple[int, int, int, int]]  # (seg_lower, seg_upper, sign, event_index)
    # (mover, crossed, signs, first_event_index): the mover is the lower segment of
    # crossing i, at event first_event_index + i, with crossed[i] above it and sign signs[i].
    runs: list[tuple[int, list[int], list[int], int]]
    kinks: list[tuple[int, int]]  # (segment, sign)

    def flat_crossings(self) -> list[tuple[int, int, int, int]]:
        """Every crossing as ``(seg_lower, seg_upper, sign, event_index)``, in event order.

        The single crossings and each run record's crossings, sorted by event index.
        """
        runs = (
            zip(repeat(mover), crossed, signs, count(first))
            for mover, crossed, signs, first in self.runs
        )
        return sorted(chain(self.crossings, *runs), key=itemgetter(3))


def _run_length(events: tuple, idx: int, row: list, p: int, most: int) -> int:
    """How many of the events from ``idx`` on are ``row[p]``, ``row[p + 1]``, ..., up to ``most``.

    0 when that is fewer than ``_RUN``. A run ends at the last event or at
    the shared table's last gap at the latest. The scan runs in C: a false
    start is rejected at its first differing event, a cable's whole run is
    one slice comparison, and any other run ends at its first differing event.
    """
    most = min(most, len(events) - idx, len(row) - p)
    here, shared = events[idx : idx + most], row[p : p + most]
    differs = map(is_not, here, shared)
    if most < _RUN or any(islice(differs, _RUN)):
        return 0
    if here == tuple(shared):
        return most
    return next(compress(count(_RUN), differs))


def _sweep(word: AnnularWord) -> _SweepResult:
    """Run the word left to right, type-checking it and recording each segment's joins.

    Two lists carry the state: the live segments, bottom to top, and each
    segment's orientation, fixed at its birth; ``live`` is the live count.
    Events are read one by one between the heads found before the pass: the
    ``_RUN``-th events that are a shared ``Cross(p)`` whose partner in
    ``_AHEAD``, ``Cross(p + _RUN - 1)`` of the same flag, sits ``_RUN - 1``
    events on. At a head with ``p`` a live gap, :func:`_run_length` finds how
    many shared crossings run there; at least ``_RUN`` are one record, and
    their events are skipped. So a word pays one test per ``_RUN`` events,
    and a run of at least ``2 * _RUN - 1`` crossings is recorded from its
    first ``_RUN``-th event on.
    """
    seam = word.seam_orientations
    width = live = len(seam)
    starts = list(range(-1, ~width, -1))  # ~h for every h < width
    ends = [0] * width
    segs = list(range(width))
    orient = list(seam)
    crossings: list[tuple[int, int, int, int]] = []
    runs: list[tuple[int, list[int], list[int], int]] = []
    kinks: list[tuple[int, int]] = []
    events, table = word.events, _sign_table(crossing_sign)
    # A run may start at every _RUN-th event that is a shared crossing with its partner
    # _RUN - 1 events on: one test per head, before the pass.
    last, reach = len(events), _RUN - 1
    partners = map(_AHEAD.get, map(id, events[: last - reach : _RUN]))
    heads = [*compress(range(0, last - reach, _RUN), map(is_, partners, events[reach::_RUN]))]
    done = 0  # the events before this one are read
    for head in (*heads, last):
        if head < done:  # inside a run already recorded
            continue
        for idx, ev in enumerate(events[done:head], done):
            if isinstance(ev, Cross):  # most events are crossings
                p = ev.position
                if not 1 <= p < live:
                    raise StrandCountMismatch(f"crossing at gap {p} with {live} live strands", idx)
                lo, up = segs[p - 1], segs[p]
                crossings.append((lo, up, table[ev.upper_over][orient[lo]][orient[up]], idx))
                segs[p - 1], segs[p] = up, lo
            elif isinstance(ev, Cup):
                p = ev.position
                if not 1 <= p <= live + 1:
                    raise StrandCountMismatch(f"cup at position {p} with {live} live strands", idx)
                lower = len(starts)
                starts += (lower + 1, lower)
                ends += (0, 0)
                orient += (ev.sign, -ev.sign)
                segs[p - 1 : p - 1] = (lower, lower + 1)
                live += 2
            elif isinstance(ev, Cap):
                p = ev.position
                if not 1 <= p < live:
                    raise StrandCountMismatch(f"cap at position {p} with {live} live strands", idx)
                lo, up = segs[p - 1], segs[p]
                if orient[lo] + orient[up] != 0:
                    raise OrientationMismatch(
                        f"cap joins strands with orientations {orient[lo]}, {orient[up]}", idx
                    )
                ends[lo], ends[up] = up, lo
                del segs[p - 1 : p + 1]
                live -= 2
            elif isinstance(ev, Kink):
                p = ev.position
                if not 1 <= p <= live:
                    raise StrandCountMismatch(f"kink at position {p} with {live} live strands", idx)
                kinks.append((segs[p - 1], ev.sign))
            else:  # the constructor checks no event, so a word may hold anything
                raise DiagramError(f"unknown event {ev!r}", idx)
        if head == last:
            break
        done, ev = head, events[head]
        if isinstance(ev, Cross) and 1 <= (p := ev.position) < live:
            row = _CROSSES[ev.upper_over]
            if size := _run_length(events, head, row, p, live - p):
                mover, crossed = segs[p - 1], segs[p : p + size]
                signs = table[ev.upper_over][orient[mover]]
                runs.append((mover, crossed, [signs[orient[seg]] for seg in crossed], head))
                segs[p - 1 : p + size] = (*crossed, mover)
                done = head + size

    if live != width:
        raise SeamMismatch(f"word ends with {live} strands, seam has {width}")
    for h, seg in enumerate(segs):
        if orient[seg] != seam[h]:
            raise SeamMismatch(
                f"seam strand {h + 1} re-glues with orientation {orient[seg]}, expected {seam[h]}"
            )
        ends[seg] = ~h
    return _SweepResult(len(starts), starts, ends, segs, crossings, runs, kinks)


ComponentId = int


class Component(NamedTuple):
    cid: ComponentId
    seam_positions: tuple[int, ...]  # 1-based
    winding: int
    wrapping: int


@dataclass
class WordAnalysis:
    """Connectivity closure of a word plus the tallies derived from it."""

    word: AnnularWord
    components: tuple[Component, ...]
    _sweep: _SweepResult = field(repr=False, default=None)
    # The flat lift table: each segment's component and sheet (from its lowest seam
    # strand), and each component's lowest and highest sheet.
    _segment_component: list[ComponentId] = field(repr=False, default_factory=list)
    _segment_sheet: list[int] = field(repr=False, default_factory=list)
    _sheet_range: list[tuple[int, int]] = field(repr=False, default_factory=list)
    _tally: tuple[dict, dict] | None = field(repr=False, default=None)
    _labels: dict[ComponentId, str] = field(repr=False, default_factory=dict)
    _lift_order: dict[ComponentId, int] | None = field(repr=False, default=None)

    def component_of_segment(self, segment: int) -> ComponentId:
        if not 0 <= segment < len(self._segment_component):
            raise UnknownComponentError(f"segment {segment} out of range")
        return self._segment_component[segment]

    def component_of_seam(self, position: int) -> ComponentId:
        if not 1 <= position <= self.word.seam_width:
            raise UnknownComponentError(f"seam position {position} out of range")
        return self.component_of_segment(position - 1)  # segment h starts at seam position h + 1

    def labels(self) -> dict[ComponentId, str]:
        """Each labelled component's name, shared by every caller of this analysis."""
        return self._labels

    def component_by_name(self, name: str) -> ComponentId:
        for cid, label in self.labels().items():
            if label == name:
                return cid
        raise UnknownComponentError(f"no component labeled {name!r}")

    def _lift_tally(self) -> tuple[dict[tuple[int, int], tuple[int, list[int]]], dict[int, int]]:
        """Equivariant crossing data of every cyclic cover, from the base sweep alone.

        Lift j of a component is the cover curve through copy j of its lowest
        seam strand. The first map sends each crossing pair (a, b), a <= b, to
        ``(lo, counts)``, sized by the two sheet ranges: ``counts[i]`` is the
        signed count of base crossings whose copy in every sheet joins lift x
        of a to lift x + lo + i of b. The second is each component's signed
        kink count. One pass reads both off the flat lift table of ``analyze``.
        A run whose crossed segments are consecutive, lie in the mover's
        component and sit at consecutive sheets adds its signs to the
        component's own row as one slice, after one row lookup; any other run
        is read crossing by crossing, as single crossings are. A component's
        own row keeps d >= 0 only: a self crossing at -d joins the same lift
        pairs as one at d, so after the pass each self row is folded once
        onto |d|, with lo = 0, and every degree folds half a row.
        """
        if self._tally is None:
            comp, sheet, span = self._segment_component, self._segment_sheet, self._sheet_range
            rows: dict[tuple[int, int], tuple[int, list[int]]] = {}

            def new_row(a: int, b: int) -> tuple[int, list[int]]:
                (a0, a1), (b0, b1) = span[a], span[b]
                row = rows[a, b] = (b0 - a1, [0] * (b1 - b0 + a1 - a0 + 1))
                return row

            mixed = []  # the runs added crossing by crossing
            for mover, crossed, signs, first in self._sweep.runs:
                a, low, size = comp[mover], crossed[0], len(crossed)
                sheets = sheet[low : low + size]  # the crossed strands' if they are consecutive
                # Distinct segments, ascending from low to low + size - 1, are consecutive.
                if (
                    crossed[-1] - low == size - 1
                    and crossed == sorted(crossed)
                    and comp[low : low + size].count(a) == size
                    and sheets == [*range(sheets[0], sheets[0] + size)]
                ):
                    if row := rows.get((a, a)):
                        i = sheets[0] - sheet[mover] - row[0]
                        row[1][i : i + size] = map(add, row[1][i : i + size], signs)
                    else:  # a new row, as for a cable's one run
                        lo, counts = new_row(a, a)
                        i = sheets[0] - sheet[mover] - lo
                        counts[i : i + size] = signs
                else:
                    mixed.append(zip(repeat(mover), crossed, signs, repeat(first)))
            for lo, up, sign, _ in chain(self._sweep.crossings, *mixed):
                a, b = comp[lo], comp[up]
                if a > b:
                    a, b, lo, up = b, a, up, lo
                row = rows.get((a, b)) or new_row(a, b)
                row[1][sheet[up] - sheet[lo] - row[0]] += sign
            for (a, b), (lo, c) in rows.items():
                if a == b:  # the row spans -r..r; a cable's crossings all lie at d > 0
                    r = -lo
                    folded = [c[r], *map(add, c[r + 1 :], c[r - 1 :: -1])] if any(c[:r]) else c[r:]
                    rows[a, a] = (0, folded)
            kinks = {c.cid: 0 for c in self.components}
            for seg, sign in self._sweep.kinks:
                kinks[comp[seg]] += sign
            self._tally = (rows, kinks)
        return self._tally

    @property
    def lift_order(self) -> dict[ComponentId, int]:
        """Each labelled non-eta component's place by name: the order of lifts within a sheet."""
        if self._lift_order is None:
            named = sorted((name, cid) for cid, name in self._labels.items() if name != "eta")
            self._lift_order = {cid: p for p, (_, cid) in enumerate(named)}
        return self._lift_order

    def _check_degree(self, m: int) -> None:
        """Reject a cover degree below 1, or one that leaves some lift unclosed."""
        if m < 1:
            raise ValueError(f"cover degree must be at least 1, got {m}")
        for comp in self.components:
            if comp.winding % m:
                name = self._labels.get(comp.cid, str(comp.cid))
                raise WindingNotDivisibleError(name, comp.winding, m)

    def cover_tables(self, m: int) -> tuple[dict[int, int], dict[tuple[int, int], list[int]]]:
        """Lift framings and lift linkings of the m-fold cyclic cover.

        ``framing[a]`` is the framing of every lift of component a, and
        ``lk[(a, b)][d]`` is lk(L_a^x, L_b^(x+d)) for every x and 0 <= d < m;
        a pair with no row does not link. Each tally row folds to deltas mod m
        by the cheaper of two ways, as measured for m = 2..512: m slice sums,
        one per residue, when the row holds more than log2(m) entries per
        residue, else its m-chunks added up. A component's own row adds its
        mirror, which makes it symmetric in d and m - d, so only d <= m/2 is
        added and halved; a pair's other orientation is its mirror. m = 1
        gives the base word's own data. It rejects m < 1, and an m not
        dividing every winding, whose lifts would not all be closed.
        """
        self._check_degree(m)
        rows, kinks = self._lift_tally()
        framing = dict(kinks)
        lk: dict[tuple[int, int], list[int]] = {}
        for (a, b), (lo, counts) in rows.items():
            if not any(counts):  # the pair's crossings cancel at every delta
                continue
            size, s = len(counts), lo % m
            if size > m * (m.bit_length() - 1):  # m slice sums cost about log2(m) chunk adds
                row = [sum(counts[(r - lo) % m :: m]) for r in range(m)]
            else:  # place the entries up to the first wrap, then add each later m-chunk
                row = [0] * m
                row[s : s + size] = counts[: m - s]
                for i in range(m - s, size, m):
                    row[: min(m, size - i)] = map(add, row, counts[i : i + m])
            if a == b:  # L_a^x meets L_a^(x+d) at the tally's deltas d and -d alike
                framing[a] += row[0]
                k = m // 2
                row = [*map(add, row[1 : k + 1], row[m - 1 : m - k - 1 : -1])]  # d = 1..m/2
            # Each odd entry leaves 1 in sum(row) - 2*sum(half).
            half = [v >> 1 for v in row]
            assert sum(row) == 2 * sum(half), "closed curves must cross evenly"
            if a == b:
                lk[a, a] = [0, *half, *half[: (m - 1) // 2][::-1]]
            else:
                lk[a, b], lk[b, a] = half, half[:1] + half[:0:-1]
        return framing, lk


@lru_cache(maxsize=256)
def analyze(word: AnnularWord) -> WordAnalysis:
    """Validate a word and compute its component structure (cached).

    Every segment has two ends, so every component is a cycle, walked once
    from its lowest segment: its lowest seam strand, as segments are numbered
    seam-first, so component ids are stable under serialization round-trips.
    The walk leaves a segment by its end running forward, by its start running
    backward, and a cup or cap partner turns it around. A re-gluing crossed
    forward (right edge to left edge) goes down one sheet, backward up one.
    Sheets are measured along the cycle less its re-gluing at its highest
    seam position, so the segments walked after that one take the walk's
    total, the period, off their sheet. A component off the seam lies in
    sheet 0. Each label names the component through its seam strand, and a
    component takes at most one label.
    """
    sweep = _sweep(word)
    starts, ends, seam_ends = sweep.starts, sweep.ends, sweep.seam_ends
    seg_component = [-1] * sweep.seg_count
    seg_sheet = [0] * sweep.seg_count
    periods: list[int] = []
    for first in range(sweep.seg_count):
        if seg_component[first] >= 0:
            continue
        cid = len(periods)
        walk: list[int] = []
        seg, forward, v = first, True, 0
        top, cut = -1, 0  # highest re-gluing crossed, and how many segments preceded it
        while True:
            seg_component[seg] = cid
            seg_sheet[seg] = v
            walk.append(seg)
            j = ends[seg] if forward else starts[seg]
            if j >= 0:
                seg, forward = j, not forward
            else:
                j = ~j
                if j > top:
                    top, cut = j, len(walk)
                if forward:
                    seg, v = j, v - 1
                else:
                    seg, v = seam_ends[j], v + 1
            if seg == first:
                break
        for seg in walk[cut:]:
            seg_sheet[seg] -= v
        periods.append(v)
    # Each component's seam strands, winding and sheets: one pass over the seam, or
    # its slices when one component holds every seam strand, as a cable does.
    width = word.seam_width
    if len(periods) == 1:
        positions, windings = [range(1, width + 1)], [sum(word.seam_orientations)]
        sheets = [seg_sheet[:width]]
    else:
        positions = [[] for _ in periods]
        windings = [0] * len(periods)
        sheets = [[] for _ in periods]
        for h, o in enumerate(word.seam_orientations):
            cid = seg_component[h]
            positions[cid].append(h + 1)
            windings[cid] += o
            sheets[cid].append(seg_sheet[h])
    # A re-gluing goes up one sheet, so a component's sheets are its seam strands' and those + 1.
    components, sheet_range = [], []
    for cid, period in enumerate(periods):
        seam, winding = tuple(positions[cid]), windings[cid]
        assert abs(period) == abs(winding), "sheet offsets must close up by the winding"
        components.append(Component(cid, seam, winding, len(seam)))
        sheet_range.append((min(sheets[cid], default=0), max(sheets[cid], default=-1) + 1))
    labels: dict[ComponentId, str] = {}
    for name, pos in word.labels:
        first = labels.setdefault(seg_component[pos - 1], name)
        if first != name:
            raise _LabelClash(name, first)
    return WordAnalysis(
        word, tuple(components), sweep, seg_component, seg_sheet, sheet_range, _labels=labels
    )


# ---------------------------------------------------------------------------
# Text DSL


_HEADER = "annular v1"


def serialize(word: AnnularWord) -> str:
    """Canonical text form; one event per line, in order.

    An entry that is not an event raises :class:`DiagramError` at its index.
    """
    lines = [_HEADER]
    marks = "".join("+" if o == 1 else "-" for o in word.seam_orientations)
    lines.append(f"seam {word.seam_width} {marks}" if word.seam_width else "seam 0")
    for name, pos in word.labels:
        lines.append(f"label {name} seam {pos}")
    for idx, ev in enumerate(word.events):
        if isinstance(ev, Cross):
            lines.append(f"x {ev.position} {'over' if ev.upper_over else 'under'}")
        elif isinstance(ev, Cup):
            lines.append(f"cup {ev.position} {'+' if ev.sign == 1 else '-'}")
        elif isinstance(ev, Cap):
            lines.append(f"cap {ev.position}")
        elif isinstance(ev, Kink):
            lines.append(f"kink {ev.position} {'+' if ev.sign == 1 else '-'}")
        else:
            raise DiagramError(f"unknown event {ev!r}", idx)
    return "\n".join(lines) + "\n"


def _sign_token(tok: str, lineno: int) -> int:
    if tok == "+":
        return 1
    if tok == "-":
        return -1
    raise DiagramSyntaxError(f"expected + or -, got {tok!r}", lineno)


def _int_literal(tok: str, what: str) -> int:
    """The value of an ASCII ``[+-]?[0-9]+`` token: both DSLs read numbers by this rule."""
    if not re.fullmatch(r"[+-]?[0-9]+", tok):  # int() alone also reads "1_0" and "\u0662"
        raise ValueError(f"{what} must be an integer, got {tok!r}")
    return int(tok)


def _int_token(tok: str, lineno: int, what: str) -> int:
    try:
        return _int_literal(tok, what)
    except ValueError:
        raise DiagramSyntaxError(f"expected {what}, got {tok!r}", lineno) from None


def _lines(text: str):
    """``(line number, text before '#', stripped)`` for each line that is not blank."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            yield lineno, line


def parse(text: str) -> AnnularWord:
    """Parse the annular DSL; rejects ill-typed words with located errors.

    Lines are read by :func:`_lines`. A component takes at most one label.
    A type error names the line of its event, or the seam line if it has none.
    """
    seam: tuple[int, ...] | None = None
    seam_line = 0
    labels: dict[str, tuple[int, int]] = {}  # name -> (seam position, line number)
    events: list[Event] = []
    event_lines: list[int] = []
    lines = _lines(text)
    lineno, line = next(lines, (1, ""))
    if line != _HEADER:
        raise DiagramSyntaxError(f"{'expected' if line else 'missing'} {_HEADER!r} header", lineno)
    for lineno, line in lines:
        toks = line.split()
        kind = toks[0]
        if kind == "seam":
            if seam is not None:
                raise DiagramSyntaxError("duplicate seam line", lineno)
            if len(toks) < 2:
                raise DiagramSyntaxError("seam needs a width", lineno)
            width = _int_token(toks[1], lineno, "seam width")
            seam_line = lineno
            if width == 0:
                if len(toks) > 2:
                    raise DiagramSyntaxError("seam 0 takes no orientations", lineno, 3)
                seam = ()
                continue
            if len(toks) != 3:
                raise DiagramSyntaxError("seam needs width and orientation marks", lineno)
            marks = toks[2]
            if len(marks) != width or any(ch not in "+-" for ch in marks):
                raise DiagramSyntaxError(
                    f"orientation marks {marks!r} do not match width {width}", lineno, 3
                )
            seam = tuple(1 if ch == "+" else -1 for ch in marks)
        elif seam is None:
            raise DiagramSyntaxError("seam line must precede events and labels", lineno)
        elif kind == "label":
            if len(toks) != 4 or toks[2] != "seam":
                raise DiagramSyntaxError("usage: label NAME seam POSITION", lineno)
            pos = _int_token(toks[3], lineno, "seam position")
            if not 1 <= pos <= len(seam):
                raise DiagramSyntaxError(f"label seam position {pos} out of range", lineno, 4)
            if toks[1] in labels:
                raise DiagramSyntaxError(f"duplicate label {toks[1]!r}", lineno, 2)
            labels[toks[1]] = (pos, lineno)
        elif kind == "x":
            if len(toks) != 3 or toks[2] not in ("over", "under"):
                raise DiagramSyntaxError("usage: x GAP over|under", lineno)
            events.append(Cross(_int_token(toks[1], lineno, "gap"), toks[2] == "over"))
        elif kind == "cup":
            if len(toks) == 2:
                events.append(Cup(_int_token(toks[1], lineno, "position"), 1))
            elif len(toks) == 3:
                events.append(
                    Cup(_int_token(toks[1], lineno, "position"), _sign_token(toks[2], lineno))
                )
            else:
                raise DiagramSyntaxError("usage: cup POSITION [+|-]", lineno)
        elif kind == "cap":
            if len(toks) != 2:
                raise DiagramSyntaxError("usage: cap POSITION", lineno)
            events.append(Cap(_int_token(toks[1], lineno, "position")))
        elif kind == "kink":
            if len(toks) != 3:
                raise DiagramSyntaxError("usage: kink POSITION +|-", lineno)
            events.append(
                Kink(_int_token(toks[1], lineno, "position"), _sign_token(toks[2], lineno))
            )
        else:
            raise DiagramSyntaxError(f"unknown directive {kind!r}", lineno)
        if len(event_lines) < len(events):
            event_lines.append(lineno)
    if seam is None:
        raise DiagramSyntaxError("missing seam line", 1)
    word = AnnularWord(seam, tuple(events), tuple((k, pos) for k, (pos, _) in labels.items()))
    try:  # type-check: strand counts, seam re-gluing, cap orientations, one label per component
        analyze(word)
    except _LabelClash as exc:
        raise DiagramSyntaxError(str(exc), labels[exc.name][1], 2) from None
    except DiagramError as exc:
        line = seam_line if exc.event is None else event_lines[exc.event]
        raise type(exc)(f"line {line}: {exc}") from None
    return word
