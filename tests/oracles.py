"""Reference helpers the tests check program output against; the program never calls them.

Import them as ``from oracles import ...``: pytest puts this directory on
``sys.path``.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from coverlink.cover import CoverDiagram, LiftedData
from coverlink.diagram import (
    AnnularWord,
    _CROSSES,
    _SweepResult,
    Cap,
    Component,
    ComponentId,
    Cross,
    Cup,
    DiagramError,
    Event,
    Kink,
    OrientationMismatch,
    SeamMismatch,
    StrandCountMismatch,
    WordAnalysis,
    analyze,
    _grow_tables,
    crossing_sign,
)
from coverlink.downhill import _Passage
from coverlink.linalg import IntMatrix, NonSquareError, solve_numerators
from coverlink.obstruct import AggregateReport, report_to_dict
from coverlink.pattern import ClaspPresentation, ClaspSpec, ValidationItem, ValidationReport


class NotBlockCirculantError(ValueError):
    """Matrix is not block circulant; carries the first offending block pair."""

    def __init__(self, block_row: int, block_col: int):
        self.block_row = block_row
        self.block_col = block_col
        super().__init__(
            f"block ({block_row}, {block_col}) differs from block "
            f"(0, {block_col - block_row}) modulo the block count"
        )


def block_circulant_split(m: IntMatrix | list[list], q: int):
    """Split a block-circulant matrix, an IntMatrix or a list of rows, into its q defining blocks.

    Block (i, j) of a block-circulant matrix depends only on (j - i) mod q;
    the returned list holds blocks (0, 0), (0, 1), ..., (0, q-1) in the form
    of the input. Raises :class:`NotBlockCirculantError` with the first
    offending block pair (row-major scan) otherwise.
    """
    rows = m.to_rows() if isinstance(m, IntMatrix) else m
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NonSquareError("block_circulant_split needs a square matrix")
    if q <= 0 or n % q != 0:
        raise ValueError(f"block count {q} does not divide size {n}")
    s = n // q
    blocks = [
        [[[rows[bi * s + i][bj * s + j] for j in range(s)] for i in range(s)] for bj in range(q)]
        for bi in range(q)
    ]
    for bi in range(q):
        for bj in range(q):
            if blocks[bi][bj] != blocks[0][(bj - bi) % q]:
                raise NotBlockCirculantError(bi, bj)
    if isinstance(m, IntMatrix):
        return [IntMatrix.from_rows(block) for block in blocks[0]]
    return blocks[0]


def per_k_linkings(data: LiftedData, m: int, preferred: int = 0) -> tuple[tuple, int]:
    """``obstruct._linkings_from_data`` as it was: one ``Fraction`` and one sparse dot per k.

    Each k's dot product runs over the solution's support, indexing the eta
    row modulo its length, and every linking is a ``Fraction``; with no
    surgery curve the base's integer linkings pass through.
    """
    row, size = data.eta_row, len(data.eta_row)
    if not size:
        return data.eta_linkings[1:], 1
    sheet = size // m
    cut = size - preferred * sheet % size
    w, order = solve_numerators(data.matrix, row[cut:] + row[:cut])
    linkings = []
    for k in range(1, m):
        shift = (preferred + k) * sheet
        dot = sum(v * row[(i - shift) % size] for i, v in w.items())
        linkings.append(Fraction(data.eta_linkings[k] * order - dot, order))
    return tuple(linkings), order


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.cols, m.rows, {(j, i): v for (i, j), v in m.nonzeros.items()})


def deck_translate(cd: CoverDiagram, cover_cid: ComponentId, k: int) -> ComponentId:
    """Apply the deck permutation k times (k may be any integer)."""
    out = cover_cid
    for _ in range(k % cd.m):
        out = cd.deck[out]
    return out


def cover_eta_rows(cd: CoverDiagram) -> tuple[tuple[int, ...], ...]:
    """Every eta lift's linkings with the surgery lifts, read off the m-copy cover word.

    Row j holds lk(eta_j, L_c^b) in the lift-major order of ``lift_data``
    (sheet b, then c by name), one linking of two cover components each,
    from the cover word's :func:`keyed_cover_tables` at m = 1.
    """
    base_ana = analyze(cd.base)
    lk = keyed_cover_tables(cd.analysis, 1)[1]
    order = [cd.lift(cid, b) for b in range(cd.m) for cid in base_ana.lift_order]
    eta_lifts = cd.lifts_of(base_ana.component_by_name("eta"))
    return tuple(tuple(lk.get((eta, c, 0), 0) for c in order) for eta in eta_lifts)


def rotated_eta_rows(row: tuple[int, ...], m: int) -> tuple[tuple[int, ...], ...]:
    """The m eta lifts' rows that deck equivariance makes of eta_0's row.

    The deck shifts every lift by one sheet of ``len(row) // m`` lifts, so
    eta lift j sees lift i as eta_0 sees lift i - j sheets.
    """
    size = len(row)
    cuts = [size - j * size // m for j in range(m)]
    return tuple(row[cut:] + row[:cut] for cut in cuts)


def pairwise_validate(word: AnnularWord) -> ValidationReport:
    """``pattern.validate`` as it was before it read the base table whole.

    One lookup per curve and per pair: winding, linking with eta, framing and
    wrapping of each surgery curve, then the linking of each pair of them.
    Framings and linkings come from :func:`keyed_cover_tables` at m = 1,
    which shares no code with ``WordAnalysis.cover_tables``.
    """
    ana = analyze(word)
    framing, keyed = keyed_cover_tables(ana, 1)
    labels = ana.labels()
    eta = ana.component_by_name("eta")
    surgery = [(cid, name) for cid, name in sorted(labels.items()) if name != "eta"]
    items: list[ValidationItem] = []
    for cid, name in surgery:
        w = ana.components[cid].winding
        items.append(ValidationItem("WindingNonzero", name, w == 0, False, f"winding {w}"))
        lk = keyed.get((cid, eta, 0), 0)
        items.append(
            ValidationItem("EtaLinkingNonzero", name, lk == 0, False, f"linking with eta {lk}")
        )
        fr = framing[cid]
        items.append(ValidationItem("FramingNotUnit", name, fr in (-1, 1), False, f"framing {fr}"))
        wr = ana.components[cid].wrapping
        items.append(ValidationItem("WrappingNotTwo", name, wr == 2, True, f"wrapping {wr}"))
    for a in range(len(surgery)):
        for b in range(a + 1, len(surgery)):
            lk = keyed.get((surgery[a][0], surgery[b][0], 0), 0)
            pair = f"{surgery[a][1]},{surgery[b][1]}"
            items.append(
                ValidationItem("ClaspClaspLinking", pair, lk == 0, True, f"mutual linking {lk}")
            )
    return ValidationReport(tuple(items))


def pairwise_lifted_linking_matrix(cd: CoverDiagram) -> LiftedData:
    """``cover.lifted_linking_matrix`` as it was: one lookup per pair of lifts, dense rows.

    Framings and linkings of the cover components come from the cover word's
    :func:`keyed_cover_tables` at m = 1; the matrix comes from dense rows.
    """
    base_ana = analyze(cd.base)
    framing, keyed = keyed_cover_tables(cd.analysis, 1)
    order = [cd.lift(cid, a) for a in range(cd.m) for cid in base_ana.lift_order]
    eta_lifts = cd.lifts_of(base_ana.component_by_name("eta"))

    def lk(a: ComponentId, b: ComponentId) -> int:
        return keyed.get((a, b, 0), 0)

    size = len(order)
    rows = [[0] * size for _ in range(size)]
    for i, ci in enumerate(order):
        rows[i][i] = framing[ci]
        for j in range(i + 1, size):
            rows[i][j] = rows[j][i] = lk(ci, order[j])
    eta = eta_lifts[0]
    return LiftedData(
        IntMatrix.from_rows(rows) if size else IntMatrix.zeros(0, 0),
        tuple(lk(eta, ci) for ci in order),
        (framing[eta],) + tuple(lk(eta, eta_lifts[d]) for d in range(1, cd.m)),
    )


class OffsetUnionFind:
    """Union-find over segments whose edges carry sheet offsets.

    ``offset[x]`` is x's offset to its parent: copy j of segment x lies on the
    same cover curve as copy ``j + offset[x]`` of its parent. Offsets are 0
    across cups and caps and +1 across the seam re-gluing. The one union that
    closes each component's cycle records the cycle's total offset, which is
    the component's winding up to sign, in ``period``.
    """

    def __init__(self):
        self.parent: list[int] = []
        self.offset: list[int] = []
        self.period: dict[int, int] = {}  # root -> offset around the closed cycle

    def make(self) -> int:
        self.parent.append(len(self.parent))
        self.offset.append(0)
        return len(self.parent) - 1

    def locate(self, x: int) -> tuple[int, int]:
        """Root of x and x's offset to it (path halving keeps offsets exact)."""
        parent, offset = self.parent, self.offset
        total = 0
        while parent[x] != x:
            p = parent[x]
            offset[x] += offset[p]
            parent[x] = parent[p]
            total += offset[x]
            x = parent[x]
        return x, total

    def find(self, x: int) -> int:
        return self.locate(x)[0]

    def union(self, a: int, b: int, d: int = 0) -> None:
        """Join a and b, with b's offset ``d`` more than a's."""
        (ra, va), (rb, vb) = self.locate(a), self.locate(b)
        if ra == rb:
            self.period[ra] = vb - va - d
        else:
            self.parent[rb] = ra
            self.offset[rb] = va + d - vb


@dataclass
class UnionFindSweep:
    seg_count: int
    uf: OffsetUnionFind
    seam_segments: tuple[int, ...]  # segment at each seam position (left edge)
    crossings: list[tuple[int, int, int, int]]  # (seg_lower, seg_upper, sign, event_index)
    kinks: list[tuple[int, int]]  # (segment, sign)
    # Live segments, bottom to top, before each event and after the last one.
    live_segments: list[tuple[int, ...]]
    runs: tuple = ()  # every crossing is a record of its own


def union_find_sweep(word: AnnularWord) -> UnionFindSweep:
    """The word's segments joined in an offset union-find, as ``diagram._sweep`` once did.

    Cups and caps union their two segments at offset 0, and each right-edge
    strand unions with the left-edge strand it re-glues to at offset +1.
    Segments are numbered as ``diagram._sweep`` numbers them.
    """
    uf = OffsetUnionFind()
    live: list[tuple[int, int]] = []  # (segment, orientation), bottom to top
    for o in word.seam_orientations:
        live.append((uf.make(), o))
    seam_segments = tuple(seg for seg, _ in live)
    crossings: list[tuple[int, int, int, int]] = []
    kinks: list[tuple[int, int]] = []
    live_segments: list[tuple[int, ...]] = []
    for idx, ev in enumerate(word.events):
        live_segments.append(tuple(seg for seg, _ in live))
        if isinstance(ev, Cross):
            p = ev.position
            if not 1 <= p <= len(live) - 1:
                raise StrandCountMismatch(
                    f"event {idx}: crossing at gap {p} with {len(live)} live strands"
                )
            lo, up = live[p - 1], live[p]
            crossings.append((lo[0], up[0], crossing_sign(lo[1], up[1], ev.upper_over), idx))
            live[p - 1], live[p] = up, lo
        elif isinstance(ev, Cup):
            p = ev.position
            if not 1 <= p <= len(live) + 1:
                raise StrandCountMismatch(
                    f"event {idx}: cup at position {p} with {len(live)} live strands"
                )
            if ev.sign not in (-1, 1):
                raise ValueError(f"event {idx}: cup sign must be +1 or -1")
            lower, upper = uf.make(), uf.make()
            uf.union(lower, upper)
            live[p - 1 : p - 1] = [(lower, ev.sign), (upper, -ev.sign)]
        elif isinstance(ev, Cap):
            p = ev.position
            if not 1 <= p <= len(live) - 1:
                raise StrandCountMismatch(
                    f"event {idx}: cap at position {p} with {len(live)} live strands"
                )
            lo, up = live[p - 1], live[p]
            if lo[1] + up[1] != 0:
                raise OrientationMismatch(
                    f"event {idx}: cap joins strands with orientations {lo[1]}, {up[1]}"
                )
            uf.union(lo[0], up[0])
            del live[p - 1 : p + 1]
        elif isinstance(ev, Kink):
            p = ev.position
            if not 1 <= p <= len(live):
                raise StrandCountMismatch(
                    f"event {idx}: kink at position {p} with {len(live)} live strands"
                )
            if ev.sign not in (-1, 1):
                raise ValueError(f"event {idx}: kink sign must be +1 or -1")
            kinks.append((live[p - 1][0], ev.sign))
        else:
            raise TypeError(f"unknown event {ev!r}")
    live_segments.append(tuple(seg for seg, _ in live))
    if len(live) != word.seam_width:
        raise SeamMismatch(f"word ends with {len(live)} strands, seam has {word.seam_width}")
    for h, (seg, o) in enumerate(live):
        if o != word.seam_orientations[h]:
            raise SeamMismatch(
                f"seam strand {h + 1} re-glues with orientation {o}, "
                f"expected {word.seam_orientations[h]}"
            )
        uf.union(seam_segments[h], seg, 1)
    return UnionFindSweep(len(uf.parent), uf, seam_segments, crossings, kinks, live_segments)


def pair_stack_sweep(word: AnnularWord) -> _SweepResult:
    """``diagram._sweep`` as it was before it split the live strands into two lists.

    Each live strand is one (segment, orientation) pair on a stack, events
    dispatch through an ``isinstance`` chain, and the stack's length is read
    on every bounds check. It raises the same errors with the same messages.
    """
    width = word.seam_width
    starts = [~h for h in range(width)]
    ends = [0] * width
    live: list[tuple[int, int]] = list(enumerate(word.seam_orientations))  # (segment, orientation)
    crossings: list[tuple[int, int, int, int]] = []
    kinks: list[tuple[int, int]] = []
    for idx, ev in enumerate(word.events):
        if isinstance(ev, Cross):
            p = ev.position
            if not 1 <= p <= len(live) - 1:
                raise StrandCountMismatch(
                    f"crossing at gap {p} with {len(live)} live strands", idx
                )
            lo, up = live[p - 1], live[p]
            crossings.append((lo[0], up[0], crossing_sign(lo[1], up[1], ev.upper_over), idx))
            live[p - 1], live[p] = up, lo
        elif isinstance(ev, Cup):
            p = ev.position
            if not 1 <= p <= len(live) + 1:
                raise StrandCountMismatch(
                    f"cup at position {p} with {len(live)} live strands", idx
                )
            lower = len(starts)
            starts += (lower + 1, lower)
            ends += (0, 0)
            live[p - 1 : p - 1] = [(lower, ev.sign), (lower + 1, -ev.sign)]
        elif isinstance(ev, Cap):
            p = ev.position
            if not 1 <= p <= len(live) - 1:
                raise StrandCountMismatch(
                    f"cap at position {p} with {len(live)} live strands", idx
                )
            lo, up = live[p - 1], live[p]
            if lo[1] + up[1] != 0:
                raise OrientationMismatch(
                    f"cap joins strands with orientations {lo[1]}, {up[1]}", idx
                )
            ends[lo[0]], ends[up[0]] = up[0], lo[0]
            del live[p - 1 : p + 1]
        elif isinstance(ev, Kink):
            p = ev.position
            if not 1 <= p <= len(live):
                raise StrandCountMismatch(
                    f"kink at position {p} with {len(live)} live strands", idx
                )
            kinks.append((live[p - 1][0], ev.sign))
        else:
            raise DiagramError(f"unknown event {ev!r}", idx)

    if len(live) != width:
        raise SeamMismatch(f"word ends with {len(live)} strands, seam has {width}")
    for h, (seg, o) in enumerate(live):
        if o != word.seam_orientations[h]:
            raise SeamMismatch(
                f"seam strand {h + 1} re-glues with orientation {o}, "
                f"expected {word.seam_orientations[h]}"
            )
        ends[seg] = ~h
    seam_ends = [seg for seg, _ in live]
    return _SweepResult(len(starts), starts, ends, seam_ends, crossings, [], kinks)


def crossing_lift_tally(ana: WordAnalysis):
    """``WordAnalysis._lift_tally`` as it was before the sweep kept runs: one step per crossing.

    Reads the sweep's flat crossing view, so a run is tallied crossing by
    crossing, each with its own row lookup.
    """
    comp, sheet, span = ana._segment_component, ana._segment_sheet, ana._sheet_range
    rows: dict[tuple[int, int], tuple[int, list[int]]] = {}
    for lo, up, sign, _ in ana._sweep.flat_crossings():
        a, b = comp[lo], comp[up]
        if a > b:
            a, b, lo, up = b, a, up, lo
        row = rows.get((a, b))
        if row is None:
            (a0, a1), (b0, b1) = span[a], span[b]
            row = rows[a, b] = (b0 - a1, [0] * (b1 - b0 + a1 - a0 + 1))
        row[1][sheet[up] - sheet[lo] - row[0]] += sign
    for (a, b), (lo, c) in rows.items():
        if a == b:  # the row spans -r..r
            r = -lo
            rows[a, a] = (0, [c[r], *map(add, c[r + 1 :], c[r - 1 :: -1])])
    kinks = {c.cid: 0 for c in ana.components}
    for seg, sign in ana._sweep.kinks:
        kinks[comp[seg]] += sign
    return rows, kinks


def union_find_analyze(word: AnnularWord) -> WordAnalysis:
    """The analysis as ``diagram.analyze`` built it on the offset union-find.

    One ``locate`` per segment: the component is read off the root, in order
    of each root's first segment, and the sheet is the segment's offset less
    the offset of its component's first segment. The result's ``_sweep`` is
    the :class:`UnionFindSweep`, which carries the crossings and kinks that
    ``WordAnalysis._lift_tally`` reads.
    """
    sweep = union_find_sweep(word)
    first: dict[int, tuple[ComponentId, int]] = {}  # root -> (component, first segment's offset)
    seg_component, seg_sheet = [], []
    for seg in range(sweep.seg_count):
        r, v = sweep.uf.locate(seg)
        cid, v0 = first.setdefault(r, (len(first), v))
        seg_component.append(cid)
        seg_sheet.append(v - v0)
    positions: list[list[int]] = [[] for _ in first]
    for h, seg in enumerate(sweep.seam_segments):
        positions[seg_component[seg]].append(h + 1)
    components, sheet_range = [], []
    for r, (cid, _) in first.items():
        seam = tuple(positions[cid])
        winding = sum(word.seam_orientations[p - 1] for p in seam)
        assert abs(sweep.uf.period[r]) == abs(winding), "sheet offsets must close up by the winding"
        components.append(Component(cid, seam, winding, len(seam)))
        sheets = [seg_sheet[sweep.seam_segments[p - 1]] for p in seam]
        sheet_range.append((min(sheets, default=0), max(sheets, default=-1) + 1))
    labels = {seg_component[sweep.seam_segments[pos - 1]]: name for name, pos in word.labels}
    return WordAnalysis(
        word, tuple(components), sweep, seg_component, seg_sheet, sheet_range, _labels=labels
    )


def snapshot_lift_map(base: AnnularWord, m: int) -> CoverDiagram:
    """The m-fold cover with its lifts named by replaying the m-copy word.

    This is how ``build_cover`` named the lifts before it read them off the
    base sweep's seam joins. Lift j of a component through the seam is the
    cover component holding, when copy j's first event runs, the segment at
    the component's lowest seam strand: read off the live segments of the
    m copies' :func:`union_find_sweep`. A component off the seam lifts to copy
    j of its first cup-born segment. Both analyses are
    :func:`union_find_analyze`'s. Only a label on its component's lowest seam
    strand names the lifts, as in that ``build_cover``; the word's other
    labels were dropped. Requires m >= 1 to divide every winding.
    """
    base_ana = union_find_analyze(base)
    plain = AnnularWord(base.seam_orientations, base.events * m)
    cover_ana = union_find_analyze(plain)
    snapshots = cover_ana._sweep.live_segments
    width, n_ev = base.seam_width, len(base.events)
    born = base_ana._sweep.seg_count - width
    lift_map: dict[tuple[ComponentId, int], ComponentId] = {}
    for comp in base_ana.components:
        if comp.seam_positions:
            h = min(comp.seam_positions)
            segs = [snapshots[j * n_ev][h - 1] for j in range(m)]
        else:
            seg = next(
                s
                for s in range(width, base_ana._sweep.seg_count)
                if base_ana.component_of_segment(s) == comp.cid
            )
            segs = [seg + j * born for j in range(m)]
        for j, seg in enumerate(segs):
            lift_map[(comp.cid, j)] = cover_ana.component_of_segment(seg)
    deck = {lift: lift_map[(cid, (j + 1) % m)] for (cid, j), lift in lift_map.items()}
    labels = []
    for name, pos in base.labels:
        cid = base_ana.component_of_seam(pos)
        if pos != min(base_ana.components[cid].seam_positions):
            continue
        for j in range(m):
            if positions := cover_ana.components[lift_map[(cid, j)]].seam_positions:
                labels.append((f"{name}.{j}", min(positions)))
    word = AnnularWord(base.seam_orientations, plain.events, tuple(sorted(labels)))
    names = {cover_ana.component_of_seam(pos): name for name, pos in word.labels}
    analysis = dataclasses.replace(cover_ana, word=word, _labels=names)
    return CoverDiagram(base, m, word, lift_map, deck, analysis)


def twist_surgery_pairs(word: AnnularWord, rng: random.Random, count: int) -> AnnularWord:
    """Insert full twists between adjacent strands of two distinct surgery curves.

    A full twist keeps every component and winding, but changes one lift
    linking at a single deck difference d, so the circulant block at d stops
    being symmetric whenever 2d is not 0 mod m. No seeded compiled word
    tried here has an asymmetric block, so without twists a transposed fill
    of the matrix would go unnoticed. The spots are read off the live
    segments of the word's :func:`union_find_sweep`.
    """
    ana = analyze(word)
    eta, comp = ana.component_by_name("eta"), ana.component_of_segment
    spots = sorted(
        (i, p)
        for i, segs in enumerate(union_find_sweep(word).live_segments)
        for p in range(1, len(segs))
        if eta != comp(segs[p - 1]) != comp(segs[p]) != eta
    )
    events = list(word.events)
    for i, p in sorted(rng.sample(spots, min(count, len(spots))), reverse=True):
        over = rng.random() < 0.5
        events[i:i] = [Cross(p, over), Cross(p, over)]
    return dataclasses.replace(word, events=tuple(events))


def locate_lift_tally(ana: WordAnalysis):
    """Each segment's ``(component, sheet)`` and the lift tally, by walking the union-find.

    The flat lift table of ``analyze`` replaced this walk: one ``locate``
    per crossing endpoint on the word's :func:`union_find_sweep`, with the
    component read off the root and the sheet measured from copy 0 of the
    component's lowest seam strand. Returns ``(lifts, (crossings, kinks))``
    in the form of ``WordAnalysis._lift_tally``.
    """
    sweep = union_find_sweep(ana.word)
    uf = sweep.uf
    comp_of_root: dict[int, ComponentId] = {}
    for seg in range(sweep.seg_count):
        comp_of_root.setdefault(uf.find(seg), len(comp_of_root))
    base = {}  # root -> offset of the component's lowest seam strand
    for comp in ana.components:
        if comp.seam_positions:
            root, v = uf.locate(sweep.seam_segments[min(comp.seam_positions) - 1])
            base[root] = v

    def lift(seg: int) -> tuple[ComponentId, int]:
        root, v = uf.locate(seg)
        return comp_of_root[root], v - base.get(root, 0)

    crossings: dict[tuple[int, int, int], int] = {}
    for lo, up, sign, _ in sweep.crossings:
        (a, x), (b, y) = lift(lo), lift(up)
        key = (a, b, y - x) if a <= b else (b, a, x - y)
        crossings[key] = crossings.get(key, 0) + sign
    kinks = {c.cid: 0 for c in ana.components}
    for seg, sign in sweep.kinks:
        kinks[lift(seg)[0]] += sign
    return [lift(seg) for seg in range(sweep.seg_count)], (crossings, kinks)


def tally_keys(rows) -> dict[tuple[int, int, int], int]:
    """The nonzero entries of ``{(a, b): (lo, counts)}`` rows as ``{(a, b, lo + i): counts[i]}``."""
    out = {}
    for (a, b), (lo, counts) in rows.items():
        out.update(((a, b, lo + i), v) for i, v in enumerate(counts) if v)
    return out


def two_orientation_cover_tables(ana: WordAnalysis, m: int):
    """Lift framings and twice the lift linkings, writing each tally key both ways.

    The fold two steps before ``WordAnalysis.cover_tables``: every key of
    the keyed lift tally (from :func:`locate_lift_tally`) is reduced mod m
    and added to both orientations of its pair, so ``twice[(a, b, d)]`` is
    twice lk(L_a^x, L_b^(x+d)), unhalved.
    """
    crossings, kinks = locate_lift_tally(ana)[1]
    framing = dict(kinks)
    twice: dict[tuple[int, int, int], int] = {}
    for (a, b, delta), sign in crossings.items():
        d = delta % m
        if a == b and d == 0:
            framing[a] += sign
        else:
            twice[(a, b, d)] = twice.get((a, b, d), 0) + sign
            twice[(b, a, -d % m)] = twice.get((b, a, -d % m), 0) + sign
    return framing, twice


def keyed_cover_tables(ana: WordAnalysis, m: int):
    """Lift framings and halved lift linkings, folding the keyed tally key by key.

    The fold that ``WordAnalysis.cover_tables`` replaced, on the keyed lift
    tally of :func:`locate_lift_tally`: each key is reduced mod m once, and
    the folded table is mirrored to both orientations and halved.
    ``lk[(a, b, d)]`` is lk(L_a^x, L_b^(x+d)); absent keys are 0.
    """
    crossings, kinks = locate_lift_tally(ana)[1]
    framing = dict(kinks)
    folded: dict[tuple[int, int, int], int] = {}
    for (a, b, delta), sign in crossings.items():
        key = (a, b, delta % m)
        folded[key] = folded.get(key, 0) + sign
    lk: dict[tuple[int, int, int], int] = {}
    for (a, b, d), twice in folded.items():
        if a == b:
            if d == 0:
                framing[a] += twice
                continue
            # L_a^x meets L_a^(x+d) at the tally's deltas d and -d alike.
            twice += folded.get((a, a, -d % m), 0)
        assert twice % 2 == 0, "closed curves must cross evenly"
        lk[(a, b, d)] = lk[(b, a, -d % m)] = twice // 2
    return framing, lk


def report_json(agg: AggregateReport) -> str:
    """The report as ``json.dumps`` writes it: what ``report_to_json`` must equal."""
    return json.dumps(report_to_dict(agg), indent=2) + "\n"


def curve_graph(word: AnnularWord):
    """Directed curve graph: edges are strand slots, links follow orientation.

    This is the strand tracker the normalizer kept before it walked the
    joins of ``analyze``'s sweep. Returns each left-edge position's first
    edge and each edge's successor with the passage between them; cups and
    caps link by a ``"turn"`` passage and kinks by a ``"kink"`` passage.
    """
    next_id = 0

    def new_edge() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    live: list[tuple[int, int]] = [(new_edge(), o) for o in word.seam_orientations]
    first = [e for e, _ in live]
    succ: dict[int, tuple[int, _Passage]] = {}

    def advance(old: int, new: int, orient: int, passage: _Passage) -> None:
        if orient == 1:
            succ[old] = (new, passage)
        else:
            succ[new] = (old, passage)

    for idx, ev in enumerate(word.events):
        if isinstance(ev, Cross):
            p = ev.position
            (lo, o_lo), (up, o_up) = live[p - 1], live[p]
            lo2, up2 = new_edge(), new_edge()
            advance(lo, lo2, o_lo, _Passage(idx, "under" if ev.upper_over else "over"))
            advance(up, up2, o_up, _Passage(idx, "over" if ev.upper_over else "under"))
            live[p - 1], live[p] = (up2, o_up), (lo2, o_lo)
        elif isinstance(ev, Cup):
            lo, up = new_edge(), new_edge()
            live[ev.position - 1 : ev.position - 1] = [(lo, ev.sign), (up, -ev.sign)]
            # The curve flows in on the leftward newborn and out on the other.
            advance(up, lo, ev.sign, _Passage(idx, "turn"))
        elif isinstance(ev, Cap):
            p = ev.position
            (lo, o_lo), (up, _) = live[p - 1], live[p]
            advance(lo, up, o_lo, _Passage(idx, "turn"))
            del live[p - 1 : p + 1]
        elif isinstance(ev, Kink):
            e, o = live[ev.position - 1]
            e2 = new_edge()
            advance(e, e2, o, _Passage(idx, "kink"))
            live[ev.position - 1] = (e2, o)
    for h, (e, o) in enumerate(live):
        advance(e, first[h], o, _Passage(-1, "seam", direction=o))
    return first, succ


def _graph_walk(word: AnnularWord, backward: bool) -> list[_Passage]:
    """The over, under and seam passages met going round the curve graph once.

    The walk starts at the base point: the bottom seam strand, or the first
    edge of a seamless circle, the earliest cup's lower newborn. Walked
    backward, each step goes to the edge that links into the current one,
    and a seam passage runs in the opposite direction.
    """
    first, succ = curve_graph(word)
    if backward:
        succ = {
            b: (a, _Passage(-1, "seam", -p.direction) if p.kind == "seam" else p)
            for a, (b, p) in succ.items()
        }
    start = first[0] if first else 0
    edge = start
    passages: list[_Passage] = []
    while True:
        edge, passage = succ[edge]
        if passage.kind in ("over", "under", "seam"):
            passages.append(passage)
        if edge == start:
            return passages


def forward_curve(word: AnnularWord) -> list[_Passage]:
    """The curve walked along its orientation by following each edge's successor.

    This is how the normalizer walked before it read the sweep's joins:
    what ``downhill._curve`` must equal.
    """
    return _graph_walk(word, backward=False)


def backward_curve(word: AnnularWord) -> list[_Passage]:
    """The curve walked against its orientation by following each edge's predecessor.

    This is how the normalizer walked backwards before it reversed its one
    forward walk: what ``downhill._reversed`` of ``downhill._curve`` must equal.
    """
    return _graph_walk(word, backward=True)


def random_event_word(rng: random.Random) -> AnnularWord:
    """A random well-formed word of up to 5 seam strands of either orientation.

    A random run of cups, caps, crossings and kinks is closed up to the seam:
    adjacent strands of opposite orientation are capped, or cups born, until
    as many strands are live as the seam is wide, and crossings then sort the
    live orientations into the seam's. Every flag, sign and position is
    random, so the word can have any number of components and any winding.
    """
    seam = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 5)))
    live = list(seam)
    events: list = []

    def cross(gap: int) -> None:
        events.append(Cross(gap, rng.random() < 0.5))
        live[gap - 1], live[gap] = live[gap], live[gap - 1]

    def cup(pos: int) -> None:
        sign = rng.choice((1, -1))
        events.append(Cup(pos, sign))
        live[pos - 1 : pos - 1] = [sign, -sign]

    def cap_somewhere() -> None:
        pos = rng.choice([p for p in range(1, len(live)) if live[p - 1] != live[p]])
        events.append(Cap(pos))
        del live[pos - 1 : pos + 1]

    for _ in range(rng.randint(0, 14)):
        r = rng.random()
        if r < 0.2 or not live:
            cup(rng.randint(1, len(live) + 1))
        elif r < 0.35 and len(set(live)) == 2:
            cap_somewhere()
        elif r < 0.45:
            events.append(Kink(rng.randint(1, len(live)), rng.choice((1, -1))))
        elif len(live) >= 2:
            cross(rng.randint(1, len(live) - 1))
    # The orientations sum to the seam's throughout, so a surplus holds both kinds.
    while len(live) > len(seam):
        cap_somewhere()
    while len(live) < len(seam):
        cup(rng.randint(1, len(live) + 1))
    for h, o in enumerate(seam):
        k = live.index(o, h)
        for gap in range(k, h, -1):
            cross(gap)
    return AnnularWord(seam, tuple(events))


def greedy_strand_heights(passages: list[_Passage], n: int) -> list[int]:
    """Straightened cable heights by repeated cancellation, with a union-find of its own.

    This is how the normalizer found the heights before its one-pass stack:
    scan the cyclic list of uncancelled seam crossings from its start for the
    first adjacent pair of opposite direction, the wrap-around pair last,
    cancel it, merging the arcs before, between and after it, and scan
    again until n crossings are left.
    """
    arc_of_passage: list[int] = []
    arc = 0
    for p in passages:
        arc_of_passage.append(arc)
        if p.kind == "seam":
            arc += 1
    total = arc
    arc_of_passage = [a % total for a in arc_of_passage]

    parent = list(range(total))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(child: int, keep: int) -> None:
        rc, rk = find(child), find(keep)
        if rc != rk:
            parent[rc] = rk

    # segs[i] = (arc before crossing i, direction of crossing i), walk order.
    dirs = [p.direction for p in passages if p.kind == "seam"]
    segs: list[tuple[int, int]] = [((i) % total, dirs[i]) for i in range(total)]
    # Arc k precedes crossing k in walk order (arc 0 holds the start point).
    while len(segs) > n:
        length = len(segs)
        for i in range(length):
            j = (i + 1) % length
            if segs[i][1] + segs[j][1] == 0:
                k = (j + 1) % length
                union(segs[i][0], segs[k][0])
                union(segs[j][0], segs[k][0])
                for idx in sorted((i, j), reverse=True):
                    del segs[idx]
                break
        else:
            raise AssertionError("no cancelling seam pair found below target count")
    assert all(d == segs[0][1] for _, d in segs)

    order = [find(a) for a, _ in segs]
    start_root = find(0)
    rot = order.index(start_root)
    order = order[rot:] + order[:rot]
    heights = {order[0]: 1}
    for j, root in enumerate(order[1:], start=1):
        heights[root] = n + 1 - j
    return [heights[find(a)] for a in arc_of_passage]


def clasp_calculus(
    p: ClaspPresentation, m: int
) -> tuple[list[list[int]], tuple[Fraction, ...]]:
    """Each clasp's eta row and the linkings lk(eta, t^k eta), k = 1..m-1, in closed form.

    No word is compiled. Row r_c of clasp c, with sign s and framing f,
    holds lk(eta_0, L_c^b) at index b. Each 'o' flag of c's weave that
    crosses cable level l adds to it:

    * gap_exit > gap_enter: weave-in flag j crosses l = gap_enter + 1 + j and
      adds +s at (1 - l) mod m; weave-out flag j crosses l = gap_exit - j and
      adds -s at (2 - l) mod m;
    * gap_exit < gap_enter: weave-in flag j crosses l = gap_enter - j and adds
      -s at (1 - l); weave-out flag j crosses l = gap_exit + 1 + j and adds +s
      at (2 - l).

    The 'u' flags, the slots and the crossings between gadgets do not enter.
    For a presentation that validates (every row sums to lk(L_c, eta) = 0),
    |H1| = 1 and eta has order 1 at every degree m dividing n, and
    ``lk_k = n/m - sum_c f_c * sum_b r_c[b] * r_c[(b + k) mod m]``: the
    cable's own n/m minus each clasp's cyclic autocorrelation.

    At m = 2 a valid row is (s_c, -s_c), so the one linking is
    lk2 = n/2 + 2 * sum_c f_c * s_c**2. For n = 2 mod 4 that is odd, hence
    nonzero, and eta's order 1 is odd: the m = 2 report is Obstructed, which
    is half of the paper's mod-8 theorem.

    At m = 4 write a valid row as (a_c, b_c, c_c, d_c). The m = 2 row is its
    fold, s_c = a_c + c_c, and b_c + d_c = -s_c. The autocorrelation at lags
    1 and 3 is (a_c + c_c)(b_c + d_c) = -s_c**2 and at lag 2 it is
    2 * (a_c * c_c + b_c * d_c), so

    * lk4_1 = lk4_3 = n/4 + sum_c f_c * s_c**2 = lk2 / 2, and
    * lk4_2 = n/4 - 2 * sum_c f_c * (a_c * c_c + b_c * d_c).

    For n = 4 mod 8, lk2 = 0 leaves the m = 2 report Inconclusive, but then
    the m = 4 vector is (0, odd, 0), whose one nonzero entry is odd: the
    m = 4 report is Obstructed. Either way m = 2 or m = 4 obstructs, which is
    the other half of the theorem.
    """
    rows = []
    for c in p.clasps:
        row = [0] * m
        d = abs(c.gap_exit - c.gap_enter)
        up = c.gap_exit > c.gap_enter
        s = c.clasp_sign if up else -c.clasp_sign
        for j, flag in enumerate(c.weave):
            if flag != "o":
                continue
            if j < d:  # weave in
                level = c.gap_enter + 1 + j if up else c.gap_enter - j
                row[(1 - level) % m] += s
            else:  # weave out
                level = c.gap_exit - (j - d) if up else c.gap_exit + 1 + (j - d)
                row[(2 - level) % m] -= s
        rows.append(row)
    linkings = tuple(
        Fraction(p.n, m)
        - sum(
            c.framing * sum(r[b] * r[(b + k) % m] for b in range(m))
            for c, r in zip(p.clasps, rows)
        )
        for k in range(1, m)
    )
    return rows, linkings


class _Strand:
    __slots__ = ("orient", "pos")

    def __init__(self, orient: int):
        self.orient = orient
        self.pos = -1  # index in the assembler's stack while the strand is on it


class _Assembler:
    """The seam stack of a word under construction, and the events so far.

    Every strand on the stack knows its own index (``pos``), so finding one
    is O(1): a crossing patches the two strands it swaps, and a cap or a cup
    renumbers the stack from the changed index up. Crossings come from the
    compiler's shared table.
    """

    def __init__(self, stack: list[_Strand]):
        self.stack = stack
        self.events: list[Event] = []
        self._renumber(0)

    def _renumber(self, start: int) -> None:
        _grow_tables(len(self.stack))
        for i in range(start, len(self.stack)):
            self.stack[i].pos = i

    def cross_up(self, s: _Strand, s_over: bool) -> None:
        """Cross s with the strand directly above it."""
        i = s.pos
        other = self.stack[i + 1]
        self.events.append(_CROSSES[not s_over][i + 1])
        self.stack[i], self.stack[i + 1] = other, s
        other.pos, s.pos = i, i + 1

    def cross_down(self, s: _Strand, s_over: bool) -> None:
        i = s.pos
        other = self.stack[i - 1]
        self.events.append(_CROSSES[s_over][i])
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


def stepwise_annular_word(n: int, seed: int) -> AnnularWord:
    """The generator on an :class:`_Assembler` stack (the oracle of ``random_annular_word``).

    Each strand moves one crossing at a time on the assembler, which keeps
    every strand's stack index on the strand. It draws the extra crossing
    pairs at n = 1 too, so it fails there unless it draws none of them.
    """
    rng = random.Random(("annular", n, seed).__repr__())
    fingers = rng.randint(0, 2)
    seam_order = [_Strand(1) for _ in range(n)]
    finger_pairs = []
    for _ in range(fingers):
        t_in, t_out = _Strand(1), _Strand(-1)
        gap = rng.randint(0, len(seam_order))
        seam_order[gap:gap] = [t_in, t_out]
        finger_pairs.append((t_in, t_out))
    asm = _Assembler(list(seam_order))

    def move_to(s: _Strand, target: int) -> None:
        """Cross s one strand at a time to index target; the upper strand is over at random."""
        while s.pos != target:
            upper_over = rng.random() < 0.5
            if target > s.pos:
                asm.cross_up(s, not upper_over)
            else:
                asm.cross_down(s, upper_over)

    home = {s: i for i, s in enumerate(seam_order)}
    pending = {s for pair in finger_pairs for s in pair}
    for t_in, t_out in finger_pairs:
        pending -= {t_in, t_out}
        victim = rng.choice(
            [s for s in asm.stack if s.orient == 1 and s not in pending and s is not t_in]
        )
        # t_out keeps its index while the victim moves in next to it.
        move_to(victim, t_out.pos - 1 if t_out.pos > victim.pos else t_out.pos + 1)
        asm.cap(victim if victim.pos < t_out.pos else t_out)
        home[t_in] = home.pop(victim)
        home.pop(t_out)
        # The splice strand takes over the victim's slot in seam order.
        move_to(t_in, sum(1 for s in asm.stack if s is not t_in and home[s] < home[t_in]))

    # One-shift braid with random flags, finger-free stack of n strands.
    move_to(asm.stack[0], n - 1)
    # Random extra crossing pairs keep the permutation but add crossings.
    for _ in range(rng.randint(0, 4)):
        s = asm.stack[rng.randint(0, n - 2)]
        move_to(s, s.pos + 1)
        move_to(s, s.pos - 1)

    # Re-birth the finger pairs at their seam heights, bottom-up.
    for at in sorted(seam_order.index(t_in) for t_in, _ in finger_pairs):
        asm.cup(at, _Strand(1), _Strand(-1))

    word = AnnularWord(
        tuple(s.orient for s in seam_order), tuple(asm.events), (("pattern", 1),)
    )
    ana = analyze(word)
    assert len(ana.components) == 1 and ana.components[0].winding == n
    return word


class _GadgetStrand(_Strand):
    """A strand that also knows its kind ("eta" or "clasp") and its gadget's index."""

    __slots__ = ("kind", "clasp")

    def __init__(self, kind: str, orient: int, clasp: int = -1):
        super().__init__(orient)
        self.kind = kind
        self.clasp = clasp


def _weave(asm, s: _GadgetStrand, target: int, flags: str, clasp: int) -> int:
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


def stepwise_compile(n: int, clasps: tuple[ClaspSpec, ...], assembler) -> AnnularWord:
    """The compiler that moves a strand stack one crossing at a time (the oracle of ``compile``).

    ``assembler`` is a class with the interface of :class:`_Assembler`.
    Each gadget's enter strand weaves to its exit strand, the pair is capped
    and re-born as two new strands, and the new enter strand weaves back to
    the seam index of the old one; the braid section walks the bottom cable
    strand up the stack.
    """
    # Seam stack, bottom to top: gap-0 strands, cable level 1, gap-1 strands,
    # ..., cable level n, gap-n strands. Within a gap: by clasp index, enter
    # below exit, which is the order the gaps are filled in.
    gap_members: list[list[_GadgetStrand]] = [[] for _ in range(n + 1)]
    enters: list[_GadgetStrand] = []
    exits: list[_GadgetStrand] = []
    for i, c in enumerate(clasps):
        e = _GadgetStrand("clasp", c.clasp_sign, clasp=i)
        x = _GadgetStrand("clasp", -c.clasp_sign, clasp=i)
        enters.append(e)
        exits.append(x)
        gap_members[c.gap_enter].append(e)
        gap_members[c.gap_exit].append(x)
    etas = [_GadgetStrand("eta", 1) for _ in range(n)]
    seam_order: list[_GadgetStrand] = []
    for g in range(n + 1):
        if g > 0:
            seam_order.append(etas[g - 1])
        seam_order += gap_members[g]
    asm = assembler(list(seam_order))
    home = {s: i for i, s in enumerate(seam_order)}
    labels = [("eta", home[etas[0]] + 1)]
    labels += [(f"L{i + 1}", home[e] + 1) for i, e in enumerate(enters)]

    for i in sorted(range(len(clasps)), key=lambda i: (clasps[i].slot, i)):
        c = clasps[i]
        e, x = enters[i], exits[i]
        asm.events.append(Kink(e.pos + 1, c.framing))
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
        e2 = _GadgetStrand("clasp", c.clasp_sign, clasp=i)
        x2 = _GadgetStrand("clasp", -c.clasp_sign, clasp=i)
        asm.cup(at, e2 if ascending else x2, x2 if ascending else e2)
        used = _weave(asm, e2, home[e], flags_out, i)
        assert used == d
        # The reborn pair now sits exactly where the seam expects it.
        home[e2], home[x2] = home.pop(e), home.pop(x)

    # Braid section: the bottom cable strand shifts over everything to the
    # top; every other cable strand steps down one level, re-crossing over the
    # parked gadget strands of the gap it lands above.
    mover = etas[0]
    for _ in range(1, n):
        passed = 0
        while asm.stack[mover.pos + 1].kind != "eta":
            asm.cross_up(mover, True)  # cable over gadget
            passed += 1
        descending = asm.stack[mover.pos + 1]
        asm.cross_up(mover, True)  # positive cable crossing: shifting strand over
        for _ in range(passed):
            asm.cross_down(descending, True)  # cable over gadget

    orientations = tuple(s.orient for s in seam_order)
    return AnnularWord(orientations, tuple(asm.events), tuple(labels))
