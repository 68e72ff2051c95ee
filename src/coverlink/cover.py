"""Cyclic covers of annular words: the one-sweep lift data and the cut-and-stack cover.

The m-fold cover branched over the implicit axis is the same rectangle
concatenated m times, with only the outermost seam re-glued. Components whose
winding is divisible by m lift to exactly m closed components; the deck
transformation shifts copies by one. So the cover adds nothing but each
segment's sheet offset, and :func:`lift_data` reads every lifted linking and
framing from the equivariant tally of one sweep of the base word (the
classical equivariant lift: lk(L_a^x, L_b^y) depends only on y - x). By the
same equivariance one eta lift's linkings with the surgery lifts give every
eta lift's, so the lift data stores that one row, in integers. Verdicts use
it. :func:`build_cover` builds the m-copy cover word itself, counted by the
same rules as the base: it sweeps the m copies once and names their lifts
from the base sweep's seam joins. It serves ``coverlink cover``, the
``direct-count-m*`` ledger row of zero-clasp patterns, the selftest's
``lift-oracle-m*`` checks and the tests, as an oracle: :func:`lifted_linking_matrix`
and :func:`lifted_eta_linkings` read the cover word's base table whole.
``cover_tables`` checks each degree it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import compress, permutations
from typing import NamedTuple

from .diagram import AnnularWord, ComponentId, WordAnalysis, analyze
from .diagram import WindingNotDivisibleError  # noqa: F401 (re-exported)
from .linalg import IntMatrix


class LiftStructureError(Exception):
    """Internal inconsistency in the lift bookkeeping."""


@dataclass(frozen=True)
class CoverDiagram:
    """The m-fold cover of ``base`` with lift labels and deck action.

    ``lift_map[(c, j)]`` is the cover component holding copy j's strand at
    base component c's base-point seam height; the preferred lift of c is
    ``lift_map[(c, 0)]`` and the deck generator sends lift j to lift j+1.
    ``analysis`` is ``word``'s analysis, from the one sweep of its m copies.
    """

    base: AnnularWord
    m: int
    word: AnnularWord
    lift_map: dict[tuple[ComponentId, int], ComponentId]
    deck: dict[ComponentId, ComponentId]
    analysis: WordAnalysis = field(compare=False, repr=False)

    def lift(self, base_cid: ComponentId, copy: int) -> ComponentId:
        return self.lift_map[(base_cid, copy % self.m)]

    def lifts_of(self, base_cid: ComponentId) -> tuple[ComponentId, ...]:
        return tuple(self.lift_map[(base_cid, j)] for j in range(self.m))


def build_cover(base: AnnularWord, m: int) -> CoverDiagram:
    """Concatenate m copies, sweep them once, and name the lifts off the base sweep.

    Cover segments are numbered as ``diagram._sweep`` numbers them, so copy
    j of a cup-born base segment s is ``s + j*born``, and copy j >= 1 starts
    with copy j - 1 of the base's right-edge segments ``seam_ends``. Lift j
    of a component runs through copy j of its lowest seam strand or, off the
    seam, of its first segment. Each base label ``name`` names every lift j
    that meets the cover's seam as ``name.j``.

    Requires m >= 1 and winding(c) divisible by m for every component c.
    """
    base_ana = analyze(base)
    base_ana._check_degree(m)
    width, seam_ends = base.seam_width, base_ana._sweep.seam_ends
    born = base_ana._sweep.seg_count - width  # cup-born segments per copy
    edge = [list(range(width))]  # edge[j][h]: the segment at copy j's left-edge position h + 1
    for j in range(1, m):
        prev = edge[-1]
        edge.append([prev[s] if s < width else s + (j - 1) * born for s in seam_ends])

    word_plain = AnnularWord(base.seam_orientations, base.events * m)
    cover_ana = analyze(word_plain)
    lift_map: dict[tuple[ComponentId, int], ComponentId] = {}
    for comp in base_ana.components:
        if comp.seam_positions:
            h = min(comp.seam_positions) - 1
            segs = [row[h] for row in edge]
        else:
            seg = base_ana._segment_component.index(comp.cid)
            segs = [seg + j * born for j in range(m)]
        for j, seg in enumerate(segs):
            lift_map[(comp.cid, j)] = cover_ana.component_of_segment(seg)
    if len(set(lift_map.values())) != len(lift_map) or len(lift_map) != len(
        cover_ana.components
    ):
        raise LiftStructureError("lifts are not m distinct components per base component")

    deck: dict[ComponentId, ComponentId] = {}
    for (cid, j), cover_cid in lift_map.items():
        deck[cover_cid] = lift_map[(cid, (j + 1) % m)]

    # Carry lift names into the cover word so it serializes self-describing.
    cover_labels: list[tuple[str, int]] = []
    for cid, name in base_ana.labels().items():
        for j in range(m):
            if positions := cover_ana.components[lift_map[(cid, j)]].seam_positions:
                cover_labels.append((f"{name}.{j}", min(positions)))
    word = AnnularWord(base.seam_orientations, word_plain.events, tuple(sorted(cover_labels)))
    # The labelled word's analysis is the plain word's, with the lifts' names.
    names = {cover_ana.component_of_seam(pos): name for name, pos in word.labels}
    analysis = replace(cover_ana, word=word, _labels=names)
    return CoverDiagram(base, m, word, lift_map, deck, analysis)


def lifted_eta_linkings(cd: CoverDiagram) -> dict[tuple[int, int], int]:
    """Pairwise linkings of the eta lifts, keyed by lift indices, from ``cover_tables(1)``."""
    lk = cd.analysis.cover_tables(1)[1]
    pairs = permutations(enumerate(cd.lifts_of(analyze(cd.base).component_by_name("eta"))), 2)
    return {(j, k): lk.get((a, b), (0,))[0] for (j, a), (k, b) in pairs}


class LiftedData(NamedTuple):
    """Lifted surgery data in lift-major order: L1^0..Lk^0, L1^1..Lk^1, ...

    ``matrix`` has lifted framings on the diagonal and pairwise lift linkings
    off it. ``eta_row[b*k + p]`` is lk(eta_0, L_p^b); the deck shifts every
    lift by one sheet, so eta lift j's row is ``eta_row`` rotated by j*k:
    its entry i is ``eta_row[(i - j*k) % (k*m)]``. ``eta_linkings[d]`` is
    lk(eta_0, eta_d) for deck difference d, and ``eta_linkings[0]`` the
    framing of eta_0; the degree m is ``len(eta_linkings)``. Every entry is an
    integer, a framing or a linking of closed curves of the cover word, read
    before any surgery.
    """

    matrix: IntMatrix
    eta_row: tuple[int, ...]
    eta_linkings: tuple[int, ...]


def lift_data(base: AnnularWord, m: int) -> LiftedData:
    """The lifted data of the m-fold cover, from the base word's equivariant tally.

    Equal to ``lifted_linking_matrix(build_cover(base, m))`` without building
    the cover word, from the rows of ``cover_tables(m)``: eta_0's row takes
    one slice per surgery curve, its deck linkings one slice of eta's own
    row, and the matrix the surgery pairs' nonzero entries, in O(k*m + nnz).
    Requires m >= 1 dividing every component's winding; ``cover_tables`` checks it.
    """
    base_ana = analyze(base)
    framing, lk = base_ana.cover_tables(m)
    eta, index = base_ana.component_by_name("eta"), base_ana.lift_order
    k = len(index)
    size = k * m
    # Lift-major index of L_c^b is b*k + (c's place in the surgery order). Only the
    # nonzero framings and linkings are stored.
    nonzeros: dict[tuple[int, int], int] = {}
    eta_row = [0] * size
    for cid, p in index.items():
        if f := framing[cid]:
            for i in range(p, size, k):
                nonzeros[i, i] = f
        if row := lk.get((eta, cid)):
            eta_row[p::k] = row
    for (a, b), row in lk.items():
        if a in index and b in index and any(row):
            pa, pb = index[a], index[b]
            for d in compress(range(m), row):
                v = row[d]
                nonzeros.update(((x * k + pa, (x + d) % m * k + pb), v) for x in range(m))
    own = lk.get((eta, eta))
    return LiftedData(
        IntMatrix(size, size, nonzeros),
        tuple(eta_row),
        (framing[eta], *own[1:]) if own else (framing[eta],) + (0,) * (m - 1),
    )


def lifted_linking_matrix(cd: CoverDiagram) -> LiftedData:
    """The lifted data read off the cover word itself (the oracle of :func:`lift_data`).

    Every entry is read off the cover word's base table, ``cover_tables(1)``.
    """
    framing, lk = cd.analysis.cover_tables(1)
    base_ana = analyze(cd.base)
    order = [cd.lift(cid, a) for a in range(cd.m) for cid in base_ana.lift_order]
    index = {cid: i for i, cid in enumerate(order)}
    nonzeros = {(i, i): framing[cid] for cid, i in index.items() if framing[cid]}
    nonzeros.update(
        ((index[a], index[b]), v) for (a, b), (v,) in lk.items() if v and a in index and b in index
    )
    eta, *others = cd.lifts_of(base_ana.component_by_name("eta"))
    return LiftedData(
        IntMatrix(len(order), len(order), nonzeros),
        tuple(lk.get((eta, cid), (0,))[0] for cid in order),
        (framing[eta], *(lk.get((eta, e), (0,))[0] for e in others)),
    )
