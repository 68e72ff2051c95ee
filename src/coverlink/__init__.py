"""Branched-cover linking computations for satellite patterns in a solid torus.

The library models patterns combinatorially, either as annular diagrams
(event words in the cut-open complement of an unknotted axis) or as
cable-plus-clasps presentations, builds their cyclic branched covers by
cutting and stacking, evaluates the surgery formula exactly over the
rationals, and decides whether the lifted meridian linking numbers certify
the sign obstruction.
"""

from .cover import (
    CoverDiagram,
    build_cover,
    deck_translate,
    lifted_eta_linkings,
    lifted_linking_matrix,
)
from .diagram import (
    AnnularWord,
    Cap,
    Cross,
    Cup,
    Kink,
    analyze,
    components,
    framing,
    linking,
    parse,
    serialize,
    winding,
    wrapping,
)
from .linalg import (
    IntMatrix,
    Rational,
    RationalMatrix,
    block_circulant_split,
    det,
    inverse,
    order_in_quotient,
    smith_normal_form,
    solve,
)
from .downhill import (
    NormalizeResult,
    force_downhill,
    is_downhill,
    normalize,
    random_annular_word,
    reduce_returning,
)
from .obstruct import (
    ObstructionReport,
    auto_verdict,
    branched_linkings,
    cha_ko,
    cross_checks,
    verdict,
)
from .pattern import (
    ClaspPresentation,
    ClaspSpec,
    add_cancelling_pair,
    cable_template,
    random_presentation,
    validate,
)
from .pattern import compile as compile_presentation

__version__ = "0.1.0"

__all__ = [
    "AnnularWord",
    "Cap",
    "ClaspPresentation",
    "ClaspSpec",
    "CoverDiagram",
    "Cross",
    "Cup",
    "IntMatrix",
    "Kink",
    "NormalizeResult",
    "ObstructionReport",
    "Rational",
    "RationalMatrix",
    "add_cancelling_pair",
    "analyze",
    "auto_verdict",
    "block_circulant_split",
    "branched_linkings",
    "build_cover",
    "cable_template",
    "cha_ko",
    "compile_presentation",
    "components",
    "cross_checks",
    "deck_translate",
    "det",
    "force_downhill",
    "framing",
    "inverse",
    "is_downhill",
    "lifted_eta_linkings",
    "lifted_linking_matrix",
    "linking",
    "normalize",
    "order_in_quotient",
    "parse",
    "random_annular_word",
    "random_presentation",
    "reduce_returning",
    "serialize",
    "smith_normal_form",
    "solve",
    "validate",
    "verdict",
    "winding",
    "wrapping",
]
