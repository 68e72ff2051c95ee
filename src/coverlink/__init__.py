"""Branched-cover linking computations for satellite patterns in a solid torus.

The library models patterns combinatorially, either as annular diagrams
(event words in the cut-open complement of an unknotted axis) or as
cable-plus-clasps presentations, reads the lifted data of their cyclic
branched covers from one equivariant sweep of the base word, evaluates the surgery formula exactly over the
rationals, and decides whether the lifted meridian linking numbers certify
the sign obstruction.
"""

from .cover import (
    CoverDiagram,
    build_cover,
    lift_data,
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
    parse,
    serialize,
)
from .linalg import (
    IntMatrix,
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

__version__ = "0.12.0"

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
    "add_cancelling_pair",
    "analyze",
    "auto_verdict",
    "build_cover",
    "cable_template",
    "cha_ko",
    "compile_presentation",
    "cross_checks",
    "det",
    "force_downhill",
    "inverse",
    "is_downhill",
    "lift_data",
    "lifted_eta_linkings",
    "lifted_linking_matrix",
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
]
