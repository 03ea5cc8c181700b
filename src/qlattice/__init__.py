"""Graph products of quasi-lattice ordered groups.

Normal forms and the word problem, lattice operations (least upper
bounds, right gcds, canonical fractions), and truncated Toeplitz
representations with covariance/defect checks and norm estimation.
Supported factors: the integers with cone N, and finite-type Artin
groups with the Artin monoid as cone.
"""

import importlib

from .factors import (
    INFINITY,
    ArtinFraction,
    ArtinOps,
    NoCommonMultipleError,
    NotFiniteTypeError,
    ZOps,
    factor_from_spec,
)
from .graph import BallSizeExceeded, CommutationGraph, NormalWord, Syllable
from .order import (
    NotInPPInvError,
    canonical_fraction,
    is_positive,
    leq,
    leq_r,
    lub,
    phi,
    phi_lub,
    rgcd,
)


def __getattr__(name):
    """The names of __all__ not bound above come from .toeplitz, imported on
    first use (PEP 562), so the lattice side loads neither numpy nor scipy."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    toeplitz = importlib.import_module(".toeplitz", __name__)
    if name != "toeplitz":
        globals()[name] = getattr(toeplitz, name)
    return globals()[name]


__all__ = [
    "ArtinFraction", "ArtinOps", "BallSizeExceeded", "CommutationGraph", "ConeBall", "INFINITY",
    "IsometryFamily", "NoCommonMultipleError", "NormNotCertified", "NormalWord",
    "NotFiniteTypeError", "NotInPPInvError", "Syllable", "ZOps", "canonical_fraction",
    "check_graph_relations", "check_toeplitz_relations", "covariance_check", "defect_product_diag",
    "enumerate_ball", "factor_from_spec", "factors", "graph", "is_positive", "leq", "leq_r", "lub",
    "norm_curve", "norm_estimate", "order", "phi", "phi_lub", "range_projection_diag", "rgcd",
    "toeplitz", "toeplitz_op",
]
__version__ = "0.1.0"
