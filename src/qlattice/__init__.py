"""Graph products of quasi-lattice ordered groups.

Normal forms and the word problem, lattice operations (least upper
bounds, right gcds, canonical fractions), and truncated Toeplitz
representations with covariance/defect checks and norm estimation.
Supported factors: the integers with cone N, and finite-type Artin
groups with the Artin monoid as cone.
"""

from .factors import (
    INFINITY,
    ArtinFraction,
    ArtinOps,
    NoCommonMultipleError,
    NotFiniteTypeError,
    ZOps,
    factor_from_spec,
)
from .graph import CommutationGraph, NormalWord, Syllable
from .order import (
    DirectProductElement,
    NotInPPInvError,
    canonical_fraction,
    i_adjacent,
    is_positive,
    leq,
    leq_r,
    lub,
    lub_general,
    phi,
    phi_lub,
    rgcd,
)
from .toeplitz import (
    BallSizeExceeded,
    ConeBall,
    IsometryFamily,
    NormNotCertified,
    SparseOperator,
    check_graph_relations,
    check_toeplitz_relations,
    covariance_check,
    defect_product_diag,
    enumerate_ball,
    norm_curve,
    norm_estimate,
    range_projection_diag,
    toeplitz_op,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
