"""Exact adjoint fusion rules and fusion tadpoles for the simple Lie algebras."""

from .adjoint_rules import (
    FusionDecomposition,
    decompose,
    decompose_tensor,
    diag_fusion,
)
from .algebra import AlgebraId, Root, RootSystem, algebras_up_to, build, parse_algebra
from .errors import (
    AlgebraMismatch,
    FusionError,
    InvalidRank,
    LevelMismatch,
    LevelTooSmall,
    NoClosedForm,
    NotARoot,
)
from .oracle import kac_walton_fusion, racah_speiser_tensor
from .tables import (
    B_TADPOLE_TABLE,
    F4_STRING_TABLE,
    G2_OFFDIAG_TABLE,
    NontrivialCondition,
    nontrivial_conditions,
    reference_nontrivial_conditions,
)
from .tadpole import (
    PiecewisePolynomial,
    adjoint_tadpole_enum,
    adjoint_tadpole_formula,
    adjoint_tadpole_oracle,
    adjoint_tadpole_polynomial,
    falling_power,
    zero_tadpole_enum,
    zero_tadpole_formula,
    zero_tadpole_polynomial,
)
from .verify import VerifyReport, run_verify
from .weights import AffineWeight, affinize, enumerate_level, format_weight, parse_weight

__version__ = "0.1.0"

__all__ = [
    "AffineWeight",
    "AlgebraId",
    "AlgebraMismatch",
    "B_TADPOLE_TABLE",
    "F4_STRING_TABLE",
    "FusionDecomposition",
    "FusionError",
    "G2_OFFDIAG_TABLE",
    "InvalidRank",
    "LevelMismatch",
    "LevelTooSmall",
    "NoClosedForm",
    "NontrivialCondition",
    "NotARoot",
    "PiecewisePolynomial",
    "Root",
    "RootSystem",
    "VerifyReport",
    "adjoint_tadpole_enum",
    "adjoint_tadpole_formula",
    "adjoint_tadpole_oracle",
    "adjoint_tadpole_polynomial",
    "affinize",
    "algebras_up_to",
    "build",
    "decompose",
    "decompose_tensor",
    "diag_fusion",
    "enumerate_level",
    "falling_power",
    "format_weight",
    "kac_walton_fusion",
    "nontrivial_conditions",
    "parse_algebra",
    "parse_weight",
    "racah_speiser_tensor",
    "reference_nontrivial_conditions",
    "run_verify",
    "zero_tadpole_enum",
    "zero_tadpole_formula",
    "zero_tadpole_polynomial",
]
