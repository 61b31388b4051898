"""Exact adjoint fusion rules and fusion tadpoles for the simple Lie algebras.

Each export is loaded from its submodule on first access (PEP 562) and kept
here, so ``import fusionkit`` loads no submodule and a one-shot command loads
only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names it exports
_EXPORTS = {
    "adjoint_rules": ("FusionDecomposition", "decompose", "decompose_tensor", "diag_fusion"),
    "algebra": ("AlgebraId", "Root", "RootSystem", "algebras_up_to", "build", "parse_algebra"),
    "errors": ("AlgebraMismatch", "FusionError", "InvalidRank", "LevelMismatch", "LevelTooSmall",
               "NoClosedForm", "NotARoot"),
    "oracle": ("kac_walton_fusion", "racah_speiser_tensor"),
    "tables": ("B_TADPOLE_TABLE", "F4_STRING_TABLE", "G2_OFFDIAG_TABLE", "NontrivialCondition",
               "nontrivial_conditions", "reference_nontrivial_conditions"),
    "tadpole": ("PiecewisePolynomial", "adjoint_tadpole_enum", "adjoint_tadpole_formula", "adjoint_tadpole_oracle",
                "adjoint_tadpole_polynomial", "zero_tadpole_enum", "zero_tadpole_formula", "zero_tadpole_polynomial"),
    "verify": ("VerifyReport", "run_verify"),
    "weights": ("AffineWeight", "affinize", "enumerate_level", "format_weight", "parse_weight"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
