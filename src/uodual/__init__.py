"""Numerical laboratory for unbounded-order duality in sequence and function
space models: Orlicz conjugates and Luxemburg norms, uo-convergence
predicates, dual-membership falsification, Fenchel conjugation, and
Fatou-property (bounded-uo lower semicontinuity) checking."""

__version__ = "0.1.0"

from .convex import (
    ConjugateField,
    ConvexFunctional,
    SearchConfig,
    biconjugate,
    builtin,
    dual_representation_check,
    fenchel_conjugate,
)
from .fatou import (
    TestSequence,
    check_bounded_uo_lsc,
    extract_ae_subsequence,
    generate,
    verify_norm_bounded,
)
from .lattice import (
    SpaceModel,
    TailVector,
    VectorSequence,
    is_disjoint,
    is_order_null,
    is_uo_null,
    membership,
    model_norm,
    oc_part_membership,
    uo_dual_expected,
    uo_dual_test,
)
from .measure import ProbabilitySpace, RandomVariable, integrate, pairing, refine
from .orlicz import OrliczFunction, conjugate, luxemburg_norm

__all__ = [
    "ConjugateField",
    "ConvexFunctional",
    "OrliczFunction",
    "ProbabilitySpace",
    "RandomVariable",
    "SearchConfig",
    "SpaceModel",
    "TailVector",
    "TestSequence",
    "VectorSequence",
    "__version__",
    "biconjugate",
    "builtin",
    "check_bounded_uo_lsc",
    "conjugate",
    "dual_representation_check",
    "extract_ae_subsequence",
    "fenchel_conjugate",
    "generate",
    "integrate",
    "is_disjoint",
    "is_order_null",
    "is_uo_null",
    "luxemburg_norm",
    "membership",
    "model_norm",
    "oc_part_membership",
    "pairing",
    "refine",
    "uo_dual_expected",
    "uo_dual_test",
    "verify_norm_bounded",
]
