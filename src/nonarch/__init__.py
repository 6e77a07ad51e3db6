"""Exact computational toolkit for non-archimedean valuations, seminorms
on differential pluriforms, and tropical skeletons.

Everything is additive and exact: a multiplicative absolute value
|x| = eps**q is stored as the rational exponent q (INF for |x| = 0), so
products become sums, maxima become minima, and all comparisons are exact
rational comparisons.
"""

from .errors import DomainError, ParseError
from .expr import parse_poly, poly_to_expr
from .fields import BaseFieldModel, FieldElement, p_adic_q, pi_adic_fp, pi_adic_q, trivial_q
from .forms import (
    MonomialChart,
    Pluriform,
    PullbackResult,
    TameStatus,
    differential,
    kahler_norm_at,
    pullback,
    tame_certificate,
)
from .laurent import LaurentPoly, gauss_val, gauss_val_rational, log_derivative
from .lattices import (
    ElementaryDivisors,
    PresentationMatrix,
    adic_norm,
    content,
    det_val,
    semilattice_index,
    smith,
)
from .lp import lp_min
from .seminorms import (
    DiagSeminorm,
    det_norm,
    norm_index,
    sym_power,
    sym_power_is_exact,
    tensor,
    wedge_power,
)
from .tropical import (
    Face,
    FaceComplex,
    RationalPolytope,
    TropPoly,
    bounded_vertices,
    min_locus,
    polytope_vertices,
    prune_never_minimal,
    retract,
    semistable_skeleton,
    trop_eval,
    tropicalize,
)
from .values import INF, Val
from .weights import (
    ComparisonReport,
    KummerDivisorialSpec,
    compare,
    different_kummer_ramified,
    kahler_norm_divisorial,
    log_different,
    weight_norm,
)

__version__ = "0.1.0"

__all__ = [
    "BaseFieldModel", "ComparisonReport", "DiagSeminorm", "DomainError",
    "ElementaryDivisors", "Face", "FaceComplex", "FieldElement", "INF",
    "KummerDivisorialSpec", "LaurentPoly", "MonomialChart", "ParseError",
    "Pluriform", "PresentationMatrix", "PullbackResult", "RationalPolytope",
    "TameStatus", "TropPoly", "Val", "adic_norm", "bounded_vertices",
    "compare", "content", "det_norm", "det_val", "differential",
    "different_kummer_ramified",
    "gauss_val", "gauss_val_rational", "kahler_norm_at",
    "kahler_norm_divisorial", "log_derivative", "log_different", "lp_min",
    "min_locus", "norm_index", "p_adic_q", "parse_poly", "pi_adic_fp",
    "pi_adic_q", "poly_to_expr", "polytope_vertices", "prune_never_minimal",
    "pullback", "retract", "semilattice_index", "semistable_skeleton",
    "smith", "sym_power", "sym_power_is_exact", "tame_certificate", "tensor",
    "trivial_q", "trop_eval", "tropicalize", "wedge_power", "weight_norm",
]
