"""Exact rewrite-system algebra for the two-parameter deformed Grassmann
matrix group and supergroup."""

from .coeff import ONE, P, Q, ZERO, LaurentPoly, RatFunc, qnum
from .freealg import (
    Generator,
    Poly,
    Presentation,
    RewriteRule,
    build_presentation,
    derive_relations,
    format_poly,
    free_algebra_on,
    irreducible_words,
    normal_form,
    orient,
    overlap_check,
    preset,
    specialize,
    specialize_presentation,
)
from .matops import (
    AlgMatrix,
    closed_power,
    delta_left,
    delta_right,
    generic_gr2,
    generic_gr11,
    generic_gr11_localized,
    identity_matrix,
    inverse11,
    left_inverse,
    mat_mul,
    matrix_power,
    power_relations_check,
    rhat,
    right_inverse,
    rtt_residual,
    sdet,
    span_equal,
    tensor_graded,
    tensor_ungraded,
)
from .reporting import Check, Report
from .verify import (
    fault_injection_report,
    suite_all,
    suite_gr2,
    suite_gr11,
    suite_powers,
)

__all__ = [
    "AlgMatrix", "Check", "Generator", "LaurentPoly", "ONE", "P", "Poly",
    "Presentation", "Q", "RatFunc", "Report", "RewriteRule", "ZERO",
    "build_presentation", "closed_power",
    "delta_left", "delta_right", "derive_relations", "fault_injection_report",
    "format_poly", "free_algebra_on", "generic_gr2",
    "generic_gr11", "generic_gr11_localized", "identity_matrix",
    "inverse11", "irreducible_words", "left_inverse", "mat_mul",
    "matrix_power", "normal_form", "orient", "overlap_check",
    "power_relations_check", "preset", "qnum", "rhat", "right_inverse",
    "rtt_residual", "sdet", "span_equal", "specialize",
    "specialize_presentation", "suite_all", "suite_gr2", "suite_gr11",
    "suite_powers", "tensor_graded", "tensor_ungraded",
]
