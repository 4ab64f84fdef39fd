"""Exact-arithmetic couplings of finite probability distributions.

Variational distance in both classic forms, coupling construction and
validation, the product-residual maximal coupling and its two-dim
extension, an exact transportation-LP oracle with dual certificates, and
a key-distribution audit that separates "distance" from "failure
probability".  Every probability is a :class:`fractions.Fraction`;
nothing is ever rounded except in display strings.
"""

from .audit import EpsilonAuditInput, EpsilonAuditReport, epsilon_audit, example4_report
from .coupling import (
    Coupling,
    LemmaAudit,
    Residuals,
    coupling_independent,
    coupling_maximal,
    lemma_audit,
    maximal_diagonal,
    mismatch_prob,
    residuals,
)
from .distributions import Alphabet, Pmf, Pmf2
from .errors import (
    AlphabetMismatchError,
    ConstraintInfeasibleError,
    CorruptedCouplingError,
    CouplingError,
    CouplingKitError,
    DistributionError,
    EnumerationLimitError,
    ParseError,
    ShapeMismatchError,
)
from .metrics import UpperSet, upper_set, vdist_halfsum, vdist_subset
from .multidim import (
    Coupling4,
    MismatchComponents,
    coupling4_constrained,
    coupling4_independent,
    coupling4_maximal,
    mismatch_components,
    vdist2,
)
from .rational import decimal_string, parse_rational
from .transport import (
    BasisTree,
    DualCertificate,
    TransportProblem,
    certify,
    lp_min_mismatch,
    mismatch_certificate,
    solve_transport,
    vertex_enumerate,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetMismatchError",
    "BasisTree",
    "ConstraintInfeasibleError",
    "CorruptedCouplingError",
    "Coupling",
    "Coupling4",
    "CouplingError",
    "CouplingKitError",
    "DistributionError",
    "DualCertificate",
    "EnumerationLimitError",
    "EpsilonAuditInput",
    "EpsilonAuditReport",
    "LemmaAudit",
    "MismatchComponents",
    "ParseError",
    "Pmf",
    "Pmf2",
    "Residuals",
    "ShapeMismatchError",
    "TransportProblem",
    "UpperSet",
    "certify",
    "coupling4_constrained",
    "coupling4_independent",
    "coupling4_maximal",
    "coupling_independent",
    "coupling_maximal",
    "decimal_string",
    "epsilon_audit",
    "example4_report",
    "lemma_audit",
    "lp_min_mismatch",
    "maximal_diagonal",
    "mismatch_certificate",
    "mismatch_components",
    "mismatch_prob",
    "parse_rational",
    "residuals",
    "solve_transport",
    "upper_set",
    "vdist2",
    "vdist_halfsum",
    "vdist_subset",
    "vertex_enumerate",
]
