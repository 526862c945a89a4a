"""Averaged CM values of higher Green's functions over real quadratic fields.

Two independent engines: an exact algebraic one predicting the prime
factorization of the associated invariant, and a high-precision numerical one
evaluating the averaged Green's function directly, with a verifier that
reconciles them.
"""

from .qfield import (
    FieldElem,
    FracIdeal,
    InvalidInputError,
    QuadField,
    field,
    is_fundamental_discriminant,
    kronecker,
)
from .finquad import FQM, GenusChar, genus_characters, rho_KF
from .mforms import check_principal_part, cusp_basis, delta_form, eisenstein
from .greens import CMPoint, GreenParams, G_k_hecke, G_kf_at_cycle, cm_points
from .factor import FactorReport, gamma_exponents, reconcile, trace_slice

__all__ = [
    "FieldElem", "FracIdeal", "InvalidInputError", "QuadField", "field",
    "is_fundamental_discriminant", "kronecker",
    "FQM", "GenusChar", "genus_characters", "rho_KF",
    "check_principal_part", "cusp_basis", "delta_form", "eisenstein",
    "CMPoint", "GreenParams", "G_k_hecke", "G_kf_at_cycle", "cm_points",
    "FactorReport", "gamma_exponents", "reconcile", "trace_slice",
]

__version__ = "0.1.0"
