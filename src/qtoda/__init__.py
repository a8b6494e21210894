"""Exact symbolic engine for q-deformed Toda difference operators.

Builds the commuting families of q-difference operators attached to the
exterior-power representations of the type A quantum group (finite and
affine, with the affine coupling K kept symbolic), and verifies their
structural identities: commutativity, quasiclassical limits, gauge and
automorphism equivalences with the relativistic form, and the
degenerations from inverse-sinh-squared and symmetric-function models.

All arithmetic is exact over the rationals; there is no floating point
anywhere in the package.
"""

from .scalars import HbarJet, LaurentQK, jet_divide, jet_expand, \
    q_binomial, q_integer, serre_scalar_sum
from .torus import TorusPoly, TorusRat, com_quotient_canonicalize
from .diffop import (
    DiffOp, conjugate_by_factor_product, sect6_automorphism,
)
from .qrep import (
    DynkinData, Orientation, RepData, build_orientation, fundamental_rep,
    qp_normal_order, verify_serre_homomorphism,
)
from .engine import (
    EngineConfig, NCWord, build_toda_operator, expand_central_words,
    toda_family, verify_commuting_family, whittaker_reduce,
)
from .limits import (
    DifferentialOp, affine_classical_toda, classical_combination_fit,
    classical_toda, cm_limit, quasiclassical_limit,
)
from .degenerations import (
    macdonald_operator, macdonald_toda_limit, relativistic_catalog,
    relativistic_gauge_check,
)

__version__ = "0.1.0"

__all__ = [
    "HbarJet", "LaurentQK", "jet_divide", "jet_expand", "q_binomial",
    "q_integer", "serre_scalar_sum",
    "TorusPoly", "TorusRat", "com_quotient_canonicalize",
    "DiffOp", "conjugate_by_factor_product", "sect6_automorphism",
    "DynkinData", "Orientation", "RepData", "build_orientation",
    "fundamental_rep", "qp_normal_order", "verify_serre_homomorphism",
    "EngineConfig", "NCWord", "build_toda_operator", "expand_central_words",
    "toda_family", "verify_commuting_family", "whittaker_reduce",
    "DifferentialOp", "affine_classical_toda", "classical_combination_fit",
    "classical_toda", "cm_limit", "quasiclassical_limit",
    "macdonald_operator", "macdonald_toda_limit", "relativistic_catalog",
    "relativistic_gauge_check",
]
