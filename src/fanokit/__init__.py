"""Exact stability-theoretic invariants of toric Fano models.

All arithmetic is rational (fractions.Fraction); nothing in the library
touches floating point.  The usual entry points:

    from fanokit import catalog_model, beta, point_subscheme
    X = catalog_model("P2")
    print(beta(X, point_subscheme(X, 0)).beta)   # 0
"""

from .filtration import compute_d_infty, ideal_power_filtration
from .lct import lct_monomial, lct_on_product_with_line
from .model import (anticanonical_volume, build_model, catalog,
                    catalog_model, section_count)
from .stability import (beta, ding_invariant, semistability_scan,
                        verify_volume_bound)
from .subscheme import (IdealSequenceOnXxA1, MonomialSubscheme,
                        boundary_divisor_subscheme, point_subscheme,
                        standard_battery, thickened_point_subscheme)
from .volumes import (blowup_volume_profile, pseudoeffective_threshold,
                      seshadri_constant)

__version__ = "0.1.0"

__all__ = [
    "IdealSequenceOnXxA1", "MonomialSubscheme", "anticanonical_volume",
    "beta", "blowup_volume_profile", "boundary_divisor_subscheme",
    "build_model", "catalog", "catalog_model", "compute_d_infty",
    "ding_invariant", "ideal_power_filtration", "lct_monomial",
    "lct_on_product_with_line", "point_subscheme", "pseudoeffective_threshold", "section_count",
    "semistability_scan", "seshadri_constant", "standard_battery",
    "thickened_point_subscheme", "verify_volume_bound",
]
