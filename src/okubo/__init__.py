"""Okubo normal form systems attached to products of Gauss hypergeometric
functions: exact structural identities and desk-scale numerics.

The package constructs the Fuchsian system satisfied by a product of two
Gauss functions, gauges it into Okubo normal form, parametrizes the
accessory parameters of the general size-four Okubo system with those
local exponents, decides when the coefficient difference systems of the
local solutions at two singular points match up to a common scalar
factor, solves the resulting equations for the special accessory values,
and verifies that those values realize the hypergeometric product.  An
appendix-grade reduction produces the size-three Dotsenko-Fateev system
by an Euler transform, with an integral solution checked numerically.
"""

from .accessory import (AccessoryChart, CubicBlockDecomposition,
                        DifferenceSystem, Obstructions, RealizationReport,
                        SamenessVerdict, cubic_blocks, difference_systems,
                        epsilon_delta, is_admissible, okubo_from_chart,
                        realize_product_system, recover_chart,
                        solve_accessory, special_matrix, substantially_same)
from .dotsenko_fateev import (DFParams, df_residues, df_eigenvector_matrix,
                              df_integral_solution, check_df_transformation,
                              euler_reduce)
from .exact import (Poly, PolyMatrix, RationalMatrix, left_eigenvectors,
                    mat_mul, poly_adjugate, to_fraction)
from .hgsystem import (FuchsianSystem, HGParams, OkuboSystem,
                       build_diagonalizer, build_okubo_system,
                       build_product_system, contiguous_product_matrix,
                       gauge_matrix, lam)
from .series import (EvalReport, SeriesSolution, contiguous_product_vector,
                     hyp2f1, local_series, product_vector_w, residual_report,
                     v_via_transform)
from .verify import verify_all

__version__ = "0.1.0"

__all__ = [
    "AccessoryChart", "CubicBlockDecomposition", "DifferenceSystem",
    "DFParams", "EvalReport", "FuchsianSystem",
    "HGParams", "Obstructions", "OkuboSystem", "Poly", "PolyMatrix",
    "RationalMatrix", "RealizationReport", "SamenessVerdict",
    "SeriesSolution", "build_diagonalizer", "build_okubo_system",
    "build_product_system", "check_df_transformation",
    "contiguous_product_matrix", "contiguous_product_vector", "cubic_blocks",
    "df_eigenvector_matrix", "df_integral_solution", "df_residues",
    "difference_systems", "epsilon_delta", "euler_reduce", "gauge_matrix",
    "hyp2f1", "is_admissible", "lam", "left_eigenvectors", "local_series",
    "mat_mul", "okubo_from_chart", "poly_adjugate", "product_vector_w",
    "realize_product_system", "recover_chart", "residual_report",
    "solve_accessory", "special_matrix", "substantially_same", "to_fraction",
    "v_via_transform", "verify_all",
]
