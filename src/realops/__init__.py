"""Desk-scale real operator space computations.

Concrete matrix-level norms, the complexification functor, minimal and
maximal quantizations of finite-dimensional Banach spaces, complete left
M-projection certification, Paulsen systems, idempotent re-products and
ternary rings of operators, with a CLI that reproduces the two numeric
counterexamples separating the real theory from the complex one.
"""

from .linalg import (contraction_iff_positive, is_real_positive, op_norm)
from .opspace import (CBMap, MatElem, OpSpace, check_ruan_axioms,
                      complexification_norm, complexify_map,
                      complexify_space, direct_sum_spaces, elem,
                      full_matrix_space, level_norm, quotient_level_norm,
                      random_elem, span_space)
from .quantization import (BanachSpace, ell_infty, ell_one,
                           max_l1_norm_bounds, min_complexification_check,
                           min_level_norm, realize_min,
                           reproduce_l12_nonuniqueness, w2_complex_norm)
from .mideal import (Certification, Projection, build_nu_mu_tau,
                     certify_left_m_projection, is_right_ideal, projection,
                     projection_complexification_consistency, shuffle_iso,
                     tau_map, verify_multiplier_witness)
from .systems import (OpAlgebra, PaulsenSystem, TROSpace,
                      build_paulsen_system, check_brs_level,
                      choi_effros_product, generated_subtriple, is_tro,
                      op_algebra, paulsen_positivity_transfer,
                      shilov_inner_product, unitize)

__version__ = "0.1.0"
