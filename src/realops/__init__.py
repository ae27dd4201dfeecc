"""Desk-scale real operator space computations.

Concrete matrix-level norms, the complexification functor, minimal and
maximal quantizations of finite-dimensional Banach spaces, complete left
M-projection certification, Paulsen systems, idempotent re-products and
ternary rings of operators, with a CLI that reproduces the two numeric
counterexamples separating the real theory from the complex one.

Importing the package loads none of its submodules: each public name is
served from its submodule on first access, so a command pays only for
the modules it runs.
"""

import importlib

#: the submodule of each public name
_SUBMODULES = {
    "linalg": ("contraction_iff_positive", "is_real_positive", "op_norm"),
    "opspace": ("CBMap", "MatElem", "OpSpace", "check_ruan_axioms",
                "complexification_norm", "complexify_map",
                "complexify_space", "direct_sum_spaces", "elem",
                "full_matrix_space", "level_norm", "quotient_level_norm",
                "random_elem", "span_space"),
    "quantization": ("BanachSpace", "ell_infty", "ell_one",
                     "max_l1_norm_bounds", "min_complexification_check",
                     "min_level_norm", "realize_min",
                     "reproduce_l12_nonuniqueness", "w2_complex_norm"),
    "mideal": ("Certification", "Projection", "build_nu_mu_tau",
               "certify_left_m_projection", "is_right_ideal", "projection",
               "projection_complexification_consistency", "shuffle_iso",
               "tau_map", "verify_multiplier_witness"),
    "systems": ("OpAlgebra", "PaulsenSystem", "TROSpace",
                "build_paulsen_system", "check_brs_level",
                "choi_effros_product", "generated_subtriple", "is_tro",
                "op_algebra", "paulsen_positivity_transfer",
                "shilov_inner_product", "unitize"),
}
_SUBMODULE_OF = {name: module for module, names in _SUBMODULES.items()
                 for name in names}

__all__ = sorted(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """The public ``name``, looked up in its submodule on every access, so
    that it is always the object the submodule holds."""
    try:
        module = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
