"""Permutation statistics, shuffle sets, statistic-preserving bijections,
and exact brute-force verification of shuffle compatibility.

``import shufbij`` loads no submodule: each public name below is imported
from its home module on first use, so a process pays only for the modules
it touches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public names by home module.
_EXPORTS = {
    "errors": "DomainOverlapError InfeasibleProfileError NotAShuffleError ResourceLimitError",
    "perm": "Perm as_perm format_perm insert_in_space parse_perm perm_with_descent_set"
            " perm_with_left_peak_profile space_labels standardize standardize_unit",
    "qpoly": "QPoly gen_poly q_binomial q_factorial q_int stanley_refined_rhs stanley_rhs",
    "reduce": "apply_step apply_trace canonicalize theta_des theta_lpk theta_maj_first theta_pk",
    "shuffle": "from_word is_shuffle iter_shuffles shuffle_distribution shuffles"
               " shuffles_with_k_descents word_of",
    "stats": "Distribution StatValue asc_set biruns chi_minus chi_plus des_set distribution"
             " evaluate inv maj parse_stat peak_family udr valley_family",
    "traces": "ReductionStep ReductionTrace normalize_pair phi phi_tilde t_swap",
    "verify": "Report Witness check_bijection_pipeline check_compatibility"
              " check_conjecture_udr_pk_des check_identity find_counterexample",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
