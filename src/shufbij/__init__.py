"""Permutation statistics, shuffle sets, statistic-preserving bijections,
and exact brute-force verification of shuffle compatibility."""

from .errors import (
    DomainOverlapError,
    InfeasibleProfileError,
    NotAShuffleError,
    ResourceLimitError,
)
from .perm import (
    Perm,
    as_perm,
    format_perm,
    insert_in_space,
    parse_perm,
    perm_with_descent_set,
    perm_with_left_peak_profile,
    space_labels,
    standardize,
    standardize_unit,
)
from .qpoly import (
    QPoly,
    gen_poly,
    q_binomial,
    q_factorial,
    q_int,
    stanley_refined_rhs,
    stanley_rhs,
)
from .reduce import (
    apply_step,
    apply_trace,
    canonicalize,
    theta_des,
    theta_lpk,
    theta_maj_first,
    theta_pk,
)
from .shuffle import (
    from_word,
    is_shuffle,
    iter_shuffles,
    normalize_pair,
    phi,
    phi_tilde,
    shuffle_distribution,
    shuffles,
    shuffles_with_k_descents,
    t_swap,
    word_of,
)
from .stats import (
    Distribution,
    StatValue,
    asc_set,
    biruns,
    chi_minus,
    chi_plus,
    des_set,
    distribution,
    evaluate,
    inv,
    maj,
    parse_stat,
    peak_family,
    udr,
    valley_family,
)
from .traces import ReductionStep, ReductionTrace
from .verify import (
    Report,
    Witness,
    check_bijection_pipeline,
    check_compatibility,
    check_conjecture_udr_pk_des,
    check_identity,
    find_counterexample,
)

__version__ = "0.1.0"
