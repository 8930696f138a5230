"""Exact independence polynomials and threshold labelings of k-uniform
hypergraphs built from binary strings."""

from .errors import GuardExceeded
from .hypergraph import (
    BuildingString,
    Hypergraph,
    antiregular_string,
    build_hypergraph,
    complement_uniform,
    degree_sequence,
    disjoint_union,
    edgeless,
    hypergraph_from_json,
    hypergraph_to_json,
    recognize_zero_one_constructable,
    zykov_k_sum,
)
from .ipoly import (
    AlphaBetaTable,
    LogConcavityReport,
    coeff_formulas,
    ipoly_antiregular_recurrence,
    ipoly_bruteforce,
    ipoly_k3_closed,
    ipoly_semiclosed,
    ipoly_string,
    ipoly_trinks,
    is_log_concave,
    solve_alpha,
    solve_beta,
)
from .kernels import backend
from .polynomial import ONE, X, ZERO, Poly, one_plus_x_pow
from .sweep import SweepReport, constructable_strings, run_sweep
from .threshold import (
    FeasibilityVerdict,
    IntervalDecomposition,
    Labeling,
    MonotonicityVerdict,
    T2Verdict,
    T3Verdict,
    algorithm1_labels,
    check_label_monotonicity,
    intervals,
    t2_feasibility,
    verify_t2,
    verify_t3,
)

__version__ = "0.1.0"
