"""Exact independence polynomials and threshold labelings of k-uniform
hypergraphs built from binary strings.

The public names below load their submodule on first use (PEP 562), so
`import antiregular` alone imports nothing else and a command line call
pays only for the modules its command runs.
"""

from importlib import import_module

_EXPORTS = {
    "errors": ("GuardExceeded",),
    "hypergraph": (
        "BuildingString",
        "Hypergraph",
        "antiregular_string",
        "build_hypergraph",
        "complement_uniform",
        "degree_sequence",
        "disjoint_union",
        "edgeless",
        "hypergraph_from_json",
        "hypergraph_to_json",
        "recognize_zero_one_constructable",
        "zykov_k_sum",
    ),
    "ipoly": (
        "AlphaBetaTable",
        "LogConcavityReport",
        "coeff_formulas",
        "ipoly_antiregular_recurrence",
        "ipoly_bruteforce",
        "ipoly_k3_closed",
        "ipoly_semiclosed",
        "ipoly_string",
        "ipoly_trinks",
        "is_log_concave",
        "solve_alpha",
        "solve_beta",
    ),
    "kernels": ("backend",),
    "polynomial": ("ONE", "X", "ZERO", "Poly", "one_plus_x_pow"),
    "sweep": ("SweepReport", "constructable_strings", "run_sweep"),
    "threshold": (
        "FeasibilityVerdict",
        "IntervalDecomposition",
        "Labeling",
        "MonotonicityVerdict",
        "T2Verdict",
        "T3Verdict",
        "algorithm1_labels",
        "check_label_monotonicity",
        "intervals",
        "t2_feasibility",
        "verify_t2",
        "verify_t3",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
