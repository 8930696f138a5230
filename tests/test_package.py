"""The package namespace: every public name resolves from its submodule."""

from importlib import import_module
from types import ModuleType

import pytest

import antiregular
from conftest import fresh_interpreter

# The public names and the submodule that defines each; a name lost from the
# package fails here.
EXPORTS = {
    "errors": ["GuardExceeded"],
    "hypergraph": [
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
    ],
    "ipoly": [
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
    ],
    "kernels": ["backend"],
    "polynomial": ["ONE", "X", "ZERO", "Poly", "one_plus_x_pow"],
    "sweep": ["SweepReport", "constructable_strings", "run_sweep"],
    "threshold": [
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
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in EXPORTS.items() for name in names]
)
def test_name_is_its_submodules_object(module, name):
    assert getattr(antiregular, name) is getattr(import_module(f"antiregular.{module}"), name)


def test_all_lists_every_name():
    assert sorted(antiregular.__all__) == NAMES


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from antiregular import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == NAMES


def test_dir_lists_every_name_before_first_use():
    listed = fresh_interpreter("import antiregular; print(*dir(antiregular))").split()
    assert set(NAMES) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        antiregular.no_such_name
    assert not hasattr(antiregular, "ipoly_nonexistent")


def test_from_import_still_yields_submodules():
    from antiregular import kernels, sweep

    assert isinstance(sweep, ModuleType) and sweep.__name__ == "antiregular.sweep"
    assert isinstance(kernels, ModuleType) and kernels.__name__ == "antiregular.kernels"


def test_first_use_loads_only_its_submodule():
    probe = (
        "import sys, antiregular; "
        "h = antiregular.build_hypergraph(antiregular.BuildingString('0011', 2)); "
        "print(sorted(m for m in sys.modules if m.startswith('antiregular.')), "
        "'build_hypergraph' in vars(antiregular))"
    )
    assert fresh_interpreter(probe).split() == ["['antiregular.hypergraph']", "True"]
