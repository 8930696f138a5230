"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
All comparisons are exact integer equality; each criterion also carries a
wall-clock budget that the test enforces.
"""

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from antiregular import (
    BuildingString,
    Hypergraph,
    algorithm1_labels,
    antiregular_string,
    build_hypergraph,
    check_label_monotonicity,
    coeff_formulas,
    complement_uniform,
    degree_sequence,
    ipoly_antiregular_recurrence,
    ipoly_bruteforce,
    ipoly_k3_closed,
    ipoly_semiclosed,
    ipoly_trinks,
    is_log_concave,
    recognize_zero_one_constructable,
    solve_alpha,
    solve_beta,
    t2_feasibility,
    verify_t2,
)
from antiregular.polynomial import Poly
from antiregular.sweep import constructable_strings
from conftest import invoke, reference_twin

H1 = Hypergraph(5, frozenset([(1, 4, 5), (2, 3, 5), (2, 4, 5), (3, 4, 5)]), 3)
H2 = Hypergraph(5, frozenset([(1, 2, 3), (1, 3, 4), (2, 3, 5), (3, 4, 5)]), 3)


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL {description}")
        raise
    elapsed = perf_counter() - start
    if elapsed >= limit_seconds:
        print(
            f"criterion {number:2d} FAIL {description}"
            f" (took {elapsed:.2f}s, budget {limit_seconds}s)"
        )
        raise AssertionError(f"criterion {number} exceeded its time budget")
    print(f"criterion {number:2d} PASS {description} ({elapsed:.2f}s)")


def test_criterion_1_label_construction_fidelity():
    with criterion(1, "label construction on the two 13-vertex strings", 1.0):
        res = invoke(["label", "--string", "0010100011101", "--k", "3"])
        assert res.exit_code == 0
        assert json.loads(res.stdout) == {
            "c": [
                "64", "64", "96", "48", "112", "8", "12", "14",
                "204", "204", "204", "-185", "401",
            ],
            "tau": "223",
        }
        res = invoke(["label", "--string", "0010101010101", "--k", "3"])
        assert res.exit_code == 0
        assert json.loads(res.stdout) == {
            "c": [
                "64", "64", "96", "48", "112", "8", "168", "-60",
                "276", "-222", "506", "-559", "1005",
            ],
            "tau": "223",
        }


def test_criterion_2_equal_polynomial_pair():
    with criterion(2, "shared polynomial of the five-vertex pair", 1.0):
        expected = Poly((1, 5, 10, 6, 1))
        for h in (H1, H2):
            assert ipoly_bruteforce(h) == expected
            assert ipoly_trinks(h) == expected


def test_criterion_3_four_way_agreement():
    with criterion(3, "all polynomial methods agree, k<=5, n<=14", 120.0):
        for k in (2, 3, 4, 5):
            for n in range(1, 15):
                for connected in [False] if n < k else [False, True]:
                    ref = ipoly_antiregular_recurrence(n, k, connected)
                    b = antiregular_string(n, k, connected)
                    h = build_hypergraph(b)
                    assert ipoly_bruteforce(h) == ref, (k, n, connected)
                    assert ipoly_trinks(h) == ref, (k, n, connected)
                    # the recurrence reads the string too: check hand-made tuples as well
                    assert ipoly_trinks(reference_twin(b)) == ref, (k, n, connected)
                    try:
                        semi = ipoly_semiclosed(n, k, connected)
                    except ValueError:
                        pass
                    else:
                        assert semi == ref, (k, n, connected)
                    if k == 3:
                        assert ipoly_k3_closed(n, connected) == ref, (n, connected)


def test_criterion_4_correction_tables():
    with criterion(4, "correction tables solve consistently, k<=6", 10.0):
        alpha3 = solve_alpha(3, 20)
        for level in alpha3.levels:
            assert alpha3.value(level, 0) == 3
            assert alpha3.value(level, 1) == level + 3
            assert alpha3.value(level, 2) == level
        beta3 = solve_beta(3, 20)
        for level in beta3.levels:
            assert beta3.value(level, 0) == 3
            assert beta3.value(level, 1) == level + 3
            assert beta3.value(level, 2) == level
        for solver in (solve_alpha, solve_beta):
            assert set(solver(2, 20).values.values()) == {1}
            for k in (4, 5, 6):
                table = solver(k, 20)  # constancy assertion must not fire
                assert len({table.value(level, 0) for level in table.levels}) == 1


def test_criterion_5_coefficient_formulas():
    with criterion(5, "coefficient formulas match recurrence, k<=6, 2n<=20", 30.0):
        assert coeff_formulas(3, 3) == (13, 3)
        assert coeff_formulas(4, 4)[0] == 46
        for k in (3, 4, 5, 6):
            for n in range(1, 11):
                p = ipoly_antiregular_recurrence(2 * n, k, False)
                assert coeff_formulas(k, n) == (p.coeff(k), p.coeff(k + 1)), (k, n)


def test_criterion_6_log_concavity():
    with criterion(6, "log-concavity of antiregular polynomials, k<=6, n<=40", 60.0):
        for k in (2, 3, 4, 5, 6):
            for n in range(1, 41):
                for connected in [False] if n < k else [False, True]:
                    p = ipoly_antiregular_recurrence(n, k, connected)
                    assert is_log_concave(p).holds, (k, n, connected)


def test_criterion_7_labeling_soundness_sweep():
    with criterion(7, "labels verify on every constructable string, k<=5, n<=12", 300.0):
        checked = 0
        for k in (2, 3, 4, 5):
            for n in range(k, 13):
                for bits in constructable_strings(k, n):
                    b = BuildingString(bits, k)
                    lab = algorithm1_labels(b)
                    assert verify_t2(build_hypergraph(b), lab).holds, (k, bits)
                    assert check_label_monotonicity(b, lab).holds, (k, bits)
                    checked += 1
        assert checked == 7634


def test_criterion_8_degree_structure():
    with criterion(8, "one repeated degree value, repeated k times", 10.0):
        for k in (3, 4, 5):
            for n in range(k + 1, 15):
                for connected in (False, True):
                    h = build_hypergraph(antiregular_string(n, k, connected))
                    mult = sorted(Counter(degree_sequence(h)).values())
                    assert mult == [1] * (n - k) + [k], (k, n, connected)
        forced = build_hypergraph(BuildingString("000010", 4))
        assert degree_sequence(forced) == (3, 3, 3, 3, 4, 0)


def test_criterion_9_negative_instances():
    with criterion(9, "infeasible and non-constructable instances rejected", 10.0):
        assert not t2_feasibility(H2).feasible
        four_uniform = Hypergraph(
            6,
            frozenset([(1, 2, 5, 6), (1, 3, 4, 6), (1, 3, 5, 6), (1, 4, 5, 6)]),
            4,
        )
        assert recognize_zero_one_constructable(four_uniform) is None
        triangle_chain = Hypergraph(
            6, frozenset([(1, 2, 3), (3, 4, 5), (1, 5, 6)]), 3
        )
        assert recognize_zero_one_constructable(triangle_chain) is None


def test_criterion_10_complement_duality():
    with criterion(10, "complement swaps the two antiregular variants", 30.0):
        for k in (2, 3, 4, 5):
            for n in range(k, 13):
                conn = build_hypergraph(antiregular_string(n, k, True))
                disc = build_hypergraph(antiregular_string(n, k, False))
                assert complement_uniform(conn).edges == disc.edges, (k, n)
                assert complement_uniform(disc).edges == conn.edges, (k, n)
