from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiregular import (
    GuardExceeded,
    Hypergraph,
    antiregular_string,
    build_hypergraph,
    BuildingString,
    coeff_formulas,
    disjoint_union,
    edgeless,
    ipoly_antiregular_recurrence,
    ipoly_bruteforce,
    ipoly_k3_closed,
    ipoly_semiclosed,
    ipoly_string,
    ipoly_trinks,
    is_log_concave,
    one_plus_x_pow,
    solve_alpha,
    solve_beta,
)
from antiregular.ipoly import ROUTES, _correction_row, ipoly_all, ipoly_route
from antiregular.polynomial import ZERO, Poly
from conftest import (
    assert_frozen_record,
    building_strings,
    mixed_hypergraphs,
    reference_edges,
    reference_twin,
    uniform_hypergraphs,
)

H1 = Hypergraph(5, frozenset([(1, 4, 5), (2, 3, 5), (2, 4, 5), (3, 4, 5)]), 3)


class TestBruteForce:
    def test_edgeless(self):
        assert ipoly_bruteforce(edgeless(4)) == one_plus_x_pow(4)

    def test_five_vertex(self):
        h = build_hypergraph(BuildingString("00101", 3))
        assert ipoly_bruteforce(h) == Poly((1, 5, 10, 3))

    def test_h1(self):
        assert ipoly_bruteforce(H1) == Poly((1, 5, 10, 6, 1))

    def test_poisoned_hypergraph(self):
        h = Hypergraph(3, frozenset([()]), None)
        assert ipoly_bruteforce(h) == ZERO

    def test_guard(self, monkeypatch):
        import antiregular.ipoly as mod

        monkeypatch.setattr(mod, "BRUTE_FORCE_GUARD", 3)
        with pytest.raises(GuardExceeded):
            ipoly_bruteforce(edgeless(4))
        assert ipoly_bruteforce(edgeless(4), guard=False) == one_plus_x_pow(4)


class TestTrinks:
    def test_single_vertex(self):
        assert ipoly_trinks(edgeless(1)) == Poly((1, 1))

    def test_single_edge(self):
        h = Hypergraph(3, frozenset([(1, 2, 3)]), 3)
        assert ipoly_trinks(h) == one_plus_x_pow(3) - Poly((0, 0, 0, 1))

    def test_six_vertex_example(self):
        h = build_hypergraph(BuildingString("001010", 3))
        assert ipoly_trinks(h) == Poly((1, 6, 15, 13, 3))

    def test_poisoned(self):
        assert ipoly_trinks(Hypergraph(2, frozenset([()]), None)) == ZERO

    def test_guard(self, monkeypatch):
        import antiregular.ipoly as mod

        monkeypatch.setattr(mod, "TRINKS_GUARD", 3)
        with pytest.raises(GuardExceeded):
            ipoly_trinks(edgeless(4))

    @given(uniform_hypergraphs(max_n=7))
    @settings(max_examples=60)
    def test_matches_brute_force(self, h):
        assert ipoly_trinks(h) == ipoly_bruteforce(h)

    @given(mixed_hypergraphs())
    @settings(max_examples=150)
    def test_non_uniform_matches_brute_force(self, h):
        assert ipoly_trinks(h) == ipoly_bruteforce(h)

    @given(building_strings(max_n=12))
    @settings(max_examples=40)
    def test_pruning_equivalence_on_strings(self, b):
        h = build_hypergraph(b)
        assert ipoly_trinks(h) == ipoly_bruteforce(reference_twin(b))

    @given(building_strings(max_n=12))
    @settings(max_examples=40)
    def test_built_and_tuple_twin_agree(self, b):
        # the built hypergraph reads its masks off b, the twin off tuples
        # that the construction, run by hand, made
        h, twin = build_hypergraph(b), reference_twin(b)
        assert ipoly_bruteforce(h) == ipoly_bruteforce(twin)
        assert ipoly_trinks(h) == ipoly_trinks(twin)


class TestRecurrence:
    def test_small_cases(self):
        assert ipoly_antiregular_recurrence(1, 3, False) == Poly((1, 1))
        assert ipoly_antiregular_recurrence(2, 3, False) == Poly((1, 2, 1))
        assert ipoly_antiregular_recurrence(5, 3, True) == Poly((1, 5, 10, 3))
        assert ipoly_antiregular_recurrence(6, 3, False) == Poly((1, 6, 15, 13, 3))

    def test_below_k_is_binomial_either_flag(self):
        for k in (3, 4, 5):
            for n in range(1, k):
                assert ipoly_antiregular_recurrence(n, k, True) == one_plus_x_pow(n)
                assert ipoly_antiregular_recurrence(n, k, False) == one_plus_x_pow(n)

    def test_disconnected_factor(self):
        # adding the final isolated vertex multiplies by (1+x)
        for k in (2, 3, 4):
            for n in range(k + 1, 12):
                assert ipoly_antiregular_recurrence(n, k, False) == one_plus_x_pow(
                    1
                ) * ipoly_antiregular_recurrence(n - 1, k, True)

    @given(building_strings(max_n=12))
    @settings(max_examples=80)
    def test_string_fold_matches_brute_force(self, b):
        assert ipoly_string(b) == ipoly_bruteforce(reference_twin(b))

    def test_string_fold_on_zeros_is_binomial(self):
        for k in (2, 3, 5):
            for n in range(1, 15):
                assert ipoly_string(BuildingString("0" * n, k)) == one_plus_x_pow(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            ipoly_antiregular_recurrence(0, 3, False)
        with pytest.raises(ValueError):
            ipoly_antiregular_recurrence(3, 1, False)


class TestK3Closed:
    def test_examples(self):
        assert ipoly_k3_closed(1, True) == Poly((1, 1))
        assert ipoly_k3_closed(2, False) == Poly((1, 2, 1))
        assert ipoly_k3_closed(5, True) == Poly((1, 5, 10, 3))
        assert ipoly_k3_closed(6, False) == Poly((1, 6, 15, 13, 3))

    def test_matches_recurrence_up_to_30(self):
        for n in range(1, 31):
            for connected in [False] if n < 3 else [False, True]:
                assert ipoly_k3_closed(n, connected) == ipoly_antiregular_recurrence(
                    n, 3, connected
                ), (n, connected)


class TestCorrectionTables:
    def test_alpha_k3_rows(self):
        t = solve_alpha(3, 10)
        for level in t.levels:
            assert t.value(level, 0) == 3
            assert t.value(level, 1) == level + 3
            assert t.value(level, 2) == level

    def test_beta_k3_rows(self):
        t = solve_beta(3, 10)
        for level in t.levels:
            assert t.value(level, 0) == 3
            assert t.value(level, 1) == level + 3
            assert t.value(level, 2) == level

    def test_k2_rows_all_one(self):
        for solver in (solve_alpha, solve_beta):
            t = solver(2, 8)
            assert set(t.values.values()) == {1}

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_boundary_row_is_binomial(self, k):
        for solver in (solve_alpha, solve_beta):
            t = solver(k, 12)
            for level in t.levels:
                assert t.value(level, k - 1) == comb(level, k - 2)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_bottom_row_constant(self, k):
        for solver in (solve_alpha, solve_beta):
            t = solver(k, 20)
            assert len({t.value(level, 0) for level in t.levels}) == 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_rows_meet_boundary_and_descent(self, k):
        for level in range(41):
            row, up = _correction_row(k, level), _correction_row(k, level + 2)
            assert len(row) == k and row[k - 1] == comb(level, k - 2), (k, level)
            for i in range(1, k):
                assert row[i - 1] == up[i] - row[i] + comb(level + 1, i - 1), (k, level, i)

    def test_is_a_frozen_value_that_does_not_hash(self):
        # values is a dict, so the table compares but has no hash
        assert_frozen_record(lambda: solve_alpha(3, 4), "values", hashable=False)
        assert solve_alpha(3, 4) != solve_beta(3, 4)

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            solve_alpha(5, 2)


class TestSemiclosed:
    def test_k3_six_vertex(self):
        assert ipoly_semiclosed(6, 3, False) == Poly((1, 6, 15, 13, 3))

    def test_k2_closed_shape(self):
        # the k=2 semi-closed form collapses to (1+x)^(m+1) + (1+x)^m - x - 1
        for m in range(1, 8):
            expected = one_plus_x_pow(m + 1) + one_plus_x_pow(m) - Poly((1, 1))
            assert ipoly_semiclosed(2 * m, 2, False) == expected

    def test_k5_matches_recurrence(self):
        assert ipoly_semiclosed(12, 5, False) == ipoly_antiregular_recurrence(12, 5, False)
        assert ipoly_semiclosed(11, 5, True) == ipoly_antiregular_recurrence(11, 5, True)

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            ipoly_semiclosed(1, 5, False)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_agrees_with_recurrence_wherever_defined(self, k):
        lowest = {}
        for n in range(1, 121):
            for connected in [False] if n < k else [False, True]:
                try:
                    p = ipoly_semiclosed(n, k, connected)
                except ValueError:
                    continue
                lowest.setdefault(connected, n)
                assert p == ipoly_antiregular_recurrence(n, k, connected), (k, n, connected)
        # the semi-closed forms kick in no later than k+1 vertices
        assert lowest and all(v <= k + 1 for v in lowest.values())


class TestFourWayAgreement:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_all_methods_agree(self, k):
        for n in range(1, 17):
            for connected in [False] if n < k else [False, True]:
                ref = ipoly_antiregular_recurrence(n, k, connected)
                b = antiregular_string(n, k, connected)
                h = build_hypergraph(b)
                assert ipoly_bruteforce(h) == ref, (k, n, connected, "brute")
                assert ipoly_trinks(h) == ref, (k, n, connected, "trinks")
                # the recurrence also reads the string: the hand-made tuples too
                assert ipoly_trinks(reference_twin(b)) == ref, (k, n, connected, "twin")
                try:
                    semi = ipoly_semiclosed(n, k, connected)
                except ValueError:
                    pass
                else:
                    assert semi == ref, (k, n, connected, "semiclosed")
                if k == 3:
                    assert ipoly_k3_closed(n, connected) == ref, (n, connected, "closed")


antiregular_strings = st.builds(
    lambda n, k, connected: antiregular_string(n, k, connected and n >= k),
    st.integers(1, 12),
    st.integers(2, 5),
    st.booleans(),
)


class TestRouteTable:
    @given(uniform_hypergraphs())
    @settings(max_examples=100, deadline=None)
    def test_a_hypergraph_alone_gets_the_generic_routes(self, h):
        polys, refusals = ipoly_all(h)
        assert list(polys) == ["brute", "trinks"] and refusals == {}
        assert polys["brute"] == polys["trinks"]

    @given(st.one_of(building_strings(), antiregular_strings))
    @settings(max_examples=200, deadline=None)
    def test_a_string_gets_every_route_that_applies(self, b):
        expected = ["brute", "trinks"]
        if b.is_antiregular():
            # the semi-closed form starts at k-1 vertices (disconnected; connected needs k)
            expected += ["recurrence"] + ["closed"] * (b.k == 3) + ["semiclosed"] * (b.n >= b.k - 1)
        polys, refusals = ipoly_all(build_hypergraph(b), b)
        assert list(polys) == expected and refusals == {}
        assert len({p.coeffs for p in polys.values()}) == 1
        assert polys["brute"] == ipoly_bruteforce(reference_twin(b))
        assert all(ipoly_route(name, build_hypergraph(b), b) == p for name, p in polys.items())

    def test_a_refused_route_is_listed_apart(self):
        b = antiregular_string(25, 3, True)
        polys, refusals = ipoly_all(build_hypergraph(b), b)
        assert list(polys) == [name for name in ROUTES if name != "brute"]
        assert list(refusals) == ["brute"] and isinstance(refusals["brute"], GuardExceeded)
        assert len({p.coeffs for p in polys.values()}) == 1
        assert polys["trinks"] == ipoly_trinks(reference_twin(b))

    def test_route_errors(self):
        h = build_hypergraph(BuildingString("00011", 4))
        with pytest.raises(ValueError, match="method closed needs an antiregular"):
            ipoly_route("closed", h)
        with pytest.raises(ValueError, match="closed form only exists for k=3"):
            ipoly_route("closed", h, BuildingString("00010", 4))
        with pytest.raises(ValueError, match="no route named 'foo'"):
            ipoly_route("foo", h)


class TestCoeffFormulas:
    def test_k3_values(self):
        assert coeff_formulas(3, 3) == (13, 3)
        assert coeff_formulas(3, 1) == (0, 0)

    def test_k4_value(self):
        a_k, a_k1 = coeff_formulas(4, 4)
        assert a_k == 46

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_matches_recurrence_coefficients(self, k):
        for n in range(0, 11):
            p = ipoly_antiregular_recurrence(2 * n, k, False) if n else Poly((1,))
            assert coeff_formulas(k, n) == (p.coeff(k), p.coeff(k + 1)), (k, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            coeff_formulas(1, 3)


class TestLogConcavity:
    def test_violation_position(self):
        report = is_log_concave(Poly((1, 1, 3, 1)))
        assert not report.holds and report.first_violation == 1

    def test_is_a_frozen_value(self):
        assert_frozen_record(lambda: is_log_concave(Poly((1, 1, 3, 1))), "first_violation")

    def test_binomials_are_log_concave(self):
        for m in range(12):
            assert is_log_concave(one_plus_x_pow(m)).holds

    def test_short_polynomials_trivially_hold(self):
        assert is_log_concave(ZERO).holds
        assert is_log_concave(Poly((5,))).holds
        assert is_log_concave(Poly((1, 7))).holds

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_antiregular_polynomials_log_concave(self, k):
        for n in range(1, 25):
            for connected in [False] if n < k else [False, True]:
                p = ipoly_antiregular_recurrence(n, k, connected)
                assert is_log_concave(p).holds, (k, n, connected)


class TestStructuralLaws:
    @given(uniform_hypergraphs(max_n=6), uniform_hypergraphs(max_n=6))
    @settings(max_examples=40)
    def test_multiplicative_over_disjoint_union(self, h1, h2):
        u = disjoint_union(h1, h2)
        assert ipoly_bruteforce(u) == ipoly_bruteforce(h1) * ipoly_bruteforce(h2)

    @given(building_strings(max_n=10))
    @settings(max_examples=60)
    def test_low_coefficients_are_binomial(self, b):
        h = build_hypergraph(b)
        p = ipoly_bruteforce(h)
        for i in range(b.k):
            assert p.coeff(i) == comb(h.n, i)
        assert p.coeff(b.k) == comb(h.n, b.k) - len(reference_edges(b))
