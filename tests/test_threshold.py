import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, compress, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiregular import (
    BuildingString,
    Hypergraph,
    Labeling,
    FeasibilityVerdict,
    IntervalDecomposition,
    MonotonicityVerdict,
    T2Verdict,
    T3Verdict,
    algorithm1_labels,
    build_hypergraph,
    check_label_monotonicity,
    constructable_strings,
    degree_sequence,
    disjoint_union,
    edgeless,
    intervals,
    t2_feasibility,
    threshold,
    verify_t2,
    verify_t3,
)
from conftest import assert_frozen_record, building_strings, uniform_hypergraphs


def scan_t2(h, labeling):
    """Reference: test every k-subset in turn; the first offending one or None."""
    c, tau = labeling.c, labeling.tau
    for sub in combinations(h.vertices, h.k):
        if (sum(c[v - 1] for v in sub) > tau) != (sub in h.edges):
            return sub
    return None


def extreme_t2(h, labeling):
    """Reference: the lightest edge at or below tau, else the heaviest non-edge above it.

    Among equal sums the first in combinations order; None when the labeling holds.
    """
    c, tau = labeling.c, labeling.tau
    light = heavy = None
    for sub in combinations(h.vertices, h.k):
        s = sum(c[v - 1] for v in sub)
        if sub in h.edges and s <= tau and (light is None or s < light[0]):
            light = (s, sub)
        if sub not in h.edges and s > tau and (heavy is None or s > heavy[0]):
            heavy = (s, sub)
    return (light or heavy or (None, None))[1]


def replaceable(h, x, y):
    """True when every edge through x avoiding y stays an edge under x -> y."""
    for e in h.edges:
        if x in e and y not in e:
            swapped = tuple(sorted([v for v in e if v != x] + [y]))
            if swapped not in h.edges:
                return False
    return True


def scan_t3(h):
    """Reference: test every vertex pair both ways; the first incomparable one or None."""
    for x, y in combinations(h.vertices, 2):
        if not (replaceable(h, x, y) or replaceable(h, y, x)):
            return (x, y)
    return None


def balances(h, certificate):
    """Reference: do the weighted edges and the weighted non-edges balance?

    The weights are positive on distinct sorted k-subsets; both sides meet
    every vertex equally often and have equal total weight, and some edge
    is weighted.
    """
    subs = [sub for sub, _ in certificate]
    assert subs == sorted(set(subs)) and all(w > 0 for _, w in certificate)
    assert set(subs) <= set(combinations(h.vertices, h.k))
    side = {True: Counter(), False: Counter()}
    for sub, w in certificate:
        side[sub in h.edges].update(dict.fromkeys(sub, w))
        side[sub in h.edges]["total"] += w
    return side[True]["total"] > 0 and side[True] == side[False]


def sum_threshold(c, tau, k):
    """The k-uniform hypergraph whose edges are the k-subsets summing above tau."""
    n = len(c)
    subs = combinations(range(1, n + 1), k)
    return Hypergraph(n, frozenset(s for s in subs if sum(c[v - 1] for v in s) > tau), k)


def paper_algorithm1(b):
    """Reference: Algorithm 1 with the paper's vertex bookkeeping.

    Keeps the isolated and dominating vertices in index lists; a 1-bit
    completes its k-1 smallest-labelled isolated vertices, a 0-bit the last
    k-1 dominating vertices padded with leading isolated ones.  Needs at
    least one dominating vertex.
    """
    k = b.k
    bits = b.bits
    first = bits.find("1")
    if first == -1:
        raise ValueError("labeling needs at least one dominating vertex")
    s = first  # leading zeros; the string invariant gives s >= k-1
    c = [2] * s + [3]
    tau = 2 * k
    dominating = [s + 1]
    isolated = list(range(1, s + 1))
    for pos in range(s + 2, len(bits) + 1):
        if bits[pos - 1] == "1":
            # lightest edge through the newcomer: its k-1 smallest-labelled
            # isolated predecessors (ties by index; any choice shares the sum)
            chosen = sorted(isolated, key=lambda v: (c[v - 1], v))[: k - 1]
            c.append(tau + 1 - sum(c[v - 1] for v in chosen))
            dominating.append(pos)
        else:
            # heaviest edge through the newcomer uses the last k-1 dominating
            # vertices, padded with leading isolated ones when too few exist
            base = dominating[-(k - 1) :]
            if len(base) < k - 1:
                base = base + list(range(1, k - 1 - len(base) + 1))
            heaviest = sum(c[v - 1] for v in base)
            c = [2 * v for v in c]
            c.append(2 * tau + 1 - 2 * heaviest)
            tau = 2 * tau + 1
            isolated.append(pos)
    return Labeling(tuple(c), tau)


def shifted(lab, at, by, tau_by):
    """lab with label `at` (0-based, or None for none) moved by `by`, tau by `tau_by`."""
    c = list(lab.c)
    if at is not None:
        c[at] += by
    return Labeling(tuple(c), lab.tau + tau_by)


@st.composite
def built_with_near_labels(draw):
    """A built hypergraph and its Algorithm-1 labels, one label or tau nudged."""
    b = draw(building_strings(max_n=10))
    at = draw(st.none() | st.integers(0, b.n - 1))
    by = draw(st.sampled_from([-2, -1, 1, 2]))
    tau_by = draw(st.sampled_from([-1, 0, 1]))
    return build_hypergraph(b), shifted(algorithm1_labels(b), at, by, tau_by)


@st.composite
def uniform_with_labels(draw):
    h = draw(uniform_hypergraphs(max_k=5, max_n=8))
    c = draw(st.lists(st.integers(-4, 6), min_size=h.n, max_size=h.n))
    return h, Labeling(tuple(c), draw(st.integers(-3, 12)))


@st.composite
def labelled_thresholds(draw):
    """A hypergraph cut out by random integer labels at some k-subset's sum."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 10))
    c = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
    at = draw(st.sampled_from(list(combinations(range(n), k))))
    return sum_threshold(c, sum(c[i] for i in at), k)


H1 = Hypergraph(5, frozenset([(1, 4, 5), (2, 3, 5), (2, 4, 5), (3, 4, 5)]), 3)
H2 = Hypergraph(5, frozenset([(1, 2, 3), (1, 3, 4), (2, 3, 5), (3, 4, 5)]), 3)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: Labeling((2, 2, 7), 6), "tau"),
        (lambda: T2Verdict(False, (1, 2, 3)), "witness"),
        (lambda: T3Verdict(True), "holds"),
        (lambda: IntervalDecomposition(((1, 2), (4, 4)), ((3, 3),)), "one_intervals"),
        (lambda: MonotonicityVerdict(False, "one-within", "detail"), "detail"),
        (lambda: FeasibilityVerdict(True, Labeling((1, 1, 1), 2)), "labeling"),
        (lambda: FeasibilityVerdict(False, certificate=(((1, 2), 1), ((1, 3), 1))), "certificate"),
    ],
)
def test_results_are_frozen_values(make, field):
    assert_frozen_record(make, field)


class TestAlgorithm1:
    def test_base_case(self):
        lab = algorithm1_labels(BuildingString("001", 3))
        assert lab.c == (2, 2, 3) and lab.tau == 6

    def test_nine_vertex_prefix(self):
        lab = algorithm1_labels(BuildingString("001010001", 3))
        assert lab.c == (32, 32, 48, 24, 56, 4, 6, 7, 102)
        assert lab.tau == 111

    def test_thirteen_vertex_irregular(self):
        lab = algorithm1_labels(BuildingString("0010100011101", 3))
        assert lab.c == (64, 64, 96, 48, 112, 8, 12, 14, 204, 204, 204, -185, 401)
        assert lab.tau == 223

    def test_thirteen_vertex_antiregular(self):
        lab = algorithm1_labels(BuildingString("0010101010101", 3))
        assert lab.c == (64, 64, 96, 48, 112, 8, 168, -60, 276, -222, 506, -559, 1005)
        assert lab.tau == 223

    def test_edgeless_gets_base_labels(self):
        for n, k in [(1, 2), (3, 3), (4, 3), (7, 5)]:
            b = BuildingString("0" * n, k)
            lab = algorithm1_labels(b)
            assert lab == Labeling((2,) * n, 2 * k)
            assert verify_t2(build_hypergraph(b), lab).holds

    def test_matches_paper_bookkeeping_exhaustively(self):
        for k in range(2, 6):
            for n in range(k, 13):
                for bits in constructable_strings(k, n):
                    b = BuildingString(bits, k)
                    assert algorithm1_labels(b) == paper_algorithm1(b), bits

    @given(building_strings(max_n=60))
    @settings(max_examples=150)
    def test_matches_paper_bookkeeping(self, b):
        assert algorithm1_labels(b) == paper_algorithm1(b)

    @given(building_strings(max_n=12))
    @settings(max_examples=80)
    def test_threshold_evolution(self, b):
        # tau = 2^z (2k+1) - 1 where z counts isolated steps after the first
        # dominating vertex
        lab = algorithm1_labels(b)
        z = b.bits[b.bits.find("1") :].count("0")
        assert lab.tau == 2**z * (2 * b.k + 1) - 1

    @given(building_strings(max_n=12))
    @settings(max_examples=80)
    def test_label_growth_bound(self, b):
        lab = algorithm1_labels(b)
        bound = 2 ** b.n * (2 * b.k + 1)
        assert all(abs(v) <= bound for v in lab.c)

    def test_exact_at_64_vertices(self):
        b = BuildingString("001" + "01" * 30 + "0", 3)
        assert b.n == 64
        lab = algorithm1_labels(b)
        z = b.bits[2:].count("0")
        assert lab.tau == 2**z * 7 - 1  # huge, and exact
        assert max(abs(v) for v in lab.c) <= 2**64 * 7

    def test_json_roundtrip(self):
        lab = algorithm1_labels(BuildingString("0010100011101", 3))
        again = Labeling.from_json(lab.to_json())
        assert again == lab
        assert lab.to_json()["tau"] == "223"

    def test_json_accepts_ints_and_decimal_strings(self):
        assert Labeling.from_json({"c": [3, "-4", "007"], "tau": "-0"}) == Labeling((3, -4, 7), 0)

    @pytest.mark.parametrize(
        "obj",
        [
            {"c": [0.9, 0.9, 0.9], "tau": 0},
            {"c": "999", "tau": "0"},
            {"c": [True, 1], "tau": 0},
            {"c": [1, 2], "tau": 1.0},
            {"c": ["1.5"], "tau": "0"},
            {"c": [" 1"], "tau": "0"},
            {"c": ["1_000"], "tau": "0"},
            {"c": ["+1"], "tau": "0"},
            {"c": [None], "tau": "0"},
            {"c": [1]},
            [1, 2],
        ],
    )
    def test_json_refuses_what_it_would_truncate(self, obj):
        with pytest.raises(ValueError):
            Labeling.from_json(obj)


class TestVerifyT2:
    def test_auto_labels_hold(self):
        b = BuildingString("00101", 3)
        assert verify_t2(build_hypergraph(b), algorithm1_labels(b)).holds

    def test_h1_with_interval_labels(self):
        assert verify_t2(H1, Labeling((-2, -1, 0, 1, 2), 0)).holds

    def test_all_zero_labels_fail_on_an_edge(self):
        h = Hypergraph(3, frozenset([(1, 2, 3)]), 3)
        verdict = verify_t2(h, Labeling((0, 0, 0), 0))
        assert not verdict.holds and verdict.witness == (1, 2, 3)

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            verify_t2(H1, Labeling((1, 2), 0))

    def test_needs_uniformity(self):
        with pytest.raises(ValueError):
            verify_t2(Hypergraph(3, frozenset(), None), Labeling((0, 0, 0), 0))

    def test_decides_past_the_old_guard(self):
        assert verify_t2(edgeless(25, 3), Labeling((0,) * 25, 3)).holds
        b = BuildingString("0001" + "011" * 12, 4)
        assert b.n == 40 and verify_t2(build_hypergraph(b), algorithm1_labels(b)).holds

    def test_fraction_labels_compare_by_value(self):
        # int.__lt__(Fraction) is NotImplemented, which is truthy
        halves = Labeling((Fraction(1, 2),) * 3, 2)
        assert verify_t2(edgeless(3, 3), halves).holds
        tri = Hypergraph(3, frozenset([(1, 2, 3)]), 3)
        assert verify_t2(tri, halves) == T2Verdict(False, (1, 2, 3))
        assert verify_t2(tri, Labeling((Fraction(1, 2),) * 3, 1)).holds

    @given(built_with_near_labels())
    @settings(max_examples=300)
    def test_matches_scan_on_nudged_algorithm1_labels(self, case):
        h, lab = case
        verdict = verify_t2(h, lab)
        assert verdict.holds == (scan_t2(h, lab) is None)
        assert verdict.witness == extreme_t2(h, lab)

    @given(uniform_with_labels())
    @settings(max_examples=300)
    def test_matches_scan_on_random_labels(self, case):
        h, lab = case
        verdict = verify_t2(h, lab)
        assert verdict.holds == (scan_t2(h, lab) is None)
        assert verdict.witness == extreme_t2(h, lab)

    def test_nudges_reach_both_kinds_of_witness(self):
        # every single-label nudge of every constructable string, k 2-4, n <= 7
        kinds = set()
        for k in range(2, 5):
            for n in range(k, 8):
                for bits in constructable_strings(k, n):
                    b = BuildingString(bits, k)
                    h, lab = build_hypergraph(b), algorithm1_labels(b)
                    for at in range(n):
                        for by in (-2, -1, 1, 2):
                            nudged = shifted(lab, at, by, 0)
                            w = verify_t2(h, nudged).witness
                            assert (w is None) == (scan_t2(h, nudged) is None)
                            assert w == extreme_t2(h, nudged)
                            if w is not None:
                                kinds.add(w in h.edges)
        assert kinds == {True, False}  # an edge at or below tau, a non-edge above

    @given(uniform_with_labels())
    @settings(max_examples=200, deadline=None)
    def test_scan_and_walk_agree(self, case):
        h, lab = case
        verdicts = []
        for ratio in (0, 10**9):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(threshold, "SCAN_RATIO", ratio)
                verdicts.append((verify_t2(h, lab), t2_feasibility(h)))
        assert verdicts[0] == verdicts[1]

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("c", [(1,) * 5, (3, -2, 5, 0, 1)])
    def test_scan_and_walk_on_every_hypergraph_on_five_vertices(self, monkeypatch, k, c):
        subs = list(combinations(range(1, 6), k))
        for bits in product((0, 1), repeat=10):
            h = Hypergraph(5, frozenset(compress(subs, bits)), k)
            for tau in (k - 1, k, k + 1):
                lab = Labeling(c, tau)
                for ratio in (0, 10**9):
                    monkeypatch.setattr(threshold, "SCAN_RATIO", ratio)
                    verdict = verify_t2(h, lab)
                    assert verdict.holds == (scan_t2(h, lab) is None), (bits, tau, ratio)
                    assert verdict.witness == extreme_t2(h, lab), (bits, tau, ratio)


    @given(building_strings(max_n=11), st.data())
    @settings(max_examples=300)
    def test_probe_reads_built_and_tuple_twins_alike(self, b, data):
        h = build_hypergraph(b)
        c = data.draw(st.lists(st.integers(-20, 20), min_size=b.n, max_size=b.n))
        built, twin = threshold._probe(h)(c), threshold._probe(Hypergraph(b.n, h.edges, b.k))(c)
        assert built[:2] == twin[:2]
        for edge, s in ((True, built[0]), (False, built[1])):
            if s is not None:
                assert built[2](edge) == twin[2](edge)

    def test_probe_past_a_byte_of_vertices(self):
        b = BuildingString(("0" + "011" * 100)[:300], 2)
        h, lab = build_hypergraph(b), algorithm1_labels(b)
        twin = Hypergraph(300, h.edges, 2)
        assert threshold._probe(h)(lab.c)[:2] == threshold._probe(twin)(lab.c)[:2]
        assert verify_t2(h, lab).holds
        assert not verify_t2(h, Labeling(lab.c, lab.tau + 1)).holds


class TestVerifyT3:
    def test_h1_holds(self):
        assert verify_t3(H1).holds

    def test_triangle_chain_fails(self):
        # degrees 2, 1, 2, 1, 2, 1: the chain opens 2, 4, and the link {1, 3}
        # of vertex 2 is no link of vertex 4
        h = Hypergraph(6, frozenset([(1, 2, 3), (3, 4, 5), (1, 5, 6)]), 3)
        assert verify_t3(h) == T3Verdict(False, (2, 4))

    def test_decides_past_the_old_guard(self):
        assert verify_t3(edgeless(21, 3)).holds
        b = BuildingString("0001" + "011" * 12, 4)
        assert b.n == 40 and verify_t3(build_hypergraph(b)).holds

    def test_needs_uniformity(self):
        with pytest.raises(ValueError):
            verify_t3(Hypergraph(3, frozenset([(1, 2), (1, 2, 3)]), None))

    def test_isolated_vertices_take_no_memory(self):
        h = Hypergraph(10**7, frozenset([(1, 2, 3)]), 3)
        tracemalloc.start()
        try:
            assert verify_t3(h).holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(uniform_hypergraphs(max_k=4, max_n=8), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_isolated_vertices_change_nothing(self, h, m):
        assert verify_t3(disjoint_union(h, edgeless(m, h.k))) == verify_t3(h)

    @given(uniform_hypergraphs(max_k=4, max_n=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_scan(self, h):
        verdict = verify_t3(h)
        assert verdict.holds == (scan_t3(h) is None)
        if not verdict.holds:
            x, y = verdict.witness
            assert x < y and not (replaceable(h, x, y) or replaceable(h, y, x))
            deg = degree_sequence(h)
            chain = sorted(h.vertices, key=lambda v: (deg[v - 1], v))
            assert abs(chain.index(x) - chain.index(y)) == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_scan_on_every_hypergraph_on_five_vertices(self, k):
        subs = list(combinations(range(1, 6), k))
        assert len(subs) == 10
        for bits in product((0, 1), repeat=10):
            h = Hypergraph(5, frozenset(compress(subs, bits)), k)
            assert verify_t3(h).holds == (scan_t3(h) is None), bits

    @given(building_strings(max_n=9))
    @settings(max_examples=40)
    def test_constructable_implies_comparable(self, b):
        assert verify_t3(build_hypergraph(b)).holds


class TestIntervals:
    def test_example(self):
        dec = intervals(BuildingString("00110001011", 3))
        assert dec.zero_intervals == ((1, 2), (5, 7), (9, 9))
        assert dec.one_intervals == ((3, 4), (8, 8), (10, 11))

    def test_single_run(self):
        dec = intervals(BuildingString("0000", 3))
        assert dec.zero_intervals == ((1, 4),) and dec.one_intervals == ()

    @given(building_strings(max_n=12))
    @settings(max_examples=60)
    def test_runs_partition_positions(self, b):
        dec = intervals(b)
        runs = sorted(
            [(lo, hi, "0") for lo, hi in dec.zero_intervals]
            + [(lo, hi, "1") for lo, hi in dec.one_intervals]
        )
        assert "".join(bit * (hi - lo + 1) for lo, hi, bit in runs) == b.bits
        # maximal runs: neighbours differ
        assert all(x[2] != y[2] for x, y in zip(runs, runs[1:]))


def pairwise_monotonicity(b, labeling):
    """Reference: check_label_monotonicity with the across clauses over all pairs."""
    c = labeling.c
    dec = intervals(b)
    ones = dec.one_intervals
    lead, *later_zeros = dec.zero_intervals

    def labels(iv):
        return list(c[iv[0] - 1 : iv[1]])

    if any(not max(labels(a)) < min(labels(b2)) for a, b2 in combinations(ones, 2)):
        return False, "one-across"
    if any(len(set(labels(iv))) > 1 for iv in ones):
        return False, "one-within"
    if len(set(labels(lead))) > 1:
        return False, "zero-leading"
    if any(not min(labels(a)) > max(labels(b2)) for a, b2 in combinations(later_zeros, 2)):
        return False, "zero-across"
    for iv in later_zeros:
        vals = labels(iv)
        if any(x >= y for x, y in zip(vals, vals[1:])):
            return False, "zero-within"
    dom = [c[i] for i, ch in enumerate(b.bits) if ch == "1"]
    iso = [c[i] for i, ch in enumerate(b.bits) if ch == "0"]
    if dom and iso and not min(dom) > max(iso):
        return False, "separation"
    return True, None


def interval_monotonicity(b, labeling):
    """Reference: check_label_monotonicity as it slices each interval per clause.

    The verdict record it returns, detail text included, is the one the
    library's single pass over the runs must give.
    """
    c = labeling.c
    dec = intervals(b)
    ones = dec.one_intervals
    lead, *later_zeros = dec.zero_intervals

    def labels(iv):
        return list(c[iv[0] - 1 : iv[1]])

    for a, b2 in zip(ones, ones[1:]):
        if not max(labels(a)) < min(labels(b2)):
            return MonotonicityVerdict(
                False, "one-across", f"1-intervals {a} and {b2} fail to increase"
            )
    for iv in ones:
        if len(set(labels(iv))) > 1:
            return MonotonicityVerdict(False, "one-within", f"1-interval {iv} is not constant")
    if len(set(labels(lead))) > 1:
        return MonotonicityVerdict(
            False, "zero-leading", f"leading 0-interval {lead} is not constant"
        )
    for a, b2 in zip(later_zeros, later_zeros[1:]):
        if not min(labels(a)) > max(labels(b2)):
            return MonotonicityVerdict(
                False, "zero-across", f"0-intervals {a} and {b2} fail to decrease"
            )
    for iv in later_zeros:
        vals = labels(iv)
        if any(x >= y for x, y in zip(vals, vals[1:])):
            return MonotonicityVerdict(
                False, "zero-within", f"0-interval {iv} is not strictly increasing"
            )
    dom = [c[i] for i, ch in enumerate(b.bits) if ch == "1"]
    iso = [c[i] for i, ch in enumerate(b.bits) if ch == "0"]
    if dom and iso and not min(dom) > max(iso):
        return MonotonicityVerdict(
            False, "separation", "some dominating label fails to exceed an isolated one"
        )
    return MonotonicityVerdict(True)


@st.composite
def nudged_labelings(draw):
    """A building string and its Algorithm 1 labels, with a few swaps between
    two 1-bits or two 0-bits past the first 1, each shifted by at most one."""
    b = draw(building_strings(max_n=11))
    lab = algorithm1_labels(b)
    c = list(lab.c)
    first_one = b.bits.index("1")
    for _ in range(draw(st.integers(1, 3))):
        bit = draw(st.sampled_from("01"))
        same = [p for p in range(first_one, b.n) if b.bits[p] == bit] or [first_one]
        i, j = draw(st.sampled_from(same)), draw(st.sampled_from(same))
        c[i], c[j] = c[j], c[i] + draw(st.integers(-1, 1))
    return b, Labeling(tuple(c), lab.tau)


class TestMonotonicity:
    @pytest.mark.parametrize("count", [3, 8])
    def test_wrong_label_count_raises(self, count):
        b = BuildingString("0010110", 3)
        with pytest.raises(ValueError, match=f"labeling has {count} labels for 7 vertices"):
            check_label_monotonicity(b, Labeling(tuple(range(count)), 5))

    @given(nudged_labelings())
    @settings(max_examples=300)
    def test_matches_pairwise_reference(self, case):
        b, lab = case
        verdict = check_label_monotonicity(b, lab)
        assert (verdict.holds, verdict.violated_clause) == pairwise_monotonicity(b, lab)
        if verdict.violated_clause in ("one-across", "zero-across"):
            runs = intervals(b).one_intervals
            if verdict.violated_clause == "zero-across":
                runs = intervals(b).zero_intervals[1:]
            named = [iv for iv in runs if str(iv) in verdict.detail]
            assert len(named) == 2 and runs.index(named[1]) == runs.index(named[0]) + 1

    @given(nudged_labelings())
    @settings(max_examples=400)
    def test_one_pass_equals_the_per_clause_slicing(self, case):
        b, lab = case
        verdict = check_label_monotonicity(b, lab)
        assert verdict == interval_monotonicity(b, lab)
        assert (verdict.holds, verdict.violated_clause) == pairwise_monotonicity(b, lab)

    def test_across_detail_names_an_adjacent_pair(self):
        # 1-bits 3, 5, 7 labelled 2, 5, 1: the pairwise scan named (3, 3) and (7, 7)
        b = BuildingString("0010101", 3)
        verdict = check_label_monotonicity(b, Labeling((1, 1, 2, 1, 5, 1, 1), 20))
        assert verdict.violated_clause == "one-across"
        assert verdict.detail == "1-intervals (5, 5) and (7, 7) fail to increase"

    def test_produced_labels_satisfy_all_clauses(self):
        for bits in ["00101", "0010100011101", "0010101010101", "0011011"]:
            b = BuildingString(bits, 3)
            assert check_label_monotonicity(b, algorithm1_labels(b)).holds

    def test_one_across_violation(self):
        b = BuildingString("00101", 3)
        bad = Labeling((2, 2, 100, 3, 7), 6)
        verdict = check_label_monotonicity(b, bad)
        assert not verdict.holds and verdict.violated_clause == "one-across"

    def test_one_within_violation(self):
        b = BuildingString("00110", 3)
        lab = algorithm1_labels(b)
        c = list(lab.c)
        c[3] += 1  # split the labels inside the 1-interval [3,4]
        verdict = check_label_monotonicity(b, Labeling(tuple(c), lab.tau))
        assert not verdict.holds and verdict.violated_clause in ("one-across", "one-within")

    def test_leading_zero_violation(self):
        b = BuildingString("00101", 3)
        bad = Labeling((2, 5, 6, 3, 7), 6)
        verdict = check_label_monotonicity(b, bad)
        assert not verdict.holds and verdict.violated_clause == "zero-leading"

    def test_zero_across_violation(self):
        b = BuildingString("0010010", 3)
        lab = algorithm1_labels(b)
        c = list(lab.c)
        c[6] = c[3] + 1  # later 0-interval must sit strictly below the earlier
        verdict = check_label_monotonicity(b, Labeling(tuple(c), lab.tau))
        assert not verdict.holds and verdict.violated_clause == "zero-across"

    def test_separation_violation(self):
        b = BuildingString("001", 3)
        bad = Labeling((2, 2, 1), 6)
        verdict = check_label_monotonicity(b, bad)
        assert not verdict.holds and verdict.violated_clause == "separation"

    @given(building_strings(max_n=11))
    @settings(max_examples=80)
    def test_holds_for_produced_labels(self, b):
        assert check_label_monotonicity(b, algorithm1_labels(b)).holds


class TestFeasibility:
    def test_h1_feasible_with_verifying_witness(self):
        verdict = t2_feasibility(H1)
        assert verdict.feasible
        assert verify_t2(H1, verdict.labeling).holds

    def test_h2_infeasible(self):
        # {1,3,4} + {2,3,5} are edges, {1,3,5} + {2,3,4} are not: same vertices
        verdict = t2_feasibility(H2)
        assert not verdict.feasible and verdict.labeling is None
        assert verdict.certificate == (((1, 3, 4), 1), ((1, 3, 5), 1), ((2, 3, 4), 1), ((2, 3, 5), 1))
        assert balances(H2, verdict.certificate)

    def test_single_edge_feasible(self):
        h = Hypergraph(3, frozenset([(1, 2, 3)]), 3)
        verdict = t2_feasibility(h)
        assert verdict.feasible
        assert verify_t2(h, verdict.labeling).holds

    def test_edgeless_feasible(self):
        verdict = t2_feasibility(edgeless(4, 3))
        assert verdict.feasible
        assert verify_t2(edgeless(4, 3), verdict.labeling).holds

    def test_decides_past_the_old_guard(self):
        verdict = t2_feasibility(edgeless(41, 3))  # 10,660 k-subsets
        assert verdict.feasible and scan_t2(edgeless(41, 3), verdict.labeling) is None
        assert t2_feasibility(edgeless(40, 5)).feasible

    @given(uniform_hypergraphs(max_k=4, max_n=7), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_isolated_vertices_change_nothing(self, h, before, after):
        padded = disjoint_union(disjoint_union(edgeless(before, h.k), h), edgeless(after, h.k))
        verdict, again = t2_feasibility(h), t2_feasibility(padded)
        assert again.feasible == verdict.feasible
        if verdict.feasible:
            assert scan_t2(padded, again.labeling) is None
            assert again.labeling.c[before : before + h.n] == verdict.labeling.c
            assert again.labeling.tau == verdict.labeling.tau
        else:
            shifted = tuple((tuple(v + before for v in s), w) for s, w in verdict.certificate)
            assert again.certificate == shifted

    def test_isolated_vertices_take_no_tableau(self):
        # a tableau over the declared n would hold 10^10 entries
        h = Hypergraph(10**5, frozenset([(1, 2, 3)]), 3)
        tracemalloc.start()
        try:
            verdict = t2_feasibility(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20
        assert verdict.labeling == Labeling((-1, -1, 2) + (-5,) * (10**5 - 3), -1)

    def test_decides_without_a_row_cap(self):
        sums = sum_threshold((-2, 4, 3, -3, 0, 4), 4, 3)
        for h, feasible in ((sums, True), (H2, False)):
            verdict = t2_feasibility(h)
            assert verdict.feasible is feasible

    def test_decides_what_elimination_refused(self):
        h = sum_threshold((4, 5, 8, 0, 7, 3, 0, 2, 1, 5), 15, 4)
        assert len(h.edges) == 78
        verdict = t2_feasibility(h)
        assert verdict.feasible and scan_t2(h, verdict.labeling) is None

    @given(uniform_hypergraphs(max_k=4, max_n=8))
    @settings(max_examples=300, deadline=None)
    def test_every_verdict_carries_checked_evidence(self, h):
        verdict = t2_feasibility(h)
        if verdict.feasible:
            lab = verdict.labeling
            assert verdict.certificate is None and scan_t2(h, lab) is None
            assert gcd(*lab.c, lab.tau) in (0, 1)
        else:
            assert verdict.labeling is None and balances(h, verdict.certificate)
            assert gcd(*(w for _, w in verdict.certificate)) == 1
        if not verify_t3(h).holds:
            assert not verdict.feasible

    @given(labelled_thresholds())
    @settings(max_examples=200, deadline=None)
    def test_sum_thresholds_are_feasible(self, h):
        verdict = t2_feasibility(h)
        assert verdict.feasible and scan_t2(h, verdict.labeling) is None

    @pytest.mark.parametrize("n, count", [(4, 46), (5, 332)])
    def test_counts_labelled_threshold_graphs(self, n, count):
        # OEIS A005840: 1, 2, 8, 46, 332, 2874 labelled threshold graphs
        pairs = list(combinations(range(1, n + 1), 2))
        graphs = [
            Hypergraph(n, frozenset(compress(pairs, bits)), 2)
            for bits in product((0, 1), repeat=len(pairs))
        ]
        assert sum(t2_feasibility(g).feasible for g in graphs) == count

    def test_complete_and_edgeless_are_feasible(self):
        # the pivot rule's guard: on the complete 3-uniform hypergraph the
        # lexicographic rule takes n - 2 pivots, Bland's rule 2^(n-2) - 1
        for k in range(3, 6):
            for n in range(k, 21):
                for edges in (frozenset(combinations(range(1, n + 1), k)), frozenset()):
                    h = Hypergraph(n, edges, k)
                    verdict = t2_feasibility(h)
                    assert verdict.feasible and verify_t2(h, verdict.labeling).holds

    @given(building_strings(max_n=7))
    @settings(max_examples=25, deadline=None)
    def test_constructable_strings_are_feasible(self, b):
        h = build_hypergraph(b)
        verdict = t2_feasibility(h)
        assert verdict.feasible
        assert verify_t2(h, verdict.labeling).holds
