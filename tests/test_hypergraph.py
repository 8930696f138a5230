import pickle
import time
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiregular import (
    BuildingString,
    Hypergraph,
    Labeling,
    algorithm1_labels,
    antiregular_string,
    build_hypergraph,
    complement_uniform,
    degree_sequence,
    disjoint_union,
    edgeless,
    hypergraph_from_json,
    hypergraph_to_json,
    recognize_zero_one_constructable,
    verify_t2,
    zykov_k_sum,
)
from antiregular import hypergraph, threshold
from conftest import assert_frozen_record, building_strings, reference_edges, reference_twin

# the five-vertex k=3 connected instance and its edge set, checked by hand
FIVE_EDGES = frozenset(
    [(1, 2, 3), (1, 2, 5), (1, 3, 5), (1, 4, 5), (2, 3, 5), (2, 4, 5), (3, 4, 5)]
)


class TestBuildingString:
    def test_validation(self):
        with pytest.raises(ValueError):
            BuildingString("00102", 3)
        with pytest.raises(ValueError):
            BuildingString("", 3)
        with pytest.raises(ValueError):
            BuildingString("010", 3)  # dominating vertex too early
        with pytest.raises(ValueError):
            BuildingString("001", 1)
        assert BuildingString("001", 3).n == 3
        assert BuildingString("01", 2).dominating_positions == (2,)

    def test_is_a_frozen_value(self):
        assert_frozen_record(lambda: BuildingString("00101", 3), "bits")
        assert BuildingString("00101", 3) != BuildingString("00101", 2)
        assert BuildingString("00101", 3) != ("00101", 3)
        assert repr(BuildingString("00101", 3)) == "BuildingString(bits='00101', k=3)"
        assert str(BuildingString("00101", 3)) == "00101"

    def test_antiregular_forms(self):
        assert antiregular_string(5, 3, True).bits == "00101"
        assert antiregular_string(4, 3, True).bits == "0001"
        assert antiregular_string(4, 3, False).bits == "0010"
        assert antiregular_string(2, 3, False).bits == "00"
        assert antiregular_string(6, 3, False).bits == "001010"
        assert antiregular_string(3, 2, True).bits == "001"
        assert antiregular_string(4, 2, True).bits == "0101"

    def test_antiregular_rejects_small_connected(self):
        with pytest.raises(ValueError):
            antiregular_string(2, 3, True)

    def test_is_antiregular(self):
        assert BuildingString("00101", 3).is_antiregular()
        assert BuildingString("0010", 3).is_antiregular()
        assert not BuildingString("00110", 3).is_antiregular()

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_alternation_shape(self, k):
        # connected strings: leading zeros then 1(01)*; zeros k-1 or k
        for n in range(k, 15):
            bits = antiregular_string(n, k, True).bits
            z = bits.find("1")
            assert z in (k - 1, k)
            assert bits[z:] == "1" + "01" * ((n - z - 1) // 2)


class TestBuild:
    def test_five_vertex_example(self):
        h = build_hypergraph(BuildingString("00101", 3))
        assert h.n == 5 and h.k == 3
        assert h.edges == FIVE_EDGES

    def test_all_zeros_is_edgeless(self):
        h = build_hypergraph(BuildingString("000", 3))
        assert h.n == 3 and not h.edges and h.k == 3

    def test_one_dominating(self):
        h = build_hypergraph(BuildingString("0001", 4))
        assert h.edges == frozenset([(1, 2, 3, 4)])

    def test_edge_count_sums_over_dominating(self):
        b = BuildingString("0010100011101", 3)
        h = build_hypergraph(b)
        expected = sum(comb(p - 1, 2) for p in b.dominating_positions)
        assert len(h.edges) == expected

    def test_graph_case(self):
        h = build_hypergraph(BuildingString("0101", 2))
        assert h.edges == frozenset([(1, 2), (1, 4), (2, 4), (3, 4)])

    @given(building_strings(max_n=14))
    @settings(max_examples=150)
    def test_edges_pass_the_checked_constructor_unchanged(self, b):
        # build_hypergraph skips __init__'s checks, so the validating
        # constructor is what would notice an unsorted, repeated or
        # out-of-range edge
        h = build_hypergraph(b)
        assert Hypergraph(h.n, h.edges, h.k) == h
        assert len(h.edges) == len(reference_edges(b))


def mask(e) -> int:
    return sum(1 << (v - 1) for v in e)


def k_subsets(n: int, k: int) -> list:
    return list(combinations(range(1, n + 1), k))


class TestEdgeView:
    """A built hypergraph's edges against the frozenset the construction makes."""

    @given(building_strings(max_n=12))
    @settings(max_examples=150)
    def test_behaves_as_the_reference_frozenset(self, b):
        edges, ref = build_hypergraph(b).edges, reference_edges(b)
        assert edges == ref and ref == edges and not edges != ref and not ref != edges
        assert hash(edges) == hash(ref) and len(edges) == len(ref)
        assert sorted(edges) == sorted(ref)
        assert list(edges) == sorted(ref, key=lambda e: (e[-1], e))  # construction order
        assert eval(repr(edges)) == ref
        h_again = pickle.loads(pickle.dumps(build_hypergraph(b)))
        for again in (pickle.loads(pickle.dumps(edges)), h_again.edges):
            assert again == ref and ref == again and hash(again) == hash(ref)

    @given(building_strings(max_n=10))
    @settings(max_examples=150)
    def test_membership_answers_as_the_reference(self, b):
        edges, ref, n, k = build_hypergraph(b).edges, reference_edges(b), b.n, b.k
        probes = k_subsets(n + 1, k) + [(0,) + s for s in k_subsets(n, k - 1)]
        probes += [tuple(reversed(s)) for s in k_subsets(n, k)]  # unsorted
        probes += k_subsets(n, k - 1) + k_subsets(min(n, 8), k + 1) + [(), (n,), "ab", None, 3]
        probes += [tuple(map(float, s)) for s in ref] + [s[:-1] + (s[-1] + 0.5,) for s in ref]
        probes += [(True,) + s[1:] for s in k_subsets(n, k) if s[0] == 1]
        probes += [(1, 1) + s[2:] for s in ref]  # a repeated vertex
        probes += [set(s) for s in ref] + [frozenset(s) for s in ref]  # no raise for a set
        for x in probes:
            assert (x in edges) == (x in ref), x
        for x in [list(s) for s in ref][:5] + [[], (1, [2])]:
            with pytest.raises(TypeError):
                x in ref
            with pytest.raises(TypeError):
                x in edges

    @given(building_strings(max_n=9), st.data())
    @settings(max_examples=100)
    def test_set_operators_and_operations_agree(self, b, data):
        h, ref = build_hypergraph(b), reference_edges(b)
        other = frozenset(data.draw(st.sets(st.sampled_from(k_subsets(b.n, b.k)))))
        for x, y in ((h.edges, ref), (ref, h.edges)):
            assert x | other == ref | other and other | x == other | ref
            assert x & other == ref & other and other & x == other & ref
            assert x - other == ref - other and other - x == other - ref
            assert type(x | other) is type(x & other) is type(x - other) is frozenset
            assert x == y
        twin = reference_twin(b)
        assert complement_uniform(h).edges == complement_uniform(twin).edges
        assert complement_uniform(h) == complement_uniform(twin)
        c = BuildingString(data.draw(st.sampled_from(["001", "0011", "00101"])), 3)
        g, g_twin = build_hypergraph(c), reference_twin(c)
        assert disjoint_union(h, g) == disjoint_union(twin, g_twin)
        assert disjoint_union(g, h) == disjoint_union(g_twin, twin)

    def test_is_read_only(self):
        edges = build_hypergraph(BuildingString("00101", 3)).edges
        for name in ("_string", "_len", "extra"):
            with pytest.raises(AttributeError):
                setattr(edges, name, 0)
        assert not hasattr(edges, "add") and not hasattr(edges, "__dict__")

    def test_answers_at_scale_without_iterating(self, monkeypatch):
        # n = 400, k = 6: some 2.8 * 10^12 edges, of which none is made
        def no_edges(*_):
            raise AssertionError("the edges were enumerated")

        monkeypatch.setattr(hypergraph, "_edges_topped_by", no_edges)
        start = time.perf_counter()
        b = antiregular_string(400, 6, True)
        h = build_hypergraph(b)
        ones = [v for v, bit in enumerate(b.bits, 1) if bit == "1"]
        assert len(h.edges) == sum(comb(v - 1, 5) for v in ones) > 10**12
        assert (1, 2, 3, 4, 5, 400) in h.edges  # 400 is a 1-bit
        assert (2, 3, 5, 7, 11, 399) not in h.edges  # 399 is a 0-bit
        assert time.perf_counter() - start < 0.5


class TestEdgeMasks:
    @given(building_strings(max_n=14))
    @settings(max_examples=150)
    def test_string_path_matches_tuple_path(self, b):
        masks = build_hypergraph(b).edge_masks()
        assert masks == sorted(map(mask, reference_edges(b)))
        assert masks == reference_twin(b).edge_masks()

    @pytest.mark.parametrize("n", range(21, 31))
    @pytest.mark.parametrize("k", [3, 4])
    def test_dense_sizes_match_the_reference(self, n, k):
        # the sizes the deletion recursion gets in the benchmark, ones at 3/4
        bits = "0" * (k - 1) + "".join("0" if i % 4 == 1 else "1" for i in range(n - k + 1))
        b = BuildingString(bits, k)
        assert build_hypergraph(b).edge_masks() == sorted(map(mask, reference_edges(b)))

    def test_all_zeros_give_no_masks(self):
        for n, k in product(range(1, 7), range(2, 5)):
            assert build_hypergraph(BuildingString("0" * n, k)).edge_masks() == []

    def test_graph_case(self):
        # k = 2: the 1-bit p adds bit p-1 to each earlier singleton
        h = build_hypergraph(BuildingString("0101", 2))
        assert h.edge_masks() == [0b0011, 0b1001, 0b1010, 0b1100]
        h = build_hypergraph(BuildingString("0011", 2))
        assert h.edge_masks() == [0b0101, 0b0110, 0b1001, 0b1010, 0b1100]

    def test_built_equals_its_tuple_twin(self):
        b = BuildingString("0010100011101", 3)
        h = build_hypergraph(b)
        twin = Hypergraph(b.n, h.edges, b.k)
        assert twin._string is None and h._string == b
        assert h == twin and hash(h) == hash(twin)
        # the string stays out of repr; the frozenset's own repr follows its
        # hash table's history, so the two edge sets may print in other orders
        for g in (h, twin):
            assert repr(g) == f"Hypergraph(n={g.n}, edges={g.edges!r}, k={g.k})"
        again = pickle.loads(pickle.dumps(h))
        assert again == h and again._string == b
        assert again.edge_masks() == h.edge_masks() == twin.edge_masks()


class TestEdgeFlags:
    @given(building_strings(max_n=12))
    @settings(max_examples=150)
    def test_string_path_matches_tuple_path(self, b):
        ref = reference_edges(b)
        flags = build_hypergraph(b).edge_flags()
        assert flags == reference_twin(b).edge_flags()
        assert flags == bytes(s in ref for s in combinations(range(1, b.n + 1), b.k))

    @pytest.mark.parametrize("n", [256, 300])
    def test_past_a_byte_of_vertices_flags_come_from_the_edges(self, n):
        # tops of 1..256 fit the cached byte table; past that each subset's top is read
        b = BuildingString(("0" + "011" * n)[:n], 2)
        h = build_hypergraph(b)
        flags = h.edge_flags()
        assert flags == reference_twin(b).edge_flags()
        assert sum(flags) == len(h.edges) == sum(p - 1 for p in b.dominating_positions)

    def test_past_a_byte_of_vertices_verify_t2_agrees_with_the_twin(self):
        # verify_t2 scans the flags here: C(300, 2) is within SCAN_RATIO (k + 1)|E|
        b = BuildingString(("0" + "011" * 300)[:300], 2)
        h, twin = build_hypergraph(b), reference_twin(b)
        assert comb(b.n, 2) <= threshold.SCAN_RATIO * 3 * len(h.edges)
        good = algorithm1_labels(b)
        bad = Labeling(good.c[::-1], good.tau)
        assert verify_t2(h, good) == verify_t2(twin, good) == (True, None)
        verdict = verify_t2(h, bad)
        assert verdict == verify_t2(twin, bad) and not verdict.holds
        # the witness is a k-subset the labels put on the wrong side of tau
        over = sum(bad.c[v - 1] for v in verdict.witness) > bad.tau
        assert (verdict.witness in twin.edges) != over


class TestHypergraphType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hypergraph(3, frozenset([(1, 4)]))  # vertex out of range
        with pytest.raises(ValueError):
            Hypergraph(3, frozenset([(1, 1)]))  # repeated vertex
        with pytest.raises(ValueError):
            Hypergraph(4, frozenset([(1, 2)]), 3)  # breaks declared uniformity

    def test_edges_canonicalized(self):
        h = Hypergraph(4, frozenset([(3, 1, 2)]), 3)
        assert h.edges == frozenset([(1, 2, 3)])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Hypergraph(4, frozenset([(1, 2, 3)]), 3),
            lambda: build_hypergraph(BuildingString("00101", 3)),  # keeps its string
            lambda: Hypergraph(5, frozenset([(1, 2), (2, 3, 4)])),
        ],
    )
    def test_is_a_frozen_value(self, make):
        assert_frozen_record(make, "edges")

    def test_repr_and_equality(self):
        assert repr(Hypergraph(3, frozenset([(2, 1)]), 2)) == (
            "Hypergraph(n=3, edges=frozenset({(1, 2)}), k=2)"
        )
        assert repr(Hypergraph(2)) == "Hypergraph(n=2, edges=frozenset(), k=None)"
        assert Hypergraph(3, frozenset(), 2) != Hypergraph(3, frozenset(), 3)
        assert Hypergraph(3) != Hypergraph(4)
        assert Hypergraph(3, frozenset(), 2) != (3, frozenset(), 2)

    def test_json_roundtrip(self):
        h = build_hypergraph(BuildingString("00101", 3))
        again = hypergraph_from_json(hypergraph_to_json(h))
        assert again == h
        assert hypergraph_to_json(h)["edges"] == sorted(map(list, FIVE_EDGES))

    def test_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            hypergraph_from_json({"n": 3})
        with pytest.raises(ValueError):
            hypergraph_from_json("[]")

    def test_json_rejects_non_integers(self):
        for bad in ({"n": 3, "edges": [[1.7, 2]]}, {"n": 3, "edges": [[True, 3]]},
                    {"n": "3", "edges": []}, {"n": 3, "k": 2.0, "edges": []}):
            with pytest.raises(ValueError, match="must be an integer"):
                hypergraph_from_json(bad)


class TestOperations:
    def test_complement_five_vertex(self):
        h = build_hypergraph(BuildingString("00101", 3))
        assert complement_uniform(h).edges == frozenset(
            [(1, 2, 4), (1, 3, 4), (2, 3, 4)]
        )

    def test_complement_needs_uniformity(self):
        with pytest.raises(ValueError):
            complement_uniform(Hypergraph(3, frozenset(), None))

    def test_complement_edgeless_on_k_vertices(self):
        assert complement_uniform(edgeless(3, 3)).edges == frozenset([(1, 2, 3)])

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_complement_swaps_antiregular_variants(self, k):
        for n in range(k, 15):
            conn = build_hypergraph(antiregular_string(n, k, True))
            disc = build_hypergraph(antiregular_string(n, k, False))
            assert complement_uniform(conn).edges == disc.edges
            assert complement_uniform(disc).edges == conn.edges

    def test_disjoint_union_shifts_labels(self):
        h1 = build_hypergraph(BuildingString("001", 3))
        h2 = build_hypergraph(BuildingString("0001", 3))
        u = disjoint_union(h1, h2)
        assert u.n == 7
        assert u.edges == frozenset(
            [(1, 2, 3)] + [tuple(sorted(s + (7,))) for s in combinations((4, 5, 6), 2)]
        )
        assert u.k == 3

    def test_zykov_matches_single_dominating_build(self):
        one = edgeless(1, 3)
        h = zykov_k_sum(one, edgeless(3, 3), 3)
        assert h.n == 4
        assert h.edges == frozenset([(1, 2, 3), (1, 2, 4), (1, 3, 4)])
        # same shape as the four-vertex single-dominating build, up to labels
        other = build_hypergraph(BuildingString("0001", 3))
        assert sorted(degree_sequence(h)) == sorted(degree_sequence(other))

    def test_zykov_not_commutative(self):
        a, b = edgeless(2), edgeless(3)
        assert len(zykov_k_sum(a, b, 3).edges) == 6
        assert len(zykov_k_sum(b, a, 3).edges) == 3

    def test_zykov_needs_enough_vertices(self):
        with pytest.raises(ValueError):
            zykov_k_sum(edgeless(3), edgeless(1), 3)


class TestDegrees:
    def test_five_vertex_example(self):
        h = build_hypergraph(BuildingString("00101", 3))
        assert degree_sequence(h) == (4, 4, 4, 3, 6)

    def test_forced_string_example(self):
        h = build_hypergraph(BuildingString("000010", 4))
        assert degree_sequence(h) == (3, 3, 3, 3, 4, 0)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_one_degree_repeats_exactly_k_times(self, k):
        # antiregular on at least k+1 vertices: a single degree value carries
        # multiplicity k, every other value appears once
        for n in range(k + 1, 15):
            for connected in (False, True):
                h = build_hypergraph(antiregular_string(n, k, connected))
                multiplicities = sorted(Counter(degree_sequence(h)).values())
                assert multiplicities == [1] * (n - k) + [k], (k, n, connected)


class TestRecognize:
    def test_roundtrip_example(self):
        h = build_hypergraph(BuildingString("001101", 3))
        assert recognize_zero_one_constructable(h).bits == "001101"

    def test_rejects_frozen_counterexamples(self):
        four = Hypergraph(
            6,
            frozenset([(1, 2, 5, 6), (1, 3, 4, 6), (1, 3, 5, 6), (1, 4, 5, 6)]),
            4,
        )
        assert recognize_zero_one_constructable(four) is None
        tri = Hypergraph(6, frozenset([(1, 2, 3), (3, 4, 5), (1, 5, 6)]), 3)
        assert recognize_zero_one_constructable(tri) is None

    def test_needs_uniformity(self):
        with pytest.raises(ValueError):
            recognize_zero_one_constructable(Hypergraph(2, frozenset(), None))

    def test_errors_name_the_hypergraph(self):
        with pytest.raises(ValueError, match="needs at least one vertex"):
            recognize_zero_one_constructable(edgeless(0, 3))
        with pytest.raises(ValueError, match="needs k >= 2, not k=1"):
            recognize_zero_one_constructable(Hypergraph(2, frozenset([(2,)]), 1))

    def test_guard(self):
        # recognition is one pass over the edges and has no size guard
        assert recognize_zero_one_constructable(edgeless(60, 3)).bits == "0" * 60

    def test_roundtrip_and_near_miss_at_scale(self):
        b = BuildingString("000" + "0110" * 8 + "10101", 4)
        h = build_hypergraph(b)
        assert recognize_zero_one_constructable(h) == b
        # one edge short: the tops are unchanged, so only the count can tell
        missing = Hypergraph(h.n, h.edges - {max(h.edges)}, 4)
        assert recognize_zero_one_constructable(missing) is None

    def test_recognition_is_label_exact(self):
        # ([3], {23}) is isomorphic to a constructable graph but not equal to
        # one: a dominating vertex 3 would also carry {1,3}.  The relabelled
        # version with the isolated vertex last is recognized.
        assert recognize_zero_one_constructable(Hypergraph(3, frozenset([(2, 3)]), 2)) is None
        b = recognize_zero_one_constructable(Hypergraph(3, frozenset([(1, 2)]), 2))
        assert b is not None and b.bits == "010"

    @given(building_strings(max_n=10))
    @settings(max_examples=60)
    def test_build_then_recognize_is_identity(self, b):
        h = build_hypergraph(b)
        again = recognize_zero_one_constructable(h)
        assert again is not None
        assert build_hypergraph(again) == h
        assert again.bits == b.bits

    @given(st.data())
    @settings(max_examples=150)
    def test_matches_exhaustive_search(self, data):
        k = data.draw(st.integers(2, 4), label="k")
        n = data.draw(st.integers(1, 8), label="n")
        built = sorted((bits, h) for h, bits in all_built(n, k).items())
        bits, h = data.draw(st.sampled_from(built), label="built")
        if n >= k and data.draw(st.booleans(), label="toggle"):
            # a near miss: one k-subset added or removed
            sub = data.draw(st.sampled_from(list(combinations(range(1, n + 1), k))))
            h = Hypergraph(n, h.edges ^ {sub}, k)
            bits = all_built(n, k).get(h)
        b = recognize_zero_one_constructable(h)
        assert (b.bits if b is not None else None) == bits


@lru_cache(maxsize=None)
def all_built(n: int, k: int) -> dict[Hypergraph, str]:
    """Every hypergraph some length-n building string builds, with its string."""
    out = {}
    for word in product("01", repeat=n):
        try:
            b = BuildingString("".join(word), k)
        except ValueError:
            continue  # a 1 before position k
        out[build_hypergraph(b)] = b.bits
    return out
