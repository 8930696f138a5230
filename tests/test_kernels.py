from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiregular import kernels
from antiregular.kernels import independence_counts


def scan_counts(n, masks):
    """Reference: test every subset against every edge, one at a time."""
    counts = [0] * (n + 1)
    for w in range(1 << n):
        if not any(w & e == e for e in masks):
            counts[w.bit_count()] += 1
    return counts


def test_no_edges_counts_all_subsets():
    assert independence_counts(4, []) == [comb(4, i) for i in range(5)]


def test_empty_edge_poisons():
    assert independence_counts(3, [0]) == [0, 0, 0, 0]


def test_single_edge():
    # edge {1,2} as mask 0b11: subsets avoiding it
    assert independence_counts(2, [0b11]) == [1, 2, 0]


def test_range_check():
    with pytest.raises(ValueError):
        independence_counts(31, [])
    with pytest.raises(ValueError):
        independence_counts(-1, [])


def test_pure_python_twin_on_known_case():
    masks = [0b111, 0b1011]
    assert scan_counts(4, masks) == independence_counts(4, masks)


def test_backend_is_python():
    assert kernels.backend() == "python"


def test_mask_beyond_n_is_never_contained():
    assert independence_counts(2, [0b100, 0b11]) == [1, 2, 0]


@st.composite
def edge_families(draw, min_n, max_n):
    """A vertex count and edge masks of mixed sizes, now and then the empty edge."""
    n = draw(st.integers(min_n, max_n))
    if n == 0:
        return n, draw(st.lists(st.just(0), max_size=1))
    small = st.sets(st.integers(0, n - 1), min_size=1, max_size=4).map(
        lambda vs: sum(1 << v for v in vs)
    )
    masks = draw(st.lists(small | st.integers(1, (1 << n) - 1), max_size=12))
    if draw(st.integers(0, 9)) == 0:
        masks.append(0)
    return n, masks


@given(edge_families(0, 10))
@settings(max_examples=150, deadline=None)
def test_bitset_kernel_matches_scan(family):
    n, masks = family
    assert independence_counts(n, masks) == scan_counts(n, masks)


@given(edge_families(11, 14))
@settings(max_examples=30, deadline=None)
def test_bitset_kernel_matches_scan_in_blocks(family):
    n, masks = family
    assert kernels._low_width(n) < n  # the top vertices are enumerated as blocks
    assert independence_counts(n, masks) == scan_counts(n, masks)
