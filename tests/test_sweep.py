"""The sweep's prefix-tree walk against independent oracles.

The walk takes each string's labels from its parent's; the oracles build
them from scratch, string by string, as the sweep did before it walked the
tree.  Each walked hypergraph's edges are checked against the construction
run by hand.
"""

import pickle
from itertools import product

import pytest

from antiregular import (
    BuildingString,
    Labeling,
    SweepReport,
    algorithm1_labels,
    build_hypergraph,
    check_label_monotonicity,
    constructable_strings,
    run_sweep,
    sweep,
    verify_t2,
)
from antiregular import ipoly
from antiregular.polynomial import Poly
from antiregular.sweep import antiregular_agreement_failures
from conftest import reference_edges


def per_string_failures(k, n, labels):
    """Reference: each constructable string of length n labelled and built from scratch."""
    fails = []
    for bits in constructable_strings(k, n):
        b = BuildingString(bits, k)
        lab = labels(b)
        if not verify_t2(build_hypergraph(b), lab).holds:
            fails.append(f"k={k} {bits}: labeling fails threshold check")
        mono = check_label_monotonicity(b, lab)
        if not mono.holds:
            fails.append(f"k={k} {bits}: monotonicity clause {mono.violated_clause}")
    return fails


def per_string_report(k_max, n_max, labels=algorithm1_labels):
    """Reference: the sweep as one task per (k, n) and family."""
    report = SweepReport(k_max, n_max)
    for k in range(2, k_max + 1):
        for n in range(1, n_max + 1):
            report.polynomial_instances += 1 if n < k else 2
            report.failures += antiregular_agreement_failures(k, n)
        for n in range(k, n_max + 1):
            report.string_instances += 2 ** (n - k + 1) - 1
            report.failures += per_string_failures(k, n, labels)
    report.failures.sort()
    return report


def off_by_one(state, bit, k, step=sweep._label_step):
    """A broken Algorithm 1 step: tau one too high after every vertex."""
    c, tau, opened = step(state, bit, k)
    return c, tau + 1, opened


def folded(step):
    """Labels of a whole string by folding step over its bits."""

    def labels(b):
        state = None
        for bit in b.bits:
            state = step(state, bit, b.k)
        c, tau, _ = state
        return Labeling(c, tau)

    return labels


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_walk_labels_and_edges_match_the_string_by_string_oracles(k):
    seen = {n: set() for n in range(1, 11)}
    for b, h, lab in sweep._prefix_tree(k, "0", 10):
        assert lab == algorithm1_labels(b), b.bits
        assert h.edges == reference_edges(b), b.bits
        assert (h.n, h.k) == (b.n, k)
        seen[b.n].add(b.bits)
    for n, strings in seen.items():
        # every string once: the constructable ones plus the all-zero one
        assert strings == {*constructable_strings(k, n), "0" * n}, n


def test_walk_from_a_prefix_stays_below_it():
    below = [b.bits for b, _, _ in sweep._prefix_tree(3, "00101", 8)]
    assert below[0] == "00101" and len(below) == len(set(below)) == 1 + 2 + 4 + 8
    assert all(bits.startswith("00101") for bits in below)


@pytest.mark.parametrize("k, n", [(2, 6), (3, 7), (4, 9), (5, 8)])
def test_one_length_of_the_walk_is_the_old_per_string_loop(k, n, monkeypatch):
    assert sweep.t2_soundness_failures(k, n) == []
    monkeypatch.setattr(sweep, "_label_step", off_by_one)
    expected = per_string_failures(k, n, folded(off_by_one))
    assert expected and sorted(sweep.t2_soundness_failures(k, n)) == sorted(expected)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_equals_the_per_string_loop(workers):
    for k_max, n_max in product(range(2, 6), range(1, 10)):
        assert run_sweep(k_max, n_max, workers) == per_string_report(k_max, n_max), (
            k_max,
            n_max,
        )


def test_report_is_a_mutable_value():
    a, b = SweepReport(3, 7), SweepReport(3, 7)
    assert a == b and a.failures == [] and a.ok
    a.failures.append("k=3 0011: labeling fails threshold check")
    assert b.failures == [] and a != b and not a.ok  # each report has its own list
    a.string_instances = 4
    assert a.string_instances == 4
    assert pickle.loads(pickle.dumps(a)) == a
    assert SweepReport(3, 7, 1, 2, ["x"]) == SweepReport(3, 7, 1, 2, ["x"])
    with pytest.raises(TypeError):
        hash(a)


def test_failures_from_a_broken_step_are_reported_alike(monkeypatch):
    # forked workers inherit the patch
    monkeypatch.setattr(sweep, "_label_step", off_by_one)
    for k_max, n_max in [(3, 9), (5, 9)]:
        expected = per_string_report(k_max, n_max, folded(off_by_one))
        assert expected.failures
        assert {f.split(": ")[1].split(" clause")[0] for f in expected.failures} == {
            "labeling fails threshold check",
            "monotonicity",
        }
        assert run_sweep(k_max, n_max, 1) == expected
        assert run_sweep(k_max, n_max, 2) == expected


@pytest.mark.parametrize("n_max", [1, 3, 4, 8, 12])
def test_walk_tasks_split_the_tree(n_max):
    # the tasks of one k cover each constructable string once, all lengths
    k = 3
    covered = []
    for _, (_, prefix, n_min, n_hi) in sweep._walk_tasks(k, n_max):
        covered += [
            b.bits
            for b, h, _ in sweep._prefix_tree(k, prefix, n_hi)
            if b.n >= n_min and h.edges
        ]
    expected = [s for n in range(k, n_max + 1) for s in constructable_strings(k, n)]
    assert sorted(covered) == sorted(expected)


@pytest.mark.parametrize("k_max, n_max", [(2, 1), (3, 5), (5, 13)])
def test_tasks_run_every_walk_before_every_agreement(k_max, n_max):
    tasks = sweep._tasks(k_max, n_max)
    walks = [t for k in range(2, k_max + 1) for t in sweep._walk_tasks(k, n_max)]
    agreements = [(k, n) for k in range(2, k_max + 1) for n in range(1, n_max + 1)]
    assert tasks[: len(walks)] == walks
    assert tasks[len(walks) :] == [(sweep._agreement_task, args) for args in agreements]


@pytest.mark.parametrize("n", [25, 41])
def test_agreement_skips_the_routes_a_guard_refuses(n):
    # brute force refuses more than 24 vertices, the deletion recursion more than 40
    assert sweep._agreement_task(3, n) == (2, 0, [])


def test_a_broken_route_fails_the_agreement_family_alike(monkeypatch):
    # forked workers inherit the patch; the semi-closed form applies from k-1 vertices on
    real = ipoly.ipoly_semiclosed
    monkeypatch.setattr(ipoly, "ipoly_semiclosed", lambda *args: real(*args) + Poly((0, 1)))
    expected = sorted(
        f"k={k} n={n} connected={connected}: semiclosed != recurrence"
        for k in (2, 3)
        for n in range(k - 1, 9)
        for connected in ([False] if n < k else [False, True])
    )
    assert run_sweep(3, 8, 1).failures == expected
    assert run_sweep(3, 8, 2).failures == expected
