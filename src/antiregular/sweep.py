"""Exhaustive cross-check sweeps over building strings.

Two families of checks: every antiregular instance must give the same
independence polynomial by every route `ipoly --method all` runs
(ipoly_all), and every {0,1}-constructable string must yield labels that
pass both the threshold verification and the interval monotonicity check.

The second family walks the prefix tree of building strings depth first,
one tree per k.  Algorithm 1 reads the string left to right, so a child
takes its parent's labels through one more Algorithm 1 step.  Its
hypergraph is built from its own string, in O(n), because a built
hypergraph's edges are a view of the string.  Every string still gets the
full verify_t2 and monotonicity checks.  The pool gets the subtrees below
the prefixes of one fixed length.

A task is a (function, arguments) pair whose function returns
(polynomial_instances, string_instances, failures).  The pool runs every
walk task, then every agreement task, in that order, and run_sweep sums
their results into one SweepReport, a plain mutable class.
"""

from __future__ import annotations

import os
from itertools import chain, product
from typing import Iterator

from .hypergraph import (
    BuildingString,
    Hypergraph,
    antiregular_string,
    build_hypergraph,
)
from .ipoly import ipoly_all
from .threshold import Labeling, _label_step, check_label_monotonicity, verify_t2

SPLIT_BITS = 3  # a walk task is the subtree below one prefix of length k + SPLIT_BITS


def constructable_strings(k: int, n: int) -> Iterator[str]:
    """All length-n building strings with at least one dominating vertex."""
    for first in range(k, n + 1):
        head = "0" * (first - 1) + "1"
        for tail in product("01", repeat=n - first):
            yield head + "".join(tail)


def antiregular_agreement_failures(k: int, n: int) -> list[str]:
    """Cross-check every polynomial method on the antiregular instances."""
    return _agreement_task(k, n)[2]


def _agreement_task(k: int, n: int) -> tuple[int, int, list[str]]:
    """The agreement check of one (k, n): a connected variant needs n >= k.

    Every route that answers is compared with the recurrence; one its guard refuses is skipped.
    """
    fails = []
    variants = [False] if n < k else [False, True]
    for connected in variants:
        b = antiregular_string(n, k, connected)
        polys, _ = ipoly_all(build_hypergraph(b), b)
        for name, p in polys.items():
            if p != polys["recurrence"]:
                fails.append(f"k={k} n={n} connected={connected}: {name} != recurrence")
    return len(variants), 0, fails


def t2_soundness_failures(k: int, n: int) -> list[str]:
    """Label every constructable string of length n and verify threshold + monotonicity."""
    return _walk_task(k, "0", n, n)[2]


def _prefix_tree(
    k: int, prefix: str, n_max: int
) -> Iterator[tuple[BuildingString, Hypergraph, Labeling]]:
    """Every building string that extends prefix, up to length n_max, depth first.

    Yields each string with its hypergraph and its Algorithm 1 labels,
    which are taken from its parent's.  The prefix starts with 0, as every
    building string does.
    """

    def child(node, bit):
        b, state = node
        return BuildingString(b.bits + bit, k), _label_step(state, bit, k)

    node = BuildingString("0", k), _label_step(None, "0", k)
    for bit in prefix[1:]:
        node = child(node, bit)
    stack = [node]
    while stack:
        node = stack.pop()
        b, (c, tau, _) = node
        yield b, build_hypergraph(b), Labeling(c, tau)
        if b.n < n_max:
            stack.append(child(node, "0"))
            if b.n + 1 >= k:
                stack.append(child(node, "1"))


def _walk_task(k: int, prefix: str, n_min: int, n_max: int) -> tuple[int, int, list[str]]:
    """Check every constructable string of length n_min..n_max extending prefix.

    Returns (0, strings checked, failures): a walk checks no polynomials.
    """
    checked, fails = 0, []
    for b, h, lab in _prefix_tree(k, prefix, n_max):
        if b.n < n_min or not h.edges:  # too short, or no 1-bit yet
            continue
        checked += 1
        if not verify_t2(h, lab).holds:
            fails.append(f"k={k} {b.bits}: labeling fails threshold check")
        mono = check_label_monotonicity(b, lab)
        if not mono.holds:
            fails.append(f"k={k} {b.bits}: monotonicity clause {mono.violated_clause}")
    return 0, checked, fails


class SweepReport:
    """Counts and failure messages of one sweep; mutable, so a caller can add to it."""

    def __init__(
        self,
        k_max: int,
        n_max: int,
        polynomial_instances: int = 0,
        string_instances: int = 0,
        failures: list[str] | None = None,
    ) -> None:
        self.k_max = k_max
        self.n_max = n_max
        self.polynomial_instances = polynomial_instances
        self.string_instances = string_instances
        self.failures = [] if failures is None else failures

    def __eq__(self, other: object) -> bool:
        if type(other) is not SweepReport:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return "SweepReport(" + ", ".join(f"{k}={v!r}" for k, v in vars(self).items()) + ")"

    @property
    def ok(self) -> bool:
        return not self.failures


def _walk_tasks(k: int, n_max: int) -> list[tuple]:
    """Walk tasks for one k: each prefix of length k + SPLIT_BITS, and the shorter strings."""
    depth = k + SPLIT_BITS
    tasks = [(_walk_task, (k, "0", 1, min(depth - 1, n_max)))]
    if n_max >= depth:
        prefixes = ["0" * depth, *constructable_strings(k, depth)]
        tasks += [(_walk_task, (k, p, depth, n_max)) for p in prefixes]
    return tasks


def _tasks(k_max: int, n_max: int) -> list[tuple]:
    """Every walk task, then every agreement task: the order the pool runs them in.

    The walks hold nearly all the work; the small agreement tasks then fill
    whatever a worker has left idle at the end.
    """
    ks = range(2, k_max + 1)
    tasks = [t for k in ks for t in _walk_tasks(k, n_max)]
    return tasks + [(_agreement_task, (k, n)) for k in ks for n in range(1, n_max + 1)]


def default_workers() -> int:
    """Worker count for sweeps: the usable CPUs, at most 8; NUM_WORKERS caps it.

    The usable CPUs are those the process may run on where the platform
    tells (sched_getaffinity), else all of the machine's.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, 8)
    env = os.environ.get("NUM_WORKERS")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"NUM_WORKERS must be an integer, not {env!r}") from None
        workers = min(workers, max(1, cap))
    return workers


def run_sweep(k_max: int, n_max: int, workers: int | None = None) -> SweepReport:
    """Run both check families for every k <= k_max, n <= n_max."""
    if k_max < 2 or n_max < 1:
        raise ValueError("need k_max >= 2 and n_max >= 1")
    if workers is None:
        workers = default_workers()
    tasks = _tasks(k_max, n_max)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # late: a cold CLI call skips it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, *args) for fn, args in tasks]
            results = [f.result() for f in futures]
    else:
        results = [fn(*args) for fn, args in tasks]
    # the report does not depend on the order: counts are summed, failures sorted
    polys, strings, fails = zip(*results)
    return SweepReport(k_max, n_max, sum(polys), sum(strings), sorted(chain.from_iterable(fails)))
