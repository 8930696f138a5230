"""Exhaustive cross-check sweeps over building strings.

Two families of checks: every antiregular instance must give the same
independence polynomial by every applicable method, and every
{0,1}-constructable string must yield labels that pass both the threshold
verification and the interval monotonicity check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import product
from math import comb
from typing import Iterator

from .hypergraph import BuildingString, antiregular_string, build_hypergraph
from .ipoly import ipoly_bruteforce, ipoly_trinks, structural_routes
from .threshold import algorithm1_labels, check_label_monotonicity, verify_t2


def constructable_strings(k: int, n: int) -> Iterator[str]:
    """All length-n building strings with at least one dominating vertex."""
    for first in range(k, n + 1):
        head = "0" * (first - 1) + "1"
        for tail in product("01", repeat=n - first):
            yield head + "".join(tail)


def antiregular_agreement_failures(k: int, n: int) -> list[str]:
    """Cross-check every polynomial method on the antiregular instances."""
    fails = []
    variants = [False] if n < k else [False, True]
    for connected in variants:
        h = build_hypergraph(antiregular_string(n, k, connected))
        others = structural_routes(n, k, connected)
        ref = others.pop("recurrence")
        others.update(brute=ipoly_bruteforce(h), deletion=ipoly_trinks(h))
        for name, p in others.items():
            if p != ref:
                fails.append(f"k={k} n={n} connected={connected}: {name} != recurrence")
    return fails


def t2_soundness_failures(k: int, n: int) -> list[str]:
    """Label every constructable string and verify threshold + monotonicity."""
    fails = []
    for bits in constructable_strings(k, n):
        b = BuildingString(bits, k)
        lab = algorithm1_labels(b)
        if not verify_t2(build_hypergraph(b), lab).holds:
            fails.append(f"k={k} {bits}: labeling fails threshold check")
        mono = check_label_monotonicity(b, lab)
        if not mono.holds:
            fails.append(f"k={k} {bits}: monotonicity clause {mono.violated_clause}")
    return fails


@dataclass
class SweepReport:
    k_max: int
    n_max: int
    polynomial_instances: int = 0
    string_instances: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _task_instances(task: tuple[str, int, int]) -> int:
    """Instances a task checks: antiregular variants, or constructable strings.

    A constructable string of length n >= k puts its first 1-bit at some
    f in k..n and leaves the n-f later bits free: 2^(n-k+1) - 1 strings.
    """
    kind, k, n = task
    if kind == "agree":
        return 1 if n < k else 2
    return 2 ** (n - k + 1) - 1


def _task_cost(task: tuple[str, int, int]) -> int:
    """Work estimate for scheduling: instances times the k-subsets of each."""
    _, k, n = task
    return _task_instances(task) * comb(n, k)


def _run_task(task: tuple[str, int, int]) -> tuple[str, int, list[str]]:
    kind, k, n = task
    check = antiregular_agreement_failures if kind == "agree" else t2_soundness_failures
    return kind, _task_instances(task), check(k, n)


def default_workers() -> int:
    """Worker count for sweeps; NUM_WORKERS caps it."""
    workers = min(os.cpu_count() or 1, 8)
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
    tasks = [("agree", k, n) for k in range(2, k_max + 1) for n in range(1, n_max + 1)]
    tasks += [("t2", k, n) for k in range(2, k_max + 1) for n in range(k, n_max + 1)]
    # largest first, so no worker is left alone with a big task at the end;
    # the report does not depend on the order, since counts are summed and
    # failures sorted
    tasks.sort(key=_task_cost, reverse=True)
    report = SweepReport(k_max, n_max)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # late: a cold CLI call skips it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]
    for kind, count, fails in results:
        if kind == "agree":
            report.polynomial_instances += count
        else:
            report.string_instances += count
        report.failures.extend(fails)
    report.failures.sort()
    return report
