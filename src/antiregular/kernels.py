"""Subset-enumeration kernel: independence counts from big-integer bitsets.

The kernel counts, by size, the subsets of {0..n-1} that contain no edge.
Every subset w (a bitmask) is examined, but 2^L of them at a time: a set of
subsets of the low L vertices is one integer whose bit w is set when w
belongs to it.  L is about n/2 (see _low_width), which balances the cost
of wide integers against the number of blocks.

  * Vertex i's pattern is the set of low subsets containing i, so the low
    subsets containing an edge's low part are the AND of its vertices'
    patterns.  ANDs are shared between edges through their common prefix.
  * The top n - L vertices are enumerated: an assignment h of them is a
    block of 2^L subsets, and an edge with high part g makes the block's
    subsets dependent exactly when g lies inside h.  One OR per edge files
    it under g, and a subset-OR (zeta) transform over the high parts then
    gives every block its dependent set.
  * A block's counts are popcounts against one mask per subset size,
    shifted by the size of h.  Blocks with the same dependent set share
    them.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb
from typing import Sequence

HARD_CAP = 30  # the 2^n subsets are all examined; 2^30 is already far out of reach


def backend() -> str:
    """Name of the kernel implementation; there is only the pure-Python one."""
    return "python"


def _low_width(n: int) -> int:
    """Vertices handled bit-parallel; the best width measured at n = 14..26."""
    return min(n, max(10, n // 2 + 2))


@lru_cache(maxsize=None)  # one entry per block width, so at most 18
def _block_masks(low: int) -> tuple[int, list[int], list[int]]:
    """All low subsets, each low vertex's pattern, and one mask per size."""
    full = (1 << (1 << low)) - 1
    patterns = []
    for i in range(low):
        run = 1 << i  # the pattern is runs of `run` zeros then `run` ones
        patterns.append(full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))
    sizes = [1]  # over zero vertices: the empty subset has size 0
    for i in range(low):
        sizes = [
            (sizes[t] if t <= i else 0) | (sizes[t - 1] << (1 << i) if t else 0)
            for t in range(i + 2)
        ]
    return full, patterns, sizes


def independence_counts(n: int, masks: Sequence[int]) -> list[int]:
    """Count subsets of {0..n-1} containing no edge mask, by subset size.

    masks holds edges as bitmasks; a subset W (also a bitmask) is dependent
    when some mask e satisfies W & e == e.  The empty edge (mask 0) makes
    every subset dependent, and a mask with a bit at n or above is never
    contained.  Returns n+1 counts indexed by popcount.
    """
    if not 0 <= n <= HARD_CAP:
        raise ValueError(f"kernel supports 0 <= n <= {HARD_CAP}")
    low = _low_width(n)
    full, patterns, sizes = _block_masks(low)
    low_mask = (1 << low) - 1
    ands = {0: full}

    def low_and(m: int) -> int:
        a = ands.get(m)
        if a is None:
            rest = m & (m - 1)
            a = ands[m] = low_and(rest) & patterns[(m ^ rest).bit_length() - 1]
        return a

    dependent = [0] * (1 << (n - low))
    for m in masks:
        if not m >> n:
            dependent[m >> low] |= low_and(m & low_mask)
    for i in range(n - low):
        step = 1 << i
        for base in range(step, len(dependent), 2 * step):
            for h in range(base, base + step):
                dependent[h] |= dependent[h - step]

    counts = [0] * (n + 1)
    blocks = Counter(zip(dependent, map(int.bit_count, range(len(dependent)))))
    for (dep, shift), times in blocks.items():
        if dep == full:
            continue
        for size, mask in enumerate(sizes):
            counts[size + shift] += times * (comb(low, size) - (dep & mask).bit_count())
    return counts
