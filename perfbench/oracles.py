"""Answers computed without the program, to check the program's answers.

Each oracle rests on one fact of the construction: in the hypergraph a
building string encodes, a k-subset is an edge exactly when its largest
vertex is a 1-bit.  None of them calls into ``antiregular``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


def string_edges(bits: str, k: int) -> list[list[int]]:
    """Every k-subset whose largest vertex is a 1-bit, in sorted order."""
    return [
        list(s)
        for s in combinations(range(1, len(bits) + 1), k)
        if bits[s[-1] - 1] == "1"
    ]


def string_edge_count(bits: str, k: int) -> int:
    return sum(comb(p - 1, k - 1) for p, ch in enumerate(bits, 1) if ch == "1")


def string_ipoly(bits: str, k: int) -> tuple[int, ...]:
    """Independence polynomial coefficients by a pass over the string.

    A 0-bit vertex joins every independent set freely: multiply by (1+x).
    A 1-bit vertex at position p lies in an independent set W + {p} exactly
    when W has at most k-2 of the p-1 earlier vertices, and such a W holds
    no edge, so it adds C(p-1, i) x^(i+1) for i = 0..k-2.
    """
    cs = [1]
    for p, ch in enumerate(bits, 1):
        if ch == "0":
            cs = [a + b for a, b in zip(cs + [0], [0] + cs)]
        else:
            cs += [0] * max(0, k - len(cs))
            for i in range(k - 1):
                cs[i + 1] += comb(p - 1, i)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def string_degrees(bits: str, k: int) -> list[int]:
    """deg(v) = [bit v is 1] C(v-1, k-1) + sum over 1-bits j > v of C(j-2, k-2)."""
    n = len(bits)
    later = 0
    out = [0] * n
    for v in range(n, 0, -1):
        own = comb(v - 1, k - 1) if bits[v - 1] == "1" else 0
        out[v - 1] = own + later
        if bits[v - 1] == "1":
            later += comb(v - 2, k - 2)
    return out


def string_labels_realize(bits: str, k: int, c: list[int], tau: int) -> bool:
    """Whether labels c and threshold tau realize the string's hypergraph.

    Every k-subset with top vertex j is an edge iff bit j is 1, so it is
    enough that c_j plus its k-1 lightest predecessors exceeds tau at each
    1-bit, and c_j plus its k-1 heaviest predecessors does not at each 0-bit.
    """
    if len(c) != len(bits):
        return False
    for j in range(k, len(bits) + 1):
        before = sorted(c[: j - 1])
        if bits[j - 1] == "1":
            if c[j - 1] + sum(before[: k - 1]) <= tau:
                return False
        elif c[j - 1] + sum(before[-(k - 1) :]) > tau:
            return False
    return True


def labels_realize(n: int, k: int, edges: set, c: list[int], tau: int) -> bool:
    """Whether sum(S) > tau holds exactly on the edges, over every k-subset."""
    return len(c) == n and all(
        (sum(c[v - 1] for v in s) > tau) == (s in edges)
        for s in combinations(range(1, n + 1), k)
    )


def incomparable(edges: set, x: int, y: int) -> bool:
    """Neither x nor y can replace the other in every edge through it."""

    def replaceable(a: int, b: int) -> bool:
        return all(
            tuple(sorted([v for v in e if v != a] + [b])) in edges
            for e in edges
            if a in e and b not in e
        )

    return not replaceable(x, y) and not replaceable(y, x)


def antiregular_bits(n: int, k: int, connected: bool) -> str:
    """Leading zeros, then 1-bits and 0-bits strictly alternating.

    A connected string ends in a 1-bit and its first 1-bit is vertex k or
    k+1, whichever the parity of n allows; a disconnected one is the
    connected string on n-1 vertices plus a 0-bit, or all zeros when n <= k.
    """
    if not connected:
        return "0" * n if n <= k else antiregular_bits(n - 1, k, True) + "0"
    first = k if (n - k) % 2 == 0 else k + 1
    return "0" * (first - 1) + "1" + "01" * ((n - first) // 2)


def log_concave(cs: tuple[int, ...]) -> tuple[bool, int | None]:
    for i in range(1, len(cs) - 1):
        if cs[i] * cs[i] < cs[i - 1] * cs[i + 1]:
            return False, i
    return True, None
