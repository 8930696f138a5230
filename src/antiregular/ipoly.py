"""Independence polynomials of hypergraphs, by five independent routes.

I(H;x) = sum over independent sets W (subsets containing no edge) of
x^|W|.  The routes, in increasing order of structure they assume:

  * brute force          any hypergraph, subset enumeration
  * deletion recursion   any hypergraph, I(H) = I(H-v) + x I(H~v)
  * two-term recurrence  antiregular hypergraphs only: ipoly_string's fold
                         over a building string, run on the antiregular one
  * closed form          antiregular hypergraphs with k = 3 only
  * semi-closed form     antiregular hypergraphs, binomial bracket plus a
                         per-level correction row

ROUTES names them in this order: ipoly_route runs one, ipoly_all each that
applies (the last three need the antiregular building string).  All five
must agree wherever more than one applies; the test suite, the sweep and
`ipoly --method all`, which both call ipoly_all, enforce that.

AlphaBetaTable and LogConcavityReport are NamedTuples, so they also compare
and iterate as plain tuples.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb
from typing import NamedTuple

from . import kernels
from .errors import GuardExceeded
from .hypergraph import BuildingString, Hypergraph, antiregular_string
from .polynomial import ONE, ZERO, Poly, one_plus_x_pow

BRUTE_FORCE_GUARD = 24
TRINKS_GUARD = 40


def ipoly_bruteforce(h: Hypergraph, guard: bool = True) -> Poly:
    """Oracle method: enumerate all 2^n subsets.

    Past the kernel's HARD_CAP the instance is refused even with guard=False.
    """
    if guard and h.n > BRUTE_FORCE_GUARD:
        raise GuardExceeded(
            f"brute force on {h.n} vertices exceeds the guard of {BRUTE_FORCE_GUARD}"
        )
    if h.n > kernels.HARD_CAP:
        raise GuardExceeded(
            f"brute force on {h.n} vertices exceeds the kernel's cap of {kernels.HARD_CAP}"
        )
    return Poly(kernels.independence_counts(h.n, h.edge_masks()))


def ipoly_trinks(h: Hypergraph, guard: bool = True) -> Poly:
    """Vertex deletion/hiding recursion on edge bitmasks, memoized per call.

    Pivot is the highest-labelled vertex v = n, so neither branch needs to
    relabel: deletion drops the edges through v, hiding shrinks them.  The
    family is kept free of edges that contain another edge, which canonicalizes
    memo keys.  The input is pruned once on entry; after that only an unshrunk
    edge can contain a shrunk one, so hiding tests just the unshrunk edges
    against the shrunk set.
    """
    if guard and h.n > TRINKS_GUARD:
        raise GuardExceeded(
            f"deletion recursion on {h.n} vertices exceeds the guard of {TRINKS_GUARD}"
        )
    masks = h.edge_masks()
    if masks and masks[0] == 0:
        return ZERO  # the empty edge makes every subset dependent
    if h.k is None:  # a uniform family has nothing to prune
        members = set(masks)
        masks = [m for m in masks if not _contains_member(m, members)]
    memo: dict[tuple[int, tuple[int, ...]], list[int]] = {}

    def count(n: int, family: tuple[int, ...]) -> list[int]:
        """Independent sets by size; family holds increasing masks below 2^n."""
        if not family:
            return [comb(n, i) for i in range(n + 1)]
        key = (n, family)
        if key in memo:
            return memo[key]
        top = 1 << (n - 1)
        cut = bisect_left(family, top)  # the edges through v are the masks >= top
        deleted = family[:cut]
        if cut == len(family):  # v is in no edge
            rest = count(n - 1, family)
            out = [a + b for a, b in zip(rest + [0], [0] + rest)]
        elif family[cut] == top:  # v alone is an edge: v is in no independent set
            out = count(n - 1, deleted) + [0]
        else:
            shrunk = [m ^ top for m in family[cut:]]
            members = set(shrunk)
            # m & (m-1), m's first submask, is tried inline: the usual hit
            hidden = shrunk + [
                m for m in deleted
                if m & (m - 1) not in members and not _contains_member(m, members)
            ]
            with_v = count(n - 1, tuple(sorted(hidden)))
            out = [a + b for a, b in zip(count(n - 1, deleted) + [0], [0] + with_v)]
        memo[key] = out
        return out

    return Poly(count(h.n, tuple(masks)))


def _contains_member(m: int, family: set[int]) -> bool:
    """True when some member of family is a proper submask of m.

    Walks the 2^|m| submasks of m (s = (s-1) & m) or the family, whichever
    is shorter, so it never goes pairwise over a large family.
    """
    if 1 << m.bit_count() <= len(family):
        s = m
        while s:
            s = (s - 1) & m
            if s in family:
                return True
        return False
    return any(f & m == f and f != m for f in family)


def ipoly_string(b: BuildingString) -> Poly:
    """I(H;x) of the hypergraph b builds, by one fold over the string.

    An edge's top vertex is a 1-bit, and every k-subset whose top is the
    1-bit p is an edge.  So the independent sets that contain p are exactly
    {p} | S, S any set of at most k-2 earlier vertices: a 1-bit adds
    sum_{i=0}^{k-2} C(p-1, i) x^(i+1), and a 0-bit multiplies by 1+x.
    """
    poly = ONE
    for pos, bit in enumerate(b.bits, start=1):
        poly += _dominating_tail(pos - 1, b.k) if bit == "1" else poly.shifted(1)
    return poly


def ipoly_antiregular_recurrence(n: int, k: int, connected: bool) -> Poly:
    """Two-term recurrence along the antiregular construction.

    With f_c(m), f_d(m) the connected/disconnected polynomials on m
    vertices: both are (1+x)^m for m < k, and for m >= k

        f_d(m) = (1+x) f_c(m-1)
        f_c(m) = f_d(m-1) + sum_{i=1}^{k-1} C(m-1, i-1) x^i

    Folding ipoly_string over the alternating string is this recurrence:
    a 0-bit is the f_d step, a 1-bit the f_c step.
    """
    return ipoly_string(antiregular_string(n, k, connected and n >= k))


def _dominating_tail(m: int, k: int) -> Poly:
    """Independent sets using a fresh dominating vertex over m predecessors."""
    return Poly([0] + [comb(m, i - 1) for i in range(1, k)])


def ipoly_k3_closed(n: int, connected: bool) -> Poly:
    """Closed forms for k = 3, split by parity and connectivity."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if connected:
        if n % 2:
            m = (n + 1) // 2
            return 3 * one_plus_x_pow(m) + one_plus_x_pow(m - 1) + Poly((-3, -2 * m))
        m = n // 2
        return one_plus_x_pow(m + 1) + 3 * one_plus_x_pow(m) + Poly((-3, -(2 * m + 1)))
    if n % 2 == 0:
        m = n // 2
        return (
            3 * one_plus_x_pow(m + 1)
            + one_plus_x_pow(m)
            - one_plus_x_pow(1) * Poly((3, 2 * m))
        )
    m = (n + 1) // 2
    return (
        one_plus_x_pow(m + 1)
        + 3 * one_plus_x_pow(m)
        - one_plus_x_pow(1) * Poly((3, 2 * m - 1))
    )


ROUTES = ("brute", "trinks", "recurrence", "closed", "semiclosed")


def ipoly_route(name: str, h: Hypergraph, b: BuildingString | None = None, guard=True) -> Poly:
    """I(H;x) by the route of ROUTES called name; b is h's building string, if any.

    Raises ValueError when the route does not apply to the instance, and
    GuardExceeded when an exponential route refuses its size.
    """
    if name not in ROUTES:
        raise ValueError(f"no route named {name!r}")
    if name == "brute":
        return ipoly_bruteforce(h, guard=guard)
    if name == "trinks":
        return ipoly_trinks(h, guard=guard)
    if b is None or not b.is_antiregular():
        raise ValueError(f"method {name} needs an antiregular building string")
    connected = b.bits.endswith("1")
    if name == "recurrence":
        return ipoly_antiregular_recurrence(b.n, b.k, connected)
    if name == "closed":
        if b.k != 3:
            raise ValueError("closed form only exists for k=3")
        return ipoly_k3_closed(b.n, connected)
    return ipoly_semiclosed(b.n, b.k, connected)


def ipoly_all(h: Hypergraph, b: BuildingString | None = None, guard=True) -> tuple[dict, dict]:
    """(polys, refusals) by route name, in ROUTES order: every route that applies.

    A route its guard refuses goes under refusals (its GuardExceeded); a
    route that does not apply is left out of both.
    """
    polys, refusals = {}, {}
    for name in ROUTES:
        try:
            polys[name] = ipoly_route(name, h, b, guard)
        except GuardExceeded as exc:
            refusals[name] = exc
        except ValueError:
            pass  # the route does not apply to this instance
    return polys, refusals


# ── per-level correction rows ───────────────────────────────────────────────


class AlphaBetaTable(NamedTuple):
    """Correction coefficients for the semi-closed forms.

    values maps (level, i) -> integer for i in 0..k-1, with level running
    over even numbers (kind "alpha", disconnected on an even vertex count)
    or odd numbers (kind "beta", disconnected on an odd vertex count).
    """

    kind: str
    k: int
    max_level: int
    values: dict[tuple[int, int], int]

    @property
    def levels(self) -> range:
        return range(self.max_level % 2, self.max_level + 1, 2)

    def value(self, level: int, i: int) -> int:
        return self.values[(level, i)]


def _correction_row(k: int, level: int) -> tuple[int, ...]:
    """value(level, i) for i = 0..k-1, in O(k^2) at any level.

    Row k-1 is C(l, k-2) on levels level..level+2(k-1).  The descent
    value(l, i-1) = value(l+2, i) - value(l, i) + C(l+1, i-1) uses one
    level more than it yields, so k-1 steps leave just the value at level.
    A tuple, not a Poly, which would strip the zeros C(l, k-2) has for small l.
    """
    levels = range(level, level + 2 * k, 2)
    run = [comb(l, k - 2) for l in levels]
    row = [run[0]]
    for i in range(k - 1, 0, -1):
        run = [b - a + comb(l + 1, i - 1) for l, a, b in zip(levels, run, run[1:])]
        row.append(run[0])
    return tuple(reversed(row))


def _correction_table(k: int, parity: int, n_max: int) -> AlphaBetaTable:
    """Every correction row of one parity on levels up to 2*n_max + parity.

    The bottom row must come out level-independent; any drift there means
    the descent is broken, hence the hard assertion.
    """
    if n_max < (k + 1) // 2:
        raise ValueError("n_max too small for the semi-closed range")
    if k < 2:
        raise ValueError("edge size k must be at least 2")
    max_level = 2 * n_max + parity
    rows = {l: _correction_row(k, l) for l in range(parity, max_level + 1, 2)}
    bottom = {l: row[0] for l, row in rows.items()}
    if len(set(bottom.values())) > 1:
        raise AssertionError(
            f"bottom correction row varies across levels for k={k}: {bottom}"
        )
    values = {(l, i): v for l, row in rows.items() for i, v in enumerate(row)}
    kind = "alpha" if parity == 0 else "beta"
    return AlphaBetaTable(kind, k, max_level, values)


def solve_alpha(k: int, n_max: int) -> AlphaBetaTable:
    """Even-level correction table covering levels 0..2*n_max."""
    return _correction_table(k, 0, n_max)


def solve_beta(k: int, n_max: int) -> AlphaBetaTable:
    """Odd-level correction table covering levels 1..2*n_max+1."""
    return _correction_table(k, 1, n_max)


def ipoly_semiclosed(n: int, k: int, connected: bool) -> Poly:
    """Semi-closed form: binomial bracket times (1+x)-power minus a row.

    The disconnected polynomial on n vertices (n at least the anchor level,
    which is k-1 or k depending on parity) is

        (1+x)^((n - l0)/2) [ (1+x)^l0 + row(l0) ] - row(n)

    where row(l) is _correction_row(k, l) and l0 the anchor of n's parity.
    The connected polynomial adds a dominating vertex on top of the
    disconnected one a vertex earlier.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if k < 2:
        raise ValueError("edge size k must be at least 2")
    if connected:
        return _semiclosed_disconnected(n - 1, k) + _dominating_tail(n - 1, k)
    return _semiclosed_disconnected(n, k)


def _semiclosed_disconnected(n: int, k: int) -> Poly:
    parity = n % 2
    anchor = k - 1 if (k - 1) % 2 == parity else k
    if n < anchor:
        raise ValueError(
            f"semi-closed form needs at least {anchor} vertices at this parity"
        )
    bracket = one_plus_x_pow(anchor) + Poly(_correction_row(k, anchor))
    return one_plus_x_pow((n - anchor) // 2) * bracket - Poly(_correction_row(k, n))


# ── coefficient formulas and log-concavity ──────────────────────────────────


def coeff_formulas(k: int, n: int) -> tuple[int, int]:
    """Coefficients of x^k and x^(k+1) for the disconnected case on 2n vertices.

    Binomial sums over the dominating vertices; for k = 3 they collapse to
    cubic polynomials in n, asserted here as a cross-check.
    """
    if k < 2 or n < 0:
        raise ValueError("need k >= 2 and n >= 0")
    lo = (k + 1) // 2
    a_k = sum(comb(2 * i - 1, k - 1) for i in range(lo, n + 1))
    a_k1 = sum(comb(2 * i - 1, k - 1) * (n - i) for i in range(lo, n))
    if k == 3:
        if 6 * a_k != n * (n - 1) * (4 * n + 1):
            raise AssertionError(f"closed form for a_k disagrees at n={n}")
        if 6 * a_k1 != n * n * (n - 1) * (n - 2):
            raise AssertionError(f"closed form for a_(k+1) disagrees at n={n}")
    return a_k, a_k1


class LogConcavityReport(NamedTuple):
    holds: bool
    first_violation: int | None = None


def is_log_concave(p: Poly) -> LogConcavityReport:
    """Check a_i^2 >= a_(i-1) a_(i+1) at every interior index, exactly."""
    cs = p.coeffs
    for i in range(1, len(cs) - 1):
        if cs[i] * cs[i] < cs[i - 1] * cs[i + 1]:
            return LogConcavityReport(False, i)
    return LogConcavityReport(True)
