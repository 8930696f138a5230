"""Threshold labelings of {0,1}-constructable hypergraphs.

A labeling (c, tau) realizes a k-uniform hypergraph as a sum threshold
when a k-subset is an edge exactly if its label sum exceeds tau.  In a
built hypergraph a k-subset is an edge exactly when its top vertex is a
1-bit, so the label construction walks the building string and sets only
the k-subsets each newcomer tops: a dominating newcomer gets the smallest
label that lifts all of them (the lightest one included) over tau, and an
isolated newcomer doubles everything and gets the largest label that keeps
all of them (the heaviest one included) at or below the new threshold.

verify_t2 and the simplex's pricing share one probe for the lightest edge
and the heaviest non-edge, which reads a constant multiple of the input.

verify_t3 checks replacement order: x sits below y when swapping x out for
y inside any edge through x (and avoiding y) lands on an edge again.  That
implies deg x <= deg y, so n - 1 pairs along the degree order decide it.

t2_feasibility decides any hypergraph by an exact simplex on the vertices
that lie in edges, and extends its labels to the isolated ones.

Labeling and the verdicts are NamedTuples: immutable records that also
compare, unpack and iterate as plain tuples.
"""

from __future__ import annotations

import json
import re
from itertools import combinations, compress, repeat
from math import comb, gcd
from operator import and_, eq, ge
from typing import NamedTuple

from .hypergraph import BuildingString, Edge, Hypergraph

SCAN_RATIO = 4  # scan all C(n, k) subsets while at most this times (k + 1)|E|


class Labeling(NamedTuple):
    """Integer vertex labels in label order plus the threshold."""

    c: tuple[int, ...]
    tau: int

    def to_json(self) -> dict:
        return {"c": [str(v) for v in self.c], "tau": str(self.tau)}

    @staticmethod
    def from_json(obj: dict | str) -> "Labeling":
        """Read {"c": [...], "tau": ...}; labels are integers or decimal strings.

        Anything else (floats, booleans, a string for c) is refused, not cast.
        """
        if isinstance(obj, str):
            obj = json.loads(obj)
        try:
            c, tau = obj["c"], obj["tau"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed labeling JSON: {exc}") from exc
        if not isinstance(c, list):
            raise ValueError(f"labeling JSON: c must be a list, not {c!r}")
        return Labeling(tuple(_label_int(v) for v in c), _label_int(tau))


def _label_int(value) -> int:
    """An integer label from JSON: an int that is not a bool, or a decimal string."""
    if type(value) is int:
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ValueError(
        f"labeling JSON: a label must be an integer or a decimal string, not {value!r}"
    )


def algorithm1_labels(b: BuildingString) -> Labeling:
    """Labels and threshold realizing build_hypergraph(b) as a sum threshold.

    One fold over the string.  The leading zeros get label 2 and tau = 2k,
    so no k-subset of them exceeds tau; an all-zero string stops there, at
    the edgeless hypergraph.  Every later newcomer tops only edges (a 1-bit)
    or only non-edges (a 0-bit), so only its extreme k-subset needs setting:
    with its k-1 lightest predecessors it lands on exactly tau + 1, with its
    k-1 heaviest on exactly the new tau.  The doubling on a 0-bit keeps
    every earlier comparison: sum >= tau + 1 becomes 2*sum > 2*tau + 1, and
    sum <= tau becomes 2*sum <= 2*tau.  All arithmetic is exact: labels
    double on every isolated step, so they grow exponentially but never
    overflow.  The sweep's prefix-tree walk takes the same steps.
    """
    state = None
    for bit in b.bits:
        state = _label_step(state, bit, b.k)
    c, tau, _ = state
    return Labeling(c, tau)


def _label_step(state, bit: str, k: int):
    """Algorithm 1 on one more vertex: the state after a prefix -> after prefix + bit.

    A state is (labels, tau, opened), None for the empty prefix; opened
    says a 1-bit has come, and until then every vertex is a leading zero.
    """
    c, tau, opened = state or ((), 2 * k, False)
    if bit == "1":
        return c + (tau + 1 - sum(sorted(c)[: k - 1]),), tau, True
    if not opened:
        return c + (2,), tau, False
    heaviest = sum(sorted(c)[1 - k :])
    return (*[2 * v for v in c], 2 * tau + 1 - 2 * heaviest), 2 * tau + 1, True


# ── verification ────────────────────────────────────────────────────────────


class T2Verdict(NamedTuple):
    holds: bool
    # the lightest edge at most tau, else the heaviest non-edge above; first of equal sums
    witness: Edge | None = None


def _probe(h: Hypergraph):
    """Labels c -> (lightest edge sum, heaviest non-edge sum, locate).

    A sum is None when no set of its kind exists; locate(edge) returns the
    lexicographically first edge (or non-edge) at that sum.  While C(n, k)
    <= SCAN_RATIO * (k + 1) * |E| every k-subset is scanned at C speed,
    against the edge flags h.edge_flags() gives.
    Past that the vertices are ranked by (label, -vertex), and the first
    heaviest non-edge T is the top k-set or an elementary down-shift of an
    edge.  An elementary up-shift swaps a member for the next-ranked vertex
    outside the set: it never lowers the sum, and between equal labels it
    moves to a lower vertex, so to a lexicographically smaller set.  If T is
    not the top k-set it has an up-shift, and that is an edge: a non-edge
    would be heavier than T, or as heavy and earlier.
    """
    n, k, edges = h.n, h.k, h.edges
    if comb(n, k) <= SCAN_RATIO * (k + 1) * len(edges):
        is_edge = h.edge_flags()
        non_edge = is_edge.translate(bytes.maketrans(b"\0\1", b"\1\0"))

        def scan(c):
            sums = list(map(sum, combinations(c, k)))
            lo = min(compress(sums, is_edge), default=None)
            hi = max(compress(sums, non_edge), default=None)

            def locate(edge: bool) -> Edge:
                mask, best = (is_edge, lo) if edge else (non_edge, hi)
                hits = map(and_, mask, map(eq, sums, repeat(best)))
                return next(compress(combinations(h.vertices, k), hits))

            return lo, hi, locate

        return scan

    def walk(c):
        order = sorted(h.vertices, key=lambda v: (c[v - 1], -v))
        below = dict(zip(order[1:], order))
        light = {e: sum(c[v - 1] for v in e) for e in edges}
        top = tuple(sorted(order[-k:]))  # n >= k: C(n, k) = 0 takes the scan
        heavy = {} if top in edges else {top: sum(c[v - 1] for v in top)}
        for e, s in light.items():
            for w in e:
                u = below.get(w)
                if u is not None and u not in e:
                    t = tuple(sorted([u if v == w else v for v in e]))
                    if t not in edges:
                        heavy[t] = s - c[w - 1] + c[u - 1]
        lo, hi = min(light.values(), default=None), max(heavy.values(), default=None)
        return lo, hi, lambda edge: min(
            t for t, s in (light if edge else heavy).items() if s == (lo if edge else hi)
        )

    return walk


def verify_t2(h: Hypergraph, labeling: Labeling) -> T2Verdict:
    """Check edge <=> label sum exceeds tau on the lightest edge and the heaviest non-edge."""
    if h.k is None:
        raise ValueError("threshold check needs a k-uniform hypergraph")
    if len(labeling.c) != h.n:
        raise ValueError(f"labeling has {len(labeling.c)} labels for {h.n} vertices")
    lo, hi, locate = _probe(h)(labeling.c)
    for edge, s in ((True, lo), (False, hi)):
        if s is not None and (s > labeling.tau) != edge:
            return T2Verdict(False, locate(edge))
    return T2Verdict(True)


class T3Verdict(NamedTuple):
    holds: bool
    witness: tuple[int, int] | None = None  # incomparable, adjacent in (degree, label) order


def verify_t3(h: Hypergraph) -> T3Verdict:
    """Check that replacement order compares every vertex pair.

    x <= y when every link of x (an edge through x, minus x) that avoids y
    is a link of y.  The swap x -> y maps the edges through x and not y
    injectively onto the edges through y and not x, so x <= y gives
    deg x <= deg y, and with equal degrees that map is a bijection, so it
    gives y <= x too.  The order is a preorder (Isbell's desirability
    relation), so it is total iff x <= y along each consecutive pair of the
    (degree, label) order, by transitivity.  A consecutive pair failing
    x <= y is incomparable: y <= x would force equal degrees, hence x <= y.
    An isolated vertex lies below every vertex, so the chain skips it: O(edges), not O(n).
    """
    if h.k is None:
        raise ValueError("comparability check needs a k-uniform hypergraph")
    links: dict[int, set[Edge]] = {}
    for e in h.edges:
        for i, v in enumerate(e):
            links.setdefault(v, set()).add(e[:i] + e[i + 1 :])
    chain = sorted(links, key=lambda v: (len(links[v]), v))
    for x, y in zip(chain, chain[1:]):
        if not all(y in s for s in links[x] - links[y]):
            return T3Verdict(False, (min(x, y), max(x, y)))
    return T3Verdict(True)


# ── interval structure of the labels ────────────────────────────────────────


class IntervalDecomposition(NamedTuple):
    """Maximal constant runs of a building string, 1-based inclusive."""

    zero_intervals: tuple[tuple[int, int], ...]
    one_intervals: tuple[tuple[int, int], ...]


_RUNS = re.compile("0+|1+")


def intervals(b: BuildingString) -> IntervalDecomposition:
    # a building string opens with a 0-bit, so its maximal runs alternate 0, 1, 0, ...
    runs = tuple((m.start() + 1, m.end()) for m in _RUNS.finditer(b.bits))
    return IntervalDecomposition(runs[::2], runs[1::2])


class MonotonicityVerdict(NamedTuple):
    holds: bool
    violated_clause: str | None = None
    detail: str | None = None


def check_label_monotonicity(b: BuildingString, labeling: Labeling) -> MonotonicityVerdict:
    """Check the interval ordering the label construction is meant to obey.

    In clause order: dominating labels increase across 1-intervals and are
    constant within one; isolated labels are constant on the leading
    0-interval, decrease across later 0-intervals and increase within one;
    finally every dominating label exceeds every isolated label.  The
    across clauses compare consecutive intervals only.  That is exact:
    min <= max inside an interval chains max a1 < min a2 <= max a2 < min a3,
    and likewise down the later 0-intervals, so every pair passes once the
    consecutive ones do.
    """
    c = labeling.c
    if len(c) != b.n:
        raise ValueError(f"labeling has {len(c)} labels for {b.n} vertices")
    spans = [m.span() for m in _RUNS.finditer(b.bits)]
    runs = [c[i:j] for i, j in spans]
    lo, hi = list(map(min, runs)), list(map(max, runs))
    iv = [(i + 1, j) for i, j in spans]
    # the runs alternate 0, 1, 0, ...: run 0 is the leading 0-interval
    ones, later_zeros = range(1, len(runs), 2), range(2, len(runs), 2)
    for i in ones[1:]:
        if not hi[i - 2] < lo[i]:
            return MonotonicityVerdict(
                False, "one-across", f"1-intervals {iv[i - 2]} and {iv[i]} fail to increase"
            )
    for i in ones:
        if lo[i] != hi[i]:
            return MonotonicityVerdict(False, "one-within", f"1-interval {iv[i]} is not constant")
    if lo[0] != hi[0]:
        return MonotonicityVerdict(
            False, "zero-leading", f"leading 0-interval {iv[0]} is not constant"
        )
    for i in later_zeros[1:]:
        if not lo[i - 2] > hi[i]:
            return MonotonicityVerdict(
                False, "zero-across", f"0-intervals {iv[i - 2]} and {iv[i]} fail to decrease"
            )
    for i in later_zeros:
        if any(map(ge, runs[i], runs[i][1:])):
            return MonotonicityVerdict(
                False, "zero-within", f"0-interval {iv[i]} is not strictly increasing"
            )
    if ones and not min(lo[1::2]) > max(hi[::2]):
        return MonotonicityVerdict(
            False, "separation", "some dominating label fails to exceed an isolated one"
        )
    return MonotonicityVerdict(True)


# ── feasibility by an exact integer simplex on the Farkas system ───────────


class FeasibilityVerdict(NamedTuple):
    feasible: bool
    labeling: Labeling | None = None
    # when infeasible: sorted (k-subset, positive weight) pairs that balance
    certificate: tuple[tuple[Edge, int], ...] | None = None


def t2_feasibility(h: Hypergraph) -> FeasibilityVerdict:
    """Decide whether any labeling realizes h as a sum threshold, with evidence.

    The simplex runs on the core: the vertices that lie in edges, numbered
    1..m in order, so its tableau is bounded by the edges and not by the
    declared n.  A labeling of the core extends to h: an isolated vertex
    gets -(|tau| + sum of |c_u|), so every k-set through it sums to at most
    -|tau| <= tau, and every such set is a non-edge.  A certificate of the
    core, numbered back, is one of h, since its sets avoid the isolated
    vertices, and it stays sorted, since the numbering keeps the order.
    Each verdict's evidence is checked on h itself before it is returned,
    and a failed check raises AssertionError.
    """
    if h.k is None:
        raise ValueError("feasibility needs a k-uniform hypergraph")
    core, used = h, sorted({v for e in h.edges for v in e})
    if len(used) < h.n:
        number = {v: i for i, v in enumerate(used, 1)}
        core = Hypergraph(len(used), frozenset(tuple(map(number.get, e)) for e in h.edges), h.k)
    verdict = _simplex(core)
    if verdict.feasible:
        c, tau = verdict.labeling
        labels = [-(abs(tau) + sum(map(abs, c)))] * h.n
        for v, label in zip(used, c):
            labels[v - 1] = label
        lab = Labeling(tuple(labels), tau)
        if not verify_t2(h, lab).holds:
            raise AssertionError(f"simplex witness {lab} fails verify_t2")
        return FeasibilityVerdict(True, lab)
    certificate = tuple((tuple(used[v - 1] for v in s), w) for s, w in verdict.certificate)
    if not _balanced(h, certificate):
        raise AssertionError(f"simplex certificate {certificate} does not balance")
    return FeasibilityVerdict(False, certificate=certificate)


def _simplex(h: Hypergraph) -> FeasibilityVerdict:
    """t2_feasibility's verdict on h, whose evidence the caller checks.

    Scaling a strict solution makes every edge margin at least 1, so h is
    feasible iff x = (c, tau) solves a_S.x >= b_S over all k-subsets S, with
    a_S = (chi_S, -1), b_S = 1 on an edge and a_S = (-chi_S, 1), b_S = 0 on
    a non-edge.  By Farkas' lemma exactly one of that system and
    y >= 0, sum y_S a_S = 0, sum y_S b_S = 1 is solvable.  Phase 1 of the
    simplex method decides the second: n + 2 equations, one column per
    k-subset and one artificial per equation, minimizing the artificials'
    sum.  At optimum 0 the basic y are the certificate: the weighted edges
    and the weighted non-edges count every vertex equally often, have equal
    total weight, and some edge is weighted, so no labeling puts the one
    side above tau and the other at or below it.  At a positive optimum t
    the simplex multipliers (u, t) price every subset at
    -(a_S.u + b_S t) >= 0, so x = -u/t solves the first system; it is read
    off the artificials' reduced costs and divided by its gcd.

    The tableau is fraction-free (Edmonds): integer rows T stand for T/D,
    with D the basis determinant, so by Cramer's rule every entry is an
    integer and the pivot update (p*a - f*b) // D, then D = p, divides
    exactly.  Only the right-hand side and the artificial columns are kept,
    since they hold D times the inverse basis: a subset's column is their
    sum over its k + 2 entries.  Pricing reads -det*u as labels, so the
    least reduced cost is the lightest edge's or the heaviest non-edge's
    (the probe behind verify_t2).  The lexicographically first subset at
    the most negative one enters, and the leaving row is the lexicographic
    minimum of (right-hand side, artificial columns) over its pivot entry.
    Those rows start as the identity and stay lexicographically positive and
    distinct, and each pivot raises the objective row lexicographically, so
    no basis repeats and the method ends (Dantzig, Orden and Wolfe 1955).
    """
    n, probe = h.n, _probe(h)
    # rows: the n vertices, tau, the b row, then the objective; columns: the
    # right-hand side, then the n + 2 artificials
    rows = [[int(i == n + 1)] + [int(i == j) for j in range(n + 2)] for i in range(n + 2)]
    rows.append([-1] + [0] * (n + 2))
    basis: list[Edge | None] = [None] * (n + 2)
    det = 1
    while rows[-1][0]:  # minus det times the artificials' sum
        g = [z - det for z in rows[-1][1:]]  # minus det times (u, t)
        lo, hi, locate = probe(g[:n])
        costs = {}  # least reduced cost of the edges and of the non-edges
        if lo is not None:
            costs[True] = lo + g[n + 1] - g[n]
        if hi is not None:
            costs[False] = g[n] - hi
        cost = min(costs.values(), default=0)
        if cost >= 0:
            scale = gcd(*g[: n + 1]) or 1
            lab = Labeling(tuple(v // scale for v in g[:n]), g[n] // scale)
            return FeasibilityVerdict(True, lab)
        enter = min(locate(edge) for edge, x in costs.items() if x == cost)
        is_edge = enter in h.edges
        sign = 1 if is_edge else -1
        col = [
            sign * (sum(r[v] for v in enter) - r[n + 1]) + is_edge * r[n + 2]
            for r in rows[:-1]
        ] + [cost]
        out = None
        for i, f in enumerate(col[:-1]):
            if f > 0 and (
                out is None or [v * col[out] for v in rows[i]] < [v * f for v in rows[out]]
            ):
                out = i
        p, pivot_row = col[out], rows[out]
        rows = [
            r if r is pivot_row else [(p * a - f * b) // det for a, b in zip(r, pivot_row)]
            for r, f in zip(rows, col)
        ]
        basis[out], det = enter, p
    weights = {s: r[0] for s, r in zip(basis, rows) if s is not None and r[0]}
    scale = gcd(*weights.values())
    certificate = tuple(sorted((s, w // scale) for s, w in weights.items()))
    return FeasibilityVerdict(False, certificate=certificate)


def _balanced(h: Hypergraph, certificate: tuple[tuple[Edge, int], ...]) -> bool:
    """True when the weighted edges and non-edges balance.

    Every weight is positive, both sides meet every vertex equally often,
    and at least one edge is weighted.  Equal total weight follows, since
    every weighted set has k vertices.
    """
    net = [0] * h.n
    edge_weight = 0
    for sub, w in certificate:
        if w <= 0:
            return False
        if sub in h.edges:
            edge_weight += w
        else:
            w = -w
        for v in sub:
            net[v - 1] += w
    return edge_weight > 0 and not any(net)
