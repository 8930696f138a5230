"""Threshold labelings of {0,1}-constructable hypergraphs.

A labeling (c, tau) realizes a k-uniform hypergraph as a sum threshold
when a k-subset is an edge exactly if its label sum exceeds tau.  In a
built hypergraph a k-subset is an edge exactly when its top vertex is a
1-bit, so the label construction walks the building string and sets only
the k-subsets each newcomer tops: a dominating newcomer gets the smallest
label that lifts all of them (the lightest one included) over tau, and an
isolated newcomer doubles everything and gets the largest label that keeps
all of them (the heaviest one included) at or below the new threshold.

The comparability notion checked by verify_t3 is replacement order: x sits
below y when swapping x out for y inside any edge through x (and avoiding
y) lands on an edge again.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import combinations, compress, repeat
from math import comb, gcd, lcm
from operator import lt, ne

from .errors import GuardExceeded
from .hypergraph import BuildingString, Edge, Hypergraph

T2_GUARD = 24
T3_GUARD = 20
FEASIBILITY_GUARD = 5000  # on the number of k-subsets
_FM_ROW_CAP = 100_000


@dataclass(frozen=True)
class Labeling:
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
    overflow.
    """
    k, bits = b.k, b.bits
    lead = len(bits) - len(bits.lstrip("0"))
    c, tau = [2] * lead, 2 * k
    for bit in bits[lead:]:
        if bit == "1":
            c.append(tau + 1 - sum(sorted(c)[: k - 1]))
        else:
            heaviest = sum(sorted(c)[1 - k :])
            c = [2 * v for v in c]
            c.append(2 * tau + 1 - 2 * heaviest)
            tau = 2 * tau + 1
    return Labeling(tuple(c), tau)


# ── verification ────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class T2Verdict:
    holds: bool
    witness: Edge | None = None  # lexicographically first offending k-subset


def verify_t2(h: Hypergraph, labeling: Labeling, guard: bool = True) -> T2Verdict:
    """Check edge <=> label sum exceeds tau, over every k-subset."""
    if h.k is None:
        raise ValueError("threshold check needs a k-uniform hypergraph")
    if len(labeling.c) != h.n:
        raise ValueError(f"labeling has {len(labeling.c)} labels for {h.n} vertices")
    if guard and h.n > T2_GUARD:
        raise GuardExceeded(
            f"threshold check on {h.n} vertices exceeds the guard of {T2_GUARD}"
        )
    # Label sums and edge membership stream in lockstep, both in the
    # lexicographic order of combinations, so no k-subset is ever stored.
    # lt(tau, s), not tau.__lt__: that answers NotImplemented (truthy) when
    # a label is, say, a Fraction.
    k = h.k
    above = map(lt, repeat(labeling.tau), map(sum, combinations(labeling.c, k)))
    is_edge = map(h.edges.__contains__, combinations(h.vertices, k))
    witness = next(compress(combinations(h.vertices, k), map(ne, above, is_edge)), None)
    return T2Verdict(witness is None, witness)


@dataclass(frozen=True)
class T3Verdict:
    holds: bool
    witness: tuple[int, int] | None = None  # first incomparable pair


def verify_t3(h: Hypergraph, guard: bool = True) -> T3Verdict:
    """Check that replacement order compares every vertex pair."""
    if h.k is None:
        raise ValueError("comparability check needs a k-uniform hypergraph")
    if guard and h.n > T3_GUARD:
        raise GuardExceeded(
            f"comparability check on {h.n} vertices exceeds the guard of {T3_GUARD}"
        )
    for x, y in combinations(h.vertices, 2):
        if not (_replaceable(h, x, y) or _replaceable(h, y, x)):
            return T3Verdict(False, (x, y))
    return T3Verdict(True)


def _replaceable(h: Hypergraph, x: int, y: int) -> bool:
    """True when every edge through x avoiding y stays an edge under x -> y."""
    for e in h.edges:
        if x in e and y not in e:
            swapped = tuple(sorted([v for v in e if v != x] + [y]))
            if swapped not in h.edges:
                return False
    return True


# ── interval structure of the labels ────────────────────────────────────────


@dataclass(frozen=True)
class IntervalDecomposition:
    """Maximal constant runs of a building string, 1-based inclusive."""

    zero_intervals: tuple[tuple[int, int], ...]
    one_intervals: tuple[tuple[int, int], ...]

    def ordered_runs(self) -> list[tuple[int, int, int]]:
        """(bit, lo, hi) runs in position order."""
        runs = [(0, lo, hi) for lo, hi in self.zero_intervals]
        runs += [(1, lo, hi) for lo, hi in self.one_intervals]
        return sorted(runs, key=lambda r: r[1])


def intervals(b: BuildingString) -> IntervalDecomposition:
    zeros: list[tuple[int, int]] = []
    ones: list[tuple[int, int]] = []
    bits = b.bits
    lo = 1
    for i in range(2, len(bits) + 2):
        if i > len(bits) or bits[i - 1] != bits[lo - 1]:
            (zeros if bits[lo - 1] == "0" else ones).append((lo, i - 1))
            lo = i
    return IntervalDecomposition(tuple(zeros), tuple(ones))


@dataclass(frozen=True)
class MonotonicityVerdict:
    holds: bool
    violated_clause: str | None = None
    detail: str | None = None


def check_label_monotonicity(b: BuildingString, labeling: Labeling) -> MonotonicityVerdict:
    """Check the interval ordering the label construction is meant to obey.

    In clause order: dominating labels increase across 1-intervals and are
    constant within one; isolated labels are constant on the leading
    0-interval, decrease across later 0-intervals and increase within one;
    finally every dominating label exceeds every isolated label.
    """
    c = labeling.c
    dec = intervals(b)
    ones = dec.one_intervals
    # every building string opens with a 0-bit: its first 1 sits at k or later
    lead, *later_zeros = dec.zero_intervals

    def labels(iv: tuple[int, int]) -> list[int]:
        return list(c[iv[0] - 1 : iv[1]])

    for a, b2 in combinations(ones, 2):
        if not max(labels(a)) < min(labels(b2)):
            return MonotonicityVerdict(
                False, "one-across", f"1-intervals {a} and {b2} fail to increase"
            )
    for iv in ones:
        if len(set(labels(iv))) > 1:
            return MonotonicityVerdict(
                False, "one-within", f"1-interval {iv} is not constant"
            )
    if len(set(labels(lead))) > 1:
        return MonotonicityVerdict(
            False, "zero-leading", f"leading 0-interval {lead} is not constant"
        )
    for a, b2 in combinations(later_zeros, 2):
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


# ── rational feasibility by Fourier-Motzkin elimination ─────────────────────


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    labeling: Labeling | None = None


def t2_feasibility(h: Hypergraph, guard: bool = True) -> FeasibilityVerdict:
    """Decide whether any rational labeling realizes h as a sum threshold.

    Strictness is folded away exactly: scaling a strict solution makes every
    edge margin at least 1, so the system used is sum(S) >= tau + 1 on edges
    and sum(S) <= tau on non-edges.  A feasible system yields a rational
    point which is cleared to integers (scaling preserves both inequality
    families), so the witness is checkable by verify_t2.  guard=False
    lifts both the k-subset guard and the elimination's row cap.
    """
    if h.k is None:
        raise ValueError("feasibility needs a k-uniform hypergraph")
    nsub = comb(h.n, h.k)
    if guard and nsub > FEASIBILITY_GUARD:
        raise GuardExceeded(
            f"{nsub} k-subsets exceed the feasibility guard of {FEASIBILITY_GUARD}"
        )
    nvars = h.n + 1  # c_1..c_n then tau
    rows: list[tuple[tuple[int, ...], int]] = []
    for sub in combinations(h.vertices, h.k):
        a = [0] * nvars
        if sub in h.edges:
            for v in sub:
                a[v - 1] = -1
            a[h.n] = 1
            rows.append((tuple(a), -1))
        else:
            for v in sub:
                a[v - 1] = 1
            a[h.n] = -1
            rows.append((tuple(a), 0))
    point = _fourier_motzkin(rows, nvars, guard)
    if point is None:
        return FeasibilityVerdict(False)
    mult = lcm(*(v.denominator for v in point)) if point else 1
    scaled = [v * mult for v in point]
    c = tuple(int(v) for v in scaled[: h.n])
    tau = int(scaled[h.n])
    return FeasibilityVerdict(True, Labeling(c, tau))


def _fourier_motzkin(
    rows: list[tuple[tuple[int, ...], int]], nvars: int, guard: bool
) -> list[Fraction] | None:
    """Solve a·x <= b over the rationals; a solution vector or None.

    Works on integer rows kept primitive (divided by their gcd).  Each
    elimination step picks the variable minimizing the pos*neg product and
    records the bounding rows so a solution can be rebuilt by walking the
    eliminations backwards, assigning each variable a value between its
    tightest bounds.
    """
    from fractions import Fraction  # late: a cold CLI call skips it
    system = set()
    for a, rhs in rows:
        row = _canonical_row(a, rhs)
        if row is False:
            return None
        if row is not None:
            system.add(row)
    remaining = list(range(nvars))
    stack: list[tuple[int, list, list]] = []
    while remaining:
        var = min(
            remaining,
            key=lambda j: (
                sum(1 for a, _ in system if a[j] > 0)
                * sum(1 for a, _ in system if a[j] < 0),
                j,
            ),
        )
        pos = [r for r in system if r[0][var] > 0]
        neg = [r for r in system if r[0][var] < 0]
        zero = [r for r in system if r[0][var] == 0]
        stack.append((var, pos, neg))
        new = set(zero)
        for ap, bp in pos:
            for an, bn in neg:
                mp, mn = -an[var], ap[var]
                a = tuple(mp * x + mn * y for x, y in zip(ap, an))
                row = _canonical_row(a, mp * bp + mn * bn)
                if row is False:
                    return None
                if row is not None:
                    new.add(row)
                if guard and len(new) > _FM_ROW_CAP:
                    raise GuardExceeded("elimination blow-up; instance too irregular")
        system = new
        remaining.remove(var)
    values: list[Fraction | None] = [None] * nvars
    for var, pos, neg in reversed(stack):
        lowers = []
        uppers = []
        for a, rhs in pos:
            rest = sum(a[i] * values[i] for i in range(nvars) if i != var and a[i])
            uppers.append(Fraction(rhs - rest, a[var]))
        for a, rhs in neg:
            rest = sum(a[i] * values[i] for i in range(nvars) if i != var and a[i])
            lowers.append(Fraction(rhs - rest, a[var]))
        if lowers and uppers:
            values[var] = (max(lowers) + min(uppers)) / 2
        elif lowers:
            values[var] = max(lowers)
        elif uppers:
            values[var] = min(uppers)
        else:
            values[var] = Fraction(0)
    return values  # type: ignore[return-value]


def _canonical_row(
    a: tuple[int, ...], rhs: int
) -> tuple[tuple[int, ...], int] | None | bool:
    """Primitive form of a row; None when trivial, False when contradictory."""
    if all(x == 0 for x in a):
        return False if rhs < 0 else None
    g = gcd(*(abs(x) for x in a), abs(rhs))
    if g > 1:
        a = tuple(x // g for x in a)
        rhs //= g
    return (a, rhs)
