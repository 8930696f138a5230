"""k-uniform hypergraphs and the binary building strings that construct them.

Vertices are labelled 1..n in construction order.  Reading a building
string left to right, bit 0 appends an isolated vertex and bit 1 appends a
dominating vertex v, adding the hyperedge {v} | S for every (k-1)-subset S
of the vertices already present.  A dominating bit therefore needs at least
k-1 predecessors, i.e. the first 1 may appear no earlier than position k.

Antiregular hypergraphs are the special case where, after the leading
zeros, isolated and dominating additions strictly alternate.

BuildingString and Hypergraph are immutable slotted classes that compare,
hash and pickle by value.  They are not dataclasses: every command line
call imports this module, and the dataclasses module (with inspect) plus
the code each decorator generates would cost it about 10 ms.
"""

from __future__ import annotations

import json
from collections.abc import Set
from functools import lru_cache
from itertools import chain, combinations, repeat
from math import comb
from operator import add, itemgetter
from typing import Iterator

Edge = tuple[int, ...]


class _Frozen:
    """Refuses assignment: subclasses set their slots once, in __init__."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class BuildingString(_Frozen):
    """A {0,1} word; position i (1-based) describes how vertex i is added."""

    __slots__ = ("bits", "k")

    def __init__(self, bits: str, k: int) -> None:
        if k < 2:
            raise ValueError("edge size k must be at least 2")
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError("building string must be a nonempty word over {0,1}")
        first = bits.find("1")
        if 0 <= first < k - 1:
            raise ValueError(
                f"dominating vertex at position {first + 1} needs {k - 1} predecessors"
            )
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "k", k)

    def __eq__(self, other: object) -> bool:
        if type(other) is not BuildingString:
            return NotImplemented
        return (self.bits, self.k) == (other.bits, other.k)

    def __hash__(self) -> int:
        return hash((self.bits, self.k))

    def __repr__(self) -> str:
        return f"BuildingString(bits={self.bits!r}, k={self.k!r})"

    def __reduce__(self):
        return BuildingString, (self.bits, self.k)

    @property
    def n(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return self.bits

    @property
    def dominating_positions(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits, start=1) if b == "1")

    def is_antiregular(self) -> bool:
        """True when the word matches the alternating antiregular pattern."""
        connected = self.bits.endswith("1")
        try:
            return self.bits == antiregular_string(self.n, self.k, connected).bits
        except ValueError:
            return False


class _StringEdges(_Frozen, Set):
    """The edges of build_hypergraph(b), never stored: the k-subsets topped by a 1-bit.

    It compares, hashes, prints and pickles as the frozenset of those
    tuples would, and its set operators return frozensets.
    """

    __slots__ = ("_string", "_len")
    _from_iterable = frozenset
    __hash__ = Set._hash

    def __init__(self, b: BuildingString) -> None:
        object.__setattr__(self, "_string", b)
        object.__setattr__(self, "_len", sum(comb(p - 1, b.k - 1) for p in b.dominating_positions))

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Edge]:
        b = self._string
        return chain.from_iterable(_edges_topped_by(p, b.k) for p in b.dominating_positions)

    def __contains__(self, e) -> bool:
        if type(e) is tuple:
            top = 0
            for v in e:  # a strictly increasing tuple of ints: the top-bit test
                if type(v) is not int or v <= top:
                    break
                top = v
            else:
                bits = self._string.bits
                return len(e) == self._string.k and top <= len(bits) and bits[top - 1] == "1"
        # any other probe answers as in a frozenset: a set is looked up as a
        # frozenset, any other unhashable probe raises, and an element can
        # equal only the vertex its hash names
        if isinstance(e, set):
            return False
        hash(e)
        if not isinstance(e, tuple) or type(e) is tuple and all(type(v) is int for v in e):
            return False  # not a tuple, or ints out of order
        t = tuple(map(hash, e))
        return t == e and t in self

    def __repr__(self) -> str:
        return repr(frozenset(self))

    def __reduce__(self):
        return _StringEdges, (self._string,)


class Hypergraph(_Frozen):
    """Vertex set {1..n} plus a set of hyperedges, each a sorted tuple.

    A hypergraph from build_hypergraph keeps its string as _string, and its
    edges are a read-only set view of that string; any other holds a
    frozenset.  k is the declared uniformity; it stays meaningful for
    edgeless hypergraphs and is None when edge sizes are mixed.  Equality,
    hashing and repr read n, edges and k only, never _string.
    """

    __slots__ = ("n", "edges", "k", "_string")

    def __init__(self, n: int, edges: frozenset[Edge] = frozenset(), k: int | None = None) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for e in edges:
            t = tuple(sorted(e))
            if len(set(t)) != len(t):
                raise ValueError(f"edge {e!r} repeats a vertex")
            if t and (t[0] < 1 or t[-1] > n):
                raise ValueError(f"edge {t!r} is not within 1..{n}")
            norm.add(t)
        edges = frozenset(norm)
        if k is not None:
            if k < 1:
                raise ValueError("uniformity must be positive")
            bad = next((e for e in edges if len(e) != k), None)
            if bad is not None:
                raise ValueError(f"edge {bad!r} breaks {k}-uniformity")
        self._set(n, edges, k, None)

    def _set(self, n: int, edges: frozenset[Edge], k: int | None, string) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_string", string)

    @classmethod
    def _unchecked(cls, b: BuildingString) -> "Hypergraph":
        """The hypergraph of b in O(n), for build_hypergraph: its edges are a view of b.

        The view holds sorted k-tuples inside 1..n by construction, so
        __init__'s checks are skipped.  b is kept as _string.
        """
        h = object.__new__(cls)
        h._set(b.n, _StringEdges(b), b.k, b)
        return h

    def __eq__(self, other: object) -> bool:
        if type(other) is not Hypergraph:
            return NotImplemented
        return (self.n, self.edges, self.k) == (other.n, other.edges, other.k)

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.k))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n!r}, edges={self.edges!r}, k={self.k!r})"

    def __reduce__(self):
        if self._string is None:
            return Hypergraph, (self.n, self.edges, self.k)
        return build_hypergraph, (self._string,)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edge_masks(self) -> list[int]:
        """Edges as bitmasks (vertex v -> bit v-1), in increasing order.

        A hypergraph from build_hypergraph reads them off its string: the
        1-bit p adds bit p-1 to the mask of every (k-1)-subset of 1..p-1,
        the construction its edge view iterates.  Any other hypergraph
        converts its stored tuples.  Both list the one edge set, sorted.
        """
        bit = [0] + [1 << i for i in range(self.n)]
        if self._string is not None:
            masks = []
            for p in self._string.dominating_positions:
                masks += map(bit[p].__add__, map(sum, combinations(bit[1:p], self.k - 1)))
            return sorted(masks)
        return sorted([sum(map(bit.__getitem__, e)) for e in self.edges])

    def edge_flags(self) -> bytes:
        """One byte per k-subset in combinations order: 1 on an edge, else 0.

        A hypergraph from build_hypergraph reads them off its string: a
        k-subset is an edge iff its top vertex is a 1-bit, so each subset's
        top, translated through the bits, is its flag.  Up to 256 vertices
        the tops come from a cached byte table; past that, from the subsets
        themselves.  Any other hypergraph looks each k-subset up in its edge set.
        """
        if self._string is None:
            return bytes(map(self.edges.__contains__, combinations(self.vertices, self.k)))
        bits = self._string.bits.encode().translate(_BIT_BYTE)
        if self.n <= 256:
            return _subset_tops(self.n, self.k).translate(bits.ljust(256, b"\0"))
        tops = map(itemgetter(-1), combinations(range(self.n), self.k))
        return bytes(map(bits.__getitem__, tops))


_BIT_BYTE = bytes.maketrans(b"01", b"\0\1")


@lru_cache(maxsize=32)
def _subset_tops(n: int, k: int) -> bytes:
    """Top vertex minus one of each k-subset of 1..n, in combinations order.

    C(n, k) bytes; the probe asks for it only while that is at most a
    constant times the edges it already holds.
    """
    return bytes(map(itemgetter(-1), combinations(range(n), k)))


def edgeless(n: int, k: int | None = None) -> Hypergraph:
    return Hypergraph(n, frozenset(), k)


def antiregular_string(n: int, k: int, connected: bool) -> BuildingString:
    """The building string of the antiregular hypergraph on n vertices.

    Connected form: k-1 or k leading zeros (whichever gives the right
    parity), then alternating 1(01)*.  Disconnected form on more than k
    vertices is the connected string one vertex shorter plus a trailing 0;
    on at most k vertices it is all zeros.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if k < 2:
        raise ValueError("edge size k must be at least 2")
    if connected:
        if n < k:
            raise ValueError("a connected antiregular hypergraph needs at least k vertices")
        z = k - 1 if (n - k) % 2 == 0 else k
        bits = "0" * z + "1" + "01" * ((n - z - 1) // 2)
    elif n <= k:
        bits = "0" * n
    else:
        bits = antiregular_string(n - 1, k, True).bits + "0"
    return BuildingString(bits, k)


def _edges_topped_by(pos: int, k: int) -> Iterator[Edge]:
    """The k-subsets of 1..pos whose top vertex is pos, in combinations order."""
    return map(add, combinations(range(1, pos), k - 1), repeat((pos,)))


def build_hypergraph(b: BuildingString) -> Hypergraph:
    """Run the construction a building string encodes."""
    return Hypergraph._unchecked(b)


def complement_uniform(h: Hypergraph) -> Hypergraph:
    """Complement within the k-subsets of the vertex set."""
    if h.k is None:
        raise ValueError("complement needs a declared uniformity")
    universe = set(combinations(h.vertices, h.k))
    return Hypergraph(h.n, frozenset(universe - h.edges), h.k)


def disjoint_union(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    """Place h2 after h1, shifting its vertex labels by |V(h1)|."""
    shift = h1.n
    edges = set(h1.edges)
    edges.update(tuple(v + shift for v in e) for e in h2.edges)
    if h1.k == h2.k:
        k = h1.k
    elif not h1.edges:
        k = h2.k
    elif not h2.edges:
        k = h1.k
    else:
        k = None
    return Hypergraph(h1.n + h2.n, frozenset(edges), k)


def zykov_k_sum(h1: Hypergraph, h2: Hypergraph, k: int) -> Hypergraph:
    """Disjoint union plus every k-edge meeting h1 in one vertex.

    Adds {v} | W for each vertex v of h1 and each (k-1)-subset W of V(h2).
    Not commutative: the cross edges always take their single vertex from
    the first operand.
    """
    if k < 2:
        raise ValueError("edge size k must be at least 2")
    if h2.n < k - 1:
        raise ValueError("second operand needs at least k-1 vertices")
    base = disjoint_union(h1, h2)
    cross = set(base.edges)
    for v in range(1, h1.n + 1):
        for w in combinations(range(h1.n + 1, h1.n + h2.n + 1), k - 1):
            cross.add((v,) + w)
    uniform = k if all(len(e) == k for e in cross) else None
    return Hypergraph(base.n, frozenset(cross), uniform)


def degree_sequence(h: Hypergraph) -> tuple[int, ...]:
    """Vertex degrees in label order 1..n."""
    counts = [0] * h.n
    for e in h.edges:
        for v in e:
            counts[v - 1] += 1
    return tuple(counts)


def recognize_zero_one_constructable(h: Hypergraph) -> BuildingString | None:
    """Recover the building string of h, or None when no construction exists.

    In a built hypergraph a k-subset is an edge exactly when its largest
    vertex is a 1-bit, so the only candidate string has a 1 at the top
    vertex e[-1] of every edge e and 0 elsewhere.  Its hypergraph holds
    every edge of h, because each edge's top is a 1-bit, plus C(p-1, k-1)
    edges per 1-bit p in all.  The two are therefore equal exactly when h
    has that many edges, and no edge set needs building or comparing.
    Tops are at least k, so the candidate never breaks the position rule.
    """
    if h.k is None:
        raise ValueError("recognition needs a k-uniform hypergraph")
    if h.n < 1:
        raise ValueError("recognition needs at least one vertex")
    if h.k < 2:
        raise ValueError(f"recognition needs k >= 2, not k={h.k}")
    tops = {e[-1] for e in h.edges}
    if len(h.edges) != sum(comb(p - 1, h.k - 1) for p in tops):
        return None
    return BuildingString("".join("1" if v in tops else "0" for v in h.vertices), h.k)


# ── JSON interchange ────────────────────────────────────────────────────────


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {
        "k": h.k,
        "n": h.n,
        "edges": [list(e) for e in sorted(h.edges)],
    }


def hypergraph_from_json(obj: dict | str) -> Hypergraph:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("hypergraph JSON must be an object")
    try:
        n = _json_int(obj["n"], "n")
        edges = frozenset(tuple(_json_int(v, "a vertex") for v in e) for e in obj["edges"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed hypergraph JSON: {exc}") from exc
    k = obj.get("k")
    return Hypergraph(n, edges, None if k is None else _json_int(k, "k"))


def _json_int(value, what: str) -> int:
    """An integer from JSON; floats, booleans and strings are refused, not cast."""
    if type(value) is not int:
        raise ValueError(f"hypergraph JSON: {what} must be an integer, not {value!r}")
    return value
