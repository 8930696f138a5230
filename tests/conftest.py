from __future__ import annotations

import io
import os
import pickle
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import strategies as st

import antiregular
from antiregular import BuildingString, Hypergraph
from antiregular.cli import main


@st.composite
def building_strings(draw, min_k: int = 2, max_k: int = 5, max_n: int = 10):
    """Constructable strings with at least one dominating vertex."""
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(k, max(max_n, k)))
    first = draw(st.integers(k, n))
    tail = draw(st.text(alphabet="01", min_size=n - first, max_size=n - first))
    return BuildingString("0" * (first - 1) + "1" + tail, k)


def reference_edges(b: BuildingString) -> frozenset:
    """The construction run by hand: {v} | S for each 1-bit v and (k-1)-subset S of 1..v-1.

    A frozenset of sorted tuples, made without the program's edge view or
    edge masks, for the tests that check those against it.
    """
    ones = [v for v, bit in enumerate(b.bits, 1) if bit == "1"]
    return frozenset(s + (v,) for v in ones for s in combinations(range(1, v), b.k - 1))


def reference_twin(b: BuildingString) -> Hypergraph:
    """The hypergraph of b made from reference_edges, so it holds plain tuples."""
    return Hypergraph(b.n, reference_edges(b), b.k)


@st.composite
def uniform_hypergraphs(draw, min_k: int = 2, max_k: int = 4, max_n: int = 7):
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(k, max_n))
    universe = list(combinations(range(1, n + 1), k))
    edges = draw(st.sets(st.sampled_from(universe)))
    return Hypergraph(n, frozenset(edges), k)


@st.composite
def mixed_hypergraphs(draw, max_n: int = 9):
    """Hypergraphs with edges of mixed sizes, some containing others."""
    n = draw(st.integers(1, max_n))
    edge = st.sets(st.integers(1, n), min_size=1, max_size=min(n, 5)).map(
        lambda vs: tuple(sorted(vs))
    )
    return Hypergraph(n, frozenset(draw(st.lists(edge, max_size=14))))


def fresh_interpreter(code: str, cwd=None) -> str:
    """stdout of `code` run in a new interpreter that imports this checkout."""
    src = str(Path(antiregular.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def invoke(args, env=None) -> SimpleNamespace:
    """Run the CLI in this process: its exit_code, stdout and stderr.

    The program is named "main" in usage lines, as the frozen outputs record.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args), prog_name="main")
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue())


def assert_frozen_record(make, field: str, hashable: bool = True) -> None:
    """Pin the value behaviour of a frozen result class.

    make() builds a fresh instance, equal to the last, on each call.  Equal
    instances hash alike (a record holding a dict is unhashable), no field
    can be assigned or deleted, no new name can be assigned, and pickling
    round-trips.
    """
    a, b = make(), make()
    assert a is not b and a == b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    again = pickle.loads(pickle.dumps(a))
    assert type(again) is type(a) and again == a
