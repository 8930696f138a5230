"""Inputs, program calls and answer checks of the four workloads.

A query reaches the program only through ``clock.call``, so its latency is
the time spent inside the program; input generation and the checks that
follow are not counted.  Every query checks each answer against an oracle
from ``oracles`` or against another route of the program, and raises
``WrongAnswer`` on a mismatch.  A query returns ``(answer, refused)``:
``answer`` is what goes into the workload's digest, and ``refused`` is true
when the program declined the instance inside its own size guard.

Each workload is a stream of rounds.  A round holds the same sizes every
time, and a run ends only at the end of a round, so every run sees the same
mix of sizes; the inputs of each size are drawn from ``random.Random(seed)``.
Strings and hypergraphs do not repeat within a stream, because
``ipoly_trinks`` memoizes for the life of the process.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from functools import partial
from itertools import combinations
from math import comb
from pathlib import Path

import antiregular as ar
from antiregular.errors import GuardExceeded
from antiregular.sweep import antiregular_agreement_failures, t2_soundness_failures

import oracles

ROOT = Path(__file__).resolve().parent.parent


class WrongAnswer(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def deal(rng: random.Random, items: list):
    """Endless stream of items: each full cycle is a fresh shuffle."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def random_string(rng: random.Random, n: int, k: int, ones: float, seen: set) -> str:
    """A building string whose first 1-bit is vertex k and whose later bits
    are 1 in a random `ones` share of the positions.

    Fixing the share, rather than drawing every bit, keeps the work per
    string of one size within a narrow band, so that a run's total work
    does not depend much on the seed.
    """
    m = n - k
    for _ in range(10000):
        tail = ["1"] * round(ones * m) + ["0"] * (m - round(ones * m))
        rng.shuffle(tail)
        bits = "0" * (k - 1) + "1" + "".join(tail)
        if (bits, k) not in seen:
            seen.add((bits, k))
            return bits
    raise RuntimeError(f"no unseen string left for n={n} k={k}")


# ── poly ────────────────────────────────────────────────────────────────────


# 8 brute-force strings, 8 dense deletion-only strings and 9 antiregular
# instances per round; the sizes are the same in every round.  The
# antiregular instances small enough for the deletion recursion (n <= 24)
# take their sizes in a fixed order, because that recursion costs them from
# milliseconds to most of a second; the others draw n at random.
POLY_BRUTE = [(n, k) for n in range(14, 18) for k in (3, 4)]
POLY_DENSE = [(n, k) for n in (21, 24, 27, 30) for k in (3, 4)]
POLY_ANTI = [(lo, hi, k) for lo, hi in ((20, 24), (25, 90), (91, 160)) for k in (3, 4, 5)]


def poly_rounds(seed: int):
    rng = random.Random(seed)
    seen: set = set()
    anti = {}
    for lo, hi, k in POLY_ANTI:
        sizes = [(n, k, c) for n in range(lo, hi + 1) for c in (False, True)]
        anti[lo, hi, k] = itertools.cycle(sizes) if hi <= 24 else deal(rng, sizes)
    while True:
        brute = [
            partial(poly_string_query, random_string(rng, n, k, 1 / 2, seen), k, True)
            for n, k in POLY_BRUTE
        ]
        dense = [
            partial(poly_string_query, random_string(rng, n, k, 3 / 4, seen), k, False)
            for n, k in POLY_DENSE
        ]
        structural = [partial(poly_antiregular_query, *next(anti[key])) for key in POLY_ANTI]
        yield _interleave(brute, dense, structural)


def _interleave(*groups: list) -> list:
    out = []
    for i in range(max(map(len, groups))):
        out += [g[i] for g in groups if i < len(g)]
    return out


def poly_string_query(bits: str, k: int, brute: bool, clock) -> tuple:
    b = ar.BuildingString(bits, k)
    h = clock.call("hypergraph.build", ar.build_hypergraph, b)
    clock.counts["hypergraph.edges_built"] += len(h.edges)
    routes = {}
    if brute:
        routes["brute"] = clock.call("kernels.counts", ar.ipoly_bruteforce, h)
        clock.counts["kernels.subsets"] += 1 << h.n
    routes["deletion"] = clock.call("ipoly.deletion", ar.ipoly_trinks, h)
    clock.counts["ipoly.deletion_calls"] += 1
    return _check_poly(clock, bits, k, routes, len(h.edges))


def poly_antiregular_query(n: int, k: int, connected: bool, clock) -> tuple:
    bits = ar.antiregular_string(n, k, connected).bits
    expect(bits == oracles.antiregular_bits(n, k, connected), f"antiregular string n={n} k={k}")
    routes = {
        "recurrence": clock.call(
            "ipoly.structural", ar.ipoly_antiregular_recurrence, n, k, connected
        ),
        "semiclosed": clock.call("ipoly.structural", ar.ipoly_semiclosed, n, k, connected),
    }
    if k == 3:
        routes["closed"] = clock.call("ipoly.structural", ar.ipoly_k3_closed, n, connected)
    edges = None
    if n <= 24:
        h = clock.call("hypergraph.build", ar.build_hypergraph, ar.BuildingString(bits, k))
        edges = len(h.edges)
        clock.counts["hypergraph.edges_built"] += edges
        routes["deletion"] = clock.call("ipoly.deletion", ar.ipoly_trinks, h)
        clock.counts["ipoly.deletion_calls"] += 1
    return _check_poly(clock, bits, k, routes, edges)


def _check_poly(clock, bits: str, k: int, routes: dict, edges: int | None) -> tuple:
    first = next(iter(routes.values()))
    report = clock.call("ipoly.logconcave", ar.is_log_concave, first)
    expected = oracles.string_ipoly(bits, k)
    if edges is not None:
        expect(edges == oracles.string_edge_count(bits, k), f"edge count of {bits} k={k}")
    for name, p in routes.items():
        expect(p.coeffs == expected, f"{name} polynomial of {bits} k={k}")
    holds, where = oracles.log_concave(expected)
    expect((report.holds, report.first_violation) == (holds, where), f"log-concavity of {bits}")
    return [bits, k, [str(a) for a in expected], holds], False


# ── threshold ───────────────────────────────────────────────────────────────

# 15 labelled strings, 3 label-made threshold hypergraphs and 2 random
# hypergraphs per round.  The strings take the same 15 sizes every round;
# the small hypergraphs cycle through their 8 sizes.
THRESHOLD_STRINGS = [(n, k) for n in (14, 17, 20, 22, 24) for k in (3, 4, 5)]
THRESHOLD_SMALL = [(n, k) for n in range(7, 11) for k in (3, 4)]


def threshold_rounds(seed: int):
    rng = random.Random(seed)
    seen: set = set()
    labelled_sizes = itertools.cycle(THRESHOLD_SMALL)
    random_sizes = itertools.cycle(THRESHOLD_SMALL)
    while True:
        strings = [
            partial(threshold_string_query, random_string(rng, n, k, 1 / 2, seen), k)
            for n, k in THRESHOLD_STRINGS
        ]
        feasible = [
            partial(feasible_query, *_label_hypergraph(rng, *next(labelled_sizes), seen))
            for _ in range(3)
        ]
        infeasible = [
            partial(infeasible_query, *_random_hypergraph(rng, *next(random_sizes), seen))
            for _ in range(2)
        ]
        yield _interleave(strings[:5], feasible, strings[5:10], infeasible, strings[10:])


def _label_hypergraph(rng, n: int, k: int, seen: set):
    """A threshold hypergraph: random labels, threshold at a random subset's sum."""
    while True:
        c = [rng.randint(1, 4 * n) for _ in range(n)]
        subsets = list(combinations(range(1, n + 1), k))
        tau = sum(c[v - 1] for v in rng.choice(subsets))
        edges = frozenset(s for s in subsets if sum(c[v - 1] for v in s) > tau)
        if (n, k, edges) not in seen:
            seen.add((n, k, edges))
            return n, k, edges


def _random_hypergraph(rng, n: int, k: int, seen: set):
    """Each k-subset is an edge with probability 1/2."""
    while True:
        edges = frozenset(s for s in combinations(range(1, n + 1), k) if rng.random() < 0.5)
        if (n, k, edges) not in seen:
            seen.add((n, k, edges))
            return n, k, edges


def threshold_string_query(bits: str, k: int, clock) -> tuple:
    n = len(bits)
    b = ar.BuildingString(bits, k)
    h = clock.call("hypergraph.build", ar.build_hypergraph, b)
    clock.counts["hypergraph.edges_built"] += len(h.edges)
    lab = clock.call("threshold.label", ar.algorithm1_labels, b)
    t2 = clock.call("threshold.verify_t2", ar.verify_t2, h, lab)
    clock.counts["threshold.subsets_checked"] += comb(n, k)
    mono = clock.call("threshold.monotonicity", ar.check_label_monotonicity, b, lab)
    degrees = clock.call("hypergraph.degrees", ar.degree_sequence, h)
    recognized = t3 = None
    if n <= 20:
        recognized = clock.call("hypergraph.recognize", ar.recognize_zero_one_constructable, h)
        t3 = clock.call("threshold.verify_t3", ar.verify_t3, h)

    expect(len(h.edges) == oracles.string_edge_count(bits, k), f"edge count of {bits} k={k}")
    expect(oracles.string_labels_realize(bits, k, list(lab.c), lab.tau), f"labels of {bits} k={k}")
    expect(t2.holds, f"verify_t2 rejects the labels of {bits} k={k}")
    expect(mono.holds, f"monotonicity clause {mono.violated_clause} on {bits} k={k}")
    expect(list(degrees) == oracles.string_degrees(bits, k), f"degrees of {bits} k={k}")
    if n <= 20:
        expect(recognized is not None and recognized.bits == bits, f"recognition of {bits} k={k}")
        expect(t3.holds, f"verify_t3 rejects the threshold hypergraph of {bits} k={k}")
    answer = [bits, k, [str(v) for v in lab.c], str(lab.tau), list(degrees)]
    return answer, False


def feasible_query(n: int, k: int, edges: frozenset, clock) -> tuple:
    """A threshold hypergraph must be feasible, with a witness that checks."""
    h = ar.Hypergraph(n, edges, k)
    clock.counts["threshold.feasibility_attempted"] += 1
    try:
        verdict = clock.call("threshold.feasibility", ar.t2_feasibility, h)
    except GuardExceeded:
        return None, True
    clock.counts["threshold.feasibility_decided"] += 1
    expect(verdict.feasible, f"threshold hypergraph n={n} k={k} reported infeasible")
    t2 = clock.call("threshold.verify_t2", ar.verify_t2, h, verdict.labeling)
    clock.counts["threshold.subsets_checked"] += comb(n, k)
    lab = verdict.labeling
    expect(t2.holds, f"verify_t2 rejects the feasibility witness n={n} k={k}")
    expect(oracles.labels_realize(n, k, set(edges), list(lab.c), lab.tau), "feasibility witness")
    return None, False


def infeasible_query(n: int, k: int, edges: frozenset, clock) -> tuple:
    """A random hypergraph: an infeasible verdict needs verify_t3 to fail."""
    h = ar.Hypergraph(n, edges, k)
    clock.counts["threshold.feasibility_attempted"] += 1
    try:
        verdict = clock.call("threshold.feasibility", ar.t2_feasibility, h)
    except GuardExceeded:
        verdict = None
    t3 = clock.call("threshold.verify_t3", ar.verify_t3, h)
    if t3.witness is not None:
        expect(oracles.incomparable(set(edges), *t3.witness), f"verify_t3 witness {t3.witness}")
    else:
        expect(all(not oracles.incomparable(set(edges), x, y)
                   for x, y in combinations(range(1, n + 1), 2)), "verify_t3 holds wrongly")
    if verdict is None:
        return [t3.witness and list(t3.witness)], True
    clock.counts["threshold.feasibility_decided"] += 1
    if verdict.feasible:
        lab = verdict.labeling
        expect(oracles.labels_realize(n, k, set(edges), list(lab.c), lab.tau), "feasibility witness")
    else:
        expect(not t3.holds, f"infeasible verdict on a comparable hypergraph n={n} k={k}")
    return [t3.witness and list(t3.witness)], False


# ── cli-cold ────────────────────────────────────────────────────────────────

CLI_COMMANDS = (
    "gen", "build", "ipoly", "logconcave", "label",
    "verify-t2", "verify-t3", "degrees", "feasible-t2", "recognize",
)


def cli_env() -> dict:
    """Environment for a cold CLI process that runs against src/ uninstalled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(Path(__file__).parent / "rsshook")])
    return env


def cli_rounds(seed: int, workdir: Path, per_command: int = 16):
    """Writes the input files, then yields rounds of one call per command."""
    rng = random.Random(seed)
    seen: dict = {cmd: set() for cmd in CLI_COMMANDS}
    workdir.mkdir(parents=True, exist_ok=True)
    rounds = [
        [
            partial(cli_query, cmd, *_cli_spec(rng, cmd, seen[cmd], workdir / f"{cmd}-{i}.json"))
            for cmd in CLI_COMMANDS
        ]
        for i in range(per_command)
    ]
    yield from itertools.cycle(rounds)


def _cli_spec(rng, cmd: str, seen: set, path: Path) -> tuple[list[str], dict]:
    k = rng.choice((3, 4))
    if cmd == "gen":
        n = rng.randint(6, 16)
        connected = rng.random() < 0.5
        args = ["gen", "--n", str(n), "--k", str(k)] + (["--connected"] if connected else [])
        return args, {"string": oracles.antiregular_bits(n, k, connected), "k": k, "n": n,
                      "connected": connected}
    if cmd == "feasible-t2":
        n, edges = _label_hypergraph(rng, rng.randint(6, 7), 3, seen)[0::2]
        path.write_text(json.dumps({"k": 3, "n": n, "edges": [list(e) for e in sorted(edges)]}))
        return ["feasible-t2", "--file", str(path)], {"n": n, "k": 3, "edges": set(edges)}
    n = rng.randint(10, 14)
    bits = random_string(rng, n, k, 1 / 2, seen)
    if cmd in ("verify-t3", "recognize"):
        edges = oracles.string_edges(bits, k)
        path.write_text(json.dumps({"k": k, "n": n, "edges": edges}))
        return [cmd, "--file", str(path)], {"bits": bits, "k": k}
    args = [cmd, "--string", bits, "--k", str(k)]
    if cmd == "verify-t2":
        args += ["--labels", "auto"]
    return args, {"bits": bits, "k": k}


def cli_query(cmd: str, args: list[str], spec: dict, clock) -> tuple:
    proc = clock.call(
        "cli." + cmd, subprocess.run,
        [sys.executable, "-m", "antiregular.cli", *args],
        capture_output=True, text=True, env=cli_env(), cwd=ROOT,
    )
    stderr, _, peak = proc.stderr.rpartition("perfbench-vmhwm-kb ")
    clock.counts["cli.peak_rss_kb"] = max(clock.counts["cli.peak_rss_kb"], int(peak))
    if proc.returncode == 3:
        return [cmd, 3], True
    # logconcave exits 1 when the property fails; its output is checked below
    ok_codes = (0, 1) if cmd == "logconcave" else (0,)
    expect(proc.returncode in ok_codes, f"{' '.join(args)} exited {proc.returncode}: {stderr.strip()}")
    out = json.loads(proc.stdout)
    if cmd == "gen":
        expect(out == spec, f"{' '.join(args)} printed {out}")
    elif cmd == "feasible-t2":
        expect(out["feasible"], f"{' '.join(args)}: threshold hypergraph reported infeasible")
        c, tau = [int(v) for v in out["c"]], int(out["tau"])
        expect(oracles.labels_realize(spec["n"], 3, spec["edges"], c, tau), "feasible-t2 witness")
        return [cmd, out["feasible"]], False
    else:
        _check_string_command(cmd, args, spec["bits"], spec["k"], out)
    return [cmd, proc.returncode, out], False


def _check_string_command(cmd: str, args: list[str], bits: str, k: int, out: dict) -> None:
    what = " ".join(args)
    if cmd == "build":
        expect(out == {"k": k, "n": len(bits), "edges": oracles.string_edges(bits, k)}, what)
    elif cmd == "ipoly":
        expected = [str(a) for a in oracles.string_ipoly(bits, k)]
        expect(out["agree"] and all(p == expected for p in out["methods"].values()), what)
    elif cmd == "logconcave":
        holds, where = oracles.log_concave(oracles.string_ipoly(bits, k))
        witnesses = [] if holds else [{"string": bits, "index": where}]
        expect(out == {"k": k, "checked": 1, "holds": holds, "witnesses": witnesses}, what)
    elif cmd == "label":
        c, tau = [int(v) for v in out["c"]], int(out["tau"])
        expect(oracles.string_labels_realize(bits, k, c, tau), what)
    elif cmd in ("verify-t2", "verify-t3"):
        expect(out == {"holds": True}, what)
    elif cmd == "degrees":
        expect(out["degrees"] == [str(d) for d in oracles.string_degrees(bits, k)], what)
    elif cmd == "recognize":
        expect(out == {"constructable": True, "string": bits, "k": k}, what)


# ── sweep ───────────────────────────────────────────────────────────────────

SWEEP_K_MAX, SWEEP_N_MAX = 5, 13


def sweep_tasks() -> list[tuple[str, int, int]]:
    """The per-(k, n) checks run_sweep performs, in its order."""
    ks = range(2, SWEEP_K_MAX + 1)
    tasks = [("agree", k, n) for k in ks for n in range(1, SWEEP_N_MAX + 1)]
    return tasks + [("t2", k, n) for k in ks for n in range(k, SWEEP_N_MAX + 1)]


def sweep_instances() -> tuple[int, int]:
    """(polynomial, string) instance counts, counted without the program.

    An antiregular (k, n) has a connected and a disconnected variant once
    n >= k; the constructable strings of length n put their first 1-bit at
    some f in k..n and leave the n-f later bits free.
    """
    poly = strings = 0
    for kind, k, n in sweep_tasks():
        if kind == "agree":
            poly += 1 if n < k else 2
        else:
            strings += 2 ** (n - k + 1) - 1
    return poly, strings


def sweep_query(workers: int | None, clock) -> tuple:
    report = clock.call("sweep.run", ar.run_sweep, SWEEP_K_MAX, SWEEP_N_MAX, workers)
    expect(report.ok, f"sweep failures: {report.failures[:5]}")
    counts = (report.polynomial_instances, report.string_instances)
    expect(counts == sweep_instances(), f"sweep instance counts {counts}")
    return [*counts, report.failures], False


def sweep_task(kind: str, k: int, n: int) -> list[str]:
    """One per-(k, n) check of the sweep, called directly."""
    if kind == "agree":
        return antiregular_agreement_failures(k, n)
    return t2_soundness_failures(k, n)
