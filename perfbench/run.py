"""Layered benchmark of the antiregular library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/
and never installed.  --workload all runs every workload in turn, each in a
fresh interpreter.  Workloads (README.md says why each exists):

  poly       independence polynomials by every route that applies
  threshold  labels, verify-t2/t3, recognition and exact feasibility
  cli-cold   one cold `python -m antiregular.cli` process per call
  sweep      run_sweep(5, 13) at the default worker count

Each is a closed loop with one client.  With --trace 0 the workload runs for
--seconds (and at least 100 queries, so the 90th percentile has 10 samples
beyond it) and the end-to-end metrics are reported; their times are scaled
by a reference timed where the queries run, because the speed of a shared
host drifts by more than the bounds.  With --trace 1 a
fixed-size traced pass of every workload runs, whichever is named, so each
per-layer metric always comes from the same inputs for a seed and its
counters repeat exactly; --seconds does not apply.

Every answer is checked against an oracle, and the answers to a fixed set of
inputs must hash to the digest in golden.json.  A wrong answer or a digest
mismatch prints the result with "correct": false and exits 1.  Machine
facts, the run's answer digest and, when traced, every span go to
.perfbench/<workload>-seed<N>-trace<T>.json.  The last stdout line is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("poly", "threshold", "cli-cold", "sweep")
MIN_QUERIES = 100
SETUP_REPEATS = 7
GOLDEN_SEED = 0
GOLDEN_QUERIES = {"poly": 6, "threshold": 20, "cli-cold": 10}
TRACE_ROUNDS = {"poly": 2, "threshold": 5, "cli-cold": 2}
CLI_PROBES = 5
CALIBRATE_EVERY = 0.5
SMOOTH_S = 2.0

# metric name -> unit, as BENCHMARK.json declares them
UNITS = {
    m["name"]: m["unit"]
    for kind in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
}


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def import_span(module: str) -> tuple[float, float]:
    """perf_counter before and after importing module in a fresh interpreter."""
    code = (
        "from time import perf_counter as p; t = p(); "
        f"import {module}; print(t, p())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=child_env(), cwd=ROOT, check=True,
    ).stdout.split()
    return float(out[0]), float(out[1])


def children_reference_s(count: int) -> float:
    """Wall time of `count` fresh interpreters, side by side, each doing the reference work."""
    code = "import clock; clock.reference_work()"
    t0 = perf_counter()
    procs = [subprocess.Popen([sys.executable, "-c", code], env=child_env(), cwd=ROOT)
             for _ in range(count)]
    if any([proc.wait() for proc in procs]):
        raise RuntimeError("a reference interpreter failed")
    return perf_counter() - t0


def vmhwm_kb() -> int:
    """Peak resident memory of this process.

    Not getrusage: its figure starts from the high-water mark of the process
    that started this one.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[8]


class Run:
    """What one closed loop over a workload's rounds measured."""

    def __init__(self):
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.refused = 0
        self.digest = hashlib.sha256()
        self.first_answer = None
        self.rss_kb: dict[str, int] = {}
        self.reference: list[tuple[float, float]] = []  # (when, reference_work() time)

    def scaled_latencies(self, nominal_s: float) -> list[float]:
        """Each latency times nominal_s over the reference time around it.

        The reference time is the mean of the calibrations within SMOOTH_S
        seconds of the query's start, so a query that ran while the host was
        slow is scaled down by as much as the reference slowed, and the noise
        of any one calibration is averaged out.
        """
        when = [t for t, _ in self.reference]
        out = []
        for t0, lat in zip(self.starts, self.latencies):
            lo = bisect.bisect_left(when, t0 - SMOOTH_S)
            hi = max(bisect.bisect_right(when, t0 + SMOOTH_S), lo + 2)
            ref = statistics.mean(r for _, r in self.reference[lo:hi])
            out.append(lat * nominal_s / ref)
        return out


def run_rounds(rounds, clock, seconds: float, min_queries: int,
               max_queries: int | None = None, reference=None) -> Run:
    """Closed loop over whole rounds.

    Without max_queries it stops at the first round boundary after both
    `seconds` and `min_queries` are reached.  The peak RSS is read when
    min_queries is first reached, so that it covers the same work however
    fast the host ran.  With a reference, a function returning the time of
    some fixed work, it is timed between queries at least every
    CALIBRATE_EVERY seconds.
    """
    run = Run()
    start = perf_counter()
    if reference:
        run.reference.append((perf_counter(), reference()))
    for round_ in rounds:
        done = len(run.latencies)
        if done >= min_queries and not run.rss_kb:
            run.rss_kb = {
                "self": vmhwm_kb(),
                "cli": clock.counts["cli.peak_rss_kb"],
                "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            }
        if max_queries is None and done >= min_queries and perf_counter() - start >= seconds:
            break
        for query in round_:
            if max_queries is not None and len(run.latencies) >= max_queries:
                return run
            if reference and perf_counter() - run.reference[-1][0] >= CALIBRATE_EVERY:
                run.reference.append((perf_counter(), reference()))
            clock.query = len(run.latencies)
            before = clock.busy
            started = perf_counter()
            answer, was_refused = query(clock)
            run.latencies.append(clock.busy - before)
            run.starts.append(started)
            run.refused += was_refused
            run.digest.update(json.dumps(answer).encode())
            if len(run.latencies) == 1:
                run.first_answer = answer
    if reference:
        run.reference.append((perf_counter(), reference()))
    return run


def make_rounds(workload: str, seed: int, tag: str):
    import workloads as wl

    if workload == "poly":
        return wl.poly_rounds(seed)
    if workload == "threshold":
        return wl.threshold_rounds(seed)
    if workload == "cli-cold":
        return wl.cli_rounds(seed, WORK / f"cli-{tag}-{seed}")
    return itertools.repeat([partial(wl.sweep_query, None)])


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics plus what goes into the result file."""
    import workloads as wl
    from antiregular.sweep import default_workers
    from clock import CHILDREN_REFERENCE_S, REFERENCE_S, Clock, reference_work

    # The reference runs where the queries run: in this process for poly and
    # threshold, in one fresh interpreter for the CLI calls, and in one fresh
    # interpreter per pool worker, side by side, for the sweep.  Side by side
    # they took about as long as one after another on the 2-CPU host.
    workers = default_workers()
    reference, nominal_s = {
        "poly": (reference_work, REFERENCE_S),
        "threshold": (reference_work, REFERENCE_S),
        "cli-cold": (partial(children_reference_s, 1), CHILDREN_REFERENCE_S),
        "sweep": (partial(children_reference_s, workers), workers * CHILDREN_REFERENCE_S),
    }[workload]
    sweep = workload == "sweep"
    run = run_rounds(make_rounds(workload, seed, "run"), Clock(trace=False), seconds,
                     1 if sweep else MIN_QUERIES, reference=reference)
    per_query = sum(wl.sweep_instances()) if sweep else 1
    who = {"cli-cold": "cli", "sweep": "children"}.get(workload, "self")
    n = len(run.latencies)

    def timings(lat: list[float]) -> dict:
        return {
            "query_p50_s": statistics.median(lat),
            "query_p90_s": p90(lat) if n > 1 else lat[0],
            "queries_per_s": per_query * n / sum(lat),
        }

    metrics = timings(run.scaled_latencies(nominal_s))
    metrics["answered_frac"] = (n - run.refused) / n
    metrics["peak_rss_mb"] = run.rss_kb[who] / 1024
    info = {
        "queries": n,
        "refused": run.refused,
        "failed_frac": run.refused / n,
        "answers_digest": run.digest.hexdigest(),
        "first_answer": run.first_answer,
        "unscaled": timings(run.latencies),
        "reference_s": [r for _, r in run.reference],
    }
    return metrics, info


def traced_passes(seed: int) -> tuple[dict, dict]:
    """Fixed-size traced pass of every workload; per-layer metrics."""
    import workloads as wl
    from antiregular.sweep import default_workers
    from clock import Clock, span_overhead_s

    clock = Clock(trace=True)
    attempted = refused = 0
    wall = perf_counter()
    qid = itertools.count()
    for workload in ("poly", "threshold", "cli-cold"):
        rounds = make_rounds(workload, seed, "trace")
        for query in itertools.chain(*itertools.islice(rounds, TRACE_ROUNDS[workload])):
            clock.query = next(qid)
            with clock.span(workload + ".query"):
                _, was_refused = query(clock)
            attempted += 1
            refused += was_refused
    for _ in range(CLI_PROBES):
        clock.query = next(qid)
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT)
        clock.add_span("cli.interpreter", t0, perf_counter())
        clock.add_span("cli.import", *import_span("antiregular.cli"))

    workers = default_workers()
    for args in (["run", str(workers)], ["run", "1"], ["tasks"]):
        clock.query = next(qid)
        out = subprocess.run(
            [sys.executable, str(HERE / "sweep_child.py"), *args], capture_output=True,
            text=True, env=child_env(), cwd=ROOT, check=True,
        )
        piece = json.loads(out.stdout)
        for s in piece["spans"]:
            name = "sweep.run_w1" if args == ["run", "1"] else s["name"]
            clock.add_span(name, s["start"], s["end"])
        attempted += 1
        if args[0] == "run":
            sweep_answer = piece["answer"]
    wall = perf_counter() - wall

    self_s = clock.self_times()
    total = {name: sum(v) for name, v in self_s.items()}
    counts = clock.counts
    m = {
        "hypergraph.build_s": total.get("hypergraph.build", 0.0),
        "hypergraph.edges_built": counts["hypergraph.edges_built"],
        "hypergraph.recognize_s": total.get("hypergraph.recognize", 0.0),
        "hypergraph.degrees_s": total.get("hypergraph.degrees", 0.0),
        "kernels.counts_s": total.get("kernels.counts", 0.0),
        "kernels.subsets": counts["kernels.subsets"],
        "ipoly.deletion_s": total.get("ipoly.deletion", 0.0),
        "ipoly.deletion_calls": counts["ipoly.deletion_calls"],
        "ipoly.structural_s": total.get("ipoly.structural", 0.0),
        "ipoly.logconcave_s": total.get("ipoly.logconcave", 0.0),
        "threshold.label_s": total.get("threshold.label", 0.0),
        "threshold.verify_t2_s": total.get("threshold.verify_t2", 0.0),
        "threshold.monotonicity_s": total.get("threshold.monotonicity", 0.0),
        "threshold.subsets_checked": counts["threshold.subsets_checked"],
        "threshold.verify_t3_s": total.get("threshold.verify_t3", 0.0),
        "threshold.feasibility_s": total.get("threshold.feasibility", 0.0),
        "threshold.feasibility_decided_ratio": counts["threshold.feasibility_decided"]
        / counts["threshold.feasibility_attempted"],
        "sweep.run_s": total["sweep.run"],
        "sweep.run_w1_s": total["sweep.run_w1"],
        "sweep.parallel_efficiency": total["sweep.run_w1"] / (workers * total["sweep.run"]),
        "sweep.agree_s": total["sweep.agree"],
        "sweep.t2_s": total["sweep.t2"],
        "sweep.slowest_task_s": max(self_s["sweep.agree"] + self_s["sweep.t2"]),
        "cli.interpreter_s": statistics.median(self_s["cli.interpreter"]),
        "cli.import_s": statistics.median(self_s["cli.import"]),
    }
    for cmd in wl.CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = statistics.median(self_s["cli." + cmd])
    per_span = span_overhead_s()
    m["trace.overhead_s"] = per_span * len(clock.spans)
    m["trace.overhead_frac"] = m["trace.overhead_s"] / wall
    info = {
        "attempted": attempted,
        "refused": refused,
        "sweep_workers": workers,
        "first_answer": sweep_answer,
        "trace_wall_s": wall,
        "span_overhead_s": per_span,
        "self_time_s": {name: sum(v) for name, v in sorted(self_s.items())},
        "spans": clock.spans,
    }
    return m, info


def golden_digest(workload: str, sweep_answer) -> str:
    """Digest of the answers to the fixed golden inputs of a workload.

    The sweep's input is fixed already, so the golden digest is that of one
    run_sweep answer.  The answers exclude feasibility verdicts and
    witnesses: those are checked against oracles, and a correct change may
    decide more instances or find other witnesses.
    """
    if workload == "sweep":
        return hashlib.sha256(json.dumps(sweep_answer).encode()).hexdigest()
    from clock import Clock

    rounds = make_rounds(workload, GOLDEN_SEED, "golden")
    return run_rounds(rounds, Clock(False), 0, 0, GOLDEN_QUERIES[workload]).digest.hexdigest()


def machine_facts() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in a fresh interpreter; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = out.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        sys.stderr.write(out.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False}
        combined["correct"] &= out.returncode == 0 and result["correct"]
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        for name, metric in result.get("metrics", {}).items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    args = parse_args()
    if not (SRC / "antiregular" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    machine = machine_facts()

    module = "antiregular.cli" if args.workload == "cli-cold" else "antiregular"
    setup = [t1 - t0 for t0, t1 in (import_span(module) for _ in range(SETUP_REPEATS))]

    sys.path[:0] = [str(SRC), str(HERE)]
    import antiregular
    from workloads import WrongAnswer

    machine["backend"] = antiregular.backend()
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "setup_s_samples": setup}
    error = None
    try:
        if args.trace:
            metrics, info = traced_passes(args.seed)
            attempted, failed = info["attempted"], info["refused"]
        else:
            metrics, info = measure(args.workload, args.seed, args.seconds)
            metrics["setup_s"] = statistics.median(setup)
            attempted, failed = info["queries"], info["refused"]
        golden = json.loads((HERE / "golden.json").read_text())[args.workload]
        got = golden_digest(args.workload, info.pop("first_answer"))
        info["golden_digest"] = got
        if got != golden:
            error = f"golden digest of {args.workload} is {got}, expected {golden}"
    except WrongAnswer as exc:
        error = f"wrong answer: {exc}"
        metrics, info, attempted, failed = {}, {}, 1, 0
    result.update(info)
    result["metrics"] = metrics
    result["error"] = error

    WORK.mkdir(exist_ok=True)
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))
    print("machine: " + json.dumps(machine))
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {UNITS[name]}")
    if "failed_frac" in info:
        print(f"{'failed_frac':40s} {info['failed_frac']:>16.6g} ratio")
    if error:
        print(error, file=sys.stderr)
    print(json.dumps({
        "correct": error is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }))
    return 1 if error else 0


if __name__ == "__main__":
    sys.exit(main())
