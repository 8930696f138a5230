"""Command line interface: ``antiregular COMMAND [OPTIONS]``.

Every command emits JSON by default (--format text for a terse human
form), and takes --help (or -h).  Exit codes: 0 success / property holds,
1 property fails (the witness is in the output), 2 usage error, 3
refused: an instance-size guard was exceeded (only ipoly has guards, on
its exponential routes), or the work outgrew the recursion depth or the
memory.  Unbounded integers (labels, thresholds, coefficients, degrees)
are always serialized as decimal strings, of any length.

Each command is a plain function that computes and prints nothing: it
returns (payload, text lines, exit code), the code 1 when its property
fails.  ``COMMANDS`` maps its name to the function and its options, as
``argparse`` keyword arguments.  ``main`` builds a parser for the named
command only, prints the result in the chosen format and exits with its
code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import GuardExceeded
from .hypergraph import (
    BuildingString,
    Hypergraph,
    antiregular_string,
    build_hypergraph,
    degree_sequence,
    hypergraph_from_json,
    hypergraph_to_json,
    recognize_zero_one_constructable,
)

# ipoly, threshold and sweep are imported inside the commands that run them,
# so a cold call to any other command never loads or compiles them.

Result = tuple[dict, list[str], int]  # a command's (payload, text lines, exit code)


def _emit(payload: dict, fmt: str, lines: list[str]) -> None:
    try:
        if fmt == "json":
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout() -> None:
    """Send the rest of stdout to os.devnull, once its reader has gone.

    The interpreter's last flush then passes, and the command still exits
    with its verdict's code instead of a traceback.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _read(path: str, what: str, parse):
    """parse(text of path); a file that cannot be read or decoded is a usage error."""
    try:
        return parse(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {what} from {path}: {exc}") from exc


def _load_hypergraph(path: str) -> Hypergraph:
    return _read(path, "hypergraph", hypergraph_from_json)


def _string_input(string: str | None, k: int | None, file: str | None):
    """Resolve the (--string --k | --file) alternative to (H, maybe string)."""
    if (string is None) == (file is None):
        raise ValueError("provide exactly one of --string or --file")
    if string is not None:
        if k is None:
            raise ValueError("--string requires --k")
        b = BuildingString(string, k)
        return build_hypergraph(b), b
    if k is not None:
        raise ValueError("--k goes with --string; a hypergraph file carries its own k")
    return _load_hypergraph(file), None


def gen(n: int, k: int, connected: bool) -> Result:
    """Emit the antiregular building string for (n, k)."""
    b = antiregular_string(n, k, connected)
    return {"string": b.bits, "k": k, "n": n, "connected": connected}, [b.bits], 0


def build(string: str, k: int) -> Result:
    """Build the hypergraph a building string encodes."""
    h = build_hypergraph(BuildingString(string, k))
    lines = [f"n={h.n} k={h.k} edges={len(h.edges)}"]
    lines += [" ".join(map(str, e)) for e in sorted(h.edges)]
    return hypergraph_to_json(h), lines, 0


# ipoly.ROUTES plus "all", written out so that parsing never imports ipoly
_METHODS = ["brute", "trinks", "recurrence", "closed", "semiclosed", "all"]


def ipoly(string, k, file, method, unsafe_no_guard) -> Result:
    """Independence polynomial of a built or loaded hypergraph."""
    from .ipoly import ipoly_all, ipoly_route

    if unsafe_no_guard:
        print("warning: instance-size guards disabled", file=sys.stderr)
    guard = not unsafe_no_guard
    h, b = _string_input(string, k, file)
    if method == "all":
        # the command fails only when no route answers, with the first refusal
        polys, refusals = ipoly_all(h, b, guard)
        if not polys:
            raise next(iter(refusals.values()))
    else:
        polys, refusals = {method: ipoly_route(method, h, b, guard)}, {}
    agree = len({p.coeffs for p in polys.values()}) == 1
    if method == "all" and len(polys) == 1:
        agree = None  # a lone route was checked against nothing
    payload = {
        "n": h.n,
        "k": h.k,
        "methods": {name: p.to_decimal_strings() for name, p in polys.items()},
        "agree": agree,
    }
    lines = [f"{name}: {p}" for name, p in polys.items()]
    lines.append(f"agree: {'n/a' if agree is None else agree}")
    if refusals:
        payload["skipped"] = {name: str(exc) for name, exc in refusals.items()}
        lines += [f"skipped {name}: {exc}" for name, exc in refusals.items()]
    return payload, lines, int(agree is False)


def logconcave(string, k, max_n) -> Result:
    """Check log-concavity of independence polynomial coefficients."""
    from .ipoly import ipoly_antiregular_recurrence, ipoly_string, is_log_concave

    if string is None and max_n is None:
        raise ValueError("provide --string and/or --max-n")
    if max_n is not None and max_n < 1:
        raise ValueError(f"--max-n must be at least 1, not {max_n}")

    def polys():
        """(where it came from, polynomial) for each polynomial to check, in order."""
        if string is not None:
            yield {"string": string}, ipoly_string(BuildingString(string, k))
        for n in range(1, (max_n or 0) + 1):
            for conn in [False] if n < k else [False, True]:
                yield {"n": n, "connected": conn}, ipoly_antiregular_recurrence(n, k, conn)

    checked, witnesses = 0, []
    for where, p in polys():
        checked += 1
        report = is_log_concave(p)
        if not report.holds:
            witnesses.append({**where, "index": report.first_violation})
    holds = not witnesses
    payload = {"k": k, "checked": checked, "holds": holds, "witnesses": witnesses}
    lines = [f"checked {checked} polynomials: {'all log-concave' if holds else witnesses}"]
    return payload, lines, int(not holds)


def label(string: str, k: int) -> Result:
    """Threshold labels for a building string (file-ready labeling JSON)."""
    from .threshold import algorithm1_labels

    lab = algorithm1_labels(BuildingString(string, k))
    return lab.to_json(), ["c = " + " ".join(map(str, lab.c)), f"tau = {lab.tau}"], 0


def _verdict(verdict, what: str) -> Result:
    """A verify verdict as a result: holds, or FAIL at its witness (a subset or pair)."""
    payload = {"holds": verdict.holds}
    if verdict.witness is not None:
        payload["witness"] = list(verdict.witness)
    lines = ["holds" if verdict.holds else f"FAIL at {what} {verdict.witness}"]
    return payload, lines, int(not verdict.holds)


def verify_t2_cmd(string, k, file, labels) -> Result:
    """Check that a labeling realizes the hypergraph as a sum threshold."""
    from .threshold import Labeling, algorithm1_labels, verify_t2

    h, b = _string_input(string, k, file)
    if labels == "auto":
        if b is None:
            raise ValueError(
                "auto labels require a building string; give --labels a file for --file input"
            )
        lab = algorithm1_labels(b)
    else:
        lab = _read(labels, "labeling", Labeling.from_json)
    return _verdict(verify_t2(h, lab), "subset")


def verify_t3_cmd(file) -> Result:
    """Check that replacement order compares every vertex pair."""
    from .threshold import verify_t3

    return _verdict(verify_t3(_load_hypergraph(file)), "pair")


def degrees(string, k, file) -> Result:
    """Vertex degree sequence in label order."""
    h, _ = _string_input(string, k, file)
    seq = degree_sequence(h)
    return {"n": h.n, "k": h.k, "degrees": [str(d) for d in seq]}, [" ".join(map(str, seq))], 0


def feasible_t2_cmd(file) -> Result:
    """Decide rational sum-threshold feasibility; witness labels or a certificate."""
    from .threshold import t2_feasibility

    h = _load_hypergraph(file)
    verdict = t2_feasibility(h)
    payload: dict = {"feasible": verdict.feasible}
    lines = ["feasible" if verdict.feasible else "infeasible"]
    if verdict.labeling is not None:
        payload.update(verdict.labeling.to_json())
        lines += ["c = " + " ".join(map(str, verdict.labeling.c)), f"tau = {verdict.labeling.tau}"]
    else:
        payload["certificate"] = [[list(s), str(w)] for s, w in verdict.certificate]
        lines += [
            f"{w} x {'edge' if s in h.edges else 'non-edge'} {s}" for s, w in verdict.certificate
        ]
    return payload, lines, int(not verdict.feasible)


def recognize(file) -> Result:
    """Recover a building string, or report that none exists."""
    b = recognize_zero_one_constructable(_load_hypergraph(file))
    if b is None:
        return {"constructable": False, "string": None}, ["not constructable"], 1
    return {"constructable": True, "string": b.bits, "k": b.k}, [b.bits], 0


def sweep(k_max, n_max) -> Result:
    """Exhaustive polynomial-agreement and labeling sweep (parallel).

    The labeling family walks the prefix tree of building strings, and the
    pool runs its subtrees; NUM_WORKERS caps the worker count.
    """
    from .sweep import run_sweep

    report = run_sweep(k_max, n_max)
    fields = ["k_max", "n_max", "polynomial_instances", "string_instances", "failures", "ok"]
    payload = {name: getattr(report, name) for name in fields}
    lines = [
        f"polynomial instances: {report.polynomial_instances}",
        f"labelled strings:     {report.string_instances}",
        f"failures:             {len(report.failures)}",
    ] + report.failures
    return payload, lines, int(not report.ok)


_STRING_K = {
    "--string": {"required": True, "help": "Building string."},
    "--k": {"type": int, "required": True, "help": "Edge size."},
}
_STRING_K_FILE = {
    "--string": {"help": "Building string."},
    "--k": {"type": int, "help": "Edge size (with --string)."},
    "--file": {"help": "Hypergraph JSON file."},
}
_FILE = {"--file": {"required": True, "help": "Hypergraph JSON file."}}

# command -> (function, {option: argparse keyword arguments}); main adds --format
COMMANDS = {
    "gen": (gen, {
        "--n": {"type": int, "required": True, "help": "Vertex count."},
        "--k": {"type": int, "required": True, "help": "Edge size."},
        "--connected": {"action": "store_true", "help": "Connected variant."},
    }),
    "build": (build, _STRING_K),
    "ipoly": (ipoly, {
        **_STRING_K_FILE,
        "--method": {
            "choices": _METHODS,
            "default": "all",
            "help": "Computation method (default: all); 'all' runs every applicable one "
            "and cross-checks, skipping any its size guard refuses.",
        },
        "--unsafe-no-guard": {
            "action": "store_true",
            "help": "Disable instance-size guards (may run for a very long time).",
        },
    }),
    "logconcave": (logconcave, {
        "--string": {"help": "Single building string to check."},
        "--k": {"type": int, "required": True, "help": "Edge size."},
        "--max-n": {"type": int, "help": "Sweep antiregular instances up to this size (>= 1)."},
    }),
    "label": (label, _STRING_K),
    "verify-t2": (verify_t2_cmd, {
        **_STRING_K_FILE,
        "--labels": {"required": True, "help": "Labeling JSON file, or 'auto'."},
    }),
    "verify-t3": (verify_t3_cmd, _FILE),
    "degrees": (degrees, _STRING_K_FILE),
    "feasible-t2": (feasible_t2_cmd, _FILE),
    "recognize": (recognize, _FILE),
    "sweep": (sweep, {
        "--k-max": {"type": int, "required": True, "help": "Largest edge size."},
        "--n-max": {"type": int, "required": True, "help": "Largest vertex count."},
    }),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)

    def print_help(self, file=None):
        # argparse itself ignores a closed stdout only from Python 3.11
        try:
            super().print_help(file)
            sys.stdout.flush()
        except BrokenPipeError:
            _drop_stdout()


def _usage_error(prog: str, message: str) -> None:
    print(f"Usage: {prog} [OPTIONS]\nTry '{prog} --help' for help.\n\nError: {message}",
          file=sys.stderr)
    sys.exit(2)


def _refusal(exc: Exception) -> str:
    """The one stderr line of an exit-3 refusal, naming the limit that stopped the work."""
    if isinstance(exc, GuardExceeded):
        return f"guard exceeded: {exc}"
    if isinstance(exc, RecursionError):
        return f"refused: recursion depth exceeded (limit {sys.getrecursionlimit()})"
    return "refused: out of memory"


def main(args: list[str] | None = None, prog_name: str = "antiregular") -> None:
    """Run the command args (default: sys.argv[1:]) name; print its result, exit with its code."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # labels and coefficients outgrow 4,300 digits
    args = sys.argv[1:] if args is None else list(args)
    if args[:1] in (["-h"], ["--help"]):
        lines = [f"Usage: {prog_name} COMMAND [OPTIONS]\n\n"
                 "Independence polynomials and threshold labelings of k-uniform hypergraphs.\n\n"
                 "Commands:"]
        lines += [f"  {name:<12} {fn.__doc__.splitlines()[0]}"
                  for name, (fn, _) in COMMANDS.items()]
        fmt, payload, code = "text", {}, 0
    elif not args or args[0] not in COMMANDS:
        _usage_error(prog_name, f"No such command '{args[0]}'." if args else "Missing command.")
    else:
        fn, options = COMMANDS[args[0]]
        prog = f"{prog_name} {args[0]}"
        try:
            parser = _Parser(prog=prog, description=fn.__doc__, allow_abbrev=False)
            for flag, spec in options.items():
                parser.add_argument(flag, **spec)
            parser.add_argument("--format", dest="fmt", choices=["json", "text"], default="json",
                                help="Output format (default: json).")
            parsed, extra = parser.parse_known_args(args[1:])
            if extra:
                raise ValueError(f"No such option '{extra[0]}'." if extra[0].startswith("-")
                                 else f"Got unexpected extra argument ({extra[0]})")
            kwargs = vars(parsed)
            fmt = kwargs.pop("fmt")
            payload, lines, code = fn(**kwargs)
        except (GuardExceeded, RecursionError, MemoryError) as exc:
            print(_refusal(exc), file=sys.stderr)
            sys.exit(3)
        except ValueError as exc:
            _usage_error(prog, str(exc))
    _emit(payload, fmt, lines)
    if code:
        sys.exit(code)


if __name__ == "__main__":
    main()
