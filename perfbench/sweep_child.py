"""One piece of the traced sweep pass, in a fresh interpreter.

    python3 perfbench/sweep_child.py run WORKERS   # one run_sweep call
    python3 perfbench/sweep_child.py tasks         # each per-(k, n) check in turn

A fresh interpreter keeps the memo of the deletion recursion from carrying
over between pieces.  Prints one JSON object: the spans, timed with
perf_counter, and the answers.  Needs src/ on PYTHONPATH.
"""

import json
import sys
from time import perf_counter

from clock import Clock
from workloads import sweep_query, sweep_task, sweep_tasks


def main() -> None:
    if sys.argv[1] == "run":
        workers = int(sys.argv[2])
        clock = Clock(trace=True)
        answer, _ = sweep_query(workers, clock)
        span = clock.spans[0]
        spans = [{"name": "sweep.run", "start": span["start"], "end": span["end"]}]
        print(json.dumps({"spans": spans, "answer": answer}))
        return
    spans, failures = [], []
    for kind, k, n in sweep_tasks():
        t0 = perf_counter()
        failures += sweep_task(kind, k, n)
        spans.append({"name": f"sweep.{kind}", "start": t0, "end": perf_counter(), "k": k, "n": n})
    print(json.dumps({"spans": spans, "answer": failures}))


if __name__ == "__main__":
    main()
