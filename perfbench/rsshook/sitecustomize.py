"""Reports a CLI process's peak resident memory when it exits.

The cli-cold workload puts this directory on the PYTHONPATH of every CLI
process it starts.  The kernel's own count (getrusage) would not do: a child
inherits the high-water mark of the process that spawned it.
"""

import atexit
import sys


def _report() -> None:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                sys.stderr.write(f"perfbench-vmhwm-kb {line.split()[1]}\n")


atexit.register(_report)
