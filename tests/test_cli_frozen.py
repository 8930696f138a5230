"""Frozen CLI outputs: stdout, stderr and exit code of fixed invocations, byte for byte.

Every command appears in json and text form, with exit 1, 2 and 3 cases.
The expected outputs live in frozen_cli.json next to this file.  Input
files are written to a fresh directory per run, so its path reads as
``<tmp>`` in the recorded stderr.  A change
that is meant to alter an output regenerates them with

    PYTHONPATH=src python tests/test_cli_frozen.py --write

which prints every case id it added, removed or changed, and says so in
its change notes.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from pathlib import Path

import pytest

from conftest import invoke

FIXTURE = Path(__file__).with_name("frozen_cli.json")

FM10_C = (4, 5, 8, 0, 7, 3, 0, 2, 1, 5)  # with tau = 15; 78 edges

FILES = {
    "h1.json": {"k": 3, "n": 5, "edges": [[1, 4, 5], [2, 3, 5], [2, 4, 5], [3, 4, 5]]},
    "h2.json": {"k": 3, "n": 5, "edges": [[1, 2, 3], [1, 3, 4], [2, 3, 5], [3, 4, 5]]},
    "built.json": {
        "k": 3,
        "n": 6,
        "edges": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 6], [1, 3, 6],
                  [1, 4, 6], [1, 5, 6], [2, 3, 6], [2, 4, 6], [2, 5, 6], [3, 4, 6],
                  [3, 5, 6], [4, 5, 6]],
    },
    "s4.json": {"k": 4, "n": 6, "edges": [[1, 2, 5, 6], [1, 3, 4, 6], [1, 3, 5, 6], [1, 4, 5, 6]]},
    "nc.json": {"k": 3, "n": 6, "edges": [[1, 2, 3], [3, 4, 5], [1, 5, 6]]},
    "mixed.json": {"n": 4, "edges": [[1, 2], [2, 3, 4]]},
    "bad.json": {"k": 2, "n": 3, "edges": [[1.7, 2], [True, 3]]},
    "tri.json": {"k": 3, "n": 3, "edges": [[1, 2, 3]]},
    "big21.json": {"k": 3, "n": 21, "edges": []},
    "empty.json": {"k": 3, "n": 0, "edges": []},
    "k1.json": {"k": 1, "n": 2, "edges": [[2]]},
    "big31.json": {"k": 3, "n": 31, "edges": []},
    "big41.json": {"k": 3, "n": 41, "edges": []},
    "fm10.json": {
        "k": 4,
        "n": 10,
        "edges": [list(s) for s in combinations(range(1, 11), 4) if sum(FM10_C[v - 1] for v in s) > 15],
    },
    "lab.json": {"c": ["-2", "-1", "0", "1", "2"], "tau": "0"},
    "zero.json": {"c": ["0", "0", "0"], "tau": "0"},
    "zero31.json": {"c": ["0"] * 31, "tau": "0"},
}

ONE_WORKER = {"NUM_WORKERS": "1"}

# (args, env); the comment after a case names its exit code when it is not 0
CASES: list[tuple[list[str], dict[str, str]]] = [
    (["gen", "--n", "9", "--k", "3", "--connected"], {}),
    (["gen", "--n", "6", "--k", "3", "--format", "text"], {}),
    (["gen", "--n", "2", "--k", "3", "--connected"], {}),  # 2
    (["build", "--string", "00101", "--k", "3"], {}),
    (["build", "--string", "0010110", "--k", "3", "--format", "text"], {}),
    (["build", "--string", "0100", "--k", "3"], {}),  # 2
    (["ipoly", "--string", "001010101", "--k", "3"], {}),
    (["ipoly", "--string", "0001010101", "--k", "4", "--format", "text"], {}),
    (["ipoly", "--string", "00", "--k", "4"], {}),
    (["ipoly", "--string", "00110", "--k", "3"], {}),
    (["ipoly", "--file", "h1.json", "--format", "text"], {}),
    (["ipoly", "--string", "001010101", "--k", "3", "--method", "semiclosed"], {}),
    (["ipoly", "--string", "00101", "--k", "3", "--method", "closed", "--format", "text"], {}),
    (["ipoly", "--string", "00011", "--k", "4", "--method", "closed"], {}),  # 2
    (["ipoly", "--file", "h1.json", "--method", "recurrence"], {}),  # 2
    (["ipoly", "--file", "big41.json", "--method", "trinks"], {}),  # 3
    (["ipoly", "--file", "big31.json", "--method", "brute", "--unsafe-no-guard"], {}),  # 3
    (["ipoly", "--string", "00" + "10" * 20, "--k", "3"], {}),
    (["ipoly", "--string", "00010110110010110101", "--k", "4"], {}),
    (["ipoly", "--file", "big41.json"], {}),  # 3
    (["logconcave", "--k", "3", "--max-n", "12"], {}),
    (["logconcave", "--k", "3", "--string", "0010011", "--format", "text"], {}),
    (["logconcave", "--k", "3"], {}),  # 2
    (["logconcave", "--k", "3", "--string", "00" + "10" * 20], {}),
    (["label", "--string", "0010100011101", "--k", "3"], {}),
    (["label", "--string", "0010100011101", "--k", "3", "--format", "text"], {}),
    (["label", "--string", "000", "--k", "3"], {}),
    (["verify-t2", "--string", "0010101", "--k", "3", "--labels", "auto"], {}),
    (["verify-t2", "--file", "h1.json", "--labels", "lab.json", "--format", "text"], {}),
    (["verify-t2", "--file", "tri.json", "--labels", "zero.json"], {}),  # 1
    (["verify-t2", "--file", "h1.json", "--labels", "auto"], {}),  # 2
    (["verify-t2", "--file", "big31.json", "--labels", "zero31.json"], {}),
    (["verify-t2", "--file", "h1.json", "--labels", "lab.json", "--unsafe-no-guard"], {}),  # 2
    (["verify-t3", "--file", "h1.json"], {}),
    (["verify-t3", "--file", "nc.json", "--format", "text"], {}),  # 1
    (["verify-t3", "--file", "bad.json"], {}),  # 2
    (["verify-t3", "--file", "big21.json"], {}),
    (["verify-t3", "--file", "h1.json", "--unsafe-no-guard"], {}),  # 2
    (["degrees", "--string", "00101", "--k", "3"], {}),
    (["degrees", "--file", "h1.json", "--format", "text"], {}),
    (["feasible-t2", "--file", "h1.json"], {}),
    (["feasible-t2", "--file", "h2.json", "--format", "text"], {}),  # 1
    (["feasible-t2", "--file", "h2.json"], {}),  # 1
    (["feasible-t2", "--file", "fm10.json"], {}),
    (["feasible-t2", "--file", "big41.json"], {}),
    (["feasible-t2", "--file", "h1.json", "--unsafe-no-guard"], {}),  # 2
    (["recognize", "--file", "built.json"], {}),
    (["recognize", "--file", "built.json", "--format", "text"], {}),
    (["recognize", "--file", "s4.json"], {}),  # 1
    (["recognize", "--file", "h1.json", "--format", "text"], {}),  # 1
    (["recognize", "--file", "mixed.json"], {}),  # 2
    (["recognize", "--file", "big21.json"], {}),
    (["recognize", "--file", "empty.json"], {}),  # 2
    (["recognize", "--file", "k1.json"], {}),  # 2
    (["sweep", "--k-max", "3", "--n-max", "7"], ONE_WORKER),
    (["sweep", "--k-max", "3", "--n-max", "7", "--format", "text"], ONE_WORKER),
    (["sweep", "--k-max", "1", "--n-max", "7"], ONE_WORKER),  # 2
    (["sweep", "--k-max", "5", "--n-max", "10", "--format", "text"], ONE_WORKER),
    (["sweep", "--k-max", "4", "--n-max", "9"], {"NUM_WORKERS": "2"}),
]


def case_id(args: list[str], env: dict[str, str]) -> str:
    return " ".join([f"{k}={v}" for k, v in sorted(env.items())] + args)


def run_case(args: list[str], env: dict[str, str], where: Path) -> dict:
    for name, obj in FILES.items():
        (where / name).write_text(json.dumps(obj))
    res = invoke([str(where / a) if a in FILES else a for a in args], env=env)
    stderr = res.stderr.replace(str(where), "<tmp>")
    return {"exit_code": res.exit_code, "stdout": res.stdout, "stderr": stderr}


@pytest.fixture(scope="module")
def frozen() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_exactly_the_cases(frozen):
    assert sorted(frozen) == sorted(case_id(args, env) for args, env in CASES)


@pytest.mark.parametrize("args, env", CASES, ids=[case_id(a, e) for a, e in CASES])
def test_output_is_frozen(frozen, tmp_path, args, env):
    assert run_case(args, env, tmp_path) == frozen[case_id(args, env)]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_frozen.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        records = {case_id(a, e): run_case(a, e, Path(tmp)) for a, e in CASES}
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    for cid in sorted(old.keys() | records.keys()):
        if cid not in old:
            print(f"added:   {cid}")
        elif cid not in records:
            print(f"removed: {cid}")
        elif old[cid] != records[cid]:
            print(f"changed: {cid}")
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {FIXTURE}")
