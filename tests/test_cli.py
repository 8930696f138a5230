import json
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import antiregular
from antiregular import antiregular_string, cli, ipoly, run_sweep, sweep
from antiregular.polynomial import Poly
from antiregular.sweep import default_workers
from conftest import fresh_interpreter, invoke


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


H1_JSON = {"k": 3, "n": 5, "edges": [[1, 4, 5], [2, 3, 5], [2, 4, 5], [3, 4, 5]]}
H2_JSON = {"k": 3, "n": 5, "edges": [[1, 2, 3], [1, 3, 4], [2, 3, 5], [3, 4, 5]]}
FM10_C = (4, 5, 8, 0, 7, 3, 0, 2, 1, 5)  # with tau = 15: a sum threshold on 78 edges
FM10_JSON = {
    "k": 4,
    "n": 10,
    "edges": [list(s) for s in combinations(range(1, 11), 4) if sum(FM10_C[v - 1] for v in s) > 15],
}
BIG41_JSON = {"k": 3, "n": 41, "edges": []}  # 10,660 k-subsets
SLOW_IMPORTS_LOADED = "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"


# every option of every command, as its --help must name them
OPTIONS = {
    "gen": ["--n", "--k", "--connected"],
    "build": ["--string", "--k"],
    "ipoly": ["--string", "--k", "--file", "--method", "--unsafe-no-guard"],
    "logconcave": ["--string", "--k", "--max-n"],
    "label": ["--string", "--k"],
    "verify-t2": ["--string", "--k", "--file", "--labels"],
    "verify-t3": ["--file"],
    "degrees": ["--string", "--k", "--file"],
    "feasible-t2": ["--file"],
    "recognize": ["--file"],
    "sweep": ["--k-max", "--n-max"],
}


class TestParser:
    @pytest.mark.parametrize("cmd", OPTIONS)
    def test_help_names_every_option(self, cmd):
        res = invoke([cmd, "--help"])
        assert res.exit_code == 0 and res.stderr == ""
        named = set(re.findall(r"--[a-z][a-z0-9-]*", res.stdout))
        assert named == {*OPTIONS[cmd], "--format", "--help"}

    def test_help_lists_every_command(self):
        res = invoke(["--help"])
        assert res.exit_code == 0
        assert all(cmd in res.stdout for cmd in OPTIONS)

    def test_short_help(self):
        res = invoke(["gen", "-h"])
        assert res.exit_code == 0 and "--connected" in res.stdout

    def test_no_command_is_usage_error(self):
        assert invoke([]).exit_code == 2

    def test_unknown_command_is_usage_error(self):
        res = invoke(["x"])
        assert res.exit_code == 2 and "No such command 'x'." in res.stderr

    def test_abbreviated_option_is_refused(self):
        res = invoke(["gen", "--n", "5", "--k", "3", "--conn"])
        assert res.exit_code == 2 and res.stdout == ""
        assert "No such option '--conn'." in res.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "--n", "5", "--k", "3", "extra"],
            ["gen", "--n", "x", "--k", "3"],
            ["gen", "--k", "3"],
        ],
    )
    def test_bad_arguments_are_usage_errors(self, args):
        res = invoke(args)
        assert res.exit_code == 2 and res.stdout == ""
        frame = f"Usage: main {args[0]} [OPTIONS]\nTry 'main {args[0]} --help' for help.\n\nError: "
        assert res.stderr.startswith(frame)


class TestGen:
    def test_json(self):
        res = invoke(["gen", "--n", "5", "--k", "3", "--connected"])
        assert res.exit_code == 0
        assert json.loads(res.stdout) == {
            "string": "00101",
            "k": 3,
            "n": 5,
            "connected": True,
        }

    def test_text(self):
        res = invoke(["gen", "--n", "6", "--k", "3", "--format", "text"])
        assert res.exit_code == 0 and res.stdout.strip() == "001010"

    def test_connected_too_small_is_usage_error(self):
        res = invoke(["gen", "--n", "2", "--k", "3", "--connected"])
        assert res.exit_code == 2


class TestBuild:
    def test_schema(self):
        res = invoke(["build", "--string", "00101", "--k", "3"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["n"] == 5 and payload["k"] == 3
        assert payload["edges"] == [
            [1, 2, 3],
            [1, 2, 5],
            [1, 3, 5],
            [1, 4, 5],
            [2, 3, 5],
            [2, 4, 5],
            [3, 4, 5],
        ]

    def test_early_one_is_usage_error(self):
        res = invoke(["build", "--string", "0100", "--k", "3"])
        assert res.exit_code == 2


class TestIpoly:
    def test_all_methods_agree(self):
        res = invoke(["ipoly", "--string", "00101", "--k", "3"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["agree"] is True
        assert set(payload["methods"]) == {
            "brute",
            "trinks",
            "recurrence",
            "closed",
            "semiclosed",
        }
        assert all(v == ["1", "5", "10", "3"] for v in payload["methods"].values())

    def test_file_input_runs_generic_methods_only(self, tmp_path):
        path = write_json(tmp_path, "h1.json", H1_JSON)
        res = invoke(["ipoly", "--file", path])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert set(payload["methods"]) == {"brute", "trinks"}
        assert payload["methods"]["brute"] == ["1", "5", "10", "6", "1"]

    def test_structural_method_on_file_is_usage_error(self, tmp_path):
        path = write_json(tmp_path, "h1.json", H1_JSON)
        res = invoke(["ipoly", "--file", path, "--method", "recurrence"])
        assert res.exit_code == 2

    def test_closed_needs_k3(self):
        res = invoke(["ipoly", "--string", "00011", "--k", "4", "--method", "closed"])
        assert res.exit_code == 2

    def test_methods_are_the_routes_and_all(self):
        assert cli._METHODS == [*ipoly.ROUTES, "all"]

    def test_a_broken_route_fails_the_cross_check(self, monkeypatch):
        real = ipoly.ipoly_semiclosed
        monkeypatch.setattr(ipoly, "ipoly_semiclosed", lambda *args: real(*args) + Poly((0, 1)))
        res = invoke(["ipoly", "--string", "001010101", "--k", "3"])
        assert res.exit_code == 1
        payload = json.loads(res.stdout)
        assert payload["agree"] is False
        assert payload["methods"]["semiclosed"] != payload["methods"]["recurrence"]

    def test_non_antiregular_string_gets_generic_methods(self):
        res = invoke(["ipoly", "--string", "00110", "--k", "3"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert set(payload["methods"]) == {"brute", "trinks"}
        assert payload["agree"] is True

    def test_string_and_file_conflict(self, tmp_path):
        path = write_json(tmp_path, "h1.json", H1_JSON)
        res = invoke(["ipoly", "--string", "00101", "--k", "3", "--file", path])
        assert res.exit_code == 2

    def test_k_with_file_is_usage_error(self, tmp_path):
        path = write_json(tmp_path, "h1.json", H1_JSON)
        res = invoke(["ipoly", "--file", path, "--k", "9"])
        assert res.exit_code == 2 and "its own k" in res.stderr

    def test_guard_exit_code(self, tmp_path):
        big = write_json(tmp_path, "big.json", {"k": 3, "n": 41, "edges": []})
        res = invoke(["ipoly", "--file", big, "--method", "trinks"])
        assert res.exit_code == 3
        res = invoke(["ipoly", "--file", big, "--method", "trinks", "--unsafe-no-guard"])
        assert res.exit_code == 0
        assert "warning" in res.stderr
        payload = json.loads(res.stdout)
        assert payload["methods"]["trinks"][1] == "41"
        assert payload["agree"] is True  # a single --method keeps its true

    def test_all_skips_refused_routes(self):
        res = invoke(["ipoly", "--string", "00" + "10" * 20, "--k", "3"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert list(payload) == ["n", "k", "methods", "agree", "skipped"]
        assert set(payload["methods"]) == {"recurrence", "closed", "semiclosed"}
        assert payload["agree"] is True
        assert payload["skipped"] == {
            "brute": "brute force on 42 vertices exceeds the guard of 24",
            "trinks": "deletion recursion on 42 vertices exceeds the guard of 40",
        }

    def test_all_answers_by_trinks_when_brute_is_refused(self, tmp_path):
        big = write_json(tmp_path, "big.json", {"k": 3, "n": 31, "edges": []})
        res = invoke(["ipoly", "--file", big, "--format", "text"])
        assert res.exit_code == 0
        lines = res.stdout.splitlines()
        assert lines[0].startswith("trinks: 1 + 31x + ")
        assert lines[1:] == [
            "agree: n/a",
            "skipped brute: brute force on 31 vertices exceeds the guard of 24",
        ]
        res = invoke(["ipoly", "--file", big, "--unsafe-no-guard"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert set(payload["methods"]) == {"trinks"}
        assert payload["agree"] is None
        assert "cap of 30" in payload["skipped"]["brute"]

    def test_all_with_no_answering_route_exits_3(self, tmp_path):
        big = write_json(tmp_path, "big.json", {"k": 3, "n": 41, "edges": []})
        res = invoke(["ipoly", "--file", big])
        assert res.exit_code == 3
        assert res.stdout == ""
        assert "brute force on 41 vertices exceeds the guard of 24" in res.stderr

    def test_brute_force_past_kernel_cap_is_refused(self, tmp_path):
        big = write_json(tmp_path, "big.json", {"k": 3, "n": 31, "edges": []})
        res = invoke(["ipoly", "--file", big, "--method", "brute", "--unsafe-no-guard"])
        assert res.exit_code == 3
        assert "cap of 30" in res.stderr

    def test_deep_recursion_is_a_refusal(self, tmp_path):
        # every vertex of the path lies in an edge, so the recursion runs 1,500 deep
        edges = [[v, v + 1] for v in range(1, 1500)]
        path = write_json(tmp_path, "path.json", {"k": 2, "n": 1500, "edges": edges})
        res = invoke(["ipoly", "--file", path, "--method", "trinks", "--unsafe-no-guard"])
        assert (res.exit_code, res.stdout) == (3, "")
        assert res.stderr.splitlines() == [
            "warning: instance-size guards disabled",
            f"refused: recursion depth exceeded (limit {sys.getrecursionlimit()})",
        ]


class TestLabel:
    def test_thirteen_vertex_labels_frozen(self):
        res = invoke(["label", "--string", "0010100011101", "--k", "3"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload == {
            "c": [
                "64", "64", "96", "48", "112", "8", "12", "14",
                "204", "204", "204", "-185", "401",
            ],
            "tau": "223",
        }

    def test_edgeless_gets_base_labels(self, tmp_path):
        res = invoke(["label", "--string", "000", "--k", "3"])
        assert res.exit_code == 0
        assert json.loads(res.stdout) == {"c": ["2", "2", "2"], "tau": "6"}
        lpath = tmp_path / "lab.json"
        lpath.write_text(res.stdout)
        res = invoke(["verify-t2", "--string", "000", "--k", "3", "--labels", str(lpath)])
        assert res.exit_code == 0 and json.loads(res.stdout) == {"holds": True}


class TestVerifyT2:
    def test_auto_labels(self):
        res = invoke(["verify-t2", "--string", "0010101", "--k", "3", "--labels", "auto"])
        assert res.exit_code == 0 and json.loads(res.stdout) == {"holds": True}

    def test_auto_labels_edgeless_string(self):
        res = invoke(["verify-t2", "--string", "0000", "--k", "3", "--labels", "auto"])
        assert res.exit_code == 0

    def test_auto_with_file_is_usage_error(self, tmp_path):
        path = write_json(tmp_path, "h1.json", H1_JSON)
        res = invoke(["verify-t2", "--file", path, "--labels", "auto"])
        assert res.exit_code == 2
        assert "building string" in res.stderr

    def test_k_with_file_is_usage_error(self, tmp_path):
        hpath = write_json(tmp_path, "h1.json", H1_JSON)
        lpath = write_json(tmp_path, "lab.json", {"c": ["-2", "-1", "0", "1", "2"], "tau": "0"})
        res = invoke(["verify-t2", "--file", hpath, "--k", "3", "--labels", lpath])
        assert res.exit_code == 2 and "its own k" in res.stderr

    def test_labels_file(self, tmp_path):
        hpath = write_json(tmp_path, "h1.json", H1_JSON)
        lpath = write_json(tmp_path, "lab.json", {"c": ["-2", "-1", "0", "1", "2"], "tau": "0"})
        res = invoke(["verify-t2", "--file", hpath, "--labels", lpath])
        assert res.exit_code == 0

    def test_failing_labels_print_witness(self, tmp_path):
        hpath = write_json(tmp_path, "h.json", {"k": 3, "n": 3, "edges": [[1, 2, 3]]})
        lpath = write_json(tmp_path, "lab.json", {"c": ["0", "0", "0"], "tau": "0"})
        res = invoke(["verify-t2", "--file", hpath, "--labels", lpath])
        assert res.exit_code == 1
        assert json.loads(res.stdout) == {"holds": False, "witness": [1, 2, 3]}

    @pytest.mark.parametrize(
        "labels",
        [
            {"c": [0.9, 0.9, 0.9], "tau": 0},  # once truncated to zeros: a false witness
            {"c": "999", "tau": "0"},  # once read as three labels: a false pass
        ],
    )
    def test_labels_that_need_casting_are_usage_errors(self, tmp_path, labels):
        hpath = write_json(tmp_path, "h.json", {"k": 3, "n": 3, "edges": [[1, 2, 3]]})
        lpath = write_json(tmp_path, "lab.json", labels)
        res = invoke(["verify-t2", "--file", hpath, "--labels", lpath])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "labeling JSON" in res.stderr

    def test_decides_past_the_old_guard(self, tmp_path):
        hpath = write_json(tmp_path, "big31.json", {"k": 3, "n": 31, "edges": []})
        lpath = write_json(tmp_path, "zero31.json", {"c": ["0"] * 31, "tau": "0"})
        res = invoke(["verify-t2", "--file", hpath, "--labels", lpath])
        assert res.exit_code == 0
        assert json.loads(res.stdout) == {"holds": True}

    def test_labels_past_4300_digits(self, tmp_path):
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(4300)  # the interpreter's default; main lifts it
        hpath = write_json(tmp_path, "tri.json", {"k": 3, "n": 3, "edges": [[1, 2, 3]]})
        lpath = write_json(tmp_path, "big.json", {"c": ["1" + "0" * 5000, "0", "0"], "tau": "0"})
        res = invoke(["verify-t2", "--file", hpath, "--labels", lpath])
        assert res.exit_code == 0 and json.loads(res.stdout) == {"holds": True}

    def test_undecodable_labels_name_their_path(self, tmp_path):
        hpath = write_json(tmp_path, "h1.json", H1_JSON)
        lpath = tmp_path / "lab.json"
        lpath.write_bytes(b"\xff\xfe")
        res = invoke(["verify-t2", "--file", hpath, "--labels", str(lpath)])
        assert res.exit_code == 2
        assert f"Error: cannot read labeling from {lpath}: " in res.stderr

    def test_has_no_guard_flag(self):
        args = ["verify-t2", "--string", "00101", "--k", "3", "--labels", "auto", "--unsafe-no-guard"]
        res = invoke(args)
        assert res.exit_code == 2
        assert "No such option" in res.stderr


class TestVerifyT3:
    def test_holds(self, tmp_path):
        path = write_json(tmp_path, "h1.json", H1_JSON)
        res = invoke(["verify-t3", "--file", path])
        assert res.exit_code == 0 and json.loads(res.stdout)["holds"] is True

    def test_fails_with_witness(self, tmp_path):
        path = write_json(
            tmp_path, "nc.json", {"k": 3, "n": 6, "edges": [[1, 2, 3], [3, 4, 5], [1, 5, 6]]}
        )
        res = invoke(["verify-t3", "--file", path])
        assert res.exit_code == 1
        assert json.loads(res.stdout)["witness"] == [2, 4]

    def test_undecodable_file_names_its_path(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_bytes(b"\xff\xfe")
        res = invoke(["verify-t3", "--file", str(path)])
        assert res.exit_code == 2
        assert f"Error: cannot read hypergraph from {path}: " in res.stderr

    def test_decides_past_the_old_guard(self, tmp_path):
        path = write_json(tmp_path, "big21.json", {"k": 3, "n": 21, "edges": []})
        res = invoke(["verify-t3", "--file", path])
        assert res.exit_code == 0
        assert json.loads(res.stdout) == {"holds": True}

    def test_ten_million_declared_vertices(self, tmp_path):
        # the check reads the edges, not the declared n
        path = write_json(tmp_path, "huge.json", {"k": 3, "n": 10**7, "edges": [[1, 2, 3]]})
        res = invoke(["verify-t3", "--file", path])
        assert res.exit_code == 0 and json.loads(res.stdout) == {"holds": True}

    def test_has_no_guard_flag(self, tmp_path):
        path = write_json(tmp_path, "h1.json", H1_JSON)
        res = invoke(["verify-t3", "--file", path, "--unsafe-no-guard"])
        assert res.exit_code == 2
        assert "No such option" in res.stderr

    @pytest.mark.parametrize(
        "obj",
        [
            {"k": 2, "n": 3, "edges": [[1.7, 2], [True, 3]]},
            {"k": 2, "n": 3.0, "edges": [[1, 2]]},
            {"k": True, "n": 3, "edges": [[1, 2]]},
        ],
    )
    def test_non_integer_input_is_usage_error(self, tmp_path, obj):
        path = write_json(tmp_path, "bad.json", obj)
        res = invoke(["verify-t3", "--file", path])
        assert res.exit_code == 2
        assert "must be an integer" in res.stderr


class TestDegrees:
    def test_string_input(self):
        res = invoke(["degrees", "--string", "00101", "--k", "3"])
        assert json.loads(res.stdout)["degrees"] == ["4", "4", "4", "3", "6"]

    def test_file_input_matches(self, tmp_path):
        path = write_json(tmp_path, "h1.json", H1_JSON)
        res = invoke(["degrees", "--file", path])
        assert json.loads(res.stdout)["degrees"] == ["1", "2", "2", "3", "4"]

    def test_k_with_file_is_usage_error(self, tmp_path):
        path = write_json(tmp_path, "h1.json", H1_JSON)
        res = invoke(["degrees", "--file", path, "--k", "5"])
        assert res.exit_code == 2 and "its own k" in res.stderr


class TestFeasibleT2:
    def test_feasible_with_labels(self, tmp_path):
        path = write_json(tmp_path, "h1.json", H1_JSON)
        res = invoke(["feasible-t2", "--file", path])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["feasible"] is True and "c" in payload and "tau" in payload

    def test_infeasible(self, tmp_path):
        path = write_json(tmp_path, "h2.json", H2_JSON)
        res = invoke(["feasible-t2", "--file", path])
        assert res.exit_code == 1
        assert json.loads(res.stdout) == {
            "feasible": False,
            "certificate": [[[1, 3, 4], "1"], [[1, 3, 5], "1"], [[2, 3, 4], "1"], [[2, 3, 5], "1"]],
        }

    def test_printed_certificate_balances(self, tmp_path):
        # two disjoint edges {1,2}, {3,4} against the non-edges {1,3}, {2,4}
        obj = {"k": 2, "n": 5, "edges": [[1, 2], [3, 4], [1, 5], [3, 5]]}
        res = invoke(["feasible-t2", "--file", write_json(tmp_path, "g.json", obj)])
        assert res.exit_code == 1
        certificate = json.loads(res.stdout)["certificate"]
        edges = {tuple(e) for e in obj["edges"]}
        net, edge_weight = [0] * obj["n"], 0
        for sub, w in certificate:
            w = int(w)
            assert w > 0 and len(sub) == 2 and sub == sorted(sub)
            sign = 1 if tuple(sub) in edges else -1
            edge_weight += w * (sign > 0)
            for v in sub:
                net[v - 1] += sign * w
        assert edge_weight > 0 and net == [0] * obj["n"]

    def test_hundred_thousand_declared_vertices(self, tmp_path):
        # the simplex runs on the three vertices in the edge, not on all n
        path = write_json(tmp_path, "huge.json", {"k": 3, "n": 10**5, "edges": [[1, 2, 3]]})
        res = invoke(["feasible-t2", "--file", path])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["c"] == ["-1", "-1", "2"] + ["-5"] * (10**5 - 3)
        assert payload["tau"] == "-1"

    def test_has_no_guard_flag(self, tmp_path):
        path = write_json(tmp_path, "h1.json", H1_JSON)
        res = invoke(["feasible-t2", "--file", path, "--unsafe-no-guard"])
        assert res.exit_code == 2
        assert "No such option" in res.stderr

    @pytest.mark.parametrize(
        "name, obj",
        [("h1.json", H1_JSON), ("fm10.json", FM10_JSON), ("big41.json", BIG41_JSON)],
    )
    def test_witness_passes_verify_t2(self, tmp_path, name, obj):
        path = write_json(tmp_path, name, obj)
        res = invoke(["feasible-t2", "--file", path])
        assert res.exit_code == 0
        labels = tmp_path / "lab.json"
        labels.write_text(res.stdout)
        res = invoke(["verify-t2", "--file", path, "--labels", str(labels)])
        assert res.exit_code == 0 and json.loads(res.stdout) == {"holds": True}


class TestRecognize:
    def test_roundtrip(self, tmp_path):
        build_res = invoke(["build", "--string", "001101", "--k", "3"])
        path = tmp_path / "h.json"
        path.write_text(build_res.stdout)
        res = invoke(["recognize", "--file", str(path)])
        assert res.exit_code == 0
        assert json.loads(res.stdout) == {"constructable": True, "string": "001101", "k": 3}

    def test_not_constructable(self, tmp_path):
        path = write_json(
            tmp_path,
            "s4.json",
            {"k": 4, "n": 6, "edges": [[1, 2, 5, 6], [1, 3, 4, 6], [1, 3, 5, 6], [1, 4, 5, 6]]},
        )
        res = invoke(["recognize", "--file", path])
        assert res.exit_code == 1
        assert json.loads(res.stdout)["constructable"] is False

    def test_thirty_vertices(self, tmp_path):
        string = "00" + "1101" * 7
        build_res = invoke(["build", "--string", string, "--k", "3"])
        path = tmp_path / "h30.json"
        path.write_text(build_res.stdout)
        res = invoke(["recognize", "--file", str(path), "--format", "text"])
        assert res.exit_code == 0
        assert res.stdout == string + "\n"


class TestLogconcave:
    def test_sweep(self):
        res = invoke(["logconcave", "--k", "3", "--max-n", "20"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["holds"] is True and payload["checked"] == 38

    def test_single_string(self):
        res = invoke(["logconcave", "--k", "3", "--string", "0010011"])
        assert res.exit_code == 0

    def test_needs_some_input(self):
        res = invoke(["logconcave", "--k", "3"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("max_n", ["0", "-4"])
    def test_max_n_below_one_is_usage_error(self, max_n):
        res = invoke(["logconcave", "--k", "3", "--max-n", max_n])
        assert res.exit_code == 2 and res.stdout == ""

    def test_string_has_no_size_guard(self):
        string = antiregular_string(60, 3, True).bits
        res = invoke(["logconcave", "--k", "3", "--string", string])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["checked"] == 1 and payload["holds"] is True

    def test_witnesses_name_each_failure_in_order(self, monkeypatch):
        # no checked polynomial fails, so a check that fails every other one stands in
        real, calls = ipoly.is_log_concave, []

        def every_other(p):
            calls.append(p)
            report = real(p)
            return report._replace(holds=False, first_violation=len(calls)) if len(calls) % 2 else report

        monkeypatch.setattr(ipoly, "is_log_concave", every_other)
        res = invoke(["logconcave", "--k", "3", "--string", "0010011", "--max-n", "3"])
        assert res.exit_code == 1
        # n = 1, 2 have no connected variant at k = 3: 1 + 1 + 1 + 2 polynomials
        assert json.loads(res.stdout) == {
            "k": 3,
            "checked": 5,
            "holds": False,
            "witnesses": [
                {"string": "0010011", "index": 1},
                {"n": 2, "connected": False, "index": 3},
                {"n": 3, "connected": True, "index": 5},
            ],
        }


def as_args(name, kwargs):
    """The command line that passes kwargs to the command called name."""
    args = [name]
    for key, value in kwargs.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            args.append(flag)
        elif value not in (None, False):
            args += [flag, str(value)]
    return args


# one valid input per command, as keyword arguments of its function
VALID = {
    "gen": {"n": 9, "k": 3, "connected": False},
    "build": {"string": "00101", "k": 3},
    "ipoly": {"string": "00101", "k": 3, "file": None, "method": "all", "unsafe_no_guard": False},
    "logconcave": {"string": "001010101", "k": 3, "max_n": 6},
    "label": {"string": "00101", "k": 3},
    "verify-t2": {"string": "00101", "k": 3, "file": None, "labels": "auto"},
    "verify-t3": {"file": "h1.json"},
    "degrees": {"string": None, "k": None, "file": "h1.json"},
    "feasible-t2": {"file": "h2.json"},
    "recognize": {"file": "h1.json"},
    "sweep": {"k_max": 3, "n_max": 5},
}


class TestCommandsCompute:
    """A command returns (payload, text lines, exit code); main alone prints and exits."""

    @pytest.mark.parametrize("name", OPTIONS)
    def test_a_command_returns_its_result_and_prints_nothing(
        self, name, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("NUM_WORKERS", "1")
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path, "h1.json", H1_JSON)
        write_json(tmp_path, "h2.json", H2_JSON)
        fn, _ = cli.COMMANDS[name]
        assert "fmt" not in fn.__code__.co_varnames[: fn.__code__.co_argcount]
        result = fn(**VALID[name])
        assert capsys.readouterr().out == ""
        assert type(result) is tuple and len(result) == 3
        payload, lines, code = result
        assert type(payload) is dict and type(lines) is list and type(code) is int
        assert code in (0, 1) and all(type(line) is str for line in lines)
        # main prints that result in either format and exits with its code
        args = as_args(name, VALID[name])
        res = invoke(args)
        assert (res.exit_code, res.stdout) == (code, json.dumps(payload, indent=2) + "\n")
        res = invoke(args + ["--format", "text"])
        assert (res.exit_code, res.stdout) == (code, "".join(f"{line}\n" for line in lines))

    def test_out_of_memory_is_a_refusal(self, monkeypatch):
        def exhaust(**kwargs):
            raise MemoryError

        monkeypatch.setitem(cli.COMMANDS, "gen", (exhaust, cli.COMMANDS["gen"][1]))
        res = invoke(["gen", "--n", "9", "--k", "3"])
        assert (res.exit_code, res.stdout, res.stderr) == (3, "", "refused: out of memory\n")


class TestColdStart:
    def test_package_import_loads_no_submodule(self):
        probe = (
            "import sys, antiregular; "
            "print(sorted(m for m in sys.modules if m.startswith('antiregular.')))"
        )
        assert fresh_interpreter(probe).strip() == "[]"

    def test_cli_import_skips_pool_and_fractions(self):
        heavy = [
            "antiregular.ipoly",
            "antiregular.threshold",
            "antiregular.sweep",
            "antiregular.kernels",
            "antiregular.polynomial",
            "concurrent.futures",
            "fractions",
        ]
        probe = f"import sys, antiregular.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
        assert fresh_interpreter(probe).strip() == "[]"
        # nothing outside the standard library but the package's light half
        probe = (
            "import json, sys; before = set(sys.modules); import antiregular.cli; "
            "print(json.dumps(sorted(m for m in set(sys.modules) - before "
            "if m.partition('.')[0] not in sys.stdlib_module_names)))"
        )
        assert json.loads(fresh_interpreter(probe)) == [
            "antiregular",
            "antiregular.cli",
            "antiregular.errors",
            "antiregular.hypergraph",
        ]

    def test_light_commands_load_no_command_module(self, tmp_path):
        # one interpreter runs all four; label then shows the probe sees a load
        probe = """
import io, json, sys
from contextlib import redirect_stdout
from antiregular.cli import main

def run(*args):
    out = io.StringIO()
    with redirect_stdout(out):
        main(list(args))
    return out.getvalue()

open("h.json", "w").write(run("build", "--string", "001101", "--k", "3"))
run("gen", "--n", "6", "--k", "3")
run("degrees", "--string", "001101", "--k", "3")
run("recognize", "--file", "h.json")
mods = ["antiregular.ipoly", "antiregular.threshold", "antiregular.sweep"]
before = [m for m in mods if m in sys.modules]
run("label", "--string", "001101", "--k", "3")
print(json.dumps([before, [m for m in mods if m in sys.modules]]))
"""
        before, after = json.loads(fresh_interpreter(probe, cwd=tmp_path))
        assert before == []
        assert after == ["antiregular.threshold"]

    def test_no_module_loads_dataclasses_or_inspect(self):
        # together 10-11 ms of a cold call: results are NamedTuples and slotted classes
        package = Path(cli.__file__).parent
        modules = sorted(f"antiregular.{p.stem}" for p in package.glob("[!_]*.py"))
        assert len(modules) == 8
        probe = f"import sys\nimport {', '.join(modules)}\n" + SLOW_IMPORTS_LOADED
        assert fresh_interpreter(probe).strip() == "[]"

    def test_commands_load_no_dataclasses_or_inspect(self, tmp_path):
        probe = """
import io, sys
from contextlib import redirect_stdout
from antiregular.cli import main

codes = []

def run(*args):
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            main(list(args))
            codes.append(0)
        except SystemExit as exc:
            codes.append(exc.code)
    return out.getvalue()

open("h.json", "w").write(run("build", "--string", "001101", "--k", "3"))
open("lab.json", "w").write(run("label", "--string", "001101", "--k", "3"))
run("gen", "--n", "6", "--k", "3")
run("ipoly", "--string", "00101", "--k", "3")
run("logconcave", "--k", "3", "--max-n", "6")
run("verify-t2", "--file", "h.json", "--labels", "lab.json")
run("verify-t3", "--file", "h.json")
run("degrees", "--file", "h.json")
run("feasible-t2", "--file", "h.json")
run("recognize", "--file", "h.json")
print(codes)
""" + SLOW_IMPORTS_LOADED
        codes, loaded = fresh_interpreter(probe, cwd=tmp_path).splitlines()
        assert codes == str([0] * 10) and loaded == "[]"


def run_with_closed_stdout(args, buffered: bool) -> subprocess.CompletedProcess:
    """Run the CLI in a child whose stdout is a pipe already closed for reading.

    Every write to it fails (EPIPE), whatever its size, as when a reader
    such as `head -1` has gone.  A buffered stdout fails at its first
    flush, an unbuffered one (PYTHONUNBUFFERED) at the first print.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(antiregular.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "antiregular.cli", *args],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
    finally:
        os.close(write)


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
class TestClosedStdout:
    @pytest.mark.parametrize(
        "args",
        [
            ["--help"],
            ["build", "--help"],
            ["build", "--string", "0" + "011" * 40, "--k", "2", "--format", "text"],
            ["build", "--string", "0010101", "--k", "3"],
            ["gen", "--n", "9", "--k", "3"],
        ],
    )
    def test_output_into_a_closed_pipe_exits_quietly(self, args, buffered):
        res = run_with_closed_stdout(args, buffered)
        assert (res.returncode, res.stderr) == (0, "")

    def test_a_failing_verdict_keeps_its_exit_code(self, tmp_path, buffered):
        lpath = write_json(tmp_path, "lab.json", {"c": ["0"] * 7, "tau": "0"})
        args = ["verify-t2", "--string", "0010101", "--k", "3", "--labels", lpath]
        for fmt in ("json", "text"):
            res = run_with_closed_stdout(args + ["--format", fmt], buffered)
            assert (res.returncode, res.stderr) == (1, "")


class TestSweep:
    def test_small_sweep_clean(self):
        res = invoke(["sweep", "--k-max", "3", "--n-max", "7"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["ok"] is True and payload["failures"] == []

    def test_output_is_worker_count_independent(self):
        serial = invoke(["sweep", "--k-max", "3", "--n-max", "7"], env={"NUM_WORKERS": "1"})
        parallel = invoke(["sweep", "--k-max", "3", "--n-max", "7"], env={"NUM_WORKERS": "2"})
        assert serial.stdout == parallel.stdout
        repeat = invoke(["sweep", "--k-max", "3", "--n-max", "7"], env={"NUM_WORKERS": "2"})
        assert repeat.stdout == parallel.stdout

    def test_failures_merge_the_same_for_any_worker_count(self, monkeypatch):
        # forked workers inherit the patch; every label step puts tau off by one
        step = sweep._label_step

        def off_by_one(state, bit, k):
            c, tau, opened = step(state, bit, k)
            return c, tau + 1, opened

        monkeypatch.setattr(sweep, "_label_step", off_by_one)
        serial, parallel = run_sweep(3, 8, 1), run_sweep(3, 8, 2)
        assert serial == parallel
        assert serial.failures and serial.failures == sorted(serial.failures)

    def test_non_integer_num_workers_is_usage_error(self):
        res = invoke(["sweep", "--k-max", "3", "--n-max", "5"], env={"NUM_WORKERS": "abc"})
        assert res.exit_code == 2
        assert "NUM_WORKERS must be an integer, not 'abc'" in res.stderr

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_num_workers_below_one_clamps_to_one(self, monkeypatch, value):
        monkeypatch.setenv("NUM_WORKERS", value)
        assert default_workers() == 1

    def test_workers_follow_the_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("NUM_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert default_workers() == 3
        monkeypatch.setenv("NUM_WORKERS", "2")
        assert default_workers() == 2

    def test_workers_fall_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("NUM_WORKERS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_workers() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert default_workers() == 8
