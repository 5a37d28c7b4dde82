import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import softcsp
from softcsp import cli
from softcsp.cli import run

from conftest import FIXTURES

NETWORK = str(FIXTURES / "network.json")
APPOINTMENTS = str(FIXTURES / "appointments.json")
STATIONS = str(FIXTURES / "stations.json")
PROBLEM = str(FIXTURES / "coloring.json")
PROGRAM = str(FIXTURES / "costs.sclp")


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    status = run(list(argv), out=out, err=err)
    return status, out.getvalue(), err.getvalue()


def reading(command, path):
    """argv for ``command`` with ``path`` as the input file under test."""
    return {
        "trip": ["trip", "--network", path, "--from", "p", "--to", "t",
                 "--limit", "10"],
        "journey": ["journey", "--network", NETWORK, "--appointments", path,
                    "--stations", STATIONS, "--soc", "10"],
        "scsp": ["scsp", "--problem", path],
        "sclp": ["sclp", "--program", path],
    }[command]


def _problem(**changes):
    problem = {"semiring": "wcsp", "domain": ["a"], "interface": [],
               "constraints": [{"support": ["x"],
                                "rows": [{"assign": ["a"], "value": 1}]}]}
    problem.update(changes)
    return json.dumps(problem)


class TestTrip:
    def test_canonical_query_text(self):
        status, out, err = invoke("trip", "--network", NETWORK,
                                  "--from", "p", "--to", "t", "--limit", "10")
        assert status == 0 and err == ""
        assert out.splitlines() == [
            "p,q,t time=4 energy=8",
            "p,t time=3 energy=9",
        ]

    def test_all_flag_prints_enumeration(self):
        status, out, _ = invoke("trip", "--network", NETWORK, "--from", "p",
                                "--to", "t", "--limit", "10", "--all")
        assert status == 0
        assert out.splitlines() == [
            "p,q,r,s,t time=7 energy=9",
            "p,q,t time=4 energy=8",
            "p,t time=3 energy=9",
        ]

    def test_weak_dominance_flag(self):
        status, out, _ = invoke("trip", "--network", NETWORK, "--from", "p",
                                "--to", "t", "--limit", "10",
                                "--dominance", "weak")
        assert status == 0
        assert len(out.splitlines()) == 2

    def test_json_matches_text(self):
        _, text, _ = invoke("trip", "--network", NETWORK, "--from", "p",
                            "--to", "t", "--limit", "10")
        _, raw, _ = invoke("trip", "--network", NETWORK, "--from", "p",
                           "--to", "t", "--limit", "10", "--json")
        document = json.loads(raw)
        from_json = {(",".join(r["path"]), r["time"], r["energy"])
                     for r in document["results"]}
        from_text = set()
        for line in text.splitlines():
            path, time, energy = line.split(" ")
            from_text.add((path, int(time.removeprefix("time=")),
                           int(energy.removeprefix("energy="))))
        assert from_json == from_text
        assert document["inputs"]["limit"] == 10

    def test_empty_results_json(self):
        status, raw, _ = invoke("trip", "--network", NETWORK, "--from", "p",
                                "--to", "t", "--limit", "0", "--json")
        assert status == 0
        assert json.loads(raw)["results"] == []

    def test_unknown_node_is_input_error(self):
        status, out, err = invoke("trip", "--network", NETWORK, "--from", "p",
                                  "--to", "zz", "--limit", "10")
        assert status == 1 and out == "" and "zz" in err

    def test_missing_file(self, tmp_path):
        # Every subcommand reports a file it cannot read, cannot decode or
        # finds malformed as an input error (exit 1) naming the file, and
        # the element at fault where there is one.
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b'{"caf\xe9": 1}\n')
        for command in ("trip", "journey", "scsp", "sclp"):
            assert invoke(*reading(command, "no-such.json")) == (
                1, "", f"softcsp {command}: cannot read no-such.json: "
                       f"No such file or directory\n")
            status, out, err = invoke(*reading(command, str(latin1)))
            assert status == 1 and out == ""
            assert f"cannot read {latin1}: not UTF-8" in err

        deep = "[" * 100_000 + "]" * 100_000
        row = {"assign": [["a"]], "value": 1}
        edge = {"from": ["p"], "to": "q", "time": 1, "energy": 1}
        cases = [
            ("trip", deep, "recursion depth"),
            ("journey", deep, "recursion depth"),
            ("scsp", deep, "recursion depth"),
            ("scsp", _problem(semiring=["wcsp"]), "semiring"),
            ("scsp", _problem(domain=[["a"]]), "domain[0]"),
            ("scsp", _problem(constraints=[{"support": ["x"], "rows": [row]}]),
             "constraints[0].rows[0].assign[0]"),
            ("trip", json.dumps({"nodes": ["p", "q"], "edges": [edge]}),
             "edges[0].from"),
        ]
        for index, (command, text, element) in enumerate(cases):
            path = tmp_path / f"case{index}.json"
            path.write_text(text, encoding="utf-8")
            status, out, err = invoke(*reading(command, str(path)))
            assert status == 1 and out == "", (command, element, err)
            assert f"softcsp {command}: {path}: " in err and element in err

    def test_negative_limit_rejected(self):
        status, _, err = invoke("trip", "--network", NETWORK, "--from", "p",
                                "--to", "t", "--limit", "-1")
        assert status == 1 and "non-negative" in err


class TestJourney:
    def test_canonical_query_text(self):
        status, out, err = invoke("journey", "--network", NETWORK,
                                  "--appointments", APPOINTMENTS,
                                  "--stations", STATIONS, "--soc", "10")
        assert status == 0 and err == ""
        assert out.splitlines() == [
            "p,q,r;r,q,t time=6 energy=10 charge=- soc=0",
            "p,q,r;r,s,t time=7 energy=9 charge=- soc=1",
            "p,r;r,q,t time=5 energy=12 charge=r:csr1 soc=0",
            "p,r;r,s,t time=6 energy=11 charge=r:csr1 soc=1",
        ]

    def test_weak_mode_drops_one(self):
        status, out, _ = invoke("journey", "--network", NETWORK,
                                "--appointments", APPOINTMENTS,
                                "--stations", STATIONS, "--soc", "10",
                                "--dominance", "weak")
        assert status == 0
        assert len(out.splitlines()) == 3
        assert not any("energy=11" in line for line in out.splitlines())

    def test_json_document(self):
        status, raw, _ = invoke("journey", "--network", NETWORK,
                                "--appointments", APPOINTMENTS,
                                "--stations", STATIONS, "--soc", "10",
                                "--json")
        assert status == 0
        document = json.loads(raw)
        assert len(document["results"]) == 4
        charged = [r for r in document["results"] if r["charging"]]
        assert {tuple(c.items()) for r in charged for c in r["charging"]} \
            == {(("location", "r"), ("station", "csr1"))}
        assert all(r["timings"][0]["departure"] == 8
                   for r in document["results"])

    def test_threshold_flag(self):
        status, out, _ = invoke("journey", "--network", NETWORK,
                                "--appointments", APPOINTMENTS,
                                "--stations", STATIONS, "--soc", "10",
                                "--threshold", "1")
        assert status == 0
        # A tighter floor just shrinks the usable charge per leg.
        assert all("soc=1" in line or "soc=2" in line
                   for line in out.splitlines())

    def test_json_matches_text(self):
        args = ("journey", "--network", NETWORK, "--appointments",
                APPOINTMENTS, "--stations", STATIONS, "--soc", "10")
        _, text, _ = invoke(*args)
        _, raw, _ = invoke(*args, "--json")
        from_json = {(";".join(",".join(leg) for leg in r["legs"]),
                      r["time"], r["energy"]) for r in json.loads(raw)["results"]}
        from_text = set()
        for line in text.splitlines():
            legs, time, energy, _, _ = line.split(" ")
            from_text.add((legs, int(time.removeprefix("time=")),
                           int(energy.removeprefix("energy="))))
        assert from_json == from_text

    def test_bad_appointments_file(self, tmp_path):
        bad = tmp_path / "appts.json"
        bad.write_text(json.dumps([{"location": "p"}]), encoding="utf-8")
        status, _, err = invoke("journey", "--network", NETWORK,
                                "--appointments", str(bad),
                                "--stations", STATIONS, "--soc", "10")
        assert status == 1 and "appointments" in err


class TestScsp:
    def test_blevel_line(self):
        status, out, err = invoke("scsp", "--problem", PROBLEM)
        assert status == 0 and err == ""
        lines = out.splitlines()
        assert lines[-1] == "blevel = 4"
        assert "x=red y=blue value=4" in lines
        assert "x=red y=red value=inf" in lines
        assert len(lines) == 10

    def test_json_document(self):
        status, raw, _ = invoke("scsp", "--problem", PROBLEM, "--json")
        assert status == 0
        document = json.loads(raw)
        assert document["blevel"] == 4
        values = {tuple(sorted(r["assign"].items())): r["value"]
                  for r in document["results"]}
        assert values[("x", "red"), ("y", "red")] == "inf"
        assert values[("x", "green"), ("y", "blue")] == 4

    def test_schema_violation(self, tmp_path):
        bad = tmp_path / "p.json"
        bad.write_text("{}", encoding="utf-8")
        status, _, err = invoke("scsp", "--problem", str(bad))
        assert status == 1 and "missing" in err

    def test_colliding_domain_values(self, tmp_path):
        # 1, 1.0 and true are one value to a table: the domain is rejected
        # as such, not collapsed into a row error.
        for index, (domain, second) in enumerate(
                [([1, True], "True"), (["a", 1, 1.0], "1.0"),
                 (["a", "a"], "'a'")]):
            rows = [{"assign": [v], "value": 1} for v in domain]
            path = tmp_path / f"domain{index}.json"
            path.write_text(_problem(domain=domain, constraints=[
                {"support": ["x"], "rows": rows}]), encoding="utf-8")
            status, out, err = invoke("scsp", "--problem", str(path))
            assert status == 1 and out == ""
            at = len(domain) - 1
            assert f"{path}: domain[{at}] {second} is the same value as " \
                   f"domain[{at - 1}]" in err
            assert "rows" not in err


class TestSclp:
    def test_goal_query(self):
        status, out, err = invoke("sclp", "--program", PROGRAM,
                                  "--goal", "s(a)")
        assert status == 0 and err == ""
        assert out == "2\n"

    def test_unreachable_goal(self):
        status, out, _ = invoke("sclp", "--program", PROGRAM, "--goal", "s(b)")
        assert status == 0
        assert out == "inf\n"

    def test_fixpoint_dump(self):
        status, out, _ = invoke("sclp", "--program", PROGRAM)
        assert status == 0
        lines = out.splitlines()
        assert "s(a) = 2" in lines
        assert "p(a,b) = 2" in lines
        assert "t(a) = 2" in lines
        assert len(lines) == 21  # every atom of the universe

    def test_json_document(self):
        status, raw, _ = invoke("sclp", "--program", PROGRAM, "--json")
        assert status == 0
        document = json.loads(raw)
        assert document["iterations"] == 4
        values = {r["atom"]: r["value"] for r in document["results"]}
        assert values["s(a)"] == 2 and values["s(b)"] == "inf"

    def test_iteration_cap_is_internal_error(self):
        status, _, err = invoke("sclp", "--program", PROGRAM,
                                "--goal", "s(a)", "--max-iters", "2")
        assert status == 2 and "fixpoint" in err

    def test_iteration_cap_names_changing_atoms(self):
        for goal in ([], ["--goal", "s(a)"]):
            status, out, err = invoke("sclp", "--program", PROGRAM,
                                      "--max-iters", "2", *goal)
            assert (status, out) == (2, "")
            assert err == ("softcsp sclp: no fixpoint within 2 iterations; "
                           "still changing: p(a,b), s(a)\n")

    def test_dump_lists_dead_atoms_at_zero(self, tmp_path):
        # t(a) is a zero fact and never/d/u can never fire, so their clauses
        # are dropped from the rounds, but every atom is still dumped.
        path = tmp_path / "dead.sclp"
        path.write_text("#semiring wcsp\n#constants a,b.\n"
                        "t(a) :- inf.\nd(X) :- never(X).\nu(X) :- t(X).\n"
                        "ok(a) :- 3.\n", encoding="utf-8")
        status, raw, err = invoke("sclp", "--program", str(path), "--json")
        assert status == 0 and err == ""
        document = json.loads(raw)
        assert document["iterations"] == 1
        assert {r["atom"]: r["value"] for r in document["results"]} == {
            "d(a)": "inf", "d(b)": "inf", "never(a)": "inf",
            "never(b)": "inf", "ok(a)": 3, "ok(b)": "inf", "t(a)": "inf",
            "t(b)": "inf", "u(a)": "inf", "u(b)": "inf"}
        assert [r["atom"] for r in document["results"]] == [
            "d(a)", "d(b)", "never(a)", "never(b)", "ok(a)", "ok(b)",
            "t(a)", "t(b)", "u(a)", "u(b)"]

    def test_dump_order_ignores_declared_constant_order(self, tmp_path):
        # Atoms are listed by predicate, arity, then arguments, whatever
        # order #constants gives; so are the atoms a capped run names.
        path = tmp_path / "unsorted.sclp"
        path.write_text("#semiring wcsp\n#constants c,b,a.\n"
                        "e(c,b) :- 1.\ne(b,a) :- 2.\nz :- 4.\n"
                        "path(X,Y) :- e(X,Y).\n"
                        "path(X,Y) :- e(X,Z), path(Z,Y).\n", encoding="utf-8")
        expected = ([f"e({x},{y})" for x in "abc" for y in "abc"]
                    + [f"path({x},{y})" for x in "abc" for y in "abc"] + ["z"])
        status, out, err = invoke("sclp", "--program", str(path))
        assert status == 0 and err == ""
        assert [line.split(" = ")[0] for line in out.splitlines()] == expected
        assert "path(c,a) = 3" in out.splitlines()
        status, raw, err = invoke("sclp", "--program", str(path), "--json")
        assert status == 0 and err == ""
        document = json.loads(raw)
        assert [r["atom"] for r in document["results"]] == expected
        assert document["iterations"] == 3
        status, out, err = invoke("sclp", "--program", str(path),
                                  "--max-iters", "1")
        assert (status, out) == (2, "")
        assert err == ("softcsp sclp: no fixpoint within 1 iterations; "
                       "still changing: path(b,a), path(c,b)\n")

    def test_bad_goal(self):
        status, _, err = invoke("sclp", "--program", PROGRAM, "--goal", "s(X)")
        assert status == 1 and "not ground" in err

    def test_empty_goal_is_rejected(self):
        assert invoke("sclp", "--program", PROGRAM, "--goal", "") \
            == (1, "", "softcsp sclp: empty goal\n")


class TestDispatch:
    def test_unknown_subcommand(self):
        status, _, err = invoke("frobnicate")
        assert status == 1 and err != ""

    def test_unknown_flag(self):
        status, _, err = invoke("trip", "--bogus")
        assert status == 1 and err != ""

    def test_parser_is_reused_across_calls(self):
        query = ["trip", "--network", NETWORK, "--from", "p", "--to", "t",
                 "--limit", "10", "--dominance", "weak", "--json"]
        fresh = subprocess.run(
            [sys.executable, "-c",
             "import sys; from softcsp.cli import run; sys.exit(run(sys.argv[1:]))",
             *query],
            capture_output=True, text=True, check=True,
            env={**os.environ,
                 "PYTHONPATH": str(Path(softcsp.__file__).parents[1])})
        status, _, err = invoke("trip", "--network", NETWORK, "--from", "q",
                                "--to", "s", "--limit", "-1", "--all")
        assert status == 1 and "non-negative" in err
        assert invoke(*query) == (0, fresh.stdout, "")

    def test_no_diagnostic_on_success(self):
        status, out, err = invoke("scsp", "--problem", PROBLEM)
        assert status == 0 and err == "" and out != ""


FILE = "<file>"
SCLP_HEAD = "#semiring wcsp\n#constants a.\n"
ROW = {"assign": ["a"], "value": 1}


@pytest.mark.parametrize("argv, text, message", [
    (reading("sclp", FILE), SCLP_HEAD + "P(a).\n",
     "line 3: malformed atom 'P(a)'"),
    (reading("sclp", FILE), SCLP_HEAD + "p(a-b).\n",
     "line 3: malformed term 'a-b'"),
    (reading("sclp", FILE), SCLP_HEAD + "p(a) :- .\n",
     "line 3: empty body after ':-'"),
    (reading("sclp", FILE), SCLP_HEAD + "#foo\n",
     "line 3: unknown directive '#foo'"),
    (reading("sclp", FILE), "#constants A.\n", "line 1: bad constant 'A'"),
    (reading("sclp", FILE), "#semiring nope\n",
     "line 1: unknown semiring instance 'nope' "
     "(known: costpair, csp, fcsp, wcsp)"),
    (reading("scsp", FILE), _problem(domain="ab"),
     '{path}: "domain" must be a non-empty list'),
    (reading("scsp", FILE), _problem(interface="x"),
     '{path}: "interface" must be a list of names'),
    (reading("scsp", FILE), _problem(constraints={}),
     '{path}: "constraints" must be a list'),
    (reading("scsp", FILE),
     _problem(constraints=[{"support": "x", "rows": [ROW]}]),
     "{path}: constraints[0].support must be a list of names"),
    (reading("scsp", FILE),
     _problem(constraints=[{"support": ["x"], "rows": ROW}]),
     "{path}: constraints[0].rows must be a list"),
    (reading("scsp", FILE),
     _problem(constraints=[{"support": ["x"],
                            "rows": [{"assign": "a", "value": 1}]}]),
     "{path}: constraints[0].rows[0].assign must be a list"),
    (reading("trip", FILE), "[]", "{path}: network file must be an object"),
    (reading("trip", FILE), json.dumps({"nodes": "pq", "edges": []}),
     '{path}: "nodes" must be a list of node names'),
    (reading("trip", FILE), json.dumps({"nodes": ["p"], "edges": {}}),
     '{path}: "edges" must be a list'),
    (["trip", "--network", NETWORK, "--from", "p", "--to", "t",
      "--limit", "abc"], None, "argument --limit: 'abc' is not an integer"),
    (reading("journey", APPOINTMENTS)
     + ["--soc", "5", "--capacity", "2", "--threshold", "4"], None,
     "capacity 2 is below the threshold 4"),
    (reading("journey", APPOINTMENTS) + ["--capacity", "3"], None,
     "initial state of charge is above the capacity"),
    (reading("sclp", FILE), SCLP_HEAD + "#constants c.\n",
     "line 3: #constants given twice (first on line 2)"),
    (reading("sclp", FILE), SCLP_HEAD + "#semiring fcsp\n",
     "line 3: #semiring given twice (first on line 1)"),
    (reading("sclp", FILE), "#semiring fcsp\n#constants a.\np(a) :- 2.\n",
     "line 3: 2 is not a value of the 'fcsp' carrier: 2 is outside [0, 1]"),
])
def test_input_error_names_the_fault(tmp_path, argv, text, message):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    argv = [str(path) if arg == FILE else arg for arg in argv]
    assert invoke(*argv) == \
        (1, "", f"softcsp {argv[0]}: {message.format(path=path)}\n")


@pytest.mark.parametrize("error, status, message", [
    (RuntimeError("boom"), 2, "internal error: RuntimeError('boom')"),
    (OSError("disk gone"), 1, "disk gone"),
])
def test_exit_code_contract(monkeypatch, error, status, message):
    def handler(args, out):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "scsp", handler)
    assert invoke("scsp", "--problem", PROBLEM) == \
        (status, "", f"softcsp scsp: {message}\n")
