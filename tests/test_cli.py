import gc
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import softcsp
from softcsp import cli, sclp
from softcsp.cli import run

from conftest import (FIXTURES, corridor_data, longest_integer,
                      oversized_integer, shuttle_data)

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

    def test_corridor_longer_than_the_recursion_limit(self, tmp_path):
        corridor = tmp_path / "corridor.json"
        corridor.write_text(json.dumps(corridor_data(1200)), encoding="utf-8")
        status, out, err = invoke("trip", "--network", str(corridor),
                                  "--from", "n0", "--to", "n1199",
                                  "--limit", "5000")
        assert (status, err) == (0, "")
        assert out == (",".join(f"n{i}" for i in range(1200))
                       + " time=1199 energy=1199\n")


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

    def test_weak_mode_text(self):
        status, out, err = invoke("journey", "--network", NETWORK,
                                  "--appointments", APPOINTMENTS,
                                  "--stations", STATIONS, "--soc", "10",
                                  "--dominance", "weak")
        assert (status, err) == (0, "")
        assert out.splitlines() == [
            "p,q,r;r,q,t time=6 energy=10 charge=- soc=0",
            "p,q,r;r,s,t time=7 energy=9 charge=- soc=1",
            "p,r;r,q,t time=5 energy=12 charge=r:csr1 soc=0",
        ]

    def test_bad_appointments_file(self, tmp_path):
        bad = tmp_path / "appts.json"
        bad.write_text(json.dumps([{"location": "p"}]), encoding="utf-8")
        status, _, err = invoke("journey", "--network", NETWORK,
                                "--appointments", str(bad),
                                "--stations", STATIONS, "--soc", "10")
        assert status == 1 and "appointments" in err

    def test_more_appointments_than_the_recursion_limit(self, tmp_path):
        network, appointments = shuttle_data(1100)
        paths = {}
        for name, data in (("network", network),
                           ("appointments", appointments), ("stations", [])):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(data), encoding="utf-8")
        status, out, err = invoke(
            "journey", "--network", str(paths["network"]),
            "--appointments", str(paths["appointments"]),
            "--stations", str(paths["stations"]), "--soc", "0")
        assert (status, err) == (0, "")
        assert out == (";".join(("a,b", "b,a")[k % 2] for k in range(1099))
                       + " time=1099 energy=0 charge=- soc=0\n")


class TestScsp:
    def test_blevel_line(self):
        status, out, err = invoke("scsp", "--problem", PROBLEM)
        assert status == 0 and err == ""
        lines = out.splitlines()
        assert lines[-1] == "blevel = 4"
        assert "x=red y=blue value=4" in lines
        assert "x=red y=red value=inf" in lines
        assert len(lines) == 10

    def test_solution_text(self):
        status, out, err = invoke("scsp", "--problem", PROBLEM)
        assert (status, err) == (0, "")
        values = {("red", "red"): "inf", ("blue", "blue"): "inf",
                  ("green", "green"): "inf"}
        colors = ("red", "blue", "green")
        assert out.splitlines() == [
            f"x={x} y={y} value={values.get((x, y), 4)}"
            for x in colors for y in colors] + ["blevel = 4"]

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

    def test_fixpoint_dump_text(self):
        status, out, err = invoke("sclp", "--program", PROGRAM)
        assert (status, err) == (0, "")
        finite = {"p(a,b)": 2, "p(a,c)": 3, "q(a)": 2, "r(a)": 3, "s(a)": 2,
                  "t(a)": 2}
        atoms = ([f"p({x},{y})" for x in "abc" for y in "abc"]
                 + [f"{p}({x})" for p in "qrst" for x in "abc"])
        assert out.splitlines() == [f"{a} = {finite.get(a, 'inf')}"
                                    for a in atoms]

    def test_goal_json_document(self):
        status, raw, err = invoke("sclp", "--program", PROGRAM,
                                  "--goal", "s(a)", "--json")
        assert (status, err) == (0, "")
        assert json.loads(raw)["results"] == [{"goal": ["s(a)"], "value": 2}]

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

    def test_iteration_cap_of_one(self):
        assert invoke("sclp", "--program", PROGRAM, "--max-iters", "1") == (
            2, "", "softcsp sclp: no fixpoint within 1 iterations; "
                   "still changing: p(a,c), q(a)\n")

    def test_iteration_cap_at_the_reported_iterations(self):
        # The fixture reports 4 iterations; the cap also counts the round
        # that confirms the fixpoint, so 4 fails and says that 5 returns it.
        assert invoke("sclp", "--program", PROGRAM, "--max-iters", "4") == (
            2, "", "softcsp sclp: no fixpoint within 4 iterations; the last "
                   "round changed nothing, so a cap of 5 returns the "
                   "fixpoint\n")
        status, out, err = invoke("sclp", "--program", PROGRAM,
                                  "--max-iters", "5")
        assert (status, err) == (0, "")
        assert out == invoke("sclp", "--program", PROGRAM)[1]

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
        assert invoke("trip", "--network", NETWORK, "--from", "p", "--to", "t",
                      "--limit", "10", "--bogus") \
            == (1, "", "softcsp: unrecognized arguments: --bogus\n")

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

    @pytest.mark.parametrize("module", ["softcsp", "softcsp.cli"])
    @pytest.mark.parametrize("argv, status", [
        (["sclp", "--program", PROGRAM, "--goal", "s(a)"], 0),
        (["sclp", "--goal", "s(a)"], 1),
    ])
    def test_python_m_runs_the_command(self, module, argv, status):
        ran = subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True,
            text=True,
            env={**os.environ,
                 "PYTHONPATH": str(Path(softcsp.__file__).parents[1])})
        assert (ran.returncode, ran.stdout, ran.stderr) == invoke(*argv)
        assert ran.returncode == status and (ran.stdout or ran.stderr)

    @pytest.mark.parametrize("argv, shows", [
        (["--help"], "{trip,journey,scsp,sclp}"),
        (["-h"], "{trip,journey,scsp,sclp}"),
        (["trip", "-h"], "--limit LIMIT"),
        (["trip", "--help"], "--limit LIMIT"),
        (["sclp", "-h"], "--max-iters MAX_ITERS"),
    ], ids=["help", "h", "trip-h", "trip-help", "sclp-h"])
    def test_help_goes_to_out_and_returns_zero(self, monkeypatch, capsys,
                                               argv, shows):
        # The help is run's output, not the process's: run returns 0
        # without raising SystemExit and leaves sys.stdout alone.
        monkeypatch.setenv("COLUMNS", "80")
        status, out, err = invoke(*argv)
        assert status == 0 and err == ""
        assert out.startswith("usage: softcsp") and shows in out
        assert capsys.readouterr() == ("", "")
        ran = subprocess.run(
            [sys.executable, "-m", "softcsp", *argv], capture_output=True,
            text=True,
            env={**os.environ, "COLUMNS": "80",
                 "PYTHONPATH": str(Path(softcsp.__file__).parents[1])})
        assert (ran.returncode, ran.stdout, ran.stderr) == (0, out, "")

    def test_no_diagnostic_on_success(self):
        status, out, err = invoke("scsp", "--problem", PROBLEM)
        assert status == 0 and err == "" and out != ""

    def test_import_leaves_out_slow_modules(self):
        # dataclasses loads inspect, ast, dis and tokenize at start-up.
        # -I -S keeps site (which loads pathlib) and the environment out;
        # -B writes no bytecode, which would speed up later start-ups.
        ran = subprocess.run(
            [sys.executable, "-I", "-S", "-B", "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); "
             "import softcsp, softcsp.cli; "
             "print(sorted({'dataclasses', 'inspect', 'pathlib'} "
             "& set(sys.modules)))",
             str(Path(softcsp.__file__).parents[1])],
            capture_output=True, text=True, check=True)
        assert ran.stdout == "[]\n"


FILE = "<file>"
SCLP_HEAD = "#semiring wcsp\n#constants a.\n"
ROW = {"assign": ["a"], "value": 1}


def _edge(**changes):
    return {"from": "p", "to": "t", "time": 1, "energy": 1, **changes}


def _network(*edges):
    """A network file over nodes p and t with the given edge entries."""
    return json.dumps({"nodes": ["p", "t"], "edges": list(edges)})


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
    (["journey", "--network", NETWORK, "--appointments", APPOINTMENTS,
      "--stations", FILE, "--soc", "10"],
     json.dumps([{"name": "s", "spots": 1, "location": "p"},
                 {"name": "s", "spots": 2, "location": "r"}]),
     "{path}: stations[1]: station name 's' is already used by stations[0]"),
    (reading("sclp", FILE),
     "#semiring wcsp\n#constants .\nq :- 1.\np(X) :- never(X).\n",
     "clause 'p(X) :- never(X).' has variables but the constant universe "
     "is empty"),
    (reading("sclp", FILE) + ["--goal", "q"],
     "#semiring wcsp\n#constants .\nq :- 1.\np(X) :- never(X).\n",
     "clause 'p(X) :- never(X).' has variables but the constant universe "
     "is empty"),
    (reading("trip", FILE), _network("x"),
     "{path}: edges[0] must be an object"),
    (reading("trip", FILE), _network({"from": "p"}),
     "{path}: edges[0] is missing ['to', 'time', 'energy']"),
    (reading("trip", FILE), _network(_edge(to=["t"])),
     "{path}: edges[0].to must be a node name, got ['t']"),
    (reading("trip", FILE), _network(_edge(time=True)),
     "{path}: edges[0]: time must be a non-negative integer, got True"),
    (reading("trip", FILE), _network(_edge(time=1.0)),
     "{path}: edges[0]: time must be a non-negative integer, got 1.0"),
    (reading("trip", FILE), _network(_edge(time=-1)),
     "{path}: edges[0]: time must be a non-negative integer, got -1"),
    (reading("trip", FILE), _network(_edge(), _edge(time=2)),
     "{path}: edges[1]: duplicate edge p->t"),
    (reading("trip", FILE), _network(_edge(to="z")),
     "{path}: edges[0]: unknown node 'z'"),
    # Every edge's types are checked before any edge's endpoints.
    (reading("trip", FILE), _network(_edge(to="z"), _edge(time="1")),
     "{path}: edges[1]: time must be a non-negative integer, got '1'"),
    (reading("trip", FILE), _network(_edge(), ["p", "t", 1, 1]),
     "{path}: edges[1] must be an object"),
    (reading("trip", FILE), _network({"from": "p", "to": "t", "time": 1}),
     "{path}: edges[0] is missing ['energy']"),
    (["sclp", "--program", PROGRAM, "--goal", "s(X)"], None,
     "goal atom s(X) is not ground (X is a variable)"),
    # Balanced text that is not a list of atoms is a malformed atom; text
    # whose parentheses do not balance is reported as such.
    (reading("sclp", FILE), SCLP_HEAD + "p(a) q(a).\n",
     "line 3: malformed atom 'p(a) q(a)'"),
    (reading("sclp", FILE), SCLP_HEAD + "p(a) :- q(a)r(b).\n",
     "line 3: malformed atom 'q(a)r(b)'"),
    (reading("sclp", FILE), SCLP_HEAD + "p(a) :- q(a)(b).\n",
     "line 3: malformed atom 'q(a)(b)'"),
    (["sclp", "--program", PROGRAM, "--goal", "p(a) q(b)"], None,
     "malformed atom 'p(a) q(b)'"),
    (reading("sclp", FILE), SCLP_HEAD + "p(a) :- s((.\n",
     "line 3: unbalanced parentheses"),
    (reading("sclp", FILE), SCLP_HEAD + "s(a)).\n",
     "line 3: unbalanced parentheses"),
    (reading("sclp", FILE), SCLP_HEAD + "p(a) :- q(a.\n",
     "line 3: unbalanced parentheses"),
    (["sclp", "--program", PROGRAM, "--goal", "s(("], None,
     "unbalanced parentheses"),
    (reading("sclp", FILE), SCLP_HEAD + "p(f(a)).\n",
     "line 3: term 'f(a)' uses a function symbol; only constants and "
     "variables are supported"),
    (reading("sclp", FILE), "#semiring fcsp\n#constants a.\np(a) :- 1/0.\n",
     "line 3: '1/0' is not a value of the 'fcsp' carrier: zero denominator"),
    # Only ASCII digits are an integer, though int() reads the first three.
    (["trip", "--network", NETWORK, "--from", "p", "--to", "t",
      "--limit", "\u0661\u0660"], None,
     "argument --limit: '\u0661\u0660' is not an integer"),
    (["trip", "--network", NETWORK, "--from", "p", "--to", "t",
      "--limit", "1_0"], None, "argument --limit: '1_0' is not an integer"),
    (["trip", "--network", NETWORK, "--from", "p", "--to", "t",
      "--limit", " 10"], None, "argument --limit: ' 10' is not an integer"),
    (["trip", "--network", NETWORK, "--from", "p", "--to", "t",
      "--limit", "-3"], None, "argument --limit: value must be non-negative"),
    # 2**70 rows cannot be built, so the count is checked first.
    (reading("scsp", FILE), _problem(domain=["a", "b"], constraints=[
        {"support": [f"v{i:02d}" for i in range(70)],
         "rows": [{"assign": ["a"] * 70, "value": 1}]}]),
     f"{{path}}: constraints[0]: table has 1 rows, expected {2 ** 70} "
     f"(|D|^70); first missing {('a',) * 69 + ('b',)!r}"),
    # A directive is a whole word: these are neither #semiring nor
    # #constants.
    (reading("sclp", FILE), "#semiringwcsp\n#constants a.\n",
     "line 1: unknown directive '#semiringwcsp'"),
    (reading("sclp", FILE), "#semiring wcsp\n#constantsa.\n",
     "line 2: unknown directive '#constantsa.'"),
    (reading("sclp", FILE), SCLP_HEAD + "#semiring_x\n",
     "line 3: unknown directive '#semiring_x'"),
    # A row fault is named before the table's own fault, which is named
    # when no row is at fault.
    (reading("scsp", FILE), _problem(domain=["a", "b"], constraints=[
        {"support": ["x"], "rows": [ROW, {"assign": ["a"], "value": 2}]}]),
     "{path}: constraints[0].rows[1]: duplicate assignment ['a']"),
    (reading("scsp", FILE), _problem(domain=["a", "b"]),
     "{path}: constraints[0]: table has 1 rows, expected 2 (|D|^1); "
     "first missing ('b',)"),
    # Only ASCII digits are a value, though int() and Fraction() read
    # ARABIC-INDIC DIGIT THREE as 3.
    (reading("sclp", FILE), SCLP_HEAD + "p(a) :- \u0663.\n",
     "line 3: malformed atom '\u0663'"),
    (reading("sclp", FILE), "#semiring fcsp\n#constants a.\np(a) :- 0.\u0663.\n",
     "line 3: malformed atom '0.\u0663'"),
    (reading("scsp", FILE), _problem(semiring="fcsp", constraints=[
        {"support": ["x"], "rows": [{"assign": ["a"], "value": "0.\u0663"}]}]),
     "{path}: constraints[0]: row ('a',): '0.\u0663' is not a value of the "
     "'fcsp' carrier: Invalid literal for Fraction: '0.\u0663'"),
    (reading("trip", FILE), json.dumps({"nodes": ["p", "t", "p"],
                                        "edges": []}),
     "{path}: \"nodes\" lists 'p' more than once"),
])
def test_input_error_names_the_fault(tmp_path, argv, text, message):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    argv = [str(path) if arg == FILE else arg for arg in argv]
    if message.startswith("line "):
        # A program file's parse error names the file, then the line.
        message = "{path}: " + message
    assert invoke(*argv) == \
        (1, "", f"softcsp {argv[0]}: {message.format(path=path)}\n")


def test_trip_reads_a_rewritten_network_again(tmp_path):
    # A process keeps the networks it has read by their text, so the
    # second query on the path sees the rewritten edge.
    path = tmp_path / "network.json"
    argv = reading("trip", str(path))
    for time in (1, 2):
        path.write_text(_network(_edge(time=time)), encoding="utf-8")
        assert invoke(*argv) == (0, f"p,t time={time} energy=1\n", "")


@pytest.mark.parametrize("command, template", [
    ("trip", _network(_edge(time="DIGITS"))),
    ("journey", json.dumps([{"location": "p", "start": 0, "duration": 1},
                            {"location": "t", "start": "DIGITS",
                             "duration": 0}])),
    ("scsp", _problem(constraints=[{"support": ["x"], "rows": [
        {"assign": ["a"], "value": "DIGITS"}]}])),
    ("sclp", SCLP_HEAD + 'p(a) :- "DIGITS".\n'),
])
def test_oversized_integer_is_an_input_error(tmp_path, command, template):
    # json.loads raises a plain ValueError for an integer longer than the
    # interpreter reads from text; it is a fault of the file, not the
    # program.  Its own text differs between Python versions.
    path = tmp_path / "input"
    path.write_text(template.replace('"DIGITS"', oversized_integer()),
                    encoding="utf-8")
    status, out, err = invoke(*reading(command, str(path)))
    assert (status, out) == (1, "")
    assert err.startswith(f"softcsp {command}: {path}: ")
    assert "internal error" not in err


@pytest.mark.parametrize("command, template", [
    ("trip", json.dumps({"nodes": ["a", "b", "c"], "edges": [
        {"from": "a", "to": "b", "time": "DIGITS", "energy": 0},
        {"from": "b", "to": "c", "time": "DIGITS", "energy": 0}]})),
    ("scsp", _problem(interface=["x"], constraints=[
        {"support": ["x"], "rows": [{"assign": ["a"], "value": "DIGITS"}]},
        {"support": ["x"], "rows": [{"assign": ["a"], "value": "DIGITS"}]}])),
])
@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_result_too_long_to_print_is_an_input_error(tmp_path, command,
                                                     template, as_json):
    # Each input integer can be read, but the sum of two has one digit more
    # than the interpreter prints; nothing is written to stdout.
    path = tmp_path / "input"
    path.write_text(template.replace('"DIGITS"', longest_integer()),
                    encoding="utf-8")
    argv = {"trip": ["trip", "--network", str(path), "--from", "a",
                     "--to", "c", "--limit", "1"],
            "scsp": ["scsp", "--problem", str(path)]}[command]
    assert invoke(*argv, *as_json) == (
        1, "", f"softcsp {command}: a result has an integer longer than the "
               f"interpreter's limit of {sys.get_int_max_str_digits()} "
               f"digits\n")


@pytest.mark.parametrize("reader", ["lookup", "_parse_clause"])
def test_program_reader_faults_are_internal_errors(monkeypatch, reader):
    # Only what reading the text can raise is an input error; a fault of
    # the reader itself exits 2.
    def fault(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(sclp, reader, fault)
    assert invoke("sclp", "--program", PROGRAM) == \
        (2, "", "softcsp sclp: internal error: RuntimeError('boom')\n")


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


# --- the --json renderer ----------------------------------------------------

_TEXT = 'aZ0 "\\/\b\f\n\r\t\x00\x1f\x7f\xe9€ \U0001f600\ud800'
_FLOATS = [0.0, -0.0, 0.1, -2.5, 1e16, 1e300, 5e-324, float("nan"),
           float("inf"), float("-inf")]
_INTS = [0, -1, 7, 2**63, -(2**100), 10**40]


def _random_scalar(rng):
    return rng.choice([
        lambda: "".join(rng.choices(_TEXT, k=rng.randint(0, 6))),
        lambda: rng.choice(_INTS + [rng.randint(-10**6, 10**6)]),
        lambda: rng.choice(_FLOATS + [rng.uniform(-1e6, 1e6)]),
        lambda: rng.choice([True, False, None]),
    ])()


def _random_document(rng, depth=0):
    roll = rng.random()
    if depth == 4 or roll < 0.4:
        return _random_scalar(rng)
    if roll < 0.7:
        return {"".join(rng.choices(_TEXT, k=rng.randint(0, 4))):
                _random_document(rng, depth + 1)
                for _ in range(rng.randint(0, 4))}
    items = [_random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return tuple(items) if rng.random() < 0.3 else items


def _rendered(document):
    out = io.StringIO()
    cli._emit(document, out)
    return out.getvalue()


def _problem_for(semiring, values):
    return _problem(semiring=semiring, domain=["a", 1, None, 2.5],
                    interface=["x"], constraints=[{"support": ["x"], "rows": [
                        {"assign": [v], "value": value}
                        for v, value in zip(["a", 1, None, 2.5], values)]}])


def test_renderer_matches_json_dumps_on_random_documents():
    rng = random.Random(20261020)
    for _ in range(3000):
        document = _random_document(rng)
        assert _rendered(document) == \
            json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_renderer_matches_json_dumps_on_every_document(monkeypatch,
                                                        tmp_path):
    # The documents each subcommand builds, with the types it builds them
    # from: every semiring's values, tuples, and domains of mixed scalars.
    problems = {
        "csp": [True, False, True, True],
        "fcsp": ["1/3", 1, 0, "1/2"],
        "wcsp": ["inf", 0, 3, 12],
        "costpair": [[1, "inf"], ["inf", "inf"], [0, 2], [4, 4]],
    }
    argvs = [reading("trip", NETWORK) + ["--json"],
             reading("trip", NETWORK) + ["--all", "--json"],
             reading("journey", APPOINTMENTS) + ["--json"],
             reading("journey", APPOINTMENTS) + ["--capacity", "12", "--json"],
             ["scsp", "--problem", PROBLEM, "--json"],
             ["sclp", "--program", PROGRAM, "--json"],
             ["sclp", "--program", PROGRAM, "--goal", "s(a),t(a)", "--json"]]
    for semiring, values in problems.items():
        path = tmp_path / f"{semiring}.json"
        path.write_text(_problem_for(semiring, values), encoding="utf-8")
        argvs.append(["scsp", "--problem", str(path), "--json"])
    documents = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda document, out: (
        documents.append(document), emit(document, out)))
    for argv in argvs:
        status, raw, err = invoke(*argv)
        assert (status, err) == (0, ""), argv
        assert raw == json.dumps(documents[-1], indent=2, sort_keys=True) + "\n"
    assert len(documents) == len(argvs)


def test_queries_leave_no_cyclic_garbage():
    # A closure that refers to itself, or the json module's encoder, would
    # leave each query's network, caches and results to the collector.
    argvs = {"trip": reading("trip", NETWORK),
             "journey": reading("journey", APPOINTMENTS),
             "scsp": reading("scsp", PROBLEM),
             "sclp": reading("sclp", PROGRAM),
             "sclp --goal": reading("sclp", PROGRAM) + ["--goal", "s(a)"]}
    for argv in argvs.values():
        invoke(*argv, "--json")
    garbage = {}
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for name, argv in argvs.items():
            for _ in range(10):
                assert invoke(*argv, "--json")[0] == 0
            garbage[name] = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert garbage == dict.fromkeys(argvs, 0)


# --- argument dispatch ------------------------------------------------------

_FLAGS = {
    "trip": [["--network", NETWORK], ["--from", "p"], ["--to", "t"],
             ["--limit", "10"], ["--dominance", "weak"], ["--all"],
             ["--json"]],
    "journey": [["--network", NETWORK], ["--appointments", APPOINTMENTS],
                ["--stations", STATIONS], ["--soc", "10"], ["--rate", "2"],
                ["--capacity", "30"], ["--threshold", "1"],
                ["--dominance", "strict"], ["--json"]],
    "scsp": [["--problem", PROBLEM], ["--json"]],
    "sclp": [["--program", PROGRAM], ["--goal", "s(a)"], ["--max-iters", "5"],
             ["--json"]],
}
_BAD_INTS = ["x", "-3", "1_0", "١٠", "", " 1", "+1", "1.0", "0x1"]
_BAD_CHOICES = ["Strict", "wea", "", "none", "strict "]


def _fuzz_argv(rng):
    """A valid argv of a random subcommand, mutated a few times."""
    command = rng.choice(list(_FLAGS))
    groups = [list(group) for group in _FLAGS[command]]
    for _ in range(rng.randint(0, 3)):
        at = rng.randrange(len(groups) + 1)
        pick = rng.choice(groups) if groups else ["--json"]
        mutation = rng.randrange(10)
        if mutation == 0 and groups:  # dropped
            groups.remove(pick)
        elif mutation == 1:  # repeated, maybe with another value
            groups.insert(at, pick[:1] + [rng.choice(["0", "q", "weak"])]
                          if len(pick) == 2 else list(pick))
        elif mutation == 2 and len(pick[0]) > 2:  # abbreviated, "--" included
            pick[0] = pick[0][:rng.randint(2, len(pick[0]))]
        elif mutation == 3:  # an extra positional
            groups.insert(at, [rng.choice(["extra", "trip", "-1", ""])])
        elif mutation == 4:
            groups.insert(at, ["--"])
        elif mutation == 5:  # a bad int, or a value that looks like a flag
            groups.insert(at, [rng.choice(["--limit", "--soc", "--rate",
                                           "--max-iters"]),
                               rng.choice(_BAD_INTS + ["--json"])])
        elif mutation == 6:
            groups.insert(at, ["--dominance", rng.choice(_BAD_CHOICES)])
        elif mutation == 7 and len(pick) == 2:  # --flag=value
            pick[:] = [f"{pick[0]}={pick[1]}"]
        elif mutation == 8:  # an unknown flag
            groups.insert(at, [rng.choice(["--bogus", "-x", "--json=1"])])
        else:
            rng.shuffle(groups)
    if rng.random() < 0.05:
        command = rng.choice(["tri", "TRIP", "--json", "-x", ""])
    return [command] + [arg for group in groups for arg in group]


def _parse_outcome(parse, argv):
    """What parsing ``argv`` gives: a namespace, or an error's text."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parse(argv)
    except cli._UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()
    return "parsed", vars(args), out.getvalue(), err.getvalue()


def test_dispatch_parses_as_the_top_parser_does():
    rng = random.Random(24)
    kinds = []
    for _ in range(1500):
        argv = _fuzz_argv(rng)
        expected = _parse_outcome(cli._PARSER.parse_args, argv)
        assert _parse_outcome(cli._parse, argv) == expected, argv
        kinds.append(expected[0])
    # The corpus reaches both sides of the parse and the top parser's own
    # leftover-arguments error.
    assert kinds.count("parsed") > 300 and kinds.count("usage error") > 300


# --- a seeded mutation fuzz of every subcommand's input files ----------------

# Stand-ins for a JSON value: near misses of the fixtures' own values too.
_FUZZ_VALUES = [None, True, 0, -1, 1, 2.5, 10**30, float("inf"), "", "p", "q",
                "t", "zz", "inf", "red", "x", "1/2", [], ["p"], {}, {"p": 1}]
_SCLP_CHARS = "()[],.:-%#_ aXYz019\n'\"\\"


def _mutate_document(rng, data):
    """``data`` with one value inside it replaced, dropped or repeated."""
    spots = []

    def collect(node):
        keys = (list(node) if isinstance(node, dict)
                else range(len(node)) if isinstance(node, list) else ())
        for key in keys:
            spots.append((node, key))
            collect(node[key])

    collect(data)
    if not spots:
        return rng.choice(_FUZZ_VALUES)
    node, key = rng.choice(spots)
    roll = rng.randrange(4)
    if roll == 0:
        node[key] = rng.choice(_FUZZ_VALUES)
    elif roll == 1:
        del node[key]
    elif roll == 2 and isinstance(node, list):
        node.insert(key, json.loads(json.dumps(node[key])))
    elif isinstance(node, dict):  # a key renamed
        node[rng.choice(["from", "to", "value", "assign", "nodes", "zz"])] = \
            node.pop(key)
    else:
        node[key] = rng.choice(_FUZZ_VALUES)
    return data


def _mutate_text(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(chars) + 1)
        roll = rng.randrange(3)
        if roll == 0 and at < len(chars):
            del chars[at]
        elif roll == 1 and at < len(chars):
            chars[at] = rng.choice(_SCLP_CHARS)
        else:
            chars.insert(at, rng.choice(_SCLP_CHARS))
    return "".join(chars)


def test_mutated_inputs_never_fail_internally(tmp_path):
    # Each call reads the fixtures with one file mutated: a clean answer
    # or a user-facing error, exit 0 or 1, and never an internal error.
    rng = random.Random("input-fuzz")
    files = {"network": NETWORK, "appointments": APPOINTMENTS,
             "stations": STATIONS, "problem": PROBLEM, "program": PROGRAM}
    commands = {
        "trip": (["network"], "trip --from p --to t --limit 10"),
        "journey": (["network", "appointments", "stations"],
                    "journey --soc 10"),
        "scsp": (["problem"], "scsp"),
        "sclp": (["program"], "sclp"),
    }
    statuses = []
    for trial in range(400):
        command = list(commands)[trial % 4]
        inputs, flags = commands[command]
        target = rng.choice(inputs)
        text = Path(files[target]).read_text(encoding="utf-8")
        if target == "program":
            text = _mutate_text(rng, text)
        else:
            text = json.dumps(_mutate_document(rng, json.loads(text)))
        path = tmp_path / f"{trial}-{target}"
        path.write_text(text, encoding="utf-8")
        argv = flags.split()
        for name in inputs:
            argv += [f"--{name}", str(path) if name == target else files[name]]
        if rng.random() < 0.5:
            argv.append("--json")
        status, out, err = invoke(*argv)
        assert status in (0, 1), (argv, text, err)
        assert "internal error" not in err, (argv, text, err)
        if status == 1:
            assert err.startswith(f"softcsp {command}: "), (argv, text, err)
        statuses.append(status)
    assert statuses.count(0) > 30 and statuses.count(1) > 200
