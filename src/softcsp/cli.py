"""Command-line entry point.

Four subcommands: ``trip`` and ``journey`` run the e-mobility optimizers,
``scsp`` solves a constraint problem file, ``sclp`` evaluates a program
file.  Exit status is 0 on success, 1 on any input problem (bad flags,
unreadable files, schema violations), 2 on internal failures such as a
fixpoint iteration hitting its cap.  Output is deterministic; ``--json``
switches every subcommand to a single JSON document with an ``inputs``
echo and a ``results`` array.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import journey as journey_mod
from . import roadnet, scsp, sclp
from .errors import NonConvergenceError, SoftcspError
from .frontier import MODES, STRICT
from .semiring import format_value


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # normal input-error path (status 1) instead.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be non-negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="softcsp",
                     description="Soft-constraint solvers and the EV "
                                 "trip/journey planner.")
    sub = parser.add_subparsers(dest="command", required=True)

    trip = sub.add_parser("trip", help="non-dominated routes between two nodes")
    trip.add_argument("--network", required=True, metavar="FILE")
    trip.add_argument("--from", dest="source", required=True, metavar="NODE")
    trip.add_argument("--to", dest="dest", required=True, metavar="NODE")
    trip.add_argument("--limit", type=_nonneg, required=True,
                      help="maximum total energy for a route")
    trip.add_argument("--dominance", choices=MODES, default=STRICT)
    trip.add_argument("--all", action="store_true",
                      help="print the unfiltered enumeration")
    trip.add_argument("--json", action="store_true", dest="as_json")

    journey = sub.add_parser("journey",
                             help="non-dominated journeys through appointments")
    journey.add_argument("--network", required=True, metavar="FILE")
    journey.add_argument("--appointments", required=True, metavar="FILE")
    journey.add_argument("--stations", required=True, metavar="FILE")
    journey.add_argument("--soc", type=_nonneg, required=True,
                         help="initial state of charge")
    journey.add_argument("--rate", type=_nonneg, default=1,
                         help="energy gained per time unit while charging")
    journey.add_argument("--capacity", type=_nonneg, default=None,
                         help="maximum state of charge (default unbounded)")
    journey.add_argument("--threshold", type=_nonneg, default=0,
                         help="state of charge may never fall below this")
    journey.add_argument("--dominance", choices=MODES, default=STRICT)
    journey.add_argument("--json", action="store_true", dest="as_json")

    scsp_cmd = sub.add_parser("scsp", help="solve a constraint problem file")
    scsp_cmd.add_argument("--problem", required=True, metavar="FILE")
    scsp_cmd.add_argument("--json", action="store_true", dest="as_json")

    sclp_cmd = sub.add_parser("sclp", help="evaluate a program file")
    sclp_cmd.add_argument("--program", required=True, metavar="FILE")
    sclp_cmd.add_argument("--goal", metavar="ATOMS",
                          help='ground goal atoms, e.g. "s(a)"')
    sclp_cmd.add_argument("--max-iters", type=_nonneg, default=None,
                          help="fixpoint iteration cap")
    sclp_cmd.add_argument("--json", action="store_true", dest="as_json")

    return parser


def _emit(document: dict, out) -> None:
    json.dump(document, out, indent=2, sort_keys=True)
    out.write("\n")


def _run_trip(args, out) -> int:
    net = roadnet.load_network(args.network)
    if args.all:
        trips = roadnet.enumerate_paths(net, args.source, args.dest, args.limit)
    else:
        trips = roadnet.trip_solutions(
            roadnet.best_paths(net, args.source, args.dest, args.limit,
                               args.dominance))
    if args.as_json:
        _emit({
            "inputs": {"network": args.network, "from": args.source,
                       "to": args.dest, "limit": args.limit,
                       "dominance": args.dominance, "all": args.all},
            "results": [{"path": list(t.path), "time": t.cost.time,
                         "energy": t.cost.energy} for t in trips],
        }, out)
    else:
        for t in trips:
            out.write(f"{','.join(t.path)} time={t.cost.time} "
                      f"energy={t.cost.energy}\n")
    return 0


def _journey_line(s) -> str:
    legs = ";".join(",".join(leg.path) for leg in s.legs)
    charge = ",".join(f"{loc}:{name}" for loc, name in s.charging_events) or "-"
    return (f"{legs} time={s.cost.time} energy={s.cost.energy} "
            f"charge={charge} soc={s.final_soc}")


def _run_journey(args, out) -> int:
    net = roadnet.load_network(args.network)
    appointments = journey_mod.load_appointments(args.appointments)
    stations = journey_mod.load_stations(args.stations)
    policy = journey_mod.ChargingPolicy(rate=args.rate, capacity=args.capacity,
                                        threshold=args.threshold)
    journeys = journey_mod.enumerate_journeys(net, appointments, stations,
                                              args.soc, policy)
    front = journey_mod.journey_frontier(journeys, args.dominance)
    best = journey_mod.journey_solutions(front, journeys)
    if args.as_json:
        _emit({
            "inputs": {"network": args.network,
                       "appointments": args.appointments,
                       "stations": args.stations, "soc": args.soc,
                       "rate": args.rate, "capacity": args.capacity,
                       "threshold": args.threshold,
                       "dominance": args.dominance},
            "results": [{
                "legs": [list(leg.path) for leg in s.legs],
                "time": s.cost.time,
                "energy": s.cost.energy,
                "charging": [{"location": loc, "station": name}
                             for loc, name in s.charging_events],
                "timings": [{"departure": t.departure, "arrival": t.arrival}
                            for t in s.timings],
                "final_soc": s.final_soc,
            } for s in best],
        }, out)
    else:
        for s in best:
            out.write(_journey_line(s) + "\n")
    return 0


def _run_scsp(args, out) -> int:
    problem = scsp.load_problem(args.problem)
    solution = scsp.solve(problem)
    best = scsp.blevel(problem)
    spec = problem.spec
    if args.as_json:
        _emit({
            "inputs": {"problem": args.problem,
                       "semiring": spec.key,
                       "interface": sorted(problem.interface)},
            "results": [{"assign": dict(zip(solution.support, key)),
                         "value": spec.to_json(value)}
                        for key, value in solution.table.items()],
            "blevel": spec.to_json(best),
        }, out)
    else:
        for key, value in solution.table.items():
            assign = " ".join(f"{n}={v}" for n, v in zip(solution.support, key))
            prefix = f"{assign} " if assign else ""
            out.write(f"{prefix}value={format_value(value)}\n")
        out.write(f"blevel = {format_value(best)}\n")
    return 0


def _run_sclp(args, out) -> int:
    program = sclp.parse_program(open_text(args.program))
    spec = program.spec
    if args.goal:
        goal = sclp.parse_goal(args.goal)
        value = sclp.eval_goal(program, goal, max_iters=args.max_iters)
        if args.as_json:
            _emit({
                "inputs": {"program": args.program, "semiring": spec.key,
                           "goal": [str(a) for a in goal]},
                "results": [{"goal": [str(a) for a in goal],
                             "value": spec.to_json(value)}],
            }, out)
        else:
            out.write(f"{format_value(value)}\n")
        return 0
    grounded = sclp.ground(program)
    result = sclp.lfp(grounded, max_iters=args.max_iters)
    atoms = sorted(result.interpretation,
                   key=lambda a: (a.predicate, len(a.args), a.args))
    if args.as_json:
        _emit({
            "inputs": {"program": args.program, "semiring": spec.key},
            "results": [{"atom": str(a),
                         "value": spec.to_json(result.interpretation[a])}
                        for a in atoms],
            "iterations": result.iterations,
        }, out)
    else:
        for atom in atoms:
            out.write(f"{atom} = {format_value(result.interpretation[atom])}\n")
    return 0


def open_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SoftcspError(f"cannot read {path}: {exc.strerror}") from exc


_HANDLERS = {
    "trip": _run_trip,
    "journey": _run_journey,
    "scsp": _run_scsp,
    "sclp": _run_sclp,
}


def run(argv: Optional[List[str]] = None, out=None, err=None) -> int:
    """Parse arguments, dispatch, and return the exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=err)
        return 1
    try:
        return _HANDLERS[args.command](args, out)
    except NonConvergenceError as exc:
        print(f"softcsp {args.command}: {exc}", file=err)
        return 2
    except SoftcspError as exc:
        print(f"softcsp {args.command}: {exc}", file=err)
        return 1
    except OSError as exc:
        print(f"softcsp {args.command}: {exc}", file=err)
        return 1
    except Exception as exc:  # contract: internal failures exit 2
        print(f"softcsp {args.command}: internal error: {exc!r}", file=err)
        return 2


def main() -> None:
    sys.exit(run())
