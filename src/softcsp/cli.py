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
import re
import sys
from itertools import product
from json.encoder import encode_basestring_ascii as _quote
from typing import List, Optional

from . import journey as journey_mod
from . import roadnet, scsp, sclp
from .errors import NonConvergenceError, SoftcspError, read_input
from .frontier import MODES, STRICT
from .semiring import format_value


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # normal input-error path (status 1) instead.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# ASCII digits only: int() would also read "1_0", " 10" and other scripts'
# digits.
_INTEGER = re.compile(r"-?[0-9]+")


def _nonneg(text: str) -> int:
    if _INTEGER.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    value = int(text)
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


_INF = float("inf")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


_SCALARS = {
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    float: _float,
}


def _render(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it, nested at indent ``pad``; dict keys must be strings."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    inner = pad + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = [_quote(key) + ": " + _render(value[key], inner)
                 for key in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_render(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(document: dict, out) -> None:
    # json.dumps with an indent runs the pure-Python encoder, which is
    # slower and leaves a reference cycle per call; this writes the same
    # bytes in one write.
    out.write(_render(document, "") + "\n")


def _run_trip(args, out) -> int:
    net = roadnet.load_network(args.network)
    query = (net, args.source, args.dest, args.limit)
    trips = (roadnet.enumerate_paths(*query) if args.all
             else roadnet.best_paths(*query, args.dominance))
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
    best = journey_mod.best_journeys(net, appointments, stations, args.soc,
                                     policy, args.dominance)
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
    best = scsp.best_level(solution)
    spec, support = problem.spec, solution.support
    # The rows are bare payloads in product order over the domain, so each
    # assignment pairs with its row without a table lookup or a tag check.
    rows = zip(product(solution.domain, repeat=len(support)), solution.rows)
    if args.as_json:
        _emit({
            "inputs": {"problem": args.problem,
                       "semiring": spec.key,
                       "interface": sorted(problem.interface)},
            "results": [{"assign": dict(zip(support, key)),
                         "value": spec._to_json(value)}
                        for key, value in rows],
            "blevel": spec.to_json(best),
        }, out)
    else:
        for key, value in rows:
            assign = " ".join(f"{n}={v}" for n, v in zip(support, key))
            prefix = f"{assign} " if assign else ""
            out.write(f"{prefix}value={spec._render(value)}\n")
        out.write(f"blevel = {format_value(best)}\n")
    return 0


def _run_sclp(args, out) -> int:
    program = sclp.parse_program(read_input(args.program))
    spec = program.spec
    if args.goal is not None:
        goal = sclp.parse_goal(args.goal)
        value = sclp.eval_goal(program, goal, max_iters=args.max_iters)
        if args.as_json:
            atoms = [str(a) for a in goal]
            _emit({
                "inputs": {"program": args.program, "semiring": spec.key,
                           "goal": atoms},
                "results": [{"goal": atoms, "value": spec.to_json(value)}],
            }, out)
        else:
            out.write(f"{format_value(value)}\n")
        return 0
    result = sclp.lfp(program, max_iters=args.max_iters)
    if args.as_json:
        _emit({
            "inputs": {"program": args.program, "semiring": spec.key},
            "results": [{"atom": str(a), "value": spec.to_json(value)}
                        for a, value in result.interpretation.items()],
            "iterations": result.iterations,
        }, out)
    else:
        for atom, value in result.interpretation.items():
            out.write(f"{atom} = {format_value(value)}\n")
    return 0


# Built once per process: building it costs more than a small query.
_PARSER = build_parser()
# The subcommand parsers by name, as the top parser's subparsers action
# holds them.
_COMMANDS = next(action.choices for action in _PARSER._actions
                 if isinstance(action, argparse._SubParsersAction))

_HANDLERS = {
    "trip": _run_trip,
    "journey": _run_journey,
    "scsp": _run_scsp,
    "sclp": _run_sclp,
}


def _parse(argv: List[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, with one parse instead of two when
    ``argv`` starts with a subcommand.

    The top parser would hand everything after the subcommand to its
    parser and report what that leaves over as its own error; this does
    the same directly.  An argv holding ``--`` takes the top parser,
    whose handling of it differs between Python versions.
    """
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is None or "--" in argv:
        return _PARSER.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def run(argv: Optional[List[str]] = None, out=None, err=None) -> int:
    """Parse arguments, dispatch, and return the exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
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


if __name__ == "__main__":
    main()
