"""Independent brute-force oracles for the equivalence suites.

Everything here is written directly against the problem statements, not
against the library's data structures or algorithms, so agreement between
an oracle and the library is evidence rather than tautology.  The
exceptions are ``oracle_lfp``, the naive Kleene iteration of the library's
consequence operator, which the SCLP tests check on its own,
``dense_solve``, the dense SCSP fold over the library's operators, which
pins the exact table (row order included) that ``solve`` must return,
the reference parser of program clauses and goals, a character-by-character
splitter that pins the library parser's results and error messages, and
the reference network and problem readers, which read one edge entry or
table row at a time and build through the library's checking
constructors, and ``reference_walk``, the trip walk written as plain
recursion over the library's steering and pruning, which pins the walk's
trips and its expansions.  The benchmark's oracle imports this module
without the library, so ``dense_solve`` and the reference readers and
walk import it when called.
"""

import itertools
import re


# --- dominance ---------------------------------------------------------------

def oracle_filter(pairs, mode):
    """Non-dominated (time, energy) int tuples, by pairwise scan."""
    unique = sorted(set(pairs))
    kept = []
    for u in unique:
        dominated = False
        for v in unique:
            if mode == "strict":
                if v[0] < u[0] and v[1] < u[1]:
                    dominated = True
            else:
                if v[0] <= u[0] and v[1] <= u[1] and v != u:
                    dominated = True
        if not dominated:
            kept.append(u)
    return set(kept)


# --- simple paths ------------------------------------------------------------

def oracle_paths(edges, source, dest, limit):
    """All simple paths as node tuples with (time, energy), energy-capped.

    ``edges`` maps (src, dst) -> (time, energy).  Plain recursion over the
    full path enumeration; the cap is applied to totals at the end.
    """
    out_edges = {}
    for (src, dst), cost in edges.items():
        out_edges.setdefault(src, []).append((dst, cost))

    results = []

    def recurse(node, seen, path, time, energy):
        if node == dest and len(path) > 1:
            results.append((tuple(path), time, energy))
            return
        for nxt, (t, e) in out_edges.get(node, ()):
            if nxt in seen:
                continue
            recurse(nxt, seen | {nxt}, path + [nxt], time + t, energy + e)

    recurse(source, {source}, [source], 0, 0)
    return sorted(r for r in results if r[2] <= limit)


def oracle_network_from_json(data):
    """The JSON network format read one edge entry at a time.

    Every entry's keys and types are checked before any duplicate edge or
    unknown node is reported, so the first such fault is held back until
    the last entry has been read.  The network is built by the checking
    ``RoadNetwork`` constructor.
    """
    from softcsp.errors import FormatError, fields
    from softcsp.roadnet import RoadNetwork
    from softcsp.semiring import CostPair

    nodes, raw_edges = fields(data, "network file", ("nodes", "edges"))
    if (not isinstance(nodes, list)
            or not all(isinstance(n, str) and n for n in nodes)):
        raise FormatError('"nodes" must be a list of node names')
    if not isinstance(raw_edges, list):
        raise FormatError('"edges" must be a list')
    known = set()
    for node in nodes:
        if node in known:
            raise FormatError(f'"nodes" lists {node!r} more than once')
        known.add(node)
    edges = {}
    fault = None
    for index, entry in enumerate(raw_edges):
        try:
            src, dst = entry["from"], entry["to"]
            time, energy = entry["time"], entry["energy"]
        except (KeyError, TypeError):
            fields(entry, f"edges[{index}]", ("from", "to", "time", "energy"))
            raise
        if not isinstance(src, str):
            raise FormatError(f"edges[{index}].from must be a node name, "
                              f"got {src!r}")
        if not isinstance(dst, str):
            raise FormatError(f"edges[{index}].to must be a node name, "
                              f"got {dst!r}")
        if type(time) is not int or time < 0:
            raise FormatError(f"edges[{index}]: time must be a non-negative "
                              f"integer, got {time!r}")
        if type(energy) is not int or energy < 0:
            raise FormatError(f"edges[{index}]: energy must be a "
                              f"non-negative integer, got {energy!r}")
        if fault is None:
            if (src, dst) in edges:
                fault = f"edges[{index}]: duplicate edge {src}->{dst}"
            elif src not in known or dst not in known:
                unknown = src if src not in known else dst
                fault = f"edges[{index}]: unknown node {unknown!r}"
        edges[src, dst] = CostPair(time, energy)
    if fault is not None:
        raise FormatError(fault)
    return RoadNetwork(nodes=tuple(sorted(known)), edges=edges)


def reference_walk(net, source, dest, energy_limit, mode=None,
                   time_limit=None):
    """The library's trip walk as one recursive call per path node.

    The same cuts, in the same order, as ``roadnet._walk`` on valid
    inputs, so the two return the same trips and call
    ``RoadNetwork.neighbours`` for the same nodes.  Python's recursion
    limit caps the path length it can walk.
    """
    from softcsp.frontier import _DOMINATES_COMPONENTS
    from softcsp.roadnet import TripSolution, _pruner
    from softcsp.semiring import CostPair

    dominated = (None if mode is None
                 else _pruner(_DOMINATES_COMPONENTS[mode], dest))
    least_energy = net._least_energy(dest)
    results = []
    path = [source]
    visited = {source}

    def walk(node, time, energy):
        for neighbour, cost in net.neighbours(node):
            if neighbour in visited:
                continue
            next_energy = energy + cost.energy
            still = least_energy.get(neighbour)
            if still is None or next_energy + still > energy_limit:
                continue
            next_time = time + cost.time
            if time_limit is not None and next_time > time_limit:
                continue
            if dominated is not None and dominated(neighbour, next_time,
                                                   next_energy):
                continue
            path.append(neighbour)
            if neighbour == dest:
                results.append(TripSolution(path=tuple(path),
                                            cost=CostPair(next_time,
                                                          next_energy)))
            else:
                visited.add(neighbour)
                walk(neighbour, next_time, next_energy)
                visited.remove(neighbour)
            path.pop()

    walk(source, 0, 0)
    return results


# --- constraint problems -----------------------------------------------------

def oracle_scsp(spec, domain, constraints, interface, sr_times, sr_plus):
    """Solution table by enumerating every total assignment.

    ``constraints`` are (support, table) pairs with tables over raw value
    tuples.  Combines with times over all names, then folds with plus per
    class of interface assignments.
    """
    names = sorted({n for support, _ in constraints for n in support})
    iface = sorted(set(interface) & set(names))
    rows = {}
    for values in itertools.product(domain, repeat=len(names)):
        eta = dict(zip(names, values))
        total = spec.one
        for support, table in constraints:
            total = sr_times(spec, total, table[tuple(eta[n] for n in support)])
        key = tuple(eta[n] for n in iface)
        rows[key] = total if key not in rows else sr_plus(spec, rows[key], total)
    return iface, rows


def oracle_problem_from_json(data):
    """The JSON problem format read one row at a time.

    Each constraint's rows are checked and collected by raw assignment,
    then placed one at a time by stride, each value coerced on its own;
    the first fault raises.  The problem is built by the checking
    ``SCSPProblem`` and ``SoftConstraint`` constructors.
    """
    from softcsp.constraints import SoftConstraint, check_domain
    from softcsp.errors import (FormatError, IncompleteTableError, InputError,
                                InstanceMismatchError, fields)
    from softcsp.scsp import SCSPProblem
    from softcsp.semiring import SemiringValue, lookup

    def scalars(values, where):
        for index, value in enumerate(values):
            if not isinstance(value, (str, int, float, type(None))):
                raise FormatError(f"{where}[{index}] must be a JSON scalar, "
                                  f"got {value!r}")

    def build(spec, domain, given, table):
        # The table placed in product order over the sorted support.
        dom = check_domain(domain)
        if len(set(given)) != len(given):
            raise InputError(f"duplicate names in support {list(given)!r}")
        canonical = sorted(given)
        size = len(dom) ** len(given)
        place = {v: i for i, v in enumerate(dom)}
        rows = {}
        for key, raw in table.items():
            if len(key) != len(given) or not all(v in place for v in key):
                raise IncompleteTableError(
                    f"row {key!r} does not match support {list(given)!r} "
                    f"over domain {list(dom)!r}")
            by_name = dict(zip(given, key))
            at = 0
            for name in canonical:
                at = at * len(dom) + place[by_name[name]]
            if at in rows:
                raise IncompleteTableError(f"duplicate row {key!r}")
            try:
                rows[at] = spec._payload(raw)
            except InstanceMismatchError as exc:
                if isinstance(raw, SemiringValue):
                    raise
                raise InstanceMismatchError(f"row {key!r}: {exc}") from None
        if len(rows) != size:
            filled = {tuple(place[v] for v in key) for key in table}
            missing = next(combo for combo in itertools.product(
                range(len(dom)), repeat=len(given)) if combo not in filled)
            raise IncompleteTableError(
                f"table has {len(table)} rows, expected {size} "
                f"(|D|^{len(given)}); first missing "
                f"{tuple(dom[i] for i in missing)!r}")
        return SoftConstraint(spec, dom, tuple(canonical),
                              [rows[at] for at in range(size)])

    semiring, domain, interface, raw_constraints = fields(
        data, "problem file", ("semiring", "domain", "interface", "constraints"))
    spec = lookup(semiring)
    if not isinstance(domain, list) or not domain:
        raise FormatError('"domain" must be a non-empty list')
    scalars(domain, "domain")
    check_domain(domain)
    if (not isinstance(interface, list)
            or not all(isinstance(n, str) for n in interface)):
        raise FormatError('"interface" must be a list of names')
    if not isinstance(raw_constraints, list):
        raise FormatError('"constraints" must be a list')
    constraints = []
    for index, entry in enumerate(raw_constraints):
        where = f"constraints[{index}]"
        support, rows = fields(entry, where, ("support", "rows"))
        if (not isinstance(support, list)
                or not all(isinstance(n, str) for n in support)):
            raise FormatError(f"{where}.support must be a list of names")
        if not isinstance(rows, list):
            raise FormatError(f"{where}.rows must be a list")
        table = {}
        for row_index, row in enumerate(rows):
            at = f"{where}.rows[{row_index}]"
            assign, value = fields(row, at, ("assign", "value"))
            if not isinstance(assign, list):
                raise FormatError(f"{at}.assign must be a list")
            scalars(assign, f"{at}.assign")
            if tuple(assign) in table:
                raise FormatError(f"{at}: duplicate assignment {assign!r}")
            table[tuple(assign)] = value
        try:
            constraints.append(build(spec, domain, support, table))
        except InputError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    return SCSPProblem(spec=spec, domain=domain, constraints=constraints,
                       interface=interface)


def dense_solve(problem):
    """The SCSP solution by one dense fold, then hiding.

    Combines every constraint, sorted by support, into the unit
    constraint over the problem domain, building one table over all
    names, then hides the non-interface names in ascending order.
    """
    from softcsp.constraints import combine, hide, unit_constraint

    acc = unit_constraint(problem.spec, problem.domain)
    for c in sorted(problem.constraints, key=lambda c: c.support):
        acc = combine(acc, c)
    for name in sorted(set(acc.support) - set(problem.interface)):
        acc = hide(name, acc)
    return acc


def scsp_as_sclp(key, domain, constraints, support):
    """Program text whose ``sol`` atoms hold an SCSP's solution rows.

    ``constraints`` are (support, table) pairs with tables over raw value
    tuples; domain values must be lowercase identifiers.  Each row of the
    i-th constraint becomes the fact ``c_i(d0,d1) :- v.``, and the one
    rule ``sol(...) :- c_0(...), c_1(...), ....`` reads every constraint
    with one variable per name, so ``sol`` over ``support`` is the
    product of the constraints summed over the other names.
    """
    def atom(predicate, args):
        return f"{predicate}({','.join(args)})" if args else predicate

    lines = [f"#semiring {key}", f"#constants {','.join(domain)}."]
    body = []
    for i, (names, table) in enumerate(constraints):
        # str gives True/False, inf, n/m or a whole number; the program
        # text spells them in lower case.
        lines += [f"{atom(f'c_{i}', row)} :- {str(value).lower()}."
                  for row, value in table.items()]
        body.append(atom(f"c_{i}", [f"V_{n}" for n in names]))
    head = atom("sol", [f"V_{n}" for n in support])
    lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return "\n".join(lines) + "\n"


# --- journeys ----------------------------------------------------------------

def oracle_journeys(edges, appointments, stations, initial_soc,
                    rate=1, capacity=None, threshold=0):
    """Brute force over per-leg simple-path tuples and station choices.

    Returns a sorted list of (leg paths, charging events, (time, energy),
    final soc) tuples.  ``appointments`` are (location, start, duration);
    ``stations`` are (name, spots, location).
    """
    def recharge(soc, duration):
        charged = soc + rate * duration
        return charged if capacity is None else min(capacity, charged)

    results = []

    def recurse(index, soc, legs, events, time, energy):
        if index == len(appointments) - 1:
            results.append((tuple(legs), tuple(events), (time, energy), soc))
            return
        loc, start, duration = appointments[index]
        next_loc, next_start, _ = appointments[index + 1]
        anywhere = oracle_paths(edges, loc, next_loc, soc - threshold)
        if anywhere:
            choices = [(path, t, e, None, soc - e) for path, t, e in anywhere]
        else:
            choices = []
            for name, spots, station_loc in stations:
                if station_loc != loc or spots <= 0:
                    continue
                charged = recharge(soc, duration)
                for path, t, e in oracle_paths(edges, loc, next_loc,
                                               charged - threshold):
                    choices.append((path, t, e, (loc, name), charged - e))
        for path, t, e, event, next_soc in choices:
            if start + duration + t > next_start:
                continue
            recurse(index + 1, next_soc, legs + [path],
                    events + ([event] if event else []),
                    time + t, energy + e)

    recurse(0, initial_soc, [], [], 0, 0)
    return sorted(results)


# --- semiring values ---------------------------------------------------------

def oracle_fuzzy_coerce(raw):
    """A fuzzy value read by ``Fraction`` alone: a float through its
    decimal text, ASCII text and anything else as ``Fraction`` reads it."""
    from fractions import Fraction

    if isinstance(raw, bool):
        raise ValueError("booleans are not fuzzy values")
    if isinstance(raw, float):
        raw = str(raw)
    if not isinstance(raw, (Fraction, int, str)):
        raise ValueError("expected a rational")
    if isinstance(raw, str) and not raw.isascii():
        raise ValueError(f"Invalid literal for Fraction: {raw!r}")
    value = Fraction(raw)
    if not 0 <= value <= 1:
        raise ValueError(f"{value} is outside [0, 1]")
    return value


# --- logic programs ----------------------------------------------------------

def oracle_lfp(program, max_iters, tp_step, bottom):
    """Apply ``tp_step`` to ``bottom(program)`` until nothing changes.

    Returns ``("fixpoint", interpretation, k)`` when the k+1-th step
    confirms the k-th, or ``("cap", previous, last)`` with the last two
    interpretations when ``max_iters`` steps find no fixpoint.
    """
    previous = bottom(program)
    for step in range(max_iters):
        current = tp_step(program, previous)
        if current == previous:
            return "fixpoint", current, step
        previous = current
    return "cap", previous, tp_step(program, previous)


# --- program text ------------------------------------------------------------

def oracle_split_top(text, line_no):
    """``text`` split at the commas outside parentheses, walking it one
    character at a time."""
    from softcsp.errors import ParseError

    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", line_no)
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ParseError("unbalanced parentheses", line_no)
    parts.append("".join(current).strip())
    return parts


def oracle_parse_atom(text, line_no=None):
    """``pred`` or ``pred(t1,...,tn)`` as a (predicate, terms) tuple."""
    from softcsp.errors import FunctionSymbolError, ParseError

    text = text.strip()
    match = re.match(r"^([a-z][A-Za-z0-9_]*)\s*(\((.*)\))?$", text, re.DOTALL)
    if not match:
        raise ParseError(f"malformed atom {text!r}", line_no)
    predicate, _, arg_text = match.groups()
    if arg_text is None:
        return predicate, ()
    args = []
    for term in oracle_split_top(arg_text, line_no):
        if "(" in term or ")" in term:
            raise FunctionSymbolError(
                f"term {term!r} uses a function symbol; only constants and "
                f"variables are supported", line_no)
        if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", term):
            raise ParseError(f"malformed term {term!r}", line_no)
        args.append(term)
    return predicate, tuple(args)


def oracle_parse_clause(text, spec, line_no):
    """A clause's text (no final period) as (head, body atoms, body value)."""
    from softcsp.errors import ParseError

    if ":-" not in text:
        return oracle_parse_atom(text, line_no), (), None
    head_text, body_text = text.split(":-", 1)
    head = oracle_parse_atom(head_text, line_no)
    body_text = body_text.strip()
    if not body_text:
        raise ParseError("empty body after ':-'", line_no)
    parts = oracle_split_top(body_text, line_no)
    if len(parts) == 1 and re.match(
            r"^(inf|true|false|\d+(\.\d+)?|\d+/\d+)$", parts[0]):
        raw = parts[0]
        if raw in ("inf", "true", "false") or "/" in raw or "." in raw:
            return head, (), spec.value(raw)
        return head, (), spec.value(int(raw))
    return head, tuple(oracle_parse_atom(p, line_no) for p in parts), None


def oracle_parse_goal(text):
    """A goal's ground atoms, as (predicate, terms) tuples."""
    from softcsp.errors import ParseError

    stripped = text.strip().rstrip(".")
    if stripped.startswith(":-"):
        stripped = stripped[2:].strip()
    if not stripped:
        raise ParseError("empty goal")
    atoms = tuple(oracle_parse_atom(part)
                  for part in oracle_split_top(stripped, None))
    for predicate, terms in atoms:
        for term in terms:
            if term[0].isupper() or term[0] == "_":
                name = (f"{predicate}({','.join(terms)})" if terms
                        else predicate)
                raise ParseError(f"goal atom {name} is not ground "
                                 f"({term} is a variable)")
    return atoms
