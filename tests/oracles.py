"""Independent brute-force oracles for the equivalence suites.

Everything here is written directly against the problem statements, not
against the library's data structures or algorithms, so agreement between
an oracle and the library is evidence rather than tautology.  The two
exceptions are ``oracle_lfp``, the naive Kleene iteration of the library's
consequence operator, which the SCLP tests check on its own, and
``dense_solve``, the dense SCSP fold over the library's operators, which
pins the exact table (row order included) that ``solve`` must return.
The benchmark's oracle imports this module without the library, so
``dense_solve`` imports it when called.
"""

import itertools


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
