"""A small DPLL SAT solver.

Deliberately simple: two-watched-literal unit propagation over an
assignment trail and chronological backtracking — no learning, restarts
or activity heuristics — sized for the clause sets our proof
obligations produce (hundreds of variables).  The prover drives it in a
lazy-SMT loop, appending theory conflict clauses between calls.

Decisions take the lowest unassigned variable, ``True`` first, so the
model returned is the first satisfying assignment in that order: a
function of the clauses alone.  The prover's search path, counts and
countermodels depend on it, so ``tests/reference_sat.py`` pins it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import obs

if TYPE_CHECKING:
    from repro.harness.watchdog import Deadline

Clause = Tuple[int, ...]


def solve(
    clauses: List[Clause], num_vars: int, deadline: Optional["Deadline"] = None
) -> Optional[Dict[int, bool]]:
    """Return a satisfying assignment (var -> bool, total over the vars
    that occur), or None when unsatisfiable.  ``clauses`` is not
    mutated, and the variables are read off them (``num_vars`` is the
    caller's count, not needed here).  ``deadline`` is checked every
    256 decisions and backtracks (raising ``DeadlineExceeded`` once it
    has passed).

    Each call is timed into the ``prover.sat_ms`` counter when
    profiling is on (one gate check per call — the DPLL loops
    themselves are never instrumented)."""
    if not obs.enabled():
        return _solve(clauses, deadline)
    obs.incr("prover.sat_calls")
    obs.count_max("prover.clauses_peak", len(clauses))
    with obs.timer("prover.sat_ms"):
        return _solve(clauses, deadline)


def _solve(
    clauses: List[Clause], deadline: Optional["Deadline"]
) -> Optional[Dict[int, bool]]:
    variables = sorted({abs(lit) for lit in set().union(*clauses)})
    if not variables:
        return None if clauses else {}
    # Indexed by literal: -v lands at len - v, past every positive v.
    # value[lit] is 1 when lit is true, -1 when false, 0 when unassigned.
    value = [0] * (2 * variables[-1] + 1)
    # Binary clauses are implications: binary[lit] lists what lit being
    # false forces.  Longer clauses are watched on their first two
    # literals (a private copy each: the watches reorder it).
    binary: List[List[int]] = [[] for _ in value]
    watches: List[List[List[int]]] = [[] for _ in value]
    trail: List[int] = []
    for clause in clauses:
        if len(clause) > 2 and len(set(clause)) < len(clause):
            clause = tuple(dict.fromkeys(clause))
        if len(clause) > 2:
            watched = list(clause)
            watches[clause[0]].append(watched)
            watches[clause[1]].append(watched)
        elif len(clause) == 2 and clause[0] != clause[1]:
            binary[clause[0]].append(clause[1])
            binary[clause[1]].append(clause[0])
        elif not clause or value[clause[0]] == -1:
            return None
        elif not value[clause[0]]:
            value[clause[0]], value[-clause[0]] = 1, -1
            trail.append(clause[0])

    head = 0  # trail[head:] is still to propagate
    next_var = 0  # every variable before variables[next_var] is assigned
    decisions: List[Tuple[int, int]] = []  # (trail position, next_var)
    steps = 0
    while True:
        conflict = False
        while head < len(trail) and not conflict:
            false_lit = -trail[head]
            head += 1
            for other in binary[false_lit]:
                if value[other] == -1:
                    conflict = True
                    break
                if not value[other]:
                    value[other], value[-other] = 1, -1
                    trail.append(other)
            if conflict:
                break
            watching = watches[false_lit]
            kept = 0  # watching[:kept] are the clauses still watching
            for index, watched in enumerate(watching):
                if watched[0] == false_lit:
                    watched[0], watched[1] = watched[1], false_lit
                other = watched[0]
                if value[other] != 1:
                    for k in range(2, len(watched)):
                        lit = watched[k]
                        if value[lit] != -1:  # move the watch to lit
                            watched[1], watched[k] = lit, false_lit
                            watches[lit].append(watched)
                            break
                    else:  # every other literal is false
                        if value[other] == -1:
                            conflict = True
                            del watching[kept:index]
                            break
                        value[other], value[-other] = 1, -1
                        trail.append(other)
                    if watched[1] != false_lit:
                        continue
                watching[kept] = watched
                kept += 1
            else:
                del watching[kept:]

        if conflict:
            # Chronological backtracking: undo the latest open decision
            # and assert its negation as an implied literal.
            if not decisions:
                return None
            head, next_var = decisions.pop()
            for lit in trail[head:]:
                value[lit] = value[-lit] = 0
            lit = -trail[head]
            del trail[head:]
        else:
            while next_var < len(variables) and value[variables[next_var]]:
                next_var += 1
            if next_var == len(variables):
                return {var: value[var] == 1 for var in variables}
            decisions.append((len(trail), next_var))
            lit = variables[next_var]
        value[lit], value[-lit] = 1, -1
        trail.append(lit)
        steps += 1
        if deadline is not None and not steps % 256:
            deadline.check("sat search")
