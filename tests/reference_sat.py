"""The SAT core's previous DPLL search, kept only as a test oracle.

``reference_solve`` is the clause-rescanning ``repro.prover.sat._solve``
that two-watched-literal propagation replaced: every unit-propagation
pass rescans every clause.  ``tests/test_sat_reference.py`` checks that
the current solver returns the same result on random CNFs.  Do not use
this outside the tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

Clause = Tuple[int, ...]


def reference_solve(
    clauses: List[Clause], num_vars: int
) -> Optional[Dict[int, bool]]:
    assignment: Dict[int, bool] = {}
    trail: List[Tuple[int, bool]] = []  # (var, was_decision)

    def value(lit: int) -> Optional[bool]:
        var = abs(lit)
        if var not in assignment:
            return None
        val = assignment[var]
        return val if lit > 0 else not val

    def assign(lit: int, decision: bool) -> None:
        assignment[abs(lit)] = lit > 0
        trail.append((abs(lit), decision))

    def propagate() -> bool:
        """Unit propagation; returns False on conflict."""
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                unassigned = None
                satisfied = False
                count = 0
                for lit in clause:
                    v = value(lit)
                    if v is True:
                        satisfied = True
                        break
                    if v is None:
                        unassigned = lit
                        count += 1
                        if count > 1:
                            break
                if satisfied:
                    continue
                if count == 0:
                    return False  # conflict
                if count == 1:
                    assign(unassigned, decision=False)
                    changed = True
        return True

    def backtrack() -> Optional[int]:
        """Undo up to (and including) the last decision; return the
        decision literal to flip, or None when exhausted."""
        while trail:
            var, was_decision = trail.pop()
            val = assignment.pop(var)
            if was_decision:
                return var if not val else -var  # try the flipped value
        return None

    variables = sorted({abs(l) for c in clauses for l in c})

    if not propagate():
        return None
    while True:
        free = next((v for v in variables if v not in assignment), None)
        if free is None:
            return dict(assignment)
        assign(free, decision=True)
        while not propagate():
            flipped = backtrack()
            if flipped is None:
                return None
            assign(flipped, decision=False)
