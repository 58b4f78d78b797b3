"""Generic dataflow engine: CFGs + lattices + a worklist solver.

See docs/architecture.md for the pass pipeline and a guide to writing
a new dataflow client.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.cil.cfg": ("CFG", "BasicBlock", "Edge", "Terminator", "build_cfg"),
    "repro.dataflow.lattice": (
        "Lattice", "MustSetLattice", "MaySetLattice", "MapLattice",
        "FlatLattice", "UNIVERSE",
    ),
    "repro.dataflow.solver": (
        "ForwardSolver", "SolverResult", "SolverStats", "SolverDivergence",
        "kleene_fixpoint",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
