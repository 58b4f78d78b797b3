"""Lattices for the worklist solver.

A lattice packages the value domain of one dataflow analysis: the
solver only ever calls ``bottom``/``join``/``leq`` (plus the
``widen`` hook for infinite-height domains), so a new client defines
its domain here and reuses the engine unchanged.

Provided instances:

* :class:`MustSetLattice` — sets under *intersection* (must-facts:
  guard refinement).  Bottom is the :data:`UNIVERSE` sentinel — the
  identity of intersection — so unvisited blocks never weaken a join.
* :class:`MaySetLattice` — sets under *union* (may-facts).
* :class:`MapLattice` — pointwise lift of a value lattice over dict
  keys (environments: variable → qualifier value).
* :class:`FlatLattice` — bottom < {constants} < top (flat qualifier
  domain for constant-style analyses).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional


class _Universe:
    """Sentinel: the set of *all* facts (bottom of a must-set lattice).

    Kept as a singleton object rather than an enormous frozenset; every
    lattice operation special-cases it as the identity of intersection.
    """

    def __repr__(self) -> str:
        return "UNIVERSE"


UNIVERSE = _Universe()


class Lattice:
    """Base protocol.  ``widen`` defaults to ``join`` — correct for any
    finite-height lattice; infinite-height domains override it."""

    def bottom(self):
        raise NotImplementedError

    def top(self):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def widen(self, old, new):
        return self.join(old, new)

    def eq(self, a, b) -> bool:
        return self.leq(a, b) and self.leq(b, a)


class MustSetLattice(Lattice):
    """Sets of facts that *must* hold; join is intersection.

    The order is reverse inclusion — more facts is *lower* — so bottom
    is :data:`UNIVERSE` (everything holds; the value of unvisited
    blocks) and top is the empty set (nothing known)."""

    def bottom(self):
        return UNIVERSE

    def top(self) -> FrozenSet:
        return frozenset()

    def join(self, a, b):
        if a is UNIVERSE:
            return b
        if b is UNIVERSE:
            return a
        return frozenset(a) & frozenset(b)

    def leq(self, a, b) -> bool:
        if a is UNIVERSE:
            return True
        if b is UNIVERSE:
            return False
        return frozenset(b) <= frozenset(a)

    def eq(self, a, b) -> bool:
        if a is UNIVERSE or b is UNIVERSE:
            return a is b
        return a == b


class MaySetLattice(Lattice):
    """Sets of facts that *may* hold; join is union; bottom is empty."""

    def __init__(self, universe: Optional[FrozenSet] = None):
        self.universe = universe

    def bottom(self) -> FrozenSet:
        return frozenset()

    def top(self) -> FrozenSet:
        if self.universe is None:
            raise ValueError("MaySetLattice without a universe has no top")
        return self.universe

    def join(self, a, b):
        return frozenset(a) | frozenset(b)

    def leq(self, a, b) -> bool:
        return frozenset(a) <= frozenset(b)


class FlatLattice(Lattice):
    """``BOTTOM < any constant < TOP`` — the flat qualifier domain."""

    class _Extreme:
        def __init__(self, name: str):
            self.name = name

        def __repr__(self) -> str:
            return self.name

    BOTTOM = _Extreme("FLAT_BOTTOM")
    TOP = _Extreme("FLAT_TOP")

    def bottom(self):
        return self.BOTTOM

    def top(self):
        return self.TOP

    def join(self, a, b):
        if a is self.BOTTOM:
            return b
        if b is self.BOTTOM:
            return a
        if a == b:
            return a
        return self.TOP

    def leq(self, a, b) -> bool:
        return a is self.BOTTOM or b is self.TOP or a == b


class MapLattice(Lattice):
    """Pointwise lift of ``value`` over dicts; a missing key stands for
    the value lattice's bottom, so maps stay sparse."""

    def __init__(self, value: Lattice):
        self.value = value

    def bottom(self) -> Dict:
        return {}

    def top(self):
        raise ValueError("MapLattice over unbounded keys has no top")

    def join(self, a: Dict, b: Dict) -> Dict:
        out = dict(a)
        for key, vb in b.items():
            va = out.get(key)
            out[key] = vb if va is None else self.value.join(va, vb)
        # Drop entries that joined to value-bottom to keep maps sparse.
        vbot = self.value.bottom()
        return {k: v for k, v in out.items() if not self.value.eq(v, vbot)}

    def leq(self, a: Dict, b: Dict) -> bool:
        vbot = self.value.bottom()
        return all(self.value.leq(v, b.get(k, vbot)) for k, v in a.items())

    def widen(self, old: Dict, new: Dict) -> Dict:
        out = dict(old)
        for key, vn in new.items():
            vo = out.get(key)
            out[key] = vn if vo is None else self.value.widen(vo, vn)
        return out
