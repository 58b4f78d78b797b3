"""Cached hashes must not cross a pickle.

Prover terms and IR expression nodes keep their hash once computed.
String hashes differ between interpreter runs (``PYTHONHASHSEED``), so
a node pickled in one process and loaded in another must hash afresh:
otherwise it compares unequal to, and misses the dict entry of, an
identical node built in the loading process.  Spawned pool workers
(where ``fork`` is missing) exchange goal formulas exactly this way.
Parsed qualifier definitions and C translation units (mutable nodes
holding frozen ones) must survive the same trip.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
NONNULL_C = os.path.join(os.path.dirname(__file__), "..", "examples", "nonnull.c")

#: Builds the same terms, IR nodes, qualifier definitions and parsed
#: unit in any process, hashing each frozen node so the cached values
#: exist before a pickle is taken.
BUILD = """
import sys
from repro.cfront.ctypes import IntType, PointerType
from repro.cfront.parser import parse_c
from repro.cil import ir
from repro.core.qualifiers import library
from repro.core.qualifiers.parser import parse_qualifier
from repro.nodes import Frozen, Node
from repro.prover.terms import Eq, ForAll, Int, TVar, fn

def build():
    x = TVar("x")
    terms = [
        x,
        Int(7),
        fn("select", fn("heap"), fn("loc", fn("p"), Int(3))),
        ForAll(("x",), Eq(fn("f", x), fn("g", x, fn("c")))),
    ]
    p = ir.Lval(ir.Lvalue(ir.VarHost("p")))
    nodes = [
        ir.Lvalue(ir.VarHost("p"), ir.FieldOff("next")),
        ir.Lval(ir.Lvalue(
            ir.MemHost(ir.BinOp("ptradd", p, ir.IntConst(1))),
            ir.IndexOff(ir.Lval(ir.Lvalue(ir.VarHost("i"))), ir.FieldOff("f")),
        )),
        ir.CastE(PointerType(pointee=IntType(frozenset({"pos"}))), ir.AddrOf(ir.Lvalue(ir.VarHost("x")))),
        ir.CondE(ir.StrConst("s"), ir.NullConst(), ir.UnOp("-", p)),
        ir.SizeOfE(IntType()),
    ]
    for obj in terms + nodes:
        hash(obj)
    return terms, nodes


def build_trees():
    # Fresh parses: the library's own definitions are shared singletons.
    quals = [
        parse_qualifier(getattr(library, qdef.name.upper() + "_SOURCE"))
        for qdef in library.standard_qualifiers()
    ]
    with open(sys.argv[1]) as fh:  # examples/nonnull.c
        unit = parse_c(fh.read(), qualifier_names=("nonnull",))
    for part in frozen_parts([quals, unit]):
        hash(part)
    return quals, unit


def frozen_parts(obj):
    \"\"\"Every frozen node inside ``obj``, in a fixed walk order.\"\"\"
    if isinstance(obj, Frozen):
        yield obj
    if isinstance(obj, Node):
        for value in obj._values(obj):
            yield from frozen_parts(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from frozen_parts(value)
"""

DUMP = BUILD + """
import sys, pickle
sys.stdout.buffer.write(pickle.dumps((build(), build_trees())))
"""

LOAD = BUILD + """
import sys, pickle
(loaded_terms, loaded_nodes), loaded_trees = pickle.loads(sys.stdin.buffer.read())
fresh_terms, fresh_nodes = build()
fresh_trees = build_trees()
assert loaded_trees == fresh_trees
loaded_parts = list(frozen_parts(list(loaded_trees)))
fresh_parts = list(frozen_parts(list(fresh_trees)))
assert len(loaded_parts) == len(fresh_parts) > 100, len(fresh_parts)
for loaded, fresh in zip(
    loaded_terms + loaded_nodes + loaded_parts,
    fresh_terms + fresh_nodes + fresh_parts,
):
    assert loaded == fresh, (loaded, fresh)
    assert hash(loaded) == hash(fresh), loaded
    assert {fresh: 1}.get(loaded) == 1, loaded
    assert {loaded: 1}.get(fresh) == 1, fresh
print("ok")
"""


def _run(code: str, seed: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code, NONNULL_C],
        input=stdin,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_pickled_nodes_hash_afresh_under_another_seed():
    blob = _run(DUMP, "1")
    assert _run(LOAD, "2", blob).strip() == b"ok"


def test_pickle_round_trip_keeps_equality_in_process():
    from repro.cil import ir
    from repro.prover.terms import fn

    term = fn("f", fn("c"))
    node = ir.Lval(ir.Lvalue(ir.MemHost(ir.Lval(ir.Lvalue(ir.VarHost("p"))))))
    hash(node)
    for obj in (term, node):
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and hash(copy) == hash(obj)
        assert repr(copy) == repr(obj)
