"""Cached hashes must not cross a pickle.

Prover terms and IR expression nodes keep their hash once computed.
String hashes differ between interpreter runs (``PYTHONHASHSEED``), so
a node pickled in one process and loaded in another must hash afresh:
otherwise it compares unequal to, and misses the dict entry of, an
identical node built in the loading process.  Spawned pool workers
(where ``fork`` is missing) exchange goal formulas exactly this way.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: Builds the same terms and IR nodes in any process, hashing each so
#: the cached values exist before a pickle is taken.
BUILD = """
from repro.cfront.ctypes import IntType, PointerType
from repro.cil import ir
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
"""

DUMP = BUILD + """
import sys, pickle
sys.stdout.buffer.write(pickle.dumps(build()))
"""

LOAD = BUILD + """
import sys, pickle
loaded_terms, loaded_nodes = pickle.loads(sys.stdin.buffer.read())
fresh_terms, fresh_nodes = build()
for loaded, fresh in zip(loaded_terms + loaded_nodes, fresh_terms + fresh_nodes):
    assert loaded == fresh, (loaded, fresh)
    assert hash(loaded) == hash(fresh), loaded
    assert {fresh: 1}.get(loaded) == 1, loaded
    assert {loaded: 1}.get(fresh) == 1, fresh
print("ok")
"""


def _run(code: str, seed: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
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
