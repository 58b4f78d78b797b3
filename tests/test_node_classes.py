"""The node-class contract (``repro.nodes``).

The C parse tree, the IR, C types, prover terms and the qualifier AST
are plain ``__slots__`` classes, not dataclasses, so importing them
compiles nothing.  Their behaviour must stay the dataclass behaviour it
replaced: class-strict field-wise equality, ``hash(field tuple)`` for
frozen nodes, the dataclass ``repr``, ``FrozenInstanceError`` on
assignment, and pickles and copies that rebuild through the
constructor.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import itertools
import pickle

import pytest

from repro.cfront import ast as A
from repro.cfront import ctypes as CT
from repro.cil import ir
from repro.core.qualifiers import ast as Q
from repro.nodes import Frozen, Node, replace
from repro.prover import terms as T

MODULES = (CT, A, ir, T, Q)

#: The classes in those modules that are not nodes.
NOT_NODES = {Q.Classifier, Q.QualifierSet}

#: Term classes that keep their own, class-tagged hash.
OWN_HASH = {T.TVar, T.TInt, T.TApp}

#: Formula classes built from ``*args``: their one field is a tuple,
#: and ``replace`` (like ``dataclasses.replace``) cannot call them.
VARIADIC = {T.And, T.Or}


def _classes():
    for module in MODULES:
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield obj


NODE_CLASSES = sorted(
    (cls for cls in _classes() if cls not in NOT_NODES),
    key=lambda cls: (cls.__module__, cls.__qualname__),
)


def _values(cls, seed=0) -> tuple:
    """Distinct field values for a sample of ``cls``."""
    if cls in VARIADIC:
        return ((seed,),)
    return tuple(seed + i for i in range(len(cls._fields)))


def _sample(cls, seed=0):
    values = _values(cls, seed)
    if cls in VARIADIC:
        return cls(*values[0])
    return cls(**dict(zip(cls._fields, values)))


def _ids(classes):
    return [f"{cls.__module__}.{cls.__qualname__}" for cls in classes]


def test_every_class_is_a_node_or_listed():
    for cls in _classes():
        assert not dataclasses.is_dataclass(cls), cls
        assert cls in NOT_NODES or issubclass(cls, Node), cls
    assert len(NODE_CLASSES) > 130


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=_ids(NODE_CLASSES))
def test_node_contract(cls):
    node = _sample(cls)
    twin = _sample(cls)
    values = _values(cls)
    assert not hasattr(node, "__dict__")
    assert cls._values(node) == values
    assert node == twin and not node != twin
    assert node != _sample(cls, seed=1) or not cls._fields
    shown = ", ".join(f"{name}={v!r}" for name, v in zip(cls._fields, values))
    assert repr(node) == f"{cls.__qualname__}({shown})"
    clones = [pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)]
    if cls not in VARIADIC:
        clones.append(replace(node))
    for clone in clones:
        assert type(clone) is cls and clone == node and clone is not node
    if issubclass(cls, Frozen):
        assert hash(node) == hash(twin)
        if cls not in OWN_HASH:
            assert hash(node) == hash(values)
        for name in cls._fields + ("not_a_field",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, 99)
        for name in cls._fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
        assert node == twin
    else:
        with pytest.raises(TypeError):
            hash(node)
        for name in cls._fields:
            setattr(node, name, 99)
        assert node != twin or not cls._fields
        with pytest.raises(AttributeError):
            node.not_a_field = 1


def test_equal_fields_in_different_classes_compare_unequal():
    by_fields = {}
    for cls in NODE_CLASSES:
        by_fields.setdefault(cls._fields, []).append(cls)
    pairs = 0
    for group in by_fields.values():
        for a, b in itertools.permutations(group, 2):
            x, y = _sample(a), _sample(b)
            assert x != y and not x == y, (a, b)
            pairs += 1
    assert pairs > 100


def test_fields_follow_dataclass_order():
    # A base class's fields come first: ``loc`` leads every parse-tree
    # expression and statement, ``quals`` every C type.
    assert A.Binary._fields == ("loc", "op", "left", "right")
    assert A.Break._fields == ("loc",)
    assert CT.FuncType._fields == ("quals", "ret", "params", "varargs")
    assert ir.Call._fields == ("result", "func", "args", "loc", "result_cast")
    assert T.TApp._fields == ("fname", "args")  # ``_hash`` is private
    assert Q.CaseClause._fields == ("decls", "pattern", "predicate")


def test_defaults_keep_their_meaning():
    # Mutable defaults are fresh per instance.
    assert A.Call().args == [] and A.Call().args is not A.Call().args
    assert ir.Program().structs is not ir.Program().structs
    assert ir.If(ir.IntConst(1)).then is not ir.If(ir.IntConst(1)).then
    qdef = Q.QualifierDef("q", "value", Q.DInt(), Q.Classifier.EXPR, "E")
    assert qdef.cases == [] and qdef.restricts == [] and qdef.assigns == []
    # Immutable defaults are equal to a fresh instance.
    assert A.Name("x").loc == A.Loc()
    assert ir.FieldOff("f").rest == ir.NoOffset()
    assert CT.PointerType().pointee == CT.VoidType()
    assert CT.ArrayType().elem == CT.IntType()
    assert Q.DPtr().inner == Q.DTypeVar()
    assert Q.AssignClause((), Q.PNew()).predicate == Q.PredTrue()
    # ``loc`` is keyword-only in the parse tree, positional in the IR.
    with pytest.raises(TypeError):
        A.IntLit(1, A.Loc(1, 2))
    assert ir.Return(None, A.Loc(3)).loc == A.Loc(3)


def test_repr_is_the_dataclass_format():
    node = ir.Lval(ir.Lvalue(ir.VarHost("p"), ir.FieldOff("next")))
    assert repr(node) == (
        "Lval(lvalue=Lvalue(host=VarHost(name='p'), "
        "offset=FieldOff(fieldname='next', rest=NoOffset())))"
    )
    assert repr(T.And(T.TRUE, T.Eq(T.TVar("x"), T.Int(1)))) == (
        "And(conjuncts=(FTrue(), Eq(left=TVar(name='x'), right=TInt(value=1))))"
    )
    assert repr(A.IntLit(7)) == "IntLit(loc=Loc(line=0, col=0, file=''), value=7)"


def test_replace_builds_through_the_constructor():
    t = CT.IntType(frozenset({"pos"}), kind="char")
    assert t.without_quals() == CT.IntType(kind="char")
    assert t.with_quals({"neg"}).quals == frozenset({"pos", "neg"})
    with pytest.raises(TypeError):
        replace(t, nonsense=1)


def test_kept_hash_is_the_field_hash():
    node = ir.BinOp("+", ir.Lval(ir.Lvalue(ir.VarHost("x"))), ir.IntConst(1))
    first = hash(node)
    assert first == hash(("+", node.left, node.right))
    assert hash(node) == first
    assert hash(T.fn("f", T.Int(1))) == hash(("a", "f", (T.Int(1),)))
