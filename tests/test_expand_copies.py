"""Expansion's node copies, and the immutability of what it returns."""

import dataclasses

import pytest

from jamin import ir, leakage, safety
from jamin.expand import _copy, _fields, expand
from jamin.parser import parse
from jamin.primitives.corpus import PROGRAMS, load_source
from jamin.typecheck import typecheck

from gensrc import function_sources

NODE_CLASSES = [c for c in vars(ir).values()
                if isinstance(c, type) and dataclasses.is_dataclass(c)
                and not c.__dataclass_params__.frozen and not c.__name__.startswith("_")]


def test_node_classes_found():
    assert {ir.EBin, ir.EArr, ir.SAssign, ir.SRepeat, ir.FuncDecl, ir.Program} <= set(NODE_CLASSES)
    assert len(NODE_CLASSES) == 24


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_copy_keeps_every_field(cls):
    names = _fields(cls)
    assert ("typed" if cls is ir.Program else "loc") in names  # side attributes are fields too
    node = object.__new__(cls)
    for name in names:
        setattr(node, name, object())
    copy = _copy(node)
    assert type(copy) is cls and copy is not node
    assert all(getattr(copy, n) is getattr(node, n) for n in names)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_copy_changes_only_the_named_field(cls):
    node = object.__new__(cls)
    names = _fields(cls)
    for name in names:
        setattr(node, name, object())
    for changed in names:
        new = object()
        copy = _copy(node, **{changed: new})
        assert getattr(copy, changed) is new
        assert all(getattr(copy, n) is getattr(node, n) for n in names if n != changed)


def test_copy_rejects_a_name_that_is_not_a_field():
    with pytest.raises(TypeError):
        _copy(ir.EVar("x"), nme="y")


# ------------------------------------------- expanded IR is immutable


def snapshot(p) -> dict:
    """id -> (node, its fields) for every node reachable from program p,
    side attributes included; a child node is recorded by its id, a
    function's `envtypes` by its items.  `Program._exec_ns` is a cache
    and is left out."""
    out = {}
    todo = [p]

    def value(v):
        if isinstance(v, tuple):
            return tuple(value(x) for x in v)
        if type(v) in NODE_CLASSES:
            todo.append(v)
            return ("node", id(v))
        if isinstance(v, dict):
            return ("dict", tuple(sorted(v.items())))
        return v

    while todo:
        x = todo.pop()
        if id(x) not in out:
            out[id(x)] = (x, tuple((n, value(getattr(x, n))) for n in _fields(type(x))
                                   if n != "_exec_ns"))
    return out


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_back_ends_leave_expanded_ir_unchanged(name):
    info = PROGRAMS[name]
    p = expand(typecheck(parse(load_source(name))))
    before = snapshot(p)
    assert len(before) > 100
    assert any(type(x) is ir.SRepeat for x, _ in before.values()) == name.startswith("chacha20")
    assert function_sources(p)  # codegen, every function
    safety.analyze(p, info.entry, info.pointers, info.tracked)
    safety.check_safety(p, info.entry, info.pointers, info.tracked)
    leakage.infer_public(p, info.entry)
    v = leakage.ct_check(p, info.entry, info.public, trials=3, seed=1, shape=info.shape)
    assert v.kind == "secure"
    assert snapshot(p) == before
