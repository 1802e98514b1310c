"""ir.blocks and ir.walk, the one statement of which statements hold
blocks and the one structural visit of them."""

import dataclasses
import typing

import pytest

from jamin import ir
from jamin.expand import expand
from jamin.parser import parse
from jamin.typecheck import typecheck

BLOCK_FIELDS = ("then", "els", "body")  # the fields that hold statements


def test_every_statement_class_is_a_stmt():
    """A new statement class outside ir.Stmt would escape the test below."""
    classes = {c for c in vars(ir).values() if isinstance(c, type) and issubclass(c, ir._Node)
               and c.__name__.startswith("S")}
    assert classes == set(typing.get_args(ir.Stmt))


@pytest.mark.parametrize("cls", typing.get_args(ir.Stmt), ids=lambda c: c.__name__)
def test_blocks_gives_every_field_that_holds_statements(cls):
    """Each field of a statement class that holds statements is one of
    its blocks, in field order; a class with none holds no block."""
    fields = [f.name for f in dataclasses.fields(cls) if f.init]
    s = cls(*[(f"<{name}>",) for name in fields])
    want = tuple(getattr(s, name) for name in fields if name in BLOCK_FIELDS)
    assert ir.blocks(s) == want


SOURCE = """
fn f(reg u64 n) -> reg u64 {
  reg u64 t;
  t = 0;
  if (n < 1) {
    t = 1;
  } else if (n < 2) {
    t = 2;
  } else {
    while (t < n) {
      t = t + 3;
    }
  }
  for i = 0 to 2 {
    if (t < 9) {
      t = t + 1;
    } else {
      t = t + 2;
    }
  }
  return t;
}
"""


def _kinds(stmts):
    return [(type(s).__name__, s.loc[0]) for s in ir.walk(stmts)]


def test_walk_is_pre_order_on_a_parsed_program():
    """A statement before the ones it holds, a then arm before its else
    arm: on a parsed program, source order."""
    body = parse(SOURCE).func("f").body
    assert _kinds(body) == [
        ("SDecl", 3), ("SAssign", 4),
        ("SIf", 5), ("SAssign", 6),
        ("SIf", 7), ("SAssign", 8),
        ("SWhile", 10), ("SAssign", 11),
        ("SFor", 14), ("SIf", 15), ("SAssign", 16), ("SAssign", 18),
        ("SReturn", 21),
    ]


def test_walk_enters_repeat_nodes():
    """The `for` loop, whose body does not mention its variable, expands
    to a repeat node, which walk enters as it does any block."""
    body = expand(typecheck(parse(SOURCE))).func("f").body
    assert _kinds(body) == [
        ("SDecl", 3), ("SAssign", 4),
        ("SIf", 5), ("SAssign", 6),
        ("SIf", 7), ("SAssign", 8),
        ("SWhile", 10), ("SAssign", 11),
        ("SRepeat", 14), ("SIf", 15), ("SAssign", 16), ("SAssign", 18),
        ("SReturn", 21),
    ]
    [node] = [s for s in body if type(s) is ir.SRepeat]
    assert node.count == 3
