"""The unrolled form of an expanded program: the oracle of repeat nodes.

`unroll(p)` is expanded program p with each repeat node (ir.SRepeat, see
expand) replaced by its `count` iterations, iteration j being the node's
body with each private local renamed to its name in iteration j (the
node's `names`), and with each function's `envtypes` listing the locals
of every iteration.  It is the program that expand built when it
unrolled every `for` loop, and codegen and the analyses take it as they
take any expanded program.  Run as a script, it prints the sha256 of the
printed IR of unroll(p) for every program of `cases()`, then one over
all of them in the order printed:

    PYTHONPATH=src python tests/unroll.py
"""

import dataclasses
import hashlib

from jamin.expand import _copy, expand
from jamin.ir import EArr, EVar, SDecl, SIf, SRepeat, SWhile, print_program
from jamin.parser import parse
from jamin.typecheck import typecheck

_VARIABLES = (EVar, EArr)


def unroll(p):
    """p with every repeat node replaced by its iterations."""
    funcs = []
    for f in p.funcs:
        body = tuple(_unrolled(f.body))
        envtypes = {q.name: (q.storage, q.ty) for q in f.params}
        envtypes.update((nm, (d.storage, d.ty)) for d in _decls(body) for nm in d.names)
        funcs.append(_copy(f, body=body, envtypes=envtypes))
    return _copy(p, funcs=tuple(funcs), _exec_ns=None)


def private_names(p) -> dict:
    """Each private local of an iteration of a repeat node of p -> its
    name in iteration 0."""
    out = {}

    def walk(stmts):
        for s in stmts:
            if type(s) is SRepeat:
                out.update((nm, first) for first, per in s.names.items() for nm in per)
            elif type(s) is SIf:
                walk(s.then)
                walk(s.els)
            elif type(s) is SWhile:
                walk(s.body)

    for f in p.funcs:
        walk(f.body)
    return out


def _unrolled(stmts):
    for s in stmts:
        k = type(s)
        if k is SRepeat:
            for j in range(s.count):
                yield from _renamed(s.body, {nm: per[j] for nm, per in s.names.items()})
        elif k is SIf:
            yield _copy(s, then=tuple(_unrolled(s.then)), els=tuple(_unrolled(s.els)))
        elif k is SWhile:
            yield _copy(s, body=tuple(_unrolled(s.body)))
        else:
            yield s


def _renamed(x, names: dict):
    """A copy of node x (or a tuple of nodes) with each variable in
    `names` renamed, side attributes kept."""
    if type(x) is tuple:
        return tuple(_renamed(v, names) for v in x)
    if not dataclasses.is_dataclass(x) or type(x).__dataclass_params__.frozen:
        return x
    changes = {}
    for f in dataclasses.fields(x):
        v = getattr(x, f.name)
        if f.name == "name" and isinstance(x, _VARIABLES):
            changes["name"] = names.get(v, v)
        elif f.name == "names" and type(x) is SDecl:
            changes["names"] = tuple(names.get(n, n) for n in v)
        elif f.init:
            changes[f.name] = _renamed(v, names)
    return _copy(x, **changes)


def _decls(stmts):
    for s in stmts:
        if type(s) is SDecl:
            yield s
        elif type(s) is SIf:
            yield from _decls(s.then)
            yield from _decls(s.els)
        elif type(s) is SWhile:
            yield from _decls(s.body)


def cases() -> dict:
    """{name: source} of the corpus, the planted programs of
    test_acceptance and the programs of test_rolled."""
    from test_acceptance import PLANTED
    from test_rolled import SOURCES
    from jamin.primitives.corpus import PROGRAMS, load_source

    out = {name: load_source(name) for name in PROGRAMS}
    out.update((f"planted-{i}", src) for i, (_, src, _, _) in enumerate(PLANTED))
    out.update((f"rolled-{name}", src) for name, src in SOURCES.items())
    return out


def unrolled_ir(src: str) -> str:
    """The printed IR of the unrolled expansion of source `src`."""
    return print_program(unroll(expand(typecheck(parse(src)))))


if __name__ == "__main__":
    whole = hashlib.sha256()
    programs = cases()
    for name in sorted(programs):
        text = unrolled_ir(programs[name])
        whole.update(text.encode())
        print(f"{name}: sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    print(f"all: sha256 {whole.hexdigest()}")
