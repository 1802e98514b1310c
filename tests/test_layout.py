"""`src/jamin` holds what the system runs.

Every public top-level function and class of `src/jamin` must be
referenced in `src/jamin` outside its own definition, be used by
`perfbench/`, or be named in the "Specification layers" section of
`docs/lang.md` (a specification layer that a named test checks).  The
test reads that section, so the document and this check cannot drift.
A definition that only tests call belongs in `tests/`.  Every name a
module of `src/jamin` imports is read in the scope that imports it, and
every field of a dataclass of `src/jamin` is read as an attribute in
`src/jamin` or `perfbench/`.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jamin"
BENCH = ROOT / "perfbench"


def _module(path: Path, base: Path, package: str) -> str:
    parts = [package, *path.relative_to(base).with_suffix("").parts]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _absolute(module: str, is_package: bool, level: int, name: str | None) -> str:
    """The module that `from <level dots><name> import ...` names."""
    if not level:
        return name or ""
    parts = module.split(".")[: len(module.split(".")) - level + is_package]
    return ".".join(parts + ([name] if name else []))


def _uses(path: Path, module: str, is_package: bool):
    """(module, name) pairs that the file reads, with the source line of
    each: a bare name bound by `from m import name` or defined in the file
    itself, and `alias.name` where `alias` is bound to module m."""
    tree = ast.parse(path.read_text())
    modules, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                modules[a.asname or a.name.split(".")[0]] = a.name if a.asname else a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = _absolute(module, is_package, node.level, node.module)
            for a in node.names:
                imported[a.asname or a.name] = (base, a.name)
                modules[a.asname or a.name] = f"{base}.{a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield imported.get(node.id, (module, node.id)), node.lineno
        elif isinstance(node, ast.Attribute):
            chain = []
            value = node
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in modules:
                # a.b.c: the module a.b (or a) and the name that follows it
                mod = modules[value.id]
                for attr in reversed(chain):
                    yield (mod, attr), node.lineno
                    mod = f"{mod}.{attr}"


def _definitions():
    """{(module, name): (first line, last line)} of the public top-level
    functions and classes of src/jamin."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module(path, SRC, "jamin")
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out[module, node.name] = (node.lineno, node.end_lineno)
    return out


def _used(defs) -> set:
    """The definitions referenced in src/jamin outside their own body, or
    anywhere in perfbench/."""
    used = set()
    for base, package in ((SRC, "jamin"), (BENCH, "perfbench")):
        for path in sorted(base.rglob("*.py")):
            module = _module(path, base, package)
            for key, line in _uses(path, module, path.name == "__init__.py"):
                if key not in defs:
                    continue
                first, last = defs[key]
                if base is BENCH or key[0] != module or not first <= line <= last:
                    used.add(key)
    return used


def specification_layers() -> set:
    """The entries of docs/lang.md's "Specification layers" section: every
    backquoted dotted name in it, a module (all its definitions), a
    `module.name` or a `module.Class.method`."""
    text = (ROOT / "docs" / "lang.md").read_text()
    section = text.partition("\n## Specification layers\n")[2].split("\n## ", 1)[0]
    return set(re.findall(r"`(jamin(?:\.\w+)+)`", section))


def test_every_public_definition_is_run_or_named():
    defs = _definitions()
    named = specification_layers()
    unused = sorted(f"{m}.{n}" for m, n in set(defs) - _used(defs)
                    if m not in named and f"{m}.{n}" not in named)
    assert not unused, f"used by neither src/jamin nor perfbench/, and no named layer: {unused}"


def test_named_layers_exist():
    """Each entry of the section is a module of src/jamin, or a name in
    one, or an attribute of such a name."""
    assert specification_layers()
    for dotted in specification_layers():
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                continue
            for attr in parts[i:]:
                obj = getattr(obj, attr)
            break
        else:
            raise AssertionError(dotted)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list))


def test_every_dataclass_field_is_read():
    """A field that nothing reads is state that nothing needs."""
    fields, read = [], set()
    for base in (SRC, BENCH):
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif base is SRC and isinstance(node, ast.ClassDef) and _is_dataclass(node):
                    fields += [f"{path.relative_to(SRC)}: {node.name}.{a.target.id}"
                               for a in node.body
                               if isinstance(a, ast.AnnAssign) and isinstance(a.target, ast.Name)]
    assert fields
    unread = [f for f in fields if f.rpartition(".")[2] not in read]
    assert not unread, f"dataclass fields never read as an attribute: {unread}"


def _unused_imports(path: Path) -> list:
    """(line, name) of each name that an import in file `path` binds and
    the module, or the function holding the import, never reads.
    `__future__` imports are exempt."""
    tree = ast.parse(path.read_text())
    out = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            if isinstance(node, ast.FunctionDef):
                continue  # a scope of its own
            todo.extend(ast.iter_child_nodes(node))
            future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not future:
                names = (a.asname or a.name.split(".")[0] for a in node.names)
                out += [(node.lineno, name) for name in names if name not in read]
    return sorted(out)


def test_every_import_is_read():
    """An `__init__` module may import names to re-export them."""
    unused = {str(path.relative_to(SRC)): found for path in sorted(SRC.rglob("*.py"))
              if path.name != "__init__.py" and (found := _unused_imports(path))}
    assert not unused, f"imported and never read: {unused}"


def _region_table_reads(path: Path) -> list:
    """(line, attribute) of each read of an attribute `_regions` or
    `_lines` in file `path`, except `self.<name>` in a class that defines
    a method <name> itself.  Source text that a module emits is a string,
    not a read."""
    tree = ast.parse(path.read_text())
    own = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        methods = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
        own |= {id(n) for n in ast.walk(cls) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "self" and n.attr in methods}
    return sorted((n.lineno, n.attr) for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                  and n.attr in ("_regions", "_lines") and id(n) not in own)


def test_only_memory_reads_the_region_table():
    """A Memory's `_regions` and `_lines` are read by memory.py alone;
    codegen names them only in the source it emits."""
    reads = {str(path.relative_to(SRC)): found for path in sorted(SRC.rglob("*.py"))
             if path.name != "memory.py" and (found := _region_table_reads(path))}
    assert not reads, f"reads a Memory's region table outside memory.py: {reads}"
    assert _region_table_reads(SRC / "memory.py")
