"""The statements of src/jamin that no test executes.

Runs pytest under a line tracer (sys.settrace) limited to the frames of
src/jamin's own modules, since the coverage package is not a dependency,
and then prints, per module, each statement whose first line no test
reached, with the total per module.  Generated code (compiled from
strings) is not traced.  Pytest's arguments follow the script's; by
default it runs the whole suite:

    PYTHONPATH=src python tests/trace_lines.py [PYTEST ARGS...]

A statement is counted when a line of its own code ran: for a compound
statement (if, while, for, def, ...) its header, up to its first nested
statement.  Lines that hold no code (a `try:`, an `else:`) are never
counted, and a module no test imports is reported whole.  Tracing makes
the run several times slower than a plain pytest run, so a test that
times itself may fail under it; the report still covers every test
that ran.  The exit status is pytest's.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jamin"
PREFIX = str(SRC) + "/"


def code_lines(code) -> set:
    """The lines that code object `code` and those nested in it hold
    code for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for c in code.co_consts:
        if hasattr(c, "co_lines"):
            lines |= code_lines(c)
    return lines


def statements(tree) -> list:
    """(first line, last line of its own code) of each statement of the
    module `tree`: a compound statement's own lines end before its first
    nested statement."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        nested = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        decorators = [d.lineno for d in getattr(node, "decorator_list", ())]
        first = min([node.lineno, *decorators])
        out.append((first, min(nested) - 1 if nested else node.end_lineno))
    return sorted(out)


def missed(path: Path, ran: set) -> list:
    """The first lines of the statements of module `path` none of whose
    code lines is in `ran`."""
    text = path.read_text()
    code = code_lines(compile(text, str(path), "exec"))
    out = []
    for first, last in statements(ast.parse(text)):
        own = code.intersection(range(first, last + 1))
        if own and not own & ran:
            out.append(first)
    return out


def main(argv) -> int:
    ran: dict = {}  # filename -> the lines that ran

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PREFIX):
            return None
        ran.setdefault(name, set())
        return local

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = missed(path, ran.get(str(path), set()))
        total += len(lines)
        if lines:
            print(f"{path.relative_to(ROOT)}: {len(lines)} statements not run")
            print("  lines " + ", ".join(map(str, lines)))
    print(f"total: {total} statements not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
