"""The statements of src/jamin that no test executes.

Runs pytest under a line tracer (sys.settrace) limited to the frames of
src/jamin's own modules, since the coverage package is not a dependency,
and then prints, per module, each statement whose first line no test
reached, with the total per module.  Generated code (compiled from
strings) is not traced.  Pytest's arguments follow the script's; by
default it runs the whole suite:

    PYTHONPATH=src python tests/trace_lines.py [PYTEST ARGS...]
    PYTHONPATH=src python tests/trace_lines.py --check tests/trace_allowlist.txt

With `--check ALLOWLIST` it then compares the report with the allowlist
(see `read_allowlist`) and exits 1 on a statement not run that no entry
names, or an entry that names no such statement, else with pytest's
status.  Over the whole suite
that takes 4 to 5 minutes on 2 CPUs of a shared host, about four times
a plain run, which is why it is no tier-1 test.

A statement is counted when a line of its own code ran: for a compound
statement (if, while, for, def, ...) its header, up to its first nested
statement.  Lines that hold no code (a `try:`, an `else:`) are never
counted, and a module no test imports is reported whole.  Tracing makes
the run several times slower, so the tests marked `wallclock`, which
assert a wall-clock bound, are deselected (`-m "not wallclock"`; a
`-m` among the pytest arguments replaces it).  Without `--check` the
exit status is pytest's.
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


def read_allowlist(path: Path) -> list:
    """The entries of allowlist `path`: (module path, statement text or
    "*", reason) of each line `<module path> | <text> | <reason>`, where
    <text> is the first line of a statement, stripped, and "*" stands for
    every statement of the module.  Blank lines and `#` lines are
    comments; a line without a reason is an error."""
    out = []
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        module, sep, rest = line.partition(" | ")
        text, sep2, reason = rest.rpartition(" | ")
        if not (sep and sep2 and text.strip() and reason.strip()):
            raise SystemExit(f"{path}:{n}: expected '<module> | <statement> | <reason>'")
        out.append((module.strip(), text.strip(), reason.strip()))
    return out


def check(report: dict, entries: list) -> int:
    """Print each statement of `report` (module path -> [(line, text)]
    not run) that no allowlist entry names, and each entry that names no
    such statement; 1 if there is any, else 0."""
    used = set()
    bad = 0
    for module, stmts in report.items():
        for line, text in stmts:
            hits = [e for e in entries if e[0] == module and e[1] in ("*", text)]
            used.update(hits)
            if not hits:
                bad += 1
                print(f"not run and not allowlisted: {module}:{line}: {text}")
    for e in entries:
        if e not in used:
            bad += 1
            print(f"allowlisted but run (or gone): {e[0]} | {e[1]}")
    print(f"check: {bad} problem(s)")
    return int(bad > 0)


def main(argv) -> int:
    allowlist = None
    if argv[:1] == ["--check"]:
        if len(argv) < 2:
            raise SystemExit("usage: trace_lines.py --check ALLOWLIST [PYTEST ARGS...]")
        allowlist, argv = read_allowlist(Path(argv[1])), argv[2:]
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
        status = pytest.main(["-q", "-p", "no:cacheprovider", "-m", "not wallclock", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = missed(path, ran.get(str(path), set()))
        if lines:
            text = path.read_text().splitlines()
            report[str(path.relative_to(ROOT))] = [(n, text[n - 1].strip()) for n in lines]
    for module, stmts in report.items():
        print(f"{module}: {len(stmts)} statements not run")
        print("  lines " + ", ".join(str(n) for n, _ in stmts))
    print(f"total: {sum(map(len, report.values()))} statements not run")
    if allowlist is not None:
        return check(report, allowlist) or int(status)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
