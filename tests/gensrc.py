"""The Python source codegen generates for a program, per function.

`function_sources(p)` compiles every non-inline function of expanded
program p, as a run would, and returns what each one's compile() calls
were given; `line_count(p)` is the number of lines in all of it.  Tests
use them to inspect the generated code; run as a script, it writes the
source of every corpus program to a directory, so that two versions of
codegen can be diffed byte for byte, and prints each one's line count:

    PYTHONPATH=src python tests/gensrc.py OUTDIR
"""

import sys
from pathlib import Path

from jamin import codegen, interp


def function_sources(p) -> dict:
    """{function name: its generated source}, the pieces of a large
    function (Q_<name>_<k>) included, in the order they were compiled."""
    lines: dict = {}
    define = codegen._FnGen.define

    def record(self, name, body):
        lines.setdefault(self.fn.name, []).extend(body)
        return define(self, name, body)

    ns = interp._namespace(p)
    codegen._FnGen.define = record
    try:
        for fn in p.funcs:
            if not fn.inline:
                codegen.compile_function(p, fn, ns)
    finally:
        codegen._FnGen.define = define
    return {name: "\n".join(body) + "\n" for name, body in lines.items()}


def line_count(p) -> int:
    """The lines of Python source generated for program p."""
    return sum(len(src.splitlines()) for src in function_sources(p).values())


if __name__ == "__main__":
    from jamin.primitives.corpus import PROGRAMS, load_program

    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name in sorted(PROGRAMS):
        text = "".join(function_sources(load_program(name)).values())
        (out / f"{name}.py").write_text(text)
        print(f"{name}: {len(text.splitlines())} lines")
