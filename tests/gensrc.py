"""The Python source codegen generates for a program, per function.

`function_sources(p)` compiles every non-inline function of expanded
program p, as a run would, and returns what each one's compile() calls
were given; `line_count(p)` is the number of lines in all of it, and
`corpus_sources()` the source of every corpus program and every planted
program of test_acceptance.  Tests use them to inspect the generated
code (test_digests pins the sha256 of all of it); run as a script, it
writes the corpus sources to a directory, so that two versions of
codegen can be diffed byte for byte, and prints each one's line count
and sha256, then one sha256 over all of them in the order printed:

    PYTHONPATH=src python tests/gensrc.py OUTDIR
"""

import hashlib
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


def corpus_sources() -> dict:
    """{name: generated source} of every corpus program and every planted
    program of test_acceptance, in name order, each built afresh so that
    its prebuilt constants are numbered as in a new process."""
    from test_acceptance import PLANTED
    from jamin.expand import expand
    from jamin.parser import parse
    from jamin.primitives.corpus import PROGRAMS, load_source
    from jamin.typecheck import typecheck

    texts = {name: load_source(name) for name in PROGRAMS}
    texts.update((f"planted-{i}", src) for i, (_, src, _, _) in enumerate(PLANTED))
    return {name: "".join(function_sources(expand(typecheck(parse(texts[name])))).values())
            for name in sorted(texts)}


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    whole = hashlib.sha256()
    for name, text in corpus_sources().items():
        (out / f"{name}.py").write_text(text)
        whole.update(text.encode())
        print(f"{name}: {len(text.splitlines())} lines, "
              f"sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    print(f"all: sha256 {whole.hexdigest()}")
