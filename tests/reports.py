"""Every analysis report of a program, as text.

`report(p, entry, pointers, tracked)` is what safety.analyze,
safety.check_safety, safety.preanalyze and leakage.infer_public report
on expanded program p: for the tracked parameters given, those that
preanalyze suggests and none, the range lines (text and machine), the
failures and the findings of analyze (or the AnalysisFailure that ended
it) and the findings of check_safety; then the preanalyze and
infer_public sets.  Tests use it to compare two ways of analyzing one
program; run as a script, it writes the report of every corpus program,
every planted program of test_acceptance and every probe of
test_safety_golden to a directory, so that two versions of the analyses
can be diffed byte for byte, and prints each one's sha256, then one
sha256 over all of them in the order printed:

    PYTHONPATH=src python tests/reports.py OUTDIR
"""

import hashlib
import sys
from pathlib import Path

from jamin import leakage, safety


def report(p, entry: str, pointers, tracked) -> str:
    """The reports of the analyses on entry `entry` of p, one per line."""
    suggested = sorted(safety.preanalyze(p, entry))
    lines = []
    for label, tr in (("declared", list(tracked)), ("preanalyze", suggested), ("untracked", [])):
        lines.append(f"[{label}] pointers {list(pointers)} tracked {tr}")
        try:
            rep = safety.analyze(p, entry, pointers, tr)
        except safety.AnalysisFailure as exc:
            lines.append(f"analysis failure: {exc}")
        else:
            lines += rep.text_lines() + rep.machine_lines()
            lines += [f"failure: {f}" for f in rep.failures]
            lines += [f"finding: {f!r}" for f in rep.findings]
        lines += [f"check_safety: {f!r}" for f in safety.check_safety(p, entry, pointers, tr)]
    lines.append(f"preanalyze: {suggested}")
    lines.append(f"infer_public: {sorted(leakage.infer_public(p, entry))}")
    return "\n".join(lines) + "\n"


def cases() -> dict:
    """{name: a function that builds (program, entry, pointers, tracked)}
    for the corpus, the planted programs (their Ptr-shaped parameters as
    pointers) and the golden probes."""
    from test_acceptance import PLANTED
    from test_safety_golden import PROBES
    from jamin.expand import expand
    from jamin.parser import parse
    from jamin.primitives.corpus import PROGRAMS, load_program
    from jamin.typecheck import typecheck

    def source(src, entry, pointers, tracked):
        return lambda: (expand(typecheck(parse(src))), entry, pointers, tracked)

    def corpus(name, info):
        return lambda: (load_program(name), info.entry, info.pointers, info.tracked)

    out = {name: corpus(name, info) for name, info in PROGRAMS.items()}
    for i, (_, src, shape, _) in enumerate(PLANTED):
        pointers = tuple(n for n, s in shape.items() if isinstance(s, leakage.Ptr))
        out[f"planted-{i}"] = source(src, "f", pointers, ())
    for name, probe in PROBES.items():
        out[name] = source(*probe)
    return out


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    programs = cases()
    whole = hashlib.sha256()
    for name in sorted(programs):
        text = report(*programs[name]())
        (out / f"{name}.txt").write_text(text)
        whole.update(text.encode())
        print(f"{name}: sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    print(f"all: sha256 {whole.hexdigest()}")
