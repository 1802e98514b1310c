"""The whole outputs of tests/gensrc.py (the generated code of the corpus
and the planted programs) and tests/reports.py (every analysis report of
those and of the safety probes), pinned by their "all" sha256.  A change
that moves either digest changes what codegen emits or what an analysis
reports: see what moved, and record the new digest only for a change
that means to move it."""

import hashlib

import pytest

from gensrc import corpus_sources
from reports import reports

DIGESTS = {
    "gensrc": (corpus_sources, "54434c862ed2cd91c08b232b2cddd0bd6b02b4181db5b1dda439974532bba50b"),
    "reports": (reports, "61430d57ae227cd7777cf4fae6523a123498f1fef4fa1787f1ffd14ff5404c44"),
}


@pytest.mark.parametrize("script", sorted(DIGESTS))
def test_whole_output_keeps_its_digest(script):
    texts, digest = DIGESTS[script]
    got = hashlib.sha256("".join(texts().values()).encode()).hexdigest()
    assert got == digest, (
        f"tests/{script}.py prints 'all: sha256 {got}', not {digest}: run "
        f"`PYTHONPATH=src python tests/{script}.py OUTDIR` at the parent commit and at this "
        f"change, each into its own OUTDIR, and diff the two OUTDIRs to see what changed")
