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
    "gensrc": (corpus_sources, "e230a19b568ee44dbcd74b0201ea80a93583d8c456ffc20f2ea38c32b5da702e"),
    "reports": (reports, "f0def5e16dd3df74145085d4c3cc908fe594405b4d09b201e8717a69c409fe0d"),
}


@pytest.mark.parametrize("script", sorted(DIGESTS))
def test_whole_output_keeps_its_digest(script):
    texts, digest = DIGESTS[script]
    got = hashlib.sha256("".join(texts().values()).encode()).hexdigest()
    assert got == digest, (
        f"tests/{script}.py prints 'all: sha256 {got}', not {digest}: run "
        f"`PYTHONPATH=src python tests/{script}.py OUTDIR` at the parent commit and at this "
        f"change, each into its own OUTDIR, and diff the two OUTDIRs to see what changed")
