"""One dataflow engine over expanded IR: the monotone framework of
Kildall (POPL 1973) over structured code.

An expanded function has straight-line statements (declarations,
assignments, calls, and a `return` as its last statement, if any),
and `if`, `while` and repeat nodes (ir.SRepeat), whose blocks ir.blocks
gives.  The
must-be-assigned pass (codegen.Assigned, whose noted reads codegen
checks and safety reports as maybe-uninit), codegen's liveness,
safety's ranges and leakage's taint all walk them here, each with a
lattice of its own.  A forward domain d provides:

- d.copy(state): a state the driver may update in place;
- d.transfer(state, s): the state after straight-line statement s, or
  after the test of an `if` or `while` s;
- d.refine(state, cond, taken): the state where cond is `taken`;
- d.join(key, a, b): a new state, where the paths of the `if` or
  `while` of the key meet;
- optionally d.widen(s, key, n, head, new, entry, end): the state at
  the test of while loop s (of the key) after the n-th pass over its
  body (from 0), from the join `new` of `head` and the body's `end`; it
  may raise;
- d.recording: whether d records findings.  The driver then walks a
  loop body once more at its fixpoint, and d records nothing while the
  driver iterates to it;
- d.forget(state, private): `state` with the locals in `private` as they
  are before their declaration; it may update `state`;
- d.observable(state, private): a snapshot, compared with ==, of `state`
  without the locals in `private` and of every table that d records
  into or reads back, which later updates of either leave unchanged;
- d.at: None, set by the driver to j while it walks iteration j of a
  repeat node;
- d.heads: a dict, empty at first, in which the driver keeps the head
  state of each while loop (by its key) at its last fixpoint.

The key of an `if` or `while` s is key(s, d): id(s), or (id(s), j) in
iteration j of a repeat node, whose iterations stand for distinct
copies.  A domain that joins within a straight-line statement s (such
as safety's guarded assignment) keys that join key(s, d) too.

A while loop's fixpoint is resumed, not recomputed, on each pass over
the loops around it: it starts from the head that d.heads keeps for the
loop's key joined with the new entry state, as Bourdoncle's recursive
strategy (FMPA 1993) resumes an inner component from its last stable
head.  This is sound: a fixpoint reached from a larger start still
covers the least one, so it can only lose precision.  It loses none
where the entry states only grow, as over the passes of the loops
around it, and d does not widen: the kept head is then below the least
fixpoint from the new entry, which the iteration reaches.  A loop nest
costs about the sum of its loops' passes, not their product.  A loop
in iteration j of a repeat node has a key of its own, and so a kept
head of its own, as each unrolled copy of the loop would.

flow.backward, the one backward analysis, records in a dict the set
after each statement, at the fixpoint where the statement is in a loop:
codegen runs it once per function over all locals, and its moves and
the locals its pieces return read those sets.

A repeat node is walked one iteration at a time, each iteration its
body walked with its private locals (the node's `names`) forgotten, as
a fresh copy's are before their declaration, and the rest of it skipped as soon as an
iteration leaves observable(state, private) as it found it.  This is
exact: iteration j+1 is iteration j with only its private locals
renamed, and no statement outside iteration j mentions iteration j's,
so from an equal observable state it reads, does and records the same,
and so does every later iteration (a later iteration's loops have kept
heads of their own, which lie below its fixpoints where d does not
widen, as above).  The state after the node holds the private locals
of the last iteration walked, which nothing reads.

transfer and refine may update the state they are given.  States are
compared with ==.
"""

from __future__ import annotations

from itertools import chain, count

from .ir import (
    EArr,
    EBin,
    ECall,
    ECast,
    EIntr,
    EMem,
    EUn,
    EVar,
    SAssign,
    SDecl,
    SIf,
    SRepeat,
    SReturn,
    SWhile,
    blocks,
)


def forward(stmts, state, d):
    """The state after `stmts` run from `state` in domain d."""
    for s in stmts:
        k = type(s)
        if k is SIf:
            state = d.transfer(state, s)
            then = forward(s.then, d.refine(d.copy(state), s.cond, True), d)
            els = forward(s.els, d.refine(state, s.cond, False), d)
            state = d.join(key(s, d), then, els)
        elif k is SWhile:
            state = d.transfer(loop(s, state, d), s)
            if d.recording:
                forward(s.body, d.refine(d.copy(state), s.cond, True), d)
            state = d.refine(state, s.cond, False)
        elif k is SRepeat:
            state = repeat(s, state, d)
        else:
            state = d.transfer(state, s)
    return state


def key(s, d):
    """The key of the joins at s in domain d (see the module docstring)."""
    return id(s) if d.at is None else (id(s), d.at)


def repeat(s, state, d):
    """The state after repeat node s run from `state`: its iterations
    walked until one leaves d.observable as it found it (see the module
    docstring), which record all that any iteration would: the
    must-be-assigned pass notes there each read a run may find unassigned."""
    private = frozenset(s.names)
    seen = d.observable(state, private)
    try:
        for j in range(s.count):
            state = d.forget(state, private)
            d.at = j
            state = forward(s.body, state, d)
            now = d.observable(state, private)
            if now == seen:
                break
            seen = now
    finally:
        d.at = None
    return state


def loop(s, state, d):
    """The state at the test of while loop s entered with `state`: the
    entry state joined with the head at which d last stabilised s (of
    the same key), then with the state at the end of every pass over the
    body, to the fixpoint, which d.heads keeps.  Nothing is recorded
    meanwhile."""
    recording, d.recording = d.recording, False
    k = key(s, d)
    try:
        head = d.heads.get(k)
        head = state if head is None else d.join(k, head, state)
        for n in count():
            end = forward(s.body, d.refine(d.copy(head), s.cond, True), d)
            new = d.join(k, head, end)
            if getattr(d, "widen", None) is not None:
                new = d.widen(s, k, n, head, new, state, end)
            if new == head:
                d.heads[k] = d.copy(head)
                return head
            head = new
    finally:
        d.recording = recording


def backward(stmts, live: set, transfer, after: dict | None = None) -> set:
    """A liveness-style analysis: the set before `stmts` from the set
    after them.  transfer(after, s) gives the set before straight-line
    statement s, or before the test of an `if` or `while` s; paths meet
    in a union, and the head of a while loop or a repeat node takes its
    fixpoint.  after[id(s)], when `after` is given, is the set after each
    statement s, at the fixpoint in a loop (its last pass, whose sets
    hold those of every pass)."""
    if after is None:
        after = {}
    for s in reversed(stmts):
        after[id(s)] = live
        k = type(s)
        if k is SIf:
            live = transfer(backward(s.then, live, transfer, after)
                            | backward(s.els, live, transfer, after), s)
        elif k is SWhile or k is SRepeat:
            head = transfer(live, s) if k is SWhile else live
            while (new := head | backward(s.body, head, transfer, after)) != head:
                head = new
            live = head
        else:
            live = transfer(live, s)
    return live


def reads(e, out=None) -> list:
    """The names expression e reads (arrays read by element included),
    once per mention, appended to `out` when given."""
    if out is None:
        out = []
    k = type(e)
    if k is EVar:
        out.append(e.name)
    elif k is EArr:
        out.append(e.name)
        reads(e.index, out)
    elif k is EBin:
        reads(e.left, out)
        reads(e.right, out)
    elif k is EUn or k is ECast:
        reads(e.arg, out)
    elif k is EMem:
        reads(e.addr, out)
    elif k is EIntr or k is ECall:
        for a in e.args:
            reads(a, out)
    return out


def summary(s) -> tuple:
    """(the names statement s may read before it rebinds them, the names
    it may rebind as a whole), each once per mention.  A name that s
    rebinds on some paths only is among the reads too: the destination
    of a guarded assignment, and every name in a statement that holds
    blocks (ir.blocks), whose reads are its test's and, for each
    statement in its blocks, a straight-line one's reads and rebinds or
    a block-holding one's reads.
    An element store reads its array."""
    k = type(s)
    if k is SDecl:
        return (reads(s.init) if s.init is not None else []), list(s.names)
    if k is SAssign:
        r = reads(s.rhs)
        whole = []
        for lv in s.dests:
            if type(lv) is EVar:
                whole.append(lv.name)
            else:  # an element store reads its array; `_` reads nothing
                reads(lv, r)
        if s.cond is not None:
            reads(s.cond, r)
        return (r + whole if s.cond is not None else r), whole
    if k is SReturn:
        return [n for v in s.values for n in reads(v)], []
    r, w = ([] if k is SRepeat else reads(s.cond)), []
    for c in chain(*blocks(s)):
        cr, cw = summary(c)
        r += cr if blocks(c) else cr + cw
        w += cw
    return r, w
