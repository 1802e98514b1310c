"""One dataflow engine over expanded IR: the monotone framework of
Kildall (POPL 1973) over structured code.

An expanded function has straight-line statements (declarations,
assignments, calls, `return`), `if` and `while`.  Codegen's must-be-
assigned facts (which also give safety's maybe-uninit findings) and
array liveness, safety's ranges and leakage's taint all walk them here,
each with a lattice of its own.  A forward domain d provides:

- d.copy(state): a state the driver may update in place;
- d.transfer(state, s): the state after straight-line statement s, or
  after the test of an `if` or `while` s;
- d.refine(state, cond, taken): the state where cond is `taken`;
- d.join(key, a, b): a new state, where the paths of the `if` or
  `while` whose id() is key meet;
- optionally d.widen(s, n, head, new, entry, end): the state at the
  test of while loop s after the n-th pass over its body (from 0), from
  the join `new` of `head` and the body's `end`; it may raise;
- d.recording: whether d records findings.  The driver then walks a
  loop body once more at its fixpoint, and d records nothing while the
  driver iterates to it;
- optionally d.unrolled, the loops that expand recorded in the function
  (records), and d.observable(state, private): a snapshot, compared with
  ==, of `state` without the locals in `private` and of every table that
  d records into or reads back, which later updates of either leave
  unchanged.

A domain with `unrolled` has each recorded loop walked one iteration at
a time, and the rest of it skipped as soon as an iteration leaves
observable(state, private) as it found it, where `private` is every
iteration's renamed locals.  This is exact: iteration j+1 is iteration j
with only its private locals renamed, and no statement outside
iteration j mentions iteration j's, so from an equal observable state it
reads, does and records the same, and so does every later iteration.
The state after a skipped loop lacks only the skipped iterations'
private locals, which nothing reads.  A domain without `unrolled` walks
every copy.

transfer and refine may update the state they are given.  None is the
state of an unreachable point, such as after a `return`; domains never
see it.  States are compared with ==.
"""

from __future__ import annotations

from itertools import count

from .ir import (
    EArr,
    EBin,
    ECall,
    ECast,
    EIntr,
    EMem,
    EUn,
    EVar,
    LArr,
    LMem,
    LVar,
    SAssign,
    SDecl,
    SIf,
    SReturn,
    SWhile,
)


def join(d, key, a, b):
    """d.join(key, a, b), where either side may be unreachable (None)."""
    if a is None:
        return b
    if b is None:
        return a
    return d.join(key, a, b)


def records(p, fn) -> dict:
    """expand's record of the loops of function fn of program p unrolled
    as copies (see expand), by the id of the block that holds them: for
    each, in order, (the index of its first statement in the block,
    statements per iteration, iterations, each renamed local of
    iteration 0 -> its name in every iteration)."""
    first = {id(s): loop for s, *loop in (p.unrolled or {}).get(fn.name, ())}
    out: dict = {}

    def walk(stmts):
        for i, s in enumerate(stmts):
            loop = first.get(id(s))
            if loop is not None:
                out.setdefault(id(stmts), []).append((i, *loop))
            elif type(s) is SIf:
                walk(s.then)
                walk(s.els)
            elif type(s) is SWhile:
                walk(s.body)

    if first:
        walk(fn.body)
    return out


def forward(stmts, state, d):
    """The state after `stmts` run from `state` in domain d."""
    recorded = getattr(d, "unrolled", None)
    loops = recorded.get(id(stmts)) if recorded else None
    if loops:  # the statements before each recorded loop, then its iterations
        i = 0
        for at, n, count, names in loops:
            state = forward(stmts[i:at], state, d)
            if state is None:
                return None
            state = iterations(stmts[at:at + n * count], n, names, state, d)
            i = at + n * count
        stmts = stmts[i:]
    for s in stmts:
        if state is None:
            return None
        k = type(s)
        if k is SIf:
            state = d.transfer(state, s)
            then = forward(s.then, d.refine(d.copy(state), s.cond, True), d)
            state = join(d, id(s), then, forward(s.els, d.refine(state, s.cond, False), d))
        elif k is SWhile:
            state = d.transfer(loop(s, state, d), s)
            if d.recording:
                forward(s.body, d.refine(d.copy(state), s.cond, True), d)
            state = d.refine(state, s.cond, False)
        else:
            state = d.transfer(state, s)
            if k is SReturn:
                return None
    return state


def iterations(stmts, n: int, names: dict, state, d):
    """The state after `stmts`, the iterations of a recorded loop (n
    statements each, their renamed locals `names`), run from `state`:
    each iteration is walked, as a block of its own, until one leaves
    d.observable as it found it, and the rest are skipped (see the
    module docstring)."""
    private = frozenset(nm for per in names.values() for nm in per)
    seen = d.observable(state, private)
    for j in range(0, len(stmts), n):
        state = forward(stmts[j:j + n], state, d)
        if state is None:
            return None
        now = d.observable(state, private)
        if now == seen:
            break
        seen = now
    return state


def loop(s, state, d):
    """The state at the test of while loop s entered with `state`: the
    entry state joined with the state at the end of every pass over the
    body, to the fixpoint.  Nothing is recorded meanwhile."""
    recording, d.recording = d.recording, False
    try:
        head = state
        for n in count():
            end = forward(s.body, d.refine(d.copy(head), s.cond, True), d)
            new = join(d, id(s), head, end)
            if getattr(d, "widen", None) is not None:
                new = d.widen(s, n, head, new, state, end)
            if new == head:
                return head
            head = new
    finally:
        d.recording = recording


def backward(stmts, live: set, transfer) -> set:
    """A liveness-style analysis: the set before `stmts` from the set
    after them.  transfer(after, s) gives the set before straight-line
    statement s, or before the test of an `if` or `while` s; paths meet
    in a union, and a while loop's test takes its fixpoint."""
    for s in reversed(stmts):
        k = type(s)
        if k is SIf:
            live = transfer(backward(s.then, live, transfer) | backward(s.els, live, transfer), s)
        elif k is SWhile:
            head = transfer(live, s)
            while (new := head | backward(s.body, head, transfer)) != head:
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
    of a guarded or compound assignment, and every name in an `if` or
    `while`, whose reads are its test's and, for each statement in it,
    a straight-line one's reads and rebinds or a nested one's reads.
    An element store reads its array."""
    k = type(s)
    if k is SDecl:
        return (reads(s.init) if s.init is not None else []), list(s.names)
    if k is SAssign:
        r = reads(s.rhs)
        whole = []
        for lv in s.dests:
            t = type(lv)
            if t is LVar:
                whole.append(lv.name)
            elif t is LArr:
                r.append(lv.name)
                reads(lv.index, r)
            elif t is LMem:
                reads(lv.addr, r)
        if s.cond is not None:
            reads(s.cond, r)
        return (r + whole if s.op or s.cond is not None else r), whole
    if k is SReturn:
        return [n for v in s.values for n in reads(v)], []
    r, w = reads(s.cond), []
    for c in (s.then + s.els if k is SIf else s.body):
        cr, cw = summary(c)
        r += cr if type(c) is SIf or type(c) is SWhile else cr + cw
        w += cw
    return r, w
