"""Translation of expanded functions into Python source.

Every function of a program from expand becomes one Python function,
compiled on its first call:

    F_<name>(<parameters>, B, T, M, O) -> (B, <results>)

B is the remaining step budget, T the leakage-trace list or None, M the
run's working Memory and O true in the OpsV vector mode.  Registers are
Python locals (named v_<register>), and so is each element of a
register array (e_<root>_<k>, see the element view below); stack arrays
are StackArray objects.  A register array is a list only at a boundary:
a non-inline call packs its arguments into fresh lists and unpacks its
array results, a `return` packs its arrays, and a function unpacks each
array parameter live at its entry (interp.run's arguments and results
are these lists).  The names the source refers to besides its
locals (the run-time helpers of interp, global arrays G_<name>,
intrinsic semantics, word-operator evaluators, masks and prebuilt
constants) live in one namespace per program.

Eight devices keep the generated code lean without changing what a run
observes:

- the step budget is charged once per straight-line segment: statements
  up to the next branch, loop test, call or block end pay together,
  before the first of them runs, so a run's step total is unchanged;
- constant array indices, each its own leakage event, are added to the
  trace as prebuilt tuples of ints, in one step before the next dynamic
  event (a memory address, a computed index, a branch outcome) or at
  the segment's end;
- a check is left out only where it cannot fire: the unassigned-value
  check of a read of a register or constant-index element that the
  function's one must-be-assigned pass (Assigned), whose notes safety's
  maybe-uninit findings read too, does not note as maybe unassigned,
  and the bounds check of every constant index, which expand keeps in
  bounds;
- a multi-destination statement over an instruction with a per-output
  table (isa.Table) evaluates its operands once, in order, and then
  computes inline only the destinations that are not `_`;
- constant operands of vector instructions are bound at generation: a
  vector intrinsic is a positional call `(V if O else L)(operands)` of
  its OpsV and Ops forms, and a selector or imm8 that is a literal (expand
  substitutes a global's value) is bound into the pair (isa.bind), so
  only the other operands are passed;
- the element view (coalesce): the register-array locals of a
  function fall into classes, and element k of every local of class r
  is the one Python local e_<r>_<k>.  A copy `x = y` of register
  arrays merges the classes of x and y, and emits nothing, when no
  local of one interferes with a local of the other, a local
  interfering with every other one live after one of its definitions
  (a declaration that stores, a whole or element write, a parameter at
  entry), as a register allocator coalesces moves (Chaitin; George and
  Appel).  So a copy whose source is live after it, or from a global,
  is one parallel assignment of the elements, charged as the one
  statement it is, and the copies inlining makes in and out of each
  call mostly vanish.  A
  stack-array copy whose source is dead after it (no path reads it,
  writes an element of it or passes it on before redefining it as a
  whole, loops included) is a move: dst takes src's StackArray itself.
  The locals live after each statement come from one flow.backward
  pass over the function, which the view, moves, pieces and
  declarations all read;
- a repeat node (ir.SRepeat, see expand) is emitted once, in
  `for _k in range(count):`.  Its body is translated as a loop: a read
  is checked when the must-be-assigned pass notes it in any iteration
  it walks, with liveness across its back edge, pieced when it is
  longer than PIECE, charging its statements' steps and adding its
  constant events in every iteration.  A check that
  names one of the node's private locals names the running iteration's
  (the node's `names`), from a prebuilt tuple indexed by _k.  No repeat
  node holds another.  An iteration is a block: its segments and event
  batches end with it, so a budget that runs out in a later iteration
  than another fault does not hide that fault, as it can in the
  unrolled code;
- the hit path of a memory or stack-array access of 1, 2, 4 or 8 bytes
  is emitted inline, and the helper of interp (_ld, _st, _sld, _sst) is
  called, a stack-array one with the access's ir.span, only when a test
  of the hit fails (a constant-index miss passes no trace, its event being in
  the batch already): a memory access tests that its bytes lie in the
  region the line index names (memory._lines) and, for a load, that
  they are written (a region without an init map is all written); a
  stack-array access that its index is at most the last in bounds
  (ir.span, which gives the access's bytes and index step too; a
  literal index is in bounds) and, for a load, that its bytes are
  written.  A hit reads or writes through a struct codec (LD<n>,
  ST<n>), or a byte subscript at 1 byte, and marks its bytes written; a
  store's value is cut to the access's width unless its type already
  fits.  Its event goes to the trace
  after these tests, which neither fault nor change anything, so that
  it is added once, by the hit or by the helper, where the helper adds
  it: after the bounds check of a stack-array access, before the region
  is looked up for a memory access.  An access outside every region,
  in an earlier region sharing the line, straddling two regions or of
  an unwritten byte, an index past the end and a 16- or 32-byte access
  go to the helper, which makes the access or raises its fault.  A
  constant-index access is one line; a computed-index store or a memory
  store is an `if` on the hit with the helper call as its `else`.

An else-if chain is one Python `if` with an `elif` per arm, so it nests
no deeper than its first `if` (Python allows 20 nested loop blocks, and
the parser's nesting limit does not count the arms): an arm's test is
one expression that charges the arm's step, evaluates the test and
records its branch event with interp._ev, in the order the statements
of an `if` in the else block would.

Large functions are compiled in pieces of at most PIECE statements, a
statement counting with those in its blocks (ir.blocks), one
compile() call each; a piece is a Python function of its own that takes
exactly the locals it mentions that are live into it, and returns
exactly the ones it rebinds that are live after it, a register array
as the elements of its class and an element store rebinding its
array.  Every other local it mentions is its own.  The function's `return`, the last statement
of its body (typecheck), is never in a piece.

Typecheck scopes every register and stack local to the block that
declares it, so each read of a local follows its declaration on every
path: a local is always bound when it is read, and the only poison it
can hold is UNDEF.
A declaration stores UNDEF (into each element of a register array, a
fresh StackArray for a stack array) into a name only where the name is
live after it, by the same liveness: a dead name is rebound as
a whole before any read, any piece call that takes it and any element
access on every path, so nothing can find it unassigned.  The name that
an initializer writes stores only when the initializer reads it.
"""

from __future__ import annotations

import re

from .ir import (
    ArrayTy,
    EArr,
    EBin,
    EBool,
    ECall,
    ECast,
    EInt,
    EIntr,
    EMem,
    EUn,
    EVar,
    LIgnore,
    SAssign,
    SDecl,
    SIf,
    SRepeat,
    SReturn,
    SWhile,
    WordTy,
    blocks,
    int_value,
    span,
    walk,
)
from . import flow, words
from .isa import bind, lookup
from .memory import LINE
from .typecheck import CMP_OPS

PIECE = 250  # statements per compile() call, which bounds its peak memory

_REPEATABLE = re.compile(r"\w+$")  # a name or literal, cheap to repeat
_NAME = re.compile(r"\b([A-Za-z_]\w*)")


# ------------------------------------------------ must-be-assigned facts


class Assigned:
    """The must-be-assigned analysis of function `fn`, a forward domain
    of jamin.flow whose facts are the set of values proven not UNDEF on
    every path to a program point: register names and (array, index)
    pairs.  If branches are joined, while loops taken to their fixpoint,
    repeat nodes walked by flow's rule, and a re-declaration resets its
    names.  Its walk notes each read of a scalar local or of a
    register-array element at a literal index that the facts a run reads
    it with do not prove assigned, in any pass over a loop or iteration
    of a repeat node, as facts only shrink to a loop's fixpoint.
    Codegen checks exactly the noted reads, and safety reports the first
    of each scalar local as maybe-uninit (unassigned_reads)."""

    recording = False
    at = None

    def __init__(self, p, fn):
        self.types = fn.envtypes
        self.scalars = {n for n, (_, ty) in self.types.items() if not isinstance(ty, ArrayTy)}
        self.heads: dict = {}
        self.globals = {g.name for g in p.globals}
        self.notes: dict = {}  # id of a read -> the read, in the order met

    def copy(self, f):
        return set(f)

    def refine(self, f, cond, taken):
        return f

    def join(self, key, a, b):
        return a & b

    def forget(self, f, private):
        """The flow hook (see jamin.flow): f without the facts of the
        locals in `private`, an array's by element."""
        return {x for x in f if (x if type(x) is str else x[0]) not in private}

    def observable(self, f, private) -> tuple:
        """The flow hook (see jamin.flow): the facts of the locals not in
        `private` and the number of reads noted."""
        return self.forget(f, private), len(self.notes)

    def note(self, f, e):
        """Note the reads of expression e that the facts f do not prove
        assigned, in the order of flow.reads."""
        k = type(e)
        if k is EVar:
            if e.name in self.scalars and e.name not in f:
                self.notes[id(e)] = e
        elif k is EArr:
            if e.arr_storage != "reg":
                self.note(f, e.index)
            elif (e.name, e.index.value) not in f:  # a literal index (expand)
                self.notes[id(e)] = e
        elif k is EBin:
            self.note(f, e.left)
            self.note(f, e.right)
        elif k is EUn or k is ECast:
            self.note(f, e.arg)
        elif k is EMem:
            self.note(f, e.addr)
        elif k is EIntr or k is ECall:
            for a in e.args:
                self.note(f, a)

    def transfer(self, f, s):
        """The facts after s, updated in f, with the reads of s noted
        where a run makes them: its right-hand side, guard, test or
        returned values before s, a destination's index or address after
        the destinations before it are written, and an initializer after
        its declaration resets its names."""
        k = type(s)
        if k is SDecl:
            for nm in s.names:  # reset, to UNDEF
                self.dest(f, typed_var(nm, s.ty), True)
            if s.init is not None:
                self.note(f, s.init)
                self.dest(f, typed_var(s.names[0], s.ty))
            return f
        if k is SReturn:
            for v in s.values:
                self.note(f, v)
            return f
        if k is not SAssign:
            self.note(f, s.cond)
            return f
        rhs, dests = s.rhs, s.dests
        self.note(f, rhs)
        if s.cond is not None:  # a guarded scalar: maybe not written
            self.note(f, s.cond)
            return f
        if type(rhs) is ECall:
            undef = [False] * len(dests)
        elif type(rhs) is EIntr and len(dests) != 1:
            d = lookup(rhs.name)
            undef = [_maybe_undef(d, i) for i in range(len(dests))]
        elif _is_copy(s):
            dst = dests[0].name
            kept = [(dst, i) for i in range(self.types[dst][1].length)
                    if rhs.name in self.globals or (rhs.name, i) in f]
            self.dest(f, dests[0])
            f.update(kept)
            return f
        else:
            undef = [False]  # no expression's one value is UNDEF
        for lv, u in zip(dests, undef):
            if type(lv) is EArr:
                self.note(f, lv.index)
            elif type(lv) is EMem:
                self.note(f, lv.addr)
            self.dest(f, lv, u)
        return f

    def dest(self, f, lv, undef=False):
        """Destination lv written, with a value that may be UNDEF when
        `undef`."""
        k = type(lv)
        if k is EVar:
            if type(lv.ty) is ArrayTy:
                f.difference_update([(lv.name, i) for i in range(lv.ty.length)])
            elif undef:
                f.discard(lv.name)
            else:
                f.add(lv.name)
        elif k is EArr and type(lv.index) is EInt and lv.arr_storage != "stack":
            f.add((lv.name, lv.index.value))


def unassigned_reads(p, fn) -> dict:
    """{id of a read: the read}: each read of function fn (an EVar or an
    EArr) that the must-be-assigned pass notes (Assigned), in the order
    its walk first meets them."""
    d = Assigned(p, fn)
    flow.forward(fn.body, {q.name for q in fn.params if not isinstance(q.ty, ArrayTy)}, d)
    return d.notes


def _is_copy(s) -> bool:
    """Whether assignment s copies a whole array."""
    lv = s.dests[0]
    return type(lv) is EVar and type(lv.ty) is ArrayTy


# ------------------------------------------------------------ generator


class _FnGen:
    def __init__(self, p, fn, ns):
        self.p, self.fn, self.ns = p, fn, ns
        self.types = fn.envtypes
        self.unassigned = unassigned_reads(p, fn)  # the reads to check (Assigned)
        self.locals = {q.name for q in fn.params} | set(self.types)
        self.sizes: dict = {}  # id of a statement holding blocks -> its size
        self.labels: dict = {}  # in a repeat body: private local -> its name per iteration
        self.out: list = []
        self.indent = "    "
        self.seg = None  # (placeholder index, indentation, locs)
        self.pending: list = []  # constant indices not yet in the trace
        self.tmp = 0
        self.in_piece = False  # whether a piece is being emitted
        self.pieces = 0
        self.after = None  # id of a statement -> the locals live after it (liveness)
        self.live_at_entry = None  # the locals live at the function's entry (liveness)
        self.root: dict = {}  # register-array local -> the root of its class (coalesce)
        self.forms: dict = {}  # (definition, bits, lanes, count) -> its parts (instantiate)

    # -- names, constants, lines

    def v(self, name: str) -> str:
        return "v_" + name

    def const(self, prefix: str, value) -> str:
        consts = self.ns["__consts__"]
        key = (prefix, value)
        name = consts.get(key)
        if name is None:
            name = consts[key] = f"{prefix}{len(consts)}"
            self.ns[name] = value
        return name

    def mask(self, bits: int) -> str:
        return hex((1 << bits) - 1) if bits <= 64 else self.const("MASK", (1 << bits) - 1)

    def lit(self, v: int) -> str:
        if -(1 << 63) <= v < 1 << 64:
            return str(v) if -65536 < v < 65536 else hex(v)
        return self.const("C", v)

    def line(self, text: str):
        self.out.append(self.indent + text)

    def label(self, name: str, suffix: str = "") -> str:
        """The code of the string naming local `name` (with `suffix`) in a
        fault: in a repeat body, an iteration-private local is named as
        the running iteration names it."""
        names = self.labels.get(name)
        if names is None:
            return repr(name + suffix)
        return f"{self.const('N', tuple(n + suffix for n in names))}[_k]"

    def fresh(self) -> str:
        self.tmp += 1
        return f"_{self.tmp}"

    def keep(self, code: str) -> str:
        """Evaluate `code` now, in a statement of its own."""
        if _REPEATABLE.match(code):
            return code
        t = self.fresh()
        self.line(f"{t} = {code}")
        return t

    # -- budget segments and trace events

    def tick(self, loc):
        if self.seg is None:
            self.seg = (len(self.out), self.indent, [])
            self.out.append(None)
        self.seg[2].append(loc)

    def end_segment(self):
        if self.seg is not None:
            at, indent, locs = self.seg
            n = len(locs)
            self.out[at] = (f"{indent}if (B := B - {n}) < 0: "
                            f"_bx(B + {n}, {self.const('L', tuple(locs))})")
            self.seg = None

    def batch(self) -> str:
        """The pending constant events, to be added before the next
        dynamic one."""
        if not self.pending:
            return "()"
        name = self.const("K", tuple(self.pending))
        self.pending.clear()
        return name

    def flush(self):
        if self.pending:
            self.line(f"if T is not None: T += {self.batch()}")

    def close(self):
        self.end_segment()
        self.flush()

    def branch_event(self, cond: str):
        k = self.batch()
        add = "" if k == "()" else f"T += {k}; "
        self.line(f"if T is not None: {add}T.append({cond})")

    # -- reads

    def read_var(self, e: EVar) -> str:
        if e.name not in self.locals or isinstance(self.types[e.name][1], ArrayTy):
            return self.whole(e.name)  # a whole array (a global is one)
        v = self.v(e.name)
        if id(e) not in self.unassigned:
            return v
        return f"({v} if {v} is not U else _uu({self.label(e.name)}, {e.loc!r}))"

    def elements(self, name: str) -> list:
        """The Python locals of register array `name`'s elements: those of
        the root of its class in the element view."""
        root = self.root[name]
        return [f"e_{root}_{i}" for i in range(self.types[name][1].length)]

    def whole(self, name: str) -> str:
        """Array `name` as one value: a fresh list of a register array's
        elements, a global's list or a stack array's StackArray."""
        if name in self.root:
            return f"[{', '.join(self.elements(name))}]"
        return self.v(name) if name in self.locals else "G_" + name

    def py(self, name: str) -> list:
        """The Python locals of local `name`."""
        return self.elements(name) if name in self.root else [self.v(name)]

    def names(self, locals_) -> list:
        """The Python locals of `locals_` (sorted), each once."""
        return list(dict.fromkeys(x for n in sorted(locals_) for x in self.py(n)))

    def expr(self, e) -> str:
        k = type(e)
        if k is EVar:
            return self.read_var(e)
        if k is EInt:
            return self.lit(int_value(e))
        if k is EBin:
            return self.binary(e)
        if k is EArr:
            return self.arr_read(e)
        if k is ECast:
            a = self.expr(e.arg)
            aty = e.arg.ty
            if type(aty) is WordTy and aty.bits <= e.width:
                return a
            return f"({a} & {self.mask(e.width)})"
        if k is EMem:
            return self.mem_load(e)
        if k is EIntr:
            d = lookup(e.name)
            return self.vector(e, d) if d.lanes is not None else f"{self.intrinsic(e)}[0]"
        if k is EUn:
            a = self.expr(e.arg)
            if e.op == "!":
                return f"(not {a})"
            # a word operator: expand folds every compile-time int
            return self.instantiate(words.UNARY[e.op], {"a": a}, e.ty.bits)
        if k is EBool:
            return "True" if e.value else "False"
        raise TypeError(f"not an expression: {e!r}")

    def binary(self, e: EBin) -> str:
        op, loc = e.op, e.loc
        if op in ("/", "%") and not e.lanes and type(e.ty) is WordTy:
            r = self.expr(e.right)  # the divisor is evaluated, and checked, first
            f = self.const("W", words.evaluator(op, e.ty.bits))
            a = self.expr(e.left)
            return f"_dv(T, {self.batch()}, {f}, b=_nz({r}, {loc!r}), a={a})"
        left = self.expr(e.left)
        if e.lanes or type(e.ty) is WordTy:
            return self.word_op(e, left)
        right = self.expr(e.right)
        if op in CMP_OPS:
            return f"({left} {op} {right})"
        if op == "&&":  # both sides always evaluate: no hidden branch
            return f"({left} & {right})"
        return f"({left} | {right})"  # ||

    def word_op(self, e: EBin, left: str) -> str:
        """Word or lane-wise e, not a word / or %, from its operator's
        definition in words, `left` being its left operand's code; the
        right operand is emitted here, after the left.  A literal count is
        in range (expand checks it); a computed count is checked when it
        runs."""
        op, lanes, right = e.op, e.lanes, e.right
        n, w = lanes or (1, e.ty.bits)
        expr = (words.LANES if lanes else words.BINARY)[op]
        if op not in words.SHIFTS:
            return self.instantiate(expr, {"a": left, "b": self.expr(right)}, w, n)
        if type(right) is EInt:
            c = int_value(right)
            return self.instantiate(expr, {"a": left, "b": self.lit(c)}, w, n, c)
        f = self.const("W", words.evaluator(op, w, lanes and n))
        return f"_wbin({f}, {left}, {self.expr(right)}, {e.loc!r})"

    def instantiate(self, expr, operands, bits, n=1, count=None) -> str:
        """A definition from words with its operands' code (name -> code)
        put in, and its other names' values at width `bits` over n lanes
        and for the constant `count`; an operand used more than once is
        evaluated once, at its first use."""
        key = (expr, bits, n, count)
        if key not in self.forms:  # the other names' code, put in once per function
            values = words.constants(bits, n, count)
            self.forms[key] = [x if i % 2 == 0 or x in operands else
                               self.mask(bits) if x == "m" else self.lit(values[x])
                               for i, x in enumerate(_NAME.split(expr))]
        parts = list(self.forms[key])  # the names are the odd items
        temps = {}
        for i in range(1, len(parts), 2):
            x = parts[i]
            code = operands.get(x)
            if code is None:
                continue
            if x in temps:
                parts[i] = temps[x]
            elif parts.count(x) == 1 or _REPEATABLE.match(code):
                parts[i] = code
            else:
                temps[x] = self.fresh()
                parts[i] = f"({temps[x]} := {code})"
        return "".join(parts)

    def arr_read(self, e) -> str:
        storage, name, loc = e.arr_storage, e.name, e.loc
        if storage == "stack":
            return self.stack_load(e, self.v(name), loc)
        i = e.index.value  # a literal, in bounds (expand)
        self.pending.append(i)
        if storage == "global":
            return f"G_{name}[{i}]"
        x = self.elements(name)[i]
        if id(e) not in self.unassigned:
            return x
        return f"({x} if {x} is not U else _uu({self.label(name, f'[{i}]')}, {loc!r}))"

    def intrinsic(self, e: EIntr) -> str:
        """A call returning the list of all of scalar `e`'s outputs.
        DIV, the one instruction without a table, goes through _intr,
        which reports its IsaFault as DivByZero at the intrinsic's
        location and records its division event; no other intrinsic can
        fault or leak, and those are called directly."""
        d = lookup(e.name)
        sem = "S_" + d.name
        if sem not in self.ns:
            self.ns[sem] = d.sem
        args = ", ".join(self.expr(a) for a in e.args)
        if d.table is None:
            return f"_intr(T, {self.batch()}, {sem}, [{args}], {e.loc!r})"
        return f"{sem}([{args}])"

    def vector(self, e: EIntr, d) -> str:
        """`(V if O else L)(operands)`, the value of vector intrinsic e:
        its OpsV and Ops forms called positionally.  A selector or imm8
        that is a literal is bound when the function is translated
        (isa.bind), and only the other operands are passed; otherwise the
        forms are the generic pair S_<name>, P_<name>."""
        last = e.args[-1]
        pair = bind(d, (int_value(last),)) if type(last) is EInt else None
        if pair is None:
            v, o, args = "S_" + d.name, "P_" + d.name, e.args
            if v not in self.ns:
                self.ns[v], self.ns[o] = d.vsem, d.ops
        else:
            k = self.const(f"_{d.name}_", pair)
            v, o, args = "S" + k, "P" + k, e.args[:-1]
            self.ns[v], self.ns[o] = pair
        return f"({v} if O else {o})({', '.join(self.expr(a) for a in args)})"

    def intrinsic_dests(self, s: SAssign):
        """A multi-destination intrinsic statement: only the destinations
        that are not `_` are computed and written, inline from the
        descriptor's table when it has one."""
        e = s.rhs
        d = lookup(e.name)
        keep = [i for i, lv in enumerate(s.dests) if type(lv) is not LIgnore]
        if d.table is None:
            call = self.intrinsic(e)
            self.line(f"_r = {call}" if keep else call)
            values = {i: f"_r[{i}]" for i in keep}
        else:
            args = []
            for a in e.args:
                args.append(self.fresh())
                self.line(f"{args[-1]} = {self.expr(a)}")
            bindings, values = d.table.inline(keep, args, self.fresh)
            for t, code in bindings:
                self.line(f"{t} = {code}")
        for i in keep:
            w = d.dst_widths[i]
            self.write(s.dests[i], values[i], None if w == "flag" else w)

    # -- writes

    def write(self, lv, value: str, bits):
        """Store `value` (an int of at most `bits` bits when `bits` is
        known) into `lv`."""
        k = type(lv)
        if k is EVar:
            ty = lv.ty
            if lv.name in self.root:
                self.line(f"{_targets(self.elements(lv.name))} = {value}")
                return
            if type(ty) is ArrayTy:
                value = f"{value}.copy()"
            elif type(ty) is WordTy and (bits is None or bits > ty.bits):
                value = f"{value} & {self.mask(ty.bits)}"
            self.line(f"{self.v(lv.name)} = {value}")
        elif k is EArr:
            self.write_element(lv, value, bits)
        elif k is EMem:
            self.mem_store(lv, value, bits)
        elif k is LIgnore:
            if not _REPEATABLE.match(value):
                self.line(value)
        else:
            raise TypeError(f"not a destination: {lv!r}")

    def write_element(self, lv, value: str, bits):
        storage, name, ty = lv.arr_storage, lv.name, lv.arr_ty
        if storage == "stack":
            self.stack_store(lv, self.v(name), value, bits)
            return
        i = lv.index.value  # a literal, in bounds (expand)
        if bits is None or bits > ty.bits:
            value = f"{value} & {self.mask(ty.bits)}"
        self.line(f"{self.elements(name)[i]} = {value}")
        self.pending.append(i)

    # -- memory and stack-array accesses: the hit path inline, a miss
    #    through the helper of interp (see the module docstring)

    def traced(self, i: str, k: str) -> str:
        """A true operand that adds the batch k and then i, an index or an
        address, to the trace."""
        extend = "" if k == "()" else f"T.extend({k}) or "
        return f"(T is None or {extend}T.append({i}) or 1)"

    def masked(self, value: str, bits, nb: int) -> str:
        """`value`, of at most `bits` bits when `bits` is known, cut to an
        nb-byte access."""
        return value if bits is not None and bits <= 8 * nb else f"{value} & {self.mask(8 * nb)}"

    def bound(self, code: str) -> tuple:
        """(name, first): `code` evaluated once, as `first` where it is
        first used and as `name` after that."""
        if _REPEATABLE.match(code):
            return code, code
        t = self.fresh()
        return t, f"({t} := {code})"

    def mem_hit(self, code: str, nb: int) -> tuple:
        """(a, x, o, the test): the test binds a to the address `code`
        and, when the nb bytes at a lie in the region the line index
        names, x to that region and o to a's offset in it."""
        a, first = self.bound(code)
        x, o = self.fresh(), self.fresh()
        end = f"{a} < {x}[1]" if nb == 1 else f"{a} + {nb} <= {x}[1]"
        return a, x, o, (f"({x} := M._lines.get({first} >> {LINE})) is not None"
                         f" and ({o} := {a} - ({x} := M._regions[{x}])[0]) >= 0 and {end}")

    def mem_load(self, e) -> str:
        nb, loc = span(e)[0], e.loc
        code = self.expr(e.addr)
        k = self.batch()
        if nb > 8:
            return f"_ld(M, T, {k}, {code}, {nb}, {loc!r})"
        a, x, o, hit = self.mem_hit(code, nb)
        get, written = _span_access(f"{x}[2]", f"{x}[3]", o, nb)
        return (f"({get} if {hit} and ({x}[3] is None or {written}) and {self.traced(a, k)}"
                f" else _ld(M, T, {k}, {a}, {nb}, {loc!r}))")

    def mem_store(self, lv, value: str, bits):
        nb, loc = span(lv)[0], lv.loc
        if nb <= 8:
            value = self.masked(value, bits, nb)
        value = self.keep(value)  # the value is evaluated before the address
        code = self.expr(lv.addr)
        k = self.batch()
        if nb > 8:
            self.line(f"_st(M, T, {k}, {value}, {code}, {nb}, {loc!r})")
            return
        a, x, o, hit = self.mem_hit(code, nb)
        store, mark = _span_put(f"{x}[2]", f"{x}[3]", o, nb, value)
        self.line(f"if {hit} and {self.traced(a, k)}:")
        self.line(f"    {store}")
        self.line(f"    if {x}[3] is not None: {mark}")
        self.line(f"else: _st(M, T, {k}, {value}, {a}, {nb}, {loc!r})")

    def stack_load(self, e, s: str, loc) -> str:
        """Element e of stack array s (its name); the helper alone reads
        a 16- or 32-byte span."""
        label = self.label(e.name)
        nb, scale, last = span(e)
        inline = nb <= 8
        if type(e.index) is EInt:
            i = e.index.value
            self.pending.append(i)
            miss = f"_sld(None, (), {s}, {i}, {nb}, {scale}, {last}, {label}, {loc!r})"
            if not inline:
                return miss
            get, written = _span_access(f"{s}.buf", f"{s}.init", str(i * scale), nb)
            return f"({get} if {written} else {miss})"
        code = self.expr(e.index)
        k = self.batch()
        if not inline:
            return f"_sld(T, {k}, {s}, {code}, {nb}, {scale}, {last}, {label}, {loc!r})"
        i, first = self.bound(code)
        off = i if scale == 1 else self.fresh()  # bound at its first use, `at`
        at = None if scale == 1 else f"({off} := {i} * {scale})"
        get, written = _span_access(f"{s}.buf", f"{s}.init", off, nb, at)
        return (f"({get} if {first} <= {last} and {written}"
                f" and {self.traced(i, k)}"
                f" else _sld(T, {k}, {s}, {i}, {nb}, {scale}, {last}, {label}, {loc!r}))")

    def stack_store(self, lv, s: str, value: str, bits):
        """Store `value` to element lv of stack array s, as stack_load
        reads one."""
        loc, label = lv.loc, self.label(lv.name)
        nb, scale, last = span(lv)
        inline = nb <= 8
        if inline:
            value = self.masked(value, bits, nb)
        if type(lv.index) is EInt:
            i = lv.index.value
            self.pending.append(i)
            if inline:
                self.line("; ".join(_span_put(f"{s}.buf", f"{s}.init", str(i * scale), nb, value)))
            else:
                self.line(f"_sst(None, (), {s}, {value}, {i}, {nb}, {scale}, {last}, {label}, {loc!r})")
            return
        value = self.keep(value)  # the value is evaluated before the index
        code = self.expr(lv.index)
        k = self.batch()
        if not inline:
            self.line(f"_sst(T, {k}, {s}, {value}, {code}, {nb}, {scale}, {last}, {label}, {loc!r})")
            return
        i, first = self.bound(code)
        off = i if scale == 1 else self.fresh()  # bound at its first use, `at`
        at = None if scale == 1 else f"({off} := {i} * {scale})"
        put = "; ".join(_span_put(f"{s}.buf", f"{s}.init", off, nb, value, at))
        self.line(f"if {first} <= {last} and {self.traced(i, k)}:")
        self.line(f"    {put}")
        self.line(f"else: _sst(T, {k}, {s}, {value}, {i}, {nb}, {scale}, {last}, {label}, {loc!r})")

    # -- liveness (backwards), for the element view, moves, pieces and
    #    declarations

    def live(self, live: set, s) -> set:
        """The names live before s (or before its test), from those live
        after it.  A guarded assignment neither kills its destination (an
        untaken guard keeps the old value) nor reads it: the old value is
        needed only where a later read finds it, live after s."""
        k = type(s)
        if k is SIf or k is SWhile:
            return live.union(flow.reads(s.cond))
        if k is SAssign and s.cond is not None:
            return live.union(flow.reads(s.rhs), flow.reads(s.cond))
        r, w = flow.summary(s)
        if k is SReturn:
            return set(r)
        return live.difference(w).union(r)

    def live_after(self, s) -> set:
        """The names live after s."""
        return self.liveness()[1][id(s)]

    def liveness(self) -> tuple:
        """(the names live at the function's entry, {id of a statement:
        the names live after it}), from one flow.backward pass at the
        first need."""
        if self.after is None:
            self.after = {}
            self.live_at_entry = flow.backward(self.fn.body, set(), self.live, self.after)
        return self.live_at_entry, self.after

    def is_move(self, s) -> bool:
        """Whether the stack-array copy s may hand its source over: a local
        dead after s (typecheck copies a stack array from one only)."""
        return s.rhs.name not in self.live_after(s)

    def coalesce(self, regs: set) -> dict:
        """The element view of the function over its register-array
        locals `regs`: each one -> the root of its class, whose elements
        all its locals share.  Each definition of one (its parameter at
        entry, a declaration that stores, a whole or element write)
        interferes with every other one live after it; the copies
        `x = y` are then taken in order, and each merges the classes of
        x and y when no local of one interferes with a local of the
        other (Chaitin's rule, with George and Appel's merged classes).
        So a copy whose source is live after it never merges."""
        edges = {x: set() for x in regs}  # per class: the locals live at a definition in it
        entry = self.liveness()[0]
        for q in self.fn.params:
            if q.name in regs and q.name in entry:
                edges[q.name] |= regs.intersection(entry)
        copies = []
        for s in walk(self.fn.body):
            k = type(s)
            if k is SDecl:
                live = self.live_after(s)
                for nm in regs.intersection(s.names, live):
                    edges[nm] |= regs.intersection(live)
            elif k is SAssign:
                for lv in s.dests:
                    if type(lv) in (EVar, EArr) and lv.name in regs:
                        edges[lv.name] |= regs.intersection(self.live_after(s))
                if _is_copy(s) and s.rhs.name in regs:
                    copies.append((s.dests[0].name, s.rhs.name))
        root = {x: x for x in regs}
        members = {x: {x} for x in regs}
        for x, y in copies:
            a, b = root[x], root[y]
            if a != b and not (edges[a] & members[b] or edges[b] & members[a]):
                for z in members[a]:
                    root[z] = b
                members[b] |= members.pop(a)
                edges[b] |= edges.pop(a)
        return root

    # -- statements

    def size(self, s) -> int:
        bs = blocks(s)
        if not bs:
            return 1
        n = self.sizes.get(id(s))
        if n is None:
            n = self.sizes[id(s)] = 1 + sum(self.size(c) for b in bs for c in b)
        return n

    def block(self, stmts, loop_loc=False):
        """Emit a block; `loop_loc` (a while loop's location) adds the
        loop's per-iteration step at its end."""
        if not self.in_piece and sum(map(self.size, stmts)) > PIECE:
            self.pieced_block(stmts)
        else:
            self.stmts(stmts)
        if loop_loc is not False:
            self.tick(loop_loc)
        self.close()

    def stmts(self, stmts):
        for s in stmts:
            self.stmt(s)

    def pieced_block(self, stmts):
        run: list = []
        size = 0
        for s in stmts:
            n = self.size(s)
            if n > PIECE or type(s) is SReturn:  # a return in a piece would end only the piece
                self.piece(run)
                run, size = [], 0
                self.stmt(s)
                continue
            if size + n > PIECE:
                self.piece(run)
                run, size = [], 0
            run.append(s)
            size += n
        self.piece(run)

    def piece(self, run):
        """Emit `run` as a separately compiled function and call it."""
        if not run:
            return
        self.close()
        mentioned, rebinds = set(), set()
        for s in run:
            r, w = flow.summary(s)
            mentioned.update(r, w)
            rebinds.update(w)
            rebinds.update(lv.name for c in walk([s]) if type(c) is SAssign
                           for lv in c.dests if type(lv) is EArr and lv.name in self.root)
        after = self.live_after(run[-1])
        live_in = flow.backward(run, after, self.live)
        live_in = self.names(self.locals.intersection(mentioned, live_in))
        live_out = self.names(self.locals.intersection(rebinds, after))
        parent = (self.out, self.indent, self.tmp)
        self.out, self.indent, self.in_piece = [], "    ", True
        self.stmts(run)
        self.close()
        body = self.out
        self.out, self.indent, self.tmp = parent
        self.in_piece = False
        self.pieces += 1
        name = f"Q_{self.fn.name}_{self.pieces}"
        k = ["_k"] if self.labels else []  # a piece of a repeat body (label)
        params = ", ".join(live_in + k + ["B, T, M, O"])
        outs = "".join(f", {n}" for n in live_out)
        self.define(name, [f"def {name}({params}):"] + body + [f"    return B{outs}"])
        self.line(f"B{outs} = {name}({params})")

    def stmt(self, s):
        self.tmp = 0
        k = type(s)
        loc = s.loc
        if k is SAssign:
            if type(s.rhs) is ECall:
                self.call(s)
            else:
                self.tick(loc)
                self.assign(s)
        elif k is SDecl:
            self.tick(loc)
            self.decl(s)
        elif k is SIf:
            self.tick(loc)
            self.end_segment()
            self.line(f"_c = {self.expr(s.cond)}")
            self.branch_event("_c")
            self.arms(s, "if _c:")
        elif k is SRepeat:
            self.emit_roll(s)
        elif k is SWhile:
            self.tick(loc)
            self.close()
            self.line("while True:")
            self.indent += "    "
            self.line(f"_c = {self.expr(s.cond)}")
            self.branch_event("_c")
            self.line("if not _c: break")
            self.block(s.body, loop_loc=loc)
            self.indent = self.indent[:-4]
        elif k is SReturn:
            self.tick(loc)
            vals = [self.expr(v) for v in s.values]
            self.end_segment()
            if self.pending:
                self.line(f"_r = ({''.join(v + ', ' for v in vals)})")
                self.flush()
                self.line("return (B, *_r)")
            else:
                self.line("return B" + "".join(", " + v for v in vals))
        else:
            raise TypeError(f"not a statement: {s!r}")

    def arms(self, s, head):
        """`head`, the `if` or `elif` line of if s, whose test has run, and
        s's blocks.  An else block that is exactly one if is an `elif` arm
        of the same chain, so an else-if chain nests no deeper than its
        first if: the arm's test is one expression that charges the arm's
        step, evaluates the test and records its branch event, in the
        order the statements of a nested if do."""
        self.line(head)
        self.nested(s.then)
        if len(s.els) == 1 and type(s.els[0]) is SIf:
            arm = s.els[0]
            self.tmp = 0
            step = f"(B := B - 1) < 0 and _bx(B + 1, {self.const('L', (arm.loc,))})"
            test = self.expr(arm.cond)
            self.arms(arm, f"elif {step} or _ev(T, {self.batch()}, {test}):")
        elif s.els:
            self.line("else:")
            self.nested(s.els)

    def emit_roll(self, s):
        """Repeat node s: its body once, run s.count times by a Python loop
        over _k.  It costs no step of its own; a check naming one of
        s.names, the iteration-private locals, names the running
        iteration's (label)."""
        self.close()
        self.line(f"for _k in range({s.count}):")
        self.indent += "    "
        self.labels = s.names
        self.block(s.body)
        self.labels = {}
        self.indent = self.indent[:-4]

    def nested(self, stmts):
        self.indent += "    "
        mark = len(self.out)
        self.block(stmts)
        if len(self.out) == mark:
            self.line("pass")
        self.indent = self.indent[:-4]

    def decl(self, s: SDecl):
        """Declaration s: each of its names that is live after it is set
        to UNDEF (a fresh array), which a later read may find; a dead one
        is written before any read on every path, so it stores nothing.
        The initializer's write follows at once: its name stores only when
        the initializer reads it."""
        ty = s.ty
        new = f"SA({ty.bits}, {ty.length})" if s.storage == "stack" else "U"
        live = self.live_after(s)
        for i, nm in enumerate(s.names):
            if nm in (live if i or s.init is None else flow.reads(s.init)):
                self.line(" = ".join(self.py(nm) + [new]))
        if s.init is not None:
            self.write(typed_var(s.names[0], ty), self.expr(s.init), _bits(s.init))

    def assign(self, s: SAssign):
        rhs = s.rhs
        if type(rhs) is EIntr and len(s.dests) != 1:
            self.intrinsic_dests(s)
            return
        if s.cond is not None:
            value = self.keep(self.expr(rhs))  # evaluated whatever the guard
            cond = self.expr(s.cond)
            lv = s.dests[0]
            self.line(f"if {cond}: {self.v(lv.name)} = {value}")
            return
        lv = s.dests[0]
        if _is_copy(s):
            if lv.name not in self.root:  # a stack array, from a stack array
                src = self.v(rhs.name)
                self.line(f"{self.v(lv.name)} = {src if self.is_move(s) else src + '.copy()'}")
            elif self.root.get(rhs.name) != self.root[lv.name]:  # one parallel assignment
                src = (_targets(self.elements(rhs.name)) if rhs.name in self.root
                       else "G_" + rhs.name)
                self.line(f"{_targets(self.elements(lv.name))} = {src}")
            return
        self.write(lv, self.expr(rhs), _bits(rhs))

    def call(self, s: SAssign):
        loc = s.loc
        self.tick(loc)
        callee = self.p.func(s.rhs.name)
        args = []
        for a in s.rhs.args:
            code = self.expr(a)
            if isinstance(a.ty, ArrayTy) and a.name in self.locals and a.name not in self.root:
                code += ".copy()"  # a stack array
            args.append(code)
        self.end_segment()
        if self.pending:
            self.line(f"_a = ({''.join(a + ', ' for a in args)})")
            self.flush()
            args = ["*_a"]
        self.line(f"_r = F_{callee.name}({''.join(a + ', ' for a in args)}B, T, M, O)")
        self.line("B = _r[0]")
        for i in range(len(s.dests)):
            self.write(s.dests[i], f"_r[{i + 1}]", None)

    # -- the function

    def define(self, name: str, lines: list):
        source = "\n".join(lines) + "\n"
        exec(compile(source, f"<jamin {name}>", "exec"), self.ns)

    def build(self):
        fn = self.fn
        regs = {n for n, (storage, ty) in self.types.items()
                if storage == "reg" and type(ty) is ArrayTy}
        self.root = self.coalesce(regs) if regs else {}
        self.block(fn.body)
        if not fn.body or type(fn.body[-1]) is not SReturn:
            self.line("return (B,)")
        self.out[:0] = [f"    {_targets(self.elements(q.name))} = {self.v(q.name)}"
                        for q in fn.params if q.name in self.root and q.name in self.live_at_entry]
        params = ", ".join([self.v(q.name) for q in fn.params] + ["B, T, M, O"])
        name = "F_" + fn.name
        self.define(name, [f"def {name}({params}):"] + self.out)
        return self.ns[name]


def _targets(names: list) -> str:
    """The names as the targets of one assignment of a sequence."""
    return ", ".join(names) + ("," if len(names) == 1 else "")


def _ones(nb: int) -> str:
    """The word an nb-byte span of an init map holds when every byte of
    it is written."""
    return hex(int.from_bytes(b"\x01" * nb, "little"))


def _span_access(buf: str, init: str, off: str, nb: int, first=None) -> tuple:
    """(the value, the test that its bytes are written) of the nb bytes
    at offset off of byte buffer `buf`, whose init map is `init` (the
    code of each: a stack array's or a memory region's); the test, which
    runs first, writes the offset as `first` when given (an assignment
    expression)."""
    first = first or off
    if nb == 1:
        return f"{buf}[{off}]", f"{init}[{first}]"
    return f"LD{nb}({buf}, {off})[0]", f"LD{nb}({init}, {first})[0] == {_ones(nb)}"


def _span_put(buf: str, init: str, off: str, nb: int, value: str, first=None) -> tuple:
    """(the statement storing `value` to the nb bytes at offset off of
    `buf`, the one marking them written in `init`), as _span_access reads
    them; the offset is written as `first` at its first use, when given."""
    first = first or off
    if nb == 1:
        return f"{buf}[{first}] = {value}", f"{init}[{off}] = 1"
    return f"ST{nb}({buf}, {first}, {value})", f"ST{nb}({init}, {off}, {_ones(nb)})"


def _bits(e) -> int | None:
    """The width of the value of expression e, None for a bool."""
    return e.ty.bits if type(e.ty) is WordTy else None


def _maybe_undef(d, i: int) -> bool:
    """Whether destination i of instruction d is a flag its table does
    not prove never UNDEF."""
    return d.dst_widths[i] == "flag" and (d.table is None or i not in d.table.never_undef)


def typed_var(name: str, ty) -> EVar:
    """Variable `name` of type `ty`, as a declaration writes it."""
    lv = EVar(name)
    lv.ty = ty
    return lv


def compile_function(p, fn, ns):
    """The Python function running `fn` (see the module docstring),
    defined as F_<name> in `ns`, the namespace of `p`'s generated code."""
    return _FnGen(p, fn, ns).build()
