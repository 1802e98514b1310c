"""Lexer and parser for the DSL (`.jz` files).

The grammar follows the conventions of the language reference in
docs/lang.md: `;`-terminated statements, braced blocks, `#`-prefixed
intrinsics, vector lane annotations (`4u64`) on operators, and
immediate-vector literals `(4u2)[a, b, c, d]`.
"""

from __future__ import annotations

import re

from . import ir, isa
from .ir import (
    BOOL,
    INT,
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
    EVecImm,
    FuncDecl,
    GlobalDecl,
    LIgnore,
    ParamDecl,
    Program,
    SAssign,
    SDecl,
    SFor,
    SIf,
    SReturn,
    SWhile,
    VarDecl,
    word_ty,
)
from .words import WIDTHS

KEYWORDS = {
    "fn",
    "inline",
    "return",
    "if",
    "else",
    "while",
    "for",
    "to",
    "param",
    "global",
    "reg",
    "stack",
    "true",
    "false",
}

WIDTH_NAMES = {f"u{w}": w for w in WIDTHS}

# How deep a program may nest (docs/lang.md): past any of these limits, the
# later passes, which recurse over the tree (an `else if` arm is an if in
# the else block of the one before it), or the Python compiler of the
# generated code (20 nested loop blocks, 200 nested parentheses) would fail.
MAX_EXPR_DEPTH = 32  # levels of an expression tree, a parenthesis counting as one
MAX_NESTING = 20  # blocks inside a function body; an `else if` arm opens none
MAX_ARMS = 128  # `else if` arms around a statement, of its chain and those around it


class ParseError(SyntaxError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# The token patterns, tried in this order at each position: the first
# that matches is the token.  "OPEN_COMMENT" is a `/*` that no `*/`
# closes and "CHAR" any other character; both are errors.
_TOKENS = [
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"//[^\n]*|(?s:/\*.*?\*/)"),
    ("OPEN_COMMENT", r"/\*"),
    ("ARROW", r"->"),
    ("DOTLBRACK", r"\.\["),
    ("LANES", r"\d+u\d+"),
    ("INT", r"0x[0-9a-fA-F_]+|0b[01_]+|\d+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("OP", r"(?P<op><<r|<<|>>s|>>r|>>|\+|-|\*|/|%|&&|\|\||&|\||\^)"
           r"(?P<lanes>\d+u\d+)?(?P<assign>=(?!=))?"),
    ("CMP", r"==|!=|<=|>=|<|>"),
    ("EQUALS", r"="),
    ("BANG", r"!"),
    ("TILDE", r"~"),
    ("PUNCT", r"[()\[\]{},;#_]"),
    ("CHAR", r"(?s:.)"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{rx})" for kind, rx in _TOKENS))


class Token:
    __slots__ = ("kind", "text", "line", "col", "op", "lanes", "assign")

    def __init__(self, kind, text, line, col, op=None, lanes=None, assign=False):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.op = op
        self.lanes = lanes
        self.assign = assign


def _parse_lanes(text: str) -> tuple[int, int]:
    n, m = text.split("u")
    return int(n), int(m)


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, from one scan with _TOKEN_RE, then EOF."""
    toks = []
    line, start = 1, 0  # the current line and the offset where it starts
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        col = m.start() - start + 1
        if kind == "WS" or kind == "COMMENT":
            nl = lexeme.count("\n")
            if nl:
                line += nl
                start = m.start() + lexeme.rfind("\n") + 1
        elif kind == "OP":
            lanes = m.group("lanes")
            toks.append(Token("OP", lexeme, line, col, op=m.group("op"),
                              lanes=_parse_lanes(lanes) if lanes else None,
                              assign=m.group("assign") is not None))
        elif kind == "CMP":
            toks.append(Token("OP", lexeme, line, col, op=lexeme))
        elif kind == "OPEN_COMMENT":
            raise ParseError("unterminated comment", line, col)
        elif kind == "CHAR":
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
        else:
            toks.append(Token(kind, lexeme, line, col))
    toks.append(Token("EOF", "", line, len(text) - start + 1))
    return toks


LOOKAHEAD = 2  # the farthest token past the current one that peek reads


class Parser:
    def __init__(self, text: str):
        # EOF repeated, so that peek needs no bound check: a token is
        # consumed only once peek has shown it is not EOF, so pos never
        # passes the first EOF
        self.toks = tokenize(text)
        self.toks += self.toks[-1:] * LOOKAHEAD
        self.pos = 0
        self.level = 0  # the depth of the expression being parsed
        self.blocks = -1  # the blocks open inside a function body
        self.arms = 0  # the `else if` arms open around the statement being parsed

    # ------------------------------------------------- token plumbing

    def peek(self, ahead=0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            self.error(f"expected {want!r}, found {t.text!r}")
        return self.next()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    def at_ident(self, *names: str) -> bool:
        t = self.peek()
        return t.kind == "IDENT" and t.text in names

    def deeper(self, tok):
        """One more level in the expression being parsed, starting at `tok`."""
        self.level += 1
        if self.level > MAX_EXPR_DEPTH:
            self.error(f"expression nested more than {MAX_EXPR_DEPTH} deep", tok)

    def open_block(self, tok):
        """One more block open in the function being parsed, starting at `tok`."""
        self.blocks += 1
        if self.blocks > MAX_NESTING:
            self.error(f"blocks nested more than {MAX_NESTING} deep", tok)

    def _loc(self, node, tok):
        node.loc = (tok.line, tok.col)
        return node

    # ------------------------------------------------------ programs

    def parse_program(self) -> Program:
        params, globs, funcs = [], [], []
        seen = set()
        while self.peek().kind != "EOF":
            t = self.peek()
            if self.at_ident("param"):
                params.append(self.parse_param())
                name = params[-1].name
            elif self.at_ident("global"):
                globs.append(self.parse_global())
                name = globs[-1].name
            elif self.at_ident("fn", "inline"):
                funcs.append(self.parse_func())
                name = funcs[-1].name
            else:
                self.error(f"expected declaration, found {t.text!r}")
            if name in seen:
                self.error(f"duplicate name {name!r}", t)
            seen.add(name)
        return Program(tuple(params), tuple(globs), tuple(funcs))

    def parse_param(self) -> ParamDecl:
        tok = self.expect("IDENT", "param")
        self.expect("IDENT", "int")
        name = self.expect("IDENT").text
        self.expect("EQUALS")
        value = self.parse_expr()
        self.expect("PUNCT", ";")
        return self._loc(ParamDecl(name, value), tok)

    def parse_global(self) -> GlobalDecl:
        tok = self.expect("IDENT", "global")
        ty = self.parse_type()
        name = self.expect("IDENT").text
        self.expect("EQUALS")
        if self.accept("PUNCT", "{"):
            init: object = self.parse_list(self.parse_expr, "}")
        else:
            init = self.parse_expr()
        self.expect("PUNCT", ";")
        return self._loc(GlobalDecl(name, ty, init), tok)

    def parse_func(self) -> FuncDecl:
        tok = self.peek()
        inline = bool(self.accept("IDENT", "inline"))
        self.expect("IDENT", "fn")
        name = self.expect("IDENT").text
        self.expect("PUNCT", "(")
        params = self.parse_list(self.parse_vardecl, ")", empty=True)
        rets = ()
        if self.accept("ARROW"):
            rets = self.parse_list(lambda: (self.parse_storage(), self.parse_type()))
        body = self.parse_block()
        f = self._loc(FuncDecl(name, inline, params, rets, body), tok)
        self._check_local_dups(f)
        return f

    def _check_local_dups(self, f: FuncDecl):
        seen = {p.name for p in f.params}
        if len(seen) != len(f.params):
            raise ParseError(f"duplicate parameter name in {f.name!r}", *f.loc)
        for s in ir.walk(f.body):
            if type(s) is SDecl:
                for nm in s.names:
                    if nm in seen:
                        raise ParseError(f"duplicate name {nm!r} in {f.name!r}", *s.loc)
                    seen.add(nm)

    def parse_storage(self) -> str:
        t = self.peek()
        if t.kind == "IDENT" and t.text in ir.STORAGE_CLASSES:
            return self.next().text
        self.error(f"expected storage class, found {t.text!r}")

    def parse_vardecl(self) -> VarDecl:
        storage = self.parse_storage()
        ty = self.parse_type()
        name = self.expect("IDENT").text
        return VarDecl(storage, ty, name)

    def parse_type(self):
        t = self.expect("IDENT")
        if t.text == "bool":
            return BOOL
        if t.text == "int":
            return INT
        if t.text in WIDTH_NAMES:
            bits = WIDTH_NAMES[t.text]
            if self.accept("PUNCT", "["):
                length = self.parse_expr()
                self.expect("PUNCT", "]")
                return ArrayTy(bits, length)
            return word_ty(bits)
        self.error(f"unknown type {t.text!r}", t)

    # ---------------------------------------------------- statements

    def parse_block(self) -> tuple:
        self.open_block(self.expect("PUNCT", "{"))
        stmts = []
        while not self.accept("PUNCT", "}"):
            stmts.append(self.parse_stmt())
        self.blocks -= 1
        return tuple(stmts)

    def parse_stmt(self):
        t = self.peek()
        if t.kind == "IDENT" and t.text in ir.STORAGE_CLASSES:
            return self.parse_decl_stmt()
        if self.at_ident("if"):
            return self.parse_if()
        if self.at_ident("while"):
            self.next()
            self.expect("PUNCT", "(")
            cond = self.parse_expr()
            self.expect("PUNCT", ")")
            return self._loc(SWhile(cond, self.parse_block()), t)
        if self.at_ident("for"):
            self.next()
            var = self.expect("IDENT").text
            self.expect("EQUALS")
            lo = self.parse_expr()
            self.expect("IDENT", "to")
            hi = self.parse_expr()
            return self._loc(SFor(var, lo, hi, self.parse_block()), t)
        if self.at_ident("return"):
            self.next()
            return self._loc(SReturn(self.parse_list(self.parse_expr, ";", empty=True)), t)
        return self.parse_assign_or_call()

    def parse_decl_stmt(self):
        tok = self.peek()
        storage = self.parse_storage()
        ty = self.parse_type()
        names = self.parse_list(lambda: self.expect("IDENT").text)
        init = None
        if self.accept("EQUALS"):
            if len(names) != 1:
                self.error("an initializer requires a single declared name", tok)
            init = self.parse_expr()
        self.expect("PUNCT", ";")
        return self._loc(SDecl(storage, ty, names, init), tok)

    def parse_if(self):
        tok = self.expect("IDENT", "if")
        self.expect("PUNCT", "(")
        cond = self.parse_expr()
        self.expect("PUNCT", ")")
        then = self.parse_block()
        els: tuple = ()
        if self.accept("IDENT", "else"):
            if self.at_ident("if"):  # an arm of the same chain, at the same level
                self.arms += 1
                if self.arms > MAX_ARMS:
                    self.error(f"else-if arms nested more than {MAX_ARMS} deep", self.peek())
                els = (self.parse_if(),)
                self.arms -= 1
            else:
                els = self.parse_block()
        return self._loc(SIf(cond, then, els), tok)

    def parse_assign_or_call(self):
        tok = self.peek()
        # bare call statement: f(...);
        if (
            tok.kind == "IDENT"
            and tok.text not in KEYWORDS
            and self.peek(1).kind == "PUNCT"
            and self.peek(1).text == "("
        ):
            name = self.next().text
            args = self.parse_call_args()
            self.expect("PUNCT", ";")
            return self._loc(SAssign((), ECall(name, args)), tok)

        start = self.pos
        dests = self.parse_list(self.parse_dest)
        op = self.peek()
        if op.kind == "OP" and op.assign:
            self.next()
        else:
            op = self.expect("EQUALS")
        rhs = self.parse_expr()
        cond = None
        if self.accept("IDENT", "if"):
            cond = self.parse_expr()
        self.expect("PUNCT", ";")
        if op.kind == "OP":  # d op= e [if c] is d = d op e [if c]
            if type(rhs) is ECall:
                self.error("calls cannot use compound assignment", tok)
            if type(rhs) is EIntr:
                self.error("compound assignment cannot receive an intrinsic", tok)
            if len(dests) != 1:
                self.error("multi-destination assignment requires an intrinsic or call", tok)
            if type(dests[0]) not in (EVar, EArr):
                self.error("compound assignment needs a register or an array element "
                           "as destination", tok)
            end, self.pos = self.pos, start
            read = self.parse_dest()  # a fresh node for d, at d's location
            self.pos = end
            rhs = self._loc(EBin(op.op, read, rhs, op.lanes), tok)
        return self._loc(SAssign(dests, rhs, cond), tok)

    def parse_dest(self):
        """`_`, or the variable, element or memory access a destination
        writes, parsed as the expression that reads it; a parenthesized
        access is not one."""
        t = self.peek()
        if self.accept("IDENT", "_"):
            return LIgnore()
        d = None
        if t.text in ("(", "[") or (t.kind == "IDENT" and t.text not in KEYWORDS):
            d = self.parse_primary()
        if type(d) not in (EVar, EArr, EMem) or d.loc != (t.line, t.col):
            self.error(f"expected assignment destination, found {t.text!r}", t)
        return d

    def parse_call_args(self) -> tuple:
        self.expect("PUNCT", "(")
        return self.parse_list(self.parse_expr, ")", empty=True)

    def parse_list(self, item, close=None, empty=False) -> tuple:
        """`item (, item)*`, each parsed by `item`, then the punctuation
        `close` when given; an `empty` list may be `close` alone."""
        if empty and self.accept("PUNCT", close):
            return ()
        items = [item()]
        while self.accept("PUNCT", ","):
            items.append(item())
        if close:
            self.expect("PUNCT", close)
        return tuple(items)

    # --------------------------------------------------- expressions

    def parse_expr(self, min_prec: int = 1):
        level = self.level
        lhs = self.parse_unary()
        while True:
            t = self.peek()
            if t.kind != "OP" or t.assign or ir._PREC.get(t.op, 0) < min_prec:
                self.level = level
                return lhs
            self.next()
            self.deeper(t)  # the operands so far are one level deeper
            rhs = self.parse_expr(ir._PREC[t.op] + 1)
            lhs = self._loc(EBin(t.op, lhs, rhs, t.lanes), t)

    def parse_unary(self):
        self.deeper(self.peek())
        e = self.parse_operand()
        self.level -= 1
        return e

    def parse_operand(self):
        t = self.peek()
        if t.kind == "BANG":
            self.next()
            return self._loc(EUn("!", self.parse_unary()), t)
        if t.kind == "TILDE":
            self.next()
            return self._loc(EUn("~", self.parse_unary()), t)
        if t.kind == "OP" and t.op == "-" and not t.assign and t.lanes is None:
            self.next()
            return self._loc(EUn("-", self.parse_unary()), t)
        return self.parse_primary()

    def parse_primary(self):
        t = self.peek()
        if t.kind == "INT":
            self.next()
            try:
                value = int(t.text.replace("_", ""), 0)
            except ValueError:  # 010, 0x_, 0b_: the token pattern is looser
                self.error(f"invalid integer literal {t.text!r}", t)
            return self._loc(EInt(value), t)
        if t.kind == "IDENT" and t.text in ("true", "false"):
            self.next()
            return self._loc(EBool(t.text == "true"), t)
        if t.kind == "PUNCT" and t.text == "#":
            self.next()
            name = self.expect("IDENT").text
            try:
                isa.lookup(name)
            except isa.UnknownInstruction:
                self.error(f"unknown intrinsic #{name}", t)
            args = self.parse_call_args()
            return self._loc(EIntr(name, args), t)
        if t.kind == "PUNCT" and t.text == "(":
            nxt = self.peek(1)
            if nxt.kind == "LANES" and self.peek(2).text == ")":
                self.next(), self.next(), self.next()
                n, m = _parse_lanes(nxt.text)
                self.expect("PUNCT", "[")
                return self._loc(EVecImm(n, m, self.parse_list(self.parse_expr, "]")), t)
            if (
                nxt.kind == "IDENT"
                and nxt.text in WIDTH_NAMES
                and self.peek(2).text == ")"
            ):
                self.next(), self.next(), self.next()
                width = WIDTH_NAMES[nxt.text]
                return self.parse_access(t, width) or self._loc(ECast(width, self.parse_unary()), t)
            self.next()
            e = self.parse_expr()
            self.expect("PUNCT", ")")
            return e
        access = self.parse_access(t)
        if access:
            return access
        if t.kind == "IDENT" and t.text not in KEYWORDS:
            self.next()
            if self.peek().kind == "PUNCT" and self.peek().text == "(":
                return self._loc(ECall(t.text, self.parse_call_args()), t)
            return self._loc(EVar(t.text), t)
        self.error(f"expected expression, found {t.text!r}")

    def parse_access(self, t, width=None):
        """The access that starts at the current token, `[a]`, `x[i]` or
        `x.[i]`, as a `width`-bit view when given (after `(uW)`), located
        at token t; None, consuming nothing, when no access starts there."""
        u = self.peek()
        if u.kind == "PUNCT" and u.text == "[":
            self.next()
            node = EMem(self.parse_expr(), width)
        elif u.kind == "IDENT" and u.text not in KEYWORDS and self.peek(1).text in ("[", ".["):
            self.next()
            byte_mode = self.next().kind == "DOTLBRACK"
            node = EArr(u.text, self.parse_expr(), width, byte_mode)
        else:
            return None
        self.expect("PUNCT", "]")
        return self._loc(node, t)


def parse(text: str) -> Program:
    """Parse DSL source text into an untyped Program."""
    return Parser(text).parse_program()
