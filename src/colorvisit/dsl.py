"""A tiny total expression language over the edge endpoints ``x`` and ``y``.

Grammar (EBNF)::

    expr   := cond
    cond   := "if" cmp "then" expr "else" expr | cmp
    cmp    := sum (("<" | "<=" | "==" | "!=") sum)?
    sum    := term (("+" | "-") term)*
    term   := factor (("*" | "/" | "%") factor)*
    factor := nat | "x" | "y" | "min(" expr "," expr ")"
            | "max(" expr "," expr ")" | "(" expr ")" | "-" factor
    nat    := ("0" | "1" | ... | "9")+     (ASCII digits only)

All arithmetic is arbitrary-precision signed integer arithmetic; ``/`` is
floor division and ``%`` the matching floor remainder.  Comparisons yield 0
or 1 and the ``if`` condition treats any nonzero value as true.  By default
division and remainder are totalized at zero (``t / 0 == 0`` and
``t % 0 == t``); strict evaluation raises :class:`DivisionByZero` instead.

A coloring built from an expression evaluates it at ``(min(x, y),
max(x, y))`` and reduces the result modulo the color count, which makes it
symmetric and total by construction.

``oracles.evaluate``, a tree-walking interpreter, is the reference that
defines these semantics.  Colorings run compiled code: :func:`compile_expr`
turns the parsed syntax tree into one Python function of a pair, and
:func:`compile_row` into one function that colors a whole row, a list
comprehension over the larger endpoints.  Both are generated from the
tree's literals, variables and operators only, so a pair costs one call
and a row costs one call and one loop in compiled code.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

from .colorings import Coloring, ColoringError
from .words import Record


class DslSyntaxError(ValueError):
    """Position-annotated parse failure with the token kinds expected there."""

    def __init__(self, position: int, expected: frozenset[str], found: str) -> None:
        self.position = position
        self.expected = expected
        self.found = found
        options = ", ".join(sorted(expected))
        super().__init__(
            f"syntax error at position {position}: expected one of {options}, "
            f"found {found}"
        )


class UnknownIdentifier(ValueError):
    def __init__(self, name: str, position: int) -> None:
        self.name = name
        self.position = position
        super().__init__(f"unknown identifier {name!r} at position {position}")


class DivisionByZero(ArithmeticError):
    def __init__(self, op: str) -> None:
        super().__init__(f"{op} by zero in strict mode")


# --- abstract syntax -----------------------------------------------------------


# each node's fields are its __slots__, given positionally


class Lit(Record):
    __slots__ = ("value",)


class Var(Record):
    __slots__ = ("name",)  # "x" or "y"


class Neg(Record):
    __slots__ = ("operand",)


class BinOp(Record):
    __slots__ = ("op", "left", "right")  # op: one of + - * / % min max


class Cmp(Record):
    __slots__ = ("op", "left", "right")  # op: one of < <= == !=


class If(Record):
    __slots__ = ("cond", "then", "orelse")


Expr = Union[Lit, Var, Neg, BinOp, Cmp, If]


# --- tokenizer -----------------------------------------------------------------

_SYMBOLS = ("<=", "==", "!=", "<", "+", "-", "*", "/", "%", "(", ")", ",")
_KEYWORDS = frozenset({"if", "then", "else", "min", "max", "x", "y"})


class _Token(Record):
    __slots__ = ("kind", "text", "pos")  # kind: "nat", "name", a symbol, or "end"


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        # str.isdigit would also take other scripts' digits and superscripts
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            tokens.append(_Token("nat", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(_Token(sym, sym, i))
                i += len(sym)
                break
        else:
            raise DslSyntaxError(i, frozenset({"operator", "number", "name"}), repr(ch))
    tokens.append(_Token("end", "", n))
    return tokens


# --- parser --------------------------------------------------------------------


# Deepest expression the parser accepts.  Each bracketed or otherwise nested
# expression and each operator of a left-associative chain is one level, so
# parsing, printing and evaluation stay well inside Python's recursion limit.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; every rule returns its syntax tree and the height
    of that tree."""

    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.index = 0
        self.nesting = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def _fail(self, expected: set[str]) -> DslSyntaxError:
        tok = self.current
        found = tok.text if tok.kind != "end" else "end of input"
        return DslSyntaxError(tok.pos, frozenset(expected), found)

    def _deeper(self, depth: int) -> int:
        if depth >= MAX_DEPTH:
            raise self._fail({f"an expression at most {MAX_DEPTH} levels deep"})
        return depth + 1

    def _take(self, kind: str) -> _Token:
        if self.current.kind != kind:
            raise self._fail({kind})
        tok = self.current
        self.index += 1
        return tok

    def _at_keyword(self, name: str) -> bool:
        return self.current.kind == "name" and self.current.text == name

    def _take_keyword(self, name: str) -> None:
        if not self._at_keyword(name):
            raise self._fail({name})
        self.index += 1

    def parse(self) -> Expr:
        expr, _ = self.expr()
        if self.current.kind != "end":
            raise self._fail({"end of input"})
        return expr

    def expr(self) -> tuple[Expr, int]:
        self.nesting = self._deeper(self.nesting)
        parsed = self.cond()
        self.nesting -= 1
        return parsed

    def cond(self) -> tuple[Expr, int]:
        if self._at_keyword("if"):
            self.index += 1
            cond, d_cond = self.cmp()
            self._take_keyword("then")
            then, d_then = self.expr()
            self._take_keyword("else")
            orelse, d_else = self.expr()
            return If(cond, then, orelse), self._deeper(max(d_cond, d_then, d_else))
        return self.cmp()

    def cmp(self) -> tuple[Expr, int]:
        left, depth = self.sum()
        if self.current.kind in ("<", "<=", "==", "!="):
            op = self.current.kind
            self.index += 1
            right, d_right = self.sum()
            return Cmp(op, left, right), self._deeper(max(depth, d_right))
        return left, depth

    def sum(self) -> tuple[Expr, int]:
        node, depth = self.term()
        while self.current.kind in ("+", "-"):
            op = self.current.kind
            self.index += 1
            right, d_right = self.term()
            node, depth = BinOp(op, node, right), self._deeper(max(depth, d_right))
        return node, depth

    def term(self) -> tuple[Expr, int]:
        node, depth = self.factor()
        while self.current.kind in ("*", "/", "%"):
            op = self.current.kind
            self.index += 1
            right, d_right = self.factor()
            node, depth = BinOp(op, node, right), self._deeper(max(depth, d_right))
        return node, depth

    def factor(self) -> tuple[Expr, int]:
        tok = self.current
        if tok.kind == "nat":
            try:
                value = int(tok.text)
            except ValueError:  # more digits than the interpreter converts
                raise DslSyntaxError(
                    tok.pos, frozenset({"a shorter number"}),
                    f"a number of {len(tok.text)} digits",
                ) from None
            self.index += 1
            return Lit(value), 1
        if tok.kind == "-":
            self.index += 1
            self.nesting = self._deeper(self.nesting)
            operand, depth = self.factor()
            self.nesting -= 1
            return Neg(operand), self._deeper(depth)
        if tok.kind == "(":
            self.index += 1
            inner = self.expr()
            self._take(")")
            return inner
        if tok.kind == "name":
            if tok.text in ("x", "y"):
                self.index += 1
                return Var(tok.text), 1
            if tok.text in ("min", "max"):
                self.index += 1
                self._take("(")
                left, d_left = self.expr()
                self._take(",")
                right, d_right = self.expr()
                self._take(")")
                return BinOp(tok.text, left, right), self._deeper(max(d_left, d_right))
            if tok.text in ("if", "then", "else"):
                raise self._fail({"number", "x", "y", "min", "max", "(", "-"})
            raise UnknownIdentifier(tok.text, tok.pos)
        raise self._fail({"number", "x", "y", "min", "max", "(", "-"})


def parse(source: str) -> Expr:
    """Parse a coloring expression; raises :class:`DslSyntaxError` or
    :class:`UnknownIdentifier` on bad input, never loops.  Expressions deeper
    than :data:`MAX_DEPTH` are syntax errors."""
    return _Parser(_tokenize(source)).parse()


# --- pretty printer ------------------------------------------------------------

# Precedence levels, loosest first; used to insert the minimal parentheses
# that the recursive-descent grammar needs to reparse the same shape.
_LEVEL_COND = 0
_LEVEL_CMP = 1
_LEVEL_SUM = 2
_LEVEL_TERM = 3
_LEVEL_FACTOR = 4


def _level(expr: Expr) -> int:
    if isinstance(expr, If):
        return _LEVEL_COND
    if isinstance(expr, Cmp):
        return _LEVEL_CMP
    if isinstance(expr, BinOp):
        if expr.op in ("+", "-"):
            return _LEVEL_SUM
        if expr.op in ("*", "/", "%"):
            return _LEVEL_TERM
        return _LEVEL_FACTOR  # min/max render as calls
    return _LEVEL_FACTOR


def _wrap(expr: Expr, floor: int) -> str:
    text = to_text(expr)
    return f"({text})" if _level(expr) < floor else text


def to_text(expr: Expr) -> str:
    """Canonical rendering; printing, parsing and printing again is a
    fixpoint."""
    if isinstance(expr, Lit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return "-" + _wrap(expr.operand, _LEVEL_FACTOR)
    if isinstance(expr, Cmp):
        left = _wrap(expr.left, _LEVEL_SUM)
        right = _wrap(expr.right, _LEVEL_SUM)
        return f"{left} {expr.op} {right}"
    if isinstance(expr, If):
        cond = _wrap(expr.cond, _LEVEL_CMP)
        return f"if {cond} then {to_text(expr.then)} else {to_text(expr.orelse)}"
    if isinstance(expr, BinOp):
        if expr.op in ("min", "max"):
            return f"{expr.op}({to_text(expr.left)}, {to_text(expr.right)})"
        if expr.op in ("+", "-"):
            left = _wrap(expr.left, _LEVEL_SUM)
            right = _wrap(expr.right, _LEVEL_TERM)
        else:
            left = _wrap(expr.left, _LEVEL_TERM)
            right = _wrap(expr.right, _LEVEL_FACTOR)
        return f"{left} {expr.op} {right}"
    raise TypeError(f"not an expression node: {expr!r}")


# --- compilation ---------------------------------------------------------------


def _div_total(t: int, d: int) -> int:
    return t // d if d else 0


def _mod_total(t: int, d: int) -> int:
    return t % d if d else t


def _div_strict(t: int, d: int) -> int:
    if d == 0:
        raise DivisionByZero("division")
    return t // d


def _mod_strict(t: int, d: int) -> int:
    if d == 0:
        raise DivisionByZero("remainder")
    return t % d


def _source(expr: Expr) -> str:
    """Python source with the semantics of ``oracles.evaluate``, built only
    from integer literals, ``x``, ``y``, fixed operators and the helper
    names, so no text of the original expression reaches the compiler."""
    if isinstance(expr, Lit):
        return f"({int(expr.value)!r})"
    if isinstance(expr, Var):
        return "x" if expr.name == "x" else "y"
    if isinstance(expr, Neg):
        return f"(-{_source(expr.operand)})"
    if isinstance(expr, Cmp) and expr.op in ("<", "<=", "==", "!="):
        return f"({_source(expr.left)} {expr.op} {_source(expr.right)})"
    if isinstance(expr, If):
        cond, then, orelse = map(_source, (expr.cond, expr.then, expr.orelse))
        return f"({then} if {cond} else {orelse})"
    if isinstance(expr, BinOp):
        left, right = _source(expr.left), _source(expr.right)
        if expr.op in ("min", "max"):
            return f"{expr.op}({left}, {right})"
        if expr.op in ("+", "-", "*"):
            return f"({left} {expr.op} {right})"
        if expr.op in ("/", "%"):
            if isinstance(expr.right, Lit) and expr.right.value != 0:
                return f"({left} {'//' if expr.op == '/' else '%'} {right})"
            return f"{'_div' if expr.op == '/' else '_mod'}({left}, {right})"
    raise TypeError(f"not an expression node: {expr!r}")


def compile_source(expr: Expr, k: int) -> str:
    """The source :func:`compile_expr` compiles: a lambda of ``x`` and
    ``y`` reducing the expression modulo ``k``."""
    return f"lambda x, y: {_source(expr)} % ({int(k)!r})"


def row_source(expr: Expr, k: int) -> str:
    """The source :func:`compile_row` compiles: a lambda of ``x`` and the
    larger endpoints ``ys`` listing the same reduction for each ``y``."""
    return f"lambda x, ys: [{_source(expr)} % ({int(k)!r}) for y in ys]"


def _compile(source: str, strict: bool) -> Callable:
    """Compile generated source in a namespace with no builtins besides
    ``min``, ``max`` and the division helpers."""
    namespace = {
        "__builtins__": {},
        "min": min,
        "max": max,
        "_div": _div_strict if strict else _div_total,
        "_mod": _mod_strict if strict else _mod_total,
    }
    return eval(compile(source, "<coloring>", "eval"), namespace)


def compile_expr(expr: Expr, strict: bool, k: int) -> Callable[[int, int], int]:
    """One Python function ``(lo, hi) -> oracles.evaluate(expr, lo, hi,
    strict) % k``.

    Comparisons give bools, which take part in the arithmetic as 0 and 1;
    the final reduction modulo ``k`` makes the result a plain int.
    """
    return _compile(compile_source(expr, k), strict)


def compile_row(
    expr: Expr, strict: bool, k: int
) -> Callable[[int, Sequence[int]], list[int]]:
    """One Python function ``(lo, his) -> [evaluate(expr, lo, hi, strict) % k
    for hi in his]``; in strict mode it raises :class:`DivisionByZero` at the
    first pair whose evaluation does."""
    return _compile(row_source(expr, k), strict)


def dsl_coloring(source: str | Expr, k: int, strict: bool = False) -> Coloring:
    """Wrap an expression as a total symmetric coloring with ``k`` colors."""
    if k < 1:
        raise ColoringError(f"color count k={k} must be at least 1")
    expr = parse(source) if isinstance(source, str) else source
    return Coloring(
        k=k,
        pair_color=compile_expr(expr, strict, k),
        name=f"dsl({to_text(expr)})",
        row_kernel=compile_row(expr, strict, k),
    )
