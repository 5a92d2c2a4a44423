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

Every infix operator, comparisons included, parses to a :class:`BinOp`, and
so do ``min`` and ``max``.  One table, ``_LEVEL``, gives each infix
operator the level of its rule above (``cmp`` 1, ``sum`` 2, ``term`` 3); the
parser, the printer and :func:`fold_rows` all read it.

All arithmetic is arbitrary-precision signed integer arithmetic; ``/`` is
floor division and ``%`` the matching floor remainder.  Comparisons yield 0
or 1 and the ``if`` condition treats any nonzero value as true.  By default
division and remainder are totalized at zero (``t / 0 == 0`` and
``t % 0 == t``); strict evaluation raises :class:`DivisionByZero` instead.

A coloring built from an expression evaluates it at ``(min(x, y),
max(x, y))`` and reduces the result modulo the color count, which makes it
symmetric and total by construction.  Its rows are therefore evaluated under
``x < y``, and :func:`fold_rows` folds what that decides before compiling:
``x < y``, ``x <= y`` and ``x != y`` are 1 and ``x == y`` is 0, in either
order of the operands, ``min`` and ``max`` of ``x`` and ``y`` are ``x`` and
``y``, and an ``if`` on a literal is its chosen branch.  A row of an
expression left with no ``y`` has one color, and costs one evaluation; so
does a row whose ``if`` conditions without ``y`` pick a branch without
``y``, since each such condition is tested once per row.

``oracles.evaluate``, a tree-walking interpreter, is the reference that
defines these semantics.  Colorings run compiled code: :func:`compile_row`
turns the parsed syntax tree into one Python function that colors a whole
row, a list comprehension over the larger endpoints or one int for a row of
one color, generated from the tree's literals, variables and operators
only: the coloring's one row function.  A row costs one call and at most
one loop in compiled code.
"""

from __future__ import annotations

from typing import Union

from .colorings import Coloring, ColoringError, Row
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
    __slots__ = ("op", "left", "right")  # op: a key of _LEVEL, min or max


class If(Record):
    __slots__ = ("cond", "then", "orelse")


Expr = Union[Lit, Var, Neg, BinOp, If]

# Each infix operator's precedence level, 1 binding the loosest.  An ``if``
# is level 0 and a factor, ``min`` and ``max`` included, level 4.
_LEVEL = {"<": 1, "<=": 1, "==": 1, "!=": 1, "+": 2, "-": 2, "*": 3, "/": 3, "%": 3}


# --- tokenizer -----------------------------------------------------------------

_SYMBOLS = ("<=", "==", "!=", "<", "+", "-", "*", "/", "%", "(", ")", ",")


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
            cond, d_cond = self.binary(1)
            self._take_keyword("then")
            then, d_then = self.expr()
            self._take_keyword("else")
            orelse, d_else = self.expr()
            return If(cond, then, orelse), self._deeper(max(d_cond, d_then, d_else))
        return self.binary(1)

    def binary(self, level: int) -> tuple[Expr, int]:
        """A left-associative chain of the operators of ``level``, whose
        operands are of the next level; comparisons (level 1) do not chain."""
        node, depth = self.binary(level + 1) if level < 3 else self.factor()
        while _LEVEL.get(self.current.kind) == level:
            op = self.current.kind
            self.index += 1
            right, d_right = self.binary(level + 1) if level < 3 else self.factor()
            node, depth = BinOp(op, node, right), self._deeper(max(depth, d_right))
            if level == 1:
                break
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

def _level(expr: Expr) -> int:
    if isinstance(expr, If):
        return 0
    return _LEVEL.get(expr.op, 4) if isinstance(expr, BinOp) else 4


def _wrap(expr: Expr, floor: int) -> str:
    text = to_text(expr)
    return f"({text})" if _level(expr) < floor else text


def to_text(expr: Expr) -> str:
    """Canonical rendering with the fewest parentheses that reparse the same
    tree; printing, parsing and printing again is a fixpoint.  An operand
    is bracketed when it binds more loosely than its operator, or as
    tightly on the right or beside a comparison: chains associate to the
    left, and comparisons do not chain."""
    if isinstance(expr, Lit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return "-" + _wrap(expr.operand, 4)
    if isinstance(expr, If):
        cond = _wrap(expr.cond, 1)
        return f"if {cond} then {to_text(expr.then)} else {to_text(expr.orelse)}"
    if isinstance(expr, BinOp):
        if expr.op in ("min", "max"):
            return f"{expr.op}({to_text(expr.left)}, {to_text(expr.right)})"
        level = _LEVEL[expr.op]
        left = _wrap(expr.left, level + (level == 1))
        return f"{left} {expr.op} {_wrap(expr.right, level + 1)}"
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
    if isinstance(expr, If):
        cond, then, orelse = map(_source, (expr.cond, expr.then, expr.orelse))
        return f"({then} if {cond} else {orelse})"
    if isinstance(expr, BinOp):
        left, right = _source(expr.left), _source(expr.right)
        if expr.op in ("min", "max"):
            return f"{expr.op}({left}, {right})"
        # a fixed list, not the keys of _LEVEL: only these texts reach the
        # compiler, whatever the table holds
        if expr.op in ("+", "-", "*", "<", "<=", "==", "!="):
            return f"({left} {expr.op} {right})"
        if expr.op in ("/", "%"):
            if isinstance(expr.right, Lit) and expr.right.value != 0:
                return f"({left} {'//' if expr.op == '/' else '%'} {right})"
            return f"{'_div' if expr.op == '/' else '_mod'}({left}, {right})"
    raise TypeError(f"not an expression node: {expr!r}")


def _row(expr: Expr, k: int) -> str:
    """The colors of the row of ``x`` over ``ys``: one int where ``expr``
    has no ``y``, an ``if`` whose condition has no ``y`` tested once and its
    branches rowed in turn, and otherwise a comprehension over ``ys``."""
    source = _source(expr)
    if "y" not in source:  # of all the nodes only Var("y") writes a y
        return f"{source} % ({int(k)!r})"
    if isinstance(expr, If) and "y" not in (cond := _source(expr.cond)):
        return f"({_row(expr.then, k)} if {cond} else {_row(expr.orelse, k)})"
    return f"[{source} % ({int(k)!r}) for y in ys]"


def row_source(expr: Expr, k: int) -> str:
    """The source :func:`compile_row` compiles: a lambda of ``x`` and the
    larger endpoints ``ys`` giving the row's colors, a list with the same
    reduction for each ``y``, or one int where the branch taken has no
    ``y``.  An empty row is ``[]`` and evaluates nothing, and each hoisted
    condition is one that every pair of the row evaluates first, so a
    strict error is raised at the row's first pair, as a loop over the
    pairs raises it."""
    body = _row(expr, k)
    return f"lambda x, ys: {body} if ys else []"


def compile_row(expr: Expr, strict: bool, k: int) -> Row:
    """One Python function ``(lo, his) -> [oracles.evaluate(expr, lo, hi,
    strict) % k for hi in his]``, or that list's one color as an int where
    the compiled branch has no ``y`` and ``his`` is not empty; in strict
    mode it raises :class:`DivisionByZero` at the first pair whose
    evaluation does, with that pair's message.

    Comparisons give bools, which take part in the arithmetic as 0 and 1;
    the final reduction modulo ``k`` makes each color a plain int.  The
    source is compiled in a namespace with no builtins besides ``min``,
    ``max`` and the division helpers.
    """
    namespace = {
        "__builtins__": {},
        "min": min,
        "max": max,
        "_div": _div_strict if strict else _div_total,
        "_mod": _mod_strict if strict else _mod_total,
    }
    return eval(compile(row_source(expr, k), "<coloring>", "eval"), namespace)


def fold_rows(expr: Expr) -> Expr:
    """``expr`` with what a row's ``x < y`` decides folded in: comparisons
    of ``x`` with ``y`` become 0 or 1, ``min`` and ``max`` of them become
    ``x`` and ``y``, and an ``if`` on a literal becomes its chosen branch.
    Nothing that can raise is dropped: the branch an ``if`` skips is never
    evaluated."""
    if isinstance(expr, Neg):
        return Neg(fold_rows(expr.operand))
    if isinstance(expr, If):
        cond = fold_rows(expr.cond)
        if isinstance(cond, Lit):
            return fold_rows(expr.then if cond.value else expr.orelse)
        return If(cond, fold_rows(expr.then), fold_rows(expr.orelse))
    if isinstance(expr, BinOp):
        left, right = fold_rows(expr.left), fold_rows(expr.right)
        if isinstance(left, Var) and isinstance(right, Var) and left != right:
            if expr.op in ("min", "max"):
                return Var("x" if expr.op == "min" else "y")
            if _LEVEL[expr.op] == 1:  # "x" < "y" as names and as values
                ordered = left.name < right.name
                return Lit(int(ordered if "<" in expr.op else expr.op == "!="))
        return BinOp(expr.op, left, right)
    return expr


def dsl_coloring(source: str | Expr, k: int, strict: bool = False) -> Coloring:
    """Wrap an expression as a total symmetric coloring with ``k`` colors.

    Its row is compiled from :func:`fold_rows` of the expression.  Where
    the folded expression, or the branch that a condition without ``y``
    picks, has no ``y``, every pair of a row has one color: the row
    evaluates it once and returns it as an int."""
    if k < 1:
        raise ColoringError(f"color count k={k} must be at least 1")
    expr = parse(source) if isinstance(source, str) else source
    name = f"dsl({to_text(expr)})"
    return Coloring(k, compile_row(fold_rows(expr), strict, k), name)
