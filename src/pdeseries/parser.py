"""Expression grammar and problem-file parsing, plus canonical printing.

Grammar, lowest to highest precedence:

    additive        a + b | a - b          left associative
    multiplicative  a * b | a / b          left associative
    unary           -a
    power           a ^ k                  right associative, k must
                                           reduce to an integer constant
    atom            number | x1..xn | t | name(expr) | ( expr )

There is no implicit multiplication.  Division a/b becomes a * b^(-1)
for non-constant b and folds exactly when both sides are constant.
Decimal literals become exact rationals.  Parentheses, function calls,
unary minus and exponents may nest at most MAX_NESTING levels deep.
A power or a product of rational constants too large to print is
rejected, and so is an expression whose normalized form holds a
constant or an exponent too large to print.
Offsets in errors are byte offsets into the UTF-8 source.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    DomainError,
    FormatError,
    NonIntegerExponent,
    ParseError,
    TimeNotAllowed,
    UnknownIdentifier,
)
from .expr import (
    Const,
    Expr,
    FUNCTIONS,
    Func,
    MINUS_ONE,
    Pow,
    Prod,
    Sum,
    TIME_INDEX,
    Var,
    eprod,
    esum,
    normalize,
    too_large_power,
)
from .series import OperatorTerm, ProblemSpec, RationalMatrix, SpatialOperator


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str
    lexeme: str
    pos: int  # byte offset


_SINGLE = {
    ord("+"): "plus",
    ord("-"): "minus",
    ord("*"): "star",
    ord("/"): "slash",
    ord("^"): "caret",
    ord("("): "lparen",
    ord(")"): "rparen",
    ord(","): "comma",
}

_DIGITS = frozenset(b"0123456789")
_IDENT_START = frozenset(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | _DIGITS


def tokenize(src: str) -> list[Token]:
    data = src.encode("utf-8")
    out: list[Token] = []
    i = 0
    while i < len(data):
        c = data[i]
        if c in b" \t\r\n":
            i += 1
            continue
        if c in _DIGITS:
            start = i
            while i < len(data) and data[i] in _DIGITS:
                i += 1
            if i + 1 < len(data) and data[i] == ord(".") and data[i + 1] in _DIGITS:
                i += 1
                while i < len(data) and data[i] in _DIGITS:
                    i += 1
            out.append(Token("number", data[start:i].decode("ascii"), start))
            continue
        if c in _IDENT_START:
            start = i
            while i < len(data) and data[i] in _IDENT_CONT:
                i += 1
            out.append(Token("ident", data[start:i].decode("ascii"), start))
            continue
        kind = _SINGLE.get(c)
        if kind is not None:
            out.append(Token(kind, chr(c), i))
            i += 1
            continue
        raise ParseError(f"unexpected character {bytes([c])!r}", i)
    out.append(Token("eof", "", len(data)))
    return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_VAR_PATTERN = re.compile(r"x([1-9][0-9]*)\Z")

# Each nesting level costs the parser up to five stack frames, and the
# recursive passes over the tree (normalize, print, differentiate,
# hash) more; deeper input would exhaust the interpreter's recursion
# limit instead of failing as a syntax error.
MAX_NESTING = 150


class _Parser:
    def __init__(self, tokens: list[Token], n: int, allow_time: bool):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.allow_time = allow_time
        self.depth = 0
        # id of each chain and power node -> the node (kept alive, so
        # its id stays its own) and the offsets of its operands, or of
        # the exponent of a power
        self.offsets: dict[int, tuple[Expr, list[int]]] = {}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, description: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.kind or 'end of input'}", tok.pos, (description,)
            )
        return self.advance()

    def enter(self, tok: Token) -> None:
        """Open one nesting level at ``tok``; the caller closes it by
        decrementing ``depth`` once the nested operand is parsed."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)

    def parse(self) -> Expr:
        e = self.additive()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(
                "unexpected token after expression", tok.pos,
                ("operator", "end of input"),
            )
        return e

    # Chains of + and * build one flat node, not a left-nested tree,
    # so a long sum is as shallow as a short one for normalize.

    def mark(self, node: Expr, offsets: list[int]) -> Expr:
        self.offsets[id(node)] = (node, offsets)
        return node

    def additive(self) -> Expr:
        starts = [self.peek().pos]
        terms = [self.multiplicative()]
        while self.peek().kind in ("plus", "minus"):
            op = self.advance()
            starts.append(self.peek().pos)
            right = self.multiplicative()
            if op.kind == "minus":
                right = Prod((MINUS_ONE, right))
            terms.append(right)
        return terms[0] if len(terms) == 1 else self.mark(Sum(tuple(terms)), starts)

    def multiplicative(self) -> Expr:
        starts = [self.peek().pos]
        factors = [self.unary()]
        # normalize folds the constant factors into one rational
        coeff = factors[0].value if isinstance(factors[0], Const) else Fraction(1)
        while self.peek().kind in ("star", "slash"):
            op = self.advance()
            start = self.peek()
            starts.append(start.pos)
            right = self.unary()
            if op.kind == "slash":
                if isinstance(right, Const) and right.value:
                    right = Const(1 / right.value)
                else:
                    right = self.mark(Pow(right, -1), [start.pos])
            if isinstance(right, Const):
                coeff *= right.value
                if too_large_power(coeff, 1):
                    raise ParseError(
                        "product of constants too large to represent", start.pos
                    )
            factors.append(right)
        return factors[0] if len(factors) == 1 else self.mark(Prod(tuple(factors)), starts)

    def unary(self) -> Expr:
        if self.peek().kind == "minus":
            self.enter(self.advance())
            operand = self.unary()
            self.depth -= 1
            if isinstance(operand, Const):
                return Const(-operand.value)
            return Prod((MINUS_ONE, operand))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind != "caret":
            return base
        self.enter(self.advance())
        exp_tok = self.peek()
        exponent_raw = self.unary()  # right associativity: x^2^3 = x^(2^3)
        self.depth -= 1
        exponent = normalize(exponent_raw)
        if not isinstance(exponent, Const) or exponent.value.denominator != 1:
            raise NonIntegerExponent(
                "exponent must reduce to an integer constant", exp_tok.pos
            )
        k = int(exponent.value)
        try:
            folded = normalize(base)
        except DomainError:  # left for parse_expr to report
            return self.mark(Pow(base, k), [exp_tok.pos])
        if not isinstance(folded, Const) or (folded.value == 0 and k < 0):
            return self.mark(Pow(base, k), [exp_tok.pos])
        if too_large_power(folded.value, k):
            raise ParseError(
                "power of a constant too large to represent", exp_tok.pos
            )
        return Const(folded.value ** k)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            try:
                return Const(Fraction(tok.lexeme))
            except ValueError as exc:  # more digits than int() converts
                raise ParseError("number too long to represent", tok.pos) from exc
        if tok.kind == "lparen":
            self.enter(self.advance())
            inner = self.additive()
            self.expect("rparen", "')'")
            self.depth -= 1
            return inner
        if tok.kind == "ident":
            self.advance()
            name = tok.lexeme
            if name == "t":
                if not self.allow_time:
                    raise TimeNotAllowed(
                        "the time symbol is not allowed here", tok.pos
                    )
                return Var(TIME_INDEX)
            if name in FUNCTIONS:
                self.enter(self.expect("lparen", "'(' after function name"))
                arg = self.additive()
                self.expect("rparen", "')'")
                self.depth -= 1
                return Func(name, arg)
            match = _VAR_PATTERN.match(name)
            if match:
                index = int(match.group(1))
                if index > self.n:
                    raise UnknownIdentifier(
                        f"variable {name} exceeds spatial dimension {self.n}", tok.pos
                    )
                return Var(index)
            raise UnknownIdentifier(f"unknown identifier {name!r}", tok.pos)
        raise ParseError(
            f"unexpected {tok.kind or 'end of input'}", tok.pos,
            ("number", "identifier", "'('", "'-'"),
        )


def parse_expr(src: str, n: int, *, allow_time: bool = False) -> Expr:
    """Parse an expression over x1..xn (and t when allowed); the result
    is normalized."""
    if n < 0:
        raise ValueError("spatial dimension must be nonnegative")
    parser = _Parser(tokenize(src), n, allow_time)
    raw = parser.parse()
    try:
        e = normalize(raw)
    except DomainError as exc:
        raise ParseError(str(exc), _failure_at(raw, parser.offsets)) from exc
    if _unprintable(e):
        raise ParseError(
            "constant too large to represent", _failure_at(raw, parser.offsets)
        )
    return e


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Prod):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Func):
        return (e.arg,)
    return ()


def _unprintable(e: Expr) -> bool:
    """True when a constant or an exponent in the normalized tree ``e``
    has more digits than the interpreter converts to text."""
    if isinstance(e, Const):
        return too_large_power(e.value, 1)
    if isinstance(e, Pow) and too_large_power(e.exponent, 1):
        return True
    return any(map(_unprintable, _children(e)))


def _checked(normal_form, e):
    """``normal_form(e)``, or None where that raises DomainError or
    holds a constant too large to print."""
    try:
        out = normal_form(e)
    except DomainError:
        return None
    return None if _unprintable(out) else out


def _failure_at(raw: Expr, offsets: dict) -> int:
    """Offset at which normalizing the raw tree first fails or yields an
    unprintable constant: descend while one child alone does, then take
    the operand of the chain whose folding into the operands before it
    does, or the exponent of the power."""
    node = raw
    while True:
        children = _children(node)
        normal = [_checked(normalize, c) for c in children]
        if None not in normal:
            break
        node = children[normal.index(None)]
    at = offsets.get(id(node), (None, [0]))[1]
    if isinstance(node, (Sum, Prod)) and len(at) == len(children):
        # the first `lo` operands fold, the first `hi` do not: double
        # `hi` from 2, then bisect, so the folds cost about two folds of
        # the whole chain
        fold = esum if isinstance(node, Sum) else eprod
        lo, hi = 1, 2
        while hi < len(normal) and _checked(fold, normal[:hi]) is not None:
            lo, hi = hi, min(2 * hi, len(normal))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _checked(fold, normal[:mid]) is None:
                hi = mid
            else:
                lo = mid
        return at[hi - 1]
    return at[0]


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_expr(e: Expr) -> str:
    """Render in the input grammar; parse_expr(print_expr(e)) is
    structurally e for normalized e."""
    return _fmt(e)


def _fmt(e: Expr) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return "t" if e.index == TIME_INDEX else f"x{e.index}"
    if isinstance(e, Func):
        return f"{e.name}({_fmt(e.arg)})"
    if isinstance(e, Pow):
        base = _fmt(e.base)
        if isinstance(e.base, (Sum, Prod, Const)):
            base = f"({base})"
        exponent = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        return f"{base}^{exponent}"
    if isinstance(e, Prod):
        factors = e.factors
        prefix = ""
        if isinstance(factors[0], Const):
            value = factors[0].value
            factors = factors[1:]
            if value == -1:
                prefix = "-"
            else:
                prefix = f"{value}*"
        body = "*".join(_fmt_factor(f) for f in factors)
        return prefix + body
    if isinstance(e, Sum):
        out = _fmt(e.terms[0])
        for term in e.terms[1:]:
            negated = _negated(term)
            if negated is not None:
                out += f" - {_fmt(negated)}"
            else:
                out += f" + {_fmt(term)}"
        return out
    raise TypeError(f"not an expression: {e!r}")


def _fmt_factor(f: Expr) -> str:
    text = _fmt(f)
    return f"({text})" if isinstance(f, Sum) else text


def _negated(term: Expr) -> Expr | None:
    """The positive counterpart when the term has a negative leading
    rational, else None."""
    if isinstance(term, Const) and term.value < 0:
        return Const(-term.value)
    if (
        isinstance(term, Prod)
        and isinstance(term.factors[0], Const)
        and term.factors[0].value < 0
    ):
        value, rest = -term.factors[0].value, term.factors[1:]
        if value != 1:
            return Prod((Const(value), *rest))
        return rest[0] if len(rest) == 1 else Prod(rest)
    return None


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def _require(doc: dict, key: str):
    if key not in doc:
        raise FormatError(f"missing field {key!r}")
    return doc[key]


def _require_int(doc: dict, key: str, minimum: int) -> int:
    value = _require(doc, key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"field {key!r} must be an integer")
    if value < minimum:
        raise FormatError(f"field {key!r} must be >= {minimum}")
    return value


def _rational(text, where: str) -> Fraction:
    if not isinstance(text, str):
        raise FormatError(f"{where} must be a rational string like \"-3/2\"")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{where} is not a valid rational: {exc}") from exc


def _field_expr(text, n: int, allow_time: bool, where: str) -> Expr:
    if not isinstance(text, str):
        raise FormatError(f"{where} must be an expression string")
    try:
        return parse_expr(text, n, allow_time=allow_time)
    except ParseError as exc:
        raise type(exc)(f"{where}: {exc.message}", exc.offset, exc.expected) from exc


def _expr_vector(doc: dict, key: str, m: int, n: int, allow_time: bool) -> tuple[Expr, ...]:
    raw = _require(doc, key)
    if not isinstance(raw, list):
        raise FormatError(f"field {key!r} must be a list of expression strings")
    if len(raw) != m:
        raise DimensionMismatch(f"field {key!r} has length {len(raw)}, expected {m}")
    return tuple(
        _field_expr(text, n, allow_time, f"{key}[{i}]") for i, text in enumerate(raw)
    )


def parse_problem(src: str) -> ProblemSpec:
    """Parse and fully validate a JSON problem file; the mass matrix is
    inverted eagerly so singularity is a load-time error."""
    try:
        doc = json.loads(src)
    except json.JSONDecodeError as exc:
        raise FormatError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("problem file must be a JSON object")

    m = _require_int(doc, "m", minimum=1)
    n = _require_int(doc, "n", minimum=1)
    order = _require_int(doc, "order", minimum=1)

    rho_raw = _require(doc, "rho")
    if not isinstance(rho_raw, list) or len(rho_raw) != m or any(
        not isinstance(row, list) or len(row) != m for row in rho_raw
    ):
        raise DimensionMismatch(f"field 'rho' must be an {m}x{m} array")
    rho = RationalMatrix(tuple(
        tuple(_rational(cell, f"rho[{i}][{j}]") for j, cell in enumerate(row))
        for i, row in enumerate(rho_raw)
    ))

    terms_raw = _require(doc, "L")
    if not isinstance(terms_raw, list):
        raise FormatError("field 'L' must be a list of operator terms")
    terms = []
    for i, entry in enumerate(terms_raw):
        if not isinstance(entry, dict):
            raise FormatError(f"L[{i}] must be an object")
        row = entry.get("row")
        col = entry.get("col")
        derivs = entry.get("derivs")
        if not isinstance(row, int) or not isinstance(col, int) or isinstance(row, bool) or isinstance(col, bool):
            raise FormatError(f"L[{i}] row/col must be integers")
        if not isinstance(derivs, list) or not all(
            isinstance(k, int) and not isinstance(k, bool) for k in derivs
        ):
            raise FormatError(f"L[{i}].derivs must be a list of integers")
        if any(k < 0 for k in derivs):
            raise FormatError(f"L[{i}].derivs entries must be nonnegative")
        if len(derivs) != n:
            raise DimensionMismatch(
                f"L[{i}].derivs has length {len(derivs)}, expected {n}"
            )
        if not (0 <= row < m and 0 <= col < m):
            raise DimensionMismatch(f"L[{i}] row/col outside 0..{m - 1}")
        coeff = _field_expr(entry.get("coeff"), n, False, f"L[{i}].coeff")
        terms.append(OperatorTerm(row, col, coeff, tuple(derivs)))
    operator = SpatialOperator(m, n, tuple(terms))

    f = _expr_vector(doc, "f", m, n, allow_time=True)
    u0 = _expr_vector(doc, "u0", m, n, allow_time=False)
    u1 = _expr_vector(doc, "u1", m, n, allow_time=False)

    return ProblemSpec.create(m, n, rho, operator, f, u0, u1, order)


def load_problem(path: str) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())
