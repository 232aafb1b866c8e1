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

Each construct is normalized as soon as it is parsed, by the steps
``normalize`` takes, so the result is the normalized tree.  A step
fails on zero to a negative power, and on a constant or an exponent
with more digits than the interpreter converts to text; the error is
placed at the construct: the exponent of a power, the '-' of a
negation, the operand of a division or a subtraction, and in a chain
of + and - or of * and / the operand whose folding into the operands
before it first fails.  A construct that fails is rejected even where
a later step would cancel it.  A product whose constants reach zero
stays zero, so (x1-x1)*1/7^5000*1/7^5000 is 0; with the zero factor
last, the two constants fail first.
The lexer is one regular expression, and a token is a tuple (kind,
lexeme, byte offset).  Tokens are ASCII, so up to the first character
that starts none an offset counts characters and bytes alike.  Offsets
in errors are byte offsets into the UTF-8 source.
"""

from __future__ import annotations

import json
import math
import re
import string
from fractions import Fraction

from .errors import (
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
    _func,
    _pow,
    eprod,
    esum,
    sort_key,
)
from .poly import Poly, Ring
from .series import (
    OperatorTerm, ProblemSpec, RationalMatrix, SpatialOperator, check_count, check_rho_shape,
    checked_problem,
)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# the blanks before a token, then the token or a character that starts none
_TOKEN = re.compile(
    r"([ \t\r\n]*)(?:([0-9]+(?:\.[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|[-+*/^(),])|([^ \t\r\n]))"
)
_KINDS = {
    **dict.fromkeys("0123456789", "number"),
    **dict.fromkeys(string.ascii_letters + "_", "ident"),
    "+": "plus", "-": "minus", "*": "star", "/": "slash",
    "^": "caret", "(": "lparen", ")": "rparen", ",": "comma",
}


def tokenize(src: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    for blanks, lexeme, other in _TOKEN.findall(src):
        pos += len(blanks)
        if other:
            # only ASCII comes before it, so pos counts bytes; encoding all
            # of src raises UnicodeEncodeError for a lone surrogate in it
            raise ParseError(f"unexpected character {src.encode('utf-8')[pos:pos + 1]!r}", pos)
        out.append((_KINDS[lexeme[0]], lexeme, pos))
        pos += len(lexeme)
    # src is ASCII here, so its length counts bytes
    out.append(("eof", "", len(src)))
    return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_VAR_PATTERN = re.compile(r"x([1-9][0-9]*)\Z")

# Each nesting level costs the parser up to four stack frames, and the
# recursive passes over the tree (normalize, print, conversion to the
# ring, hash) more; deeper input would exhaust the interpreter's
# recursion limit instead of failing as a syntax error.
MAX_NESTING = 150


class _Parser:
    """Recursive descent that returns each construct normalized, built
    with the steps ``normalize`` takes; a DomainError in a step becomes
    a ParseError at that construct."""

    def __init__(self, tokens: list[tuple[str, str, int]], n: int, allow_time: bool):
        self.tokens = tokens
        self.pos = 0  # index of the next token
        self.n = n
        self.allow_time = allow_time
        self.depth = 0

    def expect(self, kind: str, description: str) -> int:
        got, _, at = self.tokens[self.pos]
        if got != kind:
            raise ParseError(
                f"unexpected {got}", at, (description,)
            )
        self.pos += 1
        return at

    def enter(self, at: int) -> None:
        """Open one nesting level at offset ``at``; the caller closes it by
        decrementing ``depth`` once the nested operand is parsed."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", at)

    def parse(self) -> Expr:
        e = self.additive()
        kind, _, at = self.tokens[self.pos]
        if kind != "eof":
            raise ParseError(
                "unexpected token after expression", at,
                ("operator", "end of input"),
            )
        return e

    # A chain of + or of * is folded once, by one esum or eprod of all
    # its operands: folding operand by operand would fold the growing
    # result again at every step.  An operand alone is returned as it is.

    def additive(self) -> Expr:
        tokens = self.tokens
        start = tokens[self.pos][2]
        term = self.multiplicative()
        op = tokens[self.pos][0]
        if op != "plus" and op != "minus":
            return term
        terms, starts = [term], [start]
        while op == "plus" or op == "minus":
            self.pos += 1
            start = tokens[self.pos][2]
            term = self.multiplicative()
            if op == "minus":
                term = _step(start, eprod, [MINUS_ONE, term])
            terms.append(term)
            starts.append(start)
            op = tokens[self.pos][0]
        return _chain(esum, terms, starts)

    def multiplicative(self) -> Expr:
        tokens = self.tokens
        start = tokens[self.pos][2]
        factor = self.unary()
        op = tokens[self.pos][0]
        if op != "star" and op != "slash":
            return factor
        factors, starts = [factor], [start]
        while op == "star" or op == "slash":
            self.pos += 1
            start = tokens[self.pos][2]
            factor = self.unary()
            if op == "slash":
                factor = _step(start, _pow, factor, -1)
            factors.append(factor)
            starts.append(start)
            op = tokens[self.pos][0]
        return _chain(eprod, factors, starts)

    def unary(self) -> Expr:
        """A negation, or an atom raised to at most one power."""
        kind, _, at = self.tokens[self.pos]
        if kind == "minus":
            self.pos += 1
            self.enter(at)
            operand = self.unary()
            self.depth -= 1
            return _step(at, eprod, [MINUS_ONE, operand])
        base = self.atom()
        kind, _, at = self.tokens[self.pos]
        if kind != "caret":
            return base
        self.pos += 1
        self.enter(at)
        at = self.tokens[self.pos][2]
        exponent = self.unary()  # right associativity: x^2^3 = x^(2^3)
        self.depth -= 1
        if not isinstance(exponent, Const) or exponent.value.denominator != 1:
            raise NonIntegerExponent(
                "exponent must reduce to an integer constant", at
            )
        return _step(at, _pow, base, int(exponent.value))

    def atom(self) -> Expr:
        kind, lexeme, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "number":
            try:
                # an integer skips Fraction's string parser
                return Const(Fraction(lexeme if "." in lexeme else int(lexeme)))
            except ValueError as exc:  # more digits than int() converts
                raise ParseError("number too long to represent", at) from exc
        if kind == "lparen":
            self.enter(at)
            inner = self.additive()
            self.expect("rparen", "')'")
            self.depth -= 1
            return inner
        if kind == "ident":
            if lexeme == "t":
                if not self.allow_time:
                    raise TimeNotAllowed(
                        "the time symbol is not allowed here", at
                    )
                return Var(TIME_INDEX)
            if lexeme in FUNCTIONS:
                self.enter(self.expect("lparen", "'(' after function name"))
                arg = self.additive()
                self.expect("rparen", "')'")
                self.depth -= 1
                return _func(lexeme, arg)
            match = _VAR_PATTERN.match(lexeme)
            if match:
                index = int(match.group(1))
                if index > self.n:
                    raise UnknownIdentifier(
                        f"variable {lexeme} exceeds spatial dimension {self.n}", at
                    )
                return Var(index)
            raise UnknownIdentifier(f"unknown identifier {lexeme!r}", at)
        raise ParseError(
            f"unexpected {kind}", at,
            ("number", "identifier", "'('", "'-'"),
        )


def _step(at: int, fold, *args) -> Expr:
    """``fold(*args)``, a DomainError reported at byte offset ``at``."""
    try:
        return fold(*args)
    except DomainError as exc:
        raise ParseError(str(exc), at) from exc


def _chain(fold, operands: list[Expr], starts: list[int]) -> Expr:
    """``fold`` (esum or eprod) of a chain's normalized operands, which
    start at the byte offsets ``starts``.  Where it fails, the error is
    placed at the operand whose folding into the operands before it
    first fails."""
    try:
        return fold(operands)
    except DomainError as exc:
        error = exc

    def folds(count: int) -> bool:
        try:
            fold(operands[:count])
        except DomainError:
            return False
        return True

    # the first `lo` operands fold, the first `hi` do not: double `hi`
    # from 2, then bisect, so the folds cost about two folds of the
    # whole chain
    lo, hi = 1, 2
    while hi < len(operands) and folds(hi):
        lo, hi = hi, min(2 * hi, len(operands))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if folds(mid):
            lo = mid
        else:
            hi = mid
    raise ParseError(str(error), starts[hi - 1]) from error


def parse_expr(src: str, n: int, *, allow_time: bool = False) -> Expr:
    """Parse an expression over x1..xn, n >= 1 (and t when allowed); the
    result is normalized."""
    check_count(n, "spatial dimension")
    return _Parser(tokenize(src), n, allow_time).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_expr(e: Expr) -> str:
    """Render in the input grammar; parse_expr(print_expr(e)) is
    structurally e for normalized e.  A rational leads the product it
    scales (``3/2*x1``, ``-x1``, ``x1``); in a sum, a term after the
    first whose text starts with "-" is written " - " and the rest."""
    return _fmt(e)


def _fmt(e: Expr) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return "t" if e.index == TIME_INDEX else f"x{e.index}"
    if isinstance(e, Func):
        return f"{e.name}({_fmt(e.arg)})"
    if isinstance(e, Pow):
        return _fmt_power(_fmt(e.base), isinstance(e.base, (Sum, Prod, Const)), e.exponent)
    if isinstance(e, Prod):
        factors, c, d = e.factors, 1, 1
        if isinstance(factors[0], Const):
            c, d = factors[0].value.numerator, factors[0].value.denominator
            factors = factors[1:]
        return _scaled(c, d, "*".join(
            f"({_fmt(f)})" if isinstance(f, Sum) else _fmt(f) for f in factors))
    if isinstance(e, Sum):
        return _joined([_fmt(t) for t in e.terms])
    raise TypeError(f"not an expression: {e!r}")


def print_polys(ring: Ring, polys: list[Poly], factored: bool = False) -> list[str]:
    """``print_expr(ring.to_tree(p))`` of each of ``polys``, and the
    DomainError of the first that raises one, without building trees:
    the monomials of all ``polys`` are ranked once by the keys that
    ``_monomial`` gives them, the constant (key (0,)) first, and each
    polynomial writes its terms by rank.  ``esum`` and ``eprod`` spread a
    sum atom to the first power that is next to other terms or times a
    rational other than 1: such a polynomial prints from its tree, and
    so, where ``factored``, does one that ``Ring.factored`` writes as a
    product."""
    atoms: dict[int, tuple] = {}
    printed = {m: _monomial(ring, atoms, m) if m else ((0,), "", False)
               for m in set().union(*[p.num for p in polys])}
    rank = dict(zip(sorted(printed, key=printed.__getitem__), range(len(printed))))
    sums = {m for m, entry in printed.items() if entry[2]}
    out = []
    for p in polys:
        num, den = p.num, p.den
        if not num:
            out.append("0")
            continue
        if factored and (tree := ring.factored(p)) is not None:
            out.append(print_expr(tree))
            continue
        if not sums.isdisjoint(num) and (len(num) > 1 or den != 1 or 1 not in num.values()):
            out.append(print_expr(ring.to_tree(p)))
            continue
        texts = []
        try:
            for m in sorted(num, key=rank.__getitem__) if len(num) > 1 else num:
                c, d = num[m], den
                if d != 1:
                    g = math.gcd(c, d)
                    c, d = c // g, d // g
                if d != 1:  # _scaled's first case, inline: most terms of a long row take it
                    texts.append(f"{c}/{d}*{printed[m][1]}" if m else f"{c}/{d}")
                else:
                    texts.append(_scaled(c, 1, printed[m][1]) if m else str(c))
        except ValueError as exc:  # a rational past the int-to-text limit
            raise DomainError("product of constants too large to represent") from exc
        out.append(_joined(texts))
    return out


def _monomial(ring: Ring, atoms: dict[int, tuple], m: int) -> tuple:
    """The ``sort_key`` and the text of the tree of the packed monomial
    ``m``, and whether it is a sum atom alone; ``atoms`` keeps these three
    for each atom, by its index.  Its factors sort by atom key: the atom's key for
    a, (3, key, e) for a^e, (4, *factor keys) for a product."""
    factors = []
    for i, e in enumerate(ring.exponents(m)):
        if e:
            atom = atoms.get(i)
            if atom is None:
                tree = ring.trees[i]
                atom = atoms[i] = (sort_key(tree), _fmt(tree), isinstance(tree, Sum))
            factors.append((atom, e))
    factors.sort()  # atoms have distinct keys
    if len(factors) == 1:
        (key, text, is_sum), e = factors[0]
        return (key, text, is_sum) if e == 1 else (
            (3, key, e), _fmt_power(text, is_sum, e), False)
    keys, texts = [4], []
    for (key, text, is_sum), e in factors:
        if e == 1:
            keys.append(key)
            texts.append(f"({text})" if is_sum else text)
        else:
            keys.append((3, key, e))
            texts.append(_fmt_power(text, is_sum, e))
    return (tuple(keys), "*".join(texts), False)


def _fmt_power(base: str, bracket: bool, e: int) -> str:
    if bracket:
        base = f"({base})"
    return f"{base}^{e}" if e >= 0 else f"{base}^({e})"


def _scaled(c: int, d: int, body: str) -> str:
    """The text of the rational c/d, in lowest terms with d > 0, times
    the product whose text is ``body``."""
    if d != 1:
        return f"{c}/{d}*{body}"
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    return f"{c}*{body}"


def _joined(texts: list[str]) -> str:
    """The text of the sum of the terms whose texts are ``texts``.  Only
    this writes " + ", never before "-", so a " + -" joins a negative term."""
    return " + ".join(texts).replace(" + -", " - ")


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def _require(doc: dict, key: str):
    if key not in doc:
        raise FormatError(f"missing field {key!r}")
    return doc[key]


def _rational(text, where: str) -> Fraction:
    if not isinstance(text, str):
        raise FormatError(f"{where} must be a rational string like \"-3/2\"")
    try:
        return Fraction(int(text))  # Fraction(text) where int() parses it
    except ValueError:
        pass
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise FormatError(f"{where} has a zero denominator") from exc
    except ValueError as exc:
        raise FormatError(f"{where} is not a valid rational: {exc}") from exc


def _field_expr(text, n: int, allow_time: bool, where: str) -> Expr:
    if not isinstance(text, str):
        raise FormatError(f"{where} must be an expression string")
    try:
        return parse_expr(text, n, allow_time=allow_time)
    except ParseError as exc:
        raise type(exc)(f"{where}: {exc.message}", exc.offset, exc.expected) from exc


def _expr_vector(doc: dict, key: str, n: int, allow_time: bool) -> tuple[Expr, ...]:
    raw = _require(doc, key)
    if not isinstance(raw, list):
        raise FormatError(f"field {key!r} must be a list of expression strings")
    return tuple(
        _field_expr(text, n, allow_time, f"{key}[{i}]") for i, text in enumerate(raw)
    )


def parse_problem(src: str) -> ProblemSpec:
    """Parse a JSON problem file: this checks the JSON types and the
    expression grammar, and ``checked_problem`` every rule of a problem,
    so a singular mass matrix is a load-time error."""
    try:
        doc = json.loads(src)
    except json.JSONDecodeError as exc:
        raise FormatError(f"problem file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("problem file nests deeper than the JSON decoder allows") from exc
    if not isinstance(doc, dict):
        raise FormatError("problem file must be a JSON object")

    # each count as it is read, before a field sized by m or n is read
    m = _require(doc, "m")
    check_count(m, "field 'm'")
    n = _require(doc, "n")
    check_count(n, "field 'n'")
    order = _require(doc, "order")
    check_count(order, "field 'order'")

    rho_raw = _require(doc, "rho")
    check_rho_shape(rho_raw, m)  # before its rows are read
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
        derivs = entry.get("derivs")  # a list's entries, or else what SpatialOperator refuses
        coeff = _field_expr(entry.get("coeff"), n, False, f"L[{i}].coeff")
        terms.append(OperatorTerm(entry.get("row"), entry.get("col"), coeff,
                                  tuple(derivs) if isinstance(derivs, list) else derivs))
    operator = SpatialOperator(m, n, tuple(terms))

    f = _expr_vector(doc, "f", n, allow_time=True)
    u0 = _expr_vector(doc, "u0", n, allow_time=False)
    u1 = _expr_vector(doc, "u1", n, allow_time=False)
    # the parsed trees are normal already
    return checked_problem(m, n, rho, operator, f, u0, u1, order)


def load_problem(path: str) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())
