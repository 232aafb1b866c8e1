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
The lexer splits the text around its tokens with one regular
expression, and a token's byte offset is worked out only for an error.
Tokens are ASCII, so up to the first character that starts none an
offset counts characters and bytes alike.  Offsets in errors are byte
offsets into the UTF-8 source.  One parser reads all the fields of a
problem, with one Const or Var per number or variable text.
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
    _small,
    eprod,
    esum,
    sort_key,
)
from .poly import Poly, Ring
from .series import (
    OperatorTerm, ProblemSpec, RationalMatrix, SpatialOperator, check_count, check_rho_shape,
)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"([0-9]+(?:\.[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|[-+*/^(),])")
_BLANKS = " \t\r\n"
# a token's kind, by its first character, as errors name it
_KINDS = {
    **dict.fromkeys("0123456789", "number"),
    **dict.fromkeys(string.ascii_letters + "_", "ident"),
    "+": "plus", "-": "minus", "*": "star", "/": "slash",
    "^": "caret", "(": "lparen", ")": "rparen", ",": "comma",
}


def tokenize(src: str) -> list[str]:
    """``src`` split around its tokens: blanks, a token, blanks, ...,
    a token, blanks.  ParseError at the first character that is neither
    a blank nor the start of a token."""
    parts = _TOKEN.split(src)
    if "".join(parts[::2]).strip(_BLANKS):
        i = next(i for i in range(0, len(parts), 2) if parts[i].strip(_BLANKS))
        pos = len("".join(parts[:i + 1])) - len(parts[i].lstrip(_BLANKS))
        # only ASCII comes before it, so pos counts bytes; encoding all
        # of src raises UnicodeEncodeError for a lone surrogate in it
        raise ParseError(f"unexpected character {src.encode('utf-8')[pos:pos + 1]!r}", pos)
    return parts


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
    """Recursive descent over x1..xn that returns each construct
    normalized, built with the steps ``normalize`` takes; a DomainError
    in a step becomes a ParseError at that construct.  It reads tokens by
    index, and works out a token's byte offset only for an error.  One
    parser reads all the expression fields of a problem, and ``nodes``
    keeps the Const or Var of each number and variable they meet, by its
    text."""

    def __init__(self, n: int):
        self.n = n
        self.nodes: dict = {}

    def parse(self, src: str, allow_time: bool) -> Expr:
        self.parts = tokenize(src)
        self.tokens = self.parts[1::2] + [""]  # "" ends the text
        self.pos = self.depth = 0  # the next token's index, and the nesting level
        self.allow_time = allow_time
        e = self.additive()
        if self.tokens[self.pos]:
            raise ParseError(
                "unexpected token after expression", self.offset(self.pos),
                ("operator", "end of input"),
            )
        return e

    def offset(self, i: int) -> int:
        """The byte offset of token i; the text is ASCII up to there."""
        return len("".join(self.parts[:2 * i + 1]))

    def unexpected(self, i: int, expected: tuple[str, ...]) -> ParseError:
        token = self.tokens[i]
        return ParseError(f"unexpected {_KINDS[token[0]] if token else 'eof'}",
                          self.offset(i), expected)

    def enter(self, i: int) -> None:
        """Open one nesting level at token i; ``close`` or the caller
        closes it once the nested operand is parsed."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.offset(i))

    def close(self) -> None:
        """Read the ')' that closes a nesting level, and close it."""
        if self.tokens[self.pos] != ")":
            raise self.unexpected(self.pos, ("')'",))
        self.pos += 1
        self.depth -= 1

    # A chain of + or of * is folded once, by one esum or eprod of all
    # its operands: folding operand by operand would fold the growing
    # result again at every step.  An operand alone is returned as it is.

    def additive(self) -> Expr:
        tokens = self.tokens
        start = self.pos
        term = self.multiplicative()
        op = tokens[self.pos]
        if op != "+" and op != "-":
            return term
        terms, starts = [term], [start]
        while op == "+" or op == "-":
            self.pos = start = self.pos + 1
            term = self.multiplicative()
            terms.append(term if op == "+" else self.negated(start, term))
            starts.append(start)
            op = tokens[self.pos]
        return self.chain(esum, terms, starts)

    def multiplicative(self) -> Expr:
        tokens = self.tokens
        start = self.pos
        factor = self.unary()
        op = tokens[self.pos]
        if op != "*" and op != "/":
            return factor
        factors, starts = [factor], [start]
        while op == "*" or op == "/":
            self.pos = start = self.pos + 1
            factor = self.unary()
            if op == "/":
                if isinstance(factor, Const) and factor.value and _small(q := factor.value):
                    factor = Const(Fraction(q.denominator, q.numerator))  # as _pow folds it
                else:
                    factor = self.step(start, _pow, factor, -1)
            factors.append(factor)
            starts.append(start)
            op = tokens[self.pos]
        if len(factors) == 2 and isinstance(factors[0], Const) and isinstance(factors[1], Const):
            a, b = factors[0].value, factors[1].value
            q = Fraction(a.numerator * b.numerator, a.denominator * b.denominator)
            if _small(a) and _small(q):
                return Const(q)  # as eprod folds it
        return self.chain(eprod, factors, starts)

    def unary(self) -> Expr:
        """A negation, or an atom raised to at most one power."""
        tokens = self.tokens
        at = self.pos
        token = tokens[at]
        self.pos = at + 1
        if token == "-":
            self.enter(at)
            operand = self.unary()
            self.depth -= 1
            return self.negated(at, operand)
        if token == "(":
            self.enter(at)
            base = self.additive()
            self.close()
        else:
            base = self.nodes.get(token)
            if base is None:
                base = self.atom(token, at)
        if tokens[self.pos] != "^":
            return base
        self.enter(self.pos)
        at = self.pos = self.pos + 1
        exponent = self.unary()  # right associativity: x^2^3 = x^(2^3)
        self.depth -= 1
        if not isinstance(exponent, Const) or exponent.value.denominator != 1:
            raise NonIntegerExponent(
                "exponent must reduce to an integer constant", self.offset(at)
            )
        return self.step(at, _pow, base, int(exponent.value))

    def atom(self, token: str, at: int) -> Expr:
        """The atom that token ``at`` starts, if no bracket: a number or
        a variable not met before, t, or a function."""
        kind = _KINDS[token[0]] if token else "eof"
        if kind == "number":
            try:
                # an integer skips Fraction's string parser
                leaf = Const(Fraction(token if "." in token else int(token)))
            except ValueError as exc:  # more digits than int() converts
                raise ParseError("number too long to represent", self.offset(at)) from exc
            self.nodes[token] = leaf
            return leaf
        if kind == "ident":
            if token == "t":
                if not self.allow_time:
                    raise TimeNotAllowed(
                        "the time symbol is not allowed here", self.offset(at)
                    )
                return Var(TIME_INDEX)
            if token in FUNCTIONS:
                if self.tokens[self.pos] != "(":
                    raise self.unexpected(self.pos, ("'(' after function name",))
                self.enter(self.pos)
                self.pos += 1
                arg = self.additive()
                self.close()
                return _func(token, arg)
            match = _VAR_PATTERN.match(token)
            if match:
                index = int(match.group(1))
                if index > self.n:
                    raise UnknownIdentifier(
                        f"variable {token} exceeds spatial dimension {self.n}", self.offset(at)
                    )
                leaf = self.nodes[token] = Var(index)
                return leaf
            raise UnknownIdentifier(f"unknown identifier {token!r}", self.offset(at))
        raise self.unexpected(at, ("number", "identifier", "'('", "'-'"))

    def negated(self, i: int, e: Expr) -> Expr:
        """-e, from the '-' or the operand at token i."""
        if isinstance(e, Const) and _small(e.value):
            return Const(-e.value)  # as eprod folds it
        return self.step(i, eprod, [MINUS_ONE, e])

    def step(self, i: int, fold, *args) -> Expr:
        """``fold(*args)``, a DomainError reported at token i."""
        try:
            return fold(*args)
        except DomainError as exc:
            raise ParseError(str(exc), self.offset(i)) from exc

    def chain(self, fold, operands: list[Expr], starts: list[int]) -> Expr:
        """``fold`` (esum or eprod) of a chain's normalized operands, which
        start at the tokens ``starts``.  Where it fails, the error is
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
        raise ParseError(str(error), self.offset(starts[hi - 1])) from error


def parse_expr(src: str, n: int, *, allow_time: bool = False) -> Expr:
    """Parse an expression over x1..xn, n >= 1 (and t when allowed); the
    result is normalized."""
    check_count(n, "spatial dimension")
    return _Parser(n).parse(src, allow_time)


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


def _field_expr(text, parser: _Parser, allow_time: bool, where: str) -> Expr:
    if not isinstance(text, str):
        raise FormatError(f"{where} must be an expression string")
    try:
        return parser.parse(text, allow_time)
    except ParseError as exc:
        raise type(exc)(f"{where}: {exc.message}", exc.offset, exc.expected) from exc


def _expr_vector(doc: dict, key: str, parser: _Parser, allow_time: bool) -> tuple[Expr, ...]:
    raw = _require(doc, key)
    if not isinstance(raw, list):
        raise FormatError(f"field {key!r} must be a list of expression strings")
    return tuple(
        _field_expr(text, parser, allow_time, f"{key}[{i}]") for i, text in enumerate(raw)
    )


def parse_problem(src: str) -> ProblemSpec:
    """Parse a JSON problem file: this checks the JSON types and the
    expression grammar, and ``ProblemSpec`` every rule of a problem,
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
    rho = RationalMatrix(tuple([
        tuple([_rational(cell, f"rho[{i}][{j}]") for j, cell in enumerate(row)])
        for i, row in enumerate(rho_raw)
    ]))

    terms_raw = _require(doc, "L")
    if not isinstance(terms_raw, list):
        raise FormatError("field 'L' must be a list of operator terms")
    terms, parser = [], _Parser(n)
    for i, entry in enumerate(terms_raw):
        if not isinstance(entry, dict):
            raise FormatError(f"L[{i}] must be an object")
        derivs = entry.get("derivs")  # a list's entries, or else what SpatialOperator refuses
        coeff = _field_expr(entry.get("coeff"), parser, False, f"L[{i}].coeff")
        terms.append(OperatorTerm(entry.get("row"), entry.get("col"), coeff,
                                  tuple(derivs) if isinstance(derivs, list) else derivs))
    operator = SpatialOperator(m, n, tuple(terms))

    f = _expr_vector(doc, "f", parser, True)
    u0 = _expr_vector(doc, "u0", parser, False)
    u1 = _expr_vector(doc, "u1", parser, False)
    # the parsed trees are normal already
    return ProblemSpec(m, n, rho, operator, f, u0, u1, order)


def load_problem(path: str) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())
