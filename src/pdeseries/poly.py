"""Sparse distributed polynomials over an interned table of atoms.

Both engines compute in this form.  A polynomial is a ``dict`` from an
exponent tuple (entry i: the exponent of atom i) to a nonzero
``Fraction``.  No tuple ends in a zero, so ``a == b`` decides
``a - b == 0`` exactly.  Atoms are variables, functions of a canonical
argument, and multi-term sums, which are atoms only when raised to a
negative power or to a positive one too large to multiply out.  Products
follow ``sympy.polys.rings.PolyElement.__mul__``; a derivative is the
derivation ``D_v p = sum over atoms g of dp/dg * D_v(g)``.  No identity
between atoms (``sin^2 + cos^2 = 1``) is applied, so a nonzero
polynomial may still vanish in value; checks sample those.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add as _plus

from .errors import DomainError
from .expr import (
    Const,
    Expr,
    Func,
    Pow,
    Prod,
    SamplePlan,
    Sum,
    Var,
    ZERO,
    _AT_ZERO,
    _factor_key,
    _outer_derivative,
    _sum_content,
    _term_key,
    eprod,
    esum,
    sampled_deviation,
    too_large_power,
)

Poly = dict  # exponent tuple -> nonzero Fraction

ONE: Poly = {(): Fraction(1)}

# A positive power of a sum is multiplied out when it has at most this
# many terms; a larger one, such as (1 + x1)^99999999, stays one atom.
EXPAND_LIMIT = 1000


def _trim(m: tuple) -> tuple:
    n = len(m)
    while n and not m[n - 1]:
        n -= 1
    return m[:n]


def _unit(i: int, e: int = 1) -> tuple:
    return (0,) * i + (e,)


def _iadd(out: Poly, p: Poly) -> None:
    """out += p in place; ``p`` is left alone."""
    get = out.get
    for m, c in p.items():
        s = get(m)
        if s is not None:
            c += s
            if not c:
                del out[m]
                continue
        out[m] = c


def add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    _iadd(out, b)
    return out


def sub(a: Poly, b: Poly) -> Poly:
    return add(a, scale(b, -1))


def scale(p: Poly, q) -> Poly:
    return {m: c * q for m, c in p.items()} if q else {}


def mul(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out: Poly = {}
    get = out.get
    terms_b = list(b.items())
    for ma, ca in a.items():
        la = len(ma)
        for mb, cb in terms_b:
            lb = len(mb)
            m = tuple(map(_plus, ma, mb))
            if la > lb:
                m += ma[lb:]
            elif lb > la:
                m += mb[la:]
            elif m and not m[-1]:
                m = _trim(m)  # a negative exponent cancelled the last one
            c = get(m)
            out[m] = ca * cb if c is None else c + ca * cb
    return {m: c for m, c in out.items() if c}


class Ring:
    """Atom table, tree conversions and derivatives for one problem.

    ``trees[i]`` is atom i as a canonical tree: a ``Var``, a ``Func`` or
    a primitive ``Sum``.  ``polys[i]`` is what its derivative reads: the
    function's argument, the sum itself, or None.  ``known`` maps every
    tree converted or built here to its polynomial.  Polynomials of
    different rings must not meet."""

    def __init__(self):
        self.trees: list[Expr] = []
        self.polys: list[Poly | None] = []
        self.index: dict[Expr, int] = {}
        self.known: dict[Expr, Poly] = {}
        self.derivatives: dict[tuple[int, int], Poly] = {}

    def atom(self, tree: Expr, poly: Poly | None = None) -> int:
        i = self.index.get(tree)
        if i is None:
            i = self.index[tree] = len(self.trees)
            self.trees.append(tree)
            self.polys.append(poly)
        return i

    def from_tree(self, e: Expr) -> Poly:
        """The polynomial of a tree, each distinct subtree converted once.
        Raises DomainError where the tree raises a zero polynomial to a
        negative power, or a constant past the digit limit."""
        p = self.known.get(e)
        if p is None:
            p = self.known[e] = self._convert(e, {})
        return p

    def _convert(self, e: Expr, memo: dict) -> Poly:
        if isinstance(e, Const):
            return {(): e.value} if e.value else {}
        if isinstance(e, Var):
            return {_unit(self.atom(e)): ONE[()]}
        p = memo.get(e)
        if p is not None:
            return p
        if isinstance(e, Sum):
            p = {}
            for t in e.terms:
                _iadd(p, self._convert(t, memo))
        elif isinstance(e, Prod):
            p = ONE
            for f in e.factors:
                p = mul(p, self._convert(f, memo))
        elif isinstance(e, Pow):
            p = self.power(self._convert(e.base, memo), e.exponent)
        elif isinstance(e, Func):
            p = self.func(e.name, self._convert(e.arg, memo))
        else:
            raise TypeError(f"not an expression: {e!r}")
        memo[e] = p
        return p

    def to_tree(self, p: Poly) -> Expr:
        """Canonical tree of ``p``: the tree ``esum`` and ``eprod`` make
        of its terms, put together directly."""
        trees, terms = self.trees, []
        for m, c in p.items():
            parts = [trees[i] if e == 1 else Pow(trees[i], e) for i, e in enumerate(m) if e]
            parts.sort(key=_factor_key)
            terms.append((c, parts))
        if any(c != 1 and len(f) == 1 and isinstance(f[0], Sum) for c, f in terms):
            # a rational times a sum atom to the first power: eprod spreads it
            tree = esum(eprod([Const(c), *f]) for c, f in terms)
        else:
            const = [Const(c) for c, f in terms if not f]
            terms = sorted((
                (f[0] if len(f) == 1 else Prod(tuple(f))) if c == 1 else Prod((Const(c), *f))
                for c, f in terms if f
            ), key=_term_key)
            terms[:0] = const
            tree = Sum(tuple(terms)) if len(terms) > 1 else terms[0] if terms else ZERO
        self.known.setdefault(tree, p)
        return tree

    def power(self, p: Poly, k: int) -> Poly:
        if k == 0:
            return ONE
        if not p:
            if k < 0:
                raise DomainError("zero raised to a negative power")
            return {}
        if len(p) == 1:
            ((m, c),) = p.items()
            if too_large_power(c, k):
                raise DomainError("power of a constant too large to represent")
            mono = [e * k for e in m]
            out = ONE
            for i, e in enumerate(mono):
                if e > 0 and isinstance(self.trees[i], Sum):
                    # (S^-j)^-k: a positive power of a sum, multiplied out
                    mono[i] = 0
                    out = mul(out, self.power(self.polys[i], e))
            return mul(out, {_trim(tuple(mono)): c ** k})
        if k > 0 and math.comb(len(p) + k - 1, k) <= EXPAND_LIMIT:
            out = p
            for _ in range(k - 1):
                out = mul(out, p)
            return out
        content, primitive = _sum_content(self.to_tree(p))
        if too_large_power(content, k):
            raise DomainError("power of a constant too large to represent")
        return {_unit(self.atom(primitive, scale(p, 1 / content)), k): content ** k}

    def func(self, name: str, a: Poly) -> Poly:
        if not a and name in _AT_ZERO:
            return self.from_tree(_AT_ZERO[name])
        if name == "ln" and a == ONE:
            return {}
        return {_unit(self.atom(Func(name, self.to_tree(a)), a)): ONE[()]}

    def diff(self, p: Poly, v: int) -> Poly:
        """Partial derivative in variable ``v``."""
        out: Poly = {}
        for i in sorted({i for m in p for i, e in enumerate(m) if e}):
            d = self._atom_derivative(i, v)
            if not d:
                continue
            partial = {}  # dp/d(atom i)
            for m, c in p.items():
                if len(m) > i and m[i]:
                    e = m[i]
                    partial[_trim(m[:i] + (e - 1,) + m[i + 1:])] = c * e
            _iadd(out, partial if d == ONE else mul(partial, d))
        return out

    def _atom_derivative(self, i: int, v: int) -> Poly:
        """D_v of atom i, taken once per ring."""
        d = self.derivatives.get((i, v))
        if d is None:
            tree, poly = self.trees[i], self.polys[i]
            if isinstance(tree, Var):
                d = ONE if tree.index == v else {}
            elif isinstance(tree, Sum):
                d = self.diff(poly, v)
            else:
                inner = self.diff(poly, v)
                d = mul(self.from_tree(_outer_derivative(tree)), inner) if inner else {}
            self.derivatives[i, v] = d
        return d

    def deviation(self, a: Poly, b: Poly, plan: SamplePlan) -> float:
        """0.0 when ``a - b`` is the zero polynomial, decided exactly;
        otherwise the sampled deviation of the two trees."""
        if a == b:
            return 0.0
        return sampled_deviation(self.to_tree(a), self.to_tree(b), plan)
