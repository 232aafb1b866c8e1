"""Sparse distributed polynomials over an interned table of atoms.

Both engines compute in this form.  A polynomial is a ``Poly``: a
``dict`` from an exponent tuple (entry i: the exponent of atom i) to a
nonzero ``int`` numerator, over one positive ``int`` denominator, as in
FLINT's ``fmpq_poly`` and ``sympy.polys.rings.PolyElement.clear_denoms``.
It is kept in normal form: the denominator is coprime to the content of
the numerators, no tuple ends in a zero, and zero is no terms over 1.
Each operation makes its result with one ``math.gcd`` over the
denominator and the numerators, so ``a == b`` decides ``a - b == 0``
exactly, and a polynomial is never changed once made.

``Fraction`` is met only at the edges: constants of trees read and
written (``Ring.from_tree``, and ``Ring.to_tree``, which builds through
``esum`` and ``eprod``), the rational factors ``scale`` applies (as
numerator times n, denominator times d), and a sum atom's content.

Atoms are variables, functions of a canonical argument, and multi-term
sums, which are atoms only when raised to a negative power or to a
positive one too large to multiply out.  Products follow
``sympy.polys.rings.PolyElement.__mul__``; a derivative is the
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
    _AT_ZERO,
    _outer_derivative,
    _sum_content,
    eprod,
    esum,
    sampled_deviation,
    too_large_power,
)


class Poly:
    """``num`` over ``den`` in normal form; the constructor normalises.
    ``num`` must hold nonzero ints under trimmed tuples, and neither
    field is changed afterwards.  Falsy exactly when zero."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: int = 1):
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {m: c // g for m, c in num.items()}
        self.num, self.den = num, den

    def __len__(self) -> int:
        return len(self.num)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.den == other.den and self.num == other.num

    def __repr__(self) -> str:
        return f"Poly({self.num!r}, {self.den})"


ZERO = Poly({})
ONE = Poly({(): 1})


def const(q) -> Poly:
    """The constant polynomial of the rational or int ``q``."""
    return Poly({(): q.numerator}, q.denominator) if q else ZERO


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


def _nonzero(num: dict) -> dict:
    return {m: c for m, c in num.items() if c} if 0 in num.values() else num


def add(*parts: Poly) -> Poly:
    """The sum of ``parts``: the lcm of their denominators, then one
    integer sum per monomial."""
    parts = [p for p in parts if p.num]
    if len(parts) < 2:
        return parts[0] if parts else ZERO
    den = math.lcm(*[p.den for p in parts])
    out: dict = {}
    get = out.get
    for p in parts:
        f = den // p.den
        for m, c in p.num.items():
            s = get(m)
            out[m] = c * f if s is None else s + c * f
    return Poly(_nonzero(out), den)


def sub(a: Poly, b: Poly) -> Poly:
    return add(a, scale(b, -1))


def scale(p: Poly, q) -> Poly:
    """``p`` times the rational or int ``q``."""
    if not q or not p.num:
        return ZERO
    n, d = q.numerator, q.denominator
    if n == 1 and d == 1:
        return p
    return Poly({m: c * n for m, c in p.num.items()}, p.den * d)


def mul(a: Poly, b: Poly) -> Poly:
    na, nb = a.num, b.num
    if len(na) < len(nb):
        na, nb = nb, na
    out: dict = {}
    get = out.get
    terms_b = list(nb.items())
    for ma, ca in na.items():
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
    return Poly(_nonzero(out), a.den * b.den)


class Ring:
    """Atom table, tree conversions and derivatives for one problem.

    ``trees[i]`` is atom i as a canonical tree: a ``Var``, a ``Func`` or
    a primitive ``Sum``.  ``polys[i]`` is what its derivative reads: the
    function's argument, the sum itself, or None.  ``known`` maps every
    tree converted here to its polynomial.  ``printed`` maps a monomial
    to what ``parser.print_poly`` writes it from, and is filled there.
    Polynomials of different rings must not meet."""

    def __init__(self):
        self.trees: list[Expr] = []
        self.polys: list[Poly | None] = []
        self.index: dict[Expr, int] = {}
        self.known: dict[Expr, Poly] = {}
        self.derivatives: dict[tuple[int, int], Poly] = {}
        self.printed: dict[tuple, tuple] = {}

    def atom(self, tree: Expr, poly: Poly | None = None) -> int:
        i = self.index.get(tree)
        if i is None:
            i = self.index[tree] = len(self.trees)
            self.trees.append(tree)
            self.polys.append(poly)
        return i

    def from_tree(self, e: Expr) -> Poly:
        """The polynomial of a tree, each compound subtree converted once
        per ring and kept in ``known``.  Raises DomainError where the tree
        raises a zero polynomial to a negative power, or a constant past
        the digit limit."""
        if isinstance(e, Const):
            return const(e.value)
        if isinstance(e, Var):
            return Poly({_unit(self.atom(e)): 1})
        p = self.known.get(e)
        if p is not None:
            return p
        if isinstance(e, Sum):
            p = add(*(self.from_tree(t) for t in e.terms))
        elif isinstance(e, Prod):
            p = ONE
            for f in e.factors:
                p = mul(p, self.from_tree(f))
        elif isinstance(e, Pow):
            p = self.power(self.from_tree(e.base), e.exponent)
        elif isinstance(e, Func):
            a = self.from_tree(e.arg)
            # a function of a variable is its own atom
            p = Poly({_unit(self.atom(e, a)): 1}) if isinstance(e.arg, Var) else self.func(e.name, a)
        else:
            raise TypeError(f"not an expression: {e!r}")
        self.known[e] = p
        return p

    def to_tree(self, p: Poly) -> Expr:
        """Canonical tree of ``p``: the ``esum`` of its terms, each the
        ``eprod`` of its rational and atom powers (DomainError from
        ``eprod`` where a rational has too many digits to print)."""
        trees, den = self.trees, p.den
        return esum(
            eprod([Const(Fraction(c, den)),
                   *(trees[i] if e == 1 else Pow(trees[i], e) for i, e in enumerate(m) if e)])
            for m, c in p.num.items()
        )

    def power(self, p: Poly, k: int) -> Poly:
        if k == 0:
            return ONE
        if k == 1:
            return p
        if not p.num:
            if k < 0:
                raise DomainError("zero raised to a negative power")
            return ZERO
        if len(p.num) == 1:
            ((m, c),) = p.num.items()
            d = p.den
            if too_large_power(Fraction(c, d), k):
                raise DomainError("power of a constant too large to represent")
            # c and d are coprime, and so are their powers
            c, d = (c ** k, d ** k) if k > 0 else (d ** -k, c ** -k)
            if d < 0:
                c, d = -c, -d
            mono = [e * k for e in m]
            out = ONE
            for i, e in enumerate(mono):
                if e > 0 and isinstance(self.trees[i], Sum):
                    # (S^-j)^-k: a positive power of a sum, multiplied out
                    mono[i] = 0
                    out = mul(out, self.power(self.polys[i], e))
            return mul(out, Poly({_trim(tuple(mono)): c}, d))
        if k > 0 and math.comb(len(p.num) + k - 1, k) <= EXPAND_LIMIT:
            out = p
            for _ in range(k - 1):
                out = mul(out, p)
            return out
        content, primitive = _sum_content(self.to_tree(p))
        if too_large_power(content, k):
            raise DomainError("power of a constant too large to represent")
        q = content ** k
        return Poly({_unit(self.atom(primitive, scale(p, 1 / content)), k): q.numerator},
                    q.denominator)

    def func(self, name: str, a: Poly) -> Poly:
        if not a and name in _AT_ZERO:
            return self.from_tree(_AT_ZERO[name])
        if name == "ln" and a == ONE:
            return ZERO
        return Poly({_unit(self.atom(Func(name, self.to_tree(a)), a)): 1})

    def diff(self, p: Poly, v: int) -> Poly:
        """Partial derivative in variable ``v``.  One pass over the terms
        builds dp/d(atom i) for every atom i whose derivative is nonzero."""
        partials: dict = {}  # atom i -> numerators of dp/d(atom i)
        constant = set()  # atoms whose derivative is zero
        for m, c in p.num.items():
            last = len(m) - 1
            for i, e in enumerate(m):
                if not e or i in constant:
                    continue
                partial = partials.get(i)
                if partial is None:
                    if not self._atom_derivative(i, v):
                        constant.add(i)
                        continue
                    partial = partials[i] = {}
                if i < last:
                    partial[m[:i] + (e - 1,) + m[i + 1:]] = c * e
                else:
                    partial[_trim(m[:i]) if e == 1 else m[:i] + (e - 1,)] = c * e
        parts = []
        for i, partial in partials.items():
            d, partial = self.derivatives[i, v], Poly(partial, p.den)
            parts.append(partial if d == ONE else mul(partial, d))
        return add(*parts)

    def _atom_derivative(self, i: int, v: int) -> Poly:
        """D_v of atom i, taken once per ring."""
        d = self.derivatives.get((i, v))
        if d is None:
            tree, poly = self.trees[i], self.polys[i]
            if isinstance(tree, Var):
                d = ONE if tree.index == v else ZERO
            elif isinstance(tree, Sum):
                d = self.diff(poly, v)
            else:
                inner = self.diff(poly, v)
                d = mul(self.from_tree(_outer_derivative(tree)), inner) if inner else ZERO
            self.derivatives[i, v] = d
        return d

    def deviation(self, a: Poly, b: Poly, plan: SamplePlan) -> float:
        """0.0 when ``a - b`` is the zero polynomial, decided exactly;
        otherwise the sampled deviation of the two trees."""
        if a == b:
            return 0.0
        return sampled_deviation(self.to_tree(a), self.to_tree(b), plan)
