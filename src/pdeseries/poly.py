"""Sparse distributed polynomials over an interned table of atoms.

Both engines compute in this form.  A polynomial is a ``Poly``: a
``dict`` from a key, the sum of e_i * 2^(W*i) over the exponents e_i
of atoms i in signed W-bit fields (Monagan & Pearce, CASC 2007), to a
nonzero ``int`` numerator, over one positive ``int`` denominator, as in
FLINT's ``fmpq_poly``.  Keys add as monomials multiply; the constant's
is 0.  In normal form the denominator is coprime to the numerators'
content and zero is no terms over 1.  Equal normal forms are equal
values; unequal ones are sampled.

``mul`` forms one product, ``scale`` one rational multiple, and any sum
of them is one pass of ``dot(pairs, start)``: ``start`` plus each a*b,
``a`` a ``Poly`` or a rational weight, one integer sum per monomial and
no product built on its own; ``add`` and ``sub`` are ``dot`` too.  None
of them checks.  A product adds exponents, so the engines form each in
``Ring.product`` or ``Ring.dot``, which refuse a ``top``, a bound on the
|e_i|, of 2^(W-1) or more; rational scalings and sums need no check.

``Fraction`` is met only at the edges: constants of trees read and
written (``Ring.from_tree``, and ``Ring.to_tree``, which builds through
``esum`` and ``eprod``), the rational weights of ``scale`` and ``dot``
(numerator times n, denominator times d), and a sum atom's content.

Atoms are variables, functions of a canonical argument, and multi-term
sums, which are atoms only when raised to a negative power or to a
positive one too large to multiply out.  Products follow
``sympy.polys.rings.PolyElement.__mul__``; a derivative is the
derivation ``D_v p = sum over atoms g of dp/dg * D_v(g)``.  No identity
between atoms (``sin^2 + cos^2 = 1``, a sum atom = its terms) is applied,
so a nonzero polynomial may still vanish in value; checks sample those.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

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
    _func,
    _sum_content,
    eprod,
    esum,
    sampled_deviation,
    too_large_power,
)


class Poly:
    """``num`` over ``den`` in normal form; the constructor normalises.
    ``num`` must hold nonzero ints under keys whose |exponents| ``top``
    bounds, and no field is changed afterwards.  Falsy exactly when zero."""

    __slots__ = ("num", "den", "top")

    def __init__(self, num: dict, den: int = 1, top: int = 0):
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {m: c // g for m, c in num.items()}
        self.num, self.den, self.top = num, den, top

    def __len__(self) -> int:
        return len(self.num)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.den == other.den and self.num == other.num

    def __repr__(self) -> str:
        return f"Poly({self.num!r}, {self.den})"


ZERO = Poly({})
ONE = Poly({0: 1})


def const(q) -> Poly:
    """The constant polynomial of the rational or int ``q``."""
    return Poly({0: q.numerator}, q.denominator) if q else ZERO


# the functions whose derivatives cycle: f' = sign * partner, so D cos = -sin
PARTNERS = {"exp": ("exp", 1), "sin": ("cos", 1), "cos": ("sin", -1),
            "sinh": ("cosh", 1), "cosh": ("sinh", 1)}

# A positive power of a sum is multiplied out when it has at most this
# many terms; a larger one, such as (1 + x1)^99999999, stays one atom.
EXPAND_LIMIT = 1000


def _nonzero(num: dict) -> dict:
    return {m: c for m, c in num.items() if c} if 0 in num.values() else num


def _accumulate(out: dict, a: Poly, b: Poly, f: int) -> dict:
    """``out`` plus f * a.num * b.num, one key sum per pair of terms."""
    na, nb = a.num, b.num
    if len(na) < len(nb):
        na, nb = nb, na
    get, terms_b = out.get, list(nb.items())
    for ma, ca in na.items():
        ca *= f
        for mb, cb in terms_b:
            m = ma + mb
            s = get(m)
            out[m] = ca * cb if s is None else s + ca * cb
    return out


def dot(pairs, start: Poly = ZERO) -> Poly:
    """``start`` plus the sum of a*b over ``pairs``, each ``a`` a ``Poly``
    or a rational weight and each ``b`` a ``Poly``: the lcm of the
    denominators, then one integer sum per monomial, with no product or
    scaled copy built on its own.  The ``top`` is the largest over the
    nonzero parts (a.top + b.top, b.top for a weight), so ``Ring.dot``
    refuses the sum where it would refuse a product, cancelled or not."""
    live = [(a, b) for a, b in [(1, start), *pairs] if a and b.num]
    if len(live) < 2:  # no sum to take
        a, b = live[0] if live else (1, ZERO)
        return mul(a, b) if type(a) is Poly else scale(b, a)
    den = math.lcm(*[b.den * (a.den if type(a) is Poly else a.denominator) for a, b in live])
    out, tops = {}, []
    get = out.get
    for a, b in live:
        if type(a) is Poly:
            _accumulate(out, a, b, den // (a.den * b.den))
            tops.append(a.top + b.top)
        else:  # a weight: one pass over b
            f = den // (b.den * a.denominator) * a.numerator
            for m, c in b.num.items():
                s = get(m)
                out[m] = c * f if s is None else s + c * f
            tops.append(b.top)
    return Poly(_nonzero(out), den, max(tops))


def add(*parts: Poly) -> Poly:
    """The sum of ``parts``: ``dot`` with unit weights."""
    parts = [p for p in parts if p.num]
    if len(parts) < 2:  # no sum to take
        return parts[0] if parts else ZERO
    return dot([(1, p) for p in parts])


def sub(a: Poly, b: Poly) -> Poly:
    return dot([(-1, b)], a)


def scale(p: Poly, q) -> Poly:
    """``p`` times the rational or int ``q``."""
    if not q or not p.num:
        return ZERO
    n, d = q.numerator, q.denominator
    if n == 1 and d == 1:
        return p
    return Poly({m: c * n for m, c in p.num.items()}, p.den * d, p.top)


def mul(a: Poly, b: Poly) -> Poly:
    """One product, unchecked: ``Ring.product`` bounds the ``top``."""
    return Poly(_nonzero(_accumulate({}, a, b, 1)), a.den * b.den, a.top + b.top)


def _reach(e: Expr) -> int:
    """A bound on the exponents ``Ring.from_tree`` makes of ``e``."""
    if isinstance(e, (Const, Var)):
        return int(isinstance(e, Var))
    if isinstance(e, (Pow, Func)):
        return abs(e.exponent) * _reach(e.base) if isinstance(e, Pow) else max(1, _reach(e.arg))
    return max(map(_reach, e.terms)) if isinstance(e, Sum) else sum(map(_reach, e.factors))


class Ring:
    """Atom table, conversions, derivatives and checked products of one problem.

    ``trees[i]`` is atom i as a canonical tree: a ``Var``, a ``Func`` or
    a primitive ``Sum``.  ``polys[i]`` is what its derivative reads: the
    function's argument, the sum itself, or None.  ``known`` maps every
    tree converted here, but a rational times one factor, to its
    polynomial.  Key fields are ``width`` bits, 32 over the exponents
    ``from_tree`` makes of ``trees`` and at least 64.  Polynomials of
    different rings must not meet."""

    def __init__(self, *trees: Expr):
        width = max(64, max(map(_reach, trees), default=0).bit_length() + 32)
        self.width, self.half, self.mask, self.bias = width, 1 << (width - 1), (1 << width) - 1, 0
        self.trees: list[Expr] = []
        self.polys: list[Poly | None] = []
        self.index: dict[Expr, int] = {}
        self.known: dict[Expr, Poly] = {}
        self.derivatives: dict[tuple[int, int], Poly] = {}

    def exponents(self, key: int) -> tuple[int, ...]:
        """The exponents packed in ``key``, without trailing zeros."""
        out = []
        while key:  # field 0 is the residue of the key in [-half, half)
            out.append(((key + self.half) & self.mask) - self.half)
            key = (key - out[-1]) >> self.width
        return tuple(out)

    def checked(self, p: Poly) -> Poly:
        """``p``, refused where a field may not hold its exponents."""
        if p.top >= self.half:
            raise DomainError("exponent too large to represent")
        return p

    def product(self, factors) -> Poly:
        """The product of ``factors``, refused as soon as part of it may not fit."""
        out = ONE
        for f in factors:  # a leading ONE is skipped
            out = f if out is ONE else self.checked(mul(out, f))
        return self.checked(out)

    def dot(self, pairs, start: Poly = ZERO) -> Poly:
        """``dot(pairs, start)``, checked."""
        return self.checked(dot(pairs, start))

    def atom(self, tree: Expr, poly: Poly | None = None) -> int:
        """The key of the atom ``tree``, added to the table if new."""
        i = self.index.get(tree)
        if i is None:
            i = self.index[tree] = len(self.trees)
            self.trees.append(tree)
            self.polys.append(poly)
            self.bias += self.half << self.width * i  # 2^(W-1) in each atom's field
        return 1 << self.width * i

    def from_tree(self, e: Expr) -> Poly:
        """The polynomial of a tree, each compound subtree converted once
        per ring and kept in ``known``.  Raises DomainError where the tree
        raises a zero polynomial to a negative power, or a constant past
        the digit limit or an exponent past the fields."""
        if isinstance(e, Const):
            return const(e.value)
        if isinstance(e, Var):
            return Poly({self.atom(e): 1}, 1, 1)
        if isinstance(e, Prod) and len(e.factors) == 2 and isinstance(e.factors[0], Const):
            # a rational times one factor: scaling the factor's polynomial
            # costs less than hashing the product to keep it
            return scale(self.from_tree(e.factors[1]), e.factors[0].value)
        p = self.known.get(e)
        if p is not None:
            return p
        if isinstance(e, Sum):
            p = add(*(self.from_tree(t) for t in e.terms))
        elif isinstance(e, Prod):
            p = self.product(self.from_tree(f) for f in e.factors)
        elif isinstance(e, Pow):
            p = self.power(self.from_tree(e.base), e.exponent)
        elif isinstance(e, Func):
            a = self.from_tree(e.arg)
            # a function of a variable is its own atom
            p = Poly({self.atom(e, a): 1}, 1, 1) if isinstance(e.arg, Var) else self.func(e.name, a)
        else:
            raise TypeError(f"not an expression: {e!r}")
        self.known[e] = p
        return p

    def to_tree(self, p: Poly) -> Expr:
        """Canonical tree of ``p``: the ``esum`` of its terms, each the
        ``eprod`` of its rational and atom powers (DomainError from
        ``eprod`` where a rational has too many digits to print)."""
        trees, den = self.trees, p.den
        if den == 1 and len(p.num) == 1:  # a variable or function atom is its own tree
            ((m, c),) = p.num.items()
            i = (m.bit_length() - 1) // self.width
            if c == 1 and m > 0 and m == 1 << self.width * i and not isinstance(trees[i], Sum):
                return trees[i]
        return esum(
            eprod([Const(Fraction(c, den)), *(trees[i] if e == 1 else Pow(trees[i], e)
                                              for i, e in enumerate(self.exponents(m)) if e)])
            for m, c in p.num.items()
        )

    def factored(self, p: Poly) -> Expr | None:
        """The tree of ``p`` with each power s^k of s = 1 - tanh(a)^2,
        tanh(a) an atom, taken out, k as large as divides, where the
        quotient and s have fewer terms and atom factors than ``p``; None
        where none is.  tanh's derivative is s, which its jets multiply out."""
        def size(q: Poly) -> int:
            return sum(1 + sum(map(bool, self.exponents(m))) for m in q.num)

        factors = []
        for i, tree in enumerate(self.trees):
            k, q = 0, p
            while isinstance(tree, Func) and tree.name == "tanh" and (r := self._over_sech2(q, i)):
                k, q = k + 1, r
            if k and size(q) + 3 < size(p):
                s = self.to_tree(Poly({0: 1, 2 << self.width * i: -1}))
                p, factors = q, [*factors, s if k == 1 else Pow(s, k)]
        return eprod([self.to_tree(p), *factors]) if factors else None

    def _over_sech2(self, p: Poly, i: int) -> Poly | None:
        """p / (1 - T^2), T atom i, or None where that does not divide a
        nonzero p: per monomial of the other atoms and parity of T's
        exponent e, the quotient's coefficient at e is the running sum of
        p's, which ends at 0, as p does at T = 1 and at every atom 1."""
        if not p.num or sum(p.num.values()):
            return None
        shift, runs, out = self.width * i, {}, {}
        for m, c in p.num.items():
            e = ((m + self.bias) >> shift & self.mask) - self.half
            runs.setdefault((m - (e << shift), e & 1), {})[e] = c
        for (rest, _), cs in runs.items():
            run = 0
            for e in range(min(cs), max(cs) + 1, 2):
                run += cs.get(e, 0)
                if run:
                    out[rest + (e << shift)] = run
            if run:
                return None
        return Poly(out, p.den, p.top)

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
            if too_large_power(max(abs(c), d), k):  # the digits of (c/d)^k, c/d not made
                raise DomainError("power of a constant too large to represent")
            # c and d are coprime, and so are their powers
            c, d = (c ** k, d ** k) if k > 0 else (d ** -k, c ** -k)
            if d < 0:
                c, d = -c, -d
            # (S^-j)^-k: a positive power of a sum, multiplied out
            sums = [(i, e * k) for i, e in enumerate(self.exponents(m))
                    if e * k > 0 and isinstance(self.trees[i], Sum)]
            key = m * k - sum(j << self.width * i for i, j in sums)
            return self.product(chain((self.power(self.polys[i], j) for i, j in sums),
                                      [Poly({key: c}, d, abs(k) * p.top)]))
        if k > 0 and math.comb(len(p.num) + k - 1, k) <= EXPAND_LIMIT:
            return self.product([p] * k)
        content, primitive = _sum_content(self.to_tree(p))
        if too_large_power(content, k):
            raise DomainError("power of a constant too large to represent")
        q = content ** k
        key = k * self.atom(primitive, scale(p, 1 / content))
        return self.checked(Poly({key: q.numerator}, q.denominator, abs(k)))

    def func(self, name: str, a: Poly) -> Poly:
        """The atom of ``expr._func(name, a)``, or the value it folds to."""
        tree = _func(name, self.to_tree(a))
        if isinstance(tree, Func):
            return Poly({self.atom(tree, a): 1}, 1, 1)
        return self.from_tree(tree)

    def outer(self, name: str, a: Poly) -> Poly:
        """f'(a) for f = ``name``: each function's derivative rule, stated once."""
        if name in PARTNERS:
            partner, sign = PARTNERS[name]
            return scale(self.func(partner, a), sign)
        if name == "ln":
            return self.power(a, -1)
        t = self.func("tanh", a)
        return self.dot([(scale(t, -1), t)], ONE)

    def diff(self, p: Poly, v: int) -> Poly:
        """Partial derivative in variable ``v``: for each atom i that a key
        holds (read with 2^(W-1) added to each field), dp/d(atom i) * D_v.
        Where D_v is one term k*key over 1 (a variable, exp, sin, cos, sinh,
        cosh), c*atom^e*rest moves to c*e*k*atom^(e-1)*key*rest in one dict
        shared by all such atoms; the other dp/d(atom i) multiply by D_v."""
        if not p.num:
            return ZERO
        width, half, mask, bias = self.width, self.half, self.mask, self.bias
        terms = [(m + bias, m, c) for m, c in p.num.items()]
        held = 0
        for b, _, _ in terms:
            held |= b ^ bias
        out, top, pairs, i, shift = {}, 0, [], 0, 0
        while held:  # field i of held is nonzero where a term holds atom i
            if held & mask and (d := self._atom_derivative(i, v)):
                if len(d.num) == 1 and d.den == 1:
                    ((key, k),) = d.num.items()
                    target, top = out, max(top, d.top)
                else:
                    key, k, target = 0, 1, {}
                step, get = key - (1 << shift), target.get
                for b, m, c in terms:
                    e = (b >> shift & mask) - half
                    if e:
                        s = get(m + step)
                        target[m + step] = c * e * k if s is None else s + c * e * k
                if target is not out:
                    pairs.append((Poly(target, p.den, p.top + 1), d))
            held, i, shift = held >> width, i + 1, shift + width
        start = self.checked(Poly(_nonzero(out), p.den, p.top + 1 + top)) if out else ZERO
        return self.dot(pairs, start) if pairs else start

    def _atom_derivative(self, i: int, v: int) -> Poly:
        """D_v of atom i, taken once per ring."""
        d = self.derivatives.get((i, v))
        if d is None:
            tree, poly = self.trees[i], self.polys[i]
            if isinstance(tree, Var):
                d = ONE if tree.index == v else ZERO
            else:
                d = self.diff(poly, v)
                if d and isinstance(tree, Func):  # f(a): f'(a) * D_v a
                    d = self.product([self.outer(tree.name, poly), d])
            self.derivatives[i, v] = d
        return d

    def deviation(self, a: Poly, b: Poly, plan: SamplePlan) -> float:
        """0.0 when ``a - b`` is the zero polynomial, decided exactly;
        otherwise the sampled deviation of the two trees."""
        if a == b:
            return 0.0
        return sampled_deviation(self.to_tree(a), self.to_tree(b), plan)
