"""Truncated multivariate Taylor series ("jets") with float coefficients.

The correctness gate uses jets as an oracle that shares no code with
pdeseries: a jet holds the Taylor coefficients of a function about a
fixed point, up to total degree ``prec``, so derivatives of any order up
to ``prec`` are exact at that point.  Only the constant term is read at
the end, which stays exact as long as ``prec`` never drops below zero.
"""

from __future__ import annotations

import math

Monomial = tuple[int, ...]


class Jet:
    __slots__ = ("c", "prec", "nvars")

    def __init__(self, c: dict[Monomial, float], prec: int, nvars: int):
        self.c = c
        self.prec = prec
        self.nvars = nvars

    @classmethod
    def const(cls, value: float, prec: int, nvars: int) -> "Jet":
        return cls({(0,) * nvars: float(value)}, prec, nvars)

    @classmethod
    def var(cls, index: int, at: float, prec: int, nvars: int) -> "Jet":
        """The variable with 0-based ``index``, expanded about ``at``."""
        zero = (0,) * nvars
        unit = tuple(1 if i == index else 0 for i in range(nvars))
        c = {zero: float(at)}
        if prec >= 1:
            c[unit] = 1.0
        return cls(c, prec, nvars)

    @property
    def value(self) -> float:
        return self.c.get((0,) * self.nvars, 0.0)

    def __add__(self, other: "Jet") -> "Jet":
        prec = min(self.prec, other.prec)
        out = {k: v for k, v in self.c.items() if sum(k) <= prec}
        for k, v in other.c.items():
            if sum(k) <= prec:
                out[k] = out.get(k, 0.0) + v
        return Jet(out, prec, self.nvars)

    def __neg__(self) -> "Jet":
        return self.scale(-1.0)

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def __pow__(self, k: int) -> "Jet":
        return self.power(k)

    def scale(self, q: float) -> "Jet":
        return Jet({k: q * v for k, v in self.c.items()}, self.prec, self.nvars)

    def __mul__(self, other: "Jet") -> "Jet":
        prec = min(self.prec, other.prec)
        out: dict[Monomial, float] = {}
        for ka, va in self.c.items():
            da = sum(ka)
            for kb, vb in other.c.items():
                if da + sum(kb) > prec:
                    continue
                k = tuple(a + b for a, b in zip(ka, kb))
                out[k] = out.get(k, 0.0) + va * vb
        return Jet(out, prec, self.nvars)

    def power(self, k: int) -> "Jet":
        if k < 0:
            raise ValueError("jets support nonnegative powers only")
        out = Jet.const(1.0, self.prec, self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def deriv(self, index: int) -> "Jet":
        """Partial derivative in the variable with 0-based ``index``;
        one degree of precision is used up."""
        out = {}
        for k, v in self.c.items():
            if k[index]:
                lowered = tuple(a - (i == index) for i, a in enumerate(k))
                out[lowered] = v * k[index]
        return Jet(out, self.prec - 1, self.nvars)

    def apply(self, name: str) -> "Jet":
        """f(self) for f in sin, cos, exp, sinh, cosh, tanh, as
        sum_k f^(k)(a)/k! * (self - a)^k with a the constant term."""
        a = self.value
        h = self + Jet.const(-a, self.prec, self.nvars)
        derivs = _derivatives(name, a, self.prec)
        out = Jet.const(derivs[0], self.prec, self.nvars)
        h_pow = Jet.const(1.0, self.prec, self.nvars)
        for k in range(1, self.prec + 1):
            h_pow = h_pow * h
            out = out + h_pow.scale(derivs[k] / math.factorial(k))
        return out


def _derivatives(name: str, a: float, count: int) -> list[float]:
    """f(a), f'(a), ..., f^(count)(a)."""
    n = count + 1
    if name == "sin":
        cycle = [math.sin(a), math.cos(a), -math.sin(a), -math.cos(a)]
        return [cycle[k % 4] for k in range(n)]
    if name == "cos":
        cycle = [math.cos(a), -math.sin(a), -math.cos(a), math.sin(a)]
        return [cycle[k % 4] for k in range(n)]
    if name == "exp":
        return [math.exp(a)] * n
    if name == "sinh":
        return [math.sinh(a) if k % 2 == 0 else math.cosh(a) for k in range(n)]
    if name == "cosh":
        return [math.cosh(a) if k % 2 == 0 else math.sinh(a) for k in range(n)]
    if name == "tanh":
        # d/dx P(tanh x) = P'(y) (1 - y^2) with y = tanh x; P as a
        # coefficient list in y, starting from P_0(y) = y.
        y = math.tanh(a)
        poly = [0.0, 1.0]
        out = []
        for _ in range(n):
            out.append(sum(c * y ** i for i, c in enumerate(poly)))
            dp = [i * c for i, c in enumerate(poly)][1:]
            nxt = [0.0] * (len(dp) + 2)
            for i, c in enumerate(dp):
                nxt[i] += c
                nxt[i + 2] -= c
            poly = nxt
        return out
    raise ValueError(f"unsupported function {name!r}")
