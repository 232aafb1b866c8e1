"""Exact rational linear algebra and truncated time power series.

Holds the mass matrix and its inverse, matrix-valued spatial
differential operators, truncated expansions in the time variable with
symbolic spatial coefficients, and the complete problem description
that both solver engines consume.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    DomainError,
    ExpansionSingular,
    SingularRho,
    TimeNotAllowed,
)
from .expr import (
    Const,
    Expr,
    Func,
    Pow,
    Prod,
    Sum,
    TIME_INDEX,
    ZERO,
    differentiate,
    eprod,
    esum,
    normalize,
    substitute,
    uses_time,
)

ExprVec = tuple[Expr, ...]


# ---------------------------------------------------------------------------
# Rational matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalMatrix:
    """Square matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        m = len(self.entries)
        if m == 0 or any(len(row) != m for row in self.entries):
            raise DimensionMismatch("matrix must be square and non-empty")

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, m: int) -> "RationalMatrix":
        return cls(tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(m))
            for i in range(m)
        ))

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        m = self.size
        if other.size != m:
            raise DimensionMismatch("matrix sizes differ")
        return RationalMatrix(tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(m))
                  for j in range(m))
            for i in range(m)
        ))

    def scaled(self, factor: Fraction) -> "RationalMatrix":
        q = Fraction(factor)
        return RationalMatrix(tuple(
            tuple(q * x for x in row) for row in self.entries
        ))


def invert(matrix: RationalMatrix) -> RationalMatrix:
    """Exact inverse by rational Gauss-Jordan elimination.

    Raises SingularRho when the matrix has no inverse."""
    m = matrix.size
    aug = [
        list(matrix.entries[i]) + [Fraction(1 if i == j else 0) for j in range(m)]
        for i in range(m)
    ]
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularRho(f"matrix is singular (rank < {m})")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(m):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return RationalMatrix(tuple(tuple(row[m:]) for row in aug))


# ---------------------------------------------------------------------------
# Spatial differential operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorTerm:
    """One summand coeff(x) * d^orders applied to component ``col``,
    contributing to component ``row``."""

    row: int
    col: int
    coeff: Expr
    orders: tuple[int, ...]


@dataclass(frozen=True)
class SpatialOperator:
    """Matrix-valued linear differential operator with time-free
    coefficients; structurally the sum of its terms."""

    m: int
    n: int
    terms: tuple[OperatorTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if not (0 <= t.row < self.m and 0 <= t.col < self.m):
                raise DimensionMismatch(
                    f"operator term row/col ({t.row},{t.col}) outside 0..{self.m - 1}"
                )
            if len(t.orders) != self.n:
                raise DimensionMismatch(
                    f"derivative multi-index length {len(t.orders)} != {self.n}"
                )
            if any(k < 0 for k in t.orders):
                raise DimensionMismatch("derivative orders must be nonnegative")
            if uses_time(t.coeff):
                raise TimeNotAllowed("operator coefficients must be time-free", 0)


def apply_operator(op: SpatialOperator, vec: Sequence[Expr]) -> ExprVec:
    """Apply the operator to a vector of time-free expressions."""
    if len(vec) != op.m:
        raise DimensionMismatch(f"vector length {len(vec)} != {op.m}")
    rows: list[list[Expr]] = [[] for _ in range(op.m)]
    for term in op.terms:
        d = normalize(vec[term.col])
        for variable, order in enumerate(term.orders, start=1):
            for _ in range(order):
                d = differentiate(d, variable)
            if d == ZERO:
                break
        if d == ZERO:
            continue
        rows[term.row].append(eprod([term.coeff, d]))
    return tuple(esum(parts) for parts in rows)


# ---------------------------------------------------------------------------
# Expansion about time zero
# ---------------------------------------------------------------------------

def _scan_singular_at_zero(e: Expr) -> None:
    if isinstance(e, Func):
        if e.name == "ln" and isinstance(e.arg, Const) and e.arg.value <= 0:
            raise ExpansionSingular("ln argument vanishes or is negative at time zero")
        _scan_singular_at_zero(e.arg)
    elif isinstance(e, Pow):
        _scan_singular_at_zero(e.base)
    elif isinstance(e, (Sum, Prod)):
        for child in (e.terms if isinstance(e, Sum) else e.factors):
            _scan_singular_at_zero(child)


def expand_in_time(e: Expr, order: int) -> ExprVec:
    """Coefficients g_0..g_order of the expansion of ``e`` about time
    zero, by repeated time differentiation, substitution of zero, and
    exact division by the factorial."""
    if order < 0:
        raise ValueError("expansion order must be nonnegative")
    current = normalize(e)
    coeffs: list[Expr] = []
    factorial = 1
    for j in range(order + 1):
        if j:
            current = differentiate(current, TIME_INDEX)
            factorial *= j
        try:
            at_zero = substitute(current, TIME_INDEX, ZERO)
        except DomainError as exc:
            raise ExpansionSingular(
                f"expression is singular at time zero: {exc}"
            ) from exc
        _scan_singular_at_zero(at_zero)
        coeffs.append(eprod([Const(Fraction(1, factorial)), at_zero]))
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Vectors of expressions
# ---------------------------------------------------------------------------

def vec_add(a: Sequence[Expr], b: Sequence[Expr]) -> ExprVec:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths differ: {len(a)} vs {len(b)}")
    return tuple(esum([x, y]) for x, y in zip(a, b))


def vec_sub(a: Sequence[Expr], b: Sequence[Expr]) -> ExprVec:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths differ: {len(a)} vs {len(b)}")
    return tuple(esum([x, eprod([Const(Fraction(-1)), y])]) for x, y in zip(a, b))


def vec_scale(v: Sequence[Expr], factor: Fraction) -> ExprVec:
    c = Const(Fraction(factor))
    return tuple(eprod([c, x]) for x in v)


def series_scale_matrix(matrix: RationalMatrix, v: Sequence[Expr]) -> ExprVec:
    """Exact matrix-vector product with rational scalars distributed
    into the expressions."""
    m = matrix.size
    if len(v) != m:
        raise DimensionMismatch(f"vector length {len(v)} != {m}")
    out = []
    for r in range(m):
        parts = []
        for c in range(m):
            q = matrix.entries[r][c]
            if q == 0:
                continue
            parts.append(eprod([Const(q), v[c]]))
        out.append(esum(parts))
    return tuple(out)


# ---------------------------------------------------------------------------
# Truncated time power series of expression vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeSeriesVec:
    """Truncated expansion sum_j t^j * c_j(x) with vector coefficients.

    ``coeffs[j][k]`` is component k of the degree-j coefficient; the
    list always holds exactly ``order + 1`` entries."""

    m: int
    order: int
    coeffs: tuple[ExprVec, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("series order must be nonnegative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"coefficient list has {len(self.coeffs)} entries, expected {self.order + 1}"
            )
        for row in self.coeffs:
            if len(row) != self.m:
                raise DimensionMismatch(
                    f"coefficient vector length {len(row)} != {self.m}"
                )

    @classmethod
    def zero(cls, m: int, order: int) -> "TimeSeriesVec":
        row = (ZERO,) * m
        return cls(m, order, tuple(row for _ in range(order + 1)))

    @classmethod
    def from_initial(cls, u0: Sequence[Expr], u1: Sequence[Expr], order: int) -> "TimeSeriesVec":
        """Series u0 + t*u1 padded with zeros up to the given order."""
        if order < 1:
            raise ValueError("order must be at least 1 to hold both initial vectors")
        m = len(u0)
        rows = [tuple(u0), tuple(u1)]
        rows.extend([(ZERO,) * m] * (order - 1))
        return cls(m, order, tuple(rows))

    def coefficient(self, degree: int) -> ExprVec:
        return self.coeffs[degree]

    def truncated(self, new_order: int) -> "TimeSeriesVec":
        """Cut or zero-pad to the requested order."""
        if new_order < 0:
            raise ValueError("order must be nonnegative")
        rows = list(self.coeffs[: new_order + 1])
        rows.extend([(ZERO,) * self.m] * (new_order + 1 - len(rows)))
        return TimeSeriesVec(self.m, new_order, tuple(rows))

    def plus(self, other: "TimeSeriesVec") -> "TimeSeriesVec":
        if other.m != self.m:
            raise DimensionMismatch("system sizes differ")
        order = max(self.order, other.order)
        a = self.truncated(order)
        b = other.truncated(order)
        rows = tuple(vec_add(x, y) for x, y in zip(a.coeffs, b.coeffs))
        return TimeSeriesVec(self.m, order, rows)

    def second_time_derivative(self) -> "TimeSeriesVec":
        """Coefficient k of the result is (k+1)(k+2) * coeffs[k+2]."""
        if self.order < 2:
            raise ValueError("need order >= 2 to take a second time derivative")
        rows = tuple(
            vec_scale(self.coeffs[k + 2], Fraction((k + 1) * (k + 2)))
            for k in range(self.order - 1)
        )
        return TimeSeriesVec(self.m, self.order - 2, rows)


# ---------------------------------------------------------------------------
# Complete problem description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """One problem instance: dimensions, mass matrix and its exact
    inverse, spatial operator, forcing, initial data, truncation order."""

    m: int
    n: int
    rho: RationalMatrix
    rho_inv: RationalMatrix
    L: SpatialOperator
    f_source: ExprVec
    u0: ExprVec
    u1: ExprVec
    order: int

    @classmethod
    def create(
        cls,
        m: int,
        n: int,
        rho: RationalMatrix,
        L: SpatialOperator,
        f: Sequence[Expr],
        u0: Sequence[Expr],
        u1: Sequence[Expr],
        order: int,
    ) -> "ProblemSpec":
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        if rho.size != m:
            raise DimensionMismatch(f"rho is {rho.size}x{rho.size}, expected {m}x{m}")
        if L.m != m or L.n != n:
            raise DimensionMismatch("operator dimensions disagree with the problem")
        for name, vec in (("f", f), ("u0", u0), ("u1", u1)):
            if len(vec) != m:
                raise DimensionMismatch(f"{name} has length {len(vec)}, expected {m}")
        for name, vec in (("u0", u0), ("u1", u1)):
            for component in vec:
                if uses_time(component):
                    raise TimeNotAllowed(f"{name} must be time-free", 0)
        return cls(
            m=m,
            n=n,
            rho=rho,
            rho_inv=invert(rho),
            L=L,
            f_source=tuple(normalize(c) for c in f),
            u0=tuple(normalize(c) for c in u0),
            u1=tuple(normalize(c) for c in u1),
            order=order,
        )

    def with_order(self, order: int) -> "ProblemSpec":
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        return dataclasses.replace(self, order=order)


def forcing_coefficients(p: ProblemSpec, order: int) -> list[ExprVec]:
    """Per-degree forcing vectors f_0..f_order from the closed-form
    forcing expressions."""
    per_component = [expand_in_time(c, order) for c in p.f_source]
    return [
        tuple(per_component[k][j] for k in range(p.m))
        for j in range(order + 1)
    ]
