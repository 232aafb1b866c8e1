"""Rational matrix inversion, operator application, time expansion and
series containers."""

import copy
import dataclasses
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    PLAN,
    apply_by_differentiate,
    problem_path,
    random_normal_expr,
    random_numeric_expr,
    random_problem,
    random_raw_expr,
    variable_indices,
)
from pdeseries import series
from pdeseries.cli import main
from pdeseries.errors import (
    DimensionMismatch,
    DomainError,
    ExpansionSingular,
    SamplingExhausted,
    SingularRho,
    TimeNotAllowed,
)
from pdeseries.expr import (
    FUNCTIONS,
    Const,
    Expr,
    Func,
    Pow,
    Prod,
    Sum,
    TIME_INDEX,
    Var,
    ZERO,
    const,
    differentiate,
    eprod,
    equal_sampled,
    evaluate,
    normalize,
    sampled_deviation,
    substitute,
    uses_time,
)
from pdeseries.parser import load_problem, parse_expr, print_expr
from pdeseries.poly import ONE as POLY_ONE, ZERO as POLY_ZERO, Ring, add, scale
from pdeseries.taylor import taylor_coefficients, taylor_rows
from pdeseries.series import (
    OperatorTerm,
    ProblemSpec,
    RationalMatrix,
    SpatialOperator,
    TimeSeriesVec,
    apply_rows,
    expand_in_time,
    forcing_rows,
    invert,
    problem_ring,
    rows_series,
    scale_rows,
    series_rows,
)


class TestInvert:
    def test_identity(self):
        assert invert(RationalMatrix.from_rows([[1]])) == RationalMatrix.from_rows([[1]])

    def test_hand_inverse(self):
        got = invert(RationalMatrix.from_rows([[2, 1], [1, 1]]))
        assert got == RationalMatrix.from_rows([[1, -1], [-1, 2]])

    def test_singular(self):
        with pytest.raises(SingularRho, match=r"^matrix is singular \(rank < 2\)$"):
            invert(RationalMatrix.from_rows([[1, 2], [2, 4]]))

    def test_zero(self):
        with pytest.raises(SingularRho, match=r"^matrix is singular \(rank < 1\)$"):
            invert(RationalMatrix.from_rows([[0]]))
        with pytest.raises(SingularRho, match=r"^matrix is singular \(rank < 3\)$"):
            invert(RationalMatrix.from_rows([[0, 0, 0]] * 3))

    @given(st.integers(min_value=0, max_value=10**6))
    def test_product_is_identity(self, seed):
        rng = random.Random(seed)
        m = rng.randint(1, 4)
        while True:
            rows = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)]
                for _ in range(m)
            ]
            matrix = RationalMatrix.from_rows(rows)
            try:
                inverse = invert(matrix)
            except SingularRho:
                continue
            break
        assert matrix.matmul(inverse) == RationalMatrix.identity(m)
        assert inverse.matmul(matrix) == RationalMatrix.identity(m)


def _laplacian_2d() -> SpatialOperator:
    return SpatialOperator(1, 2, (
        OperatorTerm(0, 0, const(1), (2, 0)),
        OperatorTerm(0, 0, const(1), (0, 2)),
    ))


def _apply_trees(ring: Ring, op: SpatialOperator, vec) -> list[Expr]:
    """``apply_rows`` on the polynomials of the trees ``vec``, with no
    forcing, as trees."""
    vec = [ring.from_tree(e) for e in vec]
    return [ring.to_tree(c) for c in apply_rows(ring, op, vec, [POLY_ZERO] * op.m)]


class TestApplyRows:
    def test_laplacian_of_separable_product(self):
        got = _apply_trees(Ring(), _laplacian_2d(), (parse_expr("sin(x1)^2*cos(x2)", 2),))
        want = parse_expr("2*cos(2*x1)*cos(x2) - sin(x1)^2*cos(x2)", 2)
        assert equal_sampled(got[0], want, PLAN)

    def test_zero_vector(self):
        assert apply_rows(Ring(), _laplacian_2d(), [POLY_ZERO], [POLY_ZERO]) == [POLY_ZERO]

    def test_second_derivative_of_sine(self):
        op = SpatialOperator(1, 1, (OperatorTerm(0, 0, const(1), (2,)),))
        got = _apply_trees(Ring(), op, (Func("sin", Var(1)),))
        assert got[0] == parse_expr("-sin(x1)", 1)

    def test_component_mixing(self):
        op = SpatialOperator(2, 1, (
            OperatorTerm(0, 1, const(2), (1,)),
            OperatorTerm(1, 0, Var(1), (0,)),
        ))
        got = _apply_trees(Ring(), op, (Var(1), Pow(Var(1), 2)))
        assert got[0] == parse_expr("4*x1", 1)
        assert got[1] == parse_expr("x1^2", 1)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_linearity(self, seed):
        rng = random.Random(seed)
        op, ring = _laplacian_2d(), Ring()
        a = random_numeric_expr(rng, depth=2)
        b = random_numeric_expr(rng, depth=2)
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        left = apply_rows(ring, op, [ring.from_tree(const(q) * a + b)], [POLY_ZERO])
        pa, pb = (apply_rows(ring, op, [ring.from_tree(e)], [POLY_ZERO])[0] for e in (a, b))
        assert left == [add(scale(pa, q), pb)]

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            apply_rows(Ring(), _laplacian_2d(), [POLY_ZERO, POLY_ZERO], [POLY_ZERO])
        with pytest.raises(DimensionMismatch):
            apply_rows(Ring(), _laplacian_2d(), [POLY_ZERO], [POLY_ZERO, POLY_ZERO])

    @pytest.mark.parametrize("seed", range(2000, 2030))
    def test_forcing_is_added_in_the_same_sum(self, seed):
        # the forcing joins the operator's sum, with the value of adding
        # it to the unforced image afterwards
        p, _ = random_problem(seed)
        ring = problem_ring(p)
        zero = [POLY_ZERO] * p.m
        f = forcing_rows(p, p.order)
        for u, fj in zip(taylor_rows(p), f):
            want = [add(a, b) for a, b in zip(apply_rows(ring, p.L, u, zero), fj)]
            assert apply_rows(ring, p.L, u, fj) == want


def _random_operator(rng, m, n):
    terms = []
    for _ in range(rng.randint(1, 4)):
        orders = tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
        coeff = random_normal_expr(rng, depth=1, n_vars=n)
        terms.append(OperatorTerm(rng.randrange(m), rng.randrange(m), coeff, orders))
    return SpatialOperator(m, n, tuple(terms))


class TestOperatorDifferentiatesOnce:
    """On distributed polynomials the operator gives the values of the
    term-by-term chain of ``differentiate`` calls, and derives each atom
    once per variable per call."""

    @given(st.integers(min_value=0, max_value=10**6))
    def test_same_values_as_a_chain_of_differentiate_calls(self, seed):
        rng = random.Random(seed)
        m, n = rng.choice((1, 2)), rng.choice((1, 2, 3))
        op = _random_operator(rng, m, n)
        vec = tuple(random_raw_expr(rng, depth=3, n_vars=n) for _ in range(m))
        try:
            want = apply_by_differentiate(op, vec)
        except DomainError:
            with pytest.raises(DomainError):
                _apply_trees(Ring(), op, vec)
            return
        got = _apply_trees(Ring(), op, vec)
        for a, b in zip(got, want):
            try:
                deviation = sampled_deviation(a, b, PLAN)
            except SamplingExhausted:
                continue  # ln of a negative value at every point drawn
            assert deviation <= PLAN.tolerance, (print_expr(a), print_expr(b))

    def test_mixed_partials_commute(self):
        # distributed forms do not depend on the order of the steps
        op = SpatialOperator(1, 2, (OperatorTerm(0, 0, const(1), (1, 1)),))
        u = parse_expr("sin(x1*x2*exp(x1))", 2)
        ring = Ring()
        got = _apply_trees(ring, op, (u,))[0]
        p = ring.from_tree(u)
        assert ring.diff(ring.diff(p, 1), 2) == ring.diff(ring.diff(p, 2), 1)
        assert ring.from_tree(got) == ring.diff(ring.diff(p, 2), 1)
        assert equal_sampled(got, differentiate(differentiate(u, 2), 1), PLAN)
        assert print_expr(got) == (
            "-x1*x2*exp(x1)^2*sin(x1*x2*exp(x1)) + x1*exp(x1)*cos(x1*x2*exp(x1))"
            " + exp(x1)*cos(x1*x2*exp(x1)) - x1^2*x2*exp(x1)^2*sin(x1*x2*exp(x1))"
        )

    def test_shared_partials_are_taken_once_per_call(self):
        ring = Ring()
        calls, depth = [], [0]
        diff = ring.diff

        def counting(p, v):
            if not depth[0]:
                calls.append(v)  # a step of the operator, not an atom's chain rule
            depth[0] += 1
            try:
                return diff(p, v)
            finally:
                depth[0] -= 1

        ring.diff = counting
        u = ring.from_tree(parse_expr("sin(x1*x2)*exp(x1) + x2^3", 2))
        op = SpatialOperator(2, 2, (
            OperatorTerm(0, 0, const(1), (2, 0)),
            OperatorTerm(1, 0, const(1), (1, 0)),
            OperatorTerm(1, 0, const(1), (1, 1)),
            OperatorTerm(0, 1, const(1), (0, 2)),
        ))
        apply_rows(ring, op, [u, u], [POLY_ZERO] * 2)
        # column 0: d/dx1, d2/dx1^2, d2/dx1dx2; column 1: d/dx2, d2/dx2^2
        assert sorted(calls) == [1, 1, 2, 2, 2]

    def test_each_atom_is_derived_once_per_variable_per_call(self, monkeypatch):
        derived = []
        original = Ring._atom_derivative

        def counting(ring, i, v):
            if (i, v) not in ring.derivatives:
                derived.append((ring.trees[i], v))
            return original(ring, i, v)

        monkeypatch.setattr(Ring, "_atom_derivative", counting)
        u = parse_expr("sin(x1 + cos(x1*x2)^2*exp(x2^2 + x1)) + cos(x1*x2)^2", 2)
        op = SpatialOperator(2, 2, (
            OperatorTerm(0, 0, parse_expr("1 + x1^2", 2), (2, 0)),
            OperatorTerm(1, 0, parse_expr("sin(x1)", 2), (1, 0)),
            OperatorTerm(1, 0, const(1), (1, 1)),
            OperatorTerm(0, 1, const(1), (0, 2)),
        ))
        for _ in range(2):
            derived.clear()
            ring = Ring()  # the derivatives an earlier call took are kept
            apply_rows(ring, op, [ring.from_tree(u)] * 2, [POLY_ZERO] * 2)
            # d/dx1 of u serves three terms, and cos(x1*x2) is derived
            # once per variable although it occurs in two atoms of u
            assert len(derived) == len(set(derived))
            cos = parse_expr("cos(x1*x2)", 2)
            assert {(cos, 1), (cos, 2), (parse_expr("x1", 2), 1)} <= set(derived)


class TestExpandInTime:
    def test_linear_forcing(self):
        e = parse_expr("-2*t*cos(x1)^2*cos(x2) + 3*t*sin(x1)^2*cos(x2)", 2,
                       allow_time=True)
        got = expand_in_time(e, 3)
        want1 = parse_expr("-2*cos(x1)^2*cos(x2) + 3*sin(x1)^2*cos(x2)", 2)
        assert got[0] == ZERO
        assert got[1] == want1
        assert got[2] == ZERO and got[3] == ZERO

    def test_exponential_factor(self):
        e = parse_expr("x1^2*exp(t)", 1, allow_time=True)
        got = expand_in_time(e, 3)
        x2 = parse_expr("x1^2", 1)
        assert got == (x2, x2, const(Fraction(1, 2)) * x2, const(Fraction(1, 6)) * x2)

    def test_constant(self):
        assert expand_in_time(const(7), 2) == (const(7), ZERO, ZERO)

    def test_singular_logarithm(self):
        with pytest.raises(ExpansionSingular):
            expand_in_time(Func("ln", Var(TIME_INDEX)), 2)

    def test_singular_negative_power(self):
        with pytest.raises(ExpansionSingular):
            expand_in_time(Pow(Var(TIME_INDEX), -1), 2)

    @pytest.mark.parametrize("text", [
        "x1^2*exp(t)",
        "sin(t)*cos(x1)",
        "cosh(t) + x1*t^3",
        "exp(t)*sin(x1) - t^2",
    ])
    def test_partial_sums_approximate_the_function(self, text):
        order = 8
        e = parse_expr(text, 1, allow_time=True)
        coeffs = expand_in_time(e, order)
        rng = random.Random(99)
        for _ in range(25):
            x = [rng.uniform(-1, 1)]
            t = rng.uniform(-0.1, 0.1)
            truncated = sum(
                evaluate(c, x) * t**j for j, c in enumerate(coeffs)
            )
            full = evaluate(e, x, time=t)
            assert abs(truncated - full) <= 1e-6


# The expansion by repeated time differentiation that jets replaced,
# kept as an independent reference.

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


def _expand_by_differentiation(e: Expr, order: int) -> tuple[Expr, ...]:
    current = normalize(e)
    coeffs = []
    factorial = 1
    for j in range(order + 1):
        if j:
            current = differentiate(current, TIME_INDEX)
            factorial *= j
        try:
            at_zero = substitute(current, TIME_INDEX, ZERO)
        except DomainError as exc:
            raise ExpansionSingular(str(exc)) from exc
        _scan_singular_at_zero(at_zero)
        coeffs.append(eprod([Const(Fraction(1, factorial)), at_zero]))
    return tuple(coeffs)


def _positive(e: Expr, c: int) -> Expr:
    """c + e^2: an argument that cannot vanish at time zero."""
    return Sum((const(c), Pow(e, 2)))


def _time_exprs() -> st.SearchStrategy:
    leaves = st.one_of(
        st.just(Var(TIME_INDEX)),
        st.sampled_from((Var(1), Var(2))),
        st.fractions(-3, 3, max_denominator=3).map(Const),
    )
    small = st.integers(1, 3)

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda xs: Sum(tuple(xs))),
            st.lists(children, min_size=2, max_size=3).map(lambda xs: Prod(tuple(xs))),
            st.builds(Pow, children, st.sampled_from((2, 3))),
            st.builds(lambda e, c, k: Pow(_positive(e, c), k),
                      children, small, st.sampled_from((-1, -2))),
            st.builds(Func, st.sampled_from([f for f in FUNCTIONS if f != "ln"]), children),
            st.builds(lambda e, c: Func("ln", _positive(e, c)), children, small),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _outcome(expand, e: Expr, order: int):
    try:
        return expand(e, order)
    except ExpansionSingular as exc:
        return type(exc)


class TestJetsAgainstDifferentiation:
    @settings(max_examples=200)
    @given(_time_exprs(), st.integers(0, 5))
    def test_same_values_and_zero_pattern(self, e, order):
        try:
            e = normalize(e)
        except DomainError:
            assume(False)
        assume(uses_time(e))
        want = _outcome(_expand_by_differentiation, e, order)
        got = _outcome(expand_in_time, e, order)
        if not isinstance(want, tuple):
            assert got is want
            return
        # structural zeros decide hpm's working order, so they must agree
        assert [c == ZERO for c in got] == [c == ZERO for c in want]
        for a, b in zip(got, want):
            try:
                deviation = sampled_deviation(a, b, PLAN)
            except SamplingExhausted:
                continue  # overflows at every point, on both sides
            assert deviation <= PLAN.tolerance

    @pytest.mark.parametrize("text", [
        "ln(t)", "t^-1", "sin(t)^-1*t", "ln(cos(t)-1)", "ln(-1+t)", "t^3*ln(t)",
        "(2 + t)^99999999",
    ])
    def test_same_exception_where_singular(self, text):
        e = parse_expr(text, 1, allow_time=True)
        assert _outcome(_expand_by_differentiation, e, 4) is ExpansionSingular
        assert _outcome(expand_in_time, e, 4) is ExpansionSingular
        assert _ring_outcome(e, 4) is ExpansionSingular

    @pytest.mark.parametrize("text,want", [
        ("exp(t)*sin(x1+t)*cos(x2)", None),
        ("(x1 + x2 + t)^3", "[(x1 + x2)^3, 3*(x1 + x2)^2, 3*x1 + 3*x2, 1, 0]"),
        ("(x1 + sin(t))^(-1)", None),
        ("tanh(t + x2)", None),
        ("t^2*x1 + sin(t)^2 + cos(t)^2", None),
        ("(x1 + x2 + t)*(x1 + t)", "[x1*(x1 + x2), 2*x1 + x2, 1, 0, 0]"),
        ("(1 + x1^2)*sin(x1 + t)", None),
    ])
    def test_same_printed_form(self, capsys, text, want):
        e = parse_expr(text, 2, allow_time=True)
        assert expand_in_time(e, 4) == _expand_by_differentiation(e, 4)
        if want is not None:
            assert main(["expand", "--expr", text, "--order", "4"]) == 0
            assert capsys.readouterr().out == want + "\n"

    @pytest.mark.parametrize("text", [
        "tanh(tanh(tanh(cosh(t))))", "tanh(tanh(exp(sin(t))))",
    ])
    def test_nested_functions_print_no_longer(self, text):
        e = parse_expr(text, 2, allow_time=True)
        got = expand_in_time(e, 5)
        want = _expand_by_differentiation(e, 5)
        assert sum(map(len, map(print_expr, got))) <= sum(map(len, map(print_expr, want)))

    def test_power_of_zero_series_beyond_the_order(self):
        e = parse_expr("sin(t)^99999999*x1 + (x1 + t)^99999999", 1, allow_time=True)
        got = expand_in_time(e, 2)
        assert got[0] == Pow(Var(1), 99999999)
        assert got[2] == parse_expr("4999999850000001*x1^99999997", 1)

    def test_huge_power_of_a_constant_term_is_refused(self):
        with pytest.raises(ExpansionSingular):
            expand_in_time(parse_expr("(2 + t)^99999999", 1, allow_time=True), 2)


def _counting(monkeypatch, name: str, owner=series) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _ring_expansions(monkeypatch) -> list:
    """Calls of the engines' forcing expansion, one per component."""
    return _counting(monkeypatch, "expansion", series._RingJets)


def _ring_outcome(e: Expr, order: int, ring: Ring | None = None):
    try:
        return series._RingJets(ring or Ring(), order).expansion(e)
    except ExpansionSingular as exc:
        return type(exc)


class TestRingJets:
    @settings(max_examples=200)
    @given(_time_exprs(), st.integers(0, 6))
    def test_ring_rows_are_the_tree_jets_in_the_ring(self, e, order):
        try:
            e = normalize(e)
        except DomainError:
            assume(False)
        ring = Ring()
        try:
            want = list(map(ring.from_tree, expand_in_time(e, order)))
        except ExpansionSingular as exc:
            want = type(exc)
        except DomainError:
            # the tree jets miss a constant term that is a zero polynomial
            # but not the tree 0; the ring sees it as zero
            assume(False)
        # one ring, so that equal polynomials have equal atom indices
        assert _ring_outcome(e, order, ring) == want

    def test_first_power_of_a_long_sum_keeps_its_terms(self, tmp_path):
        # (t + P)^2 = P^2 + 2*P*t + t^2 takes P^1 from the ring, and P has
        # more terms than a power of a sum is multiplied out to
        terms = " + ".join(f"x1^{k}" for k in range(1, 1002))
        path = tmp_path / "long.prob"
        path.write_text(f"""{{"m": 1, "n": 1, "rho": [["1"]],
            "L": [{{"row": 0, "col": 0, "coeff": "1", "derivs": [2]}}],
            "f": ["(t + {terms})^2"], "u0": ["0"], "u1": ["0"], "order": 2}}""")
        p = load_problem(str(path))
        rows = forcing_rows(p, 2)
        assert rows[1][0] == scale(problem_ring(p).from_tree(parse_expr(terms, 1)), 2)
        assert len(rows[0][0]) == 1 and rows[2][0] == POLY_ONE


class TestForcingExpandedOnce:
    @pytest.mark.parametrize("argv", [
        ("solve", "coupled_2x2.prob"),
        ("residual", "coupled_2x2.prob"),
        ("hpm", "coupled_2x2.prob", "--corrections", "2"),
        ("compare", "coupled_2x2.prob", "--corrections", "2"),
        ("hpm", "forced_wave_2d.prob", "--corrections", "3"),
        ("compare", "wave_1d.prob", "--corrections", "3"),
    ])
    def test_one_expansion_per_component(self, monkeypatch, capsys, argv):
        calls = _ring_expansions(monkeypatch)
        path = problem_path(argv[1])
        assert main([argv[0], path, *argv[2:]]) == 0
        assert len(calls) == load_problem(path).m
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ("solve",), ("residual",), ("hpm", "--corrections", "2"),
        ("compare", "--corrections", "2"),
    ])
    def test_engines_neither_differentiate_nor_substitute_trees(
        self, monkeypatch, capsys, tmp_path, command
    ):
        spies = [_counting(monkeypatch, name)
                 for name in ("_diff", "substitute", "expand_in_time")]
        path = tmp_path / "forced.prob"
        path.write_text("""{"m": 1, "n": 2, "rho": [["1"]],
            "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2, 0]}],
            "f": ["exp(sin(x1*t))*tanh(t+x2) + ln(1+t)"],
            "u0": ["0"], "u1": ["0"], "order": 6}""")
        assert main([command[0], str(path), *command[1:]]) == 0
        assert spies == [[], [], []]
        capsys.readouterr()

    def test_differentiation_bounded_by_order_per_function(self, monkeypatch):
        calls = _counting(monkeypatch, "_diff")
        e = parse_expr("exp(sin(x1*t))*tanh(t+x2)", 2, allow_time=True)
        expand_in_time(e, 12)
        assert len(calls) <= 12 * 3  # three Func nodes
        # only f(t) and its derivatives, never a tree holding x1 or x2
        assert all(variable_indices(d) <= {0} for d, _, _ in calls)
        # each function's derivatives share one memo: exp, sin and tanh
        assert len({id(memo) for _, _, memo in calls}) == 3

    def test_expansion_is_kept_per_problem(self, monkeypatch):
        calls = _ring_expansions(monkeypatch)
        p = load_problem(problem_path("coupled_2x2.prob"))
        long = forcing_rows(p, 6)
        assert forcing_rows(p, 3) == long[:4]
        assert forcing_rows(p.with_order(2), 6) == long
        assert len(calls) == p.m
        longer = forcing_rows(p, 9)
        assert longer[:7] == long and len(calls) == 2 * p.m
        # another problem object with the same forcing expands anew
        forcing_rows(load_problem(problem_path("coupled_2x2.prob")), 3)
        assert len(calls) == 3 * p.m

    def test_cache_is_not_part_of_the_problem(self):
        p = load_problem(problem_path("coupled_2x2.prob"))
        fresh = load_problem(problem_path("coupled_2x2.prob"))
        forcing_rows(p, 5)
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        taylor_coefficients(p)  # fills the polynomial ring too
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert copied == p and not hasattr(copied, "_forcing")
            assert not hasattr(copied, "_ring")


class TestScaleRows:
    def test_identity(self):
        ring = Ring()
        v = [ring.from_tree(Var(1)), ring.from_tree(Func("sin", Var(1)))]
        assert scale_rows(RationalMatrix.identity(2), v) == v

    def test_scalar_half(self):
        ring = Ring()
        got = scale_rows(RationalMatrix.from_rows([["1/2"]]),
                         [ring.from_tree(Func("sin", Var(1)))])
        assert ring.to_tree(got[0]) == parse_expr("1/2*sin(x1)", 1)

    def test_hand_product(self):
        ring = Ring()
        matrix = RationalMatrix.from_rows([[1, -1], [-1, 2]])
        got = scale_rows(matrix, [ring.from_tree(Var(1)), ring.from_tree(Var(2))])
        assert ring.to_tree(got[0]) == parse_expr("x1 - x2", 2)
        assert ring.to_tree(got[1]) == parse_expr("-x1 + 2*x2", 2)


class TestTimeSeriesVec:
    def test_length_invariant(self):
        s = TimeSeriesVec(2, 3, ((ZERO, ZERO),) * 4)
        assert len(s.coeffs) == s.order + 1
        with pytest.raises(ValueError):
            TimeSeriesVec(1, 2, ((ZERO,),))

    def test_a_series_of_rows_keeps_them_aside(self):
        p = load_problem(problem_path("forced_wave_2d.prob"))
        ring, rows = problem_ring(p), taylor_rows(p)
        s = rows_series(ring, rows)
        assert series_rows(ring, s) is rows  # no tree is converted back
        plain = TimeSeriesVec(s.m, s.order, s.coeffs)
        assert plain == s and hash(plain) == hash(s) and repr(plain) == repr(s)
        assert series_rows(ring, plain) == rows
        assert series_rows(ring, s) is rows  # reading the trees keeps the rows
        for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
            assert copied == s and not hasattr(copied, "_rows")
            assert not hasattr(copied, "_ring")

    @pytest.mark.parametrize("name", ["wave_1d.prob", "forced_wave_2d.prob",
                                      "coupled_2x2.prob"])
    def test_trees_are_built_when_first_read(self, monkeypatch, name):
        p = load_problem(problem_path(name))
        ring = problem_ring(p)
        # the series as built with every tree up front
        eager = TimeSeriesVec(p.m, p.order, tuple(
            tuple(map(ring.to_tree, row)) for row in taylor_rows(p)
        ))
        callers = []
        to_tree = Ring.to_tree

        def spy(self, q):
            callers.append(sys._getframe(1).f_code.co_name)
            return to_tree(self, q)

        monkeypatch.setattr(Ring, "to_tree", spy)
        s = taylor_coefficients(p)
        # only the ring names the argument of a function atom
        assert set(callers) <= {"func"} and "coeffs" not in vars(s)
        assert s.coeffs == eager.coeffs and s.coefficient(1) == eager.coefficient(1)
        built = len(callers)
        assert s.coeffs is s.coeffs and len(callers) == built  # built once
        reads = (
            lambda s: s == eager and eager == s,
            lambda s: hash(s) == hash(eager),
            lambda s: repr(s) == repr(eager),
            lambda s: dataclasses.replace(s) == eager,
            lambda s: pickle.loads(pickle.dumps(s)) == eager,
            lambda s: copy.copy(s) == eager,
            lambda s: copy.deepcopy(s) == eager,
        )
        for read in reads:
            assert read(taylor_coefficients(p))
        for copied in (pickle.loads(pickle.dumps(taylor_coefficients(p))),
                       copy.copy(taylor_coefficients(p))):
            assert vars(copied).keys() == {"m", "order", "coeffs"}


_D2 = SpatialOperator(1, 1, (OperatorTerm(0, 0, const(1), (2,)),))
_I1 = RationalMatrix.identity(1)


def _problem(m=1, n=1, rho=_I1, f=(ZERO,), u0=(ZERO,), u1=(ZERO,), order=1):
    """``ProblemSpec.create`` on u_tt = u_x1x1 with zero data, one argument changed."""
    return ProblemSpec.create(m, n, rho, _D2, f, u0, u1, order)


class TestErrorPaths:
    """Each check of the containers, with its error class and message."""

    @pytest.mark.parametrize("build,error,message", [
        (lambda: RationalMatrix.from_rows([[1, 2]]), DimensionMismatch,
         "matrix must be square and non-empty"),
        (lambda: RationalMatrix.from_rows([]), DimensionMismatch,
         "matrix must be square and non-empty"),
        (lambda: RationalMatrix.identity(2).matmul(_I1), DimensionMismatch,
         "matrix sizes differ"),
        (lambda: SpatialOperator(1, 1, (OperatorTerm(1, 0, const(1), (2,)),)),
         DimensionMismatch, "operator term row/col (1,0) outside 0..0"),
        (lambda: SpatialOperator(2, 1, (OperatorTerm(0, -1, const(1), (2,)),)),
         DimensionMismatch, "operator term row/col (0,-1) outside 0..1"),
        (lambda: SpatialOperator(1, 1, (OperatorTerm(0, 0, const(1), (2, 0)),)),
         DimensionMismatch, "derivative multi-index length 2 != 1"),
        (lambda: SpatialOperator(1, 2, (OperatorTerm(0, 0, const(1), (2, -1)),)),
         DimensionMismatch, "derivative orders must be nonnegative"),
        (lambda: SpatialOperator(1, 1, (OperatorTerm(0, 0, Var(TIME_INDEX), (2,)),)),
         TimeNotAllowed, "operator coefficients must be time-free at offset 0"),
        (lambda: expand_in_time(Var(1), -1), ValueError, "expansion order must be nonnegative"),
        (lambda: TimeSeriesVec(1, -1, ()), ValueError, "series order must be nonnegative"),
        (lambda: TimeSeriesVec(1, 0, ((ZERO, ZERO),)), DimensionMismatch,
         "coefficient vector length 2 != 1"),
        (lambda: _problem(order=0), ValueError, "truncation order must be at least 1"),
        (lambda: _problem(m=2, f=(ZERO,) * 2, u0=(ZERO,) * 2, u1=(ZERO,) * 2),
         DimensionMismatch, "rho is 1x1, expected 2x2"),
        (lambda: _problem(n=2), DimensionMismatch,
         "operator dimensions disagree with the problem"),
        (lambda: _problem(u0=(ZERO, ZERO)), DimensionMismatch, "u0 has length 2, expected 1"),
        (lambda: _problem(u1=(Var(TIME_INDEX),)), TimeNotAllowed,
         "u1 must be time-free at offset 0"),
        (lambda: _problem().with_order(0), ValueError, "truncation order must be at least 1"),
    ])
    def test_rejects(self, build, error, message):
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message
