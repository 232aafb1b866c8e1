"""Grammar, error offsets, printing round-trips, and problem files."""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    problem_path, random_normal_expr, random_problem, random_raw_expr, ref_fmt, ref_parse_expr,
)
from golden import EXPANSIONS, RULE_EXPANSIONS
from pdeseries import expr, series
from pdeseries.errors import (
    DimensionMismatch,
    DomainError,
    ExpansionSingular,
    FormatError,
    NonIntegerExponent,
    ParseError,
    PdeSeriesError,
    SingularRho,
    TimeNotAllowed,
    UnknownIdentifier,
)
from pdeseries.expr import (
    Const,
    Func,
    MINUS_ONE,
    Pow,
    Prod,
    Sum,
    TIME_INDEX,
    Var,
    const,
    normalize,
)
from pdeseries.parser import MAX_NESTING, parse_expr, parse_problem, print_expr
from pdeseries.series import OperatorTerm, ProblemSpec, RationalMatrix, SpatialOperator


class TestGrammar:
    def test_power_product(self):
        e = parse_expr("sin(x1)^2 * cos(x2)", 2)
        assert e == Prod((Pow(Func("sin", Var(1)), 2), Func("cos", Var(2))))

    def test_constant_division_folds(self):
        assert parse_expr("1/2", 1) == const(Fraction(1, 2))

    def test_decimal_literal_is_exact(self):
        assert parse_expr("0.5", 1) == const(Fraction(1, 2))
        assert parse_expr("2.25", 1) == const(Fraction(9, 4))

    def test_division_by_nonconstant(self):
        assert parse_expr("x1/x2", 2) == Prod((Var(1), Pow(Var(2), -1)))

    def test_left_associative_subtraction(self):
        assert parse_expr("3 - 1 - 1", 1) == const(1)

    def test_unary_minus_tighter_than_mul_looser_than_pow(self):
        # -x^2 reads as -(x^2)
        assert parse_expr("-x1^2", 1) == Prod((const(-1), Pow(Var(1), 2)))
        assert parse_expr("-2*x1", 1) == Prod((const(-2), Var(1)))

    def test_power_right_associative(self):
        assert parse_expr("2^3^2", 1) == const(512)

    def test_negative_exponent(self):
        assert parse_expr("x1^-2", 1) == Pow(Var(1), -2)
        assert parse_expr("x1^(-2)", 1) == Pow(Var(1), -2)

    def test_exponent_may_be_constant_expression(self):
        assert parse_expr("x1^(1+1)", 1) == Pow(Var(1), 2)

    def test_time_symbol(self):
        assert parse_expr("t", 1, allow_time=True) == Var(TIME_INDEX)

    def test_result_is_normalized(self):
        e = parse_expr("x1 + x1 + 0", 1)
        assert e == Prod((const(2), Var(1)))

    def test_whitespace_insensitive(self):
        assert parse_expr(" x1\t+ 2 ", 1) == parse_expr("x1+2", 1)


class TestErrors:
    @pytest.mark.parametrize("src,offset", [
        ("x1 + * 2", 5),
        ("", 0),
        ("(x1", 3),
        ("x1 )", 3),
        ("2x1", 1),
        ("sin x1", 4),
        ("sin(x1", 6),
        ("1 + + 2", 4),
        ("x1 *", 4),
        ("2 ** 2", 3),
        ("x1 + π", 5),
    ])
    def test_syntax_error_offsets(self, src, offset):
        with pytest.raises(ParseError) as err:
            parse_expr(src, 2)
        assert err.value.offset == offset
        assert 0 <= err.value.offset <= len(src.encode("utf-8"))

    def test_syntax_error_reports_expectations(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1 + * 2", 1)
        assert err.value.expected

    @pytest.mark.parametrize("src,offset", [
        ("y1 + 1", 0),
        ("x3", 0),
        ("x0", 0),
        ("x01", 0),
        ("foo(x1)", 0),
    ])
    def test_unknown_identifier(self, src, offset):
        with pytest.raises(UnknownIdentifier) as err:
            parse_expr(src, 2)
        assert err.value.offset == offset

    @pytest.mark.parametrize("src,offset", [
        ("x1 ^ 2.5", 5),
        ("x1 ^ x2", 5),
        ("x1^(1/3)", 3),
    ])
    def test_non_integer_exponent(self, src, offset):
        with pytest.raises(NonIntegerExponent) as err:
            parse_expr(src, 2)
        assert err.value.offset == offset

    @pytest.mark.parametrize("opening, token_at, leaf, closing", [
        ("(", 0, "x1", ")"),
        ("sin(", 3, "x1", ")"),
        ("-", 0, "x1", ""),
        ("1^", 1, "1", ""),
    ])
    def test_nesting_limit(self, opening, token_at, leaf, closing):
        def nested(depth):
            return opening * depth + leaf + closing * depth

        assert parse_expr(nested(MAX_NESTING), 2) is not None
        # the offset is that of the first opening token beyond the limit
        beyond = len(opening) * MAX_NESTING + token_at
        for depth in (MAX_NESTING + 1, 3000):
            with pytest.raises(ParseError) as err:
                parse_expr(nested(depth), 2)
            assert err.value.offset == beyond

    @pytest.mark.parametrize("src,offset", [
        ("2^9999999999", 2),
        ("(1/3)^99999999", 6),
        ("2^99999999", 2),
        ("x1 + (-3)^(-99999)", 10),
        ("(2^5000)^5000", 9),
        ("2^20000/2^20000", 2),
    ])
    def test_huge_constant_power(self, src, offset):
        # past the interpreter's int-to-text limit the power could never
        # be printed, and building it may exhaust memory
        with pytest.raises(ParseError) as err:
            parse_expr(src, 1)
        assert err.value.offset == offset

    @pytest.mark.parametrize("src,offset", [
        ("2^14000*2^14000", 8),
        ("x1*2^14000*2^14000", 11),
        ("-2^14000*(2^14000)", 9),
        ("2^14000/2^-14000", 8),
    ])
    def test_huge_constant_product(self, src, offset):
        # each factor prints, but normalize folds them into one rational
        # that would not; the offset is that of the factor passing it
        with pytest.raises(ParseError) as err:
            parse_expr(src, 1)
        assert err.value.offset == offset
        assert "product" in err.value.message

    @pytest.mark.parametrize("src,offset", [
        ("(2^14000*x1)*(2^14000*x1)", 13),         # across two chains
        ("1/3^5000 + 1/7^5000", 11),               # denominators of a sum
        ("x1 + 1/3^5000 + 1/7^5000", 16),
        ("2*(-(2^14000*x1))*(2^14000)", 18),
        ("(2^4000*x1 + 2^4000)^4", 21),            # content of a power of a sum
        ("(x1^(2^8000))^(2^8000)", 14),            # an exponent, not a constant
        ("((((x1^(2^4000))^(2^4000))^(2^4000))^(2^4000))", 37),
        ("10^4300", 3),                            # 4301 digits, exactly one past
        ("10^2150*10^2150", 8),
        # a product with the sum takes out its content, 1/231^3000
        ("x1*(-(x1/3^3000 + x2/7^3000 + x3/11^3000))", 3),
    ])
    def test_huge_normalized_constant(self, src, offset):
        # each chain prints, but normalize folds constants across chains
        # into one that would not; the offset is that of the operand, or
        # the exponent, at which the folded constant first passes it
        with pytest.raises(ParseError) as err:
            parse_expr(src, 3)
        assert err.value.offset == offset
        assert "too large" in err.value.message

    @pytest.mark.parametrize("src,offset,message", [
        ("(2*x1)^99999999", 7, "power of a constant"),        # refused, not computed
        ("(x1/2 + 1/2)^99999999", 13, "power of a constant"),  # content of a sum
        ("1/(x1 - x1)", 2, "zero raised"),
        ("x1 + 0^(-1)", 7, "zero raised"),
        ("x1 + (x2 - x2)^(-2)", 15, "zero raised"),
    ])
    def test_normalization_errors_carry_an_offset(self, src, offset, message):
        with pytest.raises(ParseError) as err:
            parse_expr(src, 2)
        assert err.value.offset == offset
        assert message in err.value.message

    @pytest.mark.parametrize("src,spelled", [
        ("-(x1/3^3000 + x2/7^3000 + x3/11^3000)", "-x1/3^3000 - x2/7^3000 - x3/11^3000"),
        ("x1 + -(x1/3^3000 + x2/7^3000 + x3/11^3000)",
         "x1 - x1/3^3000 - x2/7^3000 - x3/11^3000"),
        ("2/7*(x1/3^3000 + 1)", "2/7*x1/3^3000 + 2/7"),
    ])
    def test_a_rational_times_a_sum_needs_no_content(self, src, spelled):
        # spread over the terms; the content, 1/231^3000 in the first two,
        # is too large to represent although no term is
        assert parse_expr(src, 3) == parse_expr(spelled, 3)

    def test_first_failing_construct_is_reported(self):
        # the division by zero comes before the product passes the limit
        with pytest.raises(ParseError) as err:
            parse_expr("exp(0.5/0/1/3^5000/1/3^5000)", 1)
        assert err.value.offset == 8
        assert "zero raised" in err.value.message

    def test_zero_factor_before_huge_constants(self):
        # the running product is zero before the constants would pass the limit
        assert parse_expr("(x1-x1)*1/7^5000*1/7^5000", 1) == const(0)

    def test_exponent_sum_past_the_limit(self):
        # nine factors give x1^(9*10^4299), 4300 digits; the tenth passes the limit
        src = "*".join(["x1^(10^4299)"] * 10)
        assert parse_expr(src[:-13], 1) == Pow(Var(1), 9 * 10**4299)
        with pytest.raises(ParseError) as err:
            parse_expr(src, 1)
        assert err.value.offset == 117
        assert "exponent too large" in err.value.message

    def test_huge_normalized_constant_late_in_a_long_chain(self):
        head = " + ".join(f"x1^{i}" for i in range(1, 1000)) + " + 1/3^5000 + "
        with pytest.raises(ParseError) as err:
            parse_expr(head + "1/7^5000", 1)
        assert err.value.offset == len(head)

    def test_many_constant_terms_are_refused_where_the_sum_passes_the_limit(self):
        # the running constant passes the limit at the 17th term, 1/61^200;
        # summing all 549 terms first took seconds
        primes = [p for p in range(3, 4000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_expr(" + ".join(f"1/{p}^200" for p in primes), 1)
        assert time.perf_counter() - start < 1.0
        assert err.value.offset == 173
        assert "too large" in err.value.message

    def test_normalized_constants_at_the_limit(self):
        # 4300 digits print; 4301 would not
        assert parse_expr("9*10^4299", 1) == const(9 * 10**4299)
        assert parse_expr("(10^2150*x1)*(10^2149*x1)", 1) == Prod(
            (const(10**4299), Pow(Var(1), 2))
        )
        assert parse_expr("(2^14000*x1)/(2^14000*x1)", 1) == const(1)

    def test_number_too_long(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1 + " + "7" * 5000, 1)
        assert err.value.offset == 5

    def test_constant_products_within_the_limit(self):
        assert parse_expr("x1*2^3000*2^3000", 1) == Prod((const(2**6000), Var(1)))
        assert parse_expr("2^14000/2^14000*x1", 1) == Var(1)

    def test_large_powers_within_the_limit(self):
        assert parse_expr("x1^2*2^5000", 1) == Prod((const(2**5000), Pow(Var(1), 2)))
        assert parse_expr("x1^99999999", 1) == Pow(Var(1), 99999999)
        for src, value in (("1^99999999", 1), ("(-1)^99999999", -1), ("0^99999999", 0)):
            assert parse_expr(src, 1) == const(value)

    def test_long_chains_are_not_nesting(self):
        text = " + ".join(["x1*x2"] * 3000) + " - " + "*".join(["x2"] * 3000)
        assert print_expr(parse_expr(text, 2)) == "-x2^3000 + 3000*x1*x2"

    def test_time_not_allowed(self):
        with pytest.raises(TimeNotAllowed) as err:
            parse_expr("t + x1", 1)
        assert err.value.offset == 0
        # allowed in the extended grammar
        parse_expr("t + x1", 1, allow_time=True)


def _parenthesised(e) -> str:
    """The raw tree ``e`` in the input grammar, every node in parentheses."""
    if isinstance(e, Const):
        return f"({e.value})"
    if isinstance(e, Var):
        return "t" if e.index == TIME_INDEX else f"x{e.index}"
    if isinstance(e, Func):
        return f"{e.name}({_parenthesised(e.arg)})"
    if isinstance(e, Pow):
        return f"({_parenthesised(e.base)})^({e.exponent})"
    if isinstance(e, Prod):
        return "(" + "*".join(map(_parenthesised, e.factors)) + ")"
    return "(" + " + ".join(map(_parenthesised, e.terms)) + ")"


_HUGE_ATOMS = (
    "x1", "t", "0", "1/2", "(x1-x1)", "2^14000", "10^4299", "1/3^5000", "1/7^5000",
    "x1^(10^4299)", "x2/7^3000",
)
_HUGE_SOUP = st.lists(
    st.sampled_from(_HUGE_ATOMS + ("ln(", "tanh(", "(", ")", "+", "-", "*", "/", "^")),
    max_size=12,
).map("".join)
_HUGE_NESTED = st.recursive(
    st.sampled_from(_HUGE_ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
        st.tuples(inner, st.sampled_from(("2", "(-1)", "0", "(10^4299)"))).map(
            lambda a: f"({a[0]})^{a[1]}"
        ),
        st.tuples(st.sampled_from(("ln", "tanh", "exp")), inner).map(
            lambda a: f"{a[0]}({a[1]})"
        ),
    ),
    max_leaves=8,
)


class TestParsingIsNormalizing:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300)
    def test_parse_equals_normalize_of_the_raw_tree(self, seed):
        raw = random_raw_expr(random.Random(seed), depth=4, allow_time=True)
        text = _parenthesised(raw)
        try:
            want = normalize(raw)
        except DomainError:
            with pytest.raises(ParseError):
                parse_expr(text, 2, allow_time=True)
            return
        got = parse_expr(text, 2, allow_time=True)
        # a fixed point of normalize, so the CLI expands it without
        # normalizing it again (series.expand_rows)
        assert got == want and normalize(got) == got

    @pytest.mark.parametrize("text", [e for e, _ in EXPANSIONS + RULE_EXPANSIONS] + [
        f"{c}*({e})" for c in ("7", "-3/5") for e, _ in EXPANSIONS])
    def test_expanded_expressions_are_fixed_points_of_normalize(self, text):
        e = parse_expr(text, 2, allow_time=True)
        assert normalize(e) == e

    @given(st.one_of(_HUGE_SOUP, _HUGE_NESTED))
    @settings(max_examples=400)
    def test_every_parsed_expression_prints(self, text):
        # no constant or exponent past the int-to-text limit survives a parse
        try:
            e = parse_expr(text, 2, allow_time=True)
        except ParseError:
            return
        assert parse_expr(print_expr(e), 2, allow_time=True) == e


def _outcome(parse, src, n, allow_time):
    """The tree, or the error's class, message, offset and expectations."""
    try:
        return parse(src, n, allow_time=allow_time)
    except ParseError as exc:
        return type(exc), exc.message, exc.offset, exc.expected
    except UnicodeEncodeError as exc:  # a lone surrogate
        return type(exc), str(exc)


def _error_table_texts() -> list[str]:
    """Every source text in the parametrized tables of TestErrors."""
    texts = []
    for name in dir(TestErrors):
        for mark in getattr(getattr(TestErrors, name), "pytestmark", []):
            if mark.name == "parametrize" and mark.args[0].startswith("src"):
                texts += [row[0] for row in mark.args[1]]
    return texts


_PARITY_TEXTS = _error_table_texts() + [
    "(" * 151 + "x1" + ")" * 151, "sin(" * 151 + "x1" + ")" * 151, "-" * 3000 + "x1",
    "1^" * 151 + "1", "x1 + " + "7" * 5000, "-0." + "0" * 4299 + "1", "x1 - 0." + "0" * 4299 + "1",
    "x1*7^3000*7^3000", "x1 + é", "é", "x1 + \udcff", "2 + x1 @ \udcff", "x1 + 3.", "1.5.2",
    " ", "x1\t+\r\nx2 ", "x1 , x2", "t^2 - -x2", "--2", "-(-2)", "-0", "x3 + t",
    "*".join(["x1^(10^4299)"] * 10), " + ".join(f"1/{p}^200" for p in (3, 5, 7, 11, 13, 17, 19)),
]


class TestParityWithTheFirstParser:
    """The lexer and the descent against ``conftest``'s copy of them as
    first written, on the same kernel: the same tree, or the same error
    class, message, byte offset and expectations."""

    @pytest.mark.parametrize("src", _PARITY_TEXTS)
    def test_tables_agree(self, src):
        for n, allow_time in ((3, True), (2, False)):
            want = _outcome(ref_parse_expr, src, n, allow_time)
            assert _outcome(parse_expr, src, n, allow_time) == want

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300)
    def test_random_texts_agree(self, seed):
        rng = random.Random(seed)
        raw = random_raw_expr(rng, depth=4, n_vars=3, allow_time=True)
        text = _parenthesised(raw)
        # and the text with one character replaced, for the errors
        i = rng.randrange(len(text))
        broken = text[:i] + rng.choice("+-*/^()., 7xtπ") + text[i + 1:]
        printed = print_expr(random_normal_expr(rng, depth=4, n_vars=3, allow_time=True))
        for src in (text, broken, printed):
            for n, allow_time in ((3, True), (2, False)):
                want = _outcome(ref_parse_expr, src, n, allow_time)
                assert _outcome(parse_expr, src, n, allow_time) == want

    @given(st.one_of(_HUGE_SOUP, _HUGE_NESTED))
    @settings(max_examples=300)
    def test_constants_near_the_limit_agree(self, text):
        want = _outcome(ref_parse_expr, text, 2, True)
        assert _outcome(parse_expr, text, 2, True) == want


class TestPrinting:
    @pytest.mark.parametrize("text", [
        "2*x1",
        "sin(x1)^2",
        "1/2*x1^2",
        "x1 - x2",
        "-x1",
        "x1^(-2)",
        "(x1 + x2)^2",
        "1/2*x1 + 1/2*x2",
        "-1/2 + x1",
        "2*cos(2*x1)",
    ])
    def test_golden_forms(self, text):
        e = parse_expr(text, 2)
        assert print_expr(e) == text

    def test_round_trip_500_random_expressions(self):
        rng = random.Random(27182818)
        for _ in range(500):
            e = random_normal_expr(rng, depth=4, allow_time=True)
            text = print_expr(e)
            again = parse_expr(text, 2, allow_time=True)
            assert again == e, f"round trip changed {text!r}"
            assert hash(again) == hash(e)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_negative_terms_print_as_minus_their_negation(self, seed):
        e = random_normal_expr(random.Random(seed), depth=4, allow_time=True)
        for term in (e.terms if isinstance(e, Sum) else (e,)):
            negative = isinstance(term, Const) and term.value < 0
            if isinstance(term, Prod) and isinstance(term.factors[0], Const):
                negative = term.factors[0].value < 0
            text = print_expr(term)
            assert text.startswith("-") == negative, text
            if negative:
                assert parse_expr(text[1:], 2, allow_time=True) == normalize(
                    Prod((Const(Fraction(-1)), term)))

    @given(st.integers(min_value=0, max_value=10**6))
    def test_normalized_trees_print_as_first_written(self, seed):
        rng = random.Random(seed)
        for _ in range(4):
            e = random_normal_expr(rng, depth=4, allow_time=True)
            assert print_expr(e) == ref_fmt(e)
        try:
            coefficients = series.expand_in_time(random_normal_expr(rng, depth=3, allow_time=True), 3)
        except ExpansionSingular:
            coefficients = ()
        for c in coefficients:
            assert print_expr(c) == ref_fmt(c)

    @pytest.mark.parametrize("tree,text", [
        (Sum((Var(1), Prod((MINUS_ONE, Sum((Var(2), Var(3))))))), "x1 - (x2 + x3)"),
        (Sum((Var(1), Prod((Const(Fraction(-2, 3)), Sum((Var(2), Var(3))))))),
         "x1 - 2/3*(x2 + x3)"),
        (Sum((Var(1), Prod((MINUS_ONE, Sum((Var(2), Prod((MINUS_ONE, Var(3))))))))),
         "x1 - (x2 - x3)"),
        (Sum((Var(1), Prod((MINUS_ONE, Sum((Var(2), Var(3))), Var(1))))), "x1 - (x2 + x3)*x1"),
    ])
    def test_a_negated_sum_in_a_sum_keeps_its_brackets(self, tree, text):
        # the first printer wrote the first case "x1 - x2 + x3"
        assert print_expr(tree) == text
        assert parse_expr(text, 3) == normalize(tree)

    def test_trees_not_normalized(self):
        # besides a negated sum in a sum, the forms that print otherwise
        # than as first written: a rational 1 that leads a product, and a
        # later term whose text starts with "-" though no negative
        # rational leads it
        assert print_expr(Prod((Const(Fraction(1)), Var(1)))) == "x1"
        assert ref_fmt(Prod((Const(Fraction(1)), Var(1)))) == "1*x1"
        nested = Sum((Var(1), Sum((Prod((MINUS_ONE, Var(2))), Var(3)))))
        assert print_expr(nested) == "x1 - x2 + x3"
        assert ref_fmt(nested) == "x1 + -x2 + x3"
        nested = Sum((Var(1), Prod((Prod((MINUS_ONE, Var(2))), Var(3)))))
        assert print_expr(nested) == "x1 - x2*x3"
        assert ref_fmt(nested) == "x1 + -x2*x3"


def _base_doc():
    return {
        "m": 1,
        "n": 2,
        "rho": [["1"]],
        "L": [
            {"row": 0, "col": 0, "coeff": "1", "derivs": [2, 0]},
            {"row": 0, "col": 0, "coeff": "1", "derivs": [0, 2]},
        ],
        "f": ["-2*t*cos(x1)^2*cos(x2) + 3*t*sin(x1)^2*cos(x2)"],
        "u0": ["0"],
        "u1": ["sin(x1)^2*cos(x2)"],
        "order": 6,
    }


class TestProblemFiles:
    def test_parses_bundled_style_document(self):
        p = parse_problem(json.dumps(_base_doc()))
        assert p.m == 1 and p.n == 2 and p.order == 6
        assert p.u1[0] == parse_expr("sin(x1)^2*cos(x2)", 2)
        assert len(p.L.terms) == 2
        assert p.rho_inv.entries[0][0] == Fraction(1)

    def test_rho_inverted_eagerly(self):
        doc = _base_doc()
        doc["rho"] = [["0"]]
        with pytest.raises(SingularRho):
            parse_problem(json.dumps(doc))

    def test_vector_length_mismatch(self):
        doc = _base_doc()
        doc["u0"] = ["0", "0"]
        with pytest.raises(DimensionMismatch):
            parse_problem(json.dumps(doc))

    def test_derivs_length_mismatch(self):
        doc = _base_doc()
        doc["L"][0]["derivs"] = [2]
        with pytest.raises(DimensionMismatch):
            parse_problem(json.dumps(doc))

    @pytest.mark.parametrize("mutate,error,message", [
        (lambda d: d.pop("rho"), FormatError, "missing field 'rho'"),
        (lambda d: d.pop("order"), FormatError, "missing field 'order'"),
        (lambda d: d.update(order=0), FormatError, "field 'order' must be >= 1"),
        (lambda d: d.update(m="1"), FormatError, "field 'm' must be an integer"),
        (lambda d: d.update(rho=[[1]]), FormatError,
         'rho[0][0] must be a rational string like "-3/2"'),
        (lambda d: d["L"][0].update(derivs=[2, -1]), FormatError,
         "L[0].derivs entries must be nonnegative"),
        (lambda d: d.update(u0=[3]), FormatError, "u0[0] must be an expression string"),
        (lambda d: d.update(rho=[["1", "0"], ["0", "1"]]), DimensionMismatch,
         "field 'rho' must be an array of shape 1x1"),
        (lambda d: d.update(rho=["1"]), DimensionMismatch,
         "field 'rho' must be an array of shape 1x1"),
        (lambda d: d.update(rho=[["1/0"]]), FormatError, "rho[0][0] has a zero denominator"),
        (lambda d: d.update(rho=[["1/x"]]), FormatError,
         "rho[0][0] is not a valid rational: Invalid literal for Fraction: '1/x'"),
        (lambda d: d.update(L={}), FormatError, "field 'L' must be a list of operator terms"),
        (lambda d: d["L"].__setitem__(0, [0, 0, 1, [2, 0]]), FormatError,
         "L[0] must be an object"),
        (lambda d: d["L"][0].update(row="0"), FormatError, "L[0] row/col must be integers"),
        (lambda d: d["L"][0].update(row=True), FormatError, "L[0] row/col must be integers"),
        (lambda d: d["L"][0].update(col=0.0), FormatError, "L[0] row/col must be integers"),
        (lambda d: d["L"][0].update(col=True), FormatError, "L[0] row/col must be integers"),
        (lambda d: d["L"][0].update(derivs="20"), FormatError,
         "L[0].derivs must be a list of integers"),
        (lambda d: d["L"][0].update(derivs=[2, 0.5]), FormatError,
         "L[0].derivs must be a list of integers"),
        (lambda d: d["L"][0].update(derivs=[True, 0]), FormatError,
         "L[0].derivs must be a list of integers"),
        # SpatialOperator checks the types, once every coefficient has parsed
        (lambda d: d["L"][0].update(derivs=[0.5, 0]) or d["L"][1].update(coeff="1+"), ParseError,
         "L[1].coeff: unexpected eof at offset 2 (expected number, identifier, '(', '-')"),
    ])
    def test_format_errors(self, mutate, error, message):
        doc = _base_doc()
        mutate(doc)
        with pytest.raises(error) as err:
            parse_problem(json.dumps(doc))
        assert str(err.value) == message

    def test_deeply_nested_json_is_a_format_error(self):
        with pytest.raises(FormatError) as err:
            parse_problem('{"m": ' + "[" * 100000 + "]" * 100000 + "}")
        assert "nests deeper" in str(err.value)

    @pytest.mark.parametrize("text,message", [
        ("m = 1", "problem file is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[]", "problem file must be a JSON object"),
        ('"m"', "problem file must be a JSON object"),
    ])
    def test_not_a_json_object(self, text, message):
        with pytest.raises(FormatError) as err:
            parse_problem(text)
        assert str(err.value) == message

    def test_time_rejected_in_initial_data(self):
        doc = _base_doc()
        doc["u0"] = ["t"]
        with pytest.raises(TimeNotAllowed) as err:
            parse_problem(json.dumps(doc))
        assert "u0[0]" in err.value.message

    def test_deep_nesting_rejected_in_fields(self):
        doc = _base_doc()
        doc["u1"] = ["(" * 3000 + "x1" + ")" * 3000]
        with pytest.raises(ParseError) as err:
            parse_problem(json.dumps(doc))
        assert "u1[0]" in err.value.message
        assert err.value.offset == MAX_NESTING

    def test_huge_constant_power_rejected_in_fields(self):
        doc = _base_doc()
        doc["u0"] = ["x1 + 2^99999999"]
        with pytest.raises(ParseError) as err:
            parse_problem(json.dumps(doc))
        assert "u0[0]" in err.value.message
        assert err.value.offset == 7

    @pytest.mark.parametrize("field", ["f", "u0", "u1", "coeff"])
    def test_huge_normalized_constant_rejected_in_fields(self, field):
        doc = _base_doc()
        text = "(2^14000*x1)*(2^14000*x1)"
        if field == "coeff":
            doc["L"][0]["coeff"] = text
            where = "L[0].coeff"
        else:
            doc[field] = [text]
            where = f"{field}[0]"
        with pytest.raises(ParseError) as err:
            parse_problem(json.dumps(doc))
        assert where in err.value.message
        assert err.value.offset == 13

    def test_zero_to_a_negative_power_rejected_in_fields(self):
        doc = _base_doc()
        doc["u1"] = ["x1 + 1/(x2 - x2)"]
        with pytest.raises(ParseError) as err:
            parse_problem(json.dumps(doc))
        assert "u1[0]" in err.value.message
        assert err.value.offset == 7

    @pytest.mark.parametrize("field", ["u0", "u1", "coeff"])
    def test_hidden_zero_to_a_negative_power_rejected_in_fields(self, field):
        # the tree keeps the product of sums whole; only the polynomial is 0
        doc = _base_doc()
        text = "x1 + 1/((1+x1)*(1-x1)+x1^2-1)"
        if field == "coeff":
            doc["L"][0]["coeff"] = text
            where = "L[0].coeff"
        else:
            doc[field] = [text]
            where = f"{field}[0]"
        with pytest.raises(ParseError) as err:
            parse_problem(json.dumps(doc))
        assert err.value.message == f"{where}: zero raised to a negative power"
        assert err.value.offset == 0

    def test_time_rejected_in_operator_coeff(self):
        doc = _base_doc()
        doc["L"][0]["coeff"] = "t"
        with pytest.raises(TimeNotAllowed):
            parse_problem(json.dumps(doc))

    def test_row_out_of_range(self):
        doc = _base_doc()
        doc["L"][0]["row"] = 1
        with pytest.raises(DimensionMismatch):
            parse_problem(json.dumps(doc))

    def test_rational_entries(self):
        doc = _base_doc()
        doc["rho"] = [["-3/2"]]
        p = parse_problem(json.dumps(doc))
        assert p.rho.entries[0][0] == Fraction(-3, 2)
        assert p.rho_inv.entries[0][0] == Fraction(-2, 3)


def _problem_text(p: ProblemSpec) -> str:
    return json.dumps({
        "m": p.m, "n": p.n, "order": p.order,
        "rho": [[str(x) for x in row] for row in p.rho.entries],
        "L": [{"row": t.row, "col": t.col, "coeff": print_expr(t.coeff), "derivs": list(t.orders)}
              for t in p.L.terms],
        **{key: [print_expr(e) for e in vec] for key, vec in
           (("f", p.f_source), ("u0", p.u0), ("u1", p.u1))},
    })


def _create(text: str) -> ProblemSpec:
    """ProblemSpec.create of the fields of a problem file, each parsed
    alone, with the time symbol allowed and variables up to x9, so that
    create, not the grammar, refuses it where a problem does."""
    doc = json.loads(text)
    m, n = doc["m"], doc["n"]
    rho = RationalMatrix.from_rows([[Fraction(x) for x in row] for row in doc["rho"]])
    dim = max(n, 9)  # the grammar refuses a variable past its dimension; create judges n
    terms = tuple(OperatorTerm(t["row"], t["col"], parse_expr(t["coeff"], dim, allow_time=True),
                               tuple(t["derivs"]))
                  for t in doc["L"])
    vectors = [[parse_expr(s, dim, allow_time=True) for s in doc[key]] for key in ("f", "u0", "u1")]
    return ProblemSpec.create(m, n, rho, SpatialOperator(m, n, terms), *vectors, doc["order"])


_HIDDEN_ZERO = "x1 + 1/((1+x1)*(1-x1)+x1^2-1)"


class TestProblemBuiltDirectly:
    """parse_problem and ProblemSpec.create build a problem through one
    validator, series.checked_problem: parse_problem checks only the JSON
    types and the grammar, and hands it the trees it parsed, which are
    normal already."""

    @pytest.mark.parametrize("name", ["wave_1d.prob", "forced_wave_2d.prob", "coupled_2x2.prob"])
    def test_bundled_problems_equal_create(self, name):
        with open(problem_path(name), encoding="utf-8") as handle:
            text = handle.read()
        assert parse_problem(text) == _create(text)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_problems_equal_create(self, seed):
        p, _ = random_problem(seed)
        text = _problem_text(p)
        assert parse_problem(text) == _create(text) == p

    def test_no_tree_is_normalized_again(self, monkeypatch):
        texts = [_problem_text(random_problem(seed)[0]) for seed in range(10)]
        for name in ("wave_1d.prob", "forced_wave_2d.prob", "coupled_2x2.prob"):
            with open(problem_path(name), encoding="utf-8") as handle:
                texts.append(handle.read())
        calls = []
        for module in (expr, series):
            original = module.normalize
            monkeypatch.setattr(module, "normalize", lambda e, f=original: calls.append(e) or f(e))
        for text in texts:
            parse_problem(text)
        assert calls == []

    # one fault per document, for each rule of a problem that a file can
    # break; the operator's m and n are the file's own on both paths
    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(order=0),
        lambda d: d.update(order=-3),
        lambda d: d.update(rho=[["1", "0"], ["0", "1"]]),
        lambda d: d.update(rho=[["0"]]),
        lambda d: d.update(f=["0", "0"]),
        lambda d: d.update(u0=[]),
        lambda d: d.update(u1=["0", "x1", "x2"]),
        lambda d: d.update(u0=["x1*t"]),
        lambda d: d.update(u1=["sin(t)"]),
        lambda d: d["L"][1].update(coeff="t"),
        lambda d: d.update(u0=[_HIDDEN_ZERO]),
        lambda d: d.update(u1=[_HIDDEN_ZERO]),
        lambda d: d["L"][1].update(coeff=_HIDDEN_ZERO),
        lambda d: d["L"][0].update(row=1),
        lambda d: d["L"][1].update(col=-1),
        lambda d: d["L"][0].update(derivs=[2]),
        lambda d: d["L"][0].update(derivs=[2, 0, 0]),
        lambda d: d["L"][0].update(derivs=[2, -1]),
        # a count below 1, with no term and no variable left to read it
        lambda d: d.update(n=0, L=[], f=["t"], u1=["1"]),
        lambda d: d.update(m=0, L=[]),
        # a variable past n
        lambda d: d["L"][1].update(coeff="x3"),
        lambda d: d.update(f=["x9*t"]),
        lambda d: d.update(u0=["x5"]),
        lambda d: d.update(u1=["1 + x3"]),
    ])
    def test_both_paths_refuse_a_fault_alike(self, mutate):
        doc = _base_doc()
        mutate(doc)
        text = json.dumps(doc)
        refused = []
        for build in (parse_problem, _create):
            with pytest.raises(PdeSeriesError) as err:
                build(text)
            refused.append((type(err.value), getattr(err.value, "message", str(err.value))))
        # the grammar places t at its byte offset, create at offset 0
        assert refused[0] == refused[1]
