"""Command line behavior: outputs, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdeseries import cli, hpm, series, taylor, verify
from pdeseries.cli import build_parser, main
from pdeseries.poly import Ring

from conftest import problem_path

FORCED_WAVE = problem_path("forced_wave_2d.prob")
WAVE = problem_path("wave_1d.prob")
COUPLED = problem_path("coupled_2x2.prob")

FORCING_1X1 = """{"m": 1, "n": 2, "rho": [["1"]],
 "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2, 0]},
       {"row": 0, "col": 0, "coeff": "1", "derivs": [0, 2]}],
 "f": ["exp(sin(x1*t))*tanh(t+x2)"],
 "u0": ["0"], "u1": ["0"], "order": 10}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_golden_output(self, capsys):
        code, out, _ = run(capsys, "solve", FORCED_WAVE, "--order", "6")
        assert code == 0
        assert "u[1] = sin(x1)^2*cos(x2)" in out
        assert "verdict: exact (linear-exact)" in out
        for j in (0, 2, 3, 4, 5, 6):
            assert f"u[{j}] = 0" in out

    def test_not_exact_verdict(self, capsys):
        code, out, _ = run(capsys, "solve", WAVE)
        assert code == 0
        assert "verdict: not exact" in out
        assert "u[2] = -1/2*sin(x1)" in out

    def test_sample_points_where_sin_meets_infinity_are_redrawn(self, tmp_path, capsys):
        # for x1 above about 0.5 the product overflows to inf without raising
        doc = {
            "m": 1, "n": 1, "rho": [["1"]],
            "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2]}],
            "f": ["0"], "u0": ["sin(exp(700*x1)*exp(699*x1))"], "u1": ["0"], "order": 3,
        }
        path = tmp_path / "overflow.prob"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 0 and err == ""
        assert "verdict: not exact" in out

    def test_sample_points_where_a_side_is_infinite_are_redrawn(self, tmp_path, capsys):
        # exp(400)*exp(401) overflows to inf at every point, so no point
        # can show whether the residual is zero
        doc = {
            "m": 1, "n": 1, "rho": [["1"]],
            "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2]}],
            "f": ["0"], "u0": ["exp(400)*exp(401)*sin(x1)"], "u1": ["0"], "order": 4,
        }
        path = tmp_path / "infinite.prob"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2 and out == ""
        assert err == "error: no valid sample point found in 64 draws\n"

    def test_multi_component_labels(self, capsys):
        code, out, _ = run(capsys, "solve", COUPLED)
        assert code == 0
        assert "u[0][0] = x1^2" in out
        assert "u[1][1] = x1" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "solve", FORCED_WAVE, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is True
        assert doc["exact_reason"] == "linear-exact"
        assert doc["coefficients"][1] == ["sin(x1)^2*cos(x2)"]


class TestCompare:
    def test_agreement_exit_zero(self, capsys):
        code, out, _ = run(capsys, "compare", FORCED_WAVE, "--corrections", "2")
        assert code == 0
        assert "overall: equivalent" in out
        for d in range(6):
            assert f"\n{d} " in "\n" + out

    def test_json_round_trips_bytes(self, capsys):
        code, out, _ = run(capsys, "compare", WAVE, "--corrections", "2",
                           "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out

    def test_rejects_bad_count(self, capsys):
        code, _, err = run(capsys, "compare", WAVE, "--corrections", "0")
        assert code == 2
        assert "error" in err


class TestResidual:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "residual", WAVE)
        assert code == 0
        assert "overall: pass" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "residual", COUPLED, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["overall"] is True
        assert doc["checked_degrees"] == [0, 3]

    @pytest.mark.parametrize("fmt", [(), ("--format", "json")])
    def test_prints_no_exactness_verdict_and_computes_none(self, capsys, monkeypatch, fmt):
        want = run(capsys, "residual", COUPLED, *fmt)

        def refuse(*args, **kwargs):
            raise AssertionError("residual has no use for an exactness verdict")

        monkeypatch.setattr(taylor, "detect_exact", refuse)
        assert run(capsys, "residual", COUPLED, *fmt) == want
        assert want[0] == 0 and "exact" not in want[1]


class TestForcedProblem:
    @pytest.mark.parametrize("argv,sha1", [
        (("solve", "--order", "10"), "52a6c17da9077952e7c132143522b4023d8c4bcd"),
        (("residual", "--order", "10"), "5841f4fefe86801a442f96bb0735386771ed536f"),
        (("hpm", "--corrections", "2"), "a629e7bd220798c684a305cffe0aaeba5256963c"),
        (("compare", "--corrections", "2"), "7aa390d0b6ed1ed7a1c8c1fa715517b28dda64b6"),
    ])
    def test_prints_the_same_bytes(self, capsys, tmp_path, argv, sha1):
        # the engines expand the forcing in the polynomial ring; these are
        # the bytes of the expansion by tree jets converted to the ring
        path = tmp_path / "forcing_1x1.prob"
        path.write_text(FORCING_1X1, encoding="utf-8")
        code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == sha1


class TestExpand:
    @pytest.mark.parametrize("text,order,sha1", [
        ("exp(t)*sin(x1+t)*cos(x2)", "18", "8a1fdcdec9e536c17e877f1c0aca1888f63c926d"),
        ("exp(sin(x1*t))*tanh(t+x2)", "12", "441d2c1f3b5c0ce69aa3d257659656adcc2a389f"),
        ("sinh(x1+t^2)*exp(-t*x2)", "14", "451f93bc4158b074eb76f72707e2902c47cf5238"),
        ("cosh(x1*t)*sin(t^2+x2)*exp(t)", "10", "f070d8febfdae5c280c94573bd431a86dc827d2f"),
    ])
    def test_benchmark_expansions_print_the_same_bytes(self, capsys, text, order, sha1):
        code, out, _ = run(capsys, "expand", "--expr", text, "--order", order)
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == sha1

    def test_golden_expansion(self, capsys):
        code, out, _ = run(capsys, "expand", "--expr", "x1^2*exp(t)", "--order", "3")
        assert code == 0
        assert out.strip() == "[x1^2, x1^2, 1/2*x1^2, 1/6*x1^2]"

    def test_json_expansion(self, capsys):
        assert run(capsys, "expand", "--expr", "sin(x1 + t)", "--order", "3",
                   "--format", "json") == (0, """{
  "coefficients": [
    "sin(x1)",
    "cos(x1)",
    "-1/2*sin(x1)",
    "-1/6*cos(x1)"
  ]
}
""", "")

    def test_constant_expansion(self, capsys):
        code, out, _ = run(capsys, "expand", "--expr", "7", "--order", "2")
        assert code == 0
        assert out.strip() == "[7, 0, 0]"

    def test_dimension_flag(self, capsys):
        code, _, err = run(capsys, "expand", "--expr", "x4*t", "--order", "1")
        assert code == 2  # default dimension is 3
        code, out, _ = run(capsys, "expand", "--expr", "x4*t", "--order", "1",
                           "--dim", "4")
        assert code == 0
        assert out.strip() == "[0, x4]"

    def test_deep_nesting_is_input_error(self, capsys):
        deep = "(" * 3000 + "x1" + ")" * 3000
        code, _, err = run(capsys, "expand", "--expr", deep, "--order", "1")
        assert code == 2
        assert "nesting" in err and "offset" in err

    def test_moderate_nesting_expands(self, capsys):
        for text in ("(" * 100 + "x1*t" + ")" * 100, "sin(" * 100 + "x1" + ")" * 100):
            code, out, _ = run(capsys, "expand", "--expr", text, "--order", "1")
            assert code == 0 and out.startswith("[")

    @pytest.mark.parametrize("text", [
        "2^9999999999", "(1/3)^99999999", "2^99999999", "(2*x1)^99999999",
        "(x1/2 + 1/2)^99999999",
    ])
    def test_huge_constant_power_is_input_error(self, capsys, text):
        start = time.perf_counter()
        code, _, err = run(capsys, "expand", "--expr", text, "--order", "0")
        assert code == 2
        assert "offset" in err
        assert time.perf_counter() - start < 10  # refused, not computed

    def test_large_powers_expand(self, capsys):
        code, out, _ = run(capsys, "expand", "--expr", "x1^2*2^5000", "--order", "0")
        assert code == 0 and out == f"[{2**5000}*x1^2]\n"
        code, out, _ = run(capsys, "expand", "--expr", "x1^99999999", "--order", "0")
        assert code == 0 and out == "[x1^99999999]\n"

    def test_huge_constant_product_is_input_error(self, capsys):
        code, out, err = run(capsys, "expand", "--expr", "2^14000*2^14000", "--order", "0")
        assert code == 2 and out == ""
        assert "product of constants" in err and "offset 8" in err
        code, out, _ = run(capsys, "expand", "--expr", "x1*2^3000*2^3000", "--order", "0")
        assert code == 0 and out == f"[{2**6000}*x1]\n"

    @pytest.mark.parametrize("text,offset", [
        ("(2^14000*x1)*(2^14000*x1)", 13),
        ("1/3^5000 + 1/7^5000", 11),
        ("10^4300", 3),
    ])
    def test_huge_normalized_constant_is_input_error(self, capsys, text, offset):
        # constants folded across chains, not only within one
        code, out, err = run(capsys, "expand", "--expr", text, "--order", "0")
        assert code == 2 and out == ""
        assert "too large" in err and f"offset {offset}" in err

    def test_singular_expansion_is_input_error(self, capsys):
        code, _, err = run(capsys, "expand", "--expr", "ln(t)", "--order", "2")
        assert code == 2
        assert "error" in err


_EXPR_TOKENS = (
    "x1", "x2", "x4", "t", "y", "2", "0", "1/2", "0.5", "14000", "99999999",
    "sin(", "cos(", "exp(", "ln(", "sinh(", "cosh(", "tanh(", "(", ")",
    "+", "-", "*", "/", "^", " ", ",", "$",
)


_TOKEN_SOUP = st.lists(st.sampled_from(_EXPR_TOKENS), max_size=14).map("".join)


def _well_formed(inner):
    exponents = st.sampled_from(("2", "-1", "(-2)", "14000", "99999999"))
    functions = st.sampled_from(("sin", "cos", "exp", "ln", "sinh", "cosh", "tanh"))
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
        st.tuples(inner, exponents).map(lambda a: f"({a[0]})^{a[1]}"),
        st.tuples(functions, inner).map(lambda a: f"{a[0]}({a[1]})"),
    )


_WELL_FORMED = st.recursive(
    st.sampled_from(("x1", "x2", "t", "2", "1/2", "0", "14000", "99999999")),
    _well_formed,
    max_leaves=6,
)


class TestExpandFuzz:
    @settings(max_examples=400)
    @given(st.one_of(_TOKEN_SOUP, _WELL_FORMED), st.integers(0, 4))
    @example("--", 0)  # argparse before 3.12 reads --expr=-- as an empty list
    @example("(2+t)^99999999", 2)
    @example("2^14000*2^14000", 0)
    def test_exit_code_is_zero_or_input_error(self, text, order):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["expand", f"--expr={text}", "--order", str(order)])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2), err
        assert (code == 0) == out.startswith("[")


_SPATIAL = st.recursive(
    st.sampled_from(("x1", "2", "x2", "1/2", "0")),
    _well_formed,
    max_leaves=4,
)
_WITH_TIME = st.recursive(
    st.sampled_from(("t", "x1", "2", "x2", "1/2", "0")),
    _well_formed,
    max_leaves=4,
)
_NOT_AN_EXPRESSION = st.one_of(st.none(), st.integers(-3, 3), st.lists(st.just("x1")))


@st.composite
def _problem_documents(draw):
    """A problem document, well-formed or with one field broken."""
    m, n = draw(st.integers(1, 2)), draw(st.sampled_from((2, 1)))

    def expressions(texts):
        return [draw(texts) for _ in range(m)]

    doc = {
        "m": m, "n": n, "order": draw(st.integers(1, 4)),
        "rho": [[draw(st.sampled_from(("1", "-1/2") if i == j else ("0", "1/2")))
                 for j in range(m)] for i in range(m)],
        "L": [{"row": draw(st.integers(0, m - 1)), "col": draw(st.integers(0, m - 1)),
               "coeff": draw(_SPATIAL),
               "derivs": [draw(st.integers(0, 2)) for _ in range(n)]}
              for _ in range(draw(st.integers(0, 3)))],
        "f": expressions(_WITH_TIME),
        "u0": expressions(_SPATIAL),
        "u1": expressions(_SPATIAL),
    }
    broken = draw(st.sampled_from((None, None, "drop", "retype", "soup", "length")))
    key = draw(st.sampled_from(sorted(doc)))
    if broken == "drop":
        del doc[key]
    elif broken == "retype":
        doc[key] = draw(st.one_of(_NOT_AN_EXPRESSION, st.just("1"), st.just(-1),
                                  st.just([{"row": 0}]), st.just(10**30)))
    elif broken == "soup":
        for name in ("f", "u0", "u1"):
            doc[name] = expressions(_TOKEN_SOUP)
    elif broken == "length" and isinstance(doc[key], list):
        doc[key] = doc[key][:-1]
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 9:  # not JSON, or not all of it
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestProblemFileFuzz:
    @settings(max_examples=200)
    @given(_problem_documents(), st.integers(1, 2))
    @example(Path(COUPLED).read_text(encoding="utf-8"), 2)
    def test_exit_code_is_success_input_error_or_check_failed(self, text, corrections):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.prob"
            path.write_text(text, encoding="utf-8")
            for argv in (["solve", str(path)], ["residual", str(path)],
                         ["compare", str(path), "--corrections", str(corrections)]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 2, 3), (argv[0], text, err.getvalue())
                assert (code == 2) == err.getvalue().startswith("error: ")


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("bad", [
        ("bogus", WAVE),
        ("compare", WAVE),
    ])
    def test_bad_command_line_leaves_it_usable(self, capsys, bad):
        argv = ("compare", WAVE, "--corrections", "2")
        before = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(list(bad))
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *argv) == before


class TestErrorsAndExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "no_such_file.prob")
        assert code == 2 and "error" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.prob"
        path.write_text("not json", encoding="utf-8")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2

    def test_product_past_a_lowered_digit_limit_is_input_error(self, capsys):
        # under a limit of 640 digits, 2^1990 (600 digits) passes and its
        # square (1199) is refused where the product is made
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            result = run(capsys, "expand", "--expr", "2^1990*2^1990", "--order", "2")
        finally:
            sys.set_int_max_str_digits(limit)
        assert result == (
            2, "", "error: product of constants too large to represent at offset 7\n")

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        # deeper than the JSON decoder recurses: an input error, not exit 4
        path = tmp_path / "deep.prob"
        path.write_text('{"m": ' + "[" * 100000 + "]" * 100000 + "}", encoding="utf-8")
        assert run(capsys, "solve", str(path)) == (
            2, "", "error: problem file nests deeper than the JSON decoder allows\n")

    def test_hidden_zero_in_initial_data_names_its_field(self, tmp_path, capsys):
        doc = {
            "m": 1, "n": 1, "rho": [["1"]],
            "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2]}],
            "f": ["0"], "u0": ["1/((1+x1)*(1-x1)+x1^2-1)"], "u1": ["0"], "order": 4,
        }
        path = tmp_path / "hidden.prob"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(capsys, "solve", str(path)) == (
            2, "", "error: u0[0]: zero raised to a negative power at offset 0\n")

    @pytest.mark.parametrize("forcing,message", [
        # a constant term that is a zero polynomial, though not the tree 0
        ("ln((1+x1)*(1-x1)+x1^2-1+t)", "ln argument vanishes or is negative at time zero"),
        ("((1+x1)*(1-x1)+x1^2-1+t)^(-2)", "negative power of a series that vanishes at time zero"),
        ("ln((1+x1)*(1-x1)+x1^2-2)*t", "ln argument vanishes or is negative at time zero"),
        ("((2+x1)*(2-x1)+x1^2+t)^99999999",
         "power of a constant too large to represent at time zero"),
    ])
    @pytest.mark.parametrize("command", ["solve", "hpm", "compare", "residual"])
    def test_hidden_constant_term_is_singular(self, tmp_path, capsys, forcing, message, command):
        doc = {
            "m": 1, "n": 1, "rho": [["1"]],
            "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2]}],
            "f": [forcing], "u0": ["0"], "u1": ["0"], "order": 4,
        }
        path = tmp_path / "hidden.prob"
        path.write_text(json.dumps(doc), encoding="utf-8")
        extra = ("--corrections", "2") if command in ("hpm", "compare") else ()
        code, out, err = run(capsys, command, str(path), *extra)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("forcing", [
        "(7^500*x1 + t)^99999",  # a one-term constant to the power
        "(7^500*x1 + 7^500*x1^2 + t)^(-99999)",  # a sum's content to the power
    ])
    def test_power_of_a_large_constant_term_is_input_error(self, tmp_path, capsys, forcing):
        doc = {
            "m": 1, "n": 1, "rho": [["1"]],
            "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2]}],
            "f": [forcing], "u0": ["0"], "u1": ["0"], "order": 3,
        }
        path = tmp_path / "large_power.prob"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(capsys, "solve", str(path)) == (
            2, "", "error: power of a constant too large to represent\n")

    @pytest.mark.parametrize("argv,message", [
        (("hpm", WAVE, "--corrections", "-1"), "--corrections must be >= 0"),
        (("compare", WAVE, "--corrections", "0"), "--corrections must be >= 1"),
        (("expand", "--expr", "x1", "--order", "-1"), "--order must be >= 0"),
        (("expand", "--expr", "x1", "--order", "1", "--dim", "0"), "--dim must be >= 1"),
    ])
    def test_counts_out_of_range(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("fmt", [(), ("--format", "json")])
    def test_coefficient_past_the_digit_limit_prints_nothing(self, tmp_path, capsys, fmt):
        # u0 parses, and so does u[2]; the numerator of u[4] has about
        # 8800 digits.  No row is written before the one that fails
        doc = {
            "m": 1, "n": 1, "rho": [["1"]],
            "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2]}],
            "f": ["0"], "u0": ["x1^(10^2200)"], "u1": ["0"], "order": 4,
        }
        path = tmp_path / "huge_power.prob"
        path.write_text(json.dumps(doc), encoding="utf-8")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            result = run(capsys, "hpm", str(path), "--corrections", "1", *fmt)
        finally:
            sys.set_int_max_str_digits(limit)
        assert result == (2, "", "error: product of constants too large to represent\n")

    def test_singular_mass_matrix(self, tmp_path, capsys):
        doc = {
            "m": 1, "n": 1, "rho": [["0"]],
            "L": [], "f": ["0"], "u0": ["0"], "u1": ["0"], "order": 2,
        }
        path = tmp_path / "singular.prob"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2 and "singular" in err

    def test_mismatch_exit_three(self, capsys, monkeypatch):
        # no valid problem can make the engines disagree, so stub the
        # check to exercise the failure exit path
        from pdeseries.verify import DegreeCheck, EquivalenceReport

        failing = EquivalenceReport(
            corrections=1,
            per_degree=(DegreeCheck(0, False, 1.0),),
            overall=False,
        )
        monkeypatch.setattr(cli, "equivalence_check", lambda *a, **kw: failing)
        code, out, _ = run(capsys, "compare", COUPLED, "--corrections", "1")
        assert code == 3
        assert "MISMATCH" in out


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("solve", FORCED_WAVE),
        ("compare", WAVE, "--corrections", "2"),
        ("residual", COUPLED, "--format", "json"),
        ("hpm", WAVE, "--corrections", "2"),
    ])
    def test_byte_identical_across_runs(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestHpmCommand:
    def test_prints_corrections_and_sum(self, capsys):
        code, out, _ = run(capsys, "hpm", WAVE, "--corrections", "2")
        assert code == 0
        assert "correction 0:" in out
        assert "correction 2:" in out
        assert "partial sum" in out
        assert "u[2] = -1/2*sin(x1)" in out

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "hpm", WAVE, "--corrections", "1",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["corrections"]) == 2
        assert doc["working_order"] == 3
        assert doc["partial_sum"][2] == ["-1/2*sin(x1)"]


class TestPrintsFromPolynomials:
    @pytest.mark.parametrize("path", [WAVE, FORCED_WAVE, COUPLED])
    @pytest.mark.parametrize("argv", [("solve",), ("hpm", "--corrections", "3"), ("residual",)])
    @pytest.mark.parametrize("fmt", [(), ("--format", "json")])
    def test_no_coefficient_tree_is_built_or_read(self, monkeypatch, capsys, path, argv, fmt):
        # the rows go from the engine to the printer.  Ring.to_tree is left
        # to the ring itself: to name the argument of a function atom, and
        # for the oracle, which samples trees, in the verdicts of solve and
        # residual.  series_rows hands back the rows a series keeps and
        # converts no tree
        callers = []
        original = Ring.to_tree

        def to_tree(self, p):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(self, p)

        def kept_rows(ring, s):
            rows = series.series_rows(ring, s)
            assert rows is vars(s).get("_rows"), "series_rows converted a tree"
            return rows

        monkeypatch.setattr(Ring, "to_tree", to_tree)
        for module in (cli, taylor, hpm, verify):
            monkeypatch.setattr(module, "series_rows", kept_rows)
        code, out, _ = run(capsys, argv[0], path, *argv[1:], *fmt)
        assert code == 0 and out
        assert set(callers) <= {"func", "deviation"}
