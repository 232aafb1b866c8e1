"""Correctness gate: checks captured command output against known answers.

Printed coefficients are re-parsed by a small parser of the benchmark's
own (no pdeseries code) and evaluated at fixed points, so the gate
compares values, not printed forms: a different canonical form passes,
a wrong coefficient fails.  The gate runs outside the timed phase.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

# Fixed evaluation points; component i binds x(i+1).
POINTS = (
    (0.3711, -0.5293, 0.1931),
    (-0.6127, 0.2473, -0.4409),
    (0.8089, 0.6353, 0.7211),
)

REL_TOL = 1e-9
# Absolute floor, relative to the largest reference value of the task.
FLOOR = 1e-14

_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log,
         "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh}


# ---------------------------------------------------------------------------
# Expression parsing and evaluation
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|(\S))")


def _tokenize(src: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    src = src.rstrip()
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ValueError(f"cannot tokenize at {pos}")
        pos = m.end()
        number, ident, op = m.groups()
        if number is not None:
            out.append(("num", number))
        elif ident is not None:
            out.append(("id", ident))
        else:
            out.append(("op", op))
    out.append(("end", ""))
    return out


class _Parser:
    """additive := mult (('+'|'-') mult)*; mult := unary (('*'|'/') unary)*;
    unary := '-' unary | power; power := atom ('^' unary)?;
    atom := number | variable | name '(' additive ')' | '(' additive ')'.
    Sums and products are n-ary so long outputs do not nest deeply."""

    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self) -> tuple[str, str]:
        return self.toks[self.i]

    def take(self, text: str) -> bool:
        if self.toks[self.i] == ("op", text):
            self.i += 1
            return True
        return False

    def parse(self):
        node = self.additive()
        if self.peek()[0] != "end":
            raise ValueError(f"trailing input at token {self.i}")
        return node

    def additive(self):
        terms = [(1, self.mult())]
        while True:
            if self.take("+"):
                terms.append((1, self.mult()))
            elif self.take("-"):
                terms.append((-1, self.mult()))
            else:
                break
        return terms[0][1] if len(terms) == 1 and terms[0][0] == 1 else ("sum", terms)

    def mult(self):
        factors = [(1, self.unary())]
        while True:
            if self.take("*"):
                factors.append((1, self.unary()))
            elif self.take("/"):
                factors.append((-1, self.unary()))
            else:
                break
        return factors[0][1] if len(factors) == 1 else ("prod", factors)

    def unary(self):
        if self.take("-"):
            return ("sum", [(-1, self.unary())])
        return self.power()

    def power(self):
        base = self.atom()
        if not self.take("^"):
            return base
        exponent = evaluate(self.unary(), ())
        if exponent != int(exponent):
            raise ValueError("non-integer exponent")
        return ("pow", base, int(exponent))

    def atom(self):
        kind, text = self.peek()
        self.i += 1
        if kind == "num":
            return ("num", Fraction(text))
        if kind == "id":
            if text in _MATH:
                if not self.take("("):
                    raise ValueError("expected '(' after function name")
                arg = self.additive()
                if not self.take(")"):
                    raise ValueError("expected ')'")
                return ("call", text, arg)
            if text == "t":
                return ("var", 0)
            if re.fullmatch(r"x[1-9][0-9]*", text):
                return ("var", int(text[1:]))
            raise ValueError(f"unknown identifier {text!r}")
        if (kind, text) == ("op", "("):
            inner = self.additive()
            if not self.take(")"):
                raise ValueError("expected ')'")
            return inner
        raise ValueError(f"unexpected token {text!r}")


def parse(src: str):
    return _Parser(src).parse()


def evaluate(node, env, lift=float, call=None):
    """Evaluate a parsed node.  ``env[i]`` is the value of variable i
    (0 is t).  ``lift`` turns a Fraction into the value type and
    ``call(name, value)`` applies a function; both default to floats."""
    kind = node[0]
    if kind == "num":
        return lift(node[1])
    if kind == "var":
        return env[node[1]]
    if kind == "sum":
        out = None
        for sign, term in node[1]:
            v = evaluate(term, env, lift, call)
            out = (v if sign > 0 else -v) if out is None else (out + v if sign > 0 else out - v)
        return out
    if kind == "prod":
        out = None
        for op, factor in node[1]:
            v = evaluate(factor, env, lift, call)
            out = v if out is None else (out * v if op > 0 else out / v)
        return out
    if kind == "pow":
        return evaluate(node[1], env, lift, call) ** node[2]
    arg = evaluate(node[2], env, lift, call)
    return call(node[1], arg) if call else _MATH[node[1]](arg)


def value_at(src: str, points=POINTS) -> list[float]:
    """Values of an expression at each of the given points (t unbound)."""
    node = parse(src)
    return [evaluate(node, (None, *p)) for p in points]


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

_COEFF_LINE = re.compile(r"^\s*(u(?:\[\d+\])+) = (.*)$")


def coefficient_lines(command: str, text: str) -> dict[str, str]:
    """Label -> printed coefficient, for solve, hpm and expand output.

    Labels: solve ``u[j]``/``u[j][k]``; hpm ``c<i>.u[j]...`` for
    correction i and ``sum.u[j]...`` for the partial sum; expand
    ``g[j]``."""
    if command == "expand":
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError("expand output is not a bracketed list")
        parts, depth, start = [], 0, 1
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(body[start:i])
                start = i + 1
        parts.append(body[start:-1])
        return {f"g[{j}]": p.strip() for j, p in enumerate(parts)}
    out = {}
    prefix = ""
    for line in text.splitlines():
        if line.startswith("correction "):
            prefix = f"c{line.split()[1].rstrip(':')}."
        elif line.startswith("partial sum"):
            prefix = "sum."
        m = _COEFF_LINE.match(line)
        if m:
            out[prefix + m.group(1)] = m.group(2)
    return out


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@dataclass
class Expect:
    """Known answer for one task.

    ``verdict`` is the expected last output line (text output) or the
    expected ``overall`` value (JSON output).  ``values`` maps a
    coefficient label to its values at each point of POINTS; None when
    the command prints no coefficients."""

    exit_code: int
    verdict: str | bool | None
    values: dict[str, list[float]] | None = None


def check(command: str, exit_code: int, output: str, expect: Expect) -> str | None:
    """None when the output matches, else a one-line reason."""
    if exit_code != expect.exit_code:
        return f"exit code {exit_code}, expected {expect.exit_code}"
    if isinstance(expect.verdict, bool):
        try:
            overall = json.loads(output)["overall"]
        except (ValueError, KeyError) as exc:
            return f"unreadable JSON output: {exc}"
        if overall is not expect.verdict:
            return f"overall {overall}, expected {expect.verdict}"
    elif expect.verdict is not None and last_line(output) != expect.verdict:
        return f"verdict {last_line(output)!r}, expected {expect.verdict!r}"
    if expect.values is None:
        return None
    try:
        printed = coefficient_lines(command, output)
    except ValueError as exc:
        return str(exc)
    if set(printed) != set(expect.values):
        missing = sorted(set(expect.values) - set(printed))[:3]
        extra = sorted(set(printed) - set(expect.values))[:3]
        return f"coefficient labels differ: missing {missing}, extra {extra}"
    scale = max((abs(v) for vs in expect.values.values() for v in vs), default=0.0)
    for label, ref in expect.values.items():
        try:
            got = value_at(printed[label])
        except (ValueError, TypeError, ZeroDivisionError, OverflowError, RecursionError) as exc:
            return f"{label}: cannot evaluate: {exc}"
        for g, r in zip(got, ref):
            if abs(g - r) > REL_TOL * max(abs(g), abs(r)) + FLOOR * scale:
                return f"{label}: value {g!r}, expected {r!r}"
    return None
