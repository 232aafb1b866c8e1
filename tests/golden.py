"""The golden corpus: 75 commands, their problem texts, and the exit
code and sha1 of stdout and of stderr that each printed when recorded.

The corpus covers every command on the bundled problems in text and
JSON, the heavy 2x2 problem (``solve`` and ``hpm`` also in JSON) and
the transcendental forcing problem of the benchmark, two forcings that
meet every function the ring jets expand, the benchmark's four
expansions, and seven input errors.  The benchmark's four expansions
come again multiplied by 7 and by -3/5, and ``solve`` and ``compare``
on its two problems again with ``u0``, ``u1`` and ``f`` multiplied by
7, as the benchmark scales them after its first round: a rational
times a product takes other paths through the kernel than the
unscaled inputs do.  Nine more expansions take every function's Taylor
coefficients to orders up to 30 and arguments whose part in t is one
term, and one of them fails.  ``solve`` takes the heavy problem to
order 16 as well, and ``hpm`` (text and JSON) meets a sum atom to the
first power next to other terms, which is printed from its tree in a
batch of coefficients that are not.  A change to the arithmetic under
the engines, or to how coefficients are printed, must leave all of them
as they are.

The module needs only the standard library, so it runs on any
interpreter the package supports, with or without pytest.  From the
checkout root::

    PYTHONPATH=src python tests/golden.py --check   # exit 1 on a mismatch
    PYTHONPATH=src python tests/golden.py           # print the table

``tests/test_golden_corpus.py`` runs the same table under pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from pdeseries.cli import main

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"


def problem_path(name: str) -> str:
    return str(PROBLEM_DIR / name)


# the heavy 2x2 problem of the benchmark: variable coefficients, a
# transcendental forcing, coupled components
HEAVY_2X2 = """{"m": 2, "n": 2, "rho": [["2","1"],["1","1"]],
 "L": [{"row":0,"col":0,"coeff":"1+x1^2","derivs":[2,0]},
       {"row":0,"col":1,"coeff":"x2","derivs":[0,1]},
       {"row":1,"col":0,"coeff":"sin(x1)","derivs":[1,0]},
       {"row":1,"col":1,"coeff":"1","derivs":[0,2]}],
 "f": ["exp(t)*sin(x1+t)*cos(x2)", "t^2*x1"],
 "u0": ["sin(x1)*exp(x2)", "x1^2"], "u1": ["cos(x2)", "0"], "order": 8}
"""


FORCING_1X1 = """{"m": 1, "n": 2, "rho": [["1"]],
 "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2, 0]},
       {"row": 0, "col": 0, "coeff": "1", "derivs": [0, 2]}],
 "f": ["exp(sin(x1*t))*tanh(t+x2)"],
 "u0": ["0"], "u1": ["0"], "order": 10}
"""

# every function the ring jets expand by recurrence, tanh of a nonzero
# constant among them, and a function of a function
TRANSCENDENTAL = """{"m": 1, "n": 2, "rho": [["1"]],
 "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2, 0]},
       {"row": 0, "col": 0, "coeff": "1", "derivs": [0, 2]}],
 "f": ["sinh(x2*t)*cosh(x1 + t) + tanh(1 + t*x1) + exp(t/(1 + x1^2)) + sin(cos(x1*t))"],
 "u0": ["0"], "u1": ["0"], "order": 10}
"""

# the two expansions the ring jets compose: ln and a negative power
LN_POWER = """{"m": 1, "n": 2, "rho": [["1"]],
 "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2, 0]},
       {"row": 0, "col": 0, "coeff": "1", "derivs": [0, 2]}],
 "f": ["ln(2 + x1*t) + (1 + x2*t)^(-3)"],
 "u0": ["0"], "u1": ["0"], "order": 10}
"""

MALFORMED = '{"m": 1, "n": 1, "rho": [["1"]]\n'

BAD_U0 = """{"m": 1, "n": 1, "rho": [["1"]],
 "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2]}],
 "f": ["0"], "u0": ["sin(x1"], "u1": ["0"], "order": 4}
"""

# an unexpected two-byte character after valid tokens: the offset
# counts bytes, and the message shows the character's first byte
BAD_CHAR = """{"m": 1, "n": 1, "rho": [["1"]],
 "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2]}],
 "f": ["0"], "u0": ["sin(x1) + 2\u00b7x1"], "u1": ["0"], "order": 4}
"""

# u[4] has a numerator of about 8800 digits, past the default limit
# of 4300 that the interpreter converts to text
HUGE_POWER = """{"m": 1, "n": 1, "rho": [["1"]],
 "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2]}],
 "f": ["0"], "u0": ["x1^(10^2200)"], "u1": ["0"], "order": 4}
"""

# (x1 + x2)^99999999 * (x1 + x2)^(-99999998) is the sum atom x1 + x2 to
# the first power, next to other terms in u[2] of each correction and of
# the sum: such a coefficient is printed from its tree, 1/2*x1 + 1/2*x2 + ...
SUM_ATOM = """{"m": 1, "n": 2, "rho": [["1"]],
 "L": [{"row": 0, "col": 0, "coeff": "(x1 + x2)^(-99999998)", "derivs": [0, 0]},
       {"row": 0, "col": 0, "coeff": "1", "derivs": [2, 0]}],
 "f": ["0"], "u0": ["(x1 + x2)^99999999 + x1"], "u1": ["0"], "order": 4}
"""

# deeper than the JSON decoder recurses
DEEP = '{"m": ' + "[" * 100000 + "]" * 100000 + "}"



def scaled(text: str, c: int) -> str:
    """The problem with u0, u1 and f multiplied by c, written as
    ``benchmarks/workloads.py::scaled_problem_text`` writes it."""
    doc = json.loads(text)
    for key in ("u0", "u1", "f"):
        doc[key] = [f"{c}*({s})" for s in doc[key]]
    return json.dumps(doc)


# the benchmark's four expansions: expression and order
EXPANSIONS = (
    ("exp(t)*sin(x1+t)*cos(x2)", "18"),
    ("exp(sin(x1*t))*tanh(t+x2)", "12"),
    ("sinh(x1+t^2)*exp(-t*x2)", "14"),
    ("cosh(x1*t)*sin(t^2+x2)*exp(t)", "10"),
)

# every function's Taylor coefficients about a zero, a rational and a
# symbolic a_0, to high orders, of arguments a_0 + c*t^v with one term
# in t and of longer ones, and ln of a constant too large to invert
RULE_EXPANSIONS = (
    ("tanh(t)", "30"),
    ("tanh(2*x1 + 4*x2 + t^3)", "15"),
    ("cos(x1 + 2*t)", "16"),
    ("sin(t/3 + x1)", "16"),
    ("sinh(x1*t)*cosh(t^2)", "14"),
    ("exp(-t^2*x2)", "14"),
    ("ln(3 + x1*t^2)", "12"),
    ("(1 + x2*t)^(-3)*ln(2 + t)", "10"),
    ("ln(10^4000 + t)", "4"),
)

# written to the working directory of each test, named by relative path
FILES = {
    "heavy_2x2.prob": HEAVY_2X2,
    "forcing_1x1.prob": FORCING_1X1,
    "transcendental.prob": TRANSCENDENTAL,
    "ln_power.prob": LN_POWER,
    "malformed.prob": MALFORMED,
    "bad_u0.prob": BAD_U0,
    "bad_char.prob": BAD_CHAR,
    "deep.prob": DEEP,
    "huge_power.prob": HUGE_POWER,
    "sum_atom.prob": SUM_ATOM,
    "heavy_2x2_x7.prob": scaled(HEAVY_2X2, 7),
    "forcing_1x1_x7.prob": scaled(FORCING_1X1, 7),
}

BUNDLED = ("wave_1d.prob", "forced_wave_2d.prob", "coupled_2x2.prob")
BUNDLED_COMMANDS = (
    ("solve",),
    ("hpm", "--corrections", "3"),
    ("compare", "--corrections", "3"),
    ("residual",),
)


def corpus() -> list[tuple[str, ...]]:
    """The 75 commands; a bundled problem is named by its file name."""
    out = [
        (cmd[0], name, *cmd[1:], *fmt)
        for name in BUNDLED
        for cmd in BUNDLED_COMMANDS
        for fmt in ((), ("--format", "json"))
    ]
    out += [
        ("solve", "heavy_2x2.prob", "--order", "10"),
        ("hpm", "heavy_2x2.prob", "--corrections", "3"),
        ("compare", "heavy_2x2.prob", "--corrections", "5"),
        ("residual", "heavy_2x2.prob", "--order", "8"),
        ("solve", "heavy_2x2.prob", "--order", "10", "--format", "json"),
        ("hpm", "heavy_2x2.prob", "--corrections", "3", "--format", "json"),
        ("solve", "forcing_1x1.prob"),
        ("residual", "forcing_1x1.prob", "--order", "10"),
        ("hpm", "forcing_1x1.prob", "--corrections", "2"),
        ("compare", "forcing_1x1.prob", "--corrections", "2"),
        ("solve", "transcendental.prob", "--order", "12"),
        ("hpm", "transcendental.prob", "--corrections", "4"),
        ("compare", "transcendental.prob", "--corrections", "5"),
        ("solve", "ln_power.prob", "--order", "12"),
        ("hpm", "ln_power.prob", "--corrections", "4"),
        ("compare", "ln_power.prob", "--corrections", "5"),
        *(("expand", "--expr", e, "--order", order) for e, order in EXPANSIONS),
        ("solve", "malformed.prob"),
        ("solve", "bad_u0.prob"),
        ("solve", "missing.prob"),
        ("solve", "bad_char.prob"),
        # the fold of the chain fails at its third operand
        ("expand", "--expr", "x1*7^3000*7^3000", "--order", "2"),
        ("solve", "deep.prob"),
        ("hpm", "huge_power.prob", "--corrections", "1"),
    ]
    # "--expr=" keeps a leading minus sign from reading as an option
    out += [("expand", f"--expr={c}*({e})", "--order", order)
            for c in ("7", "-3/5") for e, order in EXPANSIONS]
    out += [
        ("solve", "heavy_2x2_x7.prob", "--order", "8"),
        ("compare", "heavy_2x2_x7.prob", "--corrections", "4"),
        ("solve", "forcing_1x1_x7.prob", "--order", "10"),
        ("compare", "forcing_1x1_x7.prob", "--corrections", "2"),
    ]
    out += [("expand", "--expr", e, "--order", order) for e, order in RULE_EXPANSIONS]
    out += [
        ("solve", "heavy_2x2.prob", "--order", "16"),
        ("hpm", "sum_atom.prob", "--corrections", "1"),
        ("hpm", "sum_atom.prob", "--corrections", "1", "--format", "json"),
    ]
    return out


# (command, exit code, sha1 of stdout, sha1 of stderr), recorded before
# polynomials took integer numerators over one denominator; the two heavy
# JSON commands were recorded before coefficients were printed from
# polynomials without building trees, and the last three before each
# command printed all its coefficients in one ranked pass
GOLDEN = {
    ('solve', 'wave_1d.prob'):
        (0, 'ed23383102f2929eebe354654e482b7e6f1e6654', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('solve', 'wave_1d.prob', '--format', 'json'):
        (0, '8211b4a3a96acc16b6371362168e59101fd97087', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('hpm', 'wave_1d.prob', '--corrections', '3'):
        (0, '04d545be4eba40efc8e3e3968a08d216e5d6d8d3', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('hpm', 'wave_1d.prob', '--corrections', '3', '--format', 'json'):
        (0, '43cca1133f6afb8857b0e6f857f1424f5f97f213', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('compare', 'wave_1d.prob', '--corrections', '3'):
        (0, 'ff4e62977123f3488df0a67d627f24e32f898822', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('compare', 'wave_1d.prob', '--corrections', '3', '--format', 'json'):
        (0, '9c80de4876883f2a2a0affa6bbc1937f5b53207b', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('residual', 'wave_1d.prob'):
        (0, 'daff45b5e63ae96a69b7606e0500b07019f08abe', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('residual', 'wave_1d.prob', '--format', 'json'):
        (0, '6f356c99843376fa0658455456cb99cbdddfea3f', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('solve', 'forced_wave_2d.prob'):
        (0, '7381630da723ebac3174ff0aa7e0db0b262f0647', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('solve', 'forced_wave_2d.prob', '--format', 'json'):
        (0, '402ed175940776278e9e5f21b2932c768afa7e9c', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('hpm', 'forced_wave_2d.prob', '--corrections', '3'):
        (0, '3b0f4c3709569e289997d29a3ff6ce7d6ed99f8d', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('hpm', 'forced_wave_2d.prob', '--corrections', '3', '--format', 'json'):
        (0, '013596f024028cec167217085b05e5f282ebf1c9', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('compare', 'forced_wave_2d.prob', '--corrections', '3'):
        (0, 'ff4e62977123f3488df0a67d627f24e32f898822', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('compare', 'forced_wave_2d.prob', '--corrections', '3', '--format', 'json'):
        (0, '9c80de4876883f2a2a0affa6bbc1937f5b53207b', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('residual', 'forced_wave_2d.prob'):
        (0, 'ac82d6f85603e308b220c5affe6381915638c4be', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('residual', 'forced_wave_2d.prob', '--format', 'json'):
        (0, '298b087f6278efa8d207d85a0d40d92ae3a4540c', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('solve', 'coupled_2x2.prob'):
        (0, 'a9adfab6c5d0916433b40b66e9dcc32f98c90ffa', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('solve', 'coupled_2x2.prob', '--format', 'json'):
        (0, '45b467ffcc1a6f71adb700dd8932f9a0f5f931cb', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('hpm', 'coupled_2x2.prob', '--corrections', '3'):
        (0, '7e54f2e836f0e91776805035e3f6ea58c207b4ce', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('hpm', 'coupled_2x2.prob', '--corrections', '3', '--format', 'json'):
        (0, '82c64b01379bf6a448d25a821e423872af3064e9', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('compare', 'coupled_2x2.prob', '--corrections', '3'):
        (0, 'ff4e62977123f3488df0a67d627f24e32f898822', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('compare', 'coupled_2x2.prob', '--corrections', '3', '--format', 'json'):
        (0, '9c80de4876883f2a2a0affa6bbc1937f5b53207b', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('residual', 'coupled_2x2.prob'):
        (0, '18838f05220461318bb89fd3262743e475c84f6f', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('residual', 'coupled_2x2.prob', '--format', 'json'):
        (0, '8637bdc62238a505103b58be88cabf8996c2e65a', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('solve', 'heavy_2x2.prob', '--order', '10'):
        (0, '6dd3c53c96fd4153c9785c6bab867b9246d633d0', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('hpm', 'heavy_2x2.prob', '--corrections', '3'):
        (0, '6d68edb7478d90d5933549245df75222dff0dfa6', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('compare', 'heavy_2x2.prob', '--corrections', '5'):
        (0, 'ea637a3c418b8b7d7ab1dde457c4df9191cde347', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('residual', 'heavy_2x2.prob', '--order', '8'):
        (0, 'daff45b5e63ae96a69b7606e0500b07019f08abe', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('solve', 'heavy_2x2.prob', '--order', '10', '--format', 'json'):
        (0, '97f5a6deed0a2b50f291fd474eb1af75393f3f7c', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('hpm', 'heavy_2x2.prob', '--corrections', '3', '--format', 'json'):
        (0, 'f4bf9112791703c3c2669f8ca70f598cf9b3a793', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('solve', 'forcing_1x1.prob'):
        (0, '52a6c17da9077952e7c132143522b4023d8c4bcd', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('residual', 'forcing_1x1.prob', '--order', '10'):
        (0, '5841f4fefe86801a442f96bb0735386771ed536f', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('hpm', 'forcing_1x1.prob', '--corrections', '2'):
        (0, 'a629e7bd220798c684a305cffe0aaeba5256963c', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('compare', 'forcing_1x1.prob', '--corrections', '2'):
        (0, '7aa390d0b6ed1ed7a1c8c1fa715517b28dda64b6', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    # recorded while the ring jets composed every function's Taylor
    # series with the argument's, before exp, sin, cos, sinh, cosh and
    # tanh took recurrences
    ('solve', 'transcendental.prob', '--order', '12'):
        (0, '02d28b2c9cabd5b35daab4b007af330942e1b36f', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('hpm', 'transcendental.prob', '--corrections', '4'):
        (0, '901fcf9330b5659f496868bf0766ce75a7eb6c6f', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('compare', 'transcendental.prob', '--corrections', '5'):
        (0, 'ea637a3c418b8b7d7ab1dde457c4df9191cde347', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('solve', 'ln_power.prob', '--order', '12'):
        (0, '0e519a2a20368474ef2ea2e630bb8a9f8ed1c0e0', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('hpm', 'ln_power.prob', '--corrections', '4'):
        (0, '5d4ccaeed8d4ddb6fbfec56d283154cd6673760e', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('compare', 'ln_power.prob', '--corrections', '5'):
        (0, 'ea637a3c418b8b7d7ab1dde457c4df9191cde347', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr', 'exp(t)*sin(x1+t)*cos(x2)', '--order', '18'):
        (0, '8a1fdcdec9e536c17e877f1c0aca1888f63c926d', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr', 'exp(sin(x1*t))*tanh(t+x2)', '--order', '12'):
        (0, '441d2c1f3b5c0ce69aa3d257659656adcc2a389f', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr', 'sinh(x1+t^2)*exp(-t*x2)', '--order', '14'):
        (0, '451f93bc4158b074eb76f72707e2902c47cf5238', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr', 'cosh(x1*t)*sin(t^2+x2)*exp(t)', '--order', '10'):
        (0, 'f070d8febfdae5c280c94573bd431a86dc827d2f', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('solve', 'malformed.prob'):
        (2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', '0690972b209c355806b08a95ce9b130195488092'),
    ('solve', 'bad_u0.prob'):
        (2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', '9f3fc77481639666b1af5a1247c508f7acb4b5b9'),
    ('solve', 'missing.prob'):
        (2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'c3a0f8980edd1d623efc5d012ad6e4f29b1f07f7'),
    ('solve', 'bad_char.prob'):
        (2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', '59803e9d8ee1684317288b281e6786e4bc0763c0'),
    ('expand', '--expr', 'x1*7^3000*7^3000', '--order', '2'):
        (2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', '132b7e1787f66ffb459eca01a6d0c8881201a649'),
    # recorded after the JSON decoder's RecursionError became an input
    # error; it exited 4 with "internal error: maximum recursion depth
    # exceeded while decoding a JSON array from a unicode string" before
    ('solve', 'deep.prob'):
        (2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', '648297f591ccbf03725a7b947ba981d25efb7a51'),
    # recorded after the printer refused a rational past the int-to-text
    # limit with the package's error and hpm wrote nothing before it; it
    # wrote 2275 bytes of rows, then CPython's "Exceeds the limit (4300
    # digits) for integer string conversion" message
    ('hpm', 'huge_power.prob', '--corrections', '1'):
        (2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', '8fe4a70edc0c39588a5c102be8f90eb0543b5b56'),
    # the scaled inputs, recorded before a rational times a product
    # rescaled the product's rational instead of rebuilding it
    ('expand', '--expr=7*(exp(t)*sin(x1+t)*cos(x2))', '--order', '18'):
        (0, '948e0939a861512ff21f8b7354fe5e06db5ff0bb', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr=7*(exp(sin(x1*t))*tanh(t+x2))', '--order', '12'):
        (0, '6d4bba52640e514996c68a13d62d2c91a454841f', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr=7*(sinh(x1+t^2)*exp(-t*x2))', '--order', '14'):
        (0, 'b046bd3a487fe0b4562a2782a963609439804cc2', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr=7*(cosh(x1*t)*sin(t^2+x2)*exp(t))', '--order', '10'):
        (0, '80b20bbe9666d8ea79da301fb12a1d4d6dda4d90', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr=-3/5*(exp(t)*sin(x1+t)*cos(x2))', '--order', '18'):
        (0, '419d438d16ca1960c091006e8306090b0b176156', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr=-3/5*(exp(sin(x1*t))*tanh(t+x2))', '--order', '12'):
        (0, 'ceede88857adfd44a0a526de136ba1ad17985883', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr=-3/5*(sinh(x1+t^2)*exp(-t*x2))', '--order', '14'):
        (0, '6ab7b5aa45d5ae43a5f08e4299193c79d607a398', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr=-3/5*(cosh(x1*t)*sin(t^2+x2)*exp(t))', '--order', '10'):
        (0, '194da123ae45917d95ff70ec3a661394f97d9203', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('solve', 'heavy_2x2_x7.prob', '--order', '8'):
        (0, 'ac8985c2767355620baa40f62450dc253aa197d9', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('compare', 'heavy_2x2_x7.prob', '--corrections', '4'):
        (0, 'efd2867514d3bb49e71b945db438699bef02793a', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('solve', 'forcing_1x1_x7.prob', '--order', '10'):
        (0, '3123998997226920f1401e1b927a1149fd46fa11', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('compare', 'forcing_1x1_x7.prob', '--corrections', '2'):
        (0, '7aa390d0b6ed1ed7a1c8c1fa715517b28dda64b6', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    # the derivative rules' inputs, recorded while each f^(k)(a0)/k! came
    # from differentiating f(t) and substituting a0
    ('expand', '--expr', 'tanh(t)', '--order', '30'):
        (0, '4c20b22eb0f43b28113383e22c4970770d1347e1', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr', 'tanh(2*x1 + 4*x2 + t^3)', '--order', '15'):
        (0, '283865a3356db678a1bcde4f03de2d505dbe8dde', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr', 'cos(x1 + 2*t)', '--order', '16'):
        (0, '4dda85c5e2d4af3600d5efc648b13f305d71a7db', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr', 'sin(t/3 + x1)', '--order', '16'):
        (0, '1a937f4a436ae42318826e3f7da8320388963ce8', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr', 'sinh(x1*t)*cosh(t^2)', '--order', '14'):
        (0, 'cb8dda1f77d801c5d19d47117fc0340e246d4ddc', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr', 'exp(-t^2*x2)', '--order', '14'):
        (0, 'c0f24e8e6d05e65ff6887ea5d281ded16e436c48', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr', 'ln(3 + x1*t^2)', '--order', '12'):
        (0, '0a813a23e95e05f5b6e527817ae0d72f6ffd31bb', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr', '(1 + x2*t)^(-3)*ln(2 + t)', '--order', '10'):
        (0, '4fc0500f436f91b521348839ca00bf78a2997af4', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('expand', '--expr', 'ln(10^4000 + t)', '--order', '4'):
        (2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'e03b9ce1466fa1056e2ab6972a29cf54380a3817'),
    ('solve', 'heavy_2x2.prob', '--order', '16'):
        (0, '0b574f43edd5dda39b948ac7362300bc7b5d1dcc', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('hpm', 'sum_atom.prob', '--corrections', '1'):
        (0, 'd5d9aaaec1cf35c47099f51dc74c4bbd72b6ef38', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
    ('hpm', 'sum_atom.prob', '--corrections', '1', '--format', 'json'):
        (0, 'ca915dda60e591cbc194c3d770995002400308a6', 'da39a3ee5e6b4b0d3255bfef95601890afd80709'),
}


def _argv(command: tuple[str, ...]) -> list[str]:
    name = command[1]
    return [command[0], problem_path(name), *command[2:]] if name in BUNDLED else list(command)


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _run(command: tuple[str, ...], read) -> tuple[int, str, str]:
    code = main(_argv(command))
    out, err = read()
    return code, _sha1(out), _sha1(err)


def _write_files(directory: str) -> None:
    for name, text in FILES.items():
        Path(directory, name).write_text(text, encoding="utf-8")


def _captured(command: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return _run(command, lambda: (out.getvalue(), err.getvalue()))


def _record() -> None:
    for command in corpus():
        print(f"    {command!r}:\n        {_captured(command)!r},")


def _check() -> int:
    """Runs the corpus; prints each command whose result differs from
    ``GOLDEN`` and returns how many do."""
    commands = corpus()
    if len(commands) != 75 or set(GOLDEN) != set(commands):
        print("the corpus and the table name different commands")
        return 1
    bad = 0
    for command in commands:
        got = _captured(command)
        if got != GOLDEN[command]:
            bad += 1
            print(f"MISMATCH {' '.join(command)}: got {got!r}, recorded {GOLDEN[command]!r}")
    print(f"{len(commands) - bad} of {len(commands)} commands match on Python {sys.version.split()[0]}")
    return bad


def run(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Check or print the golden corpus.")
    ap.add_argument("--check", action="store_true",
                    help="compare each command with the table; exit 1 on any mismatch")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(tmp)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            if args.check:
                return 1 if _check() else 0
            _record()
            return 0
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    raise SystemExit(run())
