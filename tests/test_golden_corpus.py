"""Byte identity of the command line on a fixed corpus: the sha1 of
stdout and of stderr, and the exit code, of each command.

The corpus covers every command on the bundled problems in text and
JSON, the heavy 2x2 problem (``solve`` and ``hpm`` also in JSON) and
the transcendental forcing problem of the benchmark, the benchmark's
four expansions, and seven input errors.  A change to the arithmetic
under the engines, or to how coefficients are printed, must leave all
of them as they are.  To print the table for a deliberate change of
output, run ``PYTHONPATH=src python tests/test_golden_corpus.py`` from
the checkout root.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from conftest import HEAVY_2X2, problem_path
from pdeseries.cli import main


FORCING_1X1 = """{"m": 1, "n": 2, "rho": [["1"]],
 "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2, 0]},
       {"row": 0, "col": 0, "coeff": "1", "derivs": [0, 2]}],
 "f": ["exp(sin(x1*t))*tanh(t+x2)"],
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

# deeper than the JSON decoder recurses
DEEP = '{"m": ' + "[" * 100000 + "]" * 100000 + "}"

# written to the working directory of each test, named by relative path
FILES = {
    "heavy_2x2.prob": HEAVY_2X2,
    "forcing_1x1.prob": FORCING_1X1,
    "malformed.prob": MALFORMED,
    "bad_u0.prob": BAD_U0,
    "bad_char.prob": BAD_CHAR,
    "deep.prob": DEEP,
    "huge_power.prob": HUGE_POWER,
}

BUNDLED = ("wave_1d.prob", "forced_wave_2d.prob", "coupled_2x2.prob")
BUNDLED_COMMANDS = (
    ("solve",),
    ("hpm", "--corrections", "3"),
    ("compare", "--corrections", "3"),
    ("residual",),
)


def corpus() -> list[tuple[str, ...]]:
    """The 45 commands; a bundled problem is named by its file name."""
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
        ("expand", "--expr", "exp(t)*sin(x1+t)*cos(x2)", "--order", "18"),
        ("expand", "--expr", "exp(sin(x1*t))*tanh(t+x2)", "--order", "12"),
        ("expand", "--expr", "sinh(x1+t^2)*exp(-t*x2)", "--order", "14"),
        ("expand", "--expr", "cosh(x1*t)*sin(t^2+x2)*exp(t)", "--order", "10"),
        ("solve", "malformed.prob"),
        ("solve", "bad_u0.prob"),
        ("solve", "missing.prob"),
        ("solve", "bad_char.prob"),
        # the fold of the chain fails at its third operand
        ("expand", "--expr", "x1*7^3000*7^3000", "--order", "2"),
        ("solve", "deep.prob"),
        ("hpm", "huge_power.prob", "--corrections", "1"),
    ]
    return out


# (command, exit code, sha1 of stdout, sha1 of stderr), recorded before
# polynomials took integer numerators over one denominator; the two heavy
# JSON commands were recorded before coefficients were printed from
# polynomials without building trees
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


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_the_corpus_is_complete():
    assert len(corpus()) == 45 and set(GOLDEN) == set(corpus())


@pytest.mark.parametrize("command", corpus(), ids=" ".join)
def test_prints_the_recorded_bytes(workdir, capsys, command):
    def read():
        captured = capsys.readouterr()
        return captured.out, captured.err

    assert _run(command, read) == GOLDEN[command]


def _record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(tmp)
        os.chdir(tmp)
        for command in corpus():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                got = _run(command, lambda: (out.getvalue(), err.getvalue()))
            print(f"    {command!r}:\n        {got!r},")


if __name__ == "__main__":
    _record()
