"""Byte identity of the command line on a fixed corpus: the sha1 of
stdout and of stderr, and the exit code, of each command.

The corpus, its problem texts and the recorded table are in
``golden.py``, which needs only the standard library; see there for
what the corpus covers.  A change to the arithmetic under the engines,
or to how coefficients are printed, must leave all of them as they are.
To print the table for a deliberate change of output, run
``PYTHONPATH=src python tests/golden.py`` from the checkout root; to
check it without pytest, add ``--check``.
"""

from __future__ import annotations

import pytest

import golden
from golden import GOLDEN, _run, _write_files, corpus


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_the_corpus_is_complete():
    assert len(corpus()) == 105 and set(GOLDEN) == set(corpus())


@pytest.mark.parametrize("command", corpus(), ids=" ".join)
def test_prints_the_recorded_bytes(workdir, capsys, command):
    def read():
        captured = capsys.readouterr()
        return captured.out, captured.err

    assert _run(command, read) == GOLDEN[command]


def test_check_mode_passes_and_names_a_mismatch(monkeypatch, capsys):
    assert golden.run(["--check"]) == 0
    assert capsys.readouterr().out.startswith("105 of 105 commands match on Python ")
    command = corpus()[0]
    code, out, err = GOLDEN[command]
    monkeypatch.setitem(GOLDEN, command, (code, err, out))
    assert golden.run(["--check"]) == 1
    assert capsys.readouterr().out.startswith(f"MISMATCH {' '.join(command)}: got ")
