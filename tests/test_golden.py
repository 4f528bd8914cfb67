"""Byte-for-byte outputs of the exact tables, the classify lines and the certify runs.

``golden/commands.txt`` lists each command with its exit code and the file
holding its expected stdout; CI runs the same list through the installed
console script.  Every command writes nothing to stderr and raises no
warning.  The certify figures are float quadrature results, pinned
only where ``np.longdouble`` is wider than float64 (the Newton polish of
the Gauss rule runs in it); elsewhere the exit code and the check names
must match.
"""

from pathlib import Path

import numpy as np
import pytest

from dunkl_jacobi.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
WIDE_LONGDOUBLE = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


def golden_commands():
    for line in (GOLDEN / "commands.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            name, code, *argv = line.split()
            yield pytest.param(name, int(code), argv, id=name)


@pytest.mark.parametrize("name,code,argv", golden_commands())
def test_output_matches_golden(name, code, argv, capsys, recwarn):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err == "" and [str(warning.message) for warning in recwarn] == []
    expected = (GOLDEN / name).read_bytes()
    if argv[0] == "certify" and not WIDE_LONGDOUBLE:
        def names(text):
            return [line.split()[1] for line in text.splitlines()]

        assert names(out) == names(expected.decode())
    else:
        assert out.encode() == expected


def test_every_golden_file_has_a_command():
    listed = {p.values[0] for p in golden_commands()}
    assert listed == {path.name for path in GOLDEN.iterdir() if path.name != "commands.txt"}
