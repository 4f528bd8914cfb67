"""Run ``tests/golden/commands.txt`` through an installed console script.

Usage::

    python .github/scripts/compare_golden.py /path/to/bin/dunkl-jacobi

Each listed command must exit with its code, print its golden file and
write nothing to stderr, so a warning or a traceback fails it.  As
in ``tests/test_golden.py``, certify's float figures are pinned only where
``np.longdouble`` is wider than float64; elsewhere its check names and exit
code must match.  Prints one line per command, then what it wrote to
stderr, and exits 1 if any differs.
"""

import pathlib
import subprocess
import sys

import numpy as np

GOLDEN = pathlib.Path(__file__).resolve().parents[2] / "tests" / "golden"
WIDE = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


def names(text):
    return [line.split()[1] for line in text.decode().splitlines()]


def main(script):
    if not pathlib.Path(script).is_file():
        print(f"no console script at {script!r}")
        return 1
    ok = True
    for line in (GOLDEN / "commands.txt").read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        name, code, *argv = line.split()
        done = subprocess.run([script, *argv], capture_output=True)
        expected = (GOLDEN / name).read_bytes()
        if argv[0] == "certify" and not WIDE:
            same = names(done.stdout) == names(expected)
        else:
            same = done.stdout == expected
        good = done.returncode == int(code) and same and not done.stderr
        print(name, "ok" if good else f"FAILED (exit {done.returncode})")
        sys.stdout.write(done.stderr.decode())
        ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else ""))
