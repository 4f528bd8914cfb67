"""Self-test of the output checks: each accepts a real output and rejects perturbed ones.

Usage (from the repository root): ``python3 perfbench/selftest.py``.
Exits 0 when every check behaves, 1 otherwise.
"""

import contextlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
import dunkl_jacobi as dj  # noqa: E402
from dunkl_jacobi import cli  # noqa: E402

failures = []
counts = {"accepted": 0, "rejected": 0}


def certify_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def ladder_table(params, N):
    """The CSV table exact-ladder checks, for an operator built from ``params``."""
    operator = dj.build(params)
    return dj.coefficient_table_csv(dj.eigen_sequence(operator, N))


def expect(label, check, good, *bad):
    """``check(good)`` returns None and ``check(b)`` a reason for every ``b``."""
    verdict = check(good)
    if verdict is not None:
        failures.append(f"{label}: real output judged {verdict!r}")
    else:
        counts["accepted"] += 1
    for i, b in enumerate(bad):
        if b == good:
            failures.append(f"{label}: perturbation {i} left the output unchanged")
        elif check(b) is None:
            failures.append(f"{label}: perturbation {i} was accepted")
        else:
            counts["rejected"] += 1


def replace_field(text, row, col, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def main() -> int:
    rng = random.Random("selftest")

    # Eigenpolynomial tables, from a family and from a raw operator with mu != 0.
    fam = (Fraction(1, 2), Fraction(2), Fraction(1, 4))
    raw = workloads.raw_nondegenerate(rng, 8)
    N = 8
    for label, p, params in (
        ("table family", checks.family_params(*fam), dj.big_operator(dj.BigJacobiParams(*fam))),
        ("table raw", raw, dj.OperatorParams(**raw)),
    ):
        table = ladder_table(params, N)
        row5 = table.splitlines()[6].split(",")
        c2 = Fraction(row5[4])
        lines = table.splitlines()
        expect(label, lambda t: checks.check_table(p, N, t), table,
               replace_field(table, 6, 4, str(c2 + Fraction(1, 10**9))),     # one coefficient
               replace_field(table, 4, 1, str(Fraction(lines[4].split(",")[1]) + 1)),  # lambda_3
               replace_field(table, 3, 4, "2"),                               # c_2 of P_2: not monic
               replace_field(table, 3, 5, "1/7"),                             # term above degree 2
               "\n".join(lines[:-1]) + "\n",                                  # a row missing
               "\n".join(lines[:3] + [lines[4], lines[3]] + lines[5:]) + "\n")  # rows swapped

    # certify: all five checks PASS with exit 0.
    code, text = certify_output(["certify", *workloads.family_flags(*fam), "--N", "4"])
    expect("certify", lambda t: checks.check_certify(*t), (code, text),
           (code, text.replace("PASS", "FAIL", 1)),
           (code, "\n".join(text.splitlines()[:-1]) + "\n"),
           (1, text))

    for f in failures:
        print("SELFTEST FAIL", f)
    print(f"selftest: {'FAIL' if failures else 'ok'}: {counts['accepted']} real outputs accepted, "
          f"{counts['rejected']} perturbed outputs rejected, {len(failures)} problems")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
