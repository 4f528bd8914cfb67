"""The two workloads: seeded inputs, the timed operation, and its check.

A workload run is a sequence of rounds.  Round ``r`` of seed ``s`` draws its
parameters from ``random.Random(f"{name}:{s}:{r}")``, so the same seed gives
the same inputs.  Every round has the same shape: the same degrees and
known-fault operations, in the same order, with fresh parameters.  The
order is fixed, so that whatever one call leaves behind for the next is
the same for every seed.  Inputs are built before the round starts, and
``reset`` runs before each call; only ``run`` is timed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import random
from fractions import Fraction
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Outcome:
    """What one operation produced, judged apart from its timing."""

    __slots__ = ("failed", "error")

    def __init__(self, failed=False, error=None):
        # ``failed``: the program reported failure (nonzero exit); ``error`` then
        # says how.  Otherwise ``error`` is set when the output fails its check.
        self.failed = failed
        self.error = error


def exact_den(rng, den: int, lo: int, hi: int) -> Fraction:
    """``n/den`` in lowest terms with ``lo <= n <= hi`` and ``n != 0``.

    Fixing each denominator keeps the height of the inputs, and with it the
    cost of the exact arithmetic, about the same from seed to seed.
    """
    while True:
        n = rng.randint(lo, hi)
        if n and math.gcd(n, den) == 1:
            return Fraction(n, den)


def positive_family(rng, c_zero: bool):
    """``(alpha, beta, c)`` of a provably positive family away from the boundary.

    ``alpha = a/4`` in [-1/4, 7/4], ``beta = b/3`` in [-2/3, 5/3] and
    ``c = k/5`` in [1/5, 4/5], or ``c = 0`` for the one-interval family.
    """
    alpha = exact_den(rng, 4, -1, 7)
    beta = exact_den(rng, 3, -2, 5)
    c = Fraction(0) if c_zero else exact_den(rng, 5, 1, 4)
    return alpha, beta, c


def family_flags(alpha, beta, c) -> list:
    # ``--flag=value`` keeps a negative rational attached to its option.
    flags = [f"--alpha={alpha}", f"--beta={beta}"]
    return flags + ([f"--c={c}"] if c else [])


#: Denominator of each raw parameter; its numerator is ``+-(d+1)`` or ``+-(2d-1)``.
RAW_DENOMINATORS = {"mu": 2, "nu0": 3, "nu1": 2, "rho0": 3, "rho1": 4,
                    "tau0": 2, "tau1": 3, "xi": 4, "eta": 2}


def raw_nondegenerate(rng, N: int) -> dict:
    """Nine nonzero parameters (so ``mu != 0``), eigenvalues 0..N distinct.

    Each is ``n/d`` with the fixed denominator ``d`` above and ``|n|`` one of
    two values coprime to it, so every parameter lies in [-7/4, 7/4].
    """
    while True:
        p = {k: Fraction(rng.choice((-1, 1)) * rng.choice((d + 1, 2 * d - 1)), d)
             for k, d in RAW_DENOMINATORS.items()}
        if checks.spectrally_simple(p, N):
            return p


def collect_garbage():
    """Collect the garbage earlier calls left, before the next call is timed.

    Without it, when a full collection falls depends on everything that ran
    before, and so does the peak RSS: the same exact-ladder round shape read
    74 MB in some runs and 84 MB in others.
    """
    gc.collect()


def fixed_order(name: str, ops: list) -> list:
    """``ops`` in a permutation that depends on the workload only, not the seed."""
    random.Random(f"{name}:order").shuffle(ops)
    return ops


# -- exact-ladder -------------------------------------------------------------


class ExactLadder:
    """``eigen_sequence`` to N, ``residual`` on every pair, ``coefficient_table_csv``.

    One round is ten operators: six raw nine-parameter operators with
    ``mu != 0`` at N = 40 (about 0.2 s each), three two-interval
    ``big_operator`` families at N = 100 (about 1 s) and one at N = 160
    (about 3 s).  The groups differ in cost by 3x or more, so the vCPU's
    1.5x swings in speed do not reorder them: the median falls well
    inside the N = 40 group and the 75th percentile near the middle of the
    N = 100 group.  The largest degree is a family, not a raw operator: a
    raw operator's coefficient growth, and with it the run's peak memory,
    depends on the signs drawn (74 MB or 85 MB at N = 160).
    """

    name = "exact-ladder"
    #: (N, kind, count): kind is "raw", "one" (c = 0) or "two" (0 < c < 1).
    GROUPS = ((40, "raw", 6), (100, "two", 3), (160, "two", 1))
    TAIL_PERCENTILE = 80
    MIN_OPS = 50

    def inputs(self, rng):
        import dunkl_jacobi as dj

        ops = []
        for N, kind, count in self.GROUPS:
            for _ in range(count):
                if kind == "raw":
                    p = raw_nondegenerate(rng, N)
                    operator = dj.build(dj.OperatorParams(**p))
                else:
                    alpha, beta, c = positive_family(rng, c_zero=kind == "one")
                    p = checks.family_params(alpha, beta, c)
                    operator = dj.build(dj.big_operator(dj.BigJacobiParams(alpha, beta, c)))
                ops.append({"N": N, "p": p, "operator": operator})
        return fixed_order(self.name, ops)

    def run(self, op):
        import dunkl_jacobi as dj

        operator, N = op["operator"], op["N"]
        eigs = dj.eigen_sequence(operator, N)
        residuals = [dj.residual(operator, e.poly, e.eigenvalue) for e in eigs]
        return len(eigs), residuals, dj.coefficient_table_csv(eigs)

    def check(self, op, output) -> Outcome:
        count, residuals, table = output
        if count != op["N"] + 1:
            return Outcome(error=f"{count} eigenpairs for N={op['N']}")
        nonzero = [n for n, r in enumerate(residuals) if not r.is_zero]
        if nonzero:
            return Outcome(error=f"nonzero residual at degrees {nonzero[:5]}")
        return Outcome(error=checks.check_table(op["p"], op["N"], table))

    def reset(self):
        collect_garbage()


# -- certify-sweep -------------------------------------------------------------


class CertifySweep:
    """In-process ``cli.main(["certify", ...])`` on seeded positive families.

    One round is 18 calls: twelve at N = 4, where the monomial symmetry
    loop dominates (about 0.1 s each); three at N = 24 and the two fixed
    near-boundary families at N = 20 that ``certify`` rejects today (about
    1.3 s each); and one at N = 40, where the Gram matrix dominates (about
    3.3 s).  The median falls inside the N = 4 group and the 80th
    percentile near the middle of the N = 20/24 group.  One family in three
    is one-interval (``c = 0``).
    """

    name = "certify-sweep"
    #: (N, one-interval?) of each seeded call.
    DEGREES = ((4, True), (4, False), (4, False)) * 4 + ((24, True), (24, False), (24, False),
                                                         (40, False))
    #: Provably positive families that ``certify`` rejects (exit 1) every time.
    KNOWN_FAULTS = (
        ("--alpha=-99/100", "--beta=0", "--c=1/2", "--N", "20"),
        ("--alpha=1", "--beta=1", "--c=99999/100000", "--N", "20"),
    )
    TAIL_PERCENTILE = 85
    MIN_OPS = 67

    def inputs(self, rng):
        ops = []
        for N, c_zero in self.DEGREES:
            fam = positive_family(rng, c_zero)
            ops.append({"argv": ["certify", *family_flags(*fam), "--N", str(N)]})
        ops += [{"argv": ["certify", *args]} for args in self.KNOWN_FAULTS]
        return fixed_order(self.name, ops)

    def run(self, op):
        from dunkl_jacobi import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    def check(self, op, output) -> Outcome:
        code, stdout = output
        return Outcome(failed=code != 0, error=checks.check_certify(code, stdout))

    def reset(self):
        # Each call starts with a cold Gauss-rule cache, as a fresh process
        # would, so it does the same work whatever ran before it.
        from dunkl_jacobi import quadrature

        clear = getattr(quadrature.quadrature_rule, "cache_clear", None)
        if clear is not None:
            clear()
        collect_garbage()


WORKLOADS = {w.name: w for w in (ExactLadder(), CertifySweep())}


def round_inputs(workload, seed: int, round_index: int):
    return workload.inputs(random.Random(f"{workload.name}:{seed}:{round_index}"))
