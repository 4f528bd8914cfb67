"""Output checks computed apart from the package under test.

Nothing here imports ``dunkl_jacobi``.  The exact checks use plain
``fractions.Fraction`` arithmetic on the operator's nine parameters, which
the benchmark draws itself.  Every check returns ``None`` when the output
is right and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
from fractions import Fraction

PARAM_NAMES = ("mu", "nu0", "nu1", "rho0", "rho1", "tau0", "tau1", "xi", "eta")
CERTIFY_CHECKS = ("eigen-residual", "orthogonality", "positivity", "symmetry", "pearson")


# -- closed forms of the operator on monomials -------------------------------


def family_params(alpha: Fraction, beta: Fraction, c: Fraction) -> dict:
    """Nine parameters of the (alpha, beta, c) family, written out by hand.

    ``G1 = 2(x-1)(x+c)/x`` and ``F = -c/x^2 + (beta - alpha c)/x - alpha - beta - 1``.
    """
    p = dict.fromkeys(PARAM_NAMES, Fraction(0))
    p.update(nu1=-2 * c, rho1=2 * (c - 1), tau1=Fraction(2),
             xi=beta - alpha * c, eta=-(alpha + beta + 1))
    return p


def eigenvalue_law(p: dict, n: int) -> Fraction:
    """Parity law: ``(tau0+tau1) n`` for even n, ``2 eta + (tau0-tau1) n`` for odd n."""
    if n % 2 == 0:
        return (p["tau0"] + p["tau1"]) * n
    return 2 * p["eta"] + (p["tau0"] - p["tau1"]) * n


def band(p: dict, k: int) -> tuple:
    """``(kappa1, kappa2, kappa3)`` with ``L x^k = lambda_k x^k + sum_i kappa_i x^(k-i)``.

    Even k: ``L x^k = k x^(k-1) (G0 + G1)``.  Odd k:
    ``L x^k = 2 F x^k + k x^(k-1) (G0 - G1)``.  The negative powers cancel
    in both, which leaves at most three subdiagonal terms.
    """
    if k % 2 == 0:
        return k * (p["rho0"] + p["rho1"]), k * (p["nu0"] + p["nu1"]), Fraction(0)
    return (2 * p["xi"] + k * (p["rho0"] - p["rho1"]),
            (k - 1) * (p["nu0"] - p["nu1"]),
            2 * p["mu"] * (k - 1))


def spectrally_simple(p: dict, N: int) -> bool:
    """Eigenvalues 0..N pairwise distinct and nonzero above degree 0."""
    lams = [eigenvalue_law(p, n) for n in range(N + 1)]
    return len(set(lams)) == N + 1


# -- eigenpolynomial tables -------------------------------------------------


def _ratio(text: str) -> tuple:
    """``"p/q"`` or ``"p"`` as the integer pair ``(p, q)``."""
    num, _, den = text.partition("/")
    return int(num), int(den) if den else 1


def check_table(p: dict, N: int, text: str):
    """Rows 0..N are monic eigenpolynomials of the operator with parameters ``p``.

    Row n must hold ``lambda_n`` from the parity law, ``c_n = 1``, zeros above
    degree n, and satisfy ``(lambda_j - lambda_n) c_j + sum_i kappa_i(j+i) c_(j+i) = 0``
    for every j < n, with ``kappa_i`` from :func:`band`.  The sum is formed
    exactly over the product of its terms' denominators, without gcd
    reductions, and compared with zero.
    """
    # Line by line: a StringIO copy holds 4 bytes per character, and at N = 160
    # that copy alone lifted the run's peak RSS above the package's own.
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if header != ["degree", "lambda"] + [f"c{k}" for k in range(N + 1)]:
        return f"unexpected header {header[:4] if header else header}"
    lams = [eigenvalue_law(p, j) for j in range(N + 1)]
    kappas = [band(p, j) for j in range(N + 1)]
    degree = 0
    for row in reader:
        try:
            n, lam = int(row[0]), Fraction(row[1])
            c = [_ratio(v) for v in row[2:]]
        except (ValueError, ZeroDivisionError, IndexError) as exc:
            return f"row {degree} does not parse: {exc}"
        if n != degree or n > N:
            return f"row {degree} has degree {n}"
        degree += 1
        if len(c) != N + 1:
            return f"row {n} has {len(c)} coefficients"
        if lam != lams[n]:
            return f"lambda_{n} = {lam}, parity law gives {lams[n]}"
        if c[n] != (1, 1) or any(a for a, _ in c[n + 1:]):
            return f"row {n} is not a monic degree-{n} polynomial"
        for j in range(n):
            d = lams[j] - lam
            num, den = d.numerator * c[j][0], d.denominator * c[j][1]
            for i in (1, 2, 3):
                if j + i <= n and c[j + i][0]:
                    k = kappas[j + i][i - 1]
                    tn, td = k.numerator * c[j + i][0], k.denominator * c[j + i][1]
                    num, den = num * td + tn * den, den * td
            if num:
                return f"L P_{n} - lambda_{n} P_{n} is nonzero at x^{j}"
    if degree != N + 1:
        return f"{degree} rows, expected {N + 1}"
    return None


# -- certify ---------------------------------------------------------------------


def check_certify(returncode: int, stdout: str):
    """A provably positive family: every check PASS and exit code 0."""
    lines = stdout.strip().splitlines()
    names = [ln.split()[1] if len(ln.split()) > 1 else "" for ln in lines]
    if names != list(CERTIFY_CHECKS):
        return f"certify reported checks {names}"
    bad = [ln for ln in lines if not ln.startswith("PASS ")]
    if bad:
        return f"certify exit {returncode}: {bad[0]}"
    if returncode != 0:
        return f"all checks PASS but exit code {returncode}"
    return None
