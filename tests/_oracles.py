"""Independent reference computations used only by the tests.

Nothing here shares code with the production quadrature path: integrals
are computed interval by interval in the original variable (no y = x^2
substitution), with Gauss-Jacobi rules built by Golub-Welsch (symmetric
tridiagonal eigensolve, a different algorithm from the production rule's
polished Newton nodes) and plain float polynomial evaluation, doubling
the node count until two successive values agree.  The three-term
recurrence is read off given polynomials by exact remainders, not from a
closed form.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

from dunkl_jacobi import OperatorParams, Polynomial


# -- closed-form subleading coefficients of L x^n -------------------------

def kappa_closed_form(params: OperatorParams, n: int):
    """(kappa1, kappa2, kappa3) for L x^n by direct expansion of the family.

    Even n:  L x^n = n x^{n-1} (G0 + G1); the 1/x^2 parts cancel, leaving
             n[(tau0+tau1) x^n + (rho0+rho1) x^{n-1} + (nu0+nu1) x^{n-2}].
    Odd n:   L x^n = 2F x^n + n x^{n-1}(G0 - G1), which collects to
             lambda_n x^n + (2 xi + n(rho0-rho1)) x^{n-1}
             + (n-1)(nu0-nu1) x^{n-2} + 2 mu (n-1) x^{n-3}.
    """
    if n % 2 == 0:
        return (
            n * (params.rho0 + params.rho1),
            n * (params.nu0 + params.nu1),
            Fraction(0),
        )
    return (
        2 * params.xi + n * (params.rho0 - params.rho1),
        (n - 1) * (params.nu0 - params.nu1),
        2 * params.mu * (n - 1),
    )


# -- three-term recurrence by exact remainders ------------------------------

def three_term_remainders(polys) -> list:
    """Exact ``(b_n, u_n)`` with ``x P_n = P_{n+1} + b_n P_n + u_n P_{n-1}``.

    ``polys`` are monic ``P_0..P_{N+1}``; entry ``n`` for ``n = 0..N`` is
    ``(b_n, u_n)``, with ``u_0 = None``.  ``b_n`` is the leading coefficient
    of ``x P_n - P_{n+1}`` and ``u_n`` that of what is left after removing
    ``b_n P_n``; the final remainder must vanish identically.
    """
    x = Polynomial.monomial(1)
    out = []
    for n in range(len(polys) - 1):
        rem = x * polys[n] - polys[n + 1]
        bn = rem.coefficient(n)
        rem = rem - bn * polys[n]
        un = None
        if n >= 1:
            un = rem.coefficient(n - 1)
            rem = rem - un * polys[n - 1]
        if not rem.is_zero:
            raise AssertionError(f"x P_{n} is not a three-term combination of the inputs")
        out.append((bn, un))
    return out


# -- interval-wise Gauss-Jacobi reference integrator ------------------------


def _poly_floats(p, n_max=None):
    deg = p.degree if p.degree is not None else 0
    return np.array([float(p.coefficient(k)) for k in range(deg + 1)][::-1])


def _golub_welsch_jacobi(order, a, b):
    """Gauss-Jacobi nodes/weights on [-1,1] from the monic recurrence matrix."""
    s = a + b
    diag = np.empty(order)
    diag[0] = (b - a) / (s + 2)
    if order > 1:
        i = np.arange(1, order, dtype=float)
        diag[1:] = (b * b - a * a) / ((2 * i + s) * (2 * i + s + 2))
    j = np.arange(1, order, dtype=float)
    num = 4 * j * (j + a) * (j + b) * (j + s)
    den = (2 * j + s) ** 2 * ((2 * j + s) ** 2 - 1)
    off = np.sqrt(num / den)
    nodes, vecs = eigh_tridiagonal(diag, off)
    mu0 = math.exp(
        (s + 1) * math.log(2.0)
        + math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(s + 2)
    )
    return nodes, mu0 * vecs[0] ** 2


def _gj_interval(coeffs, a_exp, b_exp, lo, hi, smooth, order):
    """integral over [lo,hi] of (hi-x)^a_exp (x-lo)^b_exp smooth(x) f(x) dx."""
    t, wts = _golub_welsch_jacobi(order, a_exp, b_exp)
    x = (hi - lo) / 2 * t + (hi + lo) / 2
    scale = ((hi - lo) / 2) ** (a_exp + b_exp + 1)
    fx = np.polyval(coeffs, x)
    return scale * float(np.sum(wts * smooth(x) * fx))


def _doubling(integral_at, start=40, tol=1e-13, max_order=5120):
    order = start
    prev = integral_at(order)
    while order < max_order:
        order *= 2
        cur = integral_at(order)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise RuntimeError("reference integral did not converge")


def reference_big_integral(alpha, beta, c, p, q, tol=1e-13):
    """integral p q w over [-1,-c] u [c,1] for the two-interval weight.

    Right interval: w = (1-x)^{(alpha-1)/2} (x-c)^{(beta+1)/2} *
                        (1+x)^{(alpha+1)/2} (x+c)^{(beta-1)/2};
    left interval via x -> -u.
    """
    af, bf, cf = float(alpha), float(beta), float(c)
    coeffs = _poly_floats(p * q)

    def right(order):
        smooth = lambda x: (1 + x) ** ((af + 1) / 2) * (x + cf) ** ((bf - 1) / 2)
        return _gj_interval(coeffs, (af - 1) / 2, (bf + 1) / 2, cf, 1.0, smooth, order)

    refl = (p * q).reflect()
    coeffs_r = _poly_floats(refl)

    def left(order):
        smooth = lambda u: (1 + u) ** ((af - 1) / 2) * (u + cf) ** ((bf + 1) / 2)
        return _gj_interval(coeffs_r, (af + 1) / 2, (bf - 1) / 2, cf, 1.0, smooth, order)

    return _doubling(right, tol=tol) + _doubling(left, tol=tol)


def reference_little_integral(alpha, beta, p, q, tol=1e-13):
    """integral p q w over [-1,1] for the one-interval weight."""
    af, bf = float(alpha), float(beta)
    coeffs = _poly_floats(p * q)

    def right(order):
        smooth = lambda x: (1 + x) ** ((af + 1) / 2)
        return _gj_interval(coeffs, (af - 1) / 2, bf, 0.0, 1.0, smooth, order)

    refl = (p * q).reflect()
    coeffs_r = _poly_floats(refl)

    def left(order):
        smooth = lambda u: (1 + u) ** ((af - 1) / 2)
        return _gj_interval(coeffs_r, (af + 1) / 2, bf, 0.0, 1.0, smooth, order)

    return _doubling(right, tol=tol) + _doubling(left, tol=tol)


def beta_function(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def little_moment_closed_form(alpha, beta, n: int) -> float:
    """Moment of the one-interval weight via the Beta function."""
    af, bf = float(alpha), float(beta)
    if n % 2 == 0:
        return beta_function((n + bf + 1) / 2, (af + 1) / 2)
    return beta_function((n + bf + 2) / 2, (af + 1) / 2)
