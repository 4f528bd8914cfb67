"""Independent reference computations used only by the tests.

Nothing here shares code with the production quadrature path: integrals
are computed interval by interval in the original variable (no y = x^2
substitution), with Gauss-Jacobi rules built by Golub-Welsch (scipy's
symmetric tridiagonal eigensolve, nodes and weights from its eigenpairs,
where the production rule polishes numpy's dense eigenvalues by a Newton
step and takes Christoffel sums as weights) and plain float polynomial
evaluation, doubling the node count until two successive values agree.
The Jacobi matrix's entries come from the textbook closed form in
``t``, not from the production rule's longdouble arrays.  The three-term
recurrence is read off given polynomials by exact remainders, not from a
closed form, and the polynomials it builds are formed by plain
``Fraction`` arithmetic, not fraction-free.  A second Gauss rule comes
from the closed-form recurrence by Golub-Welsch, not through ``y = x^2``.
The coefficient table is written by ``csv.writer`` from
``Polynomial.coefficient``, not by plain comma joins over the coefficient
map.  The operator band is built column by column from the Laurent
``apply``, not from linear forms in ``k``.  Nondegeneracy is the loop over
degrees, not the closed form in ``-2 eta / (tau0 - tau1)``, and the
spectrum is that loop over ``eigenvalue(params, n)`` with ``Fraction``
keys, not integers over one denominator.  The monic
eigenpolynomials come from the fraction-free backward sweep (after
Bareiss, Math. Comp. 22, 1968), with one full-size ``Fraction`` gcd per
coefficient, not from the lowest-terms sweep.  A polynomial's expansion in the
``P_k`` peels off leading terms by ``Polynomial`` subtraction, not by the
connection rows of the three-term recurrence.  The Pearson pair at a point
evaluates the weight factor by factor off its exact descriptor, and forms
``G1``, ``F``, ``G1'`` and ``w'/w`` at the exact binary value of the point in
``Fraction`` arithmetic, term by term, not by Horner's rule in integers; each
is rounded once.  The Pearson figure is ``Fraction``
arithmetic at the exact sample points, factor by factor and term by term, not
integer numerators over one denominator; each quantity is rounded once by
``float(Fraction)``, and the floats combine in the order the figure is pinned
to.
"""

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

from dunkl_jacobi import (
    DegenerateSpectrum,
    InternalConsistencyError,
    OperatorBand,
    OperatorParams,
    Polynomial,
    UnsupportedPoint,
    eigenvalue,
)


# -- the spectrum, degree by degree -----------------------------------------

def spectrum_scan(params, N: int) -> list:
    """``eigenvalue(params, n)`` for n = 0..N, each checked against the ones before.

    Raises ``DegenerateSpectrum`` at the first degree whose eigenvalue
    vanishes (n >= 1) or equals an earlier one, naming the earliest.
    """
    lams, first = [], {}
    for n in range(N + 1):
        lam = eigenvalue(params, n)
        if n >= 1 and lam == 0:
            raise DegenerateSpectrum(n, f"eigenvalue vanishes at degree {n}")
        m = first.setdefault(lam, n)
        if m != n:
            raise DegenerateSpectrum(n, f"eigenvalue at degree {n} collides with degree {m}")
        lams.append(lam)
    return lams


# -- the operator band from the Laurent apply ------------------------------

def apply_band(op, n: int) -> OperatorBand:
    """``op.band(n)`` built fresh from the columns ``op.apply(x^k)``, k = 0..n.

    ``apply`` raises ``NegativePowerResidue`` at the first column with a
    negative power; only then is each column checked for a term outside
    ``x^(k-3)..x^k``.
    """
    columns = [op.apply(Polynomial.monomial(k)).terms for k in range(n + 1)]
    for k, col in enumerate(columns):
        if any(not k - 3 <= e <= k for e in col):
            raise InternalConsistencyError(f"L x^{k} leaves the band")
    scale = math.lcm(1, *(v.denominator for col in columns for v in col.values()))
    rows = tuple(
        tuple(int(col.get(k - i, 0) * scale) for i in range(4))
        for k, col in enumerate(columns)
    )
    return OperatorBand(scale=scale, rows=rows)


# -- nondegeneracy by the loop over degrees --------------------------------

def nondegenerate_scan(params: OperatorParams, N: int) -> bool:
    """``tau1 != +-tau0`` and ``2 eta + (2k+1)(tau0 - tau1) != 0`` for k = 0..N, one k at a time."""
    if params.tau1 == params.tau0 or params.tau1 == -params.tau0:
        return False
    dtau = params.tau0 - params.tau1
    return all(2 * params.eta + (2 * k + 1) * dtau != 0 for k in range(N + 1))


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


def recurrence_polynomials(coefficients) -> list:
    """Monic ``P_0..P_n`` from ``(b_k, u_k)``, k < n, by ``Polynomial`` arithmetic.

    ``P_{k+1} = (x - b_k) P_k - u_k P_{k-1}``, each coefficient a reduced
    ``Fraction`` at every step.
    """
    x = Polynomial.monomial(1)
    polys = [Polynomial.one()]
    for k, (b, u) in enumerate(coefficients):
        nxt = (x - b) * polys[k]
        polys.append(Polynomial.from_laurent(nxt - u * polys[k - 1] if k else nxt))
    return polys


def connection_rows_reference(coefficients, m: int) -> list:
    """Rows ``C[0..m]`` of ``x^k = sum_j C[k][j] P_j`` by ``Fraction`` arithmetic.

    ``C[k+1][i] = C[k][i-1] + b_i C[k][i] + u_{i+1} C[k][i+1]`` from
    ``(b_n, u_n)``, n < m, each entry a reduced ``Fraction`` at every step.
    """
    rows = [[Fraction(1)]]
    for k in range(m):
        row = rows[k]
        nxt = []
        for i in range(k + 2):
            v = row[i - 1] if i else Fraction(0)
            if i <= k:
                v += coefficients[i][0] * row[i]
            if i < k:
                v += coefficients[i + 1][1] * row[i + 1]
            nxt.append(v)
        rows.append(nxt)
    return rows


def jacobi_recurrence(order: int, a: Fraction, b: Fraction) -> list:
    """Monic ``(b_n, u_n)``, n < ``order``, of the weight ``(1-t)^a (1+t)^b`` on [-1, 1].

    The textbook closed form (Gautschi 2004, Table 1.1) in exact
    ``Fraction``s, with ``b_0`` and ``u_1`` in the forms that stay finite at
    ``a + b = 0`` and ``a + b = -1``; ``u_0`` is ``None``.
    """
    s = a + b
    out = [((b - a) / (s + 2), None)]
    for n in range(1, order):
        m = 2 * n + s
        u = (4 * (1 + a) * (1 + b) / ((s + 2) ** 2 * (s + 3)) if n == 1
             else 4 * n * (n + a) * (n + b) * (n + s) / (m * m * (m + 1) * (m - 1)))
        out.append(((b * b - a * a) / (m * (m + 2)), u))
    return out


def golub_welsch_rule(coefficients, h0):
    """Gauss rule of ``len(coefficients)`` nodes from monic ``(b_n, u_n)``.

    The Jacobi matrix has diagonal ``b_n`` and off-diagonal ``sqrt(u_n)``
    (``u_0`` unused); the nodes are its eigenvalues and the weights ``h0``
    times the squared first components of its unit eigenvectors.
    """
    diag = np.array([float(b) for b, _ in coefficients])
    off = np.sqrt([float(u) for _, u in coefficients[1:]])
    nodes, vecs = eigh_tridiagonal(diag, off)
    return nodes, h0 * vecs[0] ** 2


def p_basis_expansion(p, basis) -> list:
    """Exact ``[c_0..c_n]`` with ``p = sum_k c_k P_k``, ``n = deg p``.

    ``basis`` holds the monic ``P_0..P_n``.  From the top degree down, the
    coefficient left at ``x^k`` is ``c_k``, and ``c_k P_k`` is subtracted
    from what is left; nothing may remain.
    """
    rest = p.terms
    out = [Fraction(0)] * ((p.degree or 0) + 1)
    for k in range(len(out) - 1, -1, -1):
        lead = rest.pop(k, 0)
        if lead:
            out[k] = lead
            for j, v in basis[k].terms.items():
                if j < k:
                    rest[j] = rest.get(j, 0) - lead * v
    if any(rest.values()):
        raise AssertionError("the expansion left a remainder")
    return out


# -- the Pearson figure, point by point -------------------------------------

def _float_power(base: float, exponent) -> float:
    """``base ** exponent``; beyond float range, an infinity with the power's sign."""
    try:
        return base**exponent
    except OverflowError:
        odd = isinstance(exponent, int) and exponent % 2 == 1
        return math.copysign(math.inf, base) if odd else math.inf


def weight_value(w, x) -> float:
    """``w(x)`` factor by factor off the exact descriptor.

    A power beyond float range is an infinity with its sign; an exponential
    beyond it returns an infinity with the sign of the product so far.
    """
    xf = float(x)
    value = float(w.constant)
    if w.sign_factor:
        value *= math.copysign(1.0, xf) if xf != 0.0 else 0.0
    for fac in w.affine_factors:
        value *= _float_power(xf - float(fac.root), fac.multiplicity)
    p = float(w.abs_power)
    if p != 0.0:
        if xf == 0.0 and p < 0.0:
            return math.inf
        value *= _float_power(abs(xf), p)
    for fac in w.algebraic_factors:
        base = float(fac.a0) + float(fac.a2) * xf * xf
        e = fac.exponent
        ef = float(e)
        if base > 0.0:
            value *= _float_power(base, ef)
        elif base == 0.0:
            if ef > 0.0:
                value = 0.0
            elif ef < 0.0:
                return math.inf if value >= 0 else -math.inf
        elif e.denominator == 1:
            value *= _float_power(base, int(e))
        else:
            raise UnsupportedPoint(f"x={xf}: negative base to fractional power {e}")
    fac = w.exponential_factor
    if fac is not None:
        if fac.kind == "gauss":
            arg = float(fac.coefficient) * xf * xf
        else:
            denom = xf * xf - float(fac.shift)
            if denom == 0.0:
                raise UnsupportedPoint("x is a singular point of the exponential factor")
            arg = float(fac.coefficient) / denom
        try:
            value *= math.exp(arg)
        except OverflowError:
            return math.inf if value >= 0 else -math.inf
    return value


def _laurent_exact(p, x: Fraction) -> Fraction:
    return sum((c * x**k for k, c in p.terms.items()), Fraction(0))


def _log_derivative_exact(w, x: Fraction) -> Fraction:
    """``w'/w = A'/A + E'/E`` at ``x``, summed term by term."""
    total = sum((Fraction(fac.multiplicity) / (x - fac.root) for fac in w.affine_factors),
                Fraction(0))
    if w.abs_power:
        total += w.abs_power / x
    for fac in w.algebraic_factors:
        total += 2 * fac.exponent * fac.a2 * x / (fac.a0 + fac.a2 * x * x)
    fac = w.exponential_factor
    if fac is not None:
        if fac.kind == "gauss":
            total += 2 * fac.coefficient * x
        else:
            total -= 2 * fac.coefficient * x / (x * x - fac.shift) ** 2
    return total


def pearson_pair(w, op, x) -> tuple:
    """``(r1, r2)`` of the Pearson pair at ``x``, every value computed afresh.

    ``G1(+-x)``, ``F(+-x)``, ``G1'(x)`` and ``w'/w`` are exact at the binary
    value of ``x`` and rounded once; ``w(+-x)`` is :func:`weight_value`.
    """
    xf = float(x)
    xr = Fraction(xf)
    wx, wmx = weight_value(w, xf), weight_value(w, -xf)
    g1x, g1mx = float(_laurent_exact(op.G1, xr)), float(_laurent_exact(op.G1, -xr))
    fx, fmx = float(_laurent_exact(op.F, xr)), float(_laurent_exact(op.F, -xr))
    r1 = wx * g1x - wmx * g1mx
    d_wg1 = (wx * float(_log_derivative_exact(w, xr)) * g1x
             + wx * float(_laurent_exact(op.G1.differentiate(), xr)))
    r2 = wmx * fmx - wx * fx - d_wg1
    return r1, r2


def pearson_points_reference(w) -> list:
    """:func:`pearson_points` in ``Fraction`` arithmetic, each point tested on the support."""
    points = []
    for lo, hi in w.support:
        eps = min(Fraction(1, 1000), (hi - lo) / 4)
        a, b = lo + eps, hi - eps
        points.extend(a + i * (b - a) / 24 for i in range(25))

    def interior(x):
        return any(lo < x < hi for lo, hi in w.support)

    return [x for x in points
            if abs(x) >= Fraction(1, 10**9) and interior(x) and interior(-x)]


def _affine_part(w, x: Fraction) -> Fraction:
    """``A(x)``: the constant, the sign factor and the affine factors."""
    value = w.constant * ((x > 0) - (x < 0) if w.sign_factor else 1)
    for fac in w.affine_factors:
        value *= (x - fac.root) ** fac.multiplicity
    return value


def pearson_figure(w, op, points) -> float:
    """Worst ``|r| / (sum of term sizes)`` of the pair over ``E``, ``inf`` if none is measured.

    ``w = A(x) E(x^2)`` with ``A`` from :func:`_affine_part`.  At each exact
    point, ``A(+-x)``, ``G1(+-x)``, ``F(+-x)``, ``G1'(x)`` and ``w'/w`` are
    formed in ``Fraction`` arithmetic and rounded once; then
    ``r1 = A(x)G1(x) - A(-x)G1(-x)`` over ``|A(x)G1(x)| + |A(-x)G1(-x)|``,
    and ``r2 = A(-x)F(-x) - A(x)F(x) - A(x)[(w'/w) G1(x) + G1'(x)]`` over
    ``|A(-x)F(-x)| + |A(x)F(x)| + |A(x)(w'/w)G1(x)| + |A(x)G1'(x)|``.  A size
    of 0.0 measures nothing.
    """
    dg1 = op.G1.differentiate()
    worst = None
    for x in points:
        ax, amx = float(_affine_part(w, x)), float(_affine_part(w, -x))
        g1x, g1mx = float(_laurent_exact(op.G1, x)), float(_laurent_exact(op.G1, -x))
        fx, fmx = float(_laurent_exact(op.F, x)), float(_laurent_exact(op.F, -x))
        dg1x = float(_laurent_exact(dg1, x))
        ld = float(_log_derivative_exact(w, x))
        even, odd = ax * g1x, amx * g1mx
        reflected, direct = amx * fmx, ax * fx
        r1 = even - odd
        r2 = reflected - direct - ax * (ld * g1x + dg1x)
        s2 = abs(reflected) + abs(direct) + abs(ax * ld * g1x) + abs(ax * dg1x)
        for r, size in ((r1, abs(even) + abs(odd)), (r2, s2)):
            if size != 0.0:
                worst = max(abs(r) / size, 0.0 if worst is None else worst)
    return math.inf if worst is None else worst


# -- a 40-digit Gauss rule ------------------------------------------------------

def gauss_jacobi_mp(order: int, a, b, start):
    """Gauss-Jacobi rule for ``(1-t)^a (1+t)^b`` on ``[-1, 1]`` in ``mpmath``.

    ``a`` and ``b`` are exact rationals and ``start`` holds float guesses of
    the nodes.  Newton runs on the monic recurrence of the Jacobi matrix at
    the working precision, and each weight is the Christoffel number
    ``mu_0 / sum_k q_k(t)^2`` over the orthonormal ``q_0..q_{order-1}``:
    Golub-Welsch without the eigensolve.  Returns ``(nodes, weights)``.
    """
    from mpmath import mp

    A, B = mp.mpf(a.numerator) / a.denominator, mp.mpf(b.numerator) / b.denominator
    s = A + B
    diag = [(B - A) / (s + 2)] + [(B * B - A * A) / ((2 * n + s) * (2 * n + s + 2))
                                  for n in range(1, order)]
    # u_n, the squared off-diagonal; u_1 in the form without the 0/0 at s = -1
    u = [mp.zero, 4 * (1 + A) * (1 + B) / ((2 + s) ** 2 * (3 + s))] + [
        4 * n * (n + A) * (n + B) * (n + s) / ((2 * n + s) ** 2 * (2 * n + s + 1) * (2 * n + s - 1))
        for n in range(2, order)]
    mu0 = 2 ** (s + 1) * mp.gamma(A + 1) * mp.gamma(B + 1) / mp.gamma(s + 2)

    def recurrence(t):
        """``p_order(t)``, its derivative, and ``sum_k q_k(t)^2`` for k < order."""
        p_prev, p, dp_prev, dp = mp.zero, mp.one, mp.zero, mp.zero
        squares, h = mp.one, mp.one
        for k in range(order):
            p_next = (t - diag[k]) * p - u[k] * p_prev
            dp_next = p + (t - diag[k]) * dp - u[k] * dp_prev
            p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
            if k + 1 < order:
                h *= u[k + 1]
                squares += p * p / h
        return p, dp, squares

    nodes, weights = [], []
    for guess in start:
        t = mp.mpf(float(guess))
        for _ in range(30):
            p, dp, _ = recurrence(t)
            t -= p / dp
            if abs(p / dp) < mp.mpf(10) ** (3 - mp.dps):
                break
        else:
            raise RuntimeError("Newton did not converge")
        nodes.append(t)
        weights.append(mu0 / recurrence(t)[2])
    return nodes, weights


# -- monic eigenpolynomials by the fraction-free sweep ----------------------

def fraction_free_eigen_coefficients(op, N: int) -> list:
    """Coefficient maps of the monic eigenpolynomials of degrees 0..N.

    Fraction-free back-substitution on ``op.band(N)``: with
    ``d_m = M(lambda_n - lambda_m)``, ``a_n = P_n = 1``,
    ``a_j = t1 a_{j+1} + t2 a_{j+2} d_{j+1} + t3 a_{j+3} d_{j+1} d_{j+2}`` and
    ``P_j = P_{j+1} d_j``, where ``t_i = M [L x^(j+i)]`` at ``x^j``, the
    coefficient of ``x^j`` is ``Fraction(a_j, P_j)``.  The spectrum is
    assumed simple.
    """
    rows = op.band(N).rows
    diag = [row[0] for row in rows[:N + 1]]
    out = []
    for n in range(N + 1):
        coeffs = {n: Fraction(1)}
        a1, a2, a3 = 1, 0, 0  # a_{j+1}, a_{j+2}, a_{j+3}
        d1 = d2 = 0  # d_{j+1}, d_{j+2}
        p = 1  # P_{j+1}
        for j in range(n - 1, -1, -1):
            a = rows[j + 1][1] * a1
            if a2:
                a += rows[j + 2][2] * a2 * d1
            if a3:
                a += rows[j + 3][3] * a3 * d1 * d2
            d = diag[n] - diag[j]
            p *= d
            if a:
                coeffs[j] = Fraction(a, p)
            a1, a2, a3, d1, d2 = a, a1, a2, d, d1
        out.append(coeffs)
    return out


# -- coefficient table by csv.writer ----------------------------------------

def coefficient_table_csv_reference(eigs) -> str:
    """The eigenpolynomial CSV table through ``csv.writer``, cell by cell."""
    n_max = max(e.n for e in eigs)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["degree", "lambda"] + [f"c{k}" for k in range(n_max + 1)])
    for e in eigs:
        row = [e.n, str(e.eigenvalue)]
        row += [str(e.poly.coefficient(k)) for k in range(n_max + 1)]
        writer.writerow(row)
    return buf.getvalue()


def coefficient_table_json_reference(eigs) -> str:
    """The eigenpolynomial JSON table, cell by cell through ``coefficient``."""
    return json.dumps([
        {
            "degree": e.n,
            "lambda": str(e.eigenvalue),
            "coefficients": [str(e.poly.coefficient(k)) for k in range(e.n + 1)],
        }
        for e in eigs
    ], indent=2)


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
