"""Exact monic eigenpolynomials and residuals through the operator's integer band.

The operator preserves degree and lowers it by at most three, so its matrix
on ``1, x, ..., x^N`` is upper triangular with the eigenvalues on the
diagonal and at most three superdiagonals.  :meth:`DunklOperator.band`
holds those entries as integers over one common denominator ``M``, read
once per operator off the coefficient functions, a few integer operations
per column.  The eigenvalues are formed as integers over one denominator
and checked against the band's diagonal by integer cross-products.  The
monic eigenpolynomial of degree ``n`` is one fraction-free backward sweep
over that band: coefficient ``j`` is an integer ``x_j`` over the running
product ``f_j ... f_(n-1)`` of small factors, each step dividing by one
gcd against a machine-size int, and the polynomial is handed out in that
form (:class:`~.laurent._SweptPolynomial`), with no ``Fraction`` per
coefficient.  The residual ``L p - lam p`` is an integer band product,
exact for any polynomial, that reads an integer form as it is; it is
identically zero for every returned pair.

The CSV and JSON tables reduce each nonzero coefficient once, against its
own running denominator, format the pair as ``str`` of a ``Fraction``
would and write ``0`` for absent exponents; a swept polynomial's
``Fraction`` map is built only if someone reads it.  No cell of the CSV
table needs quoting, so each row is one plain comma join.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .dunkl import DunklOperator, OperatorBand
from .errors import DegenerateSpectrum, InternalConsistencyError
from .laurent import (LaurentPoly, Polynomial, Rational, _coprime_fraction, _SweptPolynomial,
                      as_rational)


@dataclass(frozen=True)
class EigenPolynomial:
    """A monic eigenpolynomial of degree ``n`` with its eigenvalue."""

    n: int
    poly: Polynomial
    eigenvalue: Rational


def _spectrum(op: DunklOperator, N: int) -> list:
    """Eigenvalues of degrees 0..N, in one pass over integers.

    ``tau0 + tau1``, ``tau0 - tau1`` and ``2 eta`` are formed once, over
    their common denominator ``q``, and ``q lambda_n`` is an int from the
    parity law of :func:`.dunkl.eigenvalue`; each eigenvalue is reduced by
    one gcd.  Raises :class:`DegenerateSpectrum` at the first degree whose
    eigenvalue vanishes (n >= 1) or repeats an earlier one.
    """
    if op.params is None:
        raise ValueError("operator must carry its parameter record")
    if N < 0:
        raise ValueError("degree must be >= 0")
    p = op.params
    rates = (p.tau0 + p.tau1, p.tau0 - p.tau1, 2 * p.eta)
    q = math.lcm(*(r.denominator for r in rates))
    even, odd, shift = (r.numerator * (q // r.denominator) for r in rates)
    lams, first = [], {}
    for n in range(N + 1):
        lam = shift + odd * n if n & 1 else even * n
        if n >= 1 and lam == 0:
            raise DegenerateSpectrum(n, f"eigenvalue vanishes at degree {n}")
        m = first.setdefault(lam, n)
        if m != n:
            raise DegenerateSpectrum(
                n, f"eigenvalue at degree {n} collides with degree {m}"
            )
        g = math.gcd(lam, q)
        lams.append(_coprime_fraction(lam // g, q // g))
    return lams


def _band_diagonal(band: OperatorBand, lams: list) -> list:
    """``M * lambda_k`` off the band, checked against the eigenvalue law in integers."""
    diag = [row[0] for row in band.rows[:len(lams)]]
    for k, lam in enumerate(lams):
        if diag[k] * lam.denominator != band.scale * lam.numerator:
            raise InternalConsistencyError(
                f"diagonal of L x^{k} is {Fraction(diag[k], band.scale)}, "
                f"the eigenvalue law gives {lam}"
            )
    return diag


def _solve_degree(band: OperatorBand, diag: list, n: int, lam: Fraction) -> EigenPolynomial:
    """Fraction-free backward sweep for the monic degree-``n`` eigenpolynomial.

    With ``d_j = M(lambda_n - lambda_j)`` and ``t_i = M [L x^(j+i)]`` at
    ``x^j``, the coefficient of ``x^j`` is
    ``c_j = (t1 c_{j+1} + t2 c_{j+2} + t3 c_{j+3}) / d_j``, ``c_n = 1``.  It
    is carried as ``c_j = x_j / (f_j ... f_(n-1))``: the step forms
    ``x_j = t1 x_(j+1) + t2 x_(j+2) f_(j+1) + t3 x_(j+3) f_(j+1) f_(j+2)``
    and divides it and ``d_j`` by their gcd, which is small because ``d_j``
    is a machine-size int; the reduced ``d_j``, made positive, is ``f_j``
    (1 where ``x_j = 0``).  No other gcd, lcm or ``Fraction`` is formed:
    the polynomial is handed out in this form (:class:`~.laurent._SweptPolynomial`).
    """
    rows = band.rows
    dn = diag[n]
    x, f = [0] * n + [1], [1] * n
    x1, x2, x3 = 1, 0, 0  # x_{j+1}, x_{j+2}, x_{j+3}
    f1, f2 = 1, 1  # f_{j+1}, f_{j+2}
    for j in range(n - 1, -1, -1):
        y = rows[j + 1][1] * x1
        if x2:
            t = rows[j + 2][2]
            if t:
                y += t * f1 * x2
        if x3:
            t = rows[j + 3][3]
            if t:
                y += t * f1 * f2 * x3
        d = 1
        if y:
            d = dn - diag[j]
            g = math.gcd(y, d)
            if d < 0:
                g = -g
            if g != 1:
                y //= g
                d //= g
            x[j], f[j] = y, d
        x1, x2, x3, f1, f2 = y, x1, x2, d, f1
    return EigenPolynomial(n=n, poly=_SweptPolynomial(tuple(f), tuple(x)), eigenvalue=lam)


def monic_eigenpolynomial(op: DunklOperator, n: int) -> EigenPolynomial:
    """The unique monic degree-``n`` eigenpolynomial of a nondegenerate operator.

    Raises :class:`DegenerateSpectrum` eagerly if the eigenvalue at ``n``
    vanishes (n >= 1) or coincides with an earlier one.
    """
    lams = _spectrum(op, n)
    band = op.band(n)
    return _solve_degree(band, _band_diagonal(band, lams), n, lams[n])


def eigen_sequence(op: DunklOperator, N: int) -> list:
    """Eigenpolynomials of degrees 0..N, each solved on the band up to ``N``.

    The spectrum is checked before any solving, so a degenerate degree
    raises :class:`DegenerateSpectrum` without work on the ones below it.
    """
    lams = _spectrum(op, N)
    band = op.band(N)
    diag = _band_diagonal(band, lams)
    return [_solve_degree(band, diag, n, lams[n]) for n in range(N + 1)]


def residual(op: DunklOperator, p: LaurentPoly, lam: Rational) -> Polynomial:
    """Exact residual ``L p - lam p``; the zero polynomial certifies an eigenpair.

    ``p = sum_j c_j x^j / s`` comes from
    :meth:`~.laurent.LaurentPoly._scaled_terms`: a basis polynomial of
    :mod:`.quadrature` hands over the integer vector it was built as, over
    its denominator ``s``, and any other polynomial its own ``Fraction``
    map with ``s = 1``.  With ``q = D c`` integral, ``D`` the lcm of the
    ``c_j``'s denominators (1 for a basis polynomial), ``lam = l / e`` and
    ``t_i = M [L x^(j+i)]`` at ``x^j`` off the band, entry ``j`` is
    ``(e sum_i t_i q_(j+i) - M l q_j) / (M D s e)``: integer products, with
    a ``Fraction`` formed only for nonzero entries.  The diagonal term is
    the one product ``(t_0 e - M l) q_j``, and zero band entries are
    skipped.
    """
    if not p.is_polynomial:
        raise ValueError("residual expects a polynomial")
    lam = as_rational(lam)
    s, terms = p._scaled_terms()
    if not terms:
        return Polynomial()
    n = max(terms)
    band = op.band(n)
    rows = band.rows
    D = math.lcm(*(v.denominator for v in terms.values()))
    e, ml = lam.denominator, band.scale * lam.numerator
    acc = [0] * (n + 1)
    for k, v in terms.items():
        q = v.numerator * (D // v.denominator)
        # Entries below x^0 are 0, so a nonzero t_i has k - i >= 0.
        t0, t1, t2, t3 = rows[k]
        acc[k] += (t0 * e - ml) * q
        if e != 1:
            q *= e
        if t1:
            acc[k - 1] += t1 * q
        if t2:
            acc[k - 2] += t2 * q
        if t3:
            acc[k - 3] += t3 * q
    den = band.scale * D * s * e
    return Polynomial._from_clean({j: Fraction(t, den) for j, t in enumerate(acc) if t})


def eigen_defects(op: DunklOperator, polys) -> list:
    """Degrees ``n`` at which ``polys[n]`` is not ``op``'s monic eigenpolynomial.

    The spectrum of degrees ``0..N``, ``N = len(polys) - 1``, is checked
    first (:class:`DegenerateSpectrum`), and the band is built once up to
    ``N`` with its diagonal checked against the eigenvalue law.  Degree
    ``n`` passes when ``polys[n]`` is monic of degree ``n`` and its exact
    :func:`residual` at ``lambda_n`` is zero.  With distinct eigenvalues the
    operator's eigenvectors in degree ``<= N`` are one line per degree, so
    an empty list proves that ``polys`` are the monic eigenpolynomials,
    with no solve.
    """
    lams = _spectrum(op, len(polys) - 1)
    _band_diagonal(op.band(len(polys) - 1), lams)
    return [n for n, (p, lam) in enumerate(zip(polys, lams))
            if p.degree != n or not p.is_monic or not residual(op, p, lam).is_zero]


def _coefficient_cells(poly: Polynomial, n: int) -> list:
    """The coefficients of ``x^0..x^n`` as ``str`` of a ``Fraction`` prints them, ``"0"`` if absent.

    Each nonzero coefficient is reduced once, by :meth:`~.laurent.LaurentPoly._lowest_terms`,
    and formatted from the pair; no ``Fraction`` is formed.
    """
    cells = ["0"] * (n + 1)
    for k, p, q in poly._lowest_terms():
        cells[k] = f"{p}/{q}" if q != 1 else str(p)
    return cells


def coefficient_table_csv(eigs) -> str:
    """CSV table: one row per degree, exponent-ascending rational columns.

    Every cell is an integer, a ``p/q`` rational or a ``c<k>`` header, none
    of which needs CSV quoting, so each row is one comma join.  Rows go to
    the buffer one at a time, the newline as a second write: of the ways of
    assembling the text that were measured (``csv.writer``, one join of all
    rows, ``row + "\\n"``), this one gave the lowest peak RSS.  No rows give
    the header ``degree,lambda`` alone.
    """
    n_max = max((e.n for e in eigs), default=-1)
    buf = io.StringIO()
    buf.write(",".join(["degree", "lambda"] + [f"c{k}" for k in range(n_max + 1)]))
    buf.write("\n")
    for e in eigs:
        buf.write(",".join([str(e.n), str(e.eigenvalue)] + _coefficient_cells(e.poly, n_max)))
        buf.write("\n")
    return buf.getvalue()


def coefficient_table_json(eigs) -> str:
    records = [
        {
            "degree": e.n,
            "lambda": str(e.eigenvalue),
            "coefficients": _coefficient_cells(e.poly, e.n),
        }
        for e in eigs
    ]
    return json.dumps(records, indent=2)


def parse_coefficient_table_csv(text: str) -> list:
    """Inverse of :func:`coefficient_table_csv` (exact round-trip)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    out = []
    for row in reader:
        n = int(row[0])
        lam = Fraction(row[1])
        coeffs = {k: q for k, q in enumerate(map(Fraction, row[2:])) if q}
        out.append(EigenPolynomial(n=n, poly=Polynomial(coeffs), eigenvalue=lam))
    return out
