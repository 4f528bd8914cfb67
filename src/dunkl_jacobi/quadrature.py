"""Numerical inner products against the positive weight families.

The split of an integrand into even and odd parts turns each weighted
integral over the symmetric support into a single Jacobi-weighted integral
in ``y = x^2`` whose non-weight part is again a polynomial, so Gauss-Jacobi
rules matched to the endpoint exponents integrate polynomial inputs to
machine accuracy.  The equivalent x-space rule (mirrored nodes, positive
weights) is what gets exposed.

Each polynomial is written exactly in the monic orthogonal basis ``P_k``,
whose recurrence is known in closed form (the big -1 Jacobi polynomials of
Vinet and Zhedanov), and the ``P_k`` are evaluated at the nodes by the float
recurrence (Golub & Welsch, 1969).  Single inner products sum with
``math.fsum``; a Gram matrix is one float64 matmul.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateSpectrum, NonIntegrable, UnsupportedWeight
from .laurent import LaurentPoly, Polynomial
from .weights import WeightFunction

__all__ = [
    "QuadratureRule",
    "GramMatrix",
    "quadrature_rule",
    "inner_product",
    "moment",
    "gram_matrix",
    "symmetry_residual",
    "recurrence_coefficients",
    "orthogonal_polynomials",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights realizing ``f -> integral f w dx``."""

    nodes: tuple
    weights: tuple
    target: WeightFunction
    order: int

    def to_json_obj(self) -> dict:
        return {
            "order": self.order,
            "family": self.target.family,
            "support": [[str(lo), str(hi)] for lo, hi in self.target.support],
            "nodes": list(self.nodes),
            "weights": list(self.weights),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


def _jacobi_value_derivative(n: int, a: float, b: float, t):
    """Jacobi P_n^(a,b) and derivative on an array, three-term recurrence.

    Runs in whatever dtype ``t`` carries (extended precision here) so the
    Newton polish below can push scipy's double-precision nodes to the
    rounding floor of the final rule.
    """
    one = t * 0 + 1.0
    p_prev = one
    if n == 0:
        return one, t * 0
    p = (a - b) / 2 + (a + b + 2) / 2 * t
    for k in range(2, n + 1):
        c1 = 2 * k * (k + a + b) * (2 * k + a + b - 2)
        c2 = 2 * k + a + b - 1
        c3 = (2 * k + a + b) * (2 * k + a + b - 2)
        c4 = a * a - b * b
        c5 = 2 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
        p, p_prev = (c2 * (c3 * t + c4) * p - c5 * p_prev) / c1, p
    s = 2 * n + a + b
    deriv = (n * ((a - b) - s * t) * p + 2 * (n + a) * (n + b) * p_prev) / (s * (1 - t * t))
    return p, deriv


def _gauss_jacobi_refined(order: int, a: float, b: float):
    """Gauss-Jacobi nodes/weights polished in extended precision."""
    from scipy.special import roots_jacobi  # scipy only loads once a rule is built

    # At a + b = -1 scipy's np.where also computes a 0/0 branch it then discards.
    with np.errstate(invalid="ignore"):
        t64, _ = roots_jacobi(order, a, b)
    t = t64.astype(np.longdouble)
    for _ in range(2):
        p, dp = _jacobi_value_derivative(order, a, b, t)
        t = t - p / dp
    _, dp = _jacobi_value_derivative(order, a, b, t)
    log_c = (
        (a + b + 1) * math.log(2.0)
        + math.lgamma(order + a + 1)
        + math.lgamma(order + b + 1)
        - math.lgamma(order + 1)
        - math.lgamma(order + a + b + 1)
    )
    weights = np.longdouble(math.exp(log_c)) / ((1 - t * t) * dp * dp)
    return t, weights


def _require_positive_family(w: WeightFunction) -> None:
    if w.normal_form is None:
        raise UnsupportedWeight(
            f"family '{w.family}' is sign-indefinite; inner products need a positive weight"
        )
    if not w.support:
        raise UnsupportedWeight("weight has empty support")


def _integrability_exponents(w: WeightFunction):
    """Jacobi exponents (at the outer and inner y-endpoints); both must be > -1."""
    alpha, beta = w.normal_form[:2]
    if alpha <= -1 or beta <= -1:
        raise NonIntegrable(
            "endpoint exponents must exceed -1 (alpha > -1 and beta > -1)"
        )
    return (alpha - 1) / 2, (beta - 1) / 2


@lru_cache(maxsize=256)
def quadrature_rule(w: WeightFunction, order: int) -> QuadratureRule:
    """Gauss rule with ``order`` y-nodes (2*order mirrored x-nodes).

    Exact (to rounding) for polynomial integrands whose even/odd transform
    has y-degree at most ``2*order - 1``.  With ``y = x^2`` on
    ``[c^2, d^2]`` the node pair ``±x`` carries
    ``const * v * (d ± x)(x ∓ c) / (2x)`` for the Gauss-Jacobi weight ``v``;
    ``c = 0`` is the one-interval family.
    """
    _require_positive_family(w)
    a_exp, b_exp = _integrability_exponents(w)
    if order < 1:
        raise ValueError("order must be >= 1")
    const = float(w.constant)
    t, wj = _gauss_jacobi_refined(order, float(a_exp), float(b_exp))

    _, _, c, d = w.normal_form
    lo, hi = float(c * c), float(d * d)
    df, cf = float(d), float(c)
    half = (hi - lo) / 2.0
    y = half * t + (hi + lo) / 2.0
    v = wj * half ** (float(a_exp) + float(b_exp) + 1.0)
    x = np.sqrt(y)
    w_plus = const * v * (x + df) * (x - cf) / (2.0 * x)
    w_minus = const * v * (df - x) * (x + cf) / (2.0 * x)

    nodes = tuple(float(z) for z in -x[::-1]) + tuple(float(z) for z in x)
    weights = tuple(float(z) for z in w_minus[::-1]) + tuple(float(z) for z in w_plus)
    return QuadratureRule(nodes=nodes, weights=weights, target=w, order=order)


def _node_table(rule: QuadratureRule, polys) -> np.ndarray:
    """Rows of ``polys`` at the nodes: exact ``P_k`` expansions, rounded once."""
    if not all(p.is_polynomial for p in polys):
        raise ValueError("node values need polynomials")
    top = max((p.degree or 0) for p in polys) if polys else 0
    basis = orthogonal_polynomials(rule.target, top)
    x = np.asarray(rule.nodes)
    values = [np.ones_like(x)]
    for n, (b, u) in enumerate(_recurrence(rule.target.normal_form, top - 1)):
        nxt = (x - float(b)) * values[n]
        values.append(nxt - float(u) * values[n - 1] if n else nxt)
    expansion = np.zeros((len(polys), top + 1))
    for row, p in zip(expansion, polys):
        while not p.is_zero:
            k, lead = p.degree, p.leading_coefficient
            row[k] = float(lead)
            p = p - lead * basis[k]
    return expansion @ np.array(values)


def _default_order(degree_sum: int) -> int:
    return max(40, degree_sum + 10)


def inner_product(w: WeightFunction, p: LaurentPoly, q: LaurentPoly,
                  order: int | None = None) -> float:
    """``integral p q w dx`` over the support of ``w``.

    Relative accuracy for polynomial integrands is at the rounding floor
    once ``order >= (deg p + deg q)/2 + 1``; the default order leaves a
    comfortable margin.
    """
    deg = (p.degree or 0) + (q.degree or 0)
    rule = quadrature_rule(w, order if order is not None else _default_order(deg))
    pv, qv = _node_table(rule, (p, q)).tolist()
    return math.fsum(wt * a * b for wt, a, b in zip(rule.weights, pv, qv))


def moment(w: WeightFunction, n: int, order: int | None = None) -> float:
    """``integral x^n w dx`` via the same rule machinery."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return inner_product(w, Polynomial.one(), Polynomial.monomial(n), order)


@dataclass(frozen=True)
class GramMatrix:
    """Matrix of pairwise inner products for a polynomial basis."""

    entries: np.ndarray
    basis: tuple

    def normalization(self, n: int) -> float:
        return float(self.entries[n, n])

    def max_relative_off_diagonal(self) -> float:
        """Largest ``|g_ij| / sqrt(|g_ii g_jj|)`` over ``i < j``.

        A pair whose ``sqrt(|g_ii g_jj|)`` is zero in float64 (an underflowed
        normalization) cannot be checked and counts as ``inf``.
        """
        g = self.entries
        i, j = np.triu_indices(g.shape[0], 1)
        h = np.abs(np.diag(g))
        denom = np.sqrt(h[i] * h[j])
        ratio = np.full(denom.shape, np.inf)
        np.divide(np.abs(g[i, j]), denom, out=ratio, where=denom > 0)
        return float(ratio.max(initial=0.0))

    def to_csv(self) -> str:
        lines = [",".join(f"g{j}" for j in range(self.entries.shape[1]))]
        for row in self.entries:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def gram_matrix(w: WeightFunction, polys, order: int | None = None) -> GramMatrix:
    """All pairwise inner products of ``polys`` under ``w``.

    One float64 matmul of the node table against the rule weights.
    With positive weights, Cauchy-Schwarz bounds ``sum_k w_k |P_i P_j|`` by
    ``sqrt(h_i h_j)``, so each entry's summation error relative to
    ``sqrt(h_i h_j)`` stays below about ``n_nodes * eps`` (~2e-14 at the
    default order) without compensated summation.
    """
    polys = tuple(polys)
    max_deg = max((p.degree or 0) for p in polys) if polys else 0
    rule = quadrature_rule(w, order if order is not None else _default_order(2 * max_deg))
    table = _node_table(rule, polys)
    g = (table * np.asarray(rule.weights)) @ table.T
    return GramMatrix(entries=(g + g.T) / 2.0, basis=polys)


def symmetry_residual(w: WeightFunction, op, V: Polynomial, W: Polynomial,
                      order: int | None = None) -> float:
    """``<L V, W> - <V, L W>``; vanishes (numerically) for symmetrizable pairs."""
    lv = op.apply(V)
    lw = op.apply(W)
    deg = max((lv.degree or 0) + (W.degree or 0), (V.degree or 0) + (lw.degree or 0))
    if order is None:
        order = _default_order(deg)
    return inner_product(w, lv, W, order) - inner_product(w, V, lw, order)


def _recurrence(normal_form, N: int) -> list:
    """Closed-form ``(b_n, u_n)``, n = 0..N, with ``u_0 = None``.

    At ``d = 1``, ``b_n = 1 - A_n - C_n`` and ``u_n = A_{n-1} C_n``.  Stretching
    the support by ``d`` puts ``c/d`` for ``c`` and scales ``b_n`` by ``d``
    and ``u_n`` by ``d^2``.
    """
    alpha, beta, c, d = normal_form
    c = c / d
    m = -(alpha + beta) / 2
    if m.denominator == 1 and 1 <= m <= N + 1:
        raise DegenerateSpectrum(int(m), f"2n + alpha + beta vanishes at n = {m}")
    out = []
    for n in range(N + 1):
        s = 2 * n + alpha + beta
        if n % 2:
            a_n, c_n = (1 - c) * (n + alpha + beta + 1) / (s + 2), (1 + c) * (n + beta) / s
        else:
            a_n, c_n = (1 + c) * (n + alpha + 1) / (s + 2), (1 - c) * n / s if n else 0
        out.append((d * (1 - a_n - c_n), d * d * a_prev * c_n if n else None))
        a_prev = a_n
    return out


def orthogonal_polynomials(w: WeightFunction, n: int) -> list:
    """Exact monic ``P_0..P_n`` orthogonal under a positive weight.

    For the family weights these are the monic eigenpolynomials of
    ``big_operator((alpha, beta, c))``.
    """
    _require_positive_family(w)
    if n < 0:
        raise ValueError("n must be >= 0")
    x = Polynomial.monomial(1)
    polys = [Polynomial.one()]
    for k, (b, u) in enumerate(_recurrence(w.normal_form, n - 1)):
        nxt = (x - b) * polys[k]
        polys.append(Polynomial.from_laurent(nxt - u * polys[k - 1] if k else nxt))
    return polys


def recurrence_coefficients(w: WeightFunction, N: int) -> list:
    """Three-term coefficients ``x P_n = P_{n+1} + b_n P_n + u_n P_{n-1}``, n = 0..N.

    Exact ``Fraction``s from the closed form, with ``u_0 = None``; the
    weight's normal form must have ``d = 1``.  By Favard's theorem
    ``u_n > 0`` for all ``n`` certifies a positive-definite functional.
    """
    if w.normal_form is None or w.normal_form[3] != 1:
        raise UnsupportedWeight("weight is not a positive family weight with d = 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    return _recurrence(w.normal_form, N)


def recurrence_table_csv(coeffs) -> str:
    lines = ["n,b,u"]
    for n, (b, u) in enumerate(coeffs):
        lines.append(f"{n},{b},{'' if u is None else u}")
    return "\n".join(lines) + "\n"
