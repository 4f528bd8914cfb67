"""Numerical inner products against the positive weight families.

The split of an integrand into even and odd parts turns each weighted
integral over the symmetric support into a single Jacobi-weighted integral
in ``y = x^2`` whose non-weight part is again a polynomial, so Gauss-Jacobi
rules matched to the endpoint exponents integrate polynomial inputs to
machine accuracy.  The equivalent x-space rule (mirrored nodes, positive
weights) is what gets exposed.

Polynomials are evaluated at the nodes in exact rational arithmetic and
rounded once.  Single inner products sum with ``math.fsum``; a Gram matrix
is one float64 matmul of that node table against the rule weights.  The
three-term recurrence needs no quadrature: it is read exactly off the
eigenpolynomials.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .dunkl import build
from .errors import InternalConsistencyError, NonIntegrable, UnsupportedWeight
from .laurent import LaurentPoly, Polynomial
from .weights import BigJacobiParams, WeightFunction, big_operator

__all__ = [
    "QuadratureRule",
    "GramMatrix",
    "quadrature_rule",
    "inner_product",
    "moment",
    "gram_matrix",
    "symmetry_residual",
    "recurrence_coefficients",
    "three_term_recurrence",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights realizing ``f -> integral f w dx``."""

    nodes: tuple
    weights: tuple
    target: WeightFunction
    order: int

    def integrate_values(self, values) -> float:
        return math.fsum(w * v for w, v in zip(self.weights, values))

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
    if w.family not in ("big", "little"):
        raise UnsupportedWeight(
            f"family '{w.family}' is sign-indefinite; inner products need a positive weight"
        )
    if not w.support:
        raise UnsupportedWeight("weight has empty support")


def _integrability_exponents(w: WeightFunction):
    """Jacobi exponents (at the outer and inner y-endpoints); both must be > -1."""
    outer = next(f for f in w.algebraic_factors if f.a2 == -1).exponent
    if w.family == "big":
        inner = next(f for f in w.algebraic_factors if f.a2 == 1).exponent
    else:
        inner = (w.abs_power - 1) / 2
    if outer <= -1 or inner <= -1:
        raise NonIntegrable(
            "endpoint exponents must exceed -1 (alpha > -1 and beta > -1)"
        )
    return outer, inner


@lru_cache(maxsize=256)
def quadrature_rule(w: WeightFunction, order: int) -> QuadratureRule:
    """Gauss rule with ``order`` y-nodes (2*order mirrored x-nodes).

    Exact (to rounding) for polynomial integrands whose even/odd transform
    has y-degree at most ``2*order - 1``.
    """
    _require_positive_family(w)
    a_exp, b_exp = _integrability_exponents(w)
    if order < 1:
        raise ValueError("order must be >= 1")
    const = float(w.constant)
    t, wj = _gauss_jacobi_refined(order, float(a_exp), float(b_exp))

    if w.family == "big":
        # Affine roots are (-d, c); the outer algebraic base is d^2 - x^2.
        dd_sq = next(f for f in w.algebraic_factors if f.a2 == -1).a0
        r0, r1 = (f.root for f in w.affine_factors)
        if r0 * r0 == dd_sq:
            d, c = -r0, r1
        else:
            d, c = -r1, r0
        lo, hi = float(c * c), float(d * d)
        df, cf = float(d), float(c)
    else:
        kappa1 = -w.affine_factors[0].root
        lo, hi = 0.0, float(kappa1 * kappa1)
        df, cf = float(kappa1), 0.0

    half = (hi - lo) / 2.0
    y = half * t + (hi + lo) / 2.0
    v = wj * half ** (float(a_exp) + float(b_exp) + 1.0)
    x = np.sqrt(y)

    if w.family == "big":
        w_plus = const * v * (x + df) * (x - cf) / (2.0 * x)
        w_minus = const * v * (df - x) * (x + cf) / (2.0 * x)
    else:
        w_plus = const * v * (df + x) / 2.0
        w_minus = const * v * (df - x) / 2.0

    nodes = tuple(float(z) for z in -x[::-1]) + tuple(float(z) for z in x)
    weights = tuple(float(z) for z in w_minus[::-1]) + tuple(float(z) for z in w_plus)
    return QuadratureRule(nodes=nodes, weights=weights, target=w, order=order)


def _exact_node_values(p: LaurentPoly, nodes) -> list:
    """p at each (binary-exact) node, computed rationally and rounded once."""
    return [float(p.evaluate_exact(Fraction(x))) for x in nodes]


def _default_order(degree_sum: int) -> int:
    return max(40, degree_sum + 10)


def inner_product(w: WeightFunction, p: LaurentPoly, q: LaurentPoly,
                  order: int | None = None) -> float:
    """``integral p q w dx`` over the support of ``w``.

    Relative accuracy for polynomial integrands is at the rounding floor
    once ``order >= (deg p + deg q)/2 + 1``; the default order leaves a
    comfortable margin.
    """
    if not (p.is_polynomial and q.is_polynomial):
        raise ValueError("inner_product expects polynomials")
    deg = (p.degree or 0) + (q.degree or 0)
    rule = quadrature_rule(w, order if order is not None else _default_order(deg))
    pv = _exact_node_values(p, rule.nodes)
    qv = _exact_node_values(q, rule.nodes)
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
        g = self.entries
        n = g.shape[0]
        worst = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                denom = math.sqrt(abs(g[i, i]) * abs(g[j, j]))
                if denom > 0:
                    worst = max(worst, abs(g[i, j]) / denom)
        return worst

    def to_csv(self) -> str:
        lines = [",".join(f"g{j}" for j in range(self.entries.shape[1]))]
        for row in self.entries:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def gram_matrix(w: WeightFunction, polys, order: int | None = None) -> GramMatrix:
    """All pairwise inner products of ``polys`` under ``w``.

    One float64 matmul of the exact node table against the rule weights.
    With positive weights, Cauchy-Schwarz bounds ``sum_k w_k |P_i P_j|`` by
    ``sqrt(h_i h_j)``, so each entry's summation error relative to
    ``sqrt(h_i h_j)`` stays below about ``n_nodes * eps`` (~2e-14 at the
    default order) without compensated summation.
    """
    polys = tuple(polys)
    max_deg = max((p.degree or 0) for p in polys) if polys else 0
    rule = quadrature_rule(w, order if order is not None else _default_order(2 * max_deg))
    table = np.array([_exact_node_values(p, rule.nodes) for p in polys],
                     dtype=float).reshape(len(polys), len(rule.nodes))
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


def three_term_recurrence(polys) -> list:
    """Exact ``(b_n, u_n)`` with ``x P_n = P_{n+1} + b_n P_n + u_n P_{n-1}``.

    ``polys`` are monic ``P_0..P_{N+1}``; entry ``n`` for ``n = 0..N`` is
    ``(b_n, u_n)`` as ``Fraction``s, with ``u_0 = None``.  ``b_n`` is the
    leading coefficient of ``x P_n - P_{n+1}`` and ``u_n`` that of what is
    left after removing ``b_n P_n``; the final remainder must vanish
    identically, or :class:`InternalConsistencyError` is raised.
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
            raise InternalConsistencyError(
                f"x P_{n} is not a three-term combination of the eigenpolynomials"
            )
        out.append((bn, un))
    return out


def recurrence_coefficients(w: WeightFunction, N: int) -> list:
    """Three-term coefficients ``x P_n = P_{n+1} + b_n P_n + u_n P_{n-1}``, n = 0..N.

    Read exactly off the monic eigenpolynomials of the weight's family
    operator by :func:`three_term_recurrence`.  By Favard's theorem
    ``u_n > 0`` for all ``n`` certifies a positive-definite functional.
    """
    from .eigen import eigen_sequence

    if w.source_params is None:
        raise UnsupportedWeight("weight carries no family parameters")
    if N < 0:
        raise ValueError("N must be >= 0")
    eigs = eigen_sequence(build(big_operator(w.source_params)), N + 1)
    return three_term_recurrence([e.poly for e in eigs])


def recurrence_table_csv(coeffs) -> str:
    lines = ["n,b,u"]
    for n, (b, u) in enumerate(coeffs):
        lines.append(f"{n},{b},{'' if u is None else u}")
    return "\n".join(lines) + "\n"
