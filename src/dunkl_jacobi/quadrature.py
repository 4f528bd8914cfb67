"""Numerical inner products against the positive weight families.

The split of an integrand into even and odd parts turns each weighted
integral over the symmetric support into a single Jacobi-weighted integral
in ``y = x^2`` whose non-weight part is again a polynomial, so Gauss-Jacobi
rules matched to the endpoint exponents integrate polynomial inputs to
machine accuracy.  The equivalent x-space rule (mirrored nodes, positive
weights) is what gets exposed.

A Gauss-Jacobi rule is one Newton step from float64 eigenvalues, with
Christoffel-number weights that stay accurate next to a singular endpoint
(:func:`_gauss_jacobi_refined`), mapped to ``x`` without cancellation
between rounded endpoints (:func:`quadrature_rule`).  A rule is node, weight
and gap (``z``) tuples, built afresh on each request: no call builds one
twice.  Every float entry point takes its order from :func:`_gauss_order`.

Each polynomial is written exactly in the monic orthogonal basis ``P_k``,
whose recurrence is known in closed form (the big -1 Jacobi polynomials of
Vinet and Zhedanov).  The node table holds the orthonormal
``q_k = P_k / s_k``, ``s_k = sqrt(u_1 ... u_k)``, from their float
recurrence with every second step folded into the next, so ``x^2 - c^2``
enters only as ``z (2|c| + z)`` with the rule's own ``z = |x| - |c|``:
nothing cancels next to ``|c| = 1`` and nothing underflows at large
degree.  A ``P_k`` of the weight's normal form is the row ``q_k`` with scale
``s_k``; any other input hands out its integers over one denominator,
and those combine its terms' connection rows (below), scaled into the same
frame.  The symmetry block's images ``L x^k`` combine those rows with the
operator's integer band, in the same one function.
Inner products sum with ``math.fsum``, a Gram matrix is one float64 matmul
read in that frame, and the symmetry block is reduced by numpy sums, not
BLAS.

A weight keeps only its closed-form ``(b_n, u_n)``, grown on demand.  The
monic ``P_0..P_n`` and the connection rows ``x^m = sum_j C[m][j] P_j`` are
built afresh by the call that reads them, each as an integer vector
``v`` over one positive denominator ``D``, with content 1.  The ``P_k``
come from a fraction-free integer recurrence (after Bareiss, Math. Comp.
22, 1968), and are handed out in :mod:`.laurent`'s one integer form, with
``f = (1, ..., 1, D)`` and ``x = v``, tagged with their weight's normal
form; they build their ``Fraction`` maps only when read.  The rows come
the same way from
``C[m+1][i] = C[m][i-1] + b_i C[m][i] + u_{i+1} C[m][i+1]``.  A float
enters as one correctly rounded ``int / int`` division, the float that
``float(Fraction)`` gives, so no value changes on the way; the node
recurrence's floats are rounded that way, once per node table.  The
recurrence belongs to the weight object, never to a key hashed from it,
so a freshly built weight starts cold and nothing outlives it.

:func:`certify` builds no ``P_k``: :func:`_band_proof` proves the
operator's eigenpolynomials the ``P_k`` from its integer band, and one
node table of ``q_0..q_N`` serves its Gram matrix and its symmetry block.
That Gram matrix of ``P_0..P_N`` is formed on one route: :func:`_gram`
over :func:`_unit_values`' ``q_0..q_N``, in :func:`certify` and in
:func:`basis_gram`, which the ``gram`` command prints; neither builds a
``P_k`` or expands one.  :func:`gram_matrix` takes any polynomials, and
gives the same bits on the tagged :func:`orthogonal_polynomials`.

numpy is imported inside the functions that compute in floats, so
importing the package, and every path that stays exact, never loads it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .dunkl import build
from .eigen import _band_diagonal, _spectrum
from .errors import (DegenerateSpectrum, NonIntegrable, OutOfFloatRange, ParameterRange,
                     UnsupportedWeight)
from .laurent import LaurentPoly, Polynomial, _IntegerPolynomial
from .weights import BigJacobiParams, WeightFunction, big_operator, big_weight, pearson_defect

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QuadratureRule",
    "GramMatrix",
    "quadrature_rule",
    "inner_product",
    "moment",
    "gram_matrix",
    "basis_gram",
    "symmetry_residual",
    "recurrence_coefficients",
    "orthogonal_polynomials",
    "connection_coefficients",
    "symmetry_block",
    "Check",
    "certify",
]

ORTHOGONALITY_TOL = 1e-10
SYMMETRY_TOL = 1e-10
PEARSON_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights realizing ``f -> integral f w dx``."""

    nodes: tuple
    weights: tuple
    gaps: tuple
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


def _longdouble(q: Fraction) -> np.longdouble:
    """``q`` in ``np.longdouble``: numerator and denominator, one division."""
    import numpy as np

    return np.longdouble(q.numerator) / np.longdouble(q.denominator)


def _gauss_jacobi_refined(order: int, a: Fraction, b: Fraction):
    """Gauss-Jacobi nodes and weights for ``(1-t)^a (1+t)^b``, in extended precision.

    Two passes over the monic Jacobi matrix ``(diag_k, u_k)``, built once
    from the exact exponents.  The start nodes are the eigenvalues of its
    symmetric form, ``diag_k`` on the diagonal and ``sqrt(u_k)`` off it,
    from numpy's ``eigvalsh`` in float64 (Golub & Welsch, 1969).  The first
    pass is one Newton step from them, with ``P_n`` and ``P_n'`` from the
    monic recurrence; it runs scaled by ``2^k``, which changes no rounding
    and keeps large orders clear of underflow.  The second sums
    ``q_k(t)^2`` over the orthonormal ``q_0..q_{n-1}``, and each weight is
    the Christoffel number ``mu_0 / sum`` (Gautschi, 2004), which stays
    accurate next to a singular endpoint.
    """
    import numpy as np

    # before any numpy step; a, b > -1, so a + b + 1 bounds every exponent
    _in_float_range("a + b + 1", float, a + b + 1)
    mu0 = _in_float_range("mu_0", lambda: math.exp(
        float(a + b + 1) * math.log(2.0) + math.lgamma(float(a + 1))
        + math.lgamma(float(b + 1)) - math.lgamma(float(a + b + 2))))
    s, A, B = _longdouble(a + b), _longdouble(a), _longdouble(b)
    n = np.arange(order, dtype=np.longdouble)
    m = 2 * n + s
    diag, u = np.zeros(order, dtype=np.longdouble), np.zeros(order, dtype=np.longdouble)
    # diag_0 and u_1 (u_0 = 0) in the forms without the 0/0 at a + b = 0
    # and at a + b = -1
    diag[0] = _longdouble((b - a) / (a + b + 2))
    diag[1:] = _longdouble(b - a) * s / (m[1:] * (m[1:] + 2))
    if order > 1:
        u[1] = _longdouble(4 * (1 + a) * (1 + b) / ((a + b + 2) ** 2 * (a + b + 3)))
    n, m = n[2:], m[2:]
    u[2:] = 4 * n * (n + A) * (n + B) * (n + s) / (m * m * (m + 1) * (m - 1))

    root = np.sqrt(u)
    off = np.diag(root[1:].astype(np.float64), 1)
    t = np.linalg.eigvalsh(np.diag(diag.astype(np.float64)) + off + off.T).astype(np.longdouble)

    zero, one, t2 = np.zeros_like(t), np.ones_like(t), 2 * t
    p_prev, p, dp_prev, dp = zero, one, zero, zero
    for d2, u4 in zip(2 * diag, 4 * u):
        r = t2 - d2
        p_prev, p, dp_prev, dp = p, r * p - u4 * p_prev, dp, 2 * p + r * dp - u4 * dp_prev
    t = t - p / dp

    q_prev, q, squares = zero, one, one.copy()
    for dk, rk, rk1 in zip(diag, root, root[1:]):
        q_prev, q = q, ((t - dk) * q - rk * q_prev) / rk1
        squares += q * q
    return t, np.longdouble(mu0) / squares


def _in_float_range(name: str, f, *args):
    """``f(*args)``, the rule's constant ``name``, or :class:`~.errors.OutOfFloatRange`."""
    try:
        return f(*args)
    except OverflowError:
        raise OutOfFloatRange(f"the Gauss rule's constant {name} overflows float64") from None


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


def quadrature_rule(w: WeightFunction, order: int) -> QuadratureRule:
    """Gauss rule with ``order`` y-nodes (2*order mirrored x-nodes), built on each call.

    Exact (to rounding) for polynomial integrands whose even/odd transform
    has y-degree at most ``2*order - 1``.  With ``y = x^2`` on
    ``[c^2, d^2]`` the node pair ``±x`` carries
    ``constant * v * (d ± x)(x ∓ c) / (2x)`` for the Gauss-Jacobi weight ``v``;
    ``c = 0`` is the one-interval family.  ``z = |x| - |c|`` and
    ``|d| - |x|`` are ``half (1 + t) / (|x| + |c|)`` and
    ``half (1 - t) / (|d| + |x|)``, with ``half = (d^2 - c^2) / 2`` rounded
    once from the exact rationals, so neither cancels next to an endpoint,
    whatever the signs of ``c`` and ``d``.  ``gaps`` holds ``z`` for each
    node (mirrored nodes share it), which the node table reads.  Nothing
    is kept on ``w``: every caller builds its rule once.
    """
    import numpy as np

    _require_positive_family(w)
    a_exp, b_exp = _integrability_exponents(w)
    if order < 1:
        raise ValueError("order must be >= 1")
    t, wj = _gauss_jacobi_refined(order, a_exp, b_exp)

    _, _, c, d = w.normal_form
    cf, df = float(abs(c)), float(abs(d))
    half = float((d * d - c * c) / 2)
    y = half * t + float((d * d + c * c) / 2)
    v = wj * _in_float_range("half ** (a + b + 1)", pow, half, float(a_exp + b_exp + 1))
    x = np.sqrt(y)
    # y - c^2 = half (1 + t) and d^2 - y = half (1 - t): no cancellation
    # between rounded endpoints when |c| is near |d|
    z = half * (1 + t) / (x + cf)
    d_minus_x = half * (1 - t) / (df + x)
    # constant (d ± x)(x ∓ c) is constant sign(d) (|d| + x) z at the node on
    # d's side of 0 and constant sign(d) (|d| - x)(x + |c|) at its mirror
    # image; the weight's constant is sign(d), so the sign cancels
    near_d = v * (x + df) * z / (2.0 * x)
    far_d = v * d_minus_x * (x + cf) / (2.0 * x)
    w_plus, w_minus = (near_d, far_d) if d > 0 else (far_d, near_d)

    def mirrored(left, right):
        return tuple(np.concatenate((left[::-1], right)).astype(np.float64).tolist())

    return QuadratureRule(nodes=mirrored(-x, x), weights=mirrored(w_minus, w_plus),
                          gaps=mirrored(z, z), target=w, order=order)


def _expansion(w: WeightFunction, polys) -> tuple:
    """``(rows, units)``: each input's exact ``P_j`` coefficients, rounded once.

    A :class:`_BasisPolynomial` of ``w``'s normal form is ``P_k`` as it
    stands.  Any other input ``sum_m a_m x^m / s``, the integers of
    :meth:`~.laurent.LaurentPoly._scaled_terms`, is :func:`_combination`'s
    ``sum_m a_m C[m] / s`` over the connection rows, built once to the
    highest degree among those inputs: integer sums ``t_j`` over one
    denominator ``den``, each rounded once as ``t_j / den``, the float that
    the reduced ``Fraction`` gives.  A ``P_k``, or an input whose sums are ``e_k``
    (``x^0`` is one), is the unit row ``e_k``; ``units`` lists its ``(row, k)``.
    """
    import numpy as np

    if not all(p.is_polynomial for p in polys):
        raise ValueError("node values need polynomials")
    top = max((p.degree or 0) for p in polys) if polys else 0
    known = [isinstance(p, _BasisPolynomial) and p._normal_form == w.normal_form
             for p in polys]
    connection = _connection(w, max((p.degree for p, k in zip(polys, known)
                                     if not (k or p.is_zero)), default=-1))
    rows, units = np.zeros((len(polys), top + 1)), []
    for i, (row, p, unit) in enumerate(zip(rows, polys, known)):
        if p.is_zero:
            continue
        k = p.degree
        if not unit:
            s, terms = p._scaled_terms()
            exact, den = _combination(connection, s, terms.items(), k)
            unit = exact[k] == den and not any(exact[:k])
            if not unit:
                row[:k + 1] = [t / den for t in exact]
                continue
        row[k] = 1.0
        units.append((i, k))
    return rows, units


def _node_table(rule: QuadratureRule, polys) -> tuple:
    """``(table, scales)``: ``polys`` at the nodes in the unit frame, ``p_i = scales[i] row_i``.

    The frame is the orthonormal ``q_k = P_k / s_k``, ``s_k = sqrt(u_1 ... u_k)``,
    so ``<q_i, q_j> = h_0 delta_ij`` and no row underflows as the monic
    ``h_k`` do.  A ``P_k`` is the row ``q_k`` with scale ``s_k``; any other
    input is its :func:`_expansion` row times ``s_j`` in one vectorized
    multiply, with scale 1.  The ``s_j`` are running products of the
    rounded ``sqrt(u_n)``: each partial product is a scale itself, so none
    underflows before its own value does, as the product of the ``u_n``
    would.  The ``q_k`` and ``s_k`` come from :func:`_unit_values`.
    """
    import numpy as np

    rows, units = _expansion(rule.target, polys)
    q, s = _unit_values(rule, rows.shape[1] - 1)
    rows *= s
    scales = np.ones(len(polys))
    if units:
        i, k = np.array(units).T
        rows[i, k], scales[i] = 1.0, s[k]
    return rows @ q, scales


def _unit_values(rule: QuadratureRule, top: int) -> tuple:
    """``(q, s)``: ``q_0..q_top`` at the rule's nodes, without cancellation, and ``s_0..s_top``.

    ``sqrt(u_{n+1}) q_{n+1} = (x - b_n) q_n - sqrt(u_n) q_{n-1}`` for even
    ``n``.  For odd ``n`` two steps fold into one (Gautschi, *Orthogonal
    Polynomials: Computation and Approximation*, 2004):
    ``sqrt(u_n u_{n+1}) q_{n+1} = B_n q_{n-1} - (x - b_n) sqrt(u_{n-1}) q_{n-2}``,
    with ``B_n = (x - b_n)(x - b_{n-1}) - u_n = z (2|c| + z) + K0_n - K1_n x``.
    ``z = |x| - |c|`` is the rule's gap, so ``x^2 - c^2`` never forms, and
    ``K0_n = c^2 - u_n + b_n b_{n-1}`` and ``K1_n = b_n + b_{n-1}`` are
    exact rationals rounded once.  Next to ``|c| = 1`` the nodes lie within
    ``1e-5`` of ``±c``, where ``x^2 - u_n`` would cancel O(1) terms down to
    O(1e-5).  The scale of ``P_k = s_k q_k`` is ``s_k = r_1 ... r_k``, a
    running product of the rounded ``r_n = sqrt(u_n)``.  Every float is
    rounded once from the integer numerators and denominators of the
    weight's exact ``(b_n, u_n)``, with no ``Fraction`` formed.
    """
    import numpy as np

    w = rule.target
    coefficients = _coefficients(w, top + 1)[:top + 1]
    c = w.normal_form[2]
    cn, cd = c.numerator ** 2, c.denominator ** 2
    b = [bk.numerator / bk.denominator for bk, _ in coefficients]
    r = [0.0] + [math.sqrt(u.numerator / u.denominator) for _, u in coefficients[1:]]
    k0, k1 = [], []
    for n in range(1, top, 2):
        (bk, u), prev = coefficients[n], coefficients[n - 1][0]
        bn, bd, un, ud = bk.numerator, bk.denominator, u.numerator, u.denominator
        pn, pd = prev.numerator, prev.denominator
        k0.append(((cn * ud - un * cd) * bd * pd + bn * pn * cd * ud) / (cd * ud * bd * pd))
        k1.append((bn * pd + pn * bd) / (bd * pd))

    x, z = np.asarray(rule.nodes), np.asarray(rule.gaps)
    x_b = x - np.array(b[:top])[:, None]  # x - b_n, n < top
    fold = (z * (2 * float(abs(c)) + z) + np.array(k0)[:, None]
            - np.array(k1)[:, None] * x)
    q = np.empty((top + 1, x.size))
    q[0] = 1.0
    for n in range(top):
        if n % 2 == 0:
            np.multiply(x_b[n], q[n], out=q[n + 1])
            if n:
                q[n + 1] -= r[n] * q[n - 1]
            q[n + 1] /= r[n + 1]
        else:
            np.multiply(fold[n // 2], q[n - 1], out=q[n + 1])
            if n > 1:
                q[n + 1] -= x_b[n] * (r[n - 1] * q[n - 2])
            q[n + 1] /= r[n] * r[n + 1]
    return q, np.cumprod([1.0, *r[1:]])


def _gauss_order(degree: int, order: int | None) -> int:
    """Every float entry point's Gauss order for integrands of x-degree at most ``degree``.

    On a node pair ``±x`` an integrand of x-degree ``d`` is one of
    y-degree at most ``ceil(d / 2)`` in ``y = x^2``, and an order-``n``
    rule is exact to y-degree ``2n - 1``, so ``(ceil(d / 2) + 2) // 2``
    nodes are exact.  The default adds ten (the node table has no
    cancellation to outrun, :func:`_unit_values`); a given ``order`` below
    the least exact one raises :class:`~.errors.ParameterRange`.
    """
    least = (-(-degree // 2) + 2) // 2
    if order is None:
        return least + 10
    if order < least:
        raise ParameterRange(f"order {order} is below {least}, the least order exact "
                             f"at x-degree {degree}")
    return order


def inner_product(w: WeightFunction, p: LaurentPoly, q: LaurentPoly,
                  order: int | None = None) -> float:
    """``integral p q w dx`` over the support of ``w``.

    The order is :func:`_gauss_order`'s at x-degree ``deg p + deg q``.  The
    sum is ``s_p s_q fsum(w_k (p_k q_k))`` over the unit-frame rows, with
    every product commutative, so swapping ``p`` and ``q`` gives the same bits.
    """
    deg = (p.degree or 0) + (q.degree or 0)
    rule = quadrature_rule(w, _gauss_order(deg, order))
    (pv, qv), (sp, sq) = (values.tolist() for values in _node_table(rule, (p, q)))
    return sp * sq * math.fsum(wt * (a * b) for wt, a, b in zip(rule.weights, pv, qv))


def moment(w: WeightFunction, n: int, order: int | None = None) -> float:
    """``integral x^n w dx`` by :func:`inner_product`: :func:`_gauss_order`'s at x-degree ``n``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return inner_product(w, Polynomial.one(), Polynomial.monomial(n), order)


@dataclass(frozen=True)
class GramMatrix:
    """Matrix of pairwise inner products for a polynomial basis.

    ``entries[i, j]`` is ``<p_i, p_j>``.  ``basis`` holds the ``p_i``,
    and is ``()`` for the weight's own ``P_0..P_N`` (:func:`basis_gram`),
    which are never built.  ``unit`` is the same matrix over
    the node table's rows, ``entries = s_i s_j unit``: a ``P_k`` enters as
    ``q_k = P_k / s_k``, so its diagonal entry there is ``h_0`` however
    small the monic ``h_k`` get.  ``order`` is the Gauss rule's order that
    computed it.  A matrix built by hand leaves ``unit`` and ``order`` at
    ``None``, and its entries are its unit frame.
    """

    entries: np.ndarray
    basis: tuple
    order: int | None = None
    unit: np.ndarray | None = None

    def normalization(self, n: int) -> float:
        return float(self.entries[n, n])

    def max_relative_off_diagonal(self) -> float:
        """Largest ``|g_ij| / sqrt(|g_ii g_jj|)``, ``i < j``, in the unit frame; bound 0 is inf."""
        import numpy as np

        g = self.entries if self.unit is None else self.unit
        root = np.sqrt(np.abs(np.diag(g)))
        denom = np.outer(root, root)
        ratio = np.full(denom.shape, np.inf)
        np.divide(np.abs(g), denom, out=ratio, where=np.triu(denom > 0, 1))
        return float(np.triu(ratio, 1).max(initial=0.0))

    def to_csv(self) -> str:
        lines = [",".join(f"g{j}" for j in range(self.entries.shape[1]))]
        for row in self.entries:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def gram_matrix(w: WeightFunction, polys, order: int | None = None) -> GramMatrix:
    """All pairwise inner products of ``polys`` under ``w``.

    One float64 matmul of the unit-frame node table against the rule weights
    (its last bits may follow the BLAS thread count), then
    ``entries = s_i s_j unit``.  With positive weights, Cauchy-Schwarz bounds
    ``sum_k w_k |r_i r_j|`` by ``sqrt(g_ii g_jj)``, so each entry's summation
    error relative to it stays below about ``n_nodes * eps`` (~1e-14 at order
    31, 62 nodes) without compensated summation.  The order is
    :func:`_gauss_order`'s at x-degree twice the largest degree.
    """
    polys = tuple(polys)
    max_deg = max((p.degree or 0) for p in polys) if polys else 0
    rule = quadrature_rule(w, _gauss_order(2 * max_deg, order))
    return _gram(rule, *_node_table(rule, polys), polys)


def basis_gram(w: WeightFunction, N: int, order: int | None = None) -> GramMatrix:
    """The Gram matrix of ``w``'s monic ``P_0..P_N``, with ``basis`` left ``()``.

    The node table is :func:`_unit_values`' ``q_0..q_N`` with scales
    ``s_0..s_N``, the one :func:`certify` scores, so no ``P_k`` is built and
    no expansion runs; the rule's order is :func:`_gauss_order`'s at
    x-degree ``2N``.  The matrix is bit for bit that of
    ``gram_matrix(w, orthogonal_polynomials(w, N), order)``.
    """
    _require_positive_family(w)
    if N < 0:
        raise ValueError("N must be >= 0")
    rule = quadrature_rule(w, _gauss_order(2 * N, order))
    return _gram(rule, *_unit_values(rule, N), ())


def _gram(rule: QuadratureRule, table, scales, basis: tuple) -> GramMatrix:
    """The Gram matrix of the node table ``table`` with row scales ``scales``, on ``rule``."""
    import numpy as np

    g = (table * np.asarray(rule.weights)) @ table.T
    unit = (g + g.T) / 2.0
    return GramMatrix(entries=np.outer(scales, scales) * unit, basis=basis,
                      order=rule.order, unit=unit)


def _combination(connection: list, s: int, terms, n: int) -> tuple:
    """``(exact, den)``: ``sum_m a_m C[m] / s`` as ints ``exact[0..n]`` over ``den``.

    ``terms`` holds the pairs ``(m, a_m)``, nonzero ints ``a_m`` at
    degrees ``m <= n``, and ``s > 0``.  Over the lcm ``L`` of the
    connection rows' denominators ``D_m`` (``C[m] = v_m / D_m``),
    ``exact[j] = sum_m a_m (L / D_m) v_m[j]`` and ``den = s L``.
    """
    L = math.lcm(*[connection[m][0] for m, _ in terms])
    exact = [0] * (n + 1)
    for m, a in terms:
        D, v = connection[m]
        a *= L // D
        for j, t in enumerate(v):
            exact[j] += a * t
    return exact, s * L


def _symmetry_rows(w: WeightFunction, band, top: int) -> np.ndarray:
    """``x^0..x^top`` then ``L x^0..L x^top`` in ``P_j`` coordinates, each exact value rounded once.

    Row ``m`` is the connection row ``C[m] = v / D``.  ``L x^k`` is
    ``sum_i t_i x^(k-i) / M`` for the band's ``rows[k] = (t_0..t_3)`` over
    its scale ``M``, so its row is the :func:`_combination` of its nonzero
    terms (three at most on the family operators): integer sums rounded
    once as ``int / (M L)``.
    """
    import numpy as np

    connection = _connection(w, top)
    rows = np.zeros((2 * (top + 1), top + 1))
    for m, (D, v) in enumerate(connection):
        rows[m, :m + 1] = [t / D for t in v]
    for k, band_row in enumerate(band.rows[:top + 1]):
        terms = [(k - i, t) for i, t in enumerate(band_row) if t]
        if terms:
            exact, den = _combination(connection, band.scale, terms, k)
            rows[top + 1 + k, :k + 1] = [t / den for t in exact]
    return rows


def symmetry_block(w: WeightFunction, op, top: int, order: int | None = None) -> np.ndarray:
    """``certify``'s block ``<x^i, L x^j>``, ``i, j <= top``, on the rule for x-degree 2 top."""
    if top < 0:
        raise ValueError("top must be >= 0")
    return _symmetry(quadrature_rule(w, _gauss_order(2 * top, order)), op, top)[0]


def _symmetry(rule: QuadratureRule, op, top: int, frame: tuple | None = None) -> tuple:
    """``(B, figure)``: ``B[i, j] = <x^i, L x^j>``, ``i, j <= top``, on ``rule``, and its figure.

    The node table is :func:`_symmetry_rows` times ``s_j``, against
    ``q_0..q_top``: the first ``top + 1`` rows of ``frame``, the
    :func:`_unit_values` of ``rule`` to ``top`` or beyond (built here when
    ``None``).  Those rows are the same elementwise arithmetic at any
    height, so a taller frame gives the same bits.  Numpy sums, not BLAS,
    reduce the table.  The figure is the largest
    ``|B_ij - B_ji| / (|x^i| |L x^j| + |x^j| |L x^i|)`` over ``i < j`` with
    a nonzero bound: ``inf`` with none, 0 at ``top = 0``.
    """
    import numpy as np

    q, s = frame or _unit_values(rule, top)
    table = (_symmetry_rows(rule.target, op.band(top), top) * s[:top + 1]) @ q[:top + 1]
    w = np.asarray(rule.weights)
    block = (table[:top + 1, None, :] * (table[top + 1:] * w)[None, :, :]).sum(-1)
    norm = np.sqrt((table * table * w).sum(1))
    bound = np.outer(norm[:top + 1], norm[top + 1:])
    bound = np.triu(bound + bound.T, 1)  # i < j
    pos = bound > 0
    defect = np.abs(block - block.T)[pos] / bound[pos]
    return block, float(defect.max()) if defect.size else math.inf if top else 0.0


@dataclass(frozen=True)
class Check:
    """One verdict of :func:`certify`: the check's name, pass or fail, and its figures."""

    name: str
    passed: bool
    detail: str


def _band_proof(op, w: WeightFunction, N: int) -> list:
    """Degrees at which ``op``'s band fails to prove its eigenpolynomials those of ``w``.

    Everything runs on ``op.band(K + 1)``, ``K = max(N, 1)``, built once, in
    integers over its scale ``M``, with no ``Fraction`` formed.  An empty
    list proves that the monic eigenpolynomials ``E_n`` of ``L`` are the
    ``P_n`` of ``w``'s closed-form recurrence (:func:`_recurrence`) for
    ``n <= N + 1``, so that every closed-form ``(b_n, u_n)``, ``n <= N``, is
    the recurrence of the ``E_n``.

    *Spectrum.*  ``lambda_0..lambda_(K+1)`` are distinct and are the band's
    diagonal (:func:`.eigen._spectrum` and :func:`.eigen._band_diagonal`,
    which raise otherwise), so ``L`` has one monic eigenpolynomial ``E_n``
    in each degree ``n <= K + 1``.

    *Identity.*  The band satisfies, on ``x^0..x^K``, the q = -1
    Askey-Wilson (Bannai-Ito) relation
    ``{L, {L, X}} - gamma {L, X} - rho X = omega L + eta``, X the
    multiplication by x (Zhedanov, Theor. Math. Phys. 89, 1991; Tsujimoto,
    Vinet and Zhedanov, Adv. Math. 229, 2012).  ``gamma = sigma1 + sigma2``
    and ``rho = -sigma1 sigma2`` come off the operator's own spectrum,
    ``sigma1 = lambda_0 + lambda_1`` and ``sigma2 = lambda_1 + lambda_2``;
    ``eta`` and ``omega`` are solved at ``x^0`` and ``x^1``.  On ``x^k``
    the left side is read at ``x^(k+1)..x^(k-5)`` and the right at
    ``x^k..x^(k-3)``.  With ``x E_j = sum_(i <= j+1) Y_ij E_i``, the
    relation on ``E_j``, ``j <= K``, reads
    ``Y_ij f(lambda_i + lambda_j) = delta_ij (omega lambda_i + eta)``,
    ``f(s) = (s - sigma1)(s - sigma2)``.  On the family,
    ``lambda_(2k) = 4k`` and ``lambda_(2k+1) = -4k - 2 (alpha + beta + 2)``,
    so ``sigma1 = -2 (alpha + beta + 2)`` and ``sigma2 = sigma1 + 4``.  For
    ``i != j`` and ``alpha + beta > -2``, with ``s = lambda_i + lambda_j``:

    - ``i``, ``j`` even: ``s = 2 (i + j) >= 4 > sigma2 > sigma1``;
    - ``i``, ``j`` odd: ``s - sigma1 = -2 (alpha + beta + i + j) < 0``, as
      ``i + j >= 4``, so ``s < sigma1 < sigma2``;
    - ``i`` even, ``j`` odd: ``s - sigma1 = 2 (i - j + 1)`` and
      ``s - sigma2 = 2 (i - j - 1)``, zero only at ``j = i + 1`` and
      ``i = j + 1``.

    So ``f(lambda_i + lambda_j) = 0`` only when ``|i - j| = 1``, every other
    ``Y_ij`` with ``i != j`` is 0, and
    ``x E_n = E_(n+1) + b_n E_n + u_n E_(n-1)`` for ``n <= K``.

    *Recurrence.*  Write ``E_n = x^n + s_n x^(n-1) + t_n x^(n-2) + ...`` and
    ``beta_n``, ``delta_n`` for the coefficients of ``x^(n-1)`` and
    ``x^(n-2)`` in ``L x^n``.  ``L E_n = lambda_n E_n`` gives
    ``s_n = beta_n / (lambda_n - lambda_(n-1))`` and
    ``t_n = (delta_n + s_n beta_(n-1)) / (lambda_n - lambda_(n-2))``, and
    the recurrence at ``x^n`` and ``x^(n-1)`` gives ``b_n = s_n - s_(n+1)``
    and ``u_n = t_n - t_(n+1) - b_n s_n``, for ``n = 0..N``: integer pairs,
    cross-multiplied with the closed form's ``Fraction``s.  Where all of
    them agree, ``E_(n+1) = (x - b_n) E_n - u_n E_(n-1)`` is ``P_(n+1)``
    from ``E_0 = P_0 = 1`` up.

    The degree bounds: the spectrum and the band on ``0..K+1``, the relation
    on ``x^0..x^K`` and the pairs for ``n = 0..N``; ``K >= 1`` because
    ``sigma2`` reads ``lambda_2``.  The list holds every ``k <= K`` whose
    relation fails on ``x^k`` and every ``n <= N`` whose ``(b_n, u_n)``
    differ, ascending; neither raises.
    """
    K = max(N, 1)
    lams = _spectrum(op, K + 1)
    band = op.band(K + 1)
    d = _band_diagonal(band, lams)  # M lambda_k
    rows = band.rows
    sigma1, sigma2 = d[0] + d[1], d[1] + d[2]
    gamma, rho = sigma1 + sigma2, -sigma1 * sigma2  # M gamma and M^2 rho

    def left(k):  # M^2 times the left side on x^k, at x^(k+1), x^k, ..., x^(k-5)
        now, up = rows[k], rows[k + 1]
        out = [-rho, 0, 0, 0, 0, 0, 0]
        for i in range(4):
            # L X + 2 X L takes x^k to the sum of v x^(k+1-i), and L that to
            # L L X + 2 L X L; X L L is x times L of now[i] x^(k-i).  A
            # nonzero entry lies above x^0, so no row index is negative.
            v = up[i] + 2 * now[i]
            if v:
                for m, t in enumerate(rows[k + 1 - i]):
                    out[i + m] += v * t
            if now[i]:
                for m, t in enumerate(rows[k - i]):
                    out[i + m] += now[i] * t
            out[i] -= gamma * (up[i] + now[i])
        return out

    lefts = [left(k) for k in range(K + 1)]
    eta = lefts[0][1]  # M^2 eta, as L 1 = 0
    omega = lefts[1][1] - eta  # d_1 M omega
    bad = set()
    for k, lhs in enumerate(lefts):
        right = [0, d[1] * eta, 0, 0, 0, 0, 0]
        for i, t in enumerate(rows[k]):
            right[i + 1] += omega * t
        if any(d[1] * a != b for a, b in zip(lhs, right)):
            bad.add(k)

    # s_n and t_n as (numerator, denominator) pairs; s_0 = t_0 = t_1 = 0
    s = [(0, 1)] + [(rows[n][1], d[n] - d[n - 1]) for n in range(1, N + 2)]
    t = [(0, 1), (0, 1)] + [(rows[n][2] * sd + sn * rows[n - 1][1], sd * (d[n] - d[n - 2]))
                            for n, (sn, sd) in enumerate(s[2:], 2)]
    for n, (b, u) in enumerate(_coefficients(w, N + 1)[:N + 1]):
        (sn, sd), (sn1, sd1) = s[n], s[n + 1]
        bn, bd = sn * sd1 - sn1 * sd, sd * sd1
        same = bn * b.denominator == b.numerator * bd
        if n:
            (tn, td), (tn1, td1) = t[n], t[n + 1]
            un = (tn * td1 - tn1 * td) * bd * sd - bn * sn * td * td1
            same = same and un * u.denominator == u.numerator * td * td1 * bd * sd
        if not same:
            bad.add(n)
    return sorted(bad)


def certify(family: BigJacobiParams, N: int, order: int | None = None) -> tuple:
    """The five checks of ``family`` at degrees ``0..N``, as :class:`Check` records.

    ``eigen-residual``, ``orthogonality``, ``positivity``, ``symmetry`` and
    ``pearson``.  :func:`_band_proof` proves the operator's monic
    eigenpolynomials the ``P_n`` of the closed-form recurrence, and its
    ``(b_n, u_n)``, ``n <= N``, theirs, on one integer band to degree
    ``max(N, 1) + 1``, with no ``P_n`` built and no solve; a degree where
    it fails is named, and fails ``eigen-residual`` and ``positivity``.
    Positivity is Favard's theorem: ``h_0 > 0`` and every exact ``u_n > 0``
    make the functional positive definite, with that proof complete.  The
    float checks share one Gauss rule, of :func:`_gauss_order`'s order at
    x-degree ``2N`` (``N // 2 + 11`` by default, ``N // 2 + 1`` at least),
    decided before any work, and one node table, the :func:`_unit_values`
    ``q_0..q_N`` of ``P_0..P_N``.  The orthogonality figure is that of
    their Gram matrix, in its unit frame, where no normalization underflows
    at any ``N``; the symmetry figure is :func:`_symmetry`'s at
    ``top = min(N, 10)``, on :func:`symmetry_block`'s block, bit for bit;
    the Pearson figure, :func:`.weights.pearson_defect`, takes no power of
    the weight.  A float figure with nothing to measure, every rule weight
    or term 0.0, is ``inf`` and fails.  ``big_weight`` rejects parameters
    outside the family; inside it, ``tau0 = 0``, ``tau1 = 2`` and
    ``eta = -(alpha + beta + 1) < 1``, so no odd eigenvalue vanishes
    (``check_nondegenerate``), and ``alpha + beta > -2``, as the proof needs.
    """
    order = _gauss_order(2 * N, order)
    w = big_weight(family)
    op = build(big_operator(family))
    recurrence = recurrence_coefficients(w, N)
    bad = _band_proof(op, w, N)

    rule = quadrature_rule(w, order)
    frame = _unit_values(rule, N)
    g = _gram(rule, *frame, ())
    off = g.max_relative_off_diagonal()
    h0 = g.normalization(0)
    positivity = f"h0={h0:.3e}"
    if N >= 1:
        umin, nmin = min((u, n) for n, (_, u) in enumerate(recurrence) if n >= 1)
        positivity += f" min_u={float(umin):.3e} at n={nmin}"

    sym = _symmetry(rule, op, min(N, 10), frame)[1]
    pearson = pearson_defect(w, op)
    return (
        Check("eigen-residual", not bad, f"fails at degrees {bad}" if bad else "all exact"),
        Check("orthogonality", off <= ORTHOGONALITY_TOL,
              f"max_offdiag={off:.3e} tol={ORTHOGONALITY_TOL:.0e}"),
        Check("positivity", not bad and h0 > 0.0 and all(u > 0 for _, u in recurrence[1:]),
              positivity),
        Check("symmetry", sym <= SYMMETRY_TOL, f"max_residual={sym:.3e} tol={SYMMETRY_TOL:.0e}"),
        Check("pearson", pearson <= PEARSON_TOL,
              f"max_residual={pearson:.3e} tol={PEARSON_TOL:.0e}"),
    )


def symmetry_residual(w: WeightFunction, op, V: Polynomial, W: Polynomial,
                      order: int | None = None) -> float:
    """``<L V, W> - <V, L W>``, both at :func:`_gauss_order`'s order for the larger x-degree."""
    lv = op.apply(V)
    lw = op.apply(W)
    deg = max((lv.degree or 0) + (W.degree or 0), (V.degree or 0) + (lw.degree or 0))
    order = _gauss_order(deg, order)
    return inner_product(w, lv, W, order) - inner_product(w, V, lw, order)


def _recurrence(normal_form, N: int) -> list:
    """Closed-form ``(b_n, u_n)``, n = 0..N, with ``u_0 = None``.

    At ``d = 1``, ``b_n = 1 - A_n - C_n`` and ``u_n = A_{n-1} C_n``, with
    ``s = 2n + alpha + beta`` and
    ``A_n = (1 - c)(n + alpha + beta + 1)/(s + 2)``,
    ``C_n = (1 + c)(n + beta)/s`` for odd ``n``, and
    ``A_n = (1 + c)(n + alpha + 1)/(s + 2)``, ``C_n = (1 - c) n/s`` for even
    ``n``.  Stretching the support by ``d`` puts ``c/d`` for ``c`` and
    scales ``b_n`` by ``d`` and ``u_n`` by ``d^2``.  With ``alpha`` and
    ``beta`` over one denominator and ``c`` over its own, ``A_n`` and
    ``C_n`` are integer pairs, and each ``b_n`` and ``u_n`` is formed as one
    ``Fraction``.
    """
    alpha, beta, c, d = normal_form
    c = c / d
    m = -(alpha + beta) / 2
    if m.denominator == 1 and 1 <= m <= N + 1:
        raise DegenerateSpectrum(int(m), f"2n + alpha + beta vanishes at n = {m}")
    # alpha = a/q, beta = b/q; E (1 - c) = lo and E (1 + c) = hi
    q = math.lcm(alpha.denominator, beta.denominator)
    a, b = alpha.numerator * (q // alpha.denominator), beta.numerator * (q // beta.denominator)
    E = c.denominator
    lo, hi = E - c.numerator, E + c.numerator
    dd = d * d
    out = []
    for n in range(N + 1):
        s = 2 * n * q + a + b  # q (2n + alpha + beta)
        a_den = E * (s + 2 * q)
        if n % 2:
            a_num, c_num, c_den = lo * ((n + 1) * q + a + b), hi * (n * q + b), E * s
        elif n:
            a_num, c_num, c_den = hi * ((n + 1) * q + a), lo * n * q, E * s
        else:
            a_num, c_num, c_den = hi * (q + a), 0, 1
        b_n = Fraction(d.numerator * (a_den * c_den - a_num * c_den - c_num * a_den),
                       d.denominator * a_den * c_den)
        u_n = (Fraction(dd.numerator * a_prev * c_num, dd.denominator * a_prev_den * c_den)
               if n else None)
        out.append((b_n, u_n))
        a_prev, a_prev_den = a_num, a_den
    return out


class _BasisPolynomial(_IntegerPolynomial):
    """``P_k`` of the positive weights of normal form ``_normal_form``, which fixes every ``P_k``.

    Its form is ``f = (1, ..., 1, D)``, ``x = v``: the integer vector ``v``
    over one denominator ``D``.  The node table of such a weight takes it
    as ``P_k`` without expanding it.  :func:`basis_gram` needs no tag, but
    the public ``gram_matrix(w, orthogonal_polynomials(w, N))`` does: on
    untagged copies of the same ``P_k`` of (1, 1, 1/2) the expansion made
    it take 6.6 ms, 632 ms and 25.5 s at N = 40, 200 and 500, and 32 ms
    and 25.4 s at N = 40 and 200 on (-99/100, 5/2, 99999/100000); tagged,
    2.4-34 ms (in process, 2 vCPU x86-64).
    """

    __slots__ = ("_normal_form",)

    def __init__(self, f: tuple, x: tuple, normal_form: tuple):
        super().__init__(f, x)
        object.__setattr__(self, "_normal_form", normal_form)


def _coefficients(w: WeightFunction, n: int) -> tuple:
    """``w``'s closed-form ``(b_k, u_k)`` for at least k < n, grown on demand and kept on ``w``."""
    coefficients = w._coefficients or ()
    if len(coefficients) >= n:
        return coefficients
    coefficients = tuple(_recurrence(w.normal_form, n - 1))
    object.__setattr__(w, "_coefficients", coefficients)
    return coefficients


def _connection(w: WeightFunction, m: int) -> list:
    """The rows ``C[0..m]`` of ``x^k = sum_j C[k][j] P_j``, built afresh.

    ``x^(k+1) = sum_j C[k][j] x P_j`` and the recurrence
    ``x P_j = P_{j+1} + b_j P_j + u_j P_{j-1}`` give
    ``C[k+1][i] = C[k][i-1] + b_i C[k][i] + u_{i+1} C[k][i+1]``, shared by
    every monomial.  Each row is ``(D, v)``, ``C[k][j] = v[j] / D`` with
    content 1 and ``v[k] = D``: the next row is the integer combination over
    the lcm ``L`` of the denominators of ``b_0..b_k`` and ``u_1..u_k``,
    with denominator ``D L``, divided by its content.  ``L`` and the scaled
    ``L b_i`` and ``L u_i`` are carried from row to row, rescaled only when
    a new denominator grows ``L``.  ``m = -1`` gives none.
    """
    coefficients = _coefficients(w, m)
    rows = [(1, (1,))] if m >= 0 else []
    L, sb, su = 1, [], []  # L b_i and L u_i, i <= k
    for k in range(m):
        D, row = rows[k]
        b, u = coefficients[k]
        grown = math.lcm(L, b.denominator, u.denominator if k else 1)
        if grown != L:
            f, L = grown // L, grown
            sb, su = [f * t for t in sb], [f * t for t in su]
        sb.append(L // b.denominator * b.numerator)
        if k:
            su.append(L // u.denominator * u.numerator)
        nxt = [sb[0] * row[0] + (su[0] * row[1] if k else 0)]
        for i in range(1, k + 1):
            t = L * row[i - 1] + sb[i] * row[i]
            if i < k:
                t += su[i] * row[i + 1]
            nxt.append(t)
        nxt.append(L * row[k])
        g = math.gcd(*nxt)  # nxt[k + 1] = L D, so g divides the denominator
        rows.append((D * L // g, tuple(t // g for t in nxt)))
    return rows


def _basis(w: WeightFunction, n: int) -> list:
    """``P_0..P_n`` of ``w``, built afresh as :class:`_BasisPolynomial`.

    ``P_{k+1} = (x - b_k) P_k - u_k P_{k-1}`` runs fraction-free (after
    Bareiss, Math. Comp. 22, 1968): integer vectors over one common
    denominator, divided by their content each step.  Each ``P_k`` is
    handed out as that form, ``(1, ..., 1, D)`` and ``v``; its ``Fraction``
    map is built only if it is read.
    """
    coefficients = _coefficients(w, n)
    nf = w.normal_form
    polys = [_BasisPolynomial((1,), (1,), nf)]
    d1, v1 = 1, (1,)  # (D, v) of P_k; (d0, v0) is P_{k-1}'s from k = 1 on
    for k in range(n):
        b, u = coefficients[k]
        # den P_{k+1} = (den/d1) x v1 - (den b/d1) v1 - (den u/d0) v0, all integral
        den = b.denominator * d1
        if k:
            den = math.lcm(den, u.denominator * d0)
        sx, sb = den // d1, den // (b.denominator * d1) * b.numerator
        v = [0] + [sx * t for t in v1]
        for j, t in enumerate(v1):
            v[j] -= sb * t
        if k:
            su = den // (u.denominator * d0) * u.numerator
            for j, t in enumerate(v0):
                v[j] -= su * t
        g = math.gcd(*v)  # v[k + 1] = den, so g divides den
        d0, v0, d1, v1 = d1, v1, den // g, tuple(t // g for t in v)
        polys.append(_BasisPolynomial((1,) * (k + 1) + (d1,), v1, nf))
    return polys


def orthogonal_polynomials(w: WeightFunction, n: int) -> list:
    """Exact monic ``P_0..P_n`` orthogonal under a positive weight.

    For the family weights these are the monic eigenpolynomials of
    ``big_operator((alpha, beta, c))``.  They are built afresh from the
    weight's closed-form recurrence, as :class:`_BasisPolynomial`.
    """
    _require_positive_family(w)
    if n < 0:
        raise ValueError("n must be >= 0")
    return _basis(w, n)


def recurrence_coefficients(w: WeightFunction, N: int) -> list:
    """Three-term coefficients ``x P_n = P_{n+1} + b_n P_n + u_n P_{n-1}``, n = 0..N.

    Exact ``Fraction``s from the closed form, with ``u_0 = None``.  A weight
    whose normal form has ``d != 1`` is the ``d = 1`` weight stretched by
    ``d``: ``b_n`` scales by ``d`` and ``u_n`` by ``d^2``.  By Favard's
    theorem ``u_n > 0`` for all ``n`` certifies a positive-definite
    functional.
    """
    _require_positive_family(w)
    if N < 0:
        raise ValueError("N must be >= 0")
    return list(_coefficients(w, N + 1)[:N + 1])


def connection_coefficients(w: WeightFunction, m: int) -> list:
    """Exact rows ``C[0..m]`` of ``x^k = sum_j C[k][j] P_j``, j = 0..k.

    ``P_j`` are the monic orthogonal polynomials of the positive weight
    ``w`` (:func:`orthogonal_polynomials`); the rows are built afresh from
    its closed-form recurrence as integer forms, each read out as the
    caller's own list of ``Fraction``s.
    """
    _require_positive_family(w)
    if m < 0:
        raise ValueError("m must be >= 0")
    return [[Fraction(t, D) for t in v] for D, v in _connection(w, m)]

