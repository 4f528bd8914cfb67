"""First-order differential-reflection operators acting on polynomials.

The operators have the normalized form

    L = F(x) (I - R) + G0(x) d/dx + G1(x) d/dx R,

with R the reflection ``(R f)(x) = f(-x)`` and coefficient functions drawn
from the nine-parameter Laurent family

    G0 = mu/x^2 + nu0/x + rho0 + tau0 x,
    G1 = -mu/x^2 + nu1/x + rho1 + tau1 x,
    F  = -mu/x^3 + (nu1 - nu0)/(2 x^2) + xi/x + eta.

Operators of this shape map polynomials to polynomials of the same degree:
the negative powers cancel identically, and the leading coefficient of
``L x^n`` is ``(tau0 + tau1) n`` for even ``n`` and ``2 eta + (tau0 - tau1) n``
for odd ``n``.  Everything here is computed in exact rational arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .errors import InternalConsistencyError, NegativePowerResidue
from .laurent import LaurentPoly, Polynomial, Rational, _wrap, as_rational

PARAM_NAMES = ("mu", "nu0", "nu1", "rho0", "rho1", "tau0", "tau1", "xi", "eta")


@dataclass(frozen=True)
class OperatorParams:
    """The nine rational parameters of the coefficient family."""

    mu: Rational = Fraction(0)
    nu0: Rational = Fraction(0)
    nu1: Rational = Fraction(0)
    rho0: Rational = Fraction(0)
    rho1: Rational = Fraction(0)
    tau0: Rational = Fraction(0)
    tau1: Rational = Fraction(0)
    xi: Rational = Fraction(0)
    eta: Rational = Fraction(0)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, as_rational(getattr(self, f.name)))

    def astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in PARAM_NAMES)

    def to_json_obj(self) -> dict:
        return {
            name: f"{getattr(self, name).numerator}/{getattr(self, name).denominator}"
            for name in PARAM_NAMES
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "OperatorParams":
        return cls(**{name: Fraction(obj[name]) for name in PARAM_NAMES})

    @classmethod
    def from_json(cls, text: str) -> "OperatorParams":
        return cls.from_json_obj(json.loads(text))


@dataclass(frozen=True)
class OperatorBand:
    """The operator on ``1, x, ..., x^n`` as integers over one denominator.

    ``rows[k]`` holds ``scale * [L x^k]`` at ``x^k``, ``x^(k-1)``,
    ``x^(k-2)`` and ``x^(k-3)``, with 0 below ``x^0``.  ``scale`` is the
    positive lcm of the denominators of every column, so the diagonal
    ``rows[k][0]`` is ``scale * lambda_k``.  The entries are read off the
    coefficient functions, never off the parameter record, so the diagonal
    stays an independent check on the eigenvalue law.
    """

    scale: int
    rows: tuple

    @property
    def degree(self) -> int:
        return len(self.rows) - 1


@dataclass(frozen=True)
class DunklOperator:
    """The triple (F, G0, G1) plus the parameter record it was built from.

    The coefficient functions and parameters never change, and ``apply``
    is a pure function.  The one piece of state is the cached
    :class:`OperatorBand`.  :meth:`band` builds it whole from ``F``, ``G0``
    and ``G1`` for the degree asked and publishes it with one attribute
    store, so two threads building it at once only repeat work: both bands
    are correct, and each caller uses the one it got back.
    """

    F: LaurentPoly
    G0: LaurentPoly
    G1: LaurentPoly
    params: OperatorParams | None = None
    _band: OperatorBand | None = field(default=None, init=False, repr=False, compare=False)

    def apply(self, p: LaurentPoly) -> Polynomial:
        """Apply the operator to a polynomial.

        Computes ``F*(p - p(-x)) + G0*p' + G1*(p(-x))'`` where the last
        term differentiates the reflected polynomial.  Raises
        :class:`NegativePowerResidue` if negative powers survive, which
        signals coefficient functions outside the classified family.
        """
        if not p.is_polynomial:
            raise ValueError("apply expects a genuine polynomial (valuation >= 0)")
        out = apply_raw(self.F, -self.F, self.G0, self.G1, p)
        if not out.is_polynomial:
            raise NegativePowerResidue(
                f"operator application left negative powers (valuation {out.valuation})"
            )
        return Polynomial.from_laurent(out)

    def band(self, n: int) -> OperatorBand:
        """The integer band on degrees ``0..n`` or more, read off ``F``, ``G0``, ``G1``.

        The cached band is returned when it reaches ``n``; otherwise a band
        on ``0..n`` is built whole and cached.  Column ``k`` is ``L x^k``
        from the linear forms of :func:`_column_forms`, a few integer
        operations per column; ``apply`` stays the independent Laurent path.
        As ``apply`` would, a negative power in any column raises
        :class:`NegativePowerResidue`; after that, a term outside
        ``x^(k-3)..x^k`` raises :class:`InternalConsistencyError`.
        """
        band = self._band
        if band is not None and band.degree >= n:
            return band
        S, forms = _column_forms(self.F, self.G0, self.G1)
        columns = []
        for k in range(n + 1):
            col = [(k + s, a + b * k) for s, a, b in forms[k & 1]]
            columns.append((k, [(e, v) for e, v in col if v]))
        for k, col in columns:
            if col and col[-1][0] < 0:
                raise NegativePowerResidue(
                    f"operator application left negative powers (valuation {col[-1][0]})"
                )
        for k, col in columns:
            outside = [e for e, _ in col if not k - 3 <= e <= k]
            if outside:
                raise InternalConsistencyError(
                    f"L x^{k} has a term at x^{outside[0]}, outside the band x^{k - 3}..x^{k}"
                )
        scale = math.lcm(*(S // math.gcd(v, S) for _, col in columns for _, v in col))
        rows = []
        for k, col in columns:
            row = [0, 0, 0, 0]
            for e, v in col:
                row[k - e] = v * scale // S
            rows.append(tuple(row))
        band = OperatorBand(scale=scale, rows=tuple(rows))
        object.__setattr__(self, "_band", band)
        return band


def _column_forms(F: LaurentPoly, G0: LaurentPoly, G1: LaurentPoly) -> tuple:
    """``L x^k`` as integer linear forms in ``k``, one list per parity of ``k``.

    On a monomial, ``L x^k = (1 - (-1)^k) F x^k + k (G0 + (-1)^k G1) x^(k-1)``,
    so the coefficient of ``x^(k+s)`` is ``(A_s + B_s k) / S`` with
    ``A_s = S (1 - (-1)^k) [x^s] F`` and ``B_s = S ([x^(s+1)] G0 + (-1)^k [x^(s+1)] G1)``.
    ``S`` is the lcm of the denominators of ``F``, ``G0`` and ``G1``: each
    is scaled once to integers, and ``A_s`` and ``B_s`` are formed as ints.
    Any common multiple serves the band, whose scale is the lcm of the
    reduced denominators of ``(A_s + B_s k) / S``.  Returns ``S`` and, for
    even then odd ``k``, the triples ``(s, A_s, B_s)`` that are not both
    zero, with ``s`` descending.
    """
    S = math.lcm(*(v.denominator for p in (F, G0, G1) for v in p._terms.values()))
    f, g0, g1 = ({k: v.numerator * (S // v.denominator) for k, v in p._terms.items()}
                 for p in (F, G0, G1))
    shifts = sorted(set(f) | {e - 1 for e in g0} | {e - 1 for e in g1}, reverse=True)
    forms = [[(s, (1 - sign) * f.get(s, 0), g0.get(s + 1, 0) + sign * g1.get(s + 1, 0))
              for s in shifts] for sign in (1, -1)]
    return S, [[(s, a, b) for s, a, b in parity if a or b] for parity in forms]


def apply_raw(F0: LaurentPoly, F1: LaurentPoly, G0: LaurentPoly,
              G1: LaurentPoly, p: LaurentPoly) -> LaurentPoly:
    """Apply the un-normalized four-function form F0 + F1 R + G0 d/dx + G1 d/dx R.

    No cancellation checks: the result may contain negative powers.  Used
    directly by tests that probe out-of-family coefficient choices.
    """
    rp = p.reflect()
    return F0 * p + F1 * rp + G0 * p.differentiate() + G1 * rp.differentiate()


def build(params: OperatorParams) -> DunklOperator:
    """Construct the operator with the closed-form coefficient functions."""
    mu, nu0, nu1, rho0, rho1, tau0, tau1, xi, eta = params.astuple()
    # every parameter is a Fraction already: drop the zeros, convert nothing
    g0 = _wrap({-2: mu, -1: nu0, 0: rho0, 1: tau0})
    g1 = _wrap({-2: -mu, -1: nu1, 0: rho1, 1: tau1})
    f = _wrap({-3: -mu, -2: (nu1 - nu0) / 2, -1: xi, 0: eta})
    return DunklOperator(F=f, G0=g0, G1=g1, params=params)


def eigenvalue(params: OperatorParams, n: int) -> Fraction:
    """Eigenvalue attached to degree ``n``: parity-split linear law."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 0:
        return (params.tau0 + params.tau1) * n
    return 2 * params.eta + (params.tau0 - params.tau1) * n


def check_nondegenerate(params: OperatorParams, N: int) -> bool:
    """Exact test of ``tau1 != +-tau0`` and of nonzero odd eigenvalues up to degree ``N``.

    In constant time: the odd eigenvalue ``2 eta + (2k+1)(tau0 - tau1)``
    vanishes for some k = 0..N exactly when ``-2 eta / (tau0 - tau1)`` is an
    odd integer from 1 to ``2N + 1``.  Even/odd collisions pass, as
    ``lambda_1 = lambda_2 = 2`` at ``(tau0, tau1, eta) = (1, 0, 1/2)``, N = 2;
    :func:`.eigen.eigen_sequence` raises ``DegenerateSpectrum`` on them.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if params.tau1 == params.tau0 or params.tau1 == -params.tau0:
        return False
    x = -2 * params.eta / (params.tau0 - params.tau1)
    return not (x.denominator == 1 and x.numerator % 2 == 1 and 1 <= x <= 2 * N + 1)


@dataclass(frozen=True)
class DegreeConditionReport:
    """Outcome of the three low-degree preservation identities."""

    q1: LaurentPoly
    q2: LaurentPoly
    q3: LaurentPoly
    ok1: bool
    ok2: bool
    ok3: bool

    @property
    def passed(self) -> bool:
        return self.ok1 and self.ok2 and self.ok3


def degree_conditions(F: LaurentPoly, G0: LaurentPoly, G1: LaurentPoly) -> DegreeConditionReport:
    """Check that L maps x, x^2, x^3 to polynomials of degree <= 1, 2, 3.

    The three combinations below are ``L x``, ``L x^2`` and ``L x^3`` for
    the normalized operator; each must be a polynomial of the indicated
    degree for the operator to preserve every degree.
    """
    x = LaurentPoly.x()
    q1 = 2 * x * F + G0 - G1
    q2 = 2 * x * (G0 + G1)
    q3 = 2 * x**3 * F + 3 * x**2 * (G0 - G1)

    def ok(q: LaurentPoly, bound: int) -> bool:
        return q.is_polynomial and (q.is_zero or q.degree <= bound)

    return DegreeConditionReport(q1, q2, q3, ok(q1, 1), ok(q2, 2), ok(q3, 3))


def verify_degree_conditions(op: DunklOperator) -> DegreeConditionReport:
    return degree_conditions(op.F, op.G0, op.G1)


def subleading_coefficients(op: DunklOperator, n: int) -> dict:
    """All below-leading coefficients of ``L x^n``, keyed by exponent drop.

    Returns ``{i: coefficient of x**(n-i)}`` for i >= 1, read off column
    ``n`` of the operator's band.  The band itself checks that only the
    drops 1, 2, 3 occur, and raises as :meth:`DunklOperator.band` does.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    band = op.band(n)
    return {i: Fraction(t, band.scale) for i, t in enumerate(band.rows[n]) if i and t}


def kappa_coefficients(op: DunklOperator, n: int) -> tuple:
    """The coefficients of x^(n-1), x^(n-2), x^(n-3) in ``L x^n``."""
    sub = subleading_coefficients(op, n)
    return (sub.get(1, Fraction(0)), sub.get(2, Fraction(0)), sub.get(3, Fraction(0)))
