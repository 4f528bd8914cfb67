"""Weight functions, the symmetrizability classifier, and Pearson identities.

A symmetrizable operator (no plain-derivative term) admits a symmetry
factor ``w`` determined by the pair of functional equations

    w(x) G1(x) = w(-x) G1(-x),
    w(-x) F(-x) - w(x) F(x) = d/dx [ w(x) G1(x) ].

Every solution factors as ``w(x) = pi(x) * theta(x)^s * W(x^2)`` with an
affine-or-quadratic prefactor ``pi`` fixed by the first equation and ``W``
solving a first-order Pearson-type ODE from the second.  This module
catalogs the closed forms case by case over the parameter space of the
coefficient family, attaches the two positive-weight families (supported
on ``[-1,1]`` and on ``[-1,-c] union [c,1]``), and flags every other case
as sign-indefinite on symmetric supports.  ``pearson_defect`` is the float
check of the pair that ``certify`` reports, over the sample
``pearson_points``.

``w(x)`` evaluates one Python float.  Everything else reads the integer
kernel of :mod:`.laurent` at a point's exact value and rounds once; the
Pearson sweep takes no power of the weight.  Nothing here loads numpy.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Optional

from .dunkl import DunklOperator, OperatorParams
from .errors import (
    InternalConsistencyError,
    NotCanonicalizable,
    NotSymmetrizableError,
    ParameterRange,
    UnsupportedPoint,
    UnsupportedWeight,
)
from .laurent import (Rational, _binary, _homogeneous, _laurent_form, _numerators, _rounded,
                      as_rational)


class CaseTag(str, enum.Enum):
    GENERIC_BIG = "GenericBig"
    LITTLE_CASE_I = "LittleCase_i"
    CASE_II = "Case_ii"
    CASE_III = "Case_iii"
    CASE_IV = "Case_iv"
    CASE_V = "Case_v"
    NOT_SYMMETRIZABLE = "NotSymmetrizable"
    DEGENERATE_SPECTRUM = "DegenerateSpectrum"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class BigJacobiParams:
    """Family parameters (alpha, beta, c); c = 0 denotes the one-interval family."""

    alpha: Rational
    beta: Rational
    c: Rational = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_rational(self.alpha))
        object.__setattr__(self, "beta", as_rational(self.beta))
        object.__setattr__(self, "c", as_rational(self.c))


@dataclass(frozen=True)
class AffineFactor:
    """Monic affine factor ``(x - root) ** multiplicity``."""

    root: Rational
    multiplicity: int


@dataclass(frozen=True)
class AlgebraicFactor:
    """Quadratic base ``(a0 + a2 x^2) ** exponent`` with rational exponent."""

    a0: Rational
    a2: Rational
    exponent: Rational


@dataclass(frozen=True)
class ExponentialFactor:
    """``exp(coefficient / (x^2 - shift))`` or ``exp(coefficient * x^2)``."""

    kind: str  # "inv_quadratic" | "gauss"
    coefficient: Rational
    shift: Rational = Fraction(0)


@dataclass(frozen=True)
class WeightFunction:
    """Symbolic weight descriptor, evaluable pointwise with analytic derivative.

    ``normal_form`` is ``(alpha, beta, c, d)`` for the two positive families
    and ``None`` otherwise: the weight is
    ``sign(x) (x + d)(x - c) (d^2 - x^2)^((alpha-1)/2) (x^2 - c^2)^((beta-1)/2)``,
    and ``c = 0`` is the one-interval family
    ``(x + d) |x|^beta (d^2 - x^2)^((alpha-1)/2)`` on ``[-|d|, |d|]``.
    ``constant`` is the arbitrary overall normalization.  For the positive
    families it is ``sign(d)`` when the support is nonempty, which makes the
    weight positive there, and ``1`` otherwise; the other cases use ``1``.

    The descriptor never changes, and evaluation is a pure function.  The
    state is two caches, both left out of equality, hashing and ``repr``,
    so two equal weights built separately share neither.  One is the
    descriptor rounded to float64, built at the first evaluation.  The
    other is a positive weight's closed-form recurrence ``(b_n, u_n)``, a
    tuple of ``Fraction`` pairs that :mod:`.quadrature` grows on demand;
    the basis, the connection rows and the node table each read it again,
    and none of them is kept.  Each cache is published with one store, so
    two threads building it at once only repeat work: both results are
    correct, and each caller uses the one it got back.
    """

    family: str  # "big" | "little" | "case_ii" | "case_iii" | "case_iv" | "case_v"
    sign_factor: bool
    affine_factors: tuple
    abs_power: Rational
    algebraic_factors: tuple
    exponential_factor: Optional[ExponentialFactor]
    support: tuple
    constant: Rational = Fraction(1)
    normal_form: Optional[tuple] = None
    _coefficients: Optional[tuple] = field(default=None, init=False, repr=False,
                                           compare=False)
    _floats: Optional[_FloatWeight] = field(default=None, init=False, repr=False,
                                            compare=False)

    # -- evaluation -------------------------------------------------------

    def float_form(self) -> _FloatWeight:
        """The descriptor with every rational rounded to float64 once, cached."""
        floats = self._floats
        if floats is None:
            floats = _FloatWeight(self)
            object.__setattr__(self, "_floats", floats)
        return floats

    def __call__(self, x) -> float:
        return self.float_form().value(float(x))

    def log_derivative(self, x) -> float:
        """``w'(x)/w(x)`` at the exact binary value of ``float(x)``, rounded once.

        Formed in ints from :func:`_weight_forms`; ``ZeroDivisionError`` at a
        zero or pole of a factor, ``ValueError`` at a non-finite ``x``.
        """
        P, Q = _binary(x)
        (t, _, _), (b, _, _) = _numerators(
            [_homogeneous(form, Q) for form in _weight_forms(self)[1:]], P, P * P)
        return _rounded(t, b)

    # -- support ------------------------------------------------------------

    def contains_interior(self, x) -> bool:
        xf = float(x)
        return any(float(lo) < xf < float(hi) for lo, hi in self.support)

    def interior_grid(self, per_interval: int, eps: float = 1e-6) -> list:
        """Evenly spaced interior points, ``eps`` away from the endpoints (the midpoint if one)."""
        points = []
        for lo, hi in self.support:
            a, b = float(lo) + eps, float(hi) - eps
            step = (b - a) / max(per_interval - 1, 1)
            points.extend([(a + b) / 2] if per_interval == 1 else
                          [a + i * step for i in range(per_interval)])
        return points

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "constant": str(self.constant),
            "sign_factor": self.sign_factor,
            "affine_factors": [
                {"root": str(f.root), "multiplicity": f.multiplicity}
                for f in self.affine_factors
            ],
            "abs_power": str(self.abs_power),
            "algebraic_factors": [
                {"a0": str(f.a0), "a2": str(f.a2), "exponent": str(f.exponent)}
                for f in self.algebraic_factors
            ],
            "exponential_factor": None
            if self.exponential_factor is None
            else {
                "kind": self.exponential_factor.kind,
                "coefficient": str(self.exponential_factor.coefficient),
                "shift": str(self.exponential_factor.shift),
            },
            "support": [[str(lo), str(hi)] for lo, hi in self.support],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


def _power(base: float, exponent) -> float:
    """``base ** exponent``, or an infinity of its sign where that leaves float range."""
    try:
        return base**exponent
    except OverflowError:
        return -math.inf if base < 0.0 and exponent % 2 else math.inf


class _FloatWeight:
    """A weight descriptor with every rational rounded to float64 once, evaluated at one float."""

    __slots__ = ("constant", "sign_factor", "affine", "abs_power", "algebraic",
                 "exponential")

    def __init__(self, w: WeightFunction):
        self.constant = float(w.constant)
        self.sign_factor = w.sign_factor
        self.affine = tuple((float(f.root), f.multiplicity) for f in w.affine_factors)
        self.abs_power = float(w.abs_power)
        # (a0, a2, exponent) in floats, plus the exact exponent for negative bases
        self.algebraic = tuple((float(f.a0), float(f.a2), float(f.exponent), f.exponent)
                               for f in w.algebraic_factors)
        fac = w.exponential_factor
        self.exponential = (None if fac is None else
                            (fac.kind == "gauss", float(fac.coefficient), float(fac.shift)))

    def value(self, xf: float) -> float:
        """The weight at one point; a factor beyond float range is an infinity, as at a pole."""
        value = self.constant
        if self.sign_factor:
            value *= math.copysign(1.0, xf) if xf != 0.0 else 0.0
        for root, multiplicity in self.affine:
            value *= _power(xf - root, multiplicity)
        p = self.abs_power
        if p != 0.0:
            if xf == 0.0 and p < 0.0:
                return math.inf
            value *= _power(abs(xf), p)
        for a0, a2, ef, e in self.algebraic:
            base = a0 + a2 * xf * xf
            if base > 0.0:
                value *= _power(base, ef)
            elif base == 0.0:
                if ef > 0.0:
                    value = 0.0
                elif ef < 0.0:
                    return math.inf if value >= 0 else -math.inf
            elif e.denominator == 1:
                value *= _power(base, int(e))
            else:
                raise UnsupportedPoint(
                    f"x={xf} is outside the natural domain (negative base to "
                    f"fractional power {e})"
                )
        if self.exponential is not None:
            gauss, coefficient, shift = self.exponential
            if gauss:
                arg = coefficient * xf * xf
            else:
                denom = xf * xf - shift
                if denom == 0.0:
                    raise UnsupportedPoint("x is a singular point of the exponential factor")
                arg = coefficient / denom
            try:
                value *= math.exp(arg)
            except OverflowError:  # beyond float range, as at a pole
                return math.inf if value >= 0 else -math.inf
        return value


@dataclass(frozen=True)
class CanonicalForm:
    """Scaled parameters plus the operator/variable scales that produce them."""

    params: OperatorParams
    kappa0: Rational
    kappa1: Rational


@dataclass(frozen=True)
class ClassificationVerdict:
    case_tag: CaseTag
    weight: Optional[WeightFunction]
    positive_on_symmetric_support: bool
    notes: str
    canonical: Optional[CanonicalForm] = None

    def summary_line(self) -> str:
        parts = [
            str(self.case_tag),
            f"positive={'true' if self.positive_on_symmetric_support else 'false'}",
        ]
        if self.canonical is not None:
            c = self.canonical
            parts.append(f"kappa0={c.kappa0}")
            parts.append(f"kappa1={c.kappa1}")
            for name in ("nu1", "rho1", "tau1", "xi", "eta"):
                parts.append(f"{name}={getattr(c.params, name)}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------


def big_operator(p: BigJacobiParams) -> OperatorParams:
    """Operator parameters of the two-interval family (c = 0: one interval).

    The coefficient functions come out as ``G1 = 2(x-1)(x+c)/x`` and
    ``F = -c/x^2 + (beta - alpha c)/x - alpha - beta - 1``.
    """
    a, b, c = p.alpha, p.beta, p.c
    return OperatorParams(
        nu1=-2 * c,
        rho1=2 * (c - 1),
        tau1=Fraction(2),
        xi=b - a * c,
        eta=-(a + b + 1),
    )


def _positive_family_weight(alpha, beta, c, d) -> WeightFunction:
    """The weight of normal form ``(alpha, beta, c, d)``; see :class:`WeightFunction`.

    The support is ``[-|d|, -|c|] union [|c|, |d|]`` when ``0 < c/d < 1``,
    ``[-|d|, |d|]`` when ``c = 0`` and empty otherwise.
    """
    s = abs(d)
    outer = AlgebraicFactor(d * d, Fraction(-1), (alpha - 1) / 2)
    if c == 0:  # sign(x) (x - 0) (x^2)^((beta-1)/2) is |x|^beta
        shape = dict(family="little", sign_factor=False, abs_power=beta,
                     affine_factors=(AffineFactor(-d, 1),),
                     algebraic_factors=(outer,))
        support = ((-s, s),)
    else:
        shape = dict(family="big", sign_factor=True, abs_power=Fraction(0),
                     affine_factors=(AffineFactor(-d, 1), AffineFactor(c, 1)),
                     algebraic_factors=(outer, AlgebraicFactor(-c * c, Fraction(1),
                                                               (beta - 1) / 2)))
        support = ((-s, -abs(c)), (abs(c), s)) if 0 < c / d < 1 else ()
    # On the support (x + d)(x - c) sign(x) has the sign of d.
    constant = Fraction(-1 if support and d < 0 else 1)
    return WeightFunction(exponential_factor=None, support=support, constant=constant,
                          normal_form=(alpha, beta, c, d), **shape)


def big_weight(p: BigJacobiParams) -> WeightFunction:
    """Positive weight on ``[-1,-c] union [c,1]`` for alpha, beta > -1, 0 <= c < 1.

    At ``c = 0`` this is the one-interval weight of :func:`little_weight`.
    """
    if p.alpha <= -1 or p.beta <= -1:
        raise ParameterRange("alpha and beta must each exceed -1")
    if not (0 <= p.c < 1):
        raise ParameterRange("c must lie in [0, 1)")
    return _positive_family_weight(p.alpha, p.beta, p.c, Fraction(1))


def little_weight(alpha, beta) -> WeightFunction:
    """Positive weight ``(x+1)(1-x^2)^((alpha-1)/2) |x|^beta`` on ``[-1,1]``."""
    return big_weight(BigJacobiParams(alpha, beta))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _case_of(params: OperatorParams) -> CaseTag:
    if params.mu or params.nu0 or params.rho0 or params.tau0:
        return CaseTag.NOT_SYMMETRIZABLE
    nu1, rho1, tau1 = params.nu1, params.rho1, params.tau1
    if tau1:
        if nu1:
            disc = rho1 * rho1 - 4 * tau1 * nu1
            return CaseTag.CASE_III if disc == 0 else CaseTag.GENERIC_BIG
        return CaseTag.LITTLE_CASE_I if rho1 else CaseTag.CASE_II
    if nu1:
        return CaseTag.CASE_IV if rho1 else CaseTag.CASE_V
    # G1 constant or zero: every even eigenvalue vanishes.
    return CaseTag.DEGENERATE_SPECTRUM


def _rational_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def scale_params(params: OperatorParams, kappa0, kappa1) -> OperatorParams:
    """Parameters of ``kappa0 * S L S^{-1}`` where ``(S f)(x) = f(kappa1 x)``.

    The coefficient family is closed under this group: the built operator of
    the result equals ``kappa0 * F(kappa1 x)`` etc. exactly.
    """
    k0, k1 = as_rational(kappa0), as_rational(kappa1)
    if not k0 or not k1:
        raise ValueError("kappa0 and kappa1 must be nonzero")
    return OperatorParams(
        mu=k0 * params.mu / k1**3,
        nu0=k0 * params.nu0 / k1**2,
        nu1=k0 * params.nu1 / k1**2,
        rho0=k0 * params.rho0 / k1,
        rho1=k0 * params.rho1 / k1,
        tau0=k0 * params.tau0,
        tau1=k0 * params.tau1,
        xi=k0 * params.xi / k1,
        eta=k0 * params.eta,
    )


def _g1_zeros(params: OperatorParams):
    """Rational zeros of x*G1 = tau1 x^2 + rho1 x + nu1 (tau1, nu1 != 0)."""
    disc = params.rho1 * params.rho1 - 4 * params.tau1 * params.nu1
    root = _rational_sqrt(disc)
    if root is None:
        raise NotCanonicalizable(
            "zeros of x*G1 are irrational or complex; the exact path cannot scale them"
        )
    z1 = (-params.rho1 + root) / (2 * params.tau1)
    z2 = (-params.rho1 - root) / (2 * params.tau1)
    return z1, z2


def canonicalize(params: OperatorParams):
    """Scale a generic symmetrizable operator to the reference quadratic form.

    Returns a :class:`CanonicalForm` whose parameters have ``tau1 = 2`` and
    one zero of ``x G1`` at 1 (the zero of larger magnitude is sent there,
    so the remaining zero ``-c`` has ``|c| <= 1``).  Raises
    :class:`NotCanonicalizable` for coinciding zeros, ``tau1 = 0``, or
    irrational zeros.
    """
    tag = _case_of(params)
    if tag is not CaseTag.GENERIC_BIG:
        raise NotCanonicalizable(f"case {tag} has no generic canonical form")
    return _scale_to_reference(params)


def _scale_to_reference(params: OperatorParams) -> CanonicalForm:
    """:func:`canonicalize` without the case check.

    With ``nu1 = 0`` (the one-interval case) the zeros of ``x G1`` are 0 and
    ``-rho1/tau1``, so the latter goes to 1 and ``c = 0``.
    """
    # The zero of larger magnitude, the positive one on a tie.
    d = max(_g1_zeros(params), key=lambda z: (abs(z), z))
    kappa0 = 2 / params.tau1
    return CanonicalForm(params=scale_params(params, kappa0, d), kappa0=kappa0, kappa1=d)


def _recovered_big_exponents(scaled: OperatorParams):
    """(alpha, beta, c) read off a canonical generic parameter set."""
    c = -scaled.nu1 / 2
    xi_t, eta_t = scaled.xi, scaled.eta
    alpha = -(1 + eta_t + xi_t) / (1 + c)
    beta = -1 - eta_t - alpha
    return alpha, beta, c


# ---------------------------------------------------------------------------
# Pearson solutions per case (weights in the original variables)
# ---------------------------------------------------------------------------


def _pearson_positive(params: OperatorParams):
    """GenericBig and LittleCase_i: the normal form read off the reference scaling."""
    form = _scale_to_reference(params)
    alpha, beta, cprime = _recovered_big_exponents(form.params)
    d = form.kappa1
    w = _positive_family_weight(alpha, beta, cprime * d, d)
    return w, bool(w.support) and alpha > -1 and beta > -1, form


def _pearson_case_ii(params: OperatorParams):
    kappa0 = 2 / params.tau1
    scaled = scale_params(params, kappa0, Fraction(1))
    form = CanonicalForm(params=scaled, kappa0=kappa0, kappa1=Fraction(1))
    eta_t = scaled.eta
    w = WeightFunction(
        family="case_ii",
        sign_factor=True,
        affine_factors=(),
        abs_power=-(eta_t + 1),
        algebraic_factors=(),
        exponential_factor=None,
        support=((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1))),
    )
    return w, False, form


def _pearson_case_iii(params: OperatorParams):
    z = -params.rho1 / (2 * params.tau1)
    kappa0 = 2 / params.tau1
    scaled = scale_params(params, kappa0, z)
    form = CanonicalForm(params=scaled, kappa0=kappa0, kappa1=z)
    a_c, b_c = scaled.xi, scaled.eta
    s = abs(z)
    w = WeightFunction(
        family="case_iii",
        sign_factor=True,
        affine_factors=(AffineFactor(-z, 2),),
        abs_power=Fraction(0),
        algebraic_factors=(AlgebraicFactor(-z * z, Fraction(1), -(b_c + 3) / 2),),
        exponential_factor=ExponentialFactor(
            kind="inv_quadratic", coefficient=(a_c + b_c + 1) * z * z, shift=z * z
        ),
        support=((-2 * s, -s), (s, 2 * s)),
    )
    return w, False, form


def _pearson_case_iv(params: OperatorParams):
    kappa1 = -params.nu1 / params.rho1
    kappa0 = 2 * kappa1 / params.rho1
    scaled = scale_params(params, kappa0, kappa1)
    form = CanonicalForm(params=scaled, kappa0=kappa0, kappa1=kappa1)
    alpha = -scaled.xi
    beta = -scaled.eta - 1
    s = abs(kappa1)
    w = WeightFunction(
        family="case_iv",
        sign_factor=True,
        affine_factors=(AffineFactor(-kappa1, 1),),
        abs_power=Fraction(0),
        algebraic_factors=(
            AlgebraicFactor(kappa1 * kappa1, Fraction(-1), (alpha + beta) / 2),
        ),
        exponential_factor=None,
        support=((-s, s),),
    )
    return w, False, form


def _pearson_case_v(params: OperatorParams):
    kappa0 = -2 / params.nu1
    scaled = scale_params(params, kappa0, Fraction(1))
    form = CanonicalForm(params=scaled, kappa0=kappa0, kappa1=Fraction(1))
    beta = -scaled.eta
    w = WeightFunction(
        family="case_v",
        sign_factor=True,
        affine_factors=(),
        abs_power=Fraction(0),
        algebraic_factors=(),
        exponential_factor=ExponentialFactor(kind="gauss", coefficient=-beta / 2),
        support=((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1))),
    )
    return w, False, form


_PEARSON_SOLVERS = {
    CaseTag.GENERIC_BIG: _pearson_positive,
    CaseTag.LITTLE_CASE_I: _pearson_positive,
    CaseTag.CASE_II: _pearson_case_ii,
    CaseTag.CASE_III: _pearson_case_iii,
    CaseTag.CASE_IV: _pearson_case_iv,
    CaseTag.CASE_V: _pearson_case_v,
}


def solve_pearson(op: DunklOperator) -> WeightFunction:
    """Symmetry factor of a symmetrizable operator, in its own variables.

    The weight is normalized so the positive representative is returned
    whenever the case admits one; any nonzero multiple solves the same pair
    of equations.
    """
    if op.params is None:
        raise ValueError("operator must carry its parameter record")
    tag = _case_of(op.params)
    if tag is CaseTag.NOT_SYMMETRIZABLE:
        raise NotSymmetrizableError(
            "a nonzero plain-derivative part (mu, nu0, rho0, tau0) rules out a real symmetry factor"
        )
    if tag is CaseTag.DEGENERATE_SPECTRUM:
        raise UnsupportedWeight(
            "G1 is constant or zero: no catalogued closed-form weight for this degenerate family"
        )
    weight, _, _ = _PEARSON_SOLVERS[tag](op.params)
    return weight


def pearson_residual(w: WeightFunction, op: DunklOperator, x) -> tuple:
    """The two symmetry-identity residuals at a point, as Python floats.

    Returns ``(w(x)G1(x) - w(-x)G1(-x),
    w(-x)F(-x) - w(x)F(x) - d/dx[w(x)G1(x)])`` with the derivative taken
    analytically from the weight descriptor.  Both vanish identically when
    ``w`` solves the Pearson pair for ``op``.  All but ``w(+-x)`` are
    :func:`_pair_at`'s.
    """
    xf = float(x)
    if xf == 0.0:
        raise UnsupportedPoint("x must be nonzero")
    if not (w.contains_interior(xf) and w.contains_interior(-xf)):
        raise UnsupportedPoint(f"x={xf} and -x must both be interior to the support")
    P, Q = xf.as_integer_ratio()
    _, _, g1x, g1mx, fx, fmx, dg1x, log_derivative = _pair_at(w, _pair_forms(w, op, Q), P)[0]
    wx, wmx = w(xf), w(-xf)
    d_wg1 = wx * log_derivative * g1x + wx * dg1x
    return (wx * g1x - wmx * g1mx, wmx * fmx - wx * fx - d_wg1)


def _sample(w: WeightFunction) -> tuple:
    """:func:`pearson_points` as ``(Q, [P, ...])``, the points ``P/Q``.

    With the support's bounds over one ``M``, ``(low/M, high/M)`` has
    ``eps = min(4M, 1000 (high - low)) / (4000 M)``, and ``96000 M`` is a
    common denominator of every point.
    """
    M = math.lcm(*(b.denominator for interval in w.support for b in interval))
    bounds = [(lo.numerator * (M // lo.denominator), hi.numerator * (M // hi.denominator))
              for lo, hi in w.support]
    grids = []  # (first point, step) over 96000 M
    for low, high in bounds:
        eps = min(4 * M, 1000 * (high - low))
        grids.append((24 * (4000 * low + eps), 4000 * (high - low) - 2 * eps))
    g = math.gcd(96000 * M, *(n for grid in grids for n in grid))
    Q = 96000 * M // g
    grid = [(start + i * step) // g for start, step in grids for i in range(25)]
    # -P/Q is in (low/M, high/M) exactly when floor(-high Q/M) < P < ceil(-low Q/M)
    mirrors = [(-high * Q // M, -(low * Q // M)) for low, high in bounds]
    inside = {P for floor, ceil in mirrors for P in grid if floor < P < ceil}
    return Q, [P for P in grid if P in inside and abs(P) * 10**9 >= Q]


def pearson_points(w: WeightFunction) -> list:
    """The sample of :func:`pearson_defect`, exact ``Fraction``s.

    On each support interval ``(lo, hi)``, the points ``a + i (b - a)/24``,
    ``i = 0..24``, with ``a = lo + eps``, ``b = hi - eps`` and
    ``eps = min(1/1000, (hi - lo)/4)``, that have ``|x| >= 1/10^9`` and an
    interior mirror ``-x``.
    """
    Q, points = _sample(w)
    return [Fraction(P, Q) for P in points]


def _times(a, b) -> list:
    """The product of two integer coefficient lists, lowest power first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _weight_forms(w: WeightFunction) -> list:
    """``A`` without its sign factor, and ``w'/w`` as a numerator and a denominator.

    Forms of :func:`~.laurent._laurent_form` with ``k = 0``; the two of
    ``w'/w`` share one length, so their ratio is that of their numerators,
    which sum the terms of the factors over the product of their denominators.
    """
    v, D = [w.constant.numerator], w.constant.denominator
    p = w.abs_power
    terms = [([0, p.numerator], [0, 0, p.denominator])] if p else []  # p x / x^2
    for f in w.affine_factors:  # m / (x - r)
        r, rd = f.root.numerator, f.root.denominator
        terms.append(([f.multiplicity * rd], [-r, rd]))
        for _ in range(f.multiplicity):
            v = _times(v, [-r, rd])
            D *= rd
    for f in w.algebraic_factors:  # 2 e a2 x / (a0 + a2 x^2)
        (e, ed), (a0, a0d), (a2, a2d) = ((q.numerator, q.denominator)
                                         for q in (f.exponent, f.a0, f.a2))
        terms.append(([0, 2 * e * a2 * a0d], [ed * a0 * a2d, 0, ed * a2 * a0d]))
    fac = w.exponential_factor
    if fac is not None:
        c, cd = fac.coefficient.numerator, fac.coefficient.denominator
        s, sd = fac.shift.numerator, fac.shift.denominator
        if fac.kind == "gauss":  # 2 c x
            terms.append(([0, 2 * c], [cd]))
        else:  # -2 c x / (x^2 - s)^2
            terms.append(([0, -2 * c * sd * sd],
                          [cd * s * s, 0, -2 * cd * s * sd, 0, cd * sd * sd]))
    top, bottom = [0], [1]
    for t, b in terms:
        top = [x + y for x, y in zip_longest(_times(top, b), _times(t, bottom), fillvalue=0)]
        bottom = _times(bottom, b)
    return [(0, D, v)] + [(0, 1, list(u)) for u in zip(*zip_longest(top, bottom, fillvalue=0))]


def _pair_forms(w: WeightFunction, op: DunklOperator, Q: int) -> list:
    """``G1``, ``F``, ``G1'`` and :func:`_weight_forms` as :func:`_homogeneous` forms over ``Q``."""
    forms = [_laurent_form(p) for p in (op.G1, op.F, op.G1.differentiate())] + _weight_forms(w)
    return [_homogeneous(form, Q) for form in forms]


def _pair_at(w: WeightFunction, scaled: list, P: int) -> tuple:
    """``(A(x), A(-x), G1(x), G1(-x), F(x), F(-x), G1'(x), w'/w(x))`` at ``P/Q``, then at ``-P/Q``.

    ``scaled`` is :func:`_pair_forms` over ``Q``; each value is rounded once.
    """
    (g, g_, dg), (f, f_, df), (d, d_, dd), (a, a_, da), (t, t_, _), (b, b_, _) = (
        _numerators(scaled, P, P * P))
    ax, amx = a / da, a_ / da
    if w.sign_factor:
        ax, amx = (ax, -amx) if P > 0 else (-ax, amx)
    g1x, g1mx, fx, fmx = g / dg, g_ / dg, f / df, f_ / df
    return ((ax, amx, g1x, g1mx, fx, fmx, d / dd, t / b),
            (amx, ax, g1mx, g1x, fmx, fx, d_ / dd, t_ / b_))


def pearson_defect(w: WeightFunction, op: DunklOperator) -> float:
    """``certify``'s Pearson figure: the worst relative residual over :func:`pearson_points`.

    The weight is ``w = A(x) E(x^2)``: ``A`` is the constant, the sign
    factor and the affine factors, and ``E``, nonzero on the sample, is the
    rest.  Divided by ``E``, :func:`pearson_residual`'s residuals and the
    sizes of their terms are ``r1 = A(x)G1(x) - A(-x)G1(-x)``,
    ``s1 = |A(x)G1(x)| + |A(-x)G1(-x)|``,
    ``r2 = A(-x)F(-x) - A(x)F(x) - A(x)[(w'/w) G1(x) + G1'(x)]`` and
    ``s2 = |A(-x)F(-x)| + |A(x)F(x)| + |A(x)(w'/w)G1(x)| + |A(x)G1'(x)|``;
    the figures ``|r| / s`` are theirs.  Each quantity is :func:`_pair_at`'s,
    rounded once from ints, with no ``pow`` and no ``exp``, so nothing
    underflows.  A size of 0.0 measures nothing; with nothing measured the
    figure is ``inf``.
    """
    Q, points = _sample(w)
    scaled = _pair_forms(w, op, Q)
    members = set(points)
    figures = []
    for P in points:
        if P < 0 and -P in members:
            continue  # evaluated with its mirror
        sides = _pair_at(w, scaled, P)[:1 + (-P in members)]
        for ax, amx, g1x, g1mx, fx, fmx, dg1x, log_derivative in sides:
            even, odd, reflected, direct = ax * g1x, amx * g1mx, amx * fmx, ax * fx
            s1 = abs(even) + abs(odd)
            s2 = abs(reflected) + abs(direct) + abs(ax * log_derivative * g1x) + abs(ax * dg1x)
            if s1:
                figures.append(abs(even - odd) / s1)
            if s2:
                figures.append(abs(reflected - direct - ax * (log_derivative * g1x + dg1x)) / s2)
    return max(figures, default=math.inf)


def _sign_obstruction_check(w: WeightFunction) -> Fraction:
    """Exact cross-check of a sign-indefinite verdict: ``w(x0) w(-x0) < 0``, returns ``x0``.

    ``x0``, midway along the positive part of the rightmost interval, and
    ``-x0`` are interior.  The constant and the even factors appear squared;
    the sign factor gives ``-1`` and ``(x - r)^m`` gives ``(r^2 - x0^2)^m``.
    """
    lo, hi = max(w.support, key=lambda interval: interval[1])
    x0 = (max(lo, 0) + hi) / 2
    sign = -1 if w.sign_factor else 1
    for f in w.affine_factors:
        gap = f.root * f.root - x0 * x0
        sign *= ((gap > 0) - (gap < 0)) ** f.multiplicity
    if not (x0 > 0 and any(a < -x0 < b for a, b in w.support) and sign == -1):
        raise InternalConsistencyError(
            f"w(x0) w(-x0) at x0 = {x0} contradicts the sign-indefiniteness verdict"
        )
    return x0


def classify(params: OperatorParams) -> ClassificationVerdict:
    """Total classification of a parameter set by symmetrizability case.

    Case boundaries are exact rational zero-tests.  For sign-indefinite
    cases the hard-coded verdict is cross-checked by the exact sign of
    ``w(x0) w(-x0)`` at one interior point; a disagreement raises
    :class:`InternalConsistencyError`.
    """
    tag = _case_of(params)
    if tag is CaseTag.NOT_SYMMETRIZABLE:
        return ClassificationVerdict(
            case_tag=tag,
            weight=None,
            positive_on_symmetric_support=False,
            notes="plain-derivative part present; no real symmetry factor exists",
        )
    if tag is CaseTag.DEGENERATE_SPECTRUM:
        return ClassificationVerdict(
            case_tag=tag,
            weight=None,
            positive_on_symmetric_support=False,
            notes="G1 constant or zero: even-degree eigenvalues all vanish",
        )
    try:
        weight, positive, canonical = _PEARSON_SOLVERS[tag](params)
    except NotCanonicalizable as exc:
        return ClassificationVerdict(
            case_tag=tag,
            weight=None,
            positive_on_symmetric_support=False,
            notes=str(exc),
            canonical=None,
        )
    notes = ""
    if tag is CaseTag.GENERIC_BIG and not positive:
        alpha, beta, c, d = weight.normal_form
        if not weight.support:
            notes = (
                f"canonical c={c / d} outside (0,1); regime equivalent to |c|>1, "
                "not analyzed"
            )
        else:
            notes = f"exponent parameters alpha={alpha}, beta={beta} leave the integrable range"
    if tag in (CaseTag.CASE_II, CaseTag.CASE_III, CaseTag.CASE_IV, CaseTag.CASE_V):
        x0 = _sign_obstruction_check(weight)
        notes = f"sign-indefinite on every symmetric support (w(x0) w(-x0) < 0 at x0 = {x0})"
    return ClassificationVerdict(
        case_tag=tag,
        weight=weight,
        positive_on_symmetric_support=positive,
        notes=notes,
        canonical=canonical,
    )
