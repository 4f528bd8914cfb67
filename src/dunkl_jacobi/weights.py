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
as sign-indefinite on symmetric supports.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .dunkl import DunklOperator, OperatorParams, build
from .errors import (
    InternalConsistencyError,
    NotCanonicalizable,
    NotSymmetrizableError,
    ParameterRange,
    UnsupportedPoint,
    UnsupportedWeight,
)
from .laurent import Rational, as_rational


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

    ``constant`` is the arbitrary overall normalization; it is ``1`` for the
    catalogued constructors and may be ``-1`` for scaled-back operators when
    that sign gives the positive representative on the support.
    """

    family: str  # "big" | "little" | "case_ii" | "case_iii" | "case_iv" | "case_v"
    sign_factor: bool
    affine_factors: tuple
    abs_power: Rational
    algebraic_factors: tuple
    exponential_factor: Optional[ExponentialFactor]
    support: tuple
    constant: Rational = Fraction(1)
    source_params: Optional[BigJacobiParams] = None

    # -- evaluation -------------------------------------------------------

    def __call__(self, x) -> float:
        xf = float(x)
        value = float(self.constant)
        if self.sign_factor:
            value *= math.copysign(1.0, xf) if xf != 0.0 else 0.0
        for fac in self.affine_factors:
            value *= (xf - float(fac.root)) ** fac.multiplicity
        p = float(self.abs_power)
        if p != 0.0:
            if xf == 0.0 and p < 0.0:
                return math.inf
            value *= abs(xf) ** p
        for fac in self.algebraic_factors:
            base = float(fac.a0) + float(fac.a2) * xf * xf
            e = fac.exponent
            ef = float(e)
            if base > 0.0:
                value *= base**ef
            elif base == 0.0:
                if ef > 0.0:
                    value = 0.0
                elif ef < 0.0:
                    return math.inf if value >= 0 else -math.inf
            else:
                if e.denominator == 1:
                    value *= base ** int(e)
                else:
                    raise UnsupportedPoint(
                        f"x={xf} is outside the natural domain (negative base to "
                        f"fractional power {e})"
                    )
        if self.exponential_factor is not None:
            fac = self.exponential_factor
            if fac.kind == "gauss":
                arg = float(fac.coefficient) * xf * xf
            else:
                denom = xf * xf - float(fac.shift)
                if denom == 0.0:
                    raise UnsupportedPoint("x is a singular point of the exponential factor")
                arg = float(fac.coefficient) / denom
            try:
                value *= math.exp(arg)
            except OverflowError:  # beyond float range, as at a pole
                return math.inf if value >= 0 else -math.inf
        return value

    def log_derivative(self, x) -> float:
        """Analytic logarithmic derivative ``w'(x)/w(x)`` away from zeros."""
        xf = float(x)
        total = 0.0
        for fac in self.affine_factors:
            total += fac.multiplicity / (xf - float(fac.root))
        if self.abs_power:
            total += float(self.abs_power) / xf
        for fac in self.algebraic_factors:
            a2 = float(fac.a2)
            base = float(fac.a0) + a2 * xf * xf
            total += float(fac.exponent) * 2.0 * a2 * xf / base
        fac = self.exponential_factor
        if fac is not None:
            if fac.kind == "gauss":
                total += 2.0 * float(fac.coefficient) * xf
            else:
                denom = xf * xf - float(fac.shift)
                total += -2.0 * float(fac.coefficient) * xf / (denom * denom)
        return total

    # -- support ------------------------------------------------------------

    def contains_interior(self, x, margin: float = 0.0) -> bool:
        xf = float(x)
        return any(
            float(lo) + margin < xf < float(hi) - margin for lo, hi in self.support
        )

    def interior_grid(self, per_interval: int, eps: float = 1e-6) -> list:
        """Evenly spaced interior points, ``eps`` away from the endpoints."""
        points = []
        for lo, hi in self.support:
            a, b = float(lo) + eps, float(hi) - eps
            if per_interval == 1:
                points.append((a + b) / 2)
            else:
                step = (b - a) / (per_interval - 1)
                points.extend(a + i * step for i in range(per_interval))
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


def big_weight(p: BigJacobiParams) -> WeightFunction:
    """Positive weight on ``[-1,-c] union [c,1]`` for alpha, beta > -1, 0 < c < 1."""
    a, b, c = p.alpha, p.beta, p.c
    if a <= -1 or b <= -1:
        raise ParameterRange("alpha and beta must each exceed -1")
    if not (0 < c < 1):
        raise ParameterRange("c must lie strictly between 0 and 1")
    return WeightFunction(
        family="big",
        sign_factor=True,
        affine_factors=(AffineFactor(Fraction(-1), 1), AffineFactor(c, 1)),
        abs_power=Fraction(0),
        algebraic_factors=(
            AlgebraicFactor(Fraction(1), Fraction(-1), (a - 1) / 2),
            AlgebraicFactor(-c * c, Fraction(1), (b - 1) / 2),
        ),
        exponential_factor=None,
        support=((-1, -c), (c, Fraction(1))),
        source_params=p,
    )


def little_weight(alpha, beta) -> WeightFunction:
    """Positive weight ``(x+1)(1-x^2)^((alpha-1)/2) |x|^beta`` on ``[-1,1]``."""
    a, b = as_rational(alpha), as_rational(beta)
    if a <= -1 or b <= -1:
        raise ParameterRange("alpha and beta must each exceed -1")
    return WeightFunction(
        family="little",
        sign_factor=False,
        affine_factors=(AffineFactor(Fraction(-1), 1),),
        abs_power=b,
        algebraic_factors=(AlgebraicFactor(Fraction(1), Fraction(-1), (a - 1) / 2),),
        exponential_factor=None,
        support=((Fraction(-1), Fraction(1)),),
        source_params=BigJacobiParams(a, b, Fraction(0)),
    )


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
    z1, z2 = _g1_zeros(params)
    if abs(z1) > abs(z2):
        d, other = z1, z2
    elif abs(z2) > abs(z1):
        d, other = z2, z1
    else:
        d, other = (z1, z2) if z1 > 0 else (z2, z1)
    kappa1 = d
    kappa0 = 2 / params.tau1
    scaled = scale_params(params, kappa0, kappa1)
    return CanonicalForm(params=scaled, kappa0=kappa0, kappa1=kappa1)


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


def _positive_representative(w: WeightFunction) -> WeightFunction:
    """Flip the overall constant if the weight is negative on its support."""
    if not w.support:
        return w
    lo, hi = w.support[-1]
    probe = (float(lo) + float(hi)) / 2
    try:
        value = w(probe)
    except UnsupportedPoint:
        return w
    if value < 0:
        return replace(w, constant=-w.constant)
    return w


def _pearson_generic(params: OperatorParams):
    form = canonicalize(params)
    alpha, beta, cprime = _recovered_big_exponents(form.params)
    d = form.kappa1
    c = cprime * d
    positive_regime = 0 < cprime < 1 and alpha > -1 and beta > -1
    if 0 < cprime < 1:
        s_lo, s_hi = abs(c), abs(d)
        support = ((-s_hi, -s_lo), (s_lo, s_hi))
    else:
        support = ()
    w = WeightFunction(
        family="big",
        sign_factor=True,
        affine_factors=(AffineFactor(-d, 1), AffineFactor(c, 1)),
        abs_power=Fraction(0),
        algebraic_factors=(
            AlgebraicFactor(d * d, Fraction(-1), (alpha - 1) / 2),
            AlgebraicFactor(-c * c, Fraction(1), (beta - 1) / 2),
        ),
        exponential_factor=None,
        support=support,
    )
    return _positive_representative(w), positive_regime, form


def _pearson_little(params: OperatorParams):
    kappa1 = -params.rho1 / params.tau1
    kappa0 = 2 / params.tau1
    scaled = scale_params(params, kappa0, kappa1)
    form = CanonicalForm(params=scaled, kappa0=kappa0, kappa1=kappa1)
    beta = scaled.xi
    alpha = -1 - scaled.eta - beta
    s = abs(kappa1)
    w = WeightFunction(
        family="little",
        sign_factor=False,
        affine_factors=(AffineFactor(-kappa1, 1),),
        abs_power=beta,
        algebraic_factors=(
            AlgebraicFactor(kappa1 * kappa1, Fraction(-1), (alpha - 1) / 2),
        ),
        exponential_factor=None,
        support=((-s, s),),
    )
    positive_regime = alpha > -1 and beta > -1
    return _positive_representative(w), positive_regime, form


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
    CaseTag.GENERIC_BIG: _pearson_generic,
    CaseTag.LITTLE_CASE_I: _pearson_little,
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
    """The two symmetry-identity residuals at a point.

    Returns ``(w(x)G1(x) - w(-x)G1(-x),
    w(-x)F(-x) - w(x)F(x) - d/dx[w(x)G1(x)])`` with the derivative taken
    analytically from the weight descriptor.  Both vanish identically when
    ``w`` solves the Pearson pair for ``op``.
    """
    xf = float(x)
    if xf == 0.0:
        raise UnsupportedPoint("x must be nonzero")
    if not (w.contains_interior(xf) and w.contains_interior(-xf)):
        raise UnsupportedPoint(f"x={xf} and -x must both be interior to the support")
    wx, wmx = w(xf), w(-xf)
    g1x, g1mx = op.G1.evaluate(xf), op.G1.evaluate(-xf)
    fx, fmx = op.F.evaluate(xf), op.F.evaluate(-xf)
    r1 = wx * g1x - wmx * g1mx
    d_wg1 = wx * w.log_derivative(xf) * g1x + wx * op.G1.differentiate().evaluate(xf)
    r2 = wmx * fmx - wx * fx - d_wg1
    return r1, r2


def _sign_obstruction_check(w: WeightFunction, points_per_interval: int = 25) -> None:
    """Regression check: the weight must take both signs on symmetric samples."""
    seen_pos = seen_neg = False
    for x in w.interior_grid(points_per_interval, eps=1e-3):
        if abs(x) < 1e-9:
            continue
        for probe in (x, -x):
            try:
                v = w(probe)
            except UnsupportedPoint:
                continue
            if math.isfinite(v):
                seen_pos = seen_pos or v > 0
                seen_neg = seen_neg or v < 0
    if not (seen_pos and seen_neg):
        raise InternalConsistencyError(
            "sampled signs contradict the sign-indefiniteness verdict for this case"
        )


def classify(params: OperatorParams) -> ClassificationVerdict:
    """Total classification of a parameter set by symmetrizability case.

    Case boundaries are exact rational zero-tests.  For sign-indefinite
    cases the hard-coded verdict is cross-checked by sampling; a
    disagreement raises :class:`InternalConsistencyError`.
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
        alpha, beta, cprime = _recovered_big_exponents(canonical.params)
        if not (0 < cprime < 1):
            notes = (
                f"canonical c={cprime} outside (0,1); regime equivalent to |c|>1, "
                "not analyzed"
            )
        else:
            notes = f"exponent parameters alpha={alpha}, beta={beta} leave the integrable range"
    if tag in (CaseTag.CASE_II, CaseTag.CASE_III, CaseTag.CASE_IV, CaseTag.CASE_V):
        _sign_obstruction_check(weight)
        notes = "sign-indefinite on every symmetric support (sampled check agrees)"
    return ClassificationVerdict(
        case_tag=tag,
        weight=weight,
        positive_on_symmetric_support=positive,
        notes=notes,
        canonical=canonical,
    )
