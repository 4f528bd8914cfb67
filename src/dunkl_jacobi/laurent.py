"""Exact arithmetic on finite Laurent polynomials over rational coefficients.

A Laurent polynomial is a finite sum ``sum c_k x**k`` with integer exponents
``k`` of either sign and coefficients stored as ``fractions.Fraction``.
Everything in this module is exact.  One integer kernel evaluates at a
rational ``P/Q``; :meth:`LaurentPoly.evaluate` rounds its value at the exact
binary value of ``float(x)`` once, and floating point enters only there.

A sum or product stores the first contribution to an exponent as it is and
adds only where a coefficient is already there; coefficients that cancel to
zero are dropped once, when the result is formed.  An absent exponent reads
as one shared ``Fraction(0)``.  The exact kernels, whose coefficient maps
are clean by construction, hand them to :class:`Polynomial` unchecked.

Exact kernels that build polynomials fraction-free hand them out in that
integer form, which builds its ``Fraction`` map only when someone reads it;
comparing with ``==`` or hashing reads the map, as for any polynomial.
:class:`_IntegerPolynomial`, the monic basis of :mod:`.quadrature`, is an
integer vector over one denominator; :class:`_SweptPolynomial`, an
eigenpolynomial of :mod:`.eigen`, is an integer vector whose entry ``j``
sits over the running product ``f_j ... f_(n-1)`` of small factors.  The
kernels that clear denominators read every kind through
:meth:`LaurentPoly._scaled_terms`: the coefficient map itself, or one
integer vector with its denominator.  The tables read every kind through
:meth:`LaurentPoly._lowest_terms`, one reduced pair per nonzero coefficient.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import PoleAtZero

#: Exact rational scalar used for every coefficient and parameter.
Rational = Fraction

RationalLike = Union[Fraction, int, str]

#: The one zero coefficient handed out for absent exponents; a ``Fraction``
#: is immutable, so sharing it is safe.
_ZERO = Fraction(0)


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """``Fraction(numerator, denominator)`` for a pair already in lowest terms.

    The caller guarantees ``gcd(numerator, denominator) == 1`` and
    ``denominator > 0``; no gcd is taken.  The two slots are set directly on
    a bare instance, as CPython's own ``Fraction._from_coprime_ints`` (3.12)
    does; every ``Fraction`` method reads only these two.
    """
    f = object.__new__(Fraction)
    f._numerator = numerator
    f._denominator = denominator
    return f


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    Accepts integers, Fractions and strings ("3/4", "-2", "0.25"); decimal
    strings convert exactly.  Floats are rejected so that binary rounding
    can never leak into the exact layer unnoticed.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"expected an exact rational (int, Fraction or string), got {value!r}"
    )


class LaurentPoly:
    """Immutable sparse Laurent polynomial keyed by exponent.

    Zero coefficients are never stored, so ``degree`` and ``valuation``
    (lowest exponent) are well defined for nonzero values.  Instances are
    safe to share between threads.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[int, RationalLike], Iterable[tuple]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean = {}
        for exponent, coeff in items:
            if not isinstance(exponent, int):
                raise TypeError(f"exponent must be int, got {exponent!r}")
            c = as_rational(coeff)
            if c:
                prev = clean.get(exponent)
                clean[exponent] = c if prev is None else prev + c
        object.__setattr__(self, "_terms", {k: v for k, v in clean.items() if v})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def term(cls, coeff: RationalLike, exponent: int) -> "LaurentPoly":
        """The single term ``coeff * x**exponent``."""
        return cls({exponent: coeff})

    @classmethod
    def constant(cls, coeff: RationalLike) -> "LaurentPoly":
        return cls({0: coeff})

    @classmethod
    def x(cls) -> "LaurentPoly":
        return cls({1: 1})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """Copy of the exponent -> coefficient map."""
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self):
        """Highest exponent, or ``None`` for the zero polynomial."""
        return max(self._terms) if self._terms else None

    @property
    def valuation(self):
        """Lowest exponent, or ``None`` for the zero polynomial."""
        return min(self._terms) if self._terms else None

    @property
    def is_polynomial(self) -> bool:
        """True when no negative powers are present (zero counts)."""
        return not self._terms or min(self._terms) >= 0

    @property
    def leading_coefficient(self) -> Fraction:
        return self._terms[max(self._terms)] if self._terms else _ZERO

    @property
    def is_monic(self) -> bool:
        return bool(self._terms) and self.leading_coefficient == 1

    def coefficient(self, exponent: int) -> Fraction:
        return self._terms.get(exponent, _ZERO)

    def _scaled_terms(self) -> tuple:
        """``(s, terms)`` with ``self = sum terms[k] x^k / s``: here ``(1, the stored map)``.

        The map is not a copy.  :class:`_IntegerPolynomial` answers with
        integer ``terms`` over its denominator, and builds no ``Fraction``.
        """
        return 1, self._terms

    def _lowest_terms(self):
        """``(k, p, q)`` with coefficient ``p/q`` in lowest terms, ``q > 0``, per nonzero term.

        Here read off the stored map, not a copy; :class:`_IntegerPolynomial`
        reduces its integer form, and builds no ``Fraction``.
        """
        return ((k, v.numerator, v.denominator) for k, v in self._terms.items())

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for k, v in other._terms.items():
            prev = out.get(k)
            out[k] = v if prev is None else prev + v
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({k: -v for k, v in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for ka, va in self._terms.items():
            for kb, vb in other._terms.items():
                k = ka + kb
                prev = out.get(k)
                out[k] = va * vb if prev is None else prev + va * vb
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- calculus and symmetry -------------------------------------------

    def differentiate(self) -> "LaurentPoly":
        """Termwise d/dx: ``c x**k -> k c x**(k-1)``."""
        return _wrap({k - 1: k * v for k, v in self._terms.items() if k != 0})

    def reflect(self) -> "LaurentPoly":
        """The reflected polynomial ``p(-x)``."""
        return _wrap({k: (v if k % 2 == 0 else -v) for k, v in self._terms.items()})

    def scale_argument(self, kappa: RationalLike) -> "LaurentPoly":
        """The substituted polynomial ``p(kappa * x)`` for rational kappa != 0."""
        kappa = as_rational(kappa)
        if not kappa:
            raise ValueError("kappa must be nonzero")
        return _wrap({k: v * kappa**k for k, v in self._terms.items()})

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x) -> float:
        """The value at the exact binary value of ``float(x)``, rounded once.

        Raises :class:`PoleAtZero` when ``x == 0`` and negative powers are
        present, and ``ValueError`` when ``x`` is not finite.
        """
        return _rounded(*self._at(*_binary(x)))

    def evaluate_exact(self, x: RationalLike) -> Fraction:
        """Exact rational evaluation at rational ``x``."""
        xr = as_rational(x)
        return Fraction(*self._at(xr.numerator, xr.denominator))

    def _at(self, P: int, Q: int) -> tuple:
        """``(num, den)`` with ``self(P/Q) = num / den``, ``den > 0``, from :func:`_numerators`."""
        form = _laurent_form(self)
        if P == 0 and form[0]:
            raise PoleAtZero("Laurent polynomial has a pole at x = 0")
        [(num, _, den)] = _numerators([_homogeneous(form, Q)], P, P * P)
        return num, den

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> list:
        """Exponent-ascending list of {exponent, numerator, denominator}."""
        return [
            {"exponent": k, "numerator": v.numerator, "denominator": v.denominator}
            for k, v in sorted(self._terms.items())
        ]

    @classmethod
    def from_json_obj(cls, obj) -> "LaurentPoly":
        return cls(
            {int(rec["exponent"]): Fraction(int(rec["numerator"]), int(rec["denominator"]))
             for rec in obj}
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text: str) -> "LaurentPoly":
        return cls.from_json_obj(json.loads(text))

    # -- display -------------------------------------------------------------

    def __repr__(self):
        return f"LaurentPoly({self!s})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for k in sorted(self._terms, reverse=True):
            v = self._terms[k]
            sign = "-" if v < 0 else "+"
            mag = abs(v)
            if k == 0:
                body = f"{mag}"
            else:
                xpow = "x" if k == 1 else f"x^{k}"
                body = xpow if mag == 1 else f"{mag}*{xpow}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def _wrap(terms: dict) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(p, "_terms", {k: v for k, v in terms.items() if v})
    return p


def _coerce(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.constant(value)
    return NotImplemented


def _binary(x) -> tuple:
    """``(P, Q)`` with ``float(x) = P/Q`` exactly; ``ValueError`` when it is not finite."""
    xf = float(x)
    if not math.isfinite(xf):
        raise ValueError(f"x must be finite, got {xf}")
    return xf.as_integer_ratio()


def _rounded(num: int, den: int) -> float:
    """``num / den`` rounded once; beyond float range, an infinity of its sign."""
    try:
        return num / den
    except OverflowError:
        return math.inf if (num > 0) == (den > 0) else -math.inf


def _laurent_form(p: LaurentPoly) -> tuple:
    """``(k, D, v)``: integers with ``p(x) = sum_j v[j] x^j / (D x^(2k))``, ``len(v) > 2k``."""
    s, terms = p._scaled_terms()
    terms = terms or {0: 0}
    k = -(min(min(terms), 0) // 2)
    coefficients = [terms.get(j, 0) for j in range(-2 * k, max(max(terms), 0) + 1)]
    D = math.lcm(*(c.denominator for c in coefficients))
    return k, s * D, [c.numerator * (D // c.denominator) for c in coefficients]


def _homogeneous(form: tuple, Q: int) -> tuple:
    """``(even, odd, D Q^(n - 2k), k)``, ``v[j] Q^(n - j)`` for even and odd ``j`` highest first."""
    k, D, v = form
    n = len(v) - 1
    h = [c * Q ** (n - j) for j, c in enumerate(v)]
    return h[::2][::-1], h[1::2][::-1], D * Q ** (n - 2 * k), k


def _numerators(forms: list, P: int, P2: int) -> list:
    """``(N(P), N(-P), den)``, ``p(+-P/Q) = N(+-P) / den``, for each :func:`_homogeneous` form."""
    out = []
    for even, odd, den, k in forms:
        e = o = 0
        for c in even:
            e = e * P2 + c
        for c in odd:
            o = o * P2 + c
        o *= P
        out.append((e + o, e - o, den * P2**k))
    return out


class Polynomial(LaurentPoly):
    """A Laurent polynomial with valuation >= 0 (a genuine polynomial)."""

    __slots__ = ()

    def __init__(self, terms=()):
        super().__init__(terms)
        if self._terms and min(self._terms) < 0:
            raise ValueError("Polynomial requires valuation >= 0")

    @classmethod
    def monomial(cls, n: int, coeff: RationalLike = 1) -> "Polynomial":
        """``coeff * x**n``, formed with no pass over a coefficient map."""
        if not isinstance(n, int):
            raise TypeError(f"exponent must be int, got {n!r}")
        if n < 0:
            raise ValueError("monomial degree must be >= 0")
        c = as_rational(coeff)
        return cls._from_clean({n: c} if c else {})

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "Polynomial":
        return cls(p.terms)

    @classmethod
    def _from_clean(cls, terms: dict) -> "Polynomial":
        """Wrap ``terms`` as it is, with no check and no copy.

        For the exact kernels, whose maps already hold only nonzero
        ``Fraction`` values at exponents ``>= 0``; the result owns ``terms``.
        """
        p = cls.__new__(cls)
        object.__setattr__(p, "_terms", terms)
        return p


class _IntegerPolynomial(Polynomial):
    """A nonzero polynomial held as ``(D, v)``: ``sum_j v[j] x^j / D``.

    ``D > 0`` and the integers ``v`` (``v[-1] != 0``) have no common factor
    with ``D``, so each form stands for one polynomial.  Degree, monicity
    and :meth:`_scaled_terms` read the form; the ``Fraction`` map is built
    from :meth:`_lowest_terms` the first time it is read, and kept.
    Equality and hashing are :class:`LaurentPoly`'s, and read the map.
    """

    __slots__ = ("_form", "_map")

    def __init__(self, D: int, v: tuple):
        object.__setattr__(self, "_form", (D, v))
        object.__setattr__(self, "_map", None)

    @property
    def _terms(self) -> dict:
        terms = self._map
        if terms is None:
            terms = {j: _coprime_fraction(p, q) for j, p, q in self._lowest_terms()}
            object.__setattr__(self, "_map", terms)
        return terms

    def _lowest_terms(self):
        D, v = self._form
        for j, t in enumerate(v):
            if t:
                g = math.gcd(t, D)
                yield (j, t, D) if g == 1 else (j, t // g, D // g)

    def _scaled_terms(self) -> tuple:
        D, v = self._form
        return D, {j: t for j, t in enumerate(v) if t}

    @property
    def is_zero(self) -> bool:
        return False

    @property
    def degree(self) -> int:
        return len(self._form[1]) - 1

    @property
    def is_polynomial(self) -> bool:
        return True

    @property
    def is_monic(self) -> bool:
        D, v = self._form
        return v[-1] == D


class _SweptPolynomial(_IntegerPolynomial):
    """A monic polynomial held as ``(f, x)``, as a backward sweep leaves it.

    With ``n = len(f)`` and ``R_j = f[j] ... f[n-1]`` (``R_n = 1``), the
    coefficient of ``x^j`` is ``x[j] / R_j``, and ``x[n] = 1``.  The factors
    ``f[j] > 0`` are small ints; ``x[j] / R_j`` need not be in lowest terms.
    :meth:`_scaled_terms` hands out ``x[j] f[0] ... f[j-1]`` over ``R_0``,
    and :meth:`_lowest_terms` reduces each ``x[j]`` once against its own
    ``R_j``, not against the larger ``R_0``.
    """

    __slots__ = ()

    def __init__(self, f: tuple, x: tuple):
        object.__setattr__(self, "_form", (f, x))
        object.__setattr__(self, "_map", None)

    def _lowest_terms(self):
        f, x = self._form
        n = len(f)
        yield n, 1, 1
        R = 1
        for j in range(n - 1, -1, -1):
            R *= f[j]
            t = x[j]
            if t:
                g = math.gcd(t, R)
                yield (j, t, R) if g == 1 else (j, t // g, R // g)

    def _scaled_terms(self) -> tuple:
        f, x = self._form
        terms, F = {}, 1
        for j, (t, fj) in enumerate(zip(x, f)):
            if t:
                terms[j] = t * F
            F *= fj
        terms[len(f)] = F
        return F, terms

    @property
    def is_monic(self) -> bool:
        return self._form[1][-1] == 1
