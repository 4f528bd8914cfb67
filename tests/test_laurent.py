import math
import random
from fractions import Fraction

import pytest

from dunkl_jacobi import (BigJacobiParams, LaurentPoly, OperatorParams, PoleAtZero, Polynomial,
                          big_weight, build, monic_eigenpolynomial, orthogonal_polynomials)
from dunkl_jacobi.laurent import _coprime_fraction, _IntegerPolynomial

from _helpers import random_rational


def lp(terms):
    return LaurentPoly(terms)


class TestArithmetic:
    def test_add_cancellation(self):
        assert lp({1: 1, 0: 1}) + lp({1: -1}) == lp({0: 1})

    def test_add_like_terms(self):
        assert lp({-1: 2}) + lp({-1: 1}) == lp({-1: 3})

    def test_add_absorbs_constant(self):
        assert lp({2: 1, 0: -1}) + lp({0: 1}) == lp({2: 1})

    def test_mul_inverse_pair(self):
        assert lp({-1: 1}) * lp({1: 1}) == LaurentPoly.one()

    def test_mul_difference_of_squares(self):
        assert lp({1: 1, 0: -1}) * lp({1: 1, 0: 1}) == lp({2: 1, 0: -1})

    def test_mul_quadratic_over_x(self):
        # 2(x-1)(x+c)/x at c = 1/2 expands to 2x - 1 - 1/x
        c = Fraction(1, 2)
        prod = lp({0: 2}) * lp({1: 1, 0: -1}) * lp({1: 1, 0: c}) * lp({-1: 1})
        assert prod == lp({1: 2, 0: 2 * (c - 1), -1: -2 * c})
        assert prod == lp({1: 2, 0: -1, -1: -1})

    def test_valuation_additive_under_product(self):
        rng = random.Random(7)
        for _ in range(50):
            p = lp({rng.randint(-4, 4): random_rational(rng, nonzero=True)})
            q = lp({rng.randint(-4, 4): random_rational(rng, nonzero=True),
                    5: random_rational(rng)})
            r = p * q
            assert r.valuation == p.valuation + q.valuation

    def test_commutative_associative(self):
        rng = random.Random(11)
        for _ in range(30):
            ps = [
                lp({rng.randint(-3, 3): random_rational(rng) for _ in range(3)})
                for _ in range(3)
            ]
            a, b, c = ps
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_sum_and_difference_cancel_to_no_terms(self):
        p = lp({-2: Fraction(3, 4), 0: -1, 5: 2})
        for zero in (p + (-p), p - p):
            assert zero.is_zero and zero.terms == {}
            assert zero.degree is None and zero.leading_coefficient == 0

    def test_product_cancellation_stores_no_term(self):
        # (x - 1)(x + 1): the two x terms cancel
        assert (lp({1: 1, 0: -1}) * lp({1: 1, 0: 1})).terms == {2: 1, 0: -1}
        # (x^2 + x + 1)(x^2 - x + 1): the x^2 sum passes through zero, then 1
        prod = lp({2: 1, 1: 1, 0: 1}) * lp({2: 1, 1: -1, 0: 1})
        assert prod.terms == {4: 1, 2: 1, 0: 1}

    def test_absent_coefficient_is_fraction_zero(self):
        for p in (lp({3: 2}), LaurentPoly.zero(), Polynomial({1: Fraction(1, 3)})):
            c = p.coefficient(2)
            assert c == 0 and type(c) is Fraction
        assert type(LaurentPoly.zero().leading_coefficient) is Fraction

    def test_zero_pruning(self):
        p = lp({3: 1, 1: 0, 0: Fraction(0)})
        assert p.terms == {3: Fraction(1)}


class TestCoprimeFraction:
    def test_agrees_with_fraction(self):
        # Negative numerators, b = 1 and numbers past one machine word.
        pairs = [(3, 4), (-3, 4), (-7, 1), (1, 1), (0, 1), (5, 2 ** 70),
                 (-(3 ** 41), 2 ** 64 * 5 ** 3)]
        for a, b in pairs:
            got, want = _coprime_fraction(a, b), Fraction(a, b)
            assert type(got) is Fraction
            assert got == want and want == got
            assert hash(got) == hash(want)
            assert str(got) == str(want) and repr(got) == repr(want)
            assert (got.numerator, got.denominator) == (a, b)
            assert got * Fraction(-2, 3) + 1 == want * Fraction(-2, 3) + 1


class TestCalculus:
    def test_differentiate_cube(self):
        assert lp({3: 1}).differentiate() == lp({2: 3})

    def test_differentiate_inverse(self):
        assert lp({-1: 1}).differentiate() == lp({-2: -1})

    def test_differentiate_constant(self):
        assert lp({0: 5}).differentiate().is_zero

    def test_reflect_basics(self):
        assert lp({1: 1}).reflect() == lp({1: -1})
        assert lp({2: 1, -1: 1}).reflect() == lp({2: 1, -1: -1})

    def test_reflect_fixes_even(self):
        p = lp({4: 3, 2: Fraction(-1, 2), 0: 7, -2: 1})
        assert p.reflect() == p

    def test_reflect_involution(self):
        rng = random.Random(3)
        for _ in range(40):
            p = lp({rng.randint(-5, 5): random_rational(rng) for _ in range(4)})
            assert p.reflect().reflect() == p

    def test_reflection_derivative_rule(self):
        # d/dx reflect(p) = -reflect(d/dx p)
        rng = random.Random(5)
        for _ in range(40):
            p = lp({rng.randint(-5, 5): random_rational(rng) for _ in range(4)})
            assert p.reflect().differentiate() == -(p.differentiate().reflect())


class TestEvaluation:
    def test_simple_values(self):
        assert lp({2: 1, 0: -1}).evaluate(2) == 3.0
        assert lp({1: 1, -1: 1}).evaluate(0.5) == 2.5

    def test_pole_at_zero(self):
        with pytest.raises(PoleAtZero):
            lp({-1: 1}).evaluate(0.0)
        with pytest.raises(PoleAtZero):
            lp({-2: 1, 1: 3}).evaluate_exact(0)

    def test_zero_at_zero_ok(self):
        assert lp({2: 4}).evaluate(0.0) == 0.0

    def test_float_matches_exact(self):
        rng = random.Random(13)
        for _ in range(60):
            p = lp({rng.randint(-4, 6): random_rational(rng) for _ in range(5)})
            x = random_rational(rng, lo=1, hi=40, max_den=7)
            if rng.random() < 0.5:
                x = -x
            exact = p.evaluate_exact(x)
            approx = p.evaluate(float(x))
            scale = max(1e-30, abs(float(exact)))
            assert abs(approx - float(exact)) <= 1e-14 * max(1.0, scale)

    def test_float_is_the_exact_value_rounded_once(self):
        # against a term-by-term Fraction sum at the exact binary value
        rng = random.Random(17)
        for _ in range(200):
            p = lp({rng.randint(-6, 8): random_rational(rng, max_den=9) for _ in range(6)})
            x = rng.uniform(-3.0, 3.0) or 1.0
            exact = sum((c * Fraction(x) ** k for k, c in p.terms.items()), Fraction(0))
            assert p.evaluate_exact(Fraction(x)) == exact
            assert p.evaluate(x) == float(exact)

    def test_integer_form_reads_as_its_map(self):
        p = _IntegerPolynomial((1, 1, 1, 6), (3, -4, 0, 5))
        for x in (Fraction(-7, 3), Fraction(1, 2), 0):
            assert p.evaluate_exact(x) == lp(p.terms).evaluate_exact(x)
        assert p.evaluate(0.1) == lp(p.terms).evaluate(0.1)

    def test_beyond_float_range_is_an_infinity(self):
        assert lp({2: 1}).evaluate(1e200) == math.inf
        assert lp({3: -1}).evaluate(1e200) == -math.inf
        assert lp({-1: 1}).evaluate(-5e-324) == -math.inf

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_point_is_an_error(self, x):
        # the value is taken at the exact rational of x, and these have none
        with pytest.raises(ValueError, match="must be finite"):
            lp({1: 1}).evaluate(x)

    def test_scale_argument(self):
        p = lp({2: 1, -1: 3})
        k = Fraction(1, 2)
        q = p.scale_argument(k)
        for x in (Fraction(2), Fraction(-3, 2)):
            assert q.evaluate_exact(x) == p.evaluate_exact(k * x)


class TestStructure:
    def test_degree_valuation(self):
        p = lp({3: 1, -2: 5})
        assert p.degree == 3 and p.valuation == -2
        assert LaurentPoly.zero().degree is None
        assert LaurentPoly.zero().valuation is None

    def test_polynomial_guard(self):
        with pytest.raises(ValueError):
            Polynomial({-1: 1})
        assert Polynomial({2: 1}).is_polynomial

    def test_monic(self):
        assert Polynomial({3: 1, 0: 5}).is_monic
        assert not Polynomial({3: 2}).is_monic

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly({0: 0.5})

    def test_power(self):
        p = lp({1: 1, 0: 1})
        assert p**2 == lp({2: 1, 1: 2, 0: 1})
        assert p**0 == LaurentPoly.one()


class TestIntegerForm:
    # (f, x): coefficient j is x[j] / (f[j] ... f[n]), not necessarily reduced
    LAYOUTS = {
        "basis": ((1, 1, 1, 12), (-3, 8, 0, 12)),
        "swept": ((5, 3, 2, 1), (7, -4, 9, 1)),
        "non-monic": ((1, 1, 1, 6), (3, -4, 0, 5)),
        "zero interior": ((2, 7, 3, 4, 1), (9, 0, 0, 6, 1)),
        "constant": ((3,), (6,)),
    }

    @staticmethod
    def fraction_map(f, x):
        return {j: Fraction(t, math.prod(f[j:])) for j, t in enumerate(x) if t}

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_form_reads_as_its_fraction_map(self, layout):
        f, x = self.LAYOUTS[layout]
        want = self.fraction_map(f, x)
        plain = Polynomial(want)
        p = _IntegerPolynomial(f, x)
        assert sorted(p._lowest_terms()) == sorted(
            (j, c.numerator, c.denominator) for j, c in want.items())
        s, terms = p._scaled_terms()
        assert type(s) is int and s > 0 and all(type(t) is int for t in terms.values())
        assert {j: Fraction(t, s) for j, t in terms.items()} == want
        assert p.degree == plain.degree == len(f) - 1
        assert p.is_monic == plain.is_monic == (want[len(f) - 1] == 1)
        assert p._map is None  # none of the above reads the map
        for point in (Fraction(-7, 3), Fraction(1, 2), 0, 5):
            assert p.evaluate_exact(point) == plain.evaluate_exact(point)
        assert p.terms == want
        assert p == plain and hash(p) == hash(plain)

    @pytest.mark.parametrize("kind", ["fraction map", "zero", "basis P_k", "eigenpolynomial"])
    def test_every_polynomial_hands_out_integers(self, kind):
        p = {
            "fraction map": lambda: Polynomial({0: Fraction(-3, 4), 2: Fraction(5, 6), 3: 2}),
            "zero": Polynomial,
            "basis P_k": lambda: orthogonal_polynomials(
                big_weight(BigJacobiParams(Fraction(1, 2), 2, Fraction(1, 3))), 6)[6],
            "eigenpolynomial": lambda: monic_eigenpolynomial(build(OperatorParams(
                nu0=Fraction(1, 3), mu=Fraction(2, 5), tau1=Fraction(-5, 3),
                eta=Fraction(7, 4))), 6).poly,
        }[kind]()
        s, terms = p._scaled_terms()
        assert type(s) is int and s > 0
        assert all(type(t) is int and t for t in terms.values())
        assert {j: Fraction(t, s) for j, t in terms.items()} == p.terms


class TestSerialization:
    def test_json_round_trip(self):
        p = lp({-2: Fraction(1, 3), 0: -2, 5: Fraction(7, 2)})
        assert LaurentPoly.from_json(p.to_json()) == p

    def test_json_is_exponent_ascending(self):
        p = lp({3: 1, -1: 2})
        obj = p.to_json_obj()
        assert [rec["exponent"] for rec in obj] == [-1, 3]
        assert obj[0] == {"exponent": -1, "numerator": 2, "denominator": 1}
