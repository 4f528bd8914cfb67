import random
from fractions import Fraction

import pytest

from dunkl_jacobi import (
    BigJacobiParams,
    LaurentPoly,
    NegativePowerResidue,
    OperatorParams,
    Polynomial,
    apply_raw,
    big_operator,
    build,
    check_nondegenerate,
    degree_conditions,
    eigenvalue,
    kappa_coefficients,
    subleading_coefficients,
    verify_degree_conditions,
)

from _helpers import random_nondegenerate_params, random_params, random_rational
from _oracles import kappa_closed_form, nondegenerate_scan

BIG_00_HALF = big_operator(BigJacobiParams(0, 0, Fraction(1, 2)))


class TestBuild:
    def test_zero_params(self):
        op = build(OperatorParams())
        assert op.F.is_zero and op.G0.is_zero and op.G1.is_zero

    def test_big_family_coefficients(self):
        op = build(BIG_00_HALF)
        assert op.G1 == LaurentPoly({1: 2, 0: -1, -1: -1})
        assert op.G0.is_zero
        assert op.F == LaurentPoly({-2: Fraction(-1, 2), 0: -1})

    def test_mu_only(self):
        op = build(OperatorParams(mu=1))
        assert op.F == LaurentPoly({-3: -1})
        assert op.G0 == LaurentPoly({-2: 1})
        assert op.G1 == LaurentPoly({-2: -1})


class TestNondegeneracy:
    def test_equal_taus_rejected(self):
        assert not check_nondegenerate(OperatorParams(tau0=1, tau1=1), 0)
        assert not check_nondegenerate(OperatorParams(tau0=1, tau1=-1), 0)

    def test_big_family_passes(self):
        assert check_nondegenerate(BIG_00_HALF, 10)

    def test_violating_eta(self):
        # 2*eta + (2k+1)(tau0 - tau1) hits zero at k = 0 for eta = 1.
        assert not check_nondegenerate(OperatorParams(tau0=0, tau1=2, eta=1), 1)
        # eta = 3/2 gives 3 - 2(2k+1), odd, never zero.
        assert check_nondegenerate(OperatorParams(tau0=0, tau1=2, eta=Fraction(3, 2)), 50)

    def test_matches_exhaustive_scan(self):
        rng = random.Random(23)
        cases = [(random_params(rng), rng.randint(0, 12)) for _ in range(50)]
        # and a grid of eta / (tau0 - tau1) through every odd and even integer
        # near the window 1..2N+1, its edges, half-integers and tau1 = +-tau0
        taus = [Fraction(t, 2) for t in range(-4, 5)] + [Fraction(-7, 3), Fraction(5, 6)]
        etas = [Fraction(e, 4) for e in range(-24, 25)] + [Fraction(-35, 3), Fraction(7, 9)]
        cases += [(OperatorParams(tau0=tau0, tau1=tau1, eta=eta), N)
                  for tau0 in taus for tau1 in taus for eta in etas for N in (0, 1, 5, 11)]
        failing = 0
        for p, N in cases:
            expected = nondegenerate_scan(p, N)
            assert check_nondegenerate(p, N) == expected, (p, N)
            failing += not expected and p.tau1 not in (p.tau0, -p.tau0)
        assert failing > 0


class TestEigenvalue:
    def test_zero_at_zero(self):
        rng = random.Random(1)
        for _ in range(10):
            assert eigenvalue(random_params(rng), 0) == 0

    def test_big_values(self):
        assert eigenvalue(BIG_00_HALF, 2) == 4
        assert eigenvalue(BIG_00_HALF, 1) == -4


class TestApply:
    def test_annihilates_constants(self):
        rng = random.Random(2)
        for _ in range(20):
            op = build(random_params(rng))
            assert op.apply(Polynomial.one()).is_zero

    def test_big_on_x(self):
        # exact expansion of 2xF - G1 (G0 = 0)
        q = build(BIG_00_HALF).apply(Polynomial.monomial(1))
        assert q == Polynomial({1: -4, 0: 1})

    def test_big_on_x_squared(self):
        q = build(BIG_00_HALF).apply(Polynomial.monomial(2))
        assert q == Polynomial({2: 4, 1: -2, 0: -2})

    def test_leading_coefficient_law(self):
        rng = random.Random(31)
        for _ in range(30):
            p = random_nondegenerate_params(rng, 20)
            op = build(p)
            for n in range(0, 21):
                q = op.apply(Polynomial.monomial(n))
                lam = eigenvalue(p, n)
                if n == 0:
                    assert q.is_zero
                else:
                    assert q.degree == n
                    assert q.leading_coefficient == lam

    def test_linearity(self):
        rng = random.Random(37)
        for _ in range(25):
            op = build(random_params(rng))
            a, b = random_rational(rng), random_rational(rng)
            p = Polynomial({rng.randint(0, 6): random_rational(rng) for _ in range(3)})
            q = Polynomial({rng.randint(0, 6): random_rational(rng) for _ in range(3)})
            combo = Polynomial.from_laurent(a * p + b * q)
            assert op.apply(combo) == a * op.apply(p) + b * op.apply(q)

    def test_odd_polynomial_reduction(self):
        # For odd p the action collapses to 2 F p + (G0 - G1) p'.
        rng = random.Random(41)
        for _ in range(25):
            op = build(random_params(rng))
            p = LaurentPoly({2 * rng.randint(0, 3) + 1: random_rational(rng)
                             for _ in range(3)})
            expected = 2 * op.F * p + (op.G0 - op.G1) * p.differentiate()
            got = apply_raw(op.F, -op.F, op.G0, op.G1, Polynomial.from_laurent(p))
            assert got == expected

    def test_raw_out_of_family_leaves_negative_powers(self):
        # F1 != -F0 keeps the 1/x^3 term alive on even monomials.
        f = LaurentPoly({-3: 1})
        out = apply_raw(f, f, LaurentPoly.zero(), LaurentPoly.zero(),
                        Polynomial.monomial(2))
        assert out.valuation < 0

    def test_apply_rejects_out_of_family(self):
        from dunkl_jacobi import DunklOperator

        bad = DunklOperator(F=LaurentPoly({-3: 1}), G0=LaurentPoly.zero(),
                            G1=LaurentPoly({-4: 1}), params=None)
        with pytest.raises(NegativePowerResidue):
            bad.apply(Polynomial.monomial(3))

    def test_apply_requires_polynomial(self):
        op = build(BIG_00_HALF)
        with pytest.raises(ValueError):
            op.apply(LaurentPoly({-1: 1}))


class TestDegreeConditions:
    def test_built_operators_pass(self):
        rng = random.Random(43)
        for _ in range(25):
            assert verify_degree_conditions(build(random_params(rng))).passed

    def test_zero_operator_passes(self):
        rep = verify_degree_conditions(build(OperatorParams()))
        assert rep.passed and rep.q1.is_zero and rep.q2.is_zero and rep.q3.is_zero

    def test_g0_with_cubic_pole_fails(self):
        op = build(BIG_00_HALF)
        rep = degree_conditions(op.F, op.G0 + LaurentPoly({-3: 1}), op.G1)
        assert not rep.passed and not rep.ok2

    def test_seeded_out_of_family_corpus(self):
        rng = random.Random(47)
        for _ in range(20):
            op = build(random_params(rng))
            delta = LaurentPoly({-rng.randint(3, 6): random_rational(rng, nonzero=True)})
            which = rng.randrange(3)
            f, g0, g1 = op.F, op.G0, op.G1
            if which == 0:
                g0 = g0 + delta
            elif which == 1:
                g1 = g1 + delta
            else:
                f = f + delta
            assert not degree_conditions(f, g0, g1).passed


class TestKappa:
    def test_degree_one(self):
        k1, k2, k3 = kappa_coefficients(build(BIG_00_HALF), 1)
        assert (k1, k2, k3) == (1, 0, 0)

    def test_degree_two(self):
        k1, k2, k3 = kappa_coefficients(build(BIG_00_HALF), 2)
        assert (k1, k2, k3) == (-2, -2, 0)

    def test_matches_closed_form(self):
        rng = random.Random(53)
        for _ in range(30):
            p = random_params(rng)
            op = build(p)
            n = rng.randint(1, 12)
            assert kappa_coefficients(op, n) == kappa_closed_form(p, n)

    def test_at_most_three_subleading_terms(self):
        rng = random.Random(59)
        for _ in range(40):
            op = build(random_params(rng))
            n = rng.randint(1, 15)
            drops = set(subleading_coefficients(op, n))
            assert drops <= {1, 2, 3}


class TestParamsSerialization:
    def test_json_round_trip(self):
        p = OperatorParams(mu=Fraction(1, 3), tau1=2, eta=Fraction(-7, 2))
        assert OperatorParams.from_json(p.to_json()) == p
