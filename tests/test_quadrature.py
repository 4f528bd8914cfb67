import gc
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dunkl_jacobi import (
    BigJacobiParams,
    GramMatrix,
    NonIntegrable,
    OutOfFloatRange,
    Polynomial,
    UnsupportedWeight,
    big_operator,
    big_weight,
    build,
    classify,
    connection_coefficients,
    eigen_defects,
    eigen_sequence,
    gram_matrix,
    inner_product,
    little_weight,
    moment,
    orthogonal_polynomials,
    quadrature_rule,
    recurrence_coefficients,
    scale_params,
    solve_pearson,
    symmetry_block,
    symmetry_residual,
)

from dunkl_jacobi import DegenerateSpectrum
from dunkl_jacobi import quadrature as quad_mod
from dunkl_jacobi.dunkl import OperatorBand
from dunkl_jacobi.laurent import LaurentPoly, _IntegerPolynomial
from dunkl_jacobi.weights import _positive_family_weight

from _helpers import GOLDEN_FAMILIES, NEAR_BOUNDARY_FAMILIES, RECURRENCE_FAMILIES
from _oracles import (
    connection_rows_reference,
    gauss_jacobi_mp,
    golub_welsch_rule,
    jacobi_recurrence,
    little_moment_closed_form,
    p_basis_expansion,
    recurrence_polynomials,
    reference_big_integral,
    reference_little_integral,
    three_term_remainders,
)

HALF = Fraction(1, 2)
W_LITTLE_10 = little_weight(1, 0)  # w = x + 1 on [-1, 1]
WIDE_LONGDOUBLE = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


class TestRule:
    def test_nodes_interior_weights_positive(self):
        for w in (W_LITTLE_10, big_weight(BigJacobiParams(HALF, 2, Fraction(3, 4)))):
            rule = quadrature_rule(w, 30)
            assert len(rule.nodes) == 60
            assert all(wt > 0 for wt in rule.weights)
            assert all(w.contains_interior(x) for x in rule.nodes)

    @pytest.mark.parametrize("w", [big_weight(BigJacobiParams(HALF, -HALF, Fraction(3, 4))),
                                   little_weight(HALF, -HALF)])
    def test_no_warning_when_jacobi_exponents_sum_to_minus_one(self, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rule = quadrature_rule(w, 20)
        assert all(wt > 0 for wt in rule.weights)

    # Worst relative errors (nodes, weights) at order 40 against the 40-digit
    # rule, measured on x86-64 with numpy 2.4, scipy 1.17 and mpmath 1.3:
    # the rule's start nodes come from numpy's eigvalsh, the 40-digit rule's
    # from scipy's roots_jacobi.  The narrow figures are simulated, not
    # measured on such a platform: they ran the same code on x86-64 with
    # float64 in place of np.longdouble, as on platforms where the two are
    # one type and the Newton step gains nothing.  libm and LAPACK builds
    # differ between platforms, so replace them with figures measured on
    # arm64 (the macos-14 CI leg) rather than widening them by guesswork.
    # Each tolerance is about ten times its figure, except narrow (1, 0, 0),
    # which keeps its earlier, tighter tolerances (about five times its
    # weight figure): tolerances only tighten.
    #   (1, 1, 1/2)             wide 9.8e-17, 1.0e-16   narrow 1.3e-16, 5.1e-14
    #   (1/2, 2, 1/4)           wide 8.9e-17, 4.9e-16   narrow 2.3e-16, 1.2e-14
    #   (-99/100, 0, 1/2)       wide 1.0e-16, 3.8e-15   narrow 1.2e-16, 1.6e-13
    #   (1, 0, 0)               wide 1.1e-16, 7.0e-16   narrow 3.0e-14, 6.4e-14
    #   (2, 1/2, 0)             wide 1.0e-16, 7.1e-16   narrow 4.1e-15, 1.0e-14
    #   (1, 1, 99999/100000)    wide 7.9e-17, 2.3e-16   narrow 9.5e-17, 5.1e-14
    #   (7/4, -2/3, 3/5)        wide 1.3e-16, 2.0e-16   narrow 1.3e-16, 7.2e-14
    @pytest.mark.parametrize("alpha, beta, c, wide, narrow", [
        (1, 1, HALF, (1e-15, 1e-15), (1e-15, 5e-13)),
        (HALF, 2, Fraction(1, 4), (1e-15, 5e-15), (3e-15, 1.2e-13)),
        (Fraction(-99, 100), 0, HALF, (1e-15, 4e-14), (1e-15, 2e-12)),
        (1, 0, 0, (1e-15, 7e-15), (3e-13, 3e-13)),
        (2, HALF, 0, (1e-15, 7e-15), (3e-14, 1e-13)),
        (1, 1, Fraction(99999, 100000), (1e-15, 2.5e-15), (1e-15, 5e-13)),
        (Fraction(7, 4), Fraction(-2, 3), Fraction(3, 5), (1.5e-15, 2e-15), (1.5e-15, 7e-13)),
    ])
    def test_rule_matches_40_digit_mpmath_rule(self, alpha, beta, c, wide, narrow):
        mpmath = pytest.importorskip("mpmath")
        from scipy.special import roots_jacobi

        w = little_weight(alpha, beta) if c == 0 else big_weight(BigJacobiParams(alpha, beta, c))
        alpha, beta, c, d = w.normal_form
        a, b = (alpha - 1) / 2, (beta - 1) / 2
        with mpmath.workdps(40):
            mp = mpmath.mp
            t, wj = gauss_jacobi_mp(40, a, b, roots_jacobi(40, float(a), float(b))[0])
            a, b, c, d = (mp.mpf(q.numerator) / q.denominator for q in (a, b, c, d))
            # y = x^2 on [c^2, d^2]; the pair +-x carries v (d +- x)(x -+ c)/(2x)
            lo, hi = c * c, d * d
            half = (hi - lo) / 2
            x = [mp.sqrt(half * ti + (hi + lo) / 2) for ti in t]
            v = [wi * half ** (a + b + 1) for wi in wj]
            nodes = [-xi for xi in x[::-1]] + x
            weights = ([vi * (d - xi) * (xi + c) / (2 * xi) for vi, xi in zip(v, x)][::-1]
                       + [vi * (xi + d) * (xi - c) / (2 * xi) for vi, xi in zip(v, x)])
            rule = quadrature_rule(w, 40)

            def worst(got, ref):
                return float(max(abs((g - r) / r) for g, r in zip(got, ref)))

            node_err, weight_err = worst(rule.nodes, nodes), worst(rule.weights, weights)
        node_tol, weight_tol = wide if WIDE_LONGDOUBLE else narrow
        assert node_err <= node_tol and weight_err <= weight_tol

    @pytest.mark.parametrize("c", [Fraction(99, 100), Fraction(99999, 100000)])
    def test_negative_c_rule_is_the_mirror_image(self, c):
        # scaling x by -1 gives the normal form (alpha, beta, -c, -1); its
        # rule must be the positive-c rule reflected, not lose x + c to
        # cancellation next to the inner endpoint
        params = BigJacobiParams(1, 1, c)
        neg = solve_pearson(build(scale_params(big_operator(params), 1, -1)))
        assert neg.normal_form[2:] == (-c, -1)
        rule, mirror = quadrature_rule(big_weight(params), 40), quadrature_rule(neg, 40)
        assert mirror.nodes == tuple(-x for x in reversed(rule.nodes))
        assert mirror.gaps == tuple(reversed(rule.gaps))
        worst = max(abs(a / b - 1) for a, b in zip(mirror.weights, reversed(rule.weights)))
        assert worst <= 1e-15

    @pytest.mark.parametrize("a, b", [(Fraction(-199, 200), -HALF), (HALF, -HALF), (0, 0)])
    @pytest.mark.parametrize("order", [1, 2, 3, 40, 90])
    def test_nodes_match_tridiagonal_eigensolve(self, order, a, b):
        # numpy's eigvalsh start and one Newton step against scipy's
        # eigh_tridiagonal on the textbook Jacobi matrix (measured worst
        # 4.4e-16 at these orders, wide and narrow longdouble alike)
        a, b = Fraction(a), Fraction(b)
        t, weights = quad_mod._gauss_jacobi_refined(order, a, b)
        ref, _ = golub_welsch_rule(jacobi_recurrence(order, a, b), 1.0)
        assert np.max(np.abs(t.astype(np.float64) - ref)) <= 1e-15
        assert np.all(np.diff(t) > 0) and np.all(weights > 0)

    @pytest.mark.parametrize("a, b", [(0, 0), (HALF, -HALF), (Fraction(-199, 200), Fraction(-1, 2)),
                                      (Fraction(-1, 4), Fraction(-3, 4)), (Fraction(7, 3), 2)])
    def test_order_one_weight_is_mu0(self, a, b):
        # one node, the zero of P_1, and the Christoffel sum is q_0^2 = 1
        t, weights = quad_mod._gauss_jacobi_refined(1, Fraction(a), Fraction(b))
        mu0 = 2.0 ** float(a + b + 1) * math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(a + b + 2)
        assert float(weights[0]) == pytest.approx(mu0, rel=1e-14)
        assert float(t[0]) == pytest.approx(float((b - a) / (a + b + 2)), rel=1e-15, abs=1e-18)

    @pytest.mark.parametrize("a, b", [(Fraction(0), Fraction(-1) + Fraction(1, 2_000_000)),
                                      (Fraction(-1) + Fraction(1, 1_000_000), Fraction(3, 2))])
    def test_mu0_matches_mpmath_next_to_minus_one(self, a, b):
        # mu_0 = 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2); a + 1, b + 1
        # and a + b + 2 are formed exactly, then rounded: lgamma(float(b) + 1)
        # was off by 8.2e-11 and 2.9e-11 here, from the rounding of b alone
        mpmath = pytest.importorskip("mpmath")
        weights = quad_mod._gauss_jacobi_refined(1, a, b)[1]  # order 1: mu_0 itself
        with mpmath.workdps(40):
            def mp(q):
                return mpmath.mpf(q.numerator) / q.denominator

            ref = (mpmath.mpf(2) ** mp(a + b + 1) * mpmath.gamma(mp(a + 1))
                   * mpmath.gamma(mp(b + 1)) / mpmath.gamma(mp(a + b + 2)))
            err = abs(mpmath.mpf(float(weights[0])) / ref - 1)
        assert err <= 1e-14

    @pytest.mark.parametrize("normal_form, name", [
        ((3000, 1, HALF, 1), "mu_0"),  # 2^1500.5 / 1500.5
        ((3000, 3000, 1, 2), "half ** (a + b + 1)"),  # 1.5^3000 on [1, 2]
        (("1e300", 1, HALF, 1), "mu_0"),
        (("1e400", 1, HALF, 1), "a + b + 1"),  # the exponent itself is beyond float64
    ])
    def test_constant_beyond_float_range_is_an_error(self, normal_form, name, recwarn):
        w = _positive_family_weight(*map(Fraction, normal_form))
        with pytest.raises(OutOfFloatRange, match=f"constant {re.escape(name)} overflows"):
            quadrature_rule(w, 21)
        assert [str(warning.message) for warning in recwarn] == []

    def test_each_request_builds_its_rule(self, monkeypatch):
        # the weight keeps no rules: every request builds one, and a rebuilt
        # rule, on the weight or on an equal one built apart, is the same rule
        calls = []
        real = quad_mod._gauss_jacobi_refined
        monkeypatch.setattr(quad_mod, "_gauss_jacobi_refined",
                            lambda n, a, b: calls.append(n) or real(n, a, b))
        params = BigJacobiParams(Fraction(3, 7), Fraction(5, 9), Fraction(2, 7))
        w, twin = big_weight(params), big_weight(params)
        rules = [quadrature_rule(w, n) for n in (20, 30, 20, 30)]
        assert calls == [20, 30, 20, 30]
        assert rules[2] == rules[0] and rules[3] == rules[1]
        assert all(rule.target is w for rule in rules)
        again = quadrature_rule(twin, 20)
        assert calls == [20, 30, 20, 30, 20]
        assert again.target is twin and again == rules[0]

    def test_certify_frees_its_weight(self, monkeypatch):
        # what certify leaves on the weight, its closed-form recurrence, does
        # not refer back to it, so with the cycle collector off the weight
        # goes when certify returns
        refs = []
        real = quad_mod.big_weight

        def weight(params):
            w = real(params)
            refs.append(weakref.ref(w))
            return w

        monkeypatch.setattr(quad_mod, "big_weight", weight)
        gc.collect()
        gc.disable()
        try:
            checks = quad_mod.certify(BigJacobiParams(1, 1, HALF), 200)
            (ref,) = refs
            assert ref() is None
        finally:
            gc.enable()
        assert all(check.passed for check in checks)

    def test_json_export(self):
        rule = quadrature_rule(W_LITTLE_10, 5)
        obj = json.loads(rule.to_json())
        assert obj["order"] == 5 and obj["family"] == "little"
        assert len(obj["nodes"]) == 10 == len(obj["weights"])

    def test_exactness_degree(self):
        # order n integrates y-degree 2n-1, i.e. x-degree ~4n-2, exactly
        w = little_weight(HALF, HALF)
        for n in range(0, 12):
            lhs = inner_product(w, Polynomial.monomial(n), Polynomial.one(), order=8)
            rhs = little_moment_closed_form(HALF, HALF, n)
            assert lhs == pytest.approx(rhs, rel=1e-13)


class TestInnerProduct:
    def test_little_simple_values(self):
        one, x = Polynomial.one(), Polynomial.monomial(1)
        assert inner_product(W_LITTLE_10, one, one) == pytest.approx(2.0, rel=1e-14)
        assert inner_product(W_LITTLE_10, one, x) == pytest.approx(2 / 3, rel=1e-14)
        p1 = Polynomial({1: 1, 0: Fraction(-1, 3)})
        assert abs(inner_product(W_LITTLE_10, one, p1)) <= 1e-14

    def test_rejects_sign_indefinite_weight(self):
        from dunkl_jacobi import OperatorParams, solve_pearson

        w = solve_pearson(build(OperatorParams(tau1=2, xi=-1, eta=3)))
        with pytest.raises(UnsupportedWeight):
            inner_product(w, Polynomial.one(), Polynomial.one())

    def test_rejects_nonintegrable_exponents(self):
        from dunkl_jacobi import OperatorParams, scale_params, solve_pearson

        # scaled generic operator whose recovered alpha drops below -1
        base = big_operator(BigJacobiParams(1, 1, HALF))
        bad = solve_pearson(build(scale_params(
            OperatorParams(*base.astuple()[:7], Fraction(5), Fraction(3)),
            Fraction(1), Fraction(1))))
        with pytest.raises((NonIntegrable, UnsupportedWeight)):
            inner_product(bad, Polynomial.one(), Polynomial.one())


class TestMoments:
    @pytest.mark.parametrize("alpha", [0, HALF, 1, 2])
    @pytest.mark.parametrize("beta", [0, HALF, 1, 2])
    def test_little_moments_match_beta_oracle(self, alpha, beta):
        w = little_weight(alpha, beta)
        for n in range(0, 41):
            got = moment(w, n)
            ref = little_moment_closed_form(alpha, beta, n)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_big_moments_match_doubling_oracle(self):
        for params in (BigJacobiParams(0, 0, HALF),
                       BigJacobiParams(2, HALF, Fraction(1, 4)),
                       BigJacobiParams(1, 2, Fraction(3, 4))):
            w = big_weight(params)
            one = Polynomial.one()
            for n in range(0, 16):
                got = inner_product(w, one, Polynomial.monomial(n))
                ref = reference_big_integral(params.alpha, params.beta, params.c,
                                             one, Polynomial.monomial(n))
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_little_inner_products_match_doubling_oracle(self):
        w = little_weight(HALF, 2)
        rng = random.Random(101)
        for _ in range(10):
            p = Polynomial({rng.randint(0, 6): rng.randint(-3, 3) for _ in range(3)})
            q = Polynomial({rng.randint(0, 6): rng.randint(-3, 3) for _ in range(3)})
            got = inner_product(w, p, q)
            ref = reference_little_integral(HALF, 2, p, q)
            assert got == pytest.approx(ref, rel=1e-11, abs=1e-12)

    # tolerance about ten times the worst figure measured (x86-64, scipy
    # 1.17): 5.0e-15, 1.13e-13 and 1.67e-11; it grows as alpha nears -1
    @pytest.mark.parametrize("alpha,beta,c,tol", [
        (1, 1, HALF, 5e-14),
        (HALF, 2, Fraction(1, 4), 1e-12),
        (Fraction(-99, 100), 0, HALF, 2e-10),
    ])
    def test_moments_match_golub_welsch_rule(self, alpha, beta, c, tol):
        # a 40-node Gauss rule from the closed-form recurrence, not through
        # y = x^2, integrates x^k exactly for k < 80
        w = big_weight(BigJacobiParams(alpha, beta, c))
        nodes, weights = golub_welsch_rule(recurrence_coefficients(w, 39), moment(w, 0))
        moments = [moment(w, k) for k in range(40)]
        worst = max(abs(math.fsum(weights * nodes ** k) - m) / abs(m)
                    for k, m in enumerate(moments))
        assert worst <= tol

    def test_moment_parity_consistency(self):
        # the left-interval contribution maps onto the right interval via
        # x -> -x, so single-interval integration of
        # u^n [w(u) + (-1)^n w(-u)] must match the two-interval moment
        from _oracles import _gj_interval, _poly_floats
        from dunkl_jacobi import LaurentPoly

        for params in (BigJacobiParams(1, 1, HALF), BigJacobiParams(HALF, 2, Fraction(1, 4))):
            a, b, c = params.alpha, params.beta, params.c
            w = big_weight(params)
            af, bf, cf = float(a), float(b), float(c)
            # w(u)  = (u+1)(u-c) E(u),  w(-u) = (1-u)(u+c) E(u) on (c,1)
            plus = LaurentPoly({1: 1, 0: 1}) * LaurentPoly({1: 1, 0: -c})
            minus = LaurentPoly({1: -1, 0: 1}) * LaurentPoly({1: 1, 0: c})
            for n in range(0, 12):
                combo = plus + (minus if n % 2 == 0 else -minus)
                integrand = LaurentPoly({n: 1}) * combo
                coeffs = _poly_floats(integrand)
                smooth = lambda u: (1 + u) ** ((af - 1) / 2) * (u + cf) ** ((bf - 1) / 2)
                single = _gj_interval(coeffs, (af - 1) / 2, (bf - 1) / 2,
                                      cf, 1.0, smooth, 200)
                full = moment(w, n)
                assert single == pytest.approx(full, rel=1e-12, abs=1e-13)


class TestGram:
    def test_eigen_gram_diagonal(self):
        op = build(big_operator(BigJacobiParams(1, 0, 0)))
        eigs = eigen_sequence(op, 1)
        g = gram_matrix(W_LITTLE_10, [e.poly for e in eigs])
        assert g.entries[0, 0] == pytest.approx(2.0, rel=1e-13)
        h1 = g.entries[1, 1]
        assert h1 > 0
        assert abs(g.entries[0, 1]) <= 1e-12 * math.sqrt(2.0 * h1)

    def test_monomial_gram_is_hankel_of_moments(self):
        w = little_weight(HALF, 1)
        monos = [Polynomial.monomial(k) for k in range(0, 5)]
        g = gram_matrix(w, monos)
        for i in range(5):
            for j in range(5):
                assert g.entries[i, j] == pytest.approx(
                    little_moment_closed_form(HALF, 1, i + j), rel=1e-12
                )
        np.linalg.cholesky(g.entries)  # positive definite

    def test_records_its_rule_order(self):
        w = big_weight(BigJacobiParams(1, 1, HALF))
        for N, order, expected in ((3, None, 12), (15, None, 18), (16, None, 19),
                                   (30, None, 26), (3, 7, 7), (30, 50, 50)):
            assert gram_matrix(w, orthogonal_polynomials(w, N), order=order).order == expected
        assert GramMatrix(entries=np.eye(2), basis=()).order is None

    def test_single_entry(self):
        g = gram_matrix(W_LITTLE_10, [Polynomial.one()])
        assert g.entries.shape == (1, 1)
        assert g.entries[0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_orthogonality_sample_grid(self):
        for params in (BigJacobiParams(2, 2, Fraction(3, 4)),
                       BigJacobiParams(0, HALF, Fraction(1, 4))):
            op = build(big_operator(params))
            eigs = eigen_sequence(op, 12)
            g = gram_matrix(big_weight(params), [e.poly for e in eigs])
            assert g.max_relative_off_diagonal() <= 1e-10
            assert all(g.normalization(n) > 0 for n in range(13))

    def test_matmul_matches_fsum_inner_products(self):
        # per-pair fsum is the reference; with positive weights Cauchy-Schwarz
        # bounds the matmul's summation error by ~n_nodes * eps * sqrt(h_i h_j)
        params = BigJacobiParams(1, 1, HALF)
        w = big_weight(params)
        polys = [e.poly for e in eigen_sequence(build(big_operator(params)), 10)]
        g = gram_matrix(w, polys, order=40).entries
        bound = len(quadrature_rule(w, 40).nodes) * np.finfo(float).eps
        for i in range(11):
            for j in range(i, 11):
                ref = inner_product(w, polys[i], polys[j], order=40)
                assert abs(g[i, j] - ref) <= bound * math.sqrt(g[i, i] * g[j, j])

    @pytest.mark.parametrize("params", [BigJacobiParams(HALF, 2, Fraction(1, 4)),
                                        BigJacobiParams(1, HALF, 0)])
    @pytest.mark.parametrize("k", [HALF, Fraction(-2, 3), Fraction(-1)])
    def test_rescaled_weight_matches_exact_node_values(self, params, k):
        # normal form d = 1/k != 1: the node table stretches the closed-form basis
        op = build(scale_params(big_operator(params), 1, k))
        w = solve_pearson(op)
        assert w.normal_form[3] == 1 / k
        eigs = [e.poly for e in eigen_sequence(op, 11)]
        assert orthogonal_polynomials(w, 11) == eigs
        rng = random.Random(131)
        polys = eigs + [Polynomial.monomial(j) for j in range(12)] + [
            Polynomial({j: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for j in range(12)})
            for _ in range(4)
        ]
        g = gram_matrix(w, polys, order=40).entries
        rule = quadrature_rule(w, 40)
        exact = [[float(p.evaluate_exact(Fraction(x))) for x in rule.nodes] for p in polys]
        h = [math.fsum(wt * v * v for wt, v in zip(rule.weights, row)) for row in exact]
        for i in range(len(polys)):
            for j in range(i, len(polys)):
                ref = math.fsum(wt * a * b for wt, a, b in zip(rule.weights, exact[i], exact[j]))
                assert abs(g[i, j] - ref) <= 1e-13 * math.sqrt(h[i] * h[j])

    def test_zero_normalization_counts_as_unverified(self):
        g = np.array([[4.0, 1e-12, 0.0], [1e-12, 1.0, 1e-300], [0.0, 1e-300, 0.0]])
        assert GramMatrix(entries=g[:2, :2], basis=()).max_relative_off_diagonal() == 5e-13
        assert GramMatrix(entries=g, basis=()).max_relative_off_diagonal() == math.inf
        assert GramMatrix(entries=g[:1, :1], basis=()).max_relative_off_diagonal() == 0.0

    @pytest.mark.parametrize("N", [40, 60])
    def test_underflowing_normalizations_are_checked_in_the_unit_frame(self, N):
        # the monic h_n fall to about 1e-222 at N = 40 and to 0.0 by N = 60
        # here, but the unit frame's <q_i, q_j> keep h_0 on the diagonal, so
        # every pair is checked and the figure is finite and within 1e-10
        w = big_weight(BigJacobiParams(1, 1, Fraction(99999, 100000)))
        g = gram_matrix(w, orthogonal_polynomials(w, N))
        assert g.normalization(40) < 1e-200 and (N < 60 or g.normalization(60) == 0.0)
        off = g.max_relative_off_diagonal()
        assert math.isfinite(off) and off <= 1e-10
        unit = np.diag(g.unit)
        assert np.all(np.abs(unit / unit[0] - 1) <= 1e-12)
        i, j = np.triu_indices(N + 1, 1)
        root = np.sqrt(unit)
        assert off == (np.abs(g.unit[i, j]) / (root[i] * root[j])).max()

    @pytest.mark.parametrize("N", [40, 200, 500])
    def test_orthogonality_near_c_one(self, N):
        w = big_weight(BigJacobiParams(1, 1, Fraction(99999, 100000)))
        assert gram_matrix(w, orthogonal_polynomials(w, N)).max_relative_off_diagonal() <= 1e-10

    def test_entries_are_the_scaled_unit_frame(self):
        # entries keep meaning <p_i, p_j>: s_i s_j <q_i, q_j>, symmetric bit
        # for bit, and in the monomial rows the unit frame is the entries
        w = big_weight(BigJacobiParams(HALF, 2, Fraction(1, 4)))
        polys = orthogonal_polynomials(w, 8) + [Polynomial.monomial(k) for k in range(5)]
        g = gram_matrix(w, polys)
        assert np.array_equal(g.entries, g.entries.T)
        s = np.sqrt(np.cumprod([1.0] + [float(u) for _, u in recurrence_coefficients(w, 8)[1:]]))
        assert np.allclose(np.diag(g.entries)[:9], g.unit[0, 0] * s * s, rtol=1e-13, atol=0)
        assert np.array_equal(g.entries[9:, 9:], g.unit[9:, 9:])

    def test_csv_export(self):
        g = gram_matrix(W_LITTLE_10, [Polynomial.one(), Polynomial.monomial(1)])
        text = g.to_csv()
        assert text.splitlines()[0] == "g0,g1"
        assert len(text.splitlines()) == 3


class TestSymmetry:
    def test_matched_pair_small(self):
        params = BigJacobiParams(1, 1, HALF)
        op = build(big_operator(params))
        w = big_weight(params)
        r = symmetry_residual(w, op, Polynomial.monomial(1), Polynomial.monomial(2))
        assert abs(r) <= 1e-10

    def test_antisymmetry_v_equals_w(self):
        params = BigJacobiParams(1, 1, HALF)
        op = build(big_operator(params))
        w = big_weight(params)
        v = Polynomial.monomial(3)
        lv = op.apply(v)
        a = inner_product(w, lv, v)
        b = inner_product(w, v, lv)
        assert a == b  # identical calls, bitwise

    def test_mismatched_weight_breaks_symmetry(self):
        op = build(big_operator(BigJacobiParams(1, 1, HALF)))
        r = symmetry_residual(W_LITTLE_10, op,
                              Polynomial.monomial(1), Polynomial.monomial(2))
        assert abs(r) > 1e-3

    def test_block_rejects_negative_top(self):
        # as moment rejects n < 0: top = -1 is no block, not a 0 x 0 one
        params = BigJacobiParams(1, 1, HALF)
        with pytest.raises(ValueError, match="top must be >= 0"):
            symmetry_block(big_weight(params), build(big_operator(params)), -1)

    def test_random_monomials_grid(self):
        rng = random.Random(103)
        for params in (BigJacobiParams(0, 0, HALF), BigJacobiParams(2, HALF, Fraction(3, 4))):
            op = build(big_operator(params))
            w = big_weight(params)
            for _ in range(8):
                i, j = rng.randint(0, 10), rng.randint(0, 10)
                v, u = Polynomial.monomial(i), Polynomial.monomial(j)
                r = symmetry_residual(w, op, v, u)
                lv_w = inner_product(w, op.apply(v), u)
                v_lw = inner_product(w, v, op.apply(u))
                assert abs(r) <= 1e-10 * (abs(lv_w) + abs(v_lw) + 1.0)

    @pytest.mark.parametrize("alpha, beta, c", GOLDEN_FAMILIES)
    def test_figure_rejects_a_perturbed_operator(self, alpha, beta, c, monkeypatch):
        # The weight stays; alpha, beta or c moves by 1/1000 in the operator
        # that certify builds, so the check reads certify's own figure.  The
        # figure is relative to the Cauchy-Schwarz bound, so h_0 = 2.0e-10 at
        # (1, 1, 99999/100000) hides no perturbation; the smallest figure is
        # 9.9e-5, at (-99/100, 0, 1/2).
        family, real = BigJacobiParams(alpha, beta, c), quad_mod.big_operator
        for i in range(3):
            for step in (Fraction(1, 1000), Fraction(-1, 1000)):
                moved = [alpha, beta, c]
                moved[i] += step
                monkeypatch.setattr(quad_mod, "big_operator",
                                    lambda _: real(BigJacobiParams(*moved)))
                symmetry = quad_mod.certify(family, 20)[3]
                assert symmetry.name == "symmetry" and not symmetry.passed, (i, step)

    @pytest.mark.parametrize("alpha, beta, c", GOLDEN_FAMILIES)
    @pytest.mark.parametrize("N, order", [(0, None), (4, None), (20, None), (24, 40)])
    def test_certify_scores_the_block_symmetry_block_returns(self, alpha, beta, c, N, order,
                                                             monkeypatch):
        family = BigJacobiParams(alpha, beta, c)
        w, op = big_weight(family), build(big_operator(family))
        seen, real = [], quad_mod._symmetry
        monkeypatch.setattr(quad_mod, "_symmetry",
                            lambda *args: seen.append(real(*args)) or seen[-1])
        check = quad_mod.certify(family, N, order)[3]
        (block, figure), = seen
        assert check.detail == f"max_residual={figure:.3e} tol=1e-10"
        top, order = min(N, 10), order or N // 2 + 11
        b = symmetry_block(w, op, top, order)
        assert b.tobytes() == block.tobytes()
        # the figure, with the norms taken off an independent Gram diagonal
        monos = [Polynomial.monomial(k) for k in range(top + 1)]
        g = gram_matrix(w, monos + [op.apply(x) for x in monos], order=order).entries
        norm = np.sqrt(np.diag(g))
        bound = np.outer(norm[:top + 1], norm[top + 1:])
        i, j = np.triu_indices(top + 1, 1)
        bound = bound[i, j] + bound[j, i]
        assert np.all(bound > 0)
        ref = (np.abs(b - b.T)[i, j] / bound).max(initial=0.0)
        assert figure == pytest.approx(ref, rel=1e-12) and figure <= 1e-12

    def test_figure_at_top_zero_is_zero(self):
        # at N = 0 the block is <1, L 1> = 0 alone: there is no pair to measure
        for c in (HALF, Fraction(99999, 100000)):
            symmetry = quad_mod.certify(BigJacobiParams(1, 1, c), 0)[3]
            assert symmetry.passed and symmetry.detail == "max_residual=0.000e+00 tol=1e-10"

    def test_figure_and_block_bits_do_not_follow_blas_threads(self):
        # numpy sums, not a matmul, reduce the block and its norms, so the
        # bits are the same whatever the number of OpenBLAS threads
        code = (
            "import hashlib\n"
            "from fractions import Fraction\n"
            "from dunkl_jacobi import BigJacobiParams, big_operator, big_weight, build\n"
            "from dunkl_jacobi import quadrature as q\n"
            "for c in (Fraction(1, 2), Fraction(99999, 100000)):\n"
            "    family = BigJacobiParams(1, 1, c)\n"
            "    w, op = big_weight(family), build(big_operator(family))\n"
            "    for N in (200, 500):\n"
            "        order = N // 2 + 11  # certify's rule at N\n"
            "        figure = q._symmetry(q.quadrature_rule(w, order), op, 10)[1]\n"
            "        block = q.symmetry_block(w, op, 10, order).tobytes()\n"
            "        print(c, N, figure.hex(), hashlib.sha1(block).hexdigest())\n"
        )
        src = str(Path(quad_mod.__file__).resolve().parents[1])
        outputs = set()
        for threads in ("1", "2", "4"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
            assert len(done.stdout.splitlines()) == 4
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs

    @pytest.mark.parametrize("params", [BigJacobiParams(1, 1, HALF), BigJacobiParams(HALF, 2),
                                        BigJacobiParams(Fraction(-99, 100), 0, HALF)])
    def test_rows_are_the_exact_coefficients_rounded_once(self, params):
        # row m is x^m = sum_j C[m][j] P_j and row 11 + k is L x^k, from the
        # Laurent path, in the same basis: each exact value rounded once
        w, op = big_weight(params), build(big_operator(params))
        C = connection_coefficients(w, 10)
        rows = quad_mod._symmetry_rows(w, op.band(10), 10)
        assert rows.shape == (22, 11)
        for k in range(11):
            image = op.apply(Polynomial.monomial(k)).terms
            exact = [sum((a * C[m][j] for m, a in image.items() if m >= j), Fraction(0))
                     for j in range(11)]
            assert rows[k].tolist() == [float(C[k][j]) if j <= k else 0.0 for j in range(11)]
            assert rows[11 + k].tolist() == [float(v) for v in exact]


class TestBandProof:
    """The band's Bannai-Ito identity and recurrence against the exact residual pass."""

    @pytest.mark.parametrize("alpha, beta, c", GOLDEN_FAMILIES)
    def test_agrees_with_the_exact_residuals(self, alpha, beta, c):
        # the proof at N reads (b_N, u_N), which fix P_(N+1): it is empty
        # exactly when the exact residuals of the built P_0..P_(N+1) are, on
        # the family's operator and on a moved one
        family = BigJacobiParams(alpha, beta, c)
        moved = BigJacobiParams(alpha, beta + Fraction(1, 1000), c)
        for N in (0, 1, 2, 5, 17, 39):
            w = big_weight(family)
            polys = orthogonal_polynomials(w, N + 1)
            for params in (family, moved):
                op = build(big_operator(params))
                proved = quad_mod._band_proof(op, w, N) == []
                assert proved == (eigen_defects(op, polys) == []) == (params is family)

    @pytest.mark.parametrize("alpha, beta, c", [(1, 1, HALF), (HALF, 2, 0),
                                                (Fraction(-99, 100), 0, HALF)])
    @pytest.mark.parametrize("k", [3, 6, 12, 13])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_a_moved_band_entry_is_named_at_its_degree(self, alpha, beta, c, k, i):
        # the entry of x^(k-i) in L x^k moves by 1/M.  L x^k enters the
        # relation first on x^(k-1), as L X x^(k-1), then on the degrees
        # above, to x^(k+2) at most (x^(k+1) on the c = 0 bands, whose
        # x^(k-2) entries are 0), and s_k or t_k: degree k is named, from
        # k - 1 on, with no gap
        N = 12
        w, op = big_weight(BigJacobiParams(alpha, beta, c)), build(
            big_operator(BigJacobiParams(alpha, beta, c)))
        band = op.band(N + 1)
        rows = [list(row) for row in band.rows]
        rows[k][i] += 1
        object.__setattr__(op, "_band", OperatorBand(band.scale, tuple(map(tuple, rows))))
        bad = quad_mod._band_proof(op, w, N)
        assert bad == list(range(k - 1, bad[-1] + 1)) and min(k, N) <= bad[-1] <= k + 2

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    @pytest.mark.parametrize("which", [0, 1])
    def test_a_moved_closed_form_coefficient_is_named_at_n(self, n, which):
        family = BigJacobiParams(Fraction(-99, 100), Fraction(5, 2), Fraction(99999, 100000))
        w, op = big_weight(family), build(big_operator(family))
        assert quad_mod._band_proof(op, w, 12) == []
        coefficients = [list(pair) for pair in quad_mod._coefficients(w, 13)]
        coefficients[n][which] *= 1 + Fraction(1, 10 ** 30)
        object.__setattr__(w, "_coefficients", tuple(map(tuple, coefficients)))
        assert quad_mod._band_proof(op, w, 12) == [n]


class TestRecurrence:
    def test_little_b0_is_moment_ratio(self):
        coeffs = recurrence_coefficients(W_LITTLE_10, 0)
        assert len(coeffs) == 1
        b0, u0 = coeffs[0]
        assert u0 is None
        assert b0 == pytest.approx(1 / 3, rel=1e-12)

    def test_u_positive_and_consistent(self):
        params = BigJacobiParams(1, 1, HALF)
        w = big_weight(params)
        coeffs = recurrence_coefficients(w, 10)
        assert len(coeffs) == 11
        assert all(u > 0 for _, u in coeffs[1:])
        # three-term recurrence actually holds for the exact eigenpolynomials
        op = build(big_operator(params))
        eigs = eigen_sequence(op, 11)
        x = Polynomial.monomial(1)
        for n in range(1, 10):
            b, u = coeffs[n]
            resid = (x * eigs[n].poly) - eigs[n + 1].poly
            approx = {k: float(v) for k, v in resid.terms.items()}
            model = {}
            for k, v in eigs[n].poly.terms.items():
                model[k] = model.get(k, 0.0) + b * float(v)
            for k, v in eigs[n - 1].poly.terms.items():
                model[k] = model.get(k, 0.0) + u * float(v)
            for k in set(approx) | set(model):
                assert approx.get(k, 0.0) == pytest.approx(model.get(k, 0.0),
                                                           rel=1e-9, abs=1e-11)

    def test_exact_u_matches_quadrature_norm_ratios(self):
        params = BigJacobiParams(HALF, 2, Fraction(1, 4))
        w = big_weight(params)
        coeffs = recurrence_coefficients(w, 12)
        assert all(isinstance(b, Fraction) for b, _ in coeffs)
        eigs = eigen_sequence(build(big_operator(params)), 12)
        h = np.diag(gram_matrix(w, [e.poly for e in eigs]).entries)
        for n in range(1, 13):
            assert float(coeffs[n][1]) == pytest.approx(h[n] / h[n - 1], rel=1e-12)

    @pytest.mark.parametrize("alpha, beta, c", RECURRENCE_FAMILIES)
    def test_closed_form_matches_eigen_remainders(self, alpha, beta, c):
        params = BigJacobiParams(alpha, beta, c)
        w = little_weight(alpha, beta) if c == 0 else big_weight(params)
        eigs = eigen_sequence(build(big_operator(params)), 31)
        polys = [e.poly for e in eigs]
        assert recurrence_coefficients(w, 30) == three_term_remainders(polys)
        assert orthogonal_polynomials(w, 31) == polys

    def test_no_underflow_near_c_one(self):
        # monic norms h_n underflow float64 near n = 56 here; u_n does not
        w = big_weight(BigJacobiParams(1, 1, Fraction(99999, 100000)))
        coeffs = recurrence_coefficients(w, 60)
        assert len(coeffs) == 61
        assert all(u > 0 for _, u in coeffs[1:])

    def test_solved_weight_reads_its_normal_form(self):
        params = BigJacobiParams(HALF, 2, Fraction(1, 4))
        solved = solve_pearson(build(big_operator(params)))
        assert recurrence_coefficients(solved, 6) == recurrence_coefficients(big_weight(params), 6)
        rescaled = solve_pearson(build(scale_params(big_operator(params), 1, 2)))
        assert rescaled.normal_form[3] == HALF
        # the support stretched by d = 1/2: b_n scales by d and u_n by d^2
        assert recurrence_coefficients(rescaled, 6) == [
            (HALF * b, None if u is None else HALF * HALF * u)
            for b, u in recurrence_coefficients(solved, 6)]

    def test_recurrence_exact_values(self):
        assert recurrence_coefficients(W_LITTLE_10, 2) == [
            (Fraction(1, 3), None), (Fraction(1, 15), Fraction(2, 9)),
            (Fraction(1, 35), Fraction(6, 25))]


def _family_weight(alpha, beta, c):
    return little_weight(alpha, beta) if c == 0 else big_weight(BigJacobiParams(alpha, beta, c))


def _exact_gram(rule, polys):
    """``sum_k w_k p(x_k) q(x_k)`` with exact node values, and the diagonal."""
    vals = [[float(p.evaluate_exact(Fraction(x))) for x in rule.nodes] for p in polys]
    g = [[math.fsum(wt * a * b for wt, a, b in zip(rule.weights, vi, vj)) for vj in vals]
         for vi in vals]
    return g, [g[i][i] for i in range(len(polys))]


class TestThreeTermTable:
    @pytest.mark.parametrize("alpha, beta, c", RECURRENCE_FAMILIES)
    def test_fraction_free_basis_matches_fraction_recurrence(self, alpha, beta, c):
        nf = _family_weight(alpha, beta, c).normal_form
        ref = recurrence_polynomials(quad_mod._recurrence(nf, 29))
        for n in (0, 1, 30):
            got = orthogonal_polynomials(_family_weight(alpha, beta, c), n)
            assert all(isinstance(p, Polynomial) for p in got)
            assert got == ref[:n + 1]
            assert [p.terms for p in got] == [p.terms for p in ref[:n + 1]]

    @pytest.mark.parametrize("params", [BigJacobiParams(HALF, 2, Fraction(1, 4)),
                                        BigJacobiParams(1, HALF, 0)])
    @pytest.mark.parametrize("k", [HALF, Fraction(-2, 3), Fraction(-1)])
    def test_fraction_free_basis_on_rescaled_weights(self, params, k):
        def weight():
            return solve_pearson(build(scale_params(big_operator(params), 1, k)))

        nf = weight().normal_form
        assert nf[3] == 1 / k
        ref = recurrence_polynomials(quad_mod._recurrence(nf, 29))
        for n in (0, 1, 30):
            assert orthogonal_polynomials(weight(), n) == ref[:n + 1]

    def test_new_weight_carries_no_table(self):
        params = BigJacobiParams(Fraction(3, 7), Fraction(5, 9), Fraction(2, 7))
        first, second = big_weight(params), big_weight(params)
        assert first._coefficients is None and second._coefficients is None
        orthogonal_polynomials(first, 6)
        assert len(first._coefficients) == 6 and second._coefficients is None
        assert first == second and hash(first) == hash(second) and repr(first) == repr(second)

    def test_node_table_reads_the_weight_it_is_given(self):
        # Two equal weights: the recurrence must come from (and grow) the
        # weight passed in, and never fill the other's.
        params = BigJacobiParams(Fraction(3, 7), Fraction(5, 9), Fraction(2, 7))
        older, newer = big_weight(params), big_weight(params)
        gram_matrix(older, [Polynomial.monomial(3)], order=30)
        assert len(older._coefficients) == 4 and newer._coefficients is None
        g = gram_matrix(newer, [Polynomial.monomial(8)], order=30)
        assert len(older._coefficients) == 4 and len(newer._coefficients) == 9
        assert g.entries[0, 0] == pytest.approx(moment(big_weight(params), 16, order=30),
                                                rel=1e-13)

    @pytest.mark.parametrize("steps", [
        (("basis", 5), ("basis", 30)),
        (("basis", 30), ("basis", 5)),
        (("recurrence", 30), ("basis", 5), ("basis", 30)),
        (("basis", 5), ("recurrence", 30), ("recurrence", 5), ("basis", 31)),
    ])
    def test_growth_order_gives_a_fresh_weights_lists(self, steps):
        params = BigJacobiParams(Fraction(3, 4), Fraction(1, 3), Fraction(2, 5))
        grown = big_weight(params)
        read = {"basis": orthogonal_polynomials, "recurrence": recurrence_coefficients}
        for kind, n in steps:
            got = read[kind](grown, n)
            assert got == read[kind](big_weight(params), n)
            got.append(None)  # the caller's list is its own
            assert read[kind](grown, n) == read[kind](big_weight(params), n)

    @pytest.mark.parametrize("alpha, beta, c", RECURRENCE_FAMILIES)
    def test_connection_rows_match_subtraction_expansion(self, alpha, beta, c):
        w = _family_weight(alpha, beta, c)
        rows = connection_coefficients(w, 30)
        basis = orthogonal_polynomials(_family_weight(alpha, beta, c), 30)
        for m in range(31):
            assert rows[m] == p_basis_expansion(Polynomial.monomial(m), basis)

    @pytest.mark.parametrize("params", [BigJacobiParams(HALF, 2, Fraction(1, 4)),
                                        BigJacobiParams(1, HALF, 0)])
    @pytest.mark.parametrize("k", [HALF, Fraction(-2, 3), Fraction(-1)])
    def test_connection_rows_on_rescaled_weights(self, params, k):
        def weight():
            return solve_pearson(build(scale_params(big_operator(params), 1, k)))

        assert weight().normal_form[3] == 1 / k
        rows = connection_coefficients(weight(), 30)
        basis = orthogonal_polynomials(weight(), 30)
        for m in range(31):
            assert rows[m] == p_basis_expansion(Polynomial.monomial(m), basis)

    @pytest.mark.parametrize("alpha, beta, c", RECURRENCE_FAMILIES[::7] + NEAR_BOUNDARY_FAMILIES)
    def test_connection_forms_are_reduced_and_match_fraction_recurrence(self, alpha, beta, c):
        w = _family_weight(alpha, beta, c)
        rows = connection_coefficients(w, 40)
        forms = quad_mod._connection(w, 40)
        assert len(forms) == 41
        for m, (D, v) in enumerate(forms):
            assert D > 0 and math.gcd(D, *v) == 1 and len(v) == m + 1 and v[m] == D
        ref = connection_rows_reference(quad_mod._recurrence(w.normal_form, 40), 40)
        assert rows == ref and all(type(t) is Fraction for row in rows for t in row)

    @pytest.mark.parametrize("steps", [
        (("connection", 5), ("connection", 30)),
        (("connection", 30), ("connection", 5)),
        (("basis", 30), ("connection", 5), ("connection", 30), ("basis", 31)),
        (("connection", 5), ("recurrence", 30), ("basis", 8), ("connection", 31)),
    ])
    def test_connection_growth_gives_a_fresh_weights_rows(self, steps):
        params = BigJacobiParams(Fraction(3, 4), Fraction(1, 3), Fraction(2, 5))
        grown = big_weight(params)
        read = {"basis": orthogonal_polynomials, "recurrence": recurrence_coefficients,
                "connection": connection_coefficients}
        for kind, n in steps:
            got = read[kind](grown, n)
            assert got == read[kind](big_weight(params), n)
            if kind == "connection":
                got[-1].append(None)  # each row is the caller's own
            got.append(None)
            for other in read:
                assert read[other](grown, n) == read[other](big_weight(params), n)

    @pytest.mark.parametrize("alpha, beta, c", RECURRENCE_FAMILIES + NEAR_BOUNDARY_FAMILIES)
    def test_symmetry_block_matches_the_gram_block(self, alpha, beta, c):
        # the block sums in another order than the Gram matmul, so the two
        # agree within gram_matrix's Cauchy-Schwarz bound, n_nodes * eps
        w = _family_weight(alpha, beta, c)
        op = build(big_operator(BigJacobiParams(alpha, beta, c)))
        for top, order in ((10, None), (0, None), (4, None), (7, 30)):
            monos = [Polynomial.monomial(k) for k in range(top + 1)]
            images = [op.apply(x) for x in monos]  # the Laurent path, not the band
            g = gram_matrix(w, monos + images, order=order)
            norm = np.sqrt(np.diag(g.entries))
            bound = 2 * g.order * np.finfo(float).eps * np.outer(norm[:top + 1], norm[top + 1:])
            b = symmetry_block(w, op, top, order=order)
            assert b.shape == (top + 1, top + 1)
            assert np.all(np.abs(b - g.entries[:top + 1, top + 1:]) <= bound)

    @pytest.mark.parametrize("weight", [
        *[lambda f=f: _family_weight(*f) for f in RECURRENCE_FAMILIES + NEAR_BOUNDARY_FAMILIES],
        *[lambda p=p, k=k: solve_pearson(build(scale_params(big_operator(p), 1, k)))
          for p in (BigJacobiParams(HALF, 2, Fraction(1, 4)), BigJacobiParams(1, HALF, 0))
          for k in (HALF, Fraction(-2, 3), Fraction(-1))],
    ])
    def test_node_rows_match_subtraction_expansion(self, weight):
        # Rows other than a P_k are sums of connection rows; the expansion is
        # unique, so each rounds as the subtraction oracle's does, bit for bit,
        # before the row scale is applied.
        w = weight()
        basis = orthogonal_polynomials(weight(), 12)
        rng = random.Random(17)
        polys = [Polynomial.monomial(k) for k in range(13)] + [
            basis[5], basis[12] + Fraction(1, 3), 2 * basis[7], Polynomial.zero(),
            *(Polynomial({j: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                          for j in range(rng.randint(0, 12) + 1)}) for _ in range(6)),
        ]
        rows = np.zeros((len(polys), 13))
        for row, p in zip(rows, polys):
            exact = p_basis_expansion(p, basis)
            row[:len(exact)] = [float(v) for v in exact]
        expansion, units = quad_mod._expansion(w, polys)
        assert np.array_equal(expansion, rows)
        assert (0, 0) in units and (13, 5) in units
        # in the unit frame a P_k is q_k with scale s_k; any other row is its
        # expansion times the s_j, with scale 1
        rule = quadrature_rule(w, 20)
        values, s = quad_mod._node_table(rule, basis)  # the q_j at the nodes, and s_j
        scaled, scales = rows * s, np.ones(len(polys))
        for i, k in units:
            scaled[i], scales[i] = np.eye(13)[k], s[k]
        table, got = quad_mod._node_table(rule, polys)
        assert np.array_equal(table, scaled @ values) and np.array_equal(got, scales)

    @pytest.mark.parametrize("c", [HALF, Fraction(99, 100), Fraction(99999, 100000)])
    def test_mirrored_node_table_is_the_mirror_image(self, c):
        # (1, 1, -c, -1) is the weight of (1, 1, c) under x -> -x: its rule
        # is the mirror image, and its P_k(x) = (-1)^k P_k(-x), so with b_n
        # and K1_n of the opposite sign its table is the positive one with
        # the node order reversed and row k times (-1)^k, bit for bit
        params = BigJacobiParams(1, 1, c)
        neg = solve_pearson(build(scale_params(big_operator(params), 1, -1)))
        pos = big_weight(params)
        assert neg.normal_form[2:] == (-c, -1)
        for order in (21, 31, 40):
            table, scales = quad_mod._node_table(quadrature_rule(pos, order),
                                                 orthogonal_polynomials(pos, 40))
            mirror, mirror_scales = quad_mod._node_table(quadrature_rule(neg, order),
                                                         orthogonal_polynomials(neg, 40))
            sign = (-1.0) ** np.arange(41)[:, None]
            assert np.array_equal(mirror, sign * table[:, ::-1])
            assert np.array_equal(mirror_scales, scales)

    def test_unit_table_matches_40_digit_mpmath_values(self):
        # q_k = P_k / sqrt(u_1 ... u_k) at certify's N = 40 nodes next to
        # c = 1, against the monic recurrence in 40-digit mpmath; the worst
        # error relative to each row's largest value measured 1.2e-14
        # (x86-64), and the scales, products of 40 rounded sqrt(u_n), 2.2e-15
        mpmath = pytest.importorskip("mpmath")
        N = 40
        w = big_weight(BigJacobiParams(1, 1, Fraction(99999, 100000)))
        rule = quadrature_rule(w, quad_mod._gauss_order(2 * N, None))
        table, scales = quad_mod._node_table(rule, orthogonal_polynomials(w, N))
        coeffs = recurrence_coefficients(w, N)
        with mpmath.workdps(40):
            mp = mpmath.mp
            b = [mp.mpf(q.numerator) / q.denominator for q, _ in coeffs]
            u = [None] + [mp.mpf(q.numerator) / q.denominator for _, q in coeffs[1:]]
            norms = [mp.sqrt(mp.fprod(u[1:k + 1])) for k in range(N + 1)]
            ref = []
            c = mp.mpf(99999) / 100000
            for node, z in zip(rule.nodes, rule.gaps):
                # the node the rule's gap z places: x = ±(c + z)
                x = mp.sign(node) * (c + mp.mpf(z))
                p = [mp.mpf(1), x - b[0]]
                for n in range(1, N):
                    p.append((x - b[n]) * p[n] - u[n] * p[n - 1])
                ref.append([pk / norm for pk, norm in zip(p, norms)])
            ref = np.array(ref, dtype=float).T
            scale_err = max(abs(float(s / norm) - 1) for s, norm in zip(scales, norms))
        err = np.max(np.abs(table - ref), axis=1) / np.max(np.abs(ref), axis=1)
        assert err.max() <= 1e-13 and scale_err <= 2e-14

    @pytest.mark.parametrize("alpha, beta, c", [(1, 1, HALF), (HALF, 2, 0)])
    def test_table_rows_grow_no_connection_rows(self, alpha, beta, c, monkeypatch):
        # a high P_k is a unit row: only the low-degree input's rows are
        # built, and the value is the one its expansion over all 201 rows gives
        requests = []
        real = quad_mod._connection

        def connection(w, m):
            requests.append(m)
            return real(w, m)

        monkeypatch.setattr(quad_mod, "_connection", connection)
        w, x = _family_weight(alpha, beta, c), Polynomial.monomial(1)
        p = orthogonal_polynomials(w, 200)[200]
        value = inner_product(w, p, x)
        assert requests == [1]
        assert inner_product(w, Polynomial(p.terms), x) == value
        assert requests == [1, 200]

    @pytest.mark.parametrize("c", [HALF, Fraction(99999, 100000)])
    def test_plain_copies_of_the_basis_give_its_bits(self, c):
        # a polynomial equal to P_k, but not one handed out, expands to e_k
        # and is the unit row q_k with scale s_k, as the P_k itself is
        w = big_weight(BigJacobiParams(1, 1, c))
        basis = orthogonal_polynomials(w, 12)
        plain = [Polynomial(p.terms) for p in basis]
        assert not any(isinstance(p, _IntegerPolynomial) for p in plain)
        got, ref = gram_matrix(w, plain), gram_matrix(w, basis)
        assert np.array_equal(got.unit, ref.unit) and np.array_equal(got.entries, ref.entries)

    @pytest.mark.parametrize("c", [HALF, Fraction(99999, 100000)])
    def test_basis_of_an_equal_weight_gives_the_same_bits(self, c):
        params = BigJacobiParams(1, 1, c)
        w, twin = big_weight(params), big_weight(params)
        got = gram_matrix(w, orthogonal_polynomials(twin, 12))
        ref = gram_matrix(w, orthogonal_polynomials(w, 12))
        assert twin.normal_form == w.normal_form
        assert np.array_equal(got.unit, ref.unit) and np.array_equal(got.entries, ref.entries)

    def test_basis_of_another_weight_is_expanded(self):
        # the P_k of (1, 1, 1/2) under the (1, 1, 1/4) weight: only P_0 = 1
        # is a P_k there, and the rest match exact node values (2.1e-16
        # relative to sqrt(g_ii g_jj) measured on x86-64)
        w = big_weight(BigJacobiParams(1, 1, Fraction(1, 4)))
        polys = orthogonal_polynomials(big_weight(BigJacobiParams(1, 1, HALF)), 12)
        assert quad_mod._expansion(w, polys)[1] == [(0, 0)]
        g = gram_matrix(w, polys, order=40).entries
        ref, h = _exact_gram(quadrature_rule(w, 40), polys)
        for i in range(len(polys)):
            for j in range(len(polys)):
                assert abs(g[i, j] - ref[i][j]) <= 1e-14 * math.sqrt(h[i] * h[j])

    @pytest.mark.parametrize("alpha, beta, c", [(HALF, 2, Fraction(1, 4)), (1, 0, 0),
                                                (Fraction(-99, 100), 0, HALF)])
    def test_basis_polynomials_read_their_integer_form(self, alpha, beta, c):
        w = _family_weight(alpha, beta, c)
        basis = orthogonal_polynomials(w, 12)
        fresh = orthogonal_polynomials(_family_weight(alpha, beta, c), 12)
        plain = [Polynomial(p.terms) for p in fresh]
        for k, p in enumerate(basis):
            assert isinstance(p, _IntegerPolynomial)
            assert (p.degree, p.is_zero, p.is_monic, p.is_polynomial) == (k, False, True, True)
            assert p._map is None
            # equality compares values, in either order
            assert p == plain[k] and plain[k] == p
            assert p != plain[k] + Fraction(1, 3) and p != 2 * plain[k]
            assert p != LaurentPoly({-1: 1, k: 1}) and (k == 0 or p != plain[k - 1])
            x_k = Polynomial.monomial(k)
            assert (p == x_k) == (plain[k] == x_k) and (p == 1) == (k == 0)
            assert hash(p) == hash(plain[k]) and p.terms == plain[k].terms

    def test_sign_indefinite_weight_is_unsupported(self):
        from dunkl_jacobi import OperatorParams

        for params in (OperatorParams(tau1=2, xi=-1, eta=3),
                       OperatorParams(nu1=2, rho1=-4, tau1=2, xi=1, eta=-2),
                       OperatorParams(nu1=-2, rho1=2, xi=-1, eta=-2),
                       OperatorParams(nu1=-2, xi=-1, eta=-3)):
            op = build(params)
            w = solve_pearson(op)
            assert w.normal_form is None
            for call in (lambda: symmetry_block(w, op, 4), lambda: connection_coefficients(w, 4),
                         lambda: orthogonal_polynomials(w, 4)):
                with pytest.raises(UnsupportedWeight):
                    call()

    def test_empty_support_is_unsupported(self):
        # |c| > 1: the normal form exists, but the weight has no support
        w = _positive_family_weight(Fraction(1), Fraction(1), Fraction(3, 2), Fraction(1))
        assert w.normal_form is not None and not w.support
        for read in (recurrence_coefficients, orthogonal_polynomials, connection_coefficients):
            with pytest.raises(UnsupportedWeight, match="empty support"):
                read(w, 4)

    @pytest.mark.parametrize("alpha, beta", [(-1, -1), (-2, 0), (-3, -1), (-5, -1),
                                             (Fraction(-5, 2), Fraction(-3, 2)), (-3, 0)])
    def test_degenerate_spectrum_pairs(self, alpha, beta):
        # 2n + alpha + beta vanishes at n = m: the recurrence to N divides by
        # it for n <= N + 1, the basis P_0..P_n for n' <= n
        m = -Fraction(alpha + beta) / 2
        hit = m.denominator == 1 and m >= 1

        def check(read, w, n, top):
            if hit and m <= top:
                with pytest.raises(DegenerateSpectrum):
                    read(w, n)
            else:
                read(w, n)

        for c, d in ((HALF, Fraction(1)), (Fraction(0), Fraction(1)),
                     (Fraction(-1, 3), Fraction(-2, 3))):
            warm = _positive_family_weight(Fraction(alpha), Fraction(beta), c, d)
            for n in list(range(7)) + list(range(6, -1, -1)):
                fresh = _positive_family_weight(Fraction(alpha), Fraction(beta), c, d)
                for w in (fresh, warm):
                    check(orthogonal_polynomials, w, n, n)
                    if d == 1:
                        check(recurrence_coefficients, w, n, n + 1)

    def test_concurrent_growth_only_repeats_work(self):
        params = BigJacobiParams(Fraction(3, 4), Fraction(1, 3), Fraction(2, 5))
        ref_polys = orthogonal_polynomials(big_weight(params), 24)
        ref_coeffs = recurrence_coefficients(big_weight(params), 24)
        shared = big_weight(params)
        errors = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    n = rng.randint(0, 24)
                    if rng.random() < 0.5:
                        assert orthogonal_polynomials(shared, n) == ref_polys[:n + 1]
                    else:
                        assert recurrence_coefficients(shared, n) == ref_coeffs[:n + 1]
            except Exception as exc:  # reported by the main thread below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_unit_and_perturbed_rows_match_exact_node_values(self):
        params = BigJacobiParams(HALF, 2, Fraction(1, 4))
        w = big_weight(params)
        eigs = [e.poly for e in eigen_sequence(build(big_operator(params)), 15)]
        rule = quadrature_rule(w, 40)
        for k in (0, 1, 7, 15):
            polys = [eigs[k], eigs[k] + Fraction(1, 3)]
            g = gram_matrix(w, polys, order=40).entries
            ref, h = _exact_gram(rule, polys)
            for i in range(2):
                for j in range(2):
                    assert abs(g[i, j] - ref[i][j]) <= 1e-13 * math.sqrt(h[i] * h[j])
