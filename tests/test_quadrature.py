import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dunkl_jacobi import (
    BigJacobiParams,
    GramMatrix,
    NonIntegrable,
    Polynomial,
    UnsupportedWeight,
    big_operator,
    big_weight,
    build,
    classify,
    eigen_sequence,
    gram_matrix,
    inner_product,
    little_weight,
    moment,
    quadrature_rule,
    recurrence_coefficients,
    scale_params,
    solve_pearson,
    symmetry_residual,
)

from _oracles import (
    little_moment_closed_form,
    reference_big_integral,
    reference_little_integral,
)

HALF = Fraction(1, 2)
W_LITTLE_10 = little_weight(1, 0)  # w = x + 1 on [-1, 1]


class TestRule:
    def test_nodes_interior_weights_positive(self):
        for w in (W_LITTLE_10, big_weight(BigJacobiParams(HALF, 2, Fraction(3, 4)))):
            rule = quadrature_rule(w, 30)
            assert len(rule.nodes) == 60
            assert all(wt > 0 for wt in rule.weights)
            assert all(w.contains_interior(x) for x in rule.nodes)

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

    def test_zero_normalization_counts_as_unverified(self):
        g = np.array([[4.0, 1e-12, 0.0], [1e-12, 1.0, 1e-300], [0.0, 1e-300, 0.0]])
        assert GramMatrix(entries=g[:2, :2], basis=()).max_relative_off_diagonal() == 5e-13
        assert GramMatrix(entries=g, basis=()).max_relative_off_diagonal() == math.inf
        assert GramMatrix(entries=g[:1, :1], basis=()).max_relative_off_diagonal() == 0.0

    def test_underflowed_normalization_is_not_skipped(self):
        # h_60 underflows to 0.0 here; its 60 pairs cannot be checked, so the
        # figure is inf rather than the largest ratio among the other pairs
        params = BigJacobiParams(1, 1, Fraction(99999, 100000))
        eigs = eigen_sequence(build(big_operator(params)), 60)
        g = gram_matrix(big_weight(params), [e.poly for e in eigs], order=40)
        assert g.normalization(60) == 0.0 and g.normalization(59) > 0.0
        assert g.max_relative_off_diagonal() == math.inf

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
        with pytest.raises(UnsupportedWeight):
            recurrence_coefficients(rescaled, 6)

    def test_recurrence_csv(self):
        from dunkl_jacobi.quadrature import recurrence_table_csv

        text = recurrence_table_csv(recurrence_coefficients(W_LITTLE_10, 2))
        lines = text.strip().splitlines()
        assert lines[0] == "n,b,u"
        assert lines[1].startswith("0,") and lines[1].endswith(",")
        assert len(lines) == 4
        assert lines[1:] == ["0,1/3,", "1,1/15,2/9", "2,1/35,6/25"]
