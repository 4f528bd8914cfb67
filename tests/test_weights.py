import dataclasses
import math
import random
from fractions import Fraction

import pytest

from dunkl_jacobi import (
    BigJacobiParams,
    CaseTag,
    InternalConsistencyError,
    LaurentPoly,
    NotCanonicalizable,
    NotSymmetrizableError,
    OperatorParams,
    ParameterRange,
    Polynomial,
    UnsupportedPoint,
    UnsupportedWeight,
    big_operator,
    big_weight,
    build,
    canonicalize,
    classify,
    inner_product,
    little_weight,
    pearson_defect,
    pearson_points,
    pearson_residual,
    scale_params,
    solve_pearson,
)
from dunkl_jacobi.quadrature import PEARSON_TOL
from dunkl_jacobi.weights import AffineFactor, _sign_obstruction_check

from _helpers import (
    BOUNDARY_GRID,
    GOLDEN_FAMILIES,
    NEAR_BOUNDARY_FAMILIES,
    RECURRENCE_FAMILIES,
    random_generic_params,
    random_rational,
)
from _oracles import (
    _laurent_exact,
    _log_derivative_exact,
    pearson_figure,
    pearson_pair,
    pearson_points_reference,
    weight_value,
)

HALF = Fraction(1, 2)

# Canonical representatives of the degenerate cases (coefficients as in the
# case-by-case catalog, translated to the nine-parameter family).
CASE_II = OperatorParams(tau1=2, xi=-1, eta=3)          # F = 3 - 1/x, G1 = 2x
CASE_III = OperatorParams(nu1=2, rho1=-4, tau1=2, xi=1, eta=-2)   # G1 = 2(x-1)^2/x
CASE_IV = OperatorParams(nu1=-2, rho1=2, xi=-1, eta=-2)  # G1 = 2(1 - 1/x)
CASE_V = OperatorParams(nu1=-2, xi=-1, eta=-3)           # G1 = -2/x


def relative_pearson_defect(w, op, points=40, eps=1e-3):
    worst = 0.0
    for x in w.interior_grid(points, eps=eps):
        if abs(x) < 1e-9 or not (w.contains_interior(x) and w.contains_interior(-x)):
            continue
        r1, r2 = pearson_residual(w, op, x)
        s1 = abs(w(x) * op.G1.evaluate(x)) + abs(w(-x) * op.G1.evaluate(-x)) + 1e-300
        s2 = abs(w(-x) * op.F.evaluate(-x)) + abs(w(x) * op.F.evaluate(x)) + 1e-300
        worst = max(worst, abs(r1) / s1, abs(r2) / s2)
    return worst


class TestBigOperator:
    def test_reference_parameters(self):
        p = big_operator(BigJacobiParams(0, 0, HALF))
        assert p.astuple() == (0, 0, -1, 0, -1, 0, 2, 0, -1)

    def test_c_zero_is_little(self):
        p = big_operator(BigJacobiParams(2, 3, 0))
        assert p.nu1 == 0 and p.rho1 == -2 and p.tau1 == 2
        assert build(p).G1 == LaurentPoly({1: 2, 0: -2})  # 2(x-1)

    def test_xi_eta_values(self):
        p = big_operator(BigJacobiParams(1, 1, HALF))
        assert p.xi == HALF and p.eta == -3


class TestWeightConstructors:
    def test_big_pointwise(self):
        w = big_weight(BigJacobiParams(1, 1, HALF))
        assert w(0.75) == pytest.approx(7 / 16, abs=1e-15)
        assert w(-0.75) == pytest.approx(5 / 16, abs=1e-15)

    def test_big_divergence_at_inner_endpoint(self):
        w = big_weight(BigJacobiParams(1, 0, HALF))  # beta < 1
        assert w(0.5) == math.inf

    def test_big_rejects_bad_ranges(self):
        with pytest.raises(ParameterRange):
            big_weight(BigJacobiParams(-2, 0, HALF))
        with pytest.raises(ParameterRange):
            big_weight(BigJacobiParams(0, -1, HALF))
        with pytest.raises(ParameterRange):
            big_weight(BigJacobiParams(0, 0, Fraction(3, 2)))
        with pytest.raises(ParameterRange):
            big_weight(BigJacobiParams(0, 0, 1))
        with pytest.raises(ParameterRange):
            big_weight(BigJacobiParams(0, 0, -HALF))

    def test_big_at_c_zero_is_the_one_interval_weight(self):
        assert big_weight(BigJacobiParams(0, 0, 0)) == little_weight(0, 0)
        assert big_weight(BigJacobiParams(HALF, -HALF)) == little_weight(HALF, -HALF)

    def test_little_pointwise(self):
        w = little_weight(1, 0)
        assert w(0.0) == 1.0
        for x in (-0.5, 0.25, 0.9):
            assert w(x) == pytest.approx(x + 1, rel=1e-15)

    def test_little_rejects_bad_ranges(self):
        with pytest.raises(ParameterRange):
            little_weight(-1, 0)

    def test_big_outside_domain(self):
        w = big_weight(BigJacobiParams(0, 0, HALF))  # fractional exponents
        with pytest.raises(UnsupportedPoint):
            w(0.25)  # x^2 - c^2 < 0

    def test_c_to_zero_pointwise_limit(self):
        # once c is well below |x| the gap halves with c (linear rate)
        for alpha, beta in [(1, 1), (HALF, 2), (0, 0)]:
            wl = little_weight(alpha, beta)
            for x in (-0.9, -0.3, 0.4, 0.8):
                prev_gap = None
                for k in range(1, 9):
                    c = Fraction(1, 2**k)
                    if float(c) > abs(x) / 4:
                        continue
                    wb = big_weight(BigJacobiParams(alpha, beta, c))
                    gap = abs(wb(x) - wl(x))
                    if prev_gap is not None:
                        assert gap <= 0.7 * prev_gap + 1e-12
                    prev_gap = gap
                assert prev_gap is not None
                assert prev_gap <= 2e-2 * (1.0 + abs(wl(x)))

    def test_weight_json(self):
        w = big_weight(BigJacobiParams(1, 1, HALF))
        obj = w.to_json_obj()
        assert obj["family"] == "big"
        assert obj["sign_factor"] is True
        assert len(obj["algebraic_factors"]) == 2
        assert obj["support"] == [["-1", "-1/2"], ["1/2", "1"]]


class TestClassify:
    def test_big_positive(self):
        v = classify(big_operator(BigJacobiParams(0, 0, HALF)))
        assert v.case_tag is CaseTag.GENERIC_BIG
        assert v.positive_on_symmetric_support
        assert v.weight is not None and v.weight.family == "big"

    def test_little_case(self):
        v = classify(OperatorParams(rho1=2, tau1=-2, xi=0, eta=2))
        assert v.case_tag is CaseTag.LITTLE_CASE_I
        # xi/eta here encode alpha = beta = 0 through kappa0 = -1
        assert v.positive_on_symmetric_support

    def test_not_symmetrizable(self):
        for p in (OperatorParams(mu=1), OperatorParams(nu0=2),
                  OperatorParams(rho0=-1), OperatorParams(tau0=HALF)):
            v = classify(p)
            assert v.case_tag is CaseTag.NOT_SYMMETRIZABLE
            assert v.weight is None and not v.positive_on_symmetric_support

    @pytest.mark.parametrize(
        "params,tag",
        [
            (CASE_II, CaseTag.CASE_II),
            (CASE_III, CaseTag.CASE_III),
            (CASE_IV, CaseTag.CASE_IV),
            (CASE_V, CaseTag.CASE_V),
        ],
    )
    def test_degenerate_cases(self, params, tag):
        v = classify(params)
        assert v.case_tag is tag
        assert not v.positive_on_symmetric_support
        assert v.weight is not None

    def test_leftover_family_is_degenerate(self):
        assert classify(OperatorParams(rho1=3)).case_tag is CaseTag.DEGENERATE_SPECTRUM
        assert classify(OperatorParams()).case_tag is CaseTag.DEGENERATE_SPECTRUM

    def test_sign_indefinite_weights_change_sign(self):
        for p in (CASE_II, CASE_III, CASE_IV, CASE_V):
            w = classify(p).weight
            signs = set()
            for x in w.interior_grid(11, eps=1e-2):
                for probe in (x, -x):
                    try:
                        v = w(probe)
                    except UnsupportedPoint:
                        continue
                    if v and math.isfinite(v):
                        signs.add(v > 0)
            assert signs == {True, False}

    def test_exact_sign_check_agrees_with_the_weight(self):
        for p in (CASE_II, CASE_III, CASE_IV, CASE_V):
            verdict = classify(p)
            w = verdict.weight
            x0 = _sign_obstruction_check(w)
            assert isinstance(x0, Fraction) and x0 > 0
            assert w.contains_interior(x0) and w.contains_interior(-x0)
            assert w(x0) * w(-x0) < 0
            assert f"w(x0) w(-x0) < 0 at x0 = {x0}" in verdict.notes

    def test_sign_check_refuses_a_weight_of_one_sign(self):
        w = classify(CASE_II).weight  # sign(x) |x|^-5, x0 = 1/2
        even = dataclasses.replace(w, sign_factor=False)
        with pytest.raises(InternalConsistencyError, match="x0 = 1/2"):
            _sign_obstruction_check(even)
        # sign(x) (x - 1/4) keeps one sign at +-1/2, where |x| > 1/4
        folded = dataclasses.replace(w, affine_factors=(AffineFactor(Fraction(1, 4), 1),))
        assert folded(0.5) * folded(-0.5) > 0
        with pytest.raises(InternalConsistencyError):
            _sign_obstruction_check(folded)

    def test_classification_invariant_under_scaling(self):
        rng = random.Random(79)
        for _ in range(40):
            p = random_generic_params(rng)
            before = classify(p)
            assert before.case_tag is CaseTag.GENERIC_BIG
            after = classify(canonicalize(p).params)
            assert after.case_tag is CaseTag.GENERIC_BIG
            assert (before.positive_on_symmetric_support
                    == after.positive_on_symmetric_support)

    @pytest.mark.parametrize(
        "params,alpha,beta,d",
        [
            (OperatorParams(tau1=2, rho1=2, xi=-HALF, eta=-2), HALF, HALF, -1),
            (OperatorParams(tau1=2, rho1=6, xi=-3, eta=-4), 2, 1, -3),
            (OperatorParams(tau1=-2, rho1=-1, xi=-Fraction(1, 4), eta=HALF), 0, -HALF, -HALF),
            (OperatorParams(tau1=4, rho1=8, xi=-12, eta=-10), 1, 3, -2),
        ],
    )
    def test_one_interval_negative_scale_is_positive(self, params, alpha, beta, d):
        # d = -rho1/tau1 < 0 and beta != 0: the weight is zero or infinite at
        # x = 0, so its sign has to come from d, not from a sample there
        v = classify(params)
        assert v.case_tag is CaseTag.LITTLE_CASE_I and v.positive_on_symmetric_support
        w = v.weight
        for x in w.interior_grid(20, eps=1e-3):
            if x:
                assert w(x) > 0
        assert inner_product(w, Polynomial.one(), Polynomial.one()) > 0
        assert w.normal_form == (alpha, beta, 0, d) and w.constant == -1

    def test_rescaled_positive_families_stay_positive(self):
        rng = random.Random(5)
        fams = [BigJacobiParams(HALF, 2, 0), BigJacobiParams(-HALF, Fraction(1, 3), 0),
                BigJacobiParams(1, 1, HALF), BigJacobiParams(HALF, -Fraction(1, 4), Fraction(3, 4))]
        scaled = []
        for fam in fams:
            for _ in range(6):
                k0 = random_rational(rng, nonzero=True)
                k1 = random_rational(rng, nonzero=True)
                v = classify(scale_params(big_operator(fam), k0, k1))
                assert v.positive_on_symmetric_support
                scaled.append((fam, k1, v.weight))
        assert any(k1 < 0 for _, k1, _ in scaled)
        for _, _, w in scaled:
            for x in w.interior_grid(7, eps=1e-3):
                if x:
                    assert w(x) > 0
            assert inner_product(w, Polynomial.one(), Polynomial.one()) > 0
        for fam, k1, w in scaled:
            assert w.normal_form == (fam.alpha, fam.beta, fam.c / k1, 1 / k1)

    def test_generic_positive_weight_positive_on_interior(self):
        for fam in (BigJacobiParams(1, 1, HALF), BigJacobiParams(HALF, 2, Fraction(1, 4)),
                    BigJacobiParams(2, 0, Fraction(3, 4))):
            w = big_weight(fam)
            for x in w.interior_grid(40, eps=1e-4):
                assert w(x) > 0


class TestCanonicalize:
    def test_identity_on_canonical(self):
        p = big_operator(BigJacobiParams(1, 2, HALF))
        form = canonicalize(p)
        assert form.kappa0 == 1 and form.kappa1 == 1
        assert form.params == p

    def test_rescaled_quadratic(self):
        # G1 = 4(x-2)(x+1)/x: zeros {2, -1}, leading scale 4.
        p = OperatorParams(nu1=-8, rho1=-4, tau1=4, xi=1, eta=-2)
        assert build(p).G1 == LaurentPoly({1: 4, 0: -4, -1: -8})
        form = canonicalize(p)
        assert form.kappa1 == 2
        assert form.kappa0 == HALF
        assert -form.params.nu1 / 2 == HALF  # canonical c = 1/2
        assert form.params.tau1 == 2
        # round trip: scaling the input by (kappa0, kappa1) gives the output
        assert scale_params(p, form.kappa0, form.kappa1) == form.params

    def test_scaling_matches_function_transform(self):
        rng = random.Random(83)
        for _ in range(20):
            p = random_generic_params(rng)
            k0 = random_rational(rng, nonzero=True)
            k1 = random_rational(rng, nonzero=True)
            scaled_op = build(scale_params(p, k0, k1))
            op = build(p)
            assert scaled_op.F == k0 * op.F.scale_argument(k1)
            assert scaled_op.G1 == k0 * op.G1.scale_argument(k1) * LaurentPoly({0: 1 / k1})

    def test_tau1_zero_not_canonicalizable(self):
        with pytest.raises(NotCanonicalizable):
            canonicalize(CASE_IV)

    def test_coinciding_zeros_not_canonicalizable(self):
        with pytest.raises(NotCanonicalizable):
            canonicalize(CASE_III)

    def test_irrational_zeros(self):
        # x G1 = x^2 - 2: zeros +-sqrt(2)
        p = OperatorParams(nu1=-2, tau1=1, rho1=0, xi=1, eta=1)
        with pytest.raises(NotCanonicalizable):
            canonicalize(p)
        v = classify(p)
        assert v.case_tag is CaseTag.GENERIC_BIG and v.weight is None


class TestPearson:
    def test_big_and_little_residuals(self):
        near = Fraction(-99, 100)
        for params in (BigJacobiParams(1, 1, HALF), BigJacobiParams(HALF, 2, Fraction(1, 4)),
                       BigJacobiParams(near, 0, HALF), BigJacobiParams(near, near, HALF)):
            op = build(big_operator(params))
            assert relative_pearson_defect(big_weight(params), op) <= 1e-12
        op = build(big_operator(BigJacobiParams(1, 0, 0)))
        assert relative_pearson_defect(little_weight(1, 0), op) <= 1e-12

    def test_reference_points(self):
        fam = BigJacobiParams(1, 1, HALF)
        r1, r2 = pearson_residual(big_weight(fam), build(big_operator(fam)), 0.75)
        assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12
        r1, r2 = pearson_residual(
            little_weight(1, 0), build(big_operator(BigJacobiParams(1, 0, 0))), 0.5
        )
        assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12

    def test_perturbed_exponent_breaks_identity(self):
        params = BigJacobiParams(1, 1, HALF)
        op = build(big_operator(params))
        wrong = big_weight(BigJacobiParams(1 + Fraction(1, 10), 1, HALF))
        assert relative_pearson_defect(wrong, op) > 1e-3

    def test_all_six_cases(self):
        operators = [
            build(big_operator(BigJacobiParams(1, 1, HALF))),
            build(big_operator(BigJacobiParams(2, HALF, 0))),
            build(CASE_II),
            build(CASE_III),
            build(CASE_IV),
            build(CASE_V),
        ]
        for op in operators:
            w = solve_pearson(op)
            assert relative_pearson_defect(w, op) <= 1e-12

    def test_scaled_generic_operator(self):
        rng = random.Random(89)
        for _ in range(15):
            base = big_operator(BigJacobiParams(1, 1, HALF))
            k0 = random_rational(rng, nonzero=True)
            k1 = random_rational(rng, nonzero=True)
            op = build(scale_params(base, k0, k1))
            w = solve_pearson(op)
            assert relative_pearson_defect(w, op) <= 1e-12

    def test_not_symmetrizable_passthrough(self):
        with pytest.raises(NotSymmetrizableError):
            solve_pearson(build(OperatorParams(mu=1, tau1=2)))

    def test_residual_outside_domain(self):
        params = BigJacobiParams(1, 1, HALF)
        op = build(big_operator(params))
        w = big_weight(params)
        with pytest.raises(UnsupportedPoint):
            pearson_residual(w, op, 0.0)
        with pytest.raises(UnsupportedPoint):
            pearson_residual(w, op, 0.25)  # inside the gap
        with pytest.raises(UnsupportedPoint):
            pearson_residual(w, op, 1.5)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_log_derivative_at_a_non_finite_point_is_an_error(self, x):
        # w'/w is taken at the exact rational of x, and these have none
        with pytest.raises(ValueError, match="must be finite"):
            big_weight(BigJacobiParams(1, 1, HALF)).log_derivative(x)

    def test_leftover_family_unsupported(self):
        with pytest.raises(UnsupportedWeight):
            solve_pearson(build(OperatorParams(rho1=3)))

    @pytest.mark.parametrize("fam", [
        BigJacobiParams(1, 1, HALF), BigJacobiParams(HALF, 2, Fraction(1, 4)),
        BigJacobiParams(-HALF, Fraction(1, 3), Fraction(3, 4)),
        BigJacobiParams(1, 0, 0), BigJacobiParams(HALF, 2, 0),
        BigJacobiParams(-Fraction(9, 10), -HALF, 0),
    ])
    def test_solve_pearson_equals_family_constructor(self, fam):
        ref = little_weight(fam.alpha, fam.beta) if fam.c == 0 else big_weight(fam)
        assert solve_pearson(build(big_operator(fam))) == ref
        assert ref.normal_form == (fam.alpha, fam.beta, fam.c, 1)

    def test_solve_pearson_matches_big_weight(self):
        params = BigJacobiParams(1, 1, HALF)
        w = solve_pearson(build(big_operator(params)))
        ref = big_weight(params)
        for x in ref.interior_grid(9, eps=1e-2):
            assert w(x) == pytest.approx(ref(x), rel=1e-13)

    def test_gaussian_factor_in_case_v(self):
        w = solve_pearson(build(CASE_V))
        assert w.exponential_factor is not None
        assert w.exponential_factor.kind == "gauss"
        assert w.sign_factor
        # canonical case: F constant term -beta with beta = 3 here
        assert w.exponential_factor.coefficient == Fraction(-3, 2)

    def test_wg1_evenness(self):
        rng = random.Random(97)
        checked = 0
        ops = [
            build(big_operator(BigJacobiParams(1, 1, HALF))),
            build(big_operator(BigJacobiParams(HALF, 0, 0))),
            build(CASE_II),
            build(CASE_III),
            build(CASE_IV),
            build(CASE_V),
        ]
        for op in ops:
            w = solve_pearson(op)
            for _ in range(20):
                lo, hi = w.support[rng.randrange(len(w.support))]
                x = float(lo) + (float(hi) - float(lo)) * (1e-3 + 0.998 * rng.random())
                if abs(x) < 1e-9 or not w.contains_interior(-x):
                    continue
                lhs = w(x) * op.G1.evaluate(x)
                rhs = w(-x) * op.G1.evaluate(-x)
                assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs) + 1e-300)
                checked += 1
        assert checked >= 100


def _family(alpha, beta, c):
    fam = BigJacobiParams(alpha, beta, c)
    w = little_weight(alpha, beta) if c == 0 else big_weight(fam)
    return w, build(big_operator(fam))


# RECURRENCE_FAMILIES starts with the criterion-05 grid
SWEEP_FAMILIES = RECURRENCE_FAMILIES + NEAR_BOUNDARY_FAMILIES


class TestPearsonSweep:
    @pytest.mark.parametrize("alpha, beta, c", SWEEP_FAMILIES)
    def test_figure_equals_point_by_point_reference(self, alpha, beta, c):
        w, op = _family(alpha, beta, c)
        points = pearson_points(w)
        assert points == pearson_points_reference(w)
        assert pearson_defect(w, op) == pearson_figure(w, op, points)
        # the scalar path at every point: a max over the sample can hide a
        # one-ulp change at one point.  Each value is the exact one rounded
        # once, at the exact sample point and at its float.
        polys = (op.F, op.G1, op.G1.differentiate())
        for x in points:
            assert all(p.evaluate_exact(x) == _laurent_exact(p, x) for p in polys)
            x = float(x)
            assert pearson_residual(w, op, x) == pearson_pair(w, op, x)
            for probe in (x, -x):
                exact = Fraction(probe)
                assert w(probe) == weight_value(w, probe)
                assert w.log_derivative(probe) == float(_log_derivative_exact(w, exact))
                for p in polys:
                    assert p.evaluate(probe) == float(_laurent_exact(p, exact))

    @pytest.mark.parametrize("alpha, beta, c",
                             GOLDEN_FAMILIES + [(Fraction(1000), Fraction(1000), HALF)])
    def test_figure_rejects_a_perturbed_operator(self, alpha, beta, c):
        # The weight stays; alpha, beta or c moves by 1/1000 in the operator.
        w, _ = _family(alpha, beta, c)
        for i in range(3):
            for step in (Fraction(1, 1000), Fraction(-1, 1000)):
                moved = [alpha, beta, c]
                moved[i] += step
                op = build(big_operator(BigJacobiParams(*moved)))
                assert pearson_defect(w, op) > PEARSON_TOL, (i, step)

    @pytest.mark.parametrize("alpha, beta, c",
                             GOLDEN_FAMILIES + [(Fraction(1000), Fraction(1000), HALF)]
                             + BOUNDARY_GRID)
    def test_figure_stays_at_the_rounding_floor(self, alpha, beta, c):
        # near the boundary, factors of the pair vanish at +-c and +-d, and
        # with exponents near -1 the (w G1)' term dominates r2; at large
        # exponents the weight's even factor is below float range
        assert pearson_defect(*_family(alpha, beta, c)) <= 1e-13

    def test_weight_keeps_the_single_point_results(self):
        # zeros, returns of +-inf and raises, at x and at -x, against the
        # reference; 1e-300 puts |x|^-4 of the Case II weight beyond float range
        weights = [solve_pearson(build(p)) for p in (CASE_II, CASE_III, CASE_IV, CASE_V)]
        weights += [big_weight(BigJacobiParams(1, 0, HALF)), big_weight(BigJacobiParams(3, 2, HALF)),
                    little_weight(HALF, -HALF), little_weight(-HALF, 2),
                    solve_pearson(build(OperatorParams(nu1=-2, xi=-1, eta=2000)))]
        probes = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25, 0.75, -0.75, 1.5, 2.0, -2.0, 30.0,
                  1e-300]
        seen = set()
        for w in weights:
            for x in probes:
                for probe in (x, -x):
                    try:
                        expected = weight_value(w, probe)
                    except UnsupportedPoint:
                        with pytest.raises(UnsupportedPoint):
                            w(probe)
                        seen.add("raise")
                        continue
                    got = w(probe)
                    assert math.copysign(1.0, got) == math.copysign(1.0, expected), (w, probe)
                    assert got == expected or math.isnan(got) and math.isnan(expected), (w, probe)
                    seen.add("zero" if got == 0.0 else "inf" if math.isinf(got) else "finite")
        assert seen == {"raise", "zero", "inf", "finite"}
        w = solve_pearson(build(CASE_II))
        assert (w(1e-300), w(-1e-300)) == (math.inf, -math.inf)

    @pytest.mark.parametrize("alpha, beta, c",
                             [f for f in SWEEP_FAMILIES if f[2] != Fraction(99999, 100000)])
    def test_sample_on_wide_intervals_is_the_fixed_margin_grid(self, alpha, beta, c):
        # every interval here is at least 1/4 wide, so the margin stays 1/1000
        w, op = _family(alpha, beta, c)
        eps = Fraction(1, 1000)
        grid = [lo + eps + i * (hi - lo - 2 * eps) / 24 for lo, hi in w.support for i in range(25)]
        grid = [x for x in grid
                if abs(x) >= Fraction(1, 10**9) and any(lo < -x < hi for lo, hi in w.support)]
        assert pearson_points(w) == grid
        assert pearson_defect(w, op) == pearson_figure(w, op, grid)

    @pytest.mark.parametrize("c", [HALF, Fraction(99999, 100000)])
    def test_sample_fits_every_interval(self, c):
        # At c = 99999/100000 both intervals are 1e-5 wide: a fixed 1e-3
        # margin ran the grid out of the support and left 2 points.
        w = big_weight(BigJacobiParams(1, 1, c))
        points = pearson_points(w)
        assert len(points) == 50
        assert all(w.contains_interior(x) and w.contains_interior(-x) for x in points)
        for lo, hi in w.support:
            inside = [x for x in points if lo < x < hi]
            assert len(inside) == 25 and inside == sorted(inside)

    def test_float_form_is_cached_outside_equality(self):
        params = BigJacobiParams(Fraction(3, 7), Fraction(5, 9), Fraction(2, 7))
        first, second = big_weight(params), big_weight(params)
        assert first._floats is None
        value = first(0.5)
        assert first._floats is first.float_form() and second._floats is None
        assert first == second and hash(first) == hash(second) and repr(first) == repr(second)
        assert second(0.5) == value == weight_value(first, 0.5)

    def test_sign_indefinite_cases_match_the_reference(self):
        for op in (build(CASE_II), build(CASE_III), build(CASE_IV), build(CASE_V)):
            w = solve_pearson(op)
            points = pearson_points(w)
            assert points and points == pearson_points_reference(w)
            assert pearson_defect(w, op) == pearson_figure(w, op, points)
