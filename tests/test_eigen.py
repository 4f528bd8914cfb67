import math
import random
from fractions import Fraction

import pytest

from dunkl_jacobi import (
    BigJacobiParams,
    DegenerateSpectrum,
    DunklOperator,
    InternalConsistencyError,
    LaurentPoly,
    NegativePowerResidue,
    OperatorParams,
    Polynomial,
    big_operator,
    big_weight,
    build,
    coefficient_table_csv,
    coefficient_table_json,
    eigen_defects,
    eigen_sequence,
    eigenvalue,
    monic_eigenpolynomial,
    orthogonal_polynomials,
    parse_coefficient_table_csv,
    residual,
)
from dunkl_jacobi import dunkl as dunkl_mod, eigen as eigen_mod, laurent as laurent_mod
from dunkl_jacobi.eigen import _spectrum
from dunkl_jacobi.laurent import _IntegerPolynomial

from _helpers import random_nondegenerate_params, random_params, random_rational
from _oracles import (
    apply_band,
    coefficient_table_csv_reference,
    coefficient_table_json_reference,
    fraction_free_eigen_coefficients,
    spectrum_scan,
)


def raw_and_family_operators(rng, count, N):
    """``count`` raw operators with ``mu != 0`` and ``count`` (alpha, beta, c) families."""
    ops = []
    while len(ops) < count:
        p = random_nondegenerate_params(rng, N)
        if p.mu:
            ops.append(build(p))
    for _ in range(count):
        alpha = random_rational(rng, -3, 8, 4)
        beta = random_rational(rng, -3, 8, 4)
        c = Fraction(rng.randint(0, 4), 5)
        ops.append(build(big_operator(BigJacobiParams(alpha, beta, c))))
    return ops


def random_polynomial(rng, degree):
    """Degree exactly ``degree``, some lower coefficients zero."""
    p = {k: random_rational(rng, -9, 9, 7) for k in range(degree)}
    p[degree] = random_rational(rng, -9, 9, 7, nonzero=True)
    return Polynomial(p)


def oracle_eigen_sequence(op, N):
    """Plain ``Fraction`` back-substitution on the columns ``op.apply(x^k)``."""
    columns = [op.apply(Polynomial.monomial(k)) for k in range(N + 1)]
    lams = [columns[k].coefficient(k) for k in range(N + 1)]
    out = []
    for n in range(N + 1):
        c = {n: Fraction(1)}
        for j in range(n - 1, -1, -1):
            s = sum(columns[k].coefficient(j) * c.get(k, 0) for k in range(j + 1, n + 1))
            c[j] = s / (lams[n] - lams[j])
        out.append((Polynomial(c), lams[n]))
    return out


class TestLowDegrees:
    def test_degree_zero(self):
        rng = random.Random(61)
        for _ in range(10):
            op = build(random_nondegenerate_params(rng, 0))
            e = monic_eigenpolynomial(op, 0)
            assert e.poly == Polynomial.one() and e.eigenvalue == 0

    def test_big_degree_one(self):
        # 1x1 back-substitution: a = kappa1 / (lambda_1 - lambda_0)
        op = build(big_operator(BigJacobiParams(0, 0, Fraction(1, 2))))
        e = monic_eigenpolynomial(op, 1)
        assert e.eigenvalue == -4
        assert e.poly == Polynomial({1: 1, 0: Fraction(-1, 4)})

    def test_little_degree_one_formula(self):
        # closed form: constant term -(beta + 1 - c(alpha+1)) / (alpha+beta+2)
        for alpha, beta, c in [(1, 0, 0), (2, 1, 0), (Fraction(1, 2), 2, 0)]:
            op = build(big_operator(BigJacobiParams(alpha, beta, c)))
            e = monic_eigenpolynomial(op, 1)
            a = Fraction(beta + 1 - c * (alpha + 1), alpha + beta + 2)
            assert e.poly == Polynomial({1: 1, 0: -a})
        assert monic_eigenpolynomial(
            build(big_operator(BigJacobiParams(1, 0, 0))), 1
        ).poly == Polynomial({1: 1, 0: Fraction(-1, 3)})


class TestResidual:
    def test_residual_zero_on_corpus(self):
        rng = random.Random(67)
        for _ in range(10):
            op = build(random_nondegenerate_params(rng, 15))
            for e in eigen_sequence(op, 15):
                assert residual(op, e.poly, e.eigenvalue).is_zero

    def test_wrong_eigenvalue_nonzero(self):
        op = build(big_operator(BigJacobiParams(0, 0, Fraction(1, 2))))
        assert not residual(op, Polynomial.monomial(1), Fraction(5)).is_zero

    def test_zero_operator(self):
        op = build(OperatorParams())
        p = Polynomial({3: 2, 1: -1})
        assert residual(op, p, Fraction(0)).is_zero

    def test_uniqueness_by_perturbation(self):
        rng = random.Random(71)
        for _ in range(20):
            op = build(random_nondegenerate_params(rng, 8))
            n = rng.randint(1, 8)
            e = monic_eigenpolynomial(op, n)
            k = rng.randrange(n)
            bump = random_rational(rng, nonzero=True)
            perturbed = Polynomial.from_laurent(
                e.poly + Polynomial({k: bump})
            )
            assert not residual(op, perturbed, e.eigenvalue).is_zero

    @pytest.mark.parametrize("family", [(Fraction(1, 2), 2, Fraction(1, 4)), (1, 0, 0),
                                        (Fraction(-99, 100), 0, Fraction(1, 2))])
    def test_integer_form_residual_matches_the_fraction_path(self, family):
        # A basis P_k hands residual its integer form; an equal plain
        # Polynomial goes through its Fractions.  Perturbed inputs, held in
        # integer form too, give the same residuals, zero or not.
        def integer_form(p):
            terms = p.terms
            D = math.lcm(*(v.denominator for v in terms.values()))
            v = [0] * (p.degree + 1)
            for k, c in terms.items():
                v[k] = c.numerator * (D // c.denominator)
            return _IntegerPolynomial(D, tuple(v))

        params = BigJacobiParams(*family)
        op = build(big_operator(params))
        basis = orthogonal_polynomials(big_weight(params), 14)
        lams = [eigenvalue(op.params, n) for n in range(15)]
        for k, p in enumerate(basis):
            plain = Polynomial(p.terms)
            assert residual(op, p, lams[k]).is_zero and residual(op, plain, lams[k]).is_zero
            bump = Polynomial.monomial(k, Fraction(5, 7))
            for q in (plain + Fraction(1, 3), 2 * plain, plain - bump):
                q = Polynomial.from_laurent(q)
                if q.is_zero:
                    continue
                lazy = integer_form(q)
                assert lazy._map is None
                for lam in (lams[k], lams[k] + Fraction(2, 9)):
                    got, want = residual(op, lazy, lam), residual(op, q, lam)
                    assert got.terms == want.terms
                assert not got.is_zero  # lam is off the spectrum
                assert lazy._map is None
                assert lazy == q

    @pytest.mark.parametrize("N", [0, 1, 40])
    def test_swept_form_residual_matches_the_fraction_path(self, N):
        # The ladder's P_n hands residual its swept form; the same
        # polynomial rebuilt as a Fraction map, read off the form here,
        # goes through its Fractions.  Both give the same residual, zero at
        # lambda_n and not at a wrong eigenvalue.  Neither residual nor the
        # tables build the swept form's map; degree and monicity read the
        # form, and every reading of the map agrees with the rebuilt one.
        rng = random.Random(131 + N)
        for op in raw_and_family_operators(rng, 2, N):
            eigs = eigen_sequence(op, N)
            plains = []
            for e in eigs:
                f, x = e.poly._form
                R, plain = 1, {e.n: Fraction(1)}
                for j in range(e.n - 1, -1, -1):
                    R *= f[j]
                    if x[j]:
                        plain[j] = Fraction(x[j], R)
                plains.append(Polynomial(plain))
                for lam in (e.eigenvalue, e.eigenvalue + Fraction(2, 9)):
                    got, want = residual(op, e.poly, lam), residual(op, plains[-1], lam)
                    assert got.terms == want.terms
                    assert got.is_zero == (lam == e.eigenvalue)
            coefficient_table_csv(eigs)
            coefficient_table_json(eigs)
            for e, plain in zip(eigs, plains):
                assert e.poly.degree == plain.degree == e.n
                assert e.poly.is_monic and plain.is_monic
                assert e.poly._map is None
                assert e.poly == plain and hash(e.poly) == hash(plain)
                assert e.poly.terms == plain.terms
                assert ([e.poly.coefficient(k) for k in range(e.n + 2)]
                        == [plain.coefficient(k) for k in range(e.n + 2)])

    def test_ladder_builds_no_coefficient_fractions(self, monkeypatch):
        # eigen_sequence, residual on every pair and both tables form the
        # N + 1 eigenvalues and no Fraction of their own besides.  laurent's
        # own Fraction stays: as_rational tests isinstance against it.
        made = []
        for mod, name in [(dunkl_mod, "Fraction"), (eigen_mod, "Fraction"),
                          (eigen_mod, "_coprime_fraction"), (laurent_mod, "_coprime_fraction")]:
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *args, real=real: made.append(args) or real(*args))
        N = 40
        for op in raw_and_family_operators(random.Random(171), 2, N):
            made.clear()
            eigs = eigen_sequence(op, N)
            assert all(residual(op, e.poly, e.eigenvalue).is_zero for e in eigs)
            coefficient_table_csv(eigs)
            coefficient_table_json(eigs)
            assert len(made) == N + 1

    def test_defects_empty_exactly_on_the_monic_eigenpolynomials(self):
        rng = random.Random(73)
        for op in raw_and_family_operators(rng, 3, 12):
            polys = [e.poly for e in eigen_sequence(op, 12)]
            assert eigen_defects(op, polys) == []
            n = rng.randint(1, 12)
            for wrong in (polys[n] * 2, polys[n - 1], Polynomial(),
                          Polynomial.from_laurent(polys[n] + Polynomial({n - 1: 1}))):
                assert eigen_defects(op, polys[:n] + [wrong] + polys[n + 1:]) == [n]

    def test_defects_check_the_spectrum_and_the_diagonal_law(self):
        with pytest.raises(DegenerateSpectrum, match="vanishes at degree 1"):
            eigen_defects(build(OperatorParams(tau1=2, eta=1)), [Polynomial.one()] * 4)
        op = build(OperatorParams(tau1=2, eta=-1))
        wrong = DunklOperator(op.F, op.G0, op.G1, params=OperatorParams(tau1=3, eta=-1))
        polys = [e.poly for e in eigen_sequence(op, 3)]
        with pytest.raises(InternalConsistencyError, match="eigenvalue law"):
            eigen_defects(wrong, polys)


class TestBand:
    def test_banded_residual_matches_laurent(self):
        # Random, zero and non-eigen inputs; the last call on each operator
        # asks for a degree above every earlier one, so the band must grow.
        # The corpus must hold eigenvalues with denominator != 1 and sparse
        # family bands (mu = 0, so every x^(k-3) entry is 0).
        rng = random.Random(79)
        fractional = sparse = 0
        for op in raw_and_family_operators(rng, 6, 12):
            degrees = [rng.randint(0, 12) for _ in range(4)]
            for deg in degrees + [max(degrees) + rng.randint(1, 6)]:
                before = op.band(0).degree
                p = random_polynomial(rng, deg)
                lam = random_rational(rng, -9, 9, 5)
                assert residual(op, p, lam) == op.apply(p) - lam * p
                assert op.band(0).degree == max(before, deg)
                fractional += lam.denominator != 1
            zero = Polynomial()
            assert residual(op, zero, Fraction(3)).is_zero
            sparse += all(row[3] == 0 for row in op.band(0).rows)
        assert fractional >= 10 and sparse >= 6

    def test_banded_residual_raw_operators(self):
        # Operators outside any weight family, spectrum not screened.
        rng = random.Random(83)
        for _ in range(10):
            op = build(random_params(rng))
            p = random_polynomial(rng, rng.randint(0, 10))
            lam = random_rational(rng)
            assert residual(op, p, lam) == op.apply(p) - lam * p

    def test_band_entries_come_from_apply(self):
        rng = random.Random(89)
        ops = raw_and_family_operators(rng, 3, 60)
        ops += [build(random_params(rng)) for _ in range(3)]
        for op in ops:
            assert op.band(60) == apply_band(op, 60)

    def test_out_of_family_triples_agree_with_apply(self):
        # Random F, G0, G1 with exponents in -4..2: the band and the apply
        # columns are equal, or both raise the same exception.
        rng = random.Random(107)
        seen = set()
        for trial in range(300):
            low = 0 if trial % 2 else -4
            parts = {
                name: LaurentPoly({e: random_rational(rng) for e in range(low, 3)
                                   if rng.random() < 0.4})
                for name in ("F", "G0", "G1")
            }
            n = rng.randint(0, 60)
            outcomes = []
            for build_band in (lambda op: op.band(n), lambda op: apply_band(op, n)):
                try:
                    outcomes.append(build_band(DunklOperator(**parts)))
                except (NegativePowerResidue, InternalConsistencyError) as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1]
            seen.add(outcomes[0] if isinstance(outcomes[0], type) else "band")
        assert seen == {"band", NegativePowerResidue, InternalConsistencyError}

    def test_band_growth_never_calls_apply(self, monkeypatch):
        def refuse(self, p):
            raise AssertionError("apply called")

        rng = random.Random(109)
        ops = raw_and_family_operators(rng, 2, 20)
        expected = [apply_band(op, 20) for op in ops]
        monkeypatch.setattr(DunklOperator, "apply", refuse)
        for op, band in zip(ops, expected):
            for k in (3, 11, 20):
                op.band(k)
            assert op.band(20) == band
            eigs = eigen_sequence(op, 20)
            assert all(residual(op, e.poly, e.eigenvalue).is_zero for e in eigs)

    def test_grown_band_equals_fresh_band(self):
        # One degree at a time, so each larger band is built again and its
        # scale takes each new denominator: nu0 enters at x^2, mu at x^3.
        op = build(OperatorParams(mu=Fraction(1, 7), nu0=Fraction(1, 3), tau1=2, eta=-1))
        assert [op.band(k).scale for k in range(5)] == [1, 1, 3, 21, 21]
        assert op.band(14) == build(op.params).band(14)
        rng = random.Random(97)
        for op in raw_and_family_operators(rng, 3, 14):
            for k in range(15):
                op.band(k)
            assert op.band(14) == build(op.params).band(14)

    @pytest.mark.parametrize("name,exponent", [("F", 1), ("G0", 2), ("G1", 2)])
    def test_term_outside_band_raises(self, name, exponent):
        # Each of x (I - R), x^2 d/dx and x^2 d/dx R raises the degree by one.
        # (A term four degrees down leaves a negative power in L x, so
        # ``apply`` rejects it first.)
        parts = dict.fromkeys(("F", "G0", "G1"), LaurentPoly.zero())
        parts[name] = LaurentPoly({exponent: 1})
        with pytest.raises(InternalConsistencyError, match="outside the band"):
            DunklOperator(**parts).band(5)

    def test_diagonal_checked_against_eigenvalue_law(self):
        # A parameter record that disagrees with the coefficient functions.
        op = build(OperatorParams(tau1=2, eta=-1))
        wrong = DunklOperator(op.F, op.G0, op.G1, params=OperatorParams(tau1=3, eta=-1))
        with pytest.raises(InternalConsistencyError, match="eigenvalue law"):
            eigen_sequence(wrong, 3)

    def test_eigen_sequence_matches_fraction_oracle(self):
        rng = random.Random(101)
        for op in raw_and_family_operators(rng, 4, 25):
            N = rng.randint(0, 25)
            eigs = eigen_sequence(op, N)
            assert [(e.poly, e.eigenvalue) for e in eigs] == oracle_eigen_sequence(op, N)
            n = rng.randint(0, N)
            assert monic_eigenpolynomial(op, n) == eigs[n]
            assert monic_eigenpolynomial(op, n) == eigen_sequence(op, n)[n]


def window_lcm_steps(op, eigs) -> int:
    """Steps of the backward sweep whose window denominator needs an lcm.

    Read off the solved coefficients and the band alone: at degree ``n`` and
    index ``j``, a nonzero band term ``t_i c_{j+i}`` (``i = 2, 3``) whose
    denominator does not divide the lcm of the terms before it.
    """
    rows = op.band(max(e.n for e in eigs)).rows
    steps = 0
    for e in eigs:
        c = [e.poly.coefficient(k) for k in range(e.n + 1)]
        for j in range(e.n - 1):
            den = c[j + 1].denominator if rows[j + 1][1] and c[j + 1] else 1
            for i in (2, 3):
                if j + i > e.n or not (rows[j + i][i] and c[j + i]):
                    continue
                if den % c[j + i].denominator:
                    steps += 1
                    den = math.lcm(den, c[j + i].denominator)
    return steps


class TestLowestTermsSweep:
    def test_matches_fraction_free_sweep(self):
        # Three raw operators with mu != 0, two two-interval families and
        # one c = 0 family at N = 100, one more family at N = 160.
        rng = random.Random(113)
        ops = []
        while len(ops) < 3:
            p = random_nondegenerate_params(rng, 100)
            if p.mu:
                ops.append((build(p), 100))
        for family, N in [((Fraction(1, 2), 2, Fraction(1, 4)), 100),
                          ((Fraction(-3, 4), Fraction(5, 3), Fraction(3, 5)), 100),
                          ((Fraction(3, 4), Fraction(-1, 3), 0), 100),
                          ((Fraction(7, 4), Fraction(-2, 3), Fraction(2, 5)), 160)]:
            ops.append((build(big_operator(BigJacobiParams(*family))), N))
        lcm_steps = 0
        for op, N in ops:
            eigs = eigen_sequence(op, N)
            assert [e.poly.terms for e in eigs] == fraction_free_eigen_coefficients(op, N)
            for e in eigs:
                for c in e.poly.terms.values():
                    assert c.denominator > 0
                    assert math.gcd(c.numerator, c.denominator) == 1
            lcm_steps += window_lcm_steps(op, eigs)
        assert lcm_steps > 0

    @pytest.mark.parametrize("N", [0, 1, 12])
    def test_zero_band_entries_and_zero_coefficients(self, N):
        # The c = 0 family's band has t2 = t3 = 0 from x^2 on; the decoupled
        # parities (mu = xi = rho0 = rho1 = 0) have t1 = t3 = 0, so every
        # other window coefficient is 0.
        little = build(big_operator(BigJacobiParams(1, 0, 0)))
        decoupled = build(OperatorParams(nu0=Fraction(1, 3), nu1=Fraction(-1, 2),
                                         tau0=Fraction(3, 2), tau1=Fraction(-5, 3),
                                         eta=Fraction(7, 4)))
        for op in (little, decoupled):
            eigs = eigen_sequence(op, N)
            assert [e.poly.terms for e in eigs] == fraction_free_eigen_coefficients(op, N)
            assert [monic_eigenpolynomial(op, n) for n in range(N + 1)] == eigs
        rows = little.band(N).rows
        assert all(row[2] == row[3] == 0 for row in rows[2:])
        zeros = [(e.n, k) for e in eigen_sequence(decoupled, N)
                 for k in range(e.n) if not e.poly.coefficient(k)]
        assert len(zeros) == sum(n - n // 2 for n in range(N + 1))


class TestDegeneracy:
    def test_vanishing_reported_before_collision(self):
        # lambda_1 = 0 = lambda_0: the vanishing check comes first.
        with pytest.raises(DegenerateSpectrum, match="vanishes at degree 1"):
            eigen_sequence(build(OperatorParams(tau1=2, eta=1)), 4)

    def test_collision_names_first_degree(self):
        p = OperatorParams(tau0=1, tau1=2, eta=Fraction(7, 2))
        with pytest.raises(DegenerateSpectrum, match="degree 2 collides with degree 1") as exc:
            eigen_sequence(build(p), 6)
        assert exc.value.n == 2

    def test_lambda1_zero(self):
        # tau0=0, tau1=2, eta=1: lambda_1 = 2 - 2 = 0
        op = build(OperatorParams(tau1=2, eta=1))
        with pytest.raises(DegenerateSpectrum) as exc:
            monic_eigenpolynomial(op, 1)
        assert exc.value.n == 1

    def test_sequence_reports_offending_index(self):
        op = build(OperatorParams(tau1=2, eta=1))
        with pytest.raises(DegenerateSpectrum) as exc:
            eigen_sequence(op, 3)
        assert exc.value.n == 1

    def test_spectrum_matches_the_degree_by_degree_scan(self):
        # tau1 = 2, eta = 1: the odd eigenvalue vanishes at degree 1;
        # tau1 = -tau0: every even one vanishes; tau1 = tau0: the odd ones
        # collide; tau0 = 1, tau1 = 2, eta = 7/2: lambda_2 = lambda_1.
        def outcome(spectrum, *args):
            try:
                return spectrum(*args)
            except DegenerateSpectrum as exc:
                return exc.n, str(exc)

        rates = [Fraction(v) for v in ("0", "1", "-1", "2", "-1/2", "1/3", "-5/3")]
        etas = [Fraction(v) for v in ("0", "1", "-1", "7/2", "-3/2", "1/2", "5/6", "-7")]
        kinds = set()
        for tau0 in rates:
            for tau1 in rates:
                for eta in etas:
                    p = OperatorParams(tau0=tau0, tau1=tau1, eta=eta, xi=Fraction(1, 3))
                    op = build(p)
                    for N in (0, 1, 2, 5, 13):
                        got = outcome(_spectrum, op, N)
                        assert got == outcome(spectrum_scan, p, N)
                        if isinstance(got, tuple):
                            kinds.add(("vanishes" if "vanishes" in got[1] else "collides",
                                       got[0] % 2))
                        else:
                            assert [(q.numerator, q.denominator) for q in got] == [
                                (q.numerator, q.denominator) for q in spectrum_scan(p, N)]
        # vanishing odd and even eigenvalues, collisions at odd and even degrees
        assert kinds == {("vanishes", 1), ("vanishes", 0), ("collides", 1), ("collides", 0)}

    def test_even_odd_collision(self):
        # tau0=1, tau1=2, eta=7/2: lambda_2 = 6 = lambda_1; res_tau scan up to
        # N=2 misses it (zero of the odd law sits at k=3), the solver must not.
        p = OperatorParams(tau0=1, tau1=2, eta=Fraction(7, 2))
        from dunkl_jacobi import check_nondegenerate

        assert check_nondegenerate(p, 2)
        assert eigenvalue(p, 1) == eigenvalue(p, 2) == 6
        with pytest.raises(DegenerateSpectrum):
            monic_eigenpolynomial(build(p), 2)


class TestParity:
    def test_even_odd_decoupling_family(self):
        # With mu = xi = rho0 = rho1 = 0 the parity-flipping couplings vanish,
        # so P_n(-x) = (-1)^n P_n(x); certified through the exact residual.
        rng = random.Random(73)
        count = 0
        while count < 10:
            p = OperatorParams(
                nu0=random_rational(rng),
                nu1=random_rational(rng),
                tau0=random_rational(rng),
                tau1=random_rational(rng),
                eta=random_rational(rng),
            )
            from dunkl_jacobi import check_nondegenerate

            from _helpers import spectrally_simple

            if not (check_nondegenerate(p, 10) and spectrally_simple(p, 10)):
                continue
            count += 1
            op = build(p)
            for e in eigen_sequence(op, 10):
                expected = e.poly.reflect() if e.n % 2 == 0 else -e.poly.reflect()
                assert e.poly == expected


class TestExport:
    def test_csv_round_trip(self):
        op = build(big_operator(BigJacobiParams(1, 1, Fraction(1, 2))))
        eigs = eigen_sequence(op, 5)
        parsed = parse_coefficient_table_csv(coefficient_table_csv(eigs))
        for orig, back in zip(eigs, parsed):
            assert back.n == orig.n
            assert back.eigenvalue == orig.eigenvalue
            assert back.poly == orig.poly
            assert residual(op, back.poly, back.eigenvalue).is_zero

    @pytest.mark.parametrize("N", [0, 1, 40])
    def test_tables_match_reference_raw(self, N):
        # raw operators with mu != 0; from degree 1 on, a negative eigenvalue
        rng = random.Random(103 + N)
        tables = 0
        while tables < 3:
            p = random_nondegenerate_params(rng, N)
            if not p.mu or (N and min(eigenvalue(p, n) for n in range(N + 1)) >= 0):
                continue
            eigs = eigen_sequence(build(p), N)
            assert coefficient_table_csv(eigs) == coefficient_table_csv_reference(eigs)
            assert coefficient_table_json(eigs) == coefficient_table_json_reference(eigs)
            tables += 1

    @pytest.mark.parametrize("alpha,beta,c,N", [
        (Fraction(3, 4), Fraction(-1, 3), 0, 40),
        (Fraction(1, 2), 2, Fraction(1, 4), 100),
    ])
    def test_tables_match_reference_families(self, alpha, beta, c, N):
        eigs = eigen_sequence(build(big_operator(BigJacobiParams(alpha, beta, c))), N)
        assert coefficient_table_csv(eigs) == coefficient_table_csv_reference(eigs)
        assert coefficient_table_json(eigs) == coefficient_table_json_reference(eigs)

    def test_tables_match_reference_below_degree_zeros(self):
        # mu = xi = rho0 = rho1 = 0 decouples the parities: P_n has no
        # x^(n-1), x^(n-3), ... terms
        p = OperatorParams(nu0=Fraction(1, 3), nu1=Fraction(-1, 2), tau0=Fraction(3, 2),
                           tau1=Fraction(-5, 3), eta=Fraction(7, 4))
        eigs = eigen_sequence(build(p), 30)
        assert all(len(e.poly.terms) == e.n // 2 + 1 for e in eigs)
        assert coefficient_table_csv(eigs) == coefficient_table_csv_reference(eigs)
        assert coefficient_table_json(eigs) == coefficient_table_json_reference(eigs)

    def test_tables_of_no_rows(self):
        # the CSV is its header alone and the JSON an empty list; both read back as []
        import json

        text = coefficient_table_csv([])
        assert text == "degree,lambda\n"
        assert parse_coefficient_table_csv(text) == []
        assert coefficient_table_json([]) == "[]"
        assert json.loads(coefficient_table_json([])) == []

    def test_json_structure(self):
        import json

        op = build(big_operator(BigJacobiParams(0, 0, Fraction(1, 2))))
        records = json.loads(coefficient_table_json(eigen_sequence(op, 2)))
        assert records[1]["lambda"] == "-4"
        assert records[1]["coefficients"] == ["-1/4", "1"]
