import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dunkl_jacobi
from dunkl_jacobi import (
    BigJacobiParams,
    DunklOperator,
    ParameterRange,
    Polynomial,
    big_operator,
    build,
    parse_coefficient_table_csv,
    residual,
)
from dunkl_jacobi import cli, eigen as eigen_mod, quadrature as quad_mod
from dunkl_jacobi.cli import main


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenPoly:
    def test_family_mode_table(self, capsys):
        code, out, _ = run(["gen-poly", "--alpha", "0", "--beta", "0",
                            "--c", "1/2", "--N", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,lambda,c0,c1,c2"
        assert lines[2].startswith("1,-4,-1/4,1")

    def test_round_trip_exact(self, tmp_path, capsys):
        out_file = tmp_path / "polys.csv"
        code, _, _ = run(["gen-poly", "--alpha", "1", "--beta", "1", "--c", "1/2",
                          "--N", "6", "--out", str(out_file)], capsys)
        assert code == 0
        op = build(big_operator(BigJacobiParams(1, 1, Fraction(1, 2))))
        for e in parse_coefficient_table_csv(out_file.read_text()):
            assert residual(op, e.poly, e.eigenvalue).is_zero

    def test_degenerate_exit_code(self, capsys):
        code, _, err = run(["gen-poly", "--tau0", "1", "--tau1", "1", "--N", "3"],
                           capsys)
        assert code == 2
        assert "degenerate" in err.lower()

    def test_tau1_equal_tau0_with_distinct_eigenvalues(self, capsys):
        # lambda_n = 0, 2, 4: tau1 = tau0 degenerates only from degree 3 on
        code, out, err = run(["gen-poly", "--tau0=1", "--tau1=1", "--eta=1", "--N", "2"],
                             capsys)
        assert code == 0 and err == ""
        assert out.splitlines() == ["degree,lambda,c0,c1,c2", "0,0,1,0,0", "1,2,0,1,0",
                                    "2,4,0,0,1"]
        code, _, err = run(["gen-poly", "--tau0=1", "--tau1=1", "--eta=1", "--N", "3"],
                           capsys)
        assert code == 2 and "degree 3" in err and "collides with degree 1" in err

    def test_tau1_equal_minus_tau0_exit_code(self, capsys):
        code, out, err = run(["gen-poly", "--tau0=1", "--tau1=-1", "--eta=1", "--N", "2"],
                             capsys)
        assert code == 2 and out == ""
        assert "degenerate spectrum at degree 2" in err

    def test_n_zero(self, capsys):
        code, out, _ = run(["gen-poly", "--alpha", "1", "--beta", "0", "--N", "0"],
                           capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "0,0,1"

    def test_json_format(self, capsys):
        code, out, _ = run(["gen-poly", "--alpha", "0", "--beta", "0", "--c", "1/2",
                            "--N", "1", "--format", "json"], capsys)
        assert code == 0
        records = json.loads(out)
        assert records[1]["coefficients"] == ["-1/4", "1"]

    def test_deterministic_output(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            run(["gen-poly", "--alpha", "1/2", "--beta", "2", "--c", "1/4",
                 "--N", "5", "--out", str(p)], capsys)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestClassify:
    def test_generic_line(self, capsys):
        code, out, _ = run(["classify", "--nu1", "-1", "--rho1", "-1",
                            "--tau1", "2", "--eta", "-1"], capsys)
        assert code == 0
        assert out.startswith("GenericBig positive=true")

    def test_case_ii_line(self, capsys):
        code, out, _ = run(["classify", "--tau1", "2"], capsys)
        assert code == 0
        assert out.startswith("Case_ii positive=false")

    def test_not_symmetrizable(self, capsys):
        code, out, _ = run(["classify", "--mu", "1"], capsys)
        assert code == 0
        assert out.startswith("NotSymmetrizable positive=false")

    def test_case_iii_exponential_overflow(self, capsys):
        # some sign probes overflow exp(coefficient / (x^2 - z^2)) near the
        # inner endpoint; they count as infinite, not as a crash
        code, out, _ = run(["classify", "--tau1=2", "--rho1=-4", "--nu1=2",
                            "--xi=3", "--eta=1"], capsys)
        assert code == 0
        assert out.startswith("Case_iii positive=false")

    @pytest.mark.parametrize("argv", [
        ["classify", "--c=1/2", "--tau1=2", "--eta=-1"],
        ["gen-poly", "--c=1/2", "--tau1=2", "--eta=-1", "--N", "3"],
        ["eigenvalues", "--c=1/2", "--tau1=2", "--eta=-1", "--N", "3"],
    ])
    def test_c_with_raw_parameters_rejected(self, argv, capsys):
        # --c is a family flag: beside raw parameters it is refused, not dropped
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the raw nine parameters, not both" in captured.err

    def test_c_alone_needs_alpha_and_beta(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--c=1/2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--alpha and --beta" in captured.err


class TestWeightSample:
    def test_little_values(self, tmp_path, capsys):
        out_file = tmp_path / "w.csv"
        code, _, _ = run(["weight-sample", "--alpha", "1", "--beta", "0",
                          "--samples", "3", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "x,w"
        assert len(lines) == 4
        for row in lines[1:]:
            x, w = (float(v) for v in row.split(","))
            assert w == pytest.approx(x + 1, rel=1e-12)

    def test_big_two_ranges(self, capsys):
        code, out, _ = run(["weight-sample", "--alpha", "1", "--beta", "1",
                            "--c", "1/2", "--samples", "4"], capsys)
        assert code == 0
        xs = [float(r.split(",")[0]) for r in out.strip().splitlines()[1:]]
        assert any(x < -0.5 for x in xs) and any(x > 0.5 for x in xs)
        assert not any(-0.5 < x < 0.5 for x in xs)

    def test_sample_count_guard(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["weight-sample", "--alpha", "1", "--beta", "0", "--samples", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("eps,message", [
        ("-1", "must be finite and positive"),  # would sample outside the support
        ("0", "must be finite and positive"),  # would sample the singular endpoints
        ("nan", "must be finite and positive"),
        ("inf", "must be finite and positive"),
        ("1", "below half the shortest support interval (1/4)"),  # intervals reversed
        ("0.25", "below half the shortest support interval (1/4)"),
    ])
    def test_eps_rejected(self, eps, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["weight-sample", "--alpha", "1", "--beta", "1", "--c", "1/2",
                  "--samples", "3", "--eps", eps])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ") and message in captured.err

    @pytest.mark.parametrize("eps", ["1e-300", "5e-17"])
    def test_eps_below_endpoint_spacing_rejected(self, eps, capsys):
        # -1 + 5e-17 rounds back to -1.0, so the endpoints would be sampled.
        with pytest.raises(SystemExit) as exc:
            main(["weight-sample", "--alpha", "1", "--beta", "1/2", "--c", "1/2",
                  "--samples", "3", "--eps", eps])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must move every support endpoint in float64" in captured.err
        code, out, _ = run(["weight-sample", "--alpha", "1", "--beta", "1/2", "--c", "1/2",
                            "--samples", "3", "--eps", "2e-16"], capsys)
        assert code == 0
        assert all(math.isfinite(float(row.split(",")[1])) for row in out.splitlines()[1:])

    @pytest.mark.parametrize("samples", [3, 5])
    def test_interior_singular_point_dropped(self, samples, capsys):
        # |x|^(-1/2) is singular at x = 0, which an odd grid on [-1, 1] hits.
        code, out, _ = run(["weight-sample", "--alpha", "1", "--beta", "-1/2",
                            "--samples", str(samples)], capsys)
        assert code == 0
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert len(rows) == samples - 1
        assert all(float(x) != 0.0 and math.isfinite(float(w)) for x, w in rows)
        code, out, _ = run(["weight-sample", "--alpha", "1", "--beta", "1/2",
                            "--samples", str(samples)], capsys)
        assert code == 0 and "\n0.0,0.0\n" in out

    def test_eps_default_output(self, capsys):
        argv = ["weight-sample", "--alpha", "1", "--beta", "1", "--c", "1/2", "--samples", "3"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert run(argv + ["--eps", "1e-6"], capsys) == (0, out, "")
        w = dunkl_jacobi.big_weight(BigJacobiParams(1, 1, Fraction(1, 2)))
        rows = [row.split(",") for row in out.splitlines()]
        assert rows[0] == ["x", "w"]
        assert [x for x, _ in rows[1:]] == [
            "-0.999999", "-0.75", "-0.500001", "0.500001", "0.75", "0.999999"]
        assert [v for _, v in rows[1:]] == [repr(w(float(x))) for x, _ in rows[1:]]
        code, out, _ = run(["weight-sample", "--alpha", "1", "--beta", "1", "--c", "1/2",
                            "--samples", "3", "--eps", "0.2499"], capsys)
        assert code == 0 and len(out.splitlines()) == 7


class TestCertify:
    def test_big_family_passes(self, capsys):
        code, out, _ = run(["certify", "--alpha", "1", "--beta", "1", "--c", "1/2",
                            "--N", "10"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 5

    def test_little_family_passes(self, capsys):
        code, out, _ = run(["certify", "--alpha", "1", "--beta", "0", "--N", "10"],
                           capsys)
        assert code == 0
        assert "FAIL" not in out

    def test_positivity_exact_near_c_one(self, capsys):
        # The monic h_n underflow float64 near n = 56 here; positivity is
        # decided by Favard (h_0 > 0, exact u_n > 0), so it holds at N = 60,
        # and so does every other check.
        code, out, _ = run(["certify", "--alpha", "1", "--beta", "1",
                            "--c", "99999/100000", "--N", "60"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert [ln.split()[1] for ln in lines] == [
            "eigen-residual", "orthogonality", "positivity", "symmetry", "pearson"]
        assert lines[2].startswith("PASS positivity h0=")
        assert "at n=" in lines[2]

    def test_large_n_passes(self, capsys):
        code, out, _ = run(["certify", "--alpha", "1", "--beta", "1", "--c", "1/2",
                            "--N", "80"], capsys)
        assert code == 0
        assert out.count("PASS") == 5

    def test_large_n_does_not_underflow(self, capsys):
        # the monic h_n are 0.0 in float64 from n = 441 here; the orthogonality
        # figure is read in the unit frame, where none is
        code, out, _ = run(["certify", "--alpha", "1", "--beta", "1", "--c", "1/2",
                            "--N", "500"], capsys)
        assert code == 0
        assert out.count("PASS") == 5

    def test_checks_that_measure_nothing_fail(self, capsys):
        # every rule weight underflows at alpha = beta = 1000, c = 1/2, so the
        # symmetry block holds no value; the Pearson figure takes no power of
        # the weight, and measures
        code, out, _ = run(["certify", "--alpha", "1000", "--beta", "1000", "--c", "1/2",
                            "--N", "10"], capsys)
        assert code == 1
        assert "FAIL symmetry max_residual=inf" in out
        assert "PASS pearson max_residual=" in out
        # tiny but representable weights still measure, and pass
        for family in (["--alpha", "200", "--beta", "3", "--c", "1/2"],
                       ["--alpha", "1000", "--beta", "1000", "--c", "0"]):
            code, out, _ = run(["certify", *family, "--N", "10"], capsys)
            assert code == 0 and out.count("PASS") == 5

    def test_positivity_needs_the_link_to_the_operator(self, capsys, monkeypatch):
        # The eigenpolynomials must be the closed-form P_n exactly.  A wrong
        # top band row leaves h_0 and the exact u_n as they are, so only the
        # link between the operator and the closed form can fail positivity
        # here, and eigen-residual fails with it.
        real = DunklOperator.band

        def band(op, n):
            out = real(op, n)
            rows = [list(row) for row in out.rows]
            rows[7][1] += 1  # beta_7 of L x^7, read only by the proof at N = 6
            return dataclasses.replace(out, rows=tuple(map(tuple, rows)))

        monkeypatch.setattr(DunklOperator, "band", band)
        code, out, err = run(["certify", "--alpha", "1", "--beta", "1", "--c", "1/2",
                              "--N", "6"], capsys)
        assert code == 1 and err == ""
        assert "FAIL eigen-residual fails at degrees [6]" in out
        assert "FAIL positivity h0=" in out
        assert out.count("PASS") == 3

    @pytest.mark.parametrize("moved", [(Fraction(1, 1000), 0, 0), (0, 0, Fraction(-1, 1000))])
    def test_perturbed_operator_fails_the_eigen_residual(self, moved, capsys, monkeypatch):
        # the weight stays and the operator moves: the band's recurrence is
        # not the weight's, reported as a failure at every degree, not raised
        real = quad_mod.big_operator
        family = (Fraction(1), Fraction(1), Fraction(1, 2))
        monkeypatch.setattr(quad_mod, "big_operator", lambda _: real(
            BigJacobiParams(*(a + m for a, m in zip(family, moved)))))
        code, out, err = run(["certify", "--alpha", "1", "--beta", "1", "--c", "1/2",
                              "--N", "10"], capsys)
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert lines[0] == f"FAIL eigen-residual fails at degrees {list(range(11))}"
        assert lines[2].startswith("FAIL positivity h0=")

    @pytest.mark.parametrize("family", [("--c", "1/2"), ("--c", "0")])
    def test_recurrence_evaluated_once(self, family, capsys, monkeypatch):
        # recurrence, link check and both Gram matrices read one recurrence
        calls = []
        real = quad_mod._recurrence
        monkeypatch.setattr(quad_mod, "_recurrence",
                            lambda nf, N: calls.append(N) or real(nf, N))
        code, out, _ = run(["certify", "--alpha", "1", "--beta", "1", *family,
                            "--N", "12"], capsys)
        assert code == 0 and out.count("PASS") == 5
        assert calls == [12]

    @pytest.mark.parametrize("N, order", [(0, None), (4, None), (15, None), (16, None),
                                          (24, None), (40, None), (4, 50), (24, 50)])
    def test_one_gauss_rule_per_call(self, N, order, capsys, monkeypatch):
        # the symmetry block runs on the Gram matrix's rule, so a call builds
        # one rule for every N, with or without --order
        calls = []
        real = quad_mod._gauss_jacobi_refined
        monkeypatch.setattr(quad_mod, "_gauss_jacobi_refined",
                            lambda n, a, b: calls.append(n) or real(n, a, b))
        argv = ["certify", "--alpha", "1", "--beta", "1", "--c", "1/2", "--N", str(N)]
        code, out, _ = run(argv + (["--order", str(order)] if order else []), capsys)
        assert code == 0 and out.count("PASS") == 5
        assert calls == [order or N // 2 + 11]

    @pytest.mark.parametrize("entry, least", [
        ("cli certify --N 4", 3), ("cli certify --N 40", 21), ("cli gram --N 4", 3),
        ("certify", 3), ("gram_matrix", 3), ("symmetry_block", 6), ("inner_product", 3),
        ("moment", 2), ("symmetry_residual", 3),
    ])
    def test_order_below_the_exact_order_is_refused(self, entry, least, capsys):
        # (ceil(d / 2) + 2) // 2 nodes are the fewest exact at x-degree d; one
        # fewer is wrong on this positive family (gram --N 4 --order 2 printed
        # g03 = -0.035, not 0), so every float entry point refuses it
        if entry.startswith("cli "):
            command, *rest = entry.split()[1:]
            argv = [command, "--alpha", "1", "--beta", "1", "--c", "1/2", *rest]
            code, out, err = run(argv + ["--order", str(least - 1)], capsys)
            assert code == 2 and out == ""
            assert err.startswith(f"parameter error: order {least - 1} is below {least}, ")
            code, out, _ = run(argv + ["--order", str(least)], capsys)
            assert code == 0
            if command == "certify":
                assert out.count("PASS") == 5
            else:
                g = [[float(v) for v in row.split(",")] for row in out.splitlines()[1:]]
                assert max(abs(g[i][j]) / math.sqrt(g[i][i] * g[j][j])
                           for i in range(len(g)) for j in range(i)) <= 1e-14
            return
        family = BigJacobiParams(1, 1, Fraction(1, 2))
        w, op = dunkl_jacobi.big_weight(family), build(big_operator(family))
        x = Polynomial.monomial
        call = {  # x-degrees 8, 8, 20, 7, 5 and 7
            "certify": lambda o: [c.passed for c in quad_mod.certify(family, 4, o)],
            "gram_matrix": lambda o: quad_mod.gram_matrix(
                w, quad_mod.orthogonal_polynomials(w, 4), o).entries,
            "symmetry_block": lambda o: quad_mod.symmetry_block(w, op, 10, o),
            "inner_product": lambda o: quad_mod.inner_product(w, x(3), x(4), o),
            "moment": lambda o: quad_mod.moment(w, 5, o),
            "symmetry_residual": lambda o: quad_mod.symmetry_residual(w, op, x(3), x(4), o),
        }[entry]
        with pytest.raises(ParameterRange, match=f"^order {least - 1} is below {least}, "):
            call(least - 1)
        # the least exact order gives the default order's values to rounding
        assert call(least) == pytest.approx(call(None), rel=1e-12, abs=1e-15)

    def test_constant_beyond_float_range_is_an_error(self, capsys, recwarn):
        # mu_0 = 2^1500.5 / 1500.5 of the rule at alpha = 3000, beta = 1; at
        # alpha = 1e400 the exponent itself is beyond float64
        for alpha, name in (("3000", "mu_0"), ("1e300", "mu_0"), ("1e400", "a + b + 1")):
            code, out, err = run(["certify", f"--alpha={alpha}", "--beta=1", "--c=1/2",
                                  "--N", "20"], capsys)
            assert code == 1 and out == ""
            assert err == f"error: the Gauss rule's constant {name} overflows float64\n"
        assert [str(warning.message) for warning in recwarn] == []

    @pytest.mark.parametrize("family", [("--c", "1/2"), ("--c", "0")])
    @pytest.mark.parametrize("N", [0, 12])
    def test_one_exact_computation(self, family, N, capsys, monkeypatch):
        # the proof reads the band alone: no eigen solve, no P_n, no exact
        # residual; the band grows once, to degree max(N, 1) + 1, and the
        # Gram matrix and the symmetry block share one unit frame
        def refuse(*args):
            raise AssertionError("certify built or checked an exact P_n")

        for module, name in ((eigen_mod, "eigen_sequence"), (eigen_mod, "eigen_defects"),
                             (eigen_mod, "residual"), (quad_mod, "orthogonal_polynomials"),
                             (quad_mod, "_basis")):
            monkeypatch.setattr(module, name, refuse)
        growths, frames = [], []
        real = DunklOperator.band

        def band(op, n):
            before = op._band
            grown = real(op, n)
            if grown is not before:
                growths.append(n)
            return grown

        real_frame = quad_mod._unit_values
        monkeypatch.setattr(DunklOperator, "band", band)
        monkeypatch.setattr(quad_mod, "_unit_values",
                            lambda rule, top: frames.append(top) or real_frame(rule, top))
        code, out, _ = run(["certify", "--alpha", "1", "--beta", "1", *family,
                            "--N", str(N)], capsys)
        assert code == 0 and out.count("PASS") == 5
        assert growths == [max(N, 1) + 1] and frames == [N]

    @pytest.mark.parametrize("family", [("--c", "1/2"), ("--c", "0")])
    def test_proof_builds_no_fractions(self, family, capsys, monkeypatch):
        # certify builds no polynomial in integer form, and its proof forms
        # no Fraction of its own: the closed form's b_0..b_24 and u_1..u_24
        # are the only ones made in the quadrature module
        def refuse(*args):
            raise AssertionError("certify built a polynomial in integer form")

        made = []
        real = quad_mod.Fraction
        monkeypatch.setattr(quad_mod._IntegerPolynomial, "__init__", refuse)
        monkeypatch.setattr(quad_mod, "Fraction", lambda *args: made.append(args) or real(*args))
        code, out, _ = run(["certify", "--alpha", "1", "--beta", "1", *family,
                            "--N", "24"], capsys)
        assert code == 0 and out.count("PASS") == 5
        assert len(made) == 2 * 24 + 1

    @pytest.mark.parametrize("argv, family, N, order", [
        (["--c", "1/2", "--N", "6"], BigJacobiParams(1, 1, Fraction(1, 2)), 6, None),
        (["--c", "99999/100000", "--N", "20", "--order", "45"],
         BigJacobiParams(1, 1, Fraction(99999, 100000)), 20, 45),
    ])
    def test_prints_the_library_checks(self, argv, family, N, order, capsys):
        checks = quad_mod.certify(family, N, order)
        with pytest.raises(dataclasses.FrozenInstanceError):
            checks[0].passed = False
        code, out, err = run(["certify", "--alpha", "1", "--beta", "1", *argv], capsys)
        assert out.splitlines() == [f"{'PASS' if check.passed else 'FAIL'} {check.name} "
                                    f"{check.detail}" for check in checks]
        assert code == (0 if all(check.passed for check in checks) else 1) and err == ""

    def test_parameter_error_exit_2(self, capsys):
        code, _, err = run(["certify", "--alpha", "-2", "--beta", "0"], capsys)
        assert code == 2
        assert "parameter" in err.lower()


class TestEigenvaluesAndGram:
    def test_eigenvalues_table(self, capsys):
        code, out, _ = run(["eigenvalues", "--alpha", "0", "--beta", "0",
                            "--c", "1/2", "--N", "2"], capsys)
        assert code == 0
        assert out.strip().splitlines() == [
            "n,parity,lambda", "0,even,0", "1,odd,-4", "2,even,4",
        ]

    def test_gram_csv(self, capsys):
        code, out, _ = run(["gram", "--alpha", "1", "--beta", "0", "--N", "2"],
                           capsys)
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "g0,g1,g2"
        first = float(rows[1].split(",")[0])
        assert first == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("c", [Fraction(0), Fraction(2, 5)])
    def test_gram_csv_is_that_of_the_eigenpolynomials(self, c, capsys):
        # gram reads the weight's P_n; they are the eigenpolynomials,
        # so the CSV is byte for byte the Gram matrix of the solved ones
        family = BigJacobiParams(Fraction(1, 2), Fraction(-1, 3), c)
        eigs = eigen_mod.eigen_sequence(build(big_operator(family)), 12)
        expected = quad_mod.gram_matrix(dunkl_jacobi.big_weight(family),
                                        [e.poly for e in eigs]).to_csv()
        code, out, _ = run(["gram", "--alpha=1/2", "--beta=-1/3", f"--c={c}", "--N", "12"],
                           capsys)
        assert code == 0 and out == expected

    @pytest.mark.parametrize("family", [("1", "1", "1/2"), ("-99/100", "5/2", "99999/100000")])
    @pytest.mark.parametrize("N", [10, 40, 200])
    def test_gram_is_that_of_the_exact_basis(self, family, N, capsys):
        # gram prints the unit-frame Gram that certify scores; its CSV and
        # JSON are byte for byte those of the exact P_0..P_N's gram_matrix
        alpha, beta, c = family
        w = dunkl_jacobi.big_weight(BigJacobiParams(*map(Fraction, family)))
        g = quad_mod.gram_matrix(w, quad_mod.orthogonal_polynomials(w, N))
        argv = ["gram", f"--alpha={alpha}", f"--beta={beta}", f"--c={c}", "--N", str(N)]
        assert run(argv, capsys) == (0, g.to_csv(), "")
        entries = [[float(v) for v in row] for row in g.entries]
        text = json.dumps({"entries": entries}, indent=2) + "\n"
        assert run(argv + ["--format", "json"], capsys) == (0, text, "")

    def test_gram_builds_no_exact_basis(self, capsys, monkeypatch):
        # no P_k and no node table of polynomials: the rows are the unit frame
        def refuse(*args):
            raise AssertionError("gram built an exact P_k or expanded one")

        for name in ("_basis", "_node_table"):
            monkeypatch.setattr(quad_mod, name, refuse)
        code, out, err = run(["gram", "--alpha", "1", "--beta", "1", "--c", "1/2",
                              "--N", "20"], capsys)
        assert code == 0 and err == "" and len(out.splitlines()) == 22

    @pytest.mark.parametrize("value", ["-9/10", "-0.9", "-.9", "-9e-1", "-90E-2"])
    def test_negative_rational_as_separate_argument(self, value, capsys):
        code, out, _ = run(["certify", "--alpha", value, "--beta", "0", "--N", "3"],
                           capsys)
        assert code == 0
        assert out.count("PASS") == 5
        code, out, _ = run(["eigenvalues", "--tau1", "2", "--eta", value, "--N", "2"],
                           capsys)
        assert code == 0
        assert out.strip().splitlines()[1:] == ["0,even,0", "1,odd,-19/5", "2,even,4"]

    def test_bad_rational_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eigenvalues", "--alpha", "x", "--beta", "0", "--N", "1"])
        assert exc.value.code == 2


class TestIntegerBounds:
    @pytest.mark.parametrize("argv", [
        ["certify", "--alpha", "1", "--beta", "1", "--c", "1/2", "--N", "-1"],
        ["certify", "--alpha", "1", "--beta", "1", "--c", "1/2", "--order", "0"],
        ["gen-poly", "--alpha", "1", "--beta", "0", "--N", "-1"],
        ["gram", "--alpha", "1", "--beta", "0", "--N", "-1"],
        ["gram", "--alpha", "1", "--beta", "0", "--N", "2", "--order", "0"],
        ["eigenvalues", "--alpha", "1", "--beta", "0", "--N", "-1"],
        ["weight-sample", "--alpha", "1", "--beta", "0", "--samples", "1"],
    ])
    def test_rejected_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ") and "must be at least" in captured.err

    def test_not_an_integer(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eigenvalues", "--alpha", "1", "--beta", "0", "--N", "1/2"])
        assert exc.value.code == 2
        assert "not an integer: '1/2'" in capsys.readouterr().err

    def test_lowest_values_accepted(self, capsys):
        code, out, _ = run(["gram", "--alpha", "1", "--beta", "0", "--N", "0",
                            "--order", "1"], capsys)
        assert code == 0
        assert float(out.splitlines()[1]) == pytest.approx(2.0, rel=1e-13)
        code, out, _ = run(["eigenvalues", "--tau1", "2", "--N", "0"], capsys)
        assert code == 0 and out.splitlines() == ["n,parity,lambda", "0,even,0"]


class TestParserReuse:
    SEQUENCE = [
        ["gen-poly", "--alpha", "1", "--beta", "1", "--c", "1/2", "--N", "4"],
        ["eigenvalues", "--tau1", "2", "--eta", "-9/10", "--N", "3"],
        ["gen-poly", "--alpha", "1", "--beta", "0", "--N", "-1"],  # parser rejection
        ["classify", "--nu1", "-1", "--rho1", "-1", "--tau1", "2", "--eta", "-1"],
        ["certify", "--alpha", "1", "--beta", "0", "--N", "4"],
        ["weight-sample", "--alpha", "1", "--beta", "1", "--c", "1/2", "--samples", "3",
         "--eps", "1"],  # rejected after parsing
        ["gen-poly", "--alpha", "1/2", "--beta", "2", "--c", "1/4", "--N", "3",
         "--format", "json"],
        ["certify", "--alpha", "-2", "--beta", "0"],  # parameter error
        ["eigenvalues", "--alpha", "0", "--beta", "0", "--c", "1/2", "--N", "2"],
    ]

    @staticmethod
    def outcomes(capsys):
        results = []
        for argv in TestParserReuse.SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_cached_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        cached = self.outcomes(capsys)
        monkeypatch.setattr(cli, "_parser", cli.make_parser)
        fresh = self.outcomes(capsys)
        assert [code for code, _, _ in cached] == [0, 0, 2, 0, 0, 2, 0, 2, 0]
        assert cached == fresh


class TestStartup:
    def test_classify_leaves_scipy_unloaded(self):
        # scipy is needed only to build a Gauss rule
        code = (
            "import sys, dunkl_jacobi\n"
            "from dunkl_jacobi import cli\n"
            "assert cli.main(['classify', '--alpha', '1', '--beta', '1', '--c', '1/2']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(dunkl_jacobi.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.splitlines() == ["GenericBig positive=true kappa0=1 kappa1=1 "
                                            "nu1=-1 rho1=-1 tau1=2 xi=1/2 eta=-3", "[]"]

    @staticmethod
    def python(code, *args):
        src = str(Path(dunkl_jacobi.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, timeout=60)

    @pytest.mark.parametrize("argv", [
        [],
        ["gen-poly", "--alpha", "1/2", "--beta", "-1/3", "--c", "2/5", "--N", "40"],
        ["classify", "--alpha", "1", "--beta", "1", "--c", "1/2"],
        ["weight-sample", "--alpha", "1/2", "--beta", "-1/3", "--c", "2/5", "--samples", "40"],
    ])
    def test_exact_paths_leave_numpy_unloaded(self, argv):
        # numpy is needed only by the float layer of quadrature; the weight
        # evaluates one point in Python floats
        code = (
            "import contextlib, io, sys, dunkl_jacobi\n"
            "from dunkl_jacobi import cli\n"
            "if sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        done = self.python(code, *argv)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().splitlines() == ["[]"]

    def test_pearson_sweep_leaves_numpy_unloaded(self):
        # the figure and the point residuals are Python ints and floats
        code = (
            "import sys\n"
            "from dunkl_jacobi import BigJacobiParams, big_operator, big_weight, build\n"
            "from dunkl_jacobi import pearson_defect, pearson_residual\n"
            "fam = BigJacobiParams(1, 1, '1/2')\n"
            "w, op = big_weight(fam), build(big_operator(fam))\n"
            "assert pearson_defect(w, op) <= 1e-12 and w(0.75) > 0.0\n"
            "assert max(map(abs, pearson_residual(w, op, 0.75))) <= 1e-12\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        done = self.python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().splitlines() == ["[]"]

    def test_certify_runs_without_scipy(self):
        # a finder that refuses every scipy import, ahead of the real ones
        code = (
            "import sys\n"
            "if sys.argv[1] == 'block':\n"
            "    class NoScipy:\n"
            "        def find_spec(self, name, path=None, target=None):\n"
            "            if name.split('.')[0] == 'scipy':\n"
            "                raise ImportError(f'{name} is blocked')\n"
            "    sys.meta_path.insert(0, NoScipy())\n"
            "from dunkl_jacobi import cli\n"
            "code = cli.main(sys.argv[2:])\n"
            "assert 'scipy' not in sys.modules\n"
            "sys.exit(code)\n"
        )
        argv = ["certify", "--alpha", "1", "--beta", "1", "--c", "1/2", "--N", "24"]
        plain, blocked = (self.python(code, mode, *argv) for mode in ("plain", "block"))
        assert plain.returncode == 0, plain.stderr
        assert (blocked.returncode, blocked.stdout) == (plain.returncode, plain.stdout)
