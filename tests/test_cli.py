import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dunkl_jacobi
from dunkl_jacobi import (
    BigJacobiParams,
    Polynomial,
    big_operator,
    build,
    parse_coefficient_table_csv,
    residual,
)
from dunkl_jacobi import quadrature as quad_mod
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
        # decided by Favard (h_0 > 0, exact u_n > 0), so it holds at N = 60.
        # Orthogonality and Pearson still fail on this family.
        code, out, _ = run(["certify", "--alpha", "1", "--beta", "1",
                            "--c", "99999/100000", "--N", "60"], capsys)
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

    def test_positivity_needs_the_recurrence_polynomials(self, capsys, monkeypatch):
        # The eigenpolynomials must equal the closed-form P_n exactly.  A wrong
        # top P_n leaves h_0 and the exact u_n as they are, so only that link
        # can fail positivity here (the Gram checks fail with it).
        real = quad_mod.orthogonal_polynomials
        monkeypatch.setattr(quad_mod, "orthogonal_polynomials",
                            lambda w, n: real(w, n)[:-1] + [Polynomial.monomial(n)])
        code, out, _ = run(["certify", "--alpha", "1", "--beta", "1", "--c", "1/2",
                            "--N", "6"], capsys)
        assert code == 1
        assert "FAIL positivity h0=" in out

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
