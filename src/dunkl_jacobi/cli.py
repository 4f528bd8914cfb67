"""Command-line front end: generation, classification, and certification.

Exit codes: 0 success, 1 certification failure, 2 usage or parameter error.
Rational arguments accept "p/q" or decimal strings; decimals convert
exactly, so the exact-arithmetic guarantees start at the flag parser.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import eigen as eigen_mod
from . import quadrature as quad_mod
from .dunkl import (
    OperatorParams,
    PARAM_NAMES,
    build,
    check_nondegenerate,
    eigenvalue,
)
from .errors import DegenerateSpectrum, DunklJacobiError, ParameterRange
from .laurent import Polynomial
from .weights import BigJacobiParams, big_operator, big_weight, classify, little_weight

ORTHOGONALITY_TOL = 1e-10
SYMMETRY_TOL = 1e-10
PEARSON_TOL = 1e-12


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


class _ArgumentParser(argparse.ArgumentParser):
    """Reads every token starting ``-<digit>`` or ``-.<digit>`` as a value.

    Stock argparse takes only ``-1`` and ``-0.5`` shapes as values, so
    ``--alpha -9/10`` or ``--c -1e-3`` fails with "expected one argument".
    No option here starts with a digit, so nothing else changes.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _add_family_flags(parser, with_raw: bool = True):
    parser.add_argument("--alpha", type=_rational, help="family exponent alpha")
    parser.add_argument("--beta", type=_rational, help="family exponent beta")
    parser.add_argument("--c", type=_rational, default=None,
                        help="interval split point c (0 gives the one-interval family)")
    if with_raw:
        for name in PARAM_NAMES:
            parser.add_argument(f"--{name}", type=_rational, default=None,
                                help=f"raw operator parameter {name}")


def _params_from_args(args, parser) -> OperatorParams:
    family_mode = args.alpha is not None or args.beta is not None
    raw_given = [n for n in PARAM_NAMES if getattr(args, n, None) is not None]
    if family_mode and raw_given:
        parser.error("use either --alpha/--beta/--c or the raw nine parameters, not both")
    if family_mode:
        if args.alpha is None or args.beta is None:
            parser.error("family mode needs both --alpha and --beta")
        c = args.c if args.c is not None else Fraction(0)
        return big_operator(BigJacobiParams(args.alpha, args.beta, c))
    if not raw_given:
        parser.error("no operator parameters given")
    return OperatorParams(**{n: getattr(args, n) or Fraction(0) for n in PARAM_NAMES
                             if getattr(args, n, None) is not None})


def _family_from_args(args, parser) -> BigJacobiParams:
    if args.alpha is None or args.beta is None:
        parser.error("this command needs --alpha and --beta (family mode)")
    c = args.c if args.c is not None else Fraction(0)
    return BigJacobiParams(args.alpha, args.beta, c)


def _weight_for(family: BigJacobiParams):
    if family.c == 0:
        return little_weight(family.alpha, family.beta)
    return big_weight(family)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen_poly(args, parser) -> int:
    params = _params_from_args(args, parser)
    if not check_nondegenerate(params, args.N):
        print(f"degenerate parameters: nondegeneracy fails for some degree <= {args.N}",
              file=sys.stderr)
        return 2
    op = build(params)
    try:
        eigs = eigen_mod.eigen_sequence(op, args.N)
    except DegenerateSpectrum as exc:
        print(f"degenerate spectrum at degree {exc.n}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit(eigen_mod.coefficient_table_json(eigs) + "\n", args.out)
    else:
        _emit(eigen_mod.coefficient_table_csv(eigs), args.out)
    return 0


def cmd_eigenvalues(args, parser) -> int:
    params = _params_from_args(args, parser)
    rows = [(n, "even" if n % 2 == 0 else "odd", str(eigenvalue(params, n)))
            for n in range(args.N + 1)]
    if args.format == "json":
        text = json.dumps(
            [{"n": n, "parity": p, "lambda": lam} for n, p, lam in rows], indent=2
        ) + "\n"
    else:
        lines = ["n,parity,lambda"] + [f"{n},{p},{lam}" for n, p, lam in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_classify(args, parser) -> int:
    params = _params_from_args(args, parser)
    verdict = classify(params)
    print(verdict.summary_line())
    return 0


def cmd_weight_sample(args, parser) -> int:
    if args.samples < 2:
        parser.error("--samples must be at least 2")
    family = _family_from_args(args, parser)
    w = _weight_for(family)
    lines = ["x,w"]
    for x in w.interior_grid(args.samples, eps=args.eps):
        lines.append(f"{x!r},{w(x)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gram(args, parser) -> int:
    family = _family_from_args(args, parser)
    w = _weight_for(family)
    op = build(big_operator(family))
    eigs = eigen_mod.eigen_sequence(op, args.N)
    g = quad_mod.gram_matrix(w, [e.poly for e in eigs], order=args.order)
    if args.format == "json":
        _emit(json.dumps({"entries": [[float(v) for v in row] for row in g.entries]},
                         indent=2) + "\n", args.out)
    else:
        _emit(g.to_csv(), args.out)
    return 0


def cmd_certify(args, parser) -> int:
    family = _family_from_args(args, parser)
    w = _weight_for(family)
    params = big_operator(family)
    if not check_nondegenerate(params, args.N):
        print("degenerate parameters", file=sys.stderr)
        return 2
    op = build(params)
    eigs = eigen_mod.eigen_sequence(op, args.N)
    recurrence = quad_mod.recurrence_coefficients(w, args.N)
    lines = []
    all_ok = True

    def record(name: str, ok: bool, detail: str):
        nonlocal all_ok
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} {detail}")

    # exact eigen-residuals
    bad = [e.n for e in eigs
           if not eigen_mod.residual(op, e.poly, e.eigenvalue).is_zero]
    record("eigen-residual", not bad,
           "all exact" if not bad else f"nonzero at degrees {bad}")

    # orthogonality and positivity
    g = quad_mod.gram_matrix(w, [e.poly for e in eigs], order=args.order)
    off = g.max_relative_off_diagonal()
    record("orthogonality", off <= ORTHOGONALITY_TOL,
           f"max_offdiag={off:.3e} tol={ORTHOGONALITY_TOL:.0e}")
    # Favard: h_0 > 0 and exact u_n > 0 for n = 1..N make the functional
    # positive definite; the eigenpolynomials must be exactly its P_n.
    h0 = g.normalization(0)
    detail = f"h0={h0:.3e}"
    if args.N >= 1:
        umin, nmin = min((u, n) for n, (_, u) in enumerate(recurrence) if n >= 1)
        detail += f" min_u={float(umin):.3e} at n={nmin}"
    linked = [e.poly for e in eigs] == quad_mod.orthogonal_polynomials(w, args.N)
    record("positivity", linked and h0 > 0.0 and all(u > 0 for _, u in recurrence[1:]), detail)

    # operator symmetry on monomial pairs: B[i, j] = <x^i, L x^j>
    top = min(args.N, 10)
    monos = [Polynomial.monomial(k) for k in range(top + 1)]
    gs = quad_mod.gram_matrix(w, monos + [op.apply(v) for v in monos], order=args.order)
    b = gs.entries[:top + 1, top + 1:]
    worst_sym = float((abs(b - b.T) / (abs(b) + abs(b.T) + 1.0)).max())
    record("symmetry", worst_sym <= SYMMETRY_TOL,
           f"max_residual={worst_sym:.3e} tol={SYMMETRY_TOL:.0e}")

    # Pearson identities at interior sample points
    from .weights import pearson_residual

    worst_p = 0.0
    for x in w.interior_grid(25, eps=1e-3):
        if abs(x) < 1e-9 or not (w.contains_interior(x) and w.contains_interior(-x)):
            continue
        r1, r2 = pearson_residual(w, op, x)
        s1 = abs(w(x) * op.G1.evaluate(x)) + abs(w(-x) * op.G1.evaluate(-x)) + 1e-30
        s2 = abs(w(-x) * op.F.evaluate(-x)) + abs(w(x) * op.F.evaluate(x)) + 1e-30
        worst_p = max(worst_p, abs(r1) / s1, abs(r2) / s2)
    record("pearson", worst_p <= PEARSON_TOL,
           f"max_residual={worst_p:.3e} tol={PEARSON_TOL:.0e}")

    print("\n".join(lines))
    return 0 if all_ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dunkl-jacobi",
        description="Generate, classify, and certify eigenpolynomial families of "
                    "first-order differential-reflection operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-poly", help="emit monic eigenpolynomial coefficient table")
    _add_family_flags(p)
    p.add_argument("--N", type=int, required=True, help="largest degree")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_poly)

    p = sub.add_parser("eigenvalues", help="emit the eigenvalue table")
    _add_family_flags(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eigenvalues)

    p = sub.add_parser("classify", help="classify a parameter set by symmetrizability")
    _add_family_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("weight-sample", help="sample the weight function over its support")
    _add_family_flags(p, with_raw=False)
    p.add_argument("--samples", type=int, required=True, help="points per interval (>= 2)")
    p.add_argument("--eps", type=float, default=1e-6, help="margin from singular endpoints")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_weight_sample)

    p = sub.add_parser("gram", help="Gram matrix of the eigenpolynomials")
    _add_family_flags(p, with_raw=False)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("certify", help="run the full certification suite")
    _add_family_flags(p, with_raw=False)
    p.add_argument("--N", type=int, default=10)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ParameterRange, DegenerateSpectrum) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except DunklJacobiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
