"""Command-line front end: generation, classification, and certification.

Exit codes: 0 success, 1 certification failure, 2 usage or parameter error.
Rational arguments accept "p/q" or decimal strings; decimals convert
exactly, so the exact-arithmetic guarantees start at the flag parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import eigen as eigen_mod
from . import quadrature as quad_mod
from .dunkl import (
    OperatorParams,
    PARAM_NAMES,
    build,
    eigenvalue,
)
from .errors import DegenerateSpectrum, DunklJacobiError, ParameterRange
from .weights import BigJacobiParams, big_operator, big_weight, classify


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _int_from(low: int):
    """Argument type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_degree = _int_from(0)
_order = _int_from(1)
_ORDER_HELP = ("Gauss rule order, in y-nodes (default N // 2 + 11); N // 2 + 1 is the "
               "least exact order, and gram and certify refuse a smaller one")


def _margin(text: str) -> float:
    """Argument type: a finite float greater than zero."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


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
    family_mode = any(v is not None for v in (args.alpha, args.beta, args.c))
    raw_given = [n for n in PARAM_NAMES if getattr(args, n, None) is not None]
    if family_mode and raw_given:
        parser.error("use either --alpha/--beta/--c or the raw nine parameters, not both")
    if family_mode:
        return big_operator(_family_from_args(args, parser))
    if not raw_given:
        parser.error("no operator parameters given")
    return OperatorParams(**{n: getattr(args, n) or Fraction(0) for n in PARAM_NAMES
                             if getattr(args, n, None) is not None})


def _family_from_args(args, parser) -> BigJacobiParams:
    if args.alpha is None or args.beta is None:
        parser.error("this command needs --alpha and --beta (family mode)")
    c = args.c if args.c is not None else Fraction(0)
    return BigJacobiParams(args.alpha, args.beta, c)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen_poly(args, parser) -> int:
    op = build(_params_from_args(args, parser))
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
    family = _family_from_args(args, parser)
    w = big_weight(family)
    half = min(hi - lo for lo, hi in w.support) / 2
    if args.eps >= half:
        parser.error(f"--eps must be below half the shortest support interval ({half}), "
                     f"got {args.eps!r}")
    if any(float(lo) + args.eps == float(lo) or float(hi) - args.eps == float(hi)
           for lo, hi in w.support):
        parser.error(f"--eps must move every support endpoint in float64, got {args.eps!r}")
    lines = ["x,w"]
    for x in w.interior_grid(args.samples, eps=args.eps):
        # |x|^beta with beta < 0 is singular at the interior point 0: drop it.
        if x == 0.0 and w.abs_power < 0:
            continue
        lines.append(f"{x!r},{w(x)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gram(args, parser) -> int:
    w = big_weight(_family_from_args(args, parser))
    g = quad_mod.basis_gram(w, args.N, args.order)
    if args.format == "json":
        _emit(json.dumps({"entries": [[float(v) for v in row] for row in g.entries]},
                         indent=2) + "\n", args.out)
    else:
        _emit(g.to_csv(), args.out)
    return 0


def cmd_certify(args, parser) -> int:
    checks = quad_mod.certify(_family_from_args(args, parser), args.N, args.order)
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name} {check.detail}")
    return 0 if all(check.passed for check in checks) else 1


def make_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dunkl-jacobi",
        description="Generate, classify, and certify eigenpolynomial families of "
                    "first-order differential-reflection operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-poly", help="emit monic eigenpolynomial coefficient table")
    _add_family_flags(p)
    p.add_argument("--N", type=_degree, required=True, help="largest degree")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_poly)

    p = sub.add_parser("eigenvalues", help="emit the eigenvalue table")
    _add_family_flags(p)
    p.add_argument("--N", type=_degree, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eigenvalues)

    p = sub.add_parser("classify", help="classify a parameter set by symmetrizability")
    _add_family_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("weight-sample", help="sample the weight function over its support")
    _add_family_flags(p, with_raw=False)
    p.add_argument("--samples", type=_int_from(2), required=True, help="points per interval (>= 2)")
    p.add_argument("--eps", type=_margin, default=1e-6,
                   help="margin from singular endpoints (positive, below half the "
                        "shortest support interval, and large enough to move each "
                        "endpoint in float64)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_weight_sample)

    p = sub.add_parser("gram", help="Gram matrix of the eigenpolynomials")
    _add_family_flags(p, with_raw=False)
    p.add_argument("--N", type=_degree, required=True, help="largest degree")
    p.add_argument("--order", type=_order, default=None, help=_ORDER_HELP)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("certify", help="run the full certification suite")
    _add_family_flags(p, with_raw=False)
    p.add_argument("--N", type=_degree, default=10, help="largest degree (default 10)")
    p.add_argument("--order", type=_order, default=None, help=_ORDER_HELP)
    p.set_defaults(func=cmd_certify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged."""
    return make_parser()


def main(argv=None) -> int:
    parser = _parser()
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
