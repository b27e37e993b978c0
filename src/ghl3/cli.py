"""Command-line front end.

Three subcommands: `table` regenerates the cdf/moments/median reference
tables as CSV (or aligned markdown), `eval` prints one distribution
function value, `sample` emits seeded, reproducible variates. Exit codes:
0 success, 2 usage or domain error, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys

from .distribution import GeneralizedHalfLogistic
from .order_statistics import OrderIndex, pdf_rth
from .quadrature import ConvergenceError, Tolerance
from .sampling import RngStream, sample
from .tables import (
    TableSpec,
    build_table,
    default_cdf_specs,
    default_median_spec,
    default_moments_spec,
    render_csv,
    render_markdown,
)

__all__ = ["main"]

_EXIT_USAGE = 2
_EXIT_NO_CONVERGENCE = 3

_EVAL_FUNCTIONS = ("pdf", "cdf", "survival", "hazard", "quantile", "moment", "ordstat-pdf")


def _parse_b_list(text: str) -> tuple[float, ...]:
    lo_s, sep, hi_s = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}")
    try:
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected lo..hi with numeric bounds, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"expected lo..hi with finite bounds, got {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return tuple(lo + k for k in range(int(hi - lo + 1e-9) + 1))


def _add_tol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-abs", type=float, default=1e-10, help="absolute quadrature tolerance")
    p.add_argument("--tol-rel", type=float, default=1e-10, help="relative quadrature tolerance")


def _tolerance(args: argparse.Namespace) -> Tolerance:
    return Tolerance(abs_tol=args.tol_abs, rel_tol=args.tol_rel)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghl3",
        description="Generalized half logistic distribution: tables, point evaluation, sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit a cdf grid, moments table, or median table")
    p_table.add_argument("kind", choices=("cdf", "moments", "median"))
    p_table.add_argument("--b", type=float, help="single shape value")
    p_table.add_argument("--b-list", type=_parse_b_list, metavar="LO..HI",
                         help="inclusive range of shapes in steps of 1")
    p_table.add_argument("--x-max", type=float,
                         help="largest cdf grid point (cdf table only; default 5.9)")
    p_table.add_argument("--step", type=float, help="cdf grid spacing (default 0.1)")
    p_table.add_argument("--n-max", type=int, default=4,
                         help="highest moment order (moments table only)")
    p_table.add_argument("--precision", type=int, default=None,
                         help="decimal places (default 4; 5 for the median table)")
    p_table.add_argument("--format", choices=("csv", "md"), default="csv")
    _add_tol_flags(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_eval = sub.add_parser("eval", help="print one function value to 10 significant digits")
    p_eval.add_argument("function", choices=_EVAL_FUNCTIONS)
    p_eval.add_argument("--b", type=float, required=True, help="shape value")
    p_eval.add_argument("--x", type=float, help="evaluation point on [0, inf)")
    p_eval.add_argument("--p", type=float, help="probability level for quantile")
    p_eval.add_argument("--order", type=int, help="moment order")
    p_eval.add_argument("--r", type=int, help="order-statistic rank")
    p_eval.add_argument("--n", type=int, help="order-statistic sample size")
    _add_tol_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_sample = sub.add_parser("sample", help="emit newline-delimited inverse-transform samples")
    p_sample.add_argument("--b", type=float, required=True, help="shape value")
    p_sample.add_argument("--count", type=int, required=True, help="number of samples")
    p_sample.add_argument("--seed", type=int, default=0, help="64-bit stream seed")
    _add_tol_flags(p_sample)
    p_sample.set_defaults(func=_cmd_sample)

    return parser


def _table_specs(args: argparse.Namespace) -> list[TableSpec]:
    if args.b is not None and args.b_list is not None:
        raise ValueError("--b and --b-list are mutually exclusive")
    b_values = (args.b,) if args.b is not None else args.b_list

    if args.kind == "cdf":
        precision = 4 if args.precision is None else args.precision
        if b_values is None:
            if args.precision is None and args.x_max is None and args.step is None:
                return list(default_cdf_specs())
            b_values = (2.0, 3.0)
        x_max = 5.9 if args.x_max is None else args.x_max
        step = 0.1 if args.step is None else args.step
        x_count = int(round(x_max / step)) + 1
        if x_count < 1:
            raise ValueError("--x-max and --step give an empty grid")
        return [TableSpec("cdf", tuple(b_values), x_step=step,
                          x_count=x_count, precision=precision)]
    if args.kind == "moments":
        precision = 4 if args.precision is None else args.precision
        if b_values is None:
            spec = default_moments_spec()
            b_values = spec.b_values
        return [TableSpec("moments", tuple(b_values), n_max=args.n_max, precision=precision)]
    precision = 5 if args.precision is None else args.precision
    if b_values is None:
        b_values = default_median_spec().b_values
    return [TableSpec("median", tuple(b_values), precision=precision)]


def _cmd_table(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    render = render_csv if args.format == "csv" else render_markdown
    specs = _table_specs(args)
    tables = [build_table(spec, tol) for spec in specs]
    if args.format == "csv" and len(tables) > 1:
        # Merge blocks that share a header into one CSV stream.
        merged = tables[0]
        rows = list(merged.rows)
        for t in tables[1:]:
            rows.extend(t.rows)
        tables = [type(merged)(columns=merged.columns, rows=tuple(rows))]
    out = "\n".join(render(t) for t in tables) if args.format == "md" else render(tables[0])
    sys.stdout.write(out)
    return 0


def _require(args: argparse.Namespace, names: list[str]) -> list[float]:
    values = []
    for name in names:
        v = getattr(args, name)
        if v is None:
            raise ValueError(f"eval {args.function} requires --{name}")
        values.append(v)
    return values


def _cmd_eval(args: argparse.Namespace) -> int:
    dist = GeneralizedHalfLogistic(args.b, _tolerance(args))
    fn = args.function
    if fn == "quantile":
        (p,) = _require(args, ["p"])
        value = dist.quantile(p)
    elif fn == "moment":
        (order,) = _require(args, ["order"])
        value = dist.moment(order)
    elif fn == "ordstat-pdf":
        x, r, n = _require(args, ["x", "r", "n"])
        value = pdf_rth(dist, OrderIndex(int(r), int(n)), x)
    else:
        (x,) = _require(args, ["x"])
        value = getattr(dist, fn)(x)
    print(f"{value:.10g}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    dist = GeneralizedHalfLogistic(args.b, _tolerance(args))
    stream = RngStream(seed=args.seed)
    for v in sample(dist, stream, args.count):
        print(f"{v:.17g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
