"""Command-line front end.

Three subcommands: `table` regenerates the cdf/moments/median reference
tables as CSV (or aligned markdown), `eval` prints one distribution
function value, `sample` emits seeded, reproducible variates. Exit codes:
0 success, 2 usage or domain error, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

from .distribution import _MAX_SHAPE, GeneralizedHalfLogistic
from .order_statistics import OrderIndex, pdf_rth
from .quadrature import ConvergenceError, Tolerance
from .sampling import RngStream, sample
from .tables import (
    _TABLE_IDS,
    Table,
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

# Each eval function and the flags it reads, in argument order.
_EVAL_FLAGS = {"pdf": ("x",), "cdf": ("x",), "survival": ("x",), "hazard": ("x",),
               "quantile": ("p",), "moment": ("order",), "ordstat-pdf": ("x", "r", "n")}


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
    steps = int(hi - lo + 1e-9)
    if not (lo > 0.0 and lo + steps <= _MAX_SHAPE):
        raise argparse.ArgumentTypeError(f"range {text!r} leaves the shape domain (0, {_MAX_SHAPE:g}]")
    return tuple(lo + k for k in range(steps + 1))


def _add_tol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-abs", type=float, default=Tolerance.abs_tol,
                   help="absolute quadrature tolerance (read only by table moments and eval moment)")
    p.add_argument("--tol-rel", type=float, default=Tolerance.rel_tol,
                   help="relative quadrature tolerance (read only by table moments and eval moment)")


def _tolerance(args: argparse.Namespace) -> Tolerance:
    return Tolerance(abs_tol=args.tol_abs, rel_tol=args.tol_rel)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghl3",
        description="Generalized half logistic distribution: tables, point evaluation, sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit a cdf grid, moments table, or median table")
    p_table.add_argument("kind", choices=_TABLE_IDS)
    p_table.add_argument("--b", type=float, help="single shape value")
    p_table.add_argument("--b-list", type=_parse_b_list, metavar="LO..HI",
                         help="inclusive range of shapes in steps of 1")
    p_table.add_argument("--x-max", type=float,
                         help="largest cdf grid point (cdf table only; default: the stock b=2 grid's)")
    p_table.add_argument("--step", type=float,
                         help="cdf grid spacing (cdf table only; default: the stock grid's)")
    p_table.add_argument("--n-max", type=int, default=TableSpec.n_max,
                         help="highest moment order (moments table only)")
    p_table.add_argument("--precision", type=int,
                         help="decimal places (default: the stock table's)")
    p_table.add_argument("--format", choices=("csv", "md"), default="csv")
    _add_tol_flags(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_eval = sub.add_parser("eval", help="print one function value to 10 significant digits")
    p_eval.add_argument("function", choices=_EVAL_FLAGS)
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
    p_sample.set_defaults(func=_cmd_sample)

    return parser


def _table_specs(args: argparse.Namespace) -> list[TableSpec]:
    """The stock specs of args.kind with only the flags given applied."""
    if args.b is not None and args.b_list is not None:
        raise ValueError("--b and --b-list are mutually exclusive")
    given = {"b_values": (args.b,) if args.b is not None else args.b_list,
             "precision": args.precision}
    changes = {k: v for k, v in given.items() if v is not None}
    if args.kind == "moments":
        return [replace(default_moments_spec(), n_max=args.n_max, **changes)]
    if args.kind == "median":
        return [replace(default_median_spec(), **changes)]
    stock = default_cdf_specs()
    grid = stock[0]
    if args.x_max is not None or args.step is not None:
        x_max = grid.x_step * (grid.x_count - 1) if args.x_max is None else args.x_max
        if args.step is not None:
            grid = replace(grid, x_step=args.step)  # the spec rejects a step <= 0
        changes["x_count"] = int(round(x_max / grid.x_step)) + 1
    if not changes:
        return list(stock)
    # Any grid or precision flag asks for one grid, over every stock shape
    # unless --b or --b-list names others.
    changes.setdefault("b_values", tuple(b for spec in stock for b in spec.b_values))
    return [replace(grid, **changes)]


def _cmd_table(args: argparse.Namespace) -> int:
    tables = [build_table(spec, _tolerance(args)) for spec in _table_specs(args)]
    if args.format == "md":
        out = "\n".join(render_markdown(t) for t in tables)
    else:
        # The blocks share one header, so one CSV carries all their rows.
        out = render_csv(Table(tables[0].columns, tuple(row for t in tables for row in t.rows)))
    sys.stdout.write(out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    dist = GeneralizedHalfLogistic(args.b, _tolerance(args))
    fn = args.function
    values = []
    for name in _EVAL_FLAGS[fn]:
        if getattr(args, name) is None:
            raise ValueError(f"eval {fn} requires --{name}")
        values.append(getattr(args, name))
    if fn == "ordstat-pdf":
        x, r, n = values
        value = pdf_rth(dist, OrderIndex(r, n), x)
    else:
        value = getattr(dist, fn)(*values)
    print(f"{value:.10g}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    dist = GeneralizedHalfLogistic(args.b)
    stream = RngStream(seed=args.seed)
    for v in sample(dist, stream, args.count):
        print(f"{v:.17g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE if isinstance(exc, ConvergenceError) else _EXIT_USAGE

