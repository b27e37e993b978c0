"""Reference-table builders: cdf grids, raw moments, and medians.

Cells are formatted once, here, with Python's half-even fixed-point
rounding, so that CLI output, golden files, and tests all agree byte for
byte. The cdf grid keeps the row-label = whole part / column-header =
fractional offset layout of the classic printed tables; each moments row
is one GeneralizedHalfLogistic.moments pass.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .distribution import GeneralizedHalfLogistic, _check_whole
from .quadrature import Tolerance

__all__ = [
    "TableSpec",
    "Table",
    "build_table",
    "default_cdf_specs",
    "default_moments_spec",
    "default_median_spec",
    "render_csv",
    "render_markdown",
    "format_fixed",
]

_TABLE_IDS = ("cdf", "moments", "median")
_COLS_PER_ROW = 10


@dataclass(frozen=True)
class TableSpec:
    """Grid description for one table kind.

    x_step/x_count describe the cdf evaluation grid, which starts at 0;
    n_max is the highest moment order; precision is the fixed-point output
    width.
    """

    table_id: str
    b_values: tuple[float, ...]
    x_step: float = 0.1
    x_count: int = 60
    n_max: int = 4
    precision: int = 4

    def __post_init__(self) -> None:
        if self.table_id not in _TABLE_IDS:
            raise ValueError(f"table_id must be one of {_TABLE_IDS}, got {self.table_id!r}")
        if not self.b_values:
            raise ValueError("b_values must be nonempty")
        if not (math.isfinite(self.x_step) and self.x_step > 0.0):
            raise ValueError(f"x_step must be finite and positive, got {self.x_step!r}")
        object.__setattr__(self, "x_count", _check_whole(self.x_count, "x_count", 1))
        object.__setattr__(self, "n_max", _check_whole(self.n_max, "n_max", 1))
        object.__setattr__(self, "precision", _check_whole(self.precision, "precision", 1))
        if self.precision > 12:
            raise ValueError(f"precision must lie in [1, 12], got {self.precision!r}")


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


def format_fixed(value: float, precision: int) -> str:
    """Fixed-point decimal with banker's (half-even) rounding."""
    return f"{value:.{precision}f}"


def _axis_label(v: float) -> str:
    # One decimal when the grid lands on tenths (the classic layout),
    # shortest form otherwise.
    if abs(v * 10.0 - round(v * 10.0)) < 1e-9:
        return f"{v:.1f}"
    return f"{v:g}"


def default_cdf_specs() -> tuple[TableSpec, ...]:
    """The stock cdf grids: b=2 up to x=5.9 and b=3 up to x=4.9."""
    return (
        TableSpec("cdf", (2.0,), x_count=60),
        TableSpec("cdf", (3.0,), x_count=50),
    )


def default_moments_spec() -> TableSpec:
    return TableSpec("moments", tuple(float(b) for b in range(1, 11)))


def default_median_spec() -> TableSpec:
    return TableSpec("median", tuple(float(b) for b in range(1, 6)), precision=5)


def _build_cdf(spec: TableSpec) -> Table:
    offsets = [spec.x_step * j for j in range(_COLS_PER_ROW)]
    columns = ("b", "x", *(_axis_label(o) for o in offsets))
    rows = []
    for b in spec.b_values:
        dist = GeneralizedHalfLogistic(b)
        for start in range(0, spec.x_count, _COLS_PER_ROW):
            row_x = start * spec.x_step
            cells = []
            for j in range(_COLS_PER_ROW):
                i = start + j
                if i >= spec.x_count:
                    cells.append("")
                    continue
                x = i * spec.x_step
                cells.append(format_fixed(dist.cdf(x), spec.precision))
            rows.append((f"{b:g}", _axis_label(row_x), *cells))
    return Table(columns=columns, rows=tuple(rows))


def _build_moments(spec: TableSpec, tol: Tolerance) -> Table:
    columns = ("b", *(f"E[X^{n}]" if n > 1 else "E[X]" for n in range(1, spec.n_max + 1)))
    rows = []
    for b in spec.b_values:
        dist = GeneralizedHalfLogistic(b, tol)
        cells = [format_fixed(m, spec.precision) for m in dist.moments(spec.n_max)]
        rows.append((f"{b:g}", *cells))
    return Table(columns=columns, rows=tuple(rows))


def _build_median(spec: TableSpec) -> Table:
    columns = ("b", "median")
    rows = []
    for b in spec.b_values:
        dist = GeneralizedHalfLogistic(b)
        rows.append((f"{b:g}", format_fixed(dist.median(), spec.precision)))
    return Table(columns=columns, rows=tuple(rows))


def build_table(spec: TableSpec, tol: Tolerance = Tolerance()) -> Table:
    """The table spec describes; tol reaches only the moments pass, since the
    cdf and median tables are closed forms."""
    if spec.table_id == "cdf":
        return _build_cdf(spec)
    if spec.table_id == "moments":
        return _build_moments(spec, tol)
    return _build_median(spec)


def render_csv(table: Table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(table.rows)
    return buf.getvalue()


def render_markdown(table: Table) -> str:
    widths = [len(c) for c in table.columns]
    for row in table.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    header = "| " + " | ".join(c.rjust(w) for c, w in zip(table.columns, widths)) + " |"
    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    lines = [header, rule]
    for row in table.rows:
        lines.append("| " + " | ".join(c.rjust(w) for c, w in zip(row, widths)) + " |")
    return "\n".join(lines) + "\n"
