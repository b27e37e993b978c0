"""Table builder and CLI tests: layout, rounding round trips, exit codes."""

import csv
import io
import math
import pathlib

import pytest

from ghl3 import GeneralizedHalfLogistic
from ghl3.cli import _EVAL_FLAGS, _build_parser, _parse_b_list, main
from ghl3.tables import (
    Table,
    TableSpec,
    build_table,
    default_cdf_specs,
    default_median_spec,
    default_moments_spec,
    format_fixed,
    render_csv,
    render_markdown,
)

from conftest import run_python


def _cells(table, b_label, row_label):
    for row in table.rows:
        if row[0] == b_label and row[1] == row_label:
            return row[2:]
    raise AssertionError(f"row ({b_label}, {row_label}) not found")


class TestCdfTable:
    def test_default_grid_shapes(self):
        spec2, spec3 = default_cdf_specs()
        t2 = build_table(spec2)
        t3 = build_table(spec3)
        assert t2.columns == ("b", "x", "0.0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9")
        assert len(t2.rows) == 6
        assert len(t3.rows) == 5

    def test_reference_cells(self):
        t2 = build_table(default_cdf_specs()[0])
        assert _cells(t2, "2", "2.0")[3] == "0.9532"  # x = 2.3
        assert _cells(t2, "2", "0.0")[0] == "0.0000"
        t3 = build_table(default_cdf_specs()[1])
        assert _cells(t3, "3", "1.0")[5] == "0.9094"  # x = 1.5
        assert _cells(t3, "3", "0.0")[0] == "0.0000"

    def test_partial_last_row_padded(self):
        t = build_table(TableSpec("cdf", (2.0,), x_count=13))
        assert len(t.rows) == 2
        assert t.rows[1][2 + 3] == ""

    def test_csv_round_trip(self):
        spec = default_cdf_specs()[0]
        text = render_csv(build_table(spec))
        rows = list(csv.reader(io.StringIO(text)))
        header, data = rows[0], rows[1:]
        offsets = [float(h) for h in header[2:]]
        assert len(data) == 6
        for row in data:
            d = GeneralizedHalfLogistic(float(row[0]))
            base = float(row[1])
            for off, cell in zip(offsets, row[2:]):
                if not cell:
                    continue
                assert format_fixed(d.cdf(base + off), spec.precision) == cell

    def test_precision_flag(self):
        t = build_table(TableSpec("cdf", (2.0,), x_count=2, precision=7))
        assert t.rows[0][2] == "0.0000000"
        assert len(t.rows[0][3].split(".")[1]) == 7


class TestMomentsTable:
    def test_reference_cells(self):
        t = build_table(default_moments_spec())
        assert t.columns == ("b", "E[X]", "E[X^2]", "E[X^3]", "E[X^4]")
        rows = {r[0]: r[1:] for r in t.rows}
        assert rows["3"][2] == "1.1713"
        assert rows["10"][3] == "0.1374"
        assert rows["1"][1] == "3.2899"

    def test_row_count_and_order(self):
        t = build_table(default_moments_spec())
        assert [r[0] for r in t.rows] == [f"{b}" for b in range(1, 11)]


class TestMedianTable:
    def test_reference_values(self):
        t = build_table(default_median_spec())
        rows = {r[0]: r[1] for r in t.rows}
        # analytic ln 3 for b=1; the rest frozen from the closed form
        assert rows["1"] == "1.09861"
        assert rows["2"] == "0.72473"
        assert rows["3"] == "0.57781"
        assert rows["4"] == "0.49444"
        assert rows["5"] == "0.43906"


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(table_id="bogus", b_values=(2.0,)),
            dict(table_id="cdf", b_values=()),
            dict(table_id="cdf", b_values=(2.0,), x_step=0.0),
            dict(table_id="cdf", b_values=(2.0,), precision=0),
            dict(table_id="cdf", b_values=(2.0,), precision=13),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            TableSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(x_count=2.5), "x_count"),
            (dict(x_count=True), "x_count"),
            (dict(x_count=math.inf), "x_count"),
            (dict(n_max=2.5), "n_max"),
            (dict(n_max=True), "n_max"),
            (dict(precision=True), "precision"),
            (dict(precision=4.5), "precision"),
            (dict(x_step=math.nan), "x_step"),
            (dict(x_step=math.inf), "x_step"),
        ],
    )
    def test_non_integer_or_non_finite_grid_rejected_at_construction(self, kwargs, name):
        # Each of these used to construct and then fail inside build_table
        # with an unrelated message, or build a one-point grid for True.
        with pytest.raises(ValueError, match=name):
            TableSpec("cdf", (2.0,), **kwargs)

    def test_whole_float_counts_are_stored_as_ints(self):
        spec = TableSpec("moments", (2.0,), x_count=13.0, n_max=2.0, precision=6.0)
        assert (spec.x_count, spec.n_max, spec.precision) == (13, 2, 6)
        assert all(type(v) is int for v in (spec.x_count, spec.n_max, spec.precision))
        assert build_table(spec).rows == build_table(TableSpec("moments", (2.0,), n_max=2, precision=6)).rows


class TestRenderers:
    def test_csv_has_header_and_unix_newlines(self):
        text = render_csv(Table(columns=("a", "b"), rows=(("1", "2"),)))
        assert text == "a,b\n1,2\n"

    def test_markdown_aligned(self):
        text = render_markdown(Table(columns=("b", "median"), rows=(("1", "1.09861"),)))
        lines = text.splitlines()
        assert lines[0].startswith("|")
        assert set(lines[1]) <= {"|", "-"}
        assert len({len(line) for line in lines}) == 1


class TestCli:
    def test_eval_moment(self, capsys):
        assert main(["eval", "moment", "--b", "1", "--order", "2"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.pi**2 / 3, abs=1e-8)

    def test_eval_ordstat(self, capsys):
        assert main(["eval", "ordstat-pdf", "--b", "2", "--x", "0", "--r", "1", "--n", "3"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.25, rel=1e-9)

    def test_table_default_cdf(self, capsys):
        assert main(["table", "cdf"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:2] == ["b", "x"]
        assert len(rows) == 1 + 6 + 5  # header, b=2 block, b=3 block
        assert {r[0] for r in rows[1:]} == {"2", "3"}

    def test_table_single_b_with_x_max(self, capsys):
        assert main(["table", "cdf", "--b", "2", "--x-max", "0.9"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 2
        assert rows[1][2] == "0.0000"

    def test_table_off_tenths_step_labels_shortest_form(self, capsys):
        # A step that leaves the tenths grid labels columns by %g.
        assert main(["table", "cdf", "--b", "2", "--step", "0.25", "--x-max", "1"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "b,x,0.0,0.25,0.5,0.75,1.0,1.25,1.5,1.75,2.0,2.25"

    @pytest.mark.parametrize("flags", [["--x-max", "5.9"], ["--step", "0.1"]])
    def test_table_explicit_grid_flag_is_honoured(self, capsys, flags):
        # Any grid flag asks for one grid: b=2 and b=3 both up to 5.9, where
        # the stock table stops b=3 at 4.9.
        assert main(["table", "cdf", *flags]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1 + 12
        assert [r[1] for r in rows[1:] if r[0] == "3"][-1] == "5.0"

    def test_table_precision_flag_gives_one_grid(self, capsys):
        # --precision counts as a grid flag too: one 6-decimal grid for b=2
        # and b=3, both up to 5.9.
        assert main(["table", "cdf", "--precision", "6"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1 + 12
        assert [r[0] for r in rows[1:]] == ["2"] * 6 + ["3"] * 6
        assert all(len(cell.split(".")[1]) == 6 for r in rows[1:] for cell in r[2:])

    def test_table_b_list_moments(self, capsys):
        assert main(["table", "moments", "--b-list", "1..3"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize("command", ["table", "eval"])
    def test_tolerance_help_names_its_readers(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert help_text.count("(read only by table moments and eval moment)") == 2

    def test_b_list_values_do_not_accumulate_rounding(self):
        values = _parse_b_list("0.33..999.33")
        assert values == tuple(0.33 + k for k in range(1000))

    def test_sample_deterministic(self, capsys):
        assert main(["sample", "--b", "2", "--count", "3", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["sample", "--b", "2", "--count", "3", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = first.splitlines()
        assert len(lines) == 3
        assert all(float(v) >= 0.0 for v in lines)

    def test_sample_17_significant_digits(self, capsys):
        assert main(["sample", "--b", "2", "--count", "1", "--seed", "7"]) == 0
        line = capsys.readouterr().out.strip()
        assert line == f"{float(line):.17g}"


GOLDEN = pathlib.Path(__file__).parent / "golden"


def _row(command, *expected):
    return pytest.param(command.split(), *expected, id=command)


def _pin(command, *lines):
    return _row(command, "".join(f"{line}\n" for line in lines))


def _golden(command, name):
    return _row(command, (GOLDEN / name).read_text())


def _missing_flag_rows():
    """Each eval function run without one of the flags it reads, the others given."""
    given = {"x": "0.5", "p": "0.5", "order": "1", "r": "2", "n": "3"}
    for fn, flags in _EVAL_FLAGS.items():
        for flag in flags:
            others = "".join(f" --{other} {given[other]}" for other in flags if other != flag)
            yield _row(f"eval {fn} --b 2{others}", 2, f"error: eval {fn} requires --{flag}\n")


class TestPinnedOutputs:
    """The CLI contract, one table per exit path of main: exit 0 with stdout
    byte for byte (the golden files included), main's one error line with
    exit 2 or 3, and argparse's usage exit 2. CI adds only a smoke run of the
    installed entry points."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            _golden("table cdf", "cdf_default.csv"),
            _golden("table moments", "moments_default.csv"),
            _golden("table median", "median_default.csv"),
            # No integral reaches the cdf and median tables, so the tolerance
            # flags leave them as they are.
            _golden("table cdf --tol-abs 1e-3 --tol-rel 1e-3", "cdf_default.csv"),
            _golden("table median --tol-abs 1e-3 --tol-rel 1e-3", "median_default.csv"),
            # The stock cdf table's two grids are two markdown tables joined
            # by a blank line.
            _golden("table cdf --format md", "cdf_default.md"),
            _golden("table moments --format md", "moments_default.md"),
            _golden("table median --format md", "median_default.md"),
            _pin("table median --b 2", "b,median", "2,0.72473"),
            _pin("eval cdf --b 2 --x 1.0", "0.6438326526"),
            _pin("eval pdf --b 1 --x 0", "0.5"),
            _pin("eval pdf --b 1000 --x 1e308", "0"),
            _pin("eval hazard --b 1 --x 760", "1"),
            _pin("eval quantile --b 2 --p 0.5", "0.724731974"),
            # Both sides of the survival kernel's switch, the hazard past
            # x ~ 745, the quantile's linear lower tail, three quantiles solved
            # in one kernel evaluation from Hill's t-quantile seed, the cdf
            # near the origin (no digits cancelled) and at b = 1000, two
            # moments whose heads start from the graded panels, the density
            # at both ends of the shape domain, a survival at b = 1e-10
            # whose continued fraction settles one ulp below 1, an order
            # statistic whose F is a few ulps, one at b = 1e-300 where S is
            # clamped to 1, a mean whose head ends past 6e307, the quantile's
            # linear tail where B(1/2, b) overflows, a quantile and a cdf
            # either side of log_beta's series switch at b = 20, a fourth
            # moment near the top of the double range (x**4 alone overflows in
            # its tail) and the linear tail at b <= 1 (50-digit mpmath).
            _pin("eval survival --b 1000 --x 0.01", "0.8230853858"),
            _pin("eval survival --b 1000 --x 1", "1.801724132e-106"),
            _pin("eval hazard --b 0.001 --x 800", "0.001"),
            _pin("eval quantile --b 2 --p 1e-200", "1.333333333e-200"),
            _pin("eval quantile --b 200 --p 0.3", "0.03855733003"),
            _pin("eval quantile --b 40 --p 0.999", "0.7464644649"),
            _pin("eval quantile --b 5 --p 0.9", "1.09133152"),
            _pin("eval cdf --b 0.001 --x 1e-12", "9.986163064e-16"),
            _pin("eval cdf --b 1000 --x 0.05", "0.7363629719"),
            _pin("eval moment --b 0.001 --order 1", "1000.001641"),
            _pin("eval moment --b 1000 --order 4", "1.201601301e-05"),
            _pin("eval pdf --b 2 --x 1", "0.4638750275"),
            _pin("eval pdf --b 1000 --x 0.01", "17.3985662"),
            _pin("eval pdf --b 0.001 --x 700", "0.0004965861195"),
            _pin("eval survival --b 1e-10 --x 13.8", "0.9999999986"),
            _pin("eval ordstat-pdf --b 0.0018 --x 1e-12 --r 10 --n 10", "3.482659829e-135"),
            # S rounds above 1 at b = 1e-300 unless clamped, and log(1 - S) raised.
            _pin("eval ordstat-pdf --b 1e-300 --x 5 --r 2 --n 3", "0"),
            _pin("eval moment --b 1e-306 --order 1", "1e+306"),
            _pin("eval quantile --b 5e-324 --p 0", "0"),
            _pin("eval quantile --b 19.999 --p 0.5", "0.2148396809"),
            _pin("eval cdf --b 20 --x 0.3", "0.6533081809"),
            _pin("eval moment --b 1e-75 --order 4", "2.4e+301"),
            _pin("eval quantile --b 0.001 --p 1e-20", "1.001385611e-17"),
            # Survival and hazard either side of the (1/2, b) continued
            # fraction's switch at b = 1000, x_switch = 0.0774016... (50-digit
            # mpmath).
            _pin("eval survival --b 1000 --x 0.0773", "0.08397935811"),
            _pin("eval survival --b 1000 --x 0.0774", "0.08357947375"),
            _pin("eval hazard --b 1000 --x 0.0773", "47.70905505"),
            _pin("eval hazard --b 1000 --x 0.0774", "47.75237059"),
            # The quantile's far upper tail, where the solve steps on
            # ln(1 - I_u) against 1 - p (50-digit mpmath).
            _pin("eval quantile --b 10 --p 0.99999999999", "3.701207947"),
            _pin("eval quantile --b 10 --p 0.9999999999999", "4.178373694"),
            # The density s^b / B(1/2, b) from ln s = ln sech^2(x/2): f(0) at
            # b = 1000 and a point at b = 886.6 on the log1p(-tanh^2(x/2))
            # side, where b*(x + 2*log1p(e^-x)) would cancel terms near
            # 2b ln 2, and the far side at b = 1e-4, where s underflows
            # (50-digit mpmath).
            _pin("eval pdf --b 1000 --x 0", "17.83901115"),
            _pin("eval pdf --b 886.6 --x 9.9e-5", "16.79680782"),
            _pin("eval pdf --b 1e-4 --x 3000", "7.408182329e-05"),
            # The moments pass at both ends of the shape domain, and the even
            # orders' cumulant recursion past order 4 (expected values from
            # 30-digit mpmath: quadrature for the odd orders, the logit
            # cumulants 2*psi^(2j-1)(b) for the even ones).
            _pin("table moments --b 0.001 --n-max 2 --precision 2",
                 "b,E[X],E[X^2]", "0.001,1000.00,2000003.29"),
            _pin("table moments --b 1000 --precision 10",
                 "b,E[X],E[X^2],E[X^3],E[X^4]",
                 "1000,0.0356899173,0.0020010003,0.0001428549,0.0000120160"),
            _pin("table moments --b 2 --n-max 8 --precision 8",
                 "b,E[X],E[X^2],E[X^3],E[X^4],E[X^5],E[X^6],E[X^7],E[X^8]",
                 "2,0.88629436,1.28986813,2.50074596,5.97915821,16.93850234,55.46629699,206.37841872,861.38926717"),
            # The moments pass reads the tolerance flags for the odd orders
            # (the default tolerance gives E[X] = 100.0160377105), and
            # E[X^2] = 2*psi'(b) is closed form at any.
            _pin("table moments --b 0.01 --n-max 2 --precision 10 --tol-abs 1e-3 --tol-rel 1e-3",
                 "b,E[X],E[X^2]", "0.01,100.0160385509,20003.2424270566"),
            # Seeded draws, bit for bit: the stream's (seed, i) mapping and mix,
            # and the quantile behind them, including the power-law seed path at
            # b = 0.7 and the 64-bit top of the seed range.
            _pin("sample --b 3 --count 3 --seed 1",
                 "0.67257369737231931", "0.98861415031954381", "1.9873720623876898"),
            _pin("sample --b 0.7 --count 3 --seed 7",
                 "1.0368925272909721", "0.042072377748641483", "3.866784477744496"),
            _pin("sample --b 500 --count 2 --seed 18446744073709551615",
                 "0.10226352590260916", "0.10815645866565342"),
        ],
    )
    def test_output(self, capsys, argv, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "argv, code, line",
        [
            *_missing_flag_rows(),
            _row("eval cdf --b 2 --x -1", 2, "error: cdf is supported on [0, inf), got -1.0\n"),
            _row("eval moment --b 0.5 --order 4 --tol-abs 1e-300 --tol-rel 1e-300", 3,
                 "error: no convergence after 200 subdivisions on [0.0, 120.0]"),
            # 60/b overflows at b = 5e-324: a typed non-convergence, not a usage error.
            _row("eval moment --b 5e-324 --order 1", 3, "error: head [0.0, inf] beyond the double range"),
            # The head [0, 1.5e308] is sampled, but its first tail block ends past
            # the double range: a typed non-convergence, not a usage error.
            _row("eval moment --b 4e-307 --order 1", 3,
                 "error: tail block [1.5000000000000002e+308, inf] beyond the double range"),
            # f(x) * x^2 overflows inside the integrand at b = 1e-300: a domain
            # error reported on one line, not a traceback.
            _row("eval moment --b 1e-300 --order 2", 2, "error: integrand returned a non-finite value"),
            _row("table cdf --step 0", 2, "error: x_step must be finite and positive, got 0.0\n"),
            _row("table cdf --step -0.1", 2, "error: x_step must be finite and positive, got -0.1\n"),
            _row("table median --b 2 --b-list 1..3", 2, "error: --b and --b-list are mutually exclusive\n"),
        ],
    )
    def test_error_line(self, capsys, argv, code, line):
        # A line that ends in a newline is the whole of stderr, else its start.
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), captured.err
        assert captured.err.startswith(line), captured.err

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            _row("eval nope --b 2 --x 1", ""),
            _row("table moments --b-list 3", ""),
            _row("table moments --b-list a..3", "numeric bounds"),
            _row("table moments --b-list 3..1", "empty range"),
            _row("table moments --b-list 1..inf", ""),
            _row("table moments --b-list -inf..3", ""),
            _row("table moments --b-list nan..3", ""),
            # Rejected by the parser before a single shape is built.
            _row("table moments --b-list 1..1e300", ""),
            _row("table moments --b-list 999..1001", ""),
            _row("table moments --b-list 0..3", ""),
            _row("table moments --b-list -2..5", ""),
            _row("sample --b 2", ""),
            # Sampling integrates nothing, so sample has no quadrature tolerance.
            _row("sample --b 2 --count 1 --tol-abs 1e-3", ""),
        ],
    )
    def test_usage_exit(self, capsys, argv, fragment):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert fragment in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ("eval pdf --b 1 --x 0", 0, "0.5\n", ""),
        ("eval quantile --b 2", 2, "", "error: eval quantile requires --p\n"),
        ("eval moment --b 5e-324 --order 1", 3, "",
         "error: head [0.0, inf] beyond the double range (best estimate 0.0 +- inf)\n"),
    ],
    ids=["exit-0", "exit-2", "exit-3"],
)
def test_module_entry_point(argv, code, out, err):
    # python -m ghl3 runs __main__.py, which exits with main()'s code.
    run = run_python("-m", "ghl3", *argv.split())
    assert (run.returncode, run.stdout, run.stderr) == (code, out, err)
