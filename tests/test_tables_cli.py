"""Table builder and CLI tests: layout, rounding round trips, exit codes."""

import csv
import io
import math
import pathlib

import pytest

from ghl3 import GeneralizedHalfLogistic
from ghl3.cli import _parse_b_list, main
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
    def test_eval_cdf(self, capsys):
        assert main(["eval", "cdf", "--b", "2", "--x", "1.0"]) == 0
        out = capsys.readouterr().out
        d = GeneralizedHalfLogistic(2.0)
        assert out == f"{d.cdf(1.0):.10g}\n"
        assert out.strip() == "0.6438326526"

    def test_eval_pdf_trivial(self, capsys):
        assert main(["eval", "pdf", "--b", "1", "--x", "0"]) == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_eval_pdf_far_tail_is_zero(self, capsys):
        assert main(["eval", "pdf", "--b", "1000", "--x", "1e308"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_eval_hazard_far_tail(self, capsys):
        assert main(["eval", "hazard", "--b", "1", "--x", "760"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_eval_quantile(self, capsys):
        assert main(["eval", "quantile", "--b", "2", "--p", "0.5"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"{GeneralizedHalfLogistic(2.0).median():.10g}"
        assert out.startswith("0.724731974")

    def test_eval_moment(self, capsys):
        assert main(["eval", "moment", "--b", "1", "--order", "2"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.pi**2 / 3, abs=1e-8)

    def test_eval_ordstat(self, capsys):
        assert main(["eval", "ordstat-pdf", "--b", "2", "--x", "0", "--r", "1", "--n", "3"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.25, rel=1e-9)

    def test_eval_missing_extra_is_usage_error(self, capsys):
        assert main(["eval", "quantile", "--b", "2"]) == 2
        assert "requires --p" in capsys.readouterr().err

    def test_eval_domain_error_exit_code(self, capsys):
        assert main(["eval", "cdf", "--b", "2", "--x", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_function_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "nope", "--b", "2", "--x", "1"])
        assert excinfo.value.code == 2

    def test_non_convergence_exit_code(self, capsys):
        rc = main(["eval", "moment", "--b", "0.5", "--order", "4",
                   "--tol-abs", "1e-300", "--tol-rel", "1e-300"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_head_beyond_the_double_range_exit_code(self, capsys):
        # 60/b overflows at b = 5e-324: a typed non-convergence, not a usage error.
        assert main(["eval", "moment", "--b", "5e-324", "--order", "1"]) == 3
        assert "beyond the double range" in capsys.readouterr().err

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

    def test_table_median_single_b_keeps_stock_precision(self, capsys):
        assert main(["table", "median", "--b", "2"]) == 0
        assert capsys.readouterr().out == "b,median\n2,0.72473\n"

    @pytest.mark.parametrize("step", ["0", "-0.1"])
    def test_table_non_positive_step_is_usage_error(self, capsys, step):
        assert main(["table", "cdf", "--step", step]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_table_b_list_moments(self, capsys):
        assert main(["table", "moments", "--b-list", "1..3"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]

    def test_table_median_markdown(self, capsys):
        assert main(["table", "median", "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("|")
        assert "1.09861" in out

    def test_table_conflicting_b_flags(self, capsys):
        assert main(["table", "median", "--b", "2", "--b-list", "1..3"]) == 2

    def test_bad_b_list_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "moments", "--b-list", "3"])
        assert excinfo.value.code == 2

    def test_b_list_values_do_not_accumulate_rounding(self):
        values = _parse_b_list("0.33..999.33")
        assert values == tuple(0.33 + k for k in range(1000))

    @pytest.mark.parametrize("text", ["1..inf", "-inf..3", "nan..3"])
    def test_non_finite_b_list_is_usage_error(self, text):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "moments", "--b-list", text])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("text", ["1..1e300", "999..1001", "0..3", "-2..5"])
    def test_b_list_outside_the_shape_domain_is_usage_error(self, text):
        # Rejected by the parser before a single shape is built.
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "moments", "--b-list", text])
        assert excinfo.value.code == 2

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

    def test_sample_count_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--b", "2"])
        assert excinfo.value.code == 2


GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestGoldenFiles:
    """CLI output is diffed byte-for-byte against committed golden files."""

    @pytest.mark.parametrize(
        "args, name",
        [
            (["table", "cdf"], "cdf_default.csv"),
            (["table", "moments"], "moments_default.csv"),
            (["table", "median"], "median_default.csv"),
        ],
    )
    def test_byte_identical(self, capsys, args, name):
        assert main(args) == 0
        assert capsys.readouterr().out == (GOLDEN / name).read_text()
