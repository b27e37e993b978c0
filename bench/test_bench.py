"""Tests of the benchmark itself: run with `python3 -m pytest bench`."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import accuracy  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture
def lib():
    return run.import_ghl3()


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# -- digits --------------------------------------------------------------------

def test_digits_track_minus_log10_of_small_errors():
    for err in (1e-3, 1e-9, 1e-15):
        assert accuracy.digits(err) == pytest.approx(-math.log10(err), abs=1e-3)


def test_digits_are_positive_and_capped_for_wrong_answers_and_failures():
    assert accuracy.digits(1.0) == pytest.approx(math.log10(2.0))
    assert accuracy.digits(26.5) == accuracy.digits(1.0)
    assert accuracy.digits(math.inf) == accuracy.digits(1.0)
    assert accuracy.digits(accuracy.ERROR_FLOOR) == pytest.approx(17.0)
    assert accuracy.relative_error(math.nan, 1.0) == math.inf


def test_score_counts_raises_and_keeps_the_worst_point():
    s = accuracy.Score()
    s.add(lambda: 1.0 + 1e-6, 1.0, "near")
    assert s.digits == pytest.approx(6.0, abs=1e-3)

    def boom():
        raise ValueError("math domain error")

    s.add(boom, 2.0, "bad")
    s.add(lambda: 1.0, 1.0, "exact")
    assert (s.points, s.failures) == (3, 1)
    assert s.worst_error == math.inf and s.worst_point.startswith("bad: got ValueError")
    assert s.digits == pytest.approx(math.log10(2.0))


def test_oracle_scores_show_the_known_defects(lib):
    scores = accuracy.score(lib.ghl3, accuracy.load_oracle())
    assert set(scores) == set(accuracy.METRICS)
    # Small-b cdf rounds to 1 at x >= 37; cdf_quadrature misses the large-b spike.
    assert scores["cdf"].worst_error > 1.0
    assert scores["cdf_quadrature"].worst_error >= 0.99
    assert scores["quantile"].failures > 0
    assert scores["moment"].digits > 8.0


# -- tracer ------------------------------------------------------------------------

def bindings(lib) -> dict:
    """Every function or class attribute reachable from the ghl3 modules."""
    out = {}
    for name, module in sys.modules.items():
        if name == "ghl3" or name.startswith("ghl3."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for cls in (lib.ghl3.GeneralizedHalfLogistic, lib.ghl3.RngStream):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


def test_tracer_rebinds_every_copy_and_restores_them(lib):
    before = bindings(lib)
    special = sys.modules["ghl3.special"]
    order_statistics = sys.modules["ghl3.order_statistics"]
    original = special.log_gamma
    with tracing.Tracer() as t:
        assert special.log_gamma is not original
        assert order_statistics.log_gamma is special.log_gamma
        assert lib.ghl3.log_gamma is special.log_gamma
        assert special.log_gamma.__wrapped__ is original
        assert "cdf" in {attr for owner, attr, _ in t.wrapped
                         if owner is lib.ghl3.GeneralizedHalfLogistic}
        value = lib.ghl3.GeneralizedHalfLogistic(2.0).cdf(1.0)
    assert bindings(lib) == before
    assert value == lib.ghl3.GeneralizedHalfLogistic(2.0).cdf(1.0)
    names = [t.names[f] for f in t.fid]
    # cdf -> logistic_sigma, reg_inc_beta -> log_beta -> 3 x log_gamma
    assert names.count("special.log_gamma") == 3 + 3  # two log_beta calls: __init__ and cdf
    cdf = names.index("distribution.cdf")
    reg = names.index("special.reg_inc_beta")
    assert t.parent[reg] == cdf and t.parent[cdf] == -1


def test_self_time_excludes_children_and_inclusive_adds_them(lib):
    d = lib.ghl3.GeneralizedHalfLogistic(2.0)
    with tracing.Tracer() as t:
        t.calibrate(calls=2000, repeats=3)
        for _ in range(50):
            d.cdf(0.7)
    stats = t.function_stats()
    cdf, reg = stats["distribution.cdf"], stats["special.reg_inc_beta"]
    assert cdf.calls == reg.calls == 50
    # Self times are corrected by a measured wrapper cost, so only the
    # bookkeeping identity is exact, not any ordering of the times.
    assert cdf.inclusive_ns == pytest.approx(
        cdf.self_ns + reg.inclusive_ns + stats["distribution.logistic_sigma"].inclusive_ns, rel=1e-9)
    assert t.inside_ns > 0.0 and t.outside_ns >= 0.0


def test_quadrature_evaluations_counted_at_the_outermost_span_only(lib):
    ghl3 = lib.ghl3
    d = ghl3.GeneralizedHalfLogistic(3.0)
    expected = ghl3.integrate_semi_infinite(
        lambda x: x**2 * d.pdf(x), 0.0, d.tol, decay_rate=d.b).evaluations
    with tracing.Tracer() as t:
        d.moment(2)
    names = [t.names[f] for f in t.fid]
    assert names.count("quadrature.integrate_finite") > 1
    assert t.quad_evals == expected
    assert names.count("distribution.pdf") == expected


def test_reference_speed_scales_by_the_fastest_sample():
    speed = reference.ReferenceSpeed()
    speed.sample()
    assert speed.next_ns > 0 and len(speed.times_ns) == 1
    speed.times_ns = [2 * reference.REF_NS, reference.REF_NS // 2, reference.REF_NS]
    assert speed.scale == pytest.approx(2.0)


# -- workloads and checks -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_come_from_the_seed(lib, name):
    a = WORKLOADS[name](lib, 7, run.ROOT).ops
    b = WORKLOADS[name](lib, 7, run.ROOT).ops
    c = WORKLOADS[name](lib, 8, run.ROOT).ops
    assert a == b and a != c


def checks_after(workload, ops: int) -> dict:
    loop = run.run_ops(workload, workload.ops[:ops], None)
    return {c.name: c.ok for c in workload.checks(loop.done)}


def test_checks_pass_on_correct_output(lib):
    assert all(checks_after(WORKLOADS["point_eval"](lib, 1, run.ROOT), 200).values())
    assert all(checks_after(WORKLOADS["sample_mc"](lib, 1, run.ROOT), 16).values())
    assert all(checks_after(WORKLOADS["tables"](lib, 1, run.ROOT), 20).values())


def test_injected_wrong_cdf_fails_the_roundtrip_check(lib, monkeypatch):
    monkeypatch.setattr(lib.ghl3.GeneralizedHalfLogistic, "cdf", lambda self, x: 0.5)
    assert not checks_after(WORKLOADS["sample_mc"](lib, 1, run.ROOT), 16)["quantile_roundtrip"]


def test_out_of_range_and_raising_ops_count_as_failed(lib, monkeypatch):
    monkeypatch.setattr(lib.ghl3.GeneralizedHalfLogistic, "cdf", lambda self, x: 1.5)
    workload = WORKLOADS["point_eval"](lib, 1, run.ROOT)
    loop = run.run_ops(workload, workload.ops[:220], None)
    cdf_ops = sum(op.kind == "cdf" for op in workload.ops[:220])
    assert loop.failures["cdf"] == {"out-of-range result": cdf_ops}
    assert loop.failures["quantile"]["ValueError: math domain error"] > 0
    assert loop.failed == sum(sum(c.values()) for c in loop.failures.values())


def test_failures_count_pool_ops_once_however_many_passes(lib):
    workload = WORKLOADS["point_eval"](lib, 1, run.ROOT)
    once = run.run_ops(workload, workload.ops[:220], None)
    thrice = run.run_ops(workload, workload.ops[:220], None, count=660)
    assert (thrice.attempted, thrice.failed) == (once.attempted, once.failed) == (220, once.failed)
    assert once.failed > 0 and thrice.changed == 0
    assert sum(thrice.failures["quantile"].values()) == 3 * sum(once.failures["quantile"].values())
    assert run.same_outcomes(thrice).ok


def test_an_op_that_fails_only_sometimes_fails_the_outcome_check(lib, monkeypatch):
    broken = {"now": False}
    monkeypatch.setattr(lib.ghl3.GeneralizedHalfLogistic, "pdf",
                        lambda self, x: math.nan if broken["now"] else 0.5)
    workload = WORKLOADS["point_eval"](lib, 1, run.ROOT)
    loop = run.run_ops(workload, workload.ops[:220], None, count=440,
                       between_passes=lambda: broken.update(now=True))
    assert loop.changed > 0 and not run.same_outcomes(loop).ok


def test_nondeterministic_output_fails_the_replay_check(lib, monkeypatch):
    calls = iter(range(10**6))
    monkeypatch.setattr(lib.ghl3.GeneralizedHalfLogistic, "pdf", lambda self, x: float(next(calls)))
    assert not checks_after(WORKLOADS["point_eval"](lib, 1, run.ROOT), 200)["same_inputs_same_outputs"]


def test_injected_table_cell_fails_the_golden_check(lib, monkeypatch):
    tables = lib.tables
    real = tables.format_fixed
    monkeypatch.setattr(tables, "format_fixed",
                        lambda v, p: "0.0001" if v == 0.0 else real(v, p))
    assert not checks_after(WORKLOADS["tables"](lib, 1, run.ROOT), 20)["golden_tables"]


def test_injected_wrong_value_fails_the_run(monkeypatch, capsys):
    real = run.import_ghl3

    def import_broken():
        lib = real()
        monkeypatch.setattr(lib.ghl3.GeneralizedHalfLogistic, "cdf", lambda self, x: 0.5)
        return lib

    monkeypatch.setattr(run, "import_ghl3", import_broken)
    code = run.main(["--workload", "sample_mc", "--seed", "1", "--seconds", "0.3"])
    result = last_json(capsys.readouterr().out)
    assert code == 1 and result["correct"] is False


# -- the command ---------------------------------------------------------------------

def test_benchmark_json_matches_what_the_command_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        n: unit for n, (unit, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_run_reports_every_layer_metric(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "sample_mc", "--seed", "2", "--seconds", "0.3", "--trace", "1"])
    result = last_json(capsys.readouterr().out)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert code == 0 and result["correct"] and set(metrics) == set(run.PER_LAYER)
    assert metrics["quadrature.calls_per_op"] == 0.0
    assert metrics["special.self_share"] > 0.5
    assert metrics["trace_overhead"] > 0.0  # one pass each way: host noise can put it below 1
    assert list(tmp_path.glob("spans_sample_mc_seed2.tsv.gz"))


def test_command_fails_without_the_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "tables", "--seed", "1", "--seconds", "1"]) == 2
    assert "{" not in capsys.readouterr().out


def test_timed_path_imports_only_the_standard_library_and_ghl3(tmp_path):
    probe = (
        "import runpy, sys\n"
        "before = set(sys.modules)\n"
        "sys.argv = ['run.py', '--workload', 'tables', '--seed', '1', '--seconds', '0.2']\n"
        "try:\n"
        "    runpy.run_path('bench/run.py', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        "own = {'accuracy', 'reference', 'tracer', 'workloads', 'ghl3'}\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "extra = sorted(new - set(sys.stdlib_module_names) - own)\n"
        "print('EXTRA', extra)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], cwd=run.ROOT, capture_output=True,
                         text=True, timeout=120).stdout
    assert "EXTRA []" in out
