"""ghl3 benchmark: one closed-loop workload per run, single process, single thread.

    python3 bench/run.py --workload sample_mc|tables|point_eval \
        --seed N --seconds S --trace 0|1

Run from the repository root; ghl3 is imported from src/. With --trace 0 the
workload's pool of ops is run over and over for S seconds, timing each op,
the outputs are checked, ghl3 is scored against the frozen oracle, and the
end-to-end metrics are printed. Latency and throughput are taken from each
pool op's fastest execution in the run, and setup_s from the fastest of the
set-ups repeated between passes: on a shared host, other tenants slow whole
stretches of a run by a third or more, and the fastest of several executions
spread over the run is far steadier from run to run than any average of
them. Those times are then put at the reference speed (see reference.py):
a fixed kernel timed through the run takes out the host's slow stretches,
which last minutes and would slow a whole run alike. The raw figures, the
observed throughput and the median set-up are printed beside them.
With --trace 1, after a short untraced warm-up, one pass over the pool under
tracer.Tracer (cut at MAX_SPANS spans) and the same ops again untraced give
the per-layer metrics and the tracing overhead, and every span is written
under .bench_out/.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}. The exit code is
0 when every check passes, 1 when one fails, 2 when ghl3 cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import accuracy  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Check, identical  # noqa: E402

# Set-ups before the timed loop, and the least time between those repeated
# between its passes.
SETUP_REPEATS = 3
SETUP_EVERY_S = 2.0
# Untraced seconds of warm-up before the traced pass, and a cap on the spans
# that pass keeps in memory.
TRACE_WARMUP_S = 2.0
MAX_SPANS = 500_000
UNSEEN = 1 << 62

# name: (unit, how the value is described in the report)
END_TO_END = {
    "setup_s": ("s", "fastest set-up (import, inputs, oracle, distributions) of those spread "
                "over the run, at the reference speed"),
    "peak_rss_mb": ("MB", "peak resident set size of the process"),
    "op_p50_us": ("us", "median over the pool's ops of each op's fastest latency, at the reference speed"),
    "op_p99_us": ("us", "99th percentile over the pool's ops of each op's fastest latency, "
                  "at the reference speed"),
    "ok_share": ("share", "1 - fail_share; pool ops that returned an answer in range"),
    "items_per_s": ("1/s", "one pass's items over its time at each op's fastest latency, "
                    "at the reference speed"),
    **{f"digits.{m}": ("digits", "correct digits at the worst oracle point")
       for m in accuracy.METRICS},
}

NAMED_CALLS = ("special.log_gamma", "special.reg_inc_beta", "special.inv_reg_inc_beta",
               "order_statistics.cdf_rth")
PER_LAYER = {
    **{f"{layer}.{m}": unit for layer in tracing.LAYERS
       for m, unit in (("calls_per_op", "count"), ("self_us_per_op", "us"), ("self_share", "share"))},
    **{f"{name}.us_per_call": "us" for name in NAMED_CALLS},
    "quadrature.evals_per_op": "count",
    "quadrature.us_per_eval": "us",
    "distribution.pdf.calls_per_op": "count",
    "sampling.uniforms_per_draw": "count",
    "trace_overhead": "ratio",
}


@dataclass
class LoopResult:
    """What a closed loop over a pool of ops saw.

    The loop passes over the pool again and again. For each pool op it keeps
    the fastest of its executions and the items that op returns; the results
    themselves are kept for the first pass only, since later passes repeat
    the same ops. So the bench's memory is set by the pool, not by how many
    ops a run gets through, and a faster ghl3 cannot read as a larger
    peak_rss_mb.

    attempted and failed count pool ops, each once however many passes ran:
    an op's outcome (an answer, or why it is not one) is taken from its
    first execution, and a later execution with another outcome is counted
    in changed. So with the pool run through once they are set by the seed
    alone, not by how many passes the host's speed allowed.
    """

    pool_size: int
    best_ns: array = field(init=False)
    op_items: array = field(init=False)
    executions: int = 0
    busy_ns: int = 0
    done: list = field(default_factory=list)  # (op, result) of first-pass ops that returned
    outcomes: list = field(default_factory=list)  # per pool op run: "" or its failure label
    items: int = 0
    uniforms: int = 0
    op_failures: dict = field(default_factory=lambda: defaultdict(Counter))  # pool ops
    failures: dict = field(default_factory=lambda: defaultdict(Counter))  # executions
    changed: int = 0
    wall_s: float = 0.0

    def __post_init__(self) -> None:
        self.best_ns = array("q", [UNSEEN]) * self.pool_size
        self.op_items = array("q", bytes(8 * self.pool_size))

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(map(bool, self.outcomes))

    @property
    def passes(self) -> float:
        return self.executions / self.pool_size

    def best_latencies(self) -> list[int]:
        """Ascending fastest latency of every pool op that ran."""
        return sorted(t for t in self.best_ns if t != UNSEEN)

    def best_items_per_s(self) -> float:
        """Items of one pass over the time that pass takes at each op's fastest."""
        ran = [i for i, t in enumerate(self.best_ns) if t != UNSEEN]
        return sum(self.op_items[i] for i in ran) / sum(self.best_ns[i] for i in ran) * 1e9


def failure_label(exc: BaseException) -> str:
    """Exception type and message, with numbers masked so like failures group."""
    message = re.sub(r"[-+]?\d[\d.e+-]*", "#", str(exc))[:60]
    return f"{type(exc).__name__}: {message}"


def run_ops(workload, ops, deadline_s: float | None, tracer=None, between_passes=None,
            count: int | None = None, speed: reference.ReferenceSpeed | None = None) -> LoopResult:
    """Closed loop: each op starts when the previous one has returned.

    Runs the ops in order, cycling, until deadline_s seconds have passed; or,
    when deadline_s is None, for count executions (once through the ops by
    default), stopping early if the tracer holds MAX_SPANS spans.
    between_passes, if given, is called after each full pass, outside every
    op's timing, and speed, if given, is sampled whenever it is due. Any
    exception an op raises is a recorded failure of that op, not of the
    benchmark.
    """
    out = LoopResult(len(ops))
    best, op_items = out.best_ns, out.op_items
    clock = time.perf_counter_ns
    call = workload.call
    start = clock()
    stop = None if deadline_s is None else start + int(deadline_s * 1e9)
    count = len(ops) if count is None else count
    i = 0
    while True:
        k = i % len(ops)
        op = ops[k]
        if tracer is not None:
            tracer.current_op = i
        t0 = clock()
        try:
            result = call(op)
        except Exception as exc:  # the loop must keep running; the failure is recorded
            t1 = clock()
            outcome = failure_label(exc)
            op_items[k] = 0
        else:
            t1 = clock()
            if i == k:
                out.done.append((op, result))
            op_items[k] = workload.items(op, result)
            out.items += op_items[k]
            out.uniforms += workload.uniforms(op, result)
            outcome = workload.bad_result(op, result)
        if outcome:
            out.failures[op.kind][outcome] += 1
        if i == k:
            out.outcomes.append(outcome)
            if outcome:
                out.op_failures[op.kind][outcome] += 1
        elif outcome != out.outcomes[k]:
            out.changed += 1
        if t1 - t0 < best[k]:
            best[k] = t1 - t0
        out.busy_ns += t1 - t0
        i += 1
        if between_passes is not None and k == len(ops) - 1:
            between_passes()
        if speed is not None and t1 >= speed.next_ns:
            speed.sample()
        out.executions = i
        if stop is None:
            if i == count or (tracer is not None and tracer.span_count >= MAX_SPANS):
                break
        elif t1 >= stop:
            break
    out.wall_s = (clock() - start) / 1e9
    return out


def import_ghl3() -> SimpleNamespace:
    """Import ghl3 afresh from src/, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "ghl3" or n.startswith("ghl3.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    ghl3 = importlib.import_module("ghl3")
    if Path(ghl3.__file__).resolve().parent != (SRC / "ghl3").resolve():
        raise ImportError(f"ghl3 was imported from {ghl3.__file__}, not from {SRC}")
    return SimpleNamespace(ghl3=ghl3, cli=importlib.import_module("ghl3.cli"),
                           tables=importlib.import_module("ghl3.tables"))


def setup(name: str, seed: int):
    lib = import_ghl3()
    workload = WORKLOADS[name](lib, seed, ROOT)
    return lib, workload, accuracy.load_oracle()


def timed_setup(name: str, seed: int, times: list[float]):
    """One set-up from a collected heap, its time appended to times."""
    gc.collect()
    t0 = time.perf_counter()
    state = setup(name, seed)
    times.append(time.perf_counter() - t0)
    return state


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def report_failures(loop: LoopResult) -> None:
    for kind in sorted(loop.op_failures):
        for label, count in loop.op_failures[kind].most_common():
            print(f"  failure  {kind:<18} {count:>7} pool ops {loop.failures[kind][label]:>9} "
                  f"executions  {label}")


def report_checks(checks: list[Check]) -> bool:
    for c in checks:
        print(f"check {c.name:<22} {'ok  ' if c.ok else 'FAIL'}  {c.detail}")
    return all(c.ok for c in checks)


def same_outcomes(loop: LoopResult) -> Check:
    return Check("same_outcome_every_pass", loop.changed == 0,
                 f"{loop.changed} of {loop.executions - loop.attempted} repeated executions "
                 "failed where the op's first did not, or the reverse")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, lib, workload, oracle, setup_times: list[float],
               speed: reference.ReferenceSpeed) -> tuple[dict, LoopResult, bool]:
    last = time.perf_counter()

    def setup_again() -> None:
        # Set-ups spread over the run, so setup_s sees the host's fast
        # stretches as the op timings do. The copy is thrown away: ops keep
        # using the first set-up's modules and pool.
        nonlocal last
        if time.perf_counter() - last >= SETUP_EVERY_S:
            timed_setup(args.workload, args.seed, setup_times)
            last = time.perf_counter()

    gc.collect()
    gc.freeze()
    loop = run_ops(workload, workload.ops, args.seconds, between_passes=setup_again, speed=speed)
    gc.unfreeze()
    lat = loop.best_latencies()
    beyond = len(lat) - math.ceil(0.99 * len(lat))
    fail_share = loop.failed / loop.attempted
    raw = {
        "setup_s": min(setup_times),
        "op_p50_us": statistics.median(lat) / 1e3,
        "op_p99_us": percentile(lat, 0.99) / 1e3,
        "items_per_s": loop.best_items_per_s(),
    }
    scale = speed.scale
    values = {name: v / scale if name == "items_per_s" else v * scale for name, v in raw.items()}
    values["ok_share"] = 1.0 - fail_share
    print(f"speed    reference kernel {len(speed.times_ns)} samples: fastest "
          f"{min(speed.times_ns) / 1e6:.4f} ms, median {statistics.median(speed.times_ns) / 1e6:.4f} ms; "
          f"scale {scale:.6g} to the reference {reference.REF_NS / 1e6:g} ms")
    print("raw      " + " ".join(f"{name}={v:.6g}" for name, v in raw.items()))
    print(f"ops      attempted={loop.attempted} failed={loop.failed} pool ops; "
          f"executions={loop.executions} wall={loop.wall_s:.3f}s "
          f"passes={loop.passes:.2f} over a pool of {loop.pool_size}; latency percentiles over "
          f"{len(lat)} pool ops' fastest runs, {beyond} beyond p99")
    print(f"observed items/s over the time in ops {loop.items / loop.busy_ns * 1e9:.6g}; "
          f"observed mean op {loop.busy_ns / loop.executions / 1e3:.6g} us")
    print(f"setup    {len(setup_times)} set-ups: median {statistics.median(setup_times):.4f} s, "
          f"fastest {min(setup_times):.4f} s")
    print(f"fail_share {fail_share:.6g} ({loop.failed}/{loop.attempted} pool ops)")
    report_failures(loop)
    correct = report_checks(workload.checks(loop.done) + [same_outcomes(loop)])

    scores = accuracy.score(lib.ghl3, oracle)
    for name, s in scores.items():
        values[f"digits.{name}"] = s.digits
        print(f"oracle {name:<15} {s.points:>4} points {s.failures:>3} failed  "
              f"worst rel err {s.worst_error:.3g} at {s.worst_point}")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, (unit, about) in END_TO_END.items():
        label = f"{name} ({workload.item_name})" if name == "items_per_s" else name
        print(f"metric {label:<28} {values[name]:>14.6g} {unit:<6} {about}")
    return {n: metric(values[n], END_TO_END[n][0]) for n in END_TO_END}, loop, correct


def per_layer(args, workload) -> tuple[dict, LoopResult, bool]:
    # The traced ops are the pool's first ones, up to one pass or MAX_SPANS
    # spans, so the seed alone sets them; the same ops are then run once more
    # untraced as the reference for the overhead.
    run_ops(workload, workload.ops, min(TRACE_WARMUP_S, args.seconds))
    with tracing.Tracer() as tracer:
        tracer.calibrate()
        print(f"trace    wrapped {len(tracer.wrapped)} bindings; wrapper cost "
              f"{tracer.outside_ns:.0f} ns outside + {tracer.inside_ns:.0f} ns inside a span")
        traced = run_ops(workload, workload.ops, None, tracer)
    count = traced.executions
    reference = run_ops(workload, workload.ops, None, count=count)
    overhead = traced.busy_ns / reference.busy_ns
    stats = tracer.function_stats()
    layer_self = Counter()
    layer_calls = Counter()
    for s in stats.values():
        layer_self[s.layer] += s.self_ns
        layer_calls[s.layer] += s.calls
    # The calibrated wrapper cost can exceed a thin layer's own time, so a
    # layer's corrected self time can come out below 0; it counts as 0, and
    # the shares are of the layers' clamped total, so they sum to 1.
    layer_self = Counter({layer: max(0.0, ns) for layer, ns in layer_self.items()})
    total_self = sum(layer_self.values()) or 1.0

    def per_call_us(name: str) -> float:
        s = stats[name]
        return s.inclusive_ns / s.calls / 1e3 if s.calls else 0.0

    values = {}
    for layer in tracing.LAYERS:
        values[f"{layer}.calls_per_op"] = layer_calls[layer] / count
        values[f"{layer}.self_us_per_op"] = layer_self[layer] / count / 1e3
        values[f"{layer}.self_share"] = layer_self[layer] / total_self
    for name in NAMED_CALLS:
        values[f"{name}.us_per_call"] = per_call_us(name)
    values["quadrature.evals_per_op"] = tracer.quad_evals / count
    values["quadrature.us_per_eval"] = (
        layer_self["quadrature"] / tracer.quad_evals / 1e3 if tracer.quad_evals else 0.0)
    values["distribution.pdf.calls_per_op"] = stats["distribution.pdf"].calls / count
    values["sampling.uniforms_per_draw"] = traced.uniforms / traced.items if traced.uniforms else 0.0
    values["trace_overhead"] = overhead

    spans_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.tsv.gz"
    tracer.write_spans(spans_path)
    print(f"trace    {count} ops, {tracer.span_count} spans -> {os.path.relpath(spans_path, ROOT)}")
    for name in sorted(stats, key=lambda n: -stats[n].self_ns):
        s = stats[name]
        if s.calls:
            print(f"  span {name:<40} calls={s.calls:>9} self={s.self_ns / 1e6:>10.2f} ms "
                  f"incl={s.inclusive_ns / 1e6:>10.2f} ms")
    for name, unit in PER_LAYER.items():
        print(f"metric {name:<40} {values[name]:>12.6g} {unit}")
    same = identical(traced.done, reference.done)
    checks = workload.checks(traced.done) + [
        Check("traced_equals_untraced", same,
              "traced results are identical to the untraced pass over the same ops")]
    correct = report_checks(checks)
    return {n: metric(values[n], u) for n, u in PER_LAYER.items()}, traced, correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ghl3" / "__init__.py").is_file():
        print(f"bench: ghl3 sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print(f"ghl3 bench  workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"meta     nproc={os.cpu_count()} python={platform.python_version()} "
          f"implementation={platform.python_implementation()} platform={platform.platform()}")
    setup_times: list[float] = []
    speed = reference.ReferenceSpeed()
    for _ in range(SETUP_REPEATS):
        lib = workload = oracle = None  # freed before the next set-up is timed
        speed.sample()
        lib, workload, oracle = timed_setup(args.workload, args.seed, setup_times)
    print(f"setup    {len(workload.ops)} ops in the pool; first set-ups "
          + " ".join(f"{t:.4f}" for t in setup_times) + " s")

    if args.trace:
        metrics, loop, correct = per_layer(args, workload)
    else:
        metrics, loop, correct = end_to_end(args, lib, workload, oracle, setup_times, speed)
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
