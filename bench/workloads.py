"""The benchmark's three workloads: seeded inputs, one ghl3 call per op, checks.

Each workload turns the seed into a fixed pool of ops at set-up; the timed
loop then passes over the pool again and again until its time is up. Every
call reaches ghl3 through a module attribute or a method, looked up at call
time, so a traced run sees the same calls through the tracer's wrappers.

Every parameter that sets an op's cost (shape, x, p, sample size, rank) is
drawn stratified: each run of 256 consecutive draws of one parameter holds one
value from each of 256 equal strata, in seeded random order. Any prefix of the
pool then has nearly the same mix of cheap and dear ops whatever the seed,
which keeps the run-to-run spread small.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

N_SHAPES = 256
GOLDEN_DIR = Path("tests") / "golden"


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def stratified(rng: random.Random, count: int) -> list[float]:
    """count values in [0, 1): each run of N_SHAPES consecutive values holds one
    uniform draw from each of N_SHAPES equal strata, shuffled."""
    out: list[float] = []
    while len(out) < count:
        block = [(i + rng.random()) / N_SHAPES for i in range(N_SHAPES)]
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def log_scale(v: float, lo: float, hi: float) -> float:
    """Map v in [0, 1) log-uniformly onto [lo, hi)."""
    return lo * (hi / lo) ** v


def shape_indices(rng: random.Random, count: int) -> list[int]:
    """count indices into N_SHAPES shapes; every block of N_SHAPES is a permutation."""
    return [int(v * N_SHAPES) for v in stratified(rng, count)]


def shapes(rng: random.Random, lo: float, hi: float) -> list[float]:
    return [log_scale(v, lo, hi) for v in stratified(rng, N_SHAPES)]


def rank(v: float, n: int) -> int:
    """Map v in [0, 1) uniformly onto the ranks 1..n."""
    return int(v * n) + 1


def identical(a, b) -> bool:
    """Equal, counting NaN equal to NaN: repr round-trips every float exactly."""
    return repr(a) == repr(b)


def bad_values(values, lo: float = 0.0, hi: float = math.inf) -> str:
    if not all(math.isfinite(v) for v in values):
        return "non-finite result"
    if not all(lo <= v <= hi for v in values):
        return "out-of-range result"
    return ""


class Workload:
    """A seeded pool of ops against ghl3 and the checks on their results.

    lib is a namespace holding the imported ghl3 package and its cli and
    tables modules.
    """

    name = ""
    item_name = ""  # the report names this workload's items_per_s after its items
    pool_size = 0

    def __init__(self, lib, seed: int, root: Path):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list[Op] = []

    def call(self, op: Op):
        raise NotImplementedError

    def items(self, op: Op, result) -> int:
        """Units of work the caller receives from one op."""
        return 1

    def bad_result(self, op: Op, result) -> str:
        """Why a returned result is not an answer ('' when it is one).

        Non-finite values and values outside the function's range (such as a
        negative quantile) count as failed ops, like raised errors.
        """
        return ""

    def checks(self, done: list[tuple[Op, object]]) -> list[Check]:
        """Correctness checks over (op, result) pairs of ops that returned."""
        return []

    def uniforms(self, op: Op, result) -> int:
        """Uniforms the op drew from its RngStream (0 for workloads without sampling)."""
        return 0


class SampleMC(Workload):
    """Monte Carlo use: sample() and sample_order_stat() at shapes in [0.5, 1e3].

    Both op kinds make about `count` quantile calls (n of them when the
    sample size n exceeds count), so op latency tracks the per-draw cost.
    count is 20 rather than a round 100 so that a run executes each pool op
    some 8 times: the fastest-execution timing needs several tries to miss
    the host's brief stalls, and with 100 draws per op (about 4 tries on
    half this pool) run-to-run spread reached 30-45%. The pool is 2048 ops
    because op_p99_us falls among its few dearest ops, which the seed picks.
    Shapes below 0.5 are left out: there one failing draw aborts a whole
    sample() call, and point_eval measures that defect per call.
    """

    name = "sample_mc"
    item_name = "draws_per_s"
    pool_size = 2048
    count = 20
    roundtrip_bound = 1e-10

    def __init__(self, lib, seed: int, root: Path):
        super().__init__(lib, seed, root)
        rng = self.rng
        ghl3 = lib.ghl3
        self.dists = [ghl3.GeneralizedHalfLogistic(b) for b in shapes(rng, 0.5, 1e3)]
        half = self.pool_size // 2
        sizes, ranks = stratified(rng, half), stratified(rng, half)
        for i, s in enumerate(shape_indices(rng, self.pool_size)):
            stream = (rng.getrandbits(64), rng.randrange(1 << 32))
            if i % 2 == 0:
                self.ops.append(Op("sample", (s, *stream, self.count)))
            else:
                n = 2 + int(sizes[i // 2] * 49)
                idx = ghl3.OrderIndex(rank(ranks[i // 2], n), n)
                self.ops.append(Op("sample_order_stat", (s, *stream, idx, max(1, self.count // n))))

    def call(self, op: Op):
        ghl3 = self.lib.ghl3
        s, seed, counter, *rest = op.args
        stream = ghl3.RngStream(seed, counter)
        if op.kind == "sample":
            draws = ghl3.sample(self.dists[s], stream, rest[0])
        else:
            draws = ghl3.sample_order_stat(self.dists[s], rest[0], stream, rest[1])
        return draws, stream.counter

    def items(self, op: Op, result) -> int:
        return len(result[0])

    def bad_result(self, op: Op, result) -> str:
        return bad_values(result[0])

    def uniforms(self, op: Op, result) -> int:
        return result[1] - op.args[2]

    def expected_uniforms(self, op: Op) -> int:
        if op.kind == "sample":
            return op.args[3]
        idx, batches = op.args[3], op.args[4]
        return idx.n * batches

    def checks(self, done):
        ghl3 = self.lib.ghl3
        bad_counter = [op for op, res in done if self.uniforms(op, res) != self.expected_uniforms(op)]
        first = {}
        for op, res in done:
            first.setdefault(op, res)
        replay = list(first.items())[:16]
        unequal = [op for op, res in replay if not identical(self.call(op), res)]
        worst = 0.0
        samples = [(op, res) for op, res in first.items() if op.kind == "sample"]
        for op, (draws, _) in samples[::8]:
            s, seed, counter, _count = op.args
            stream = ghl3.RngStream(seed, counter)
            for x in draws[:8]:
                u = stream.next_uniform()
                worst = max(worst, abs(self.dists[s].cdf(x) - u))
        return [
            Check("counter_advance", not bad_counter,
                  f"{len(bad_counter)} of {len(done)} ops moved RngStream.counter by "
                  "other than count (sample) or n*batches (sample_order_stat)"),
            Check("same_seed_same_draws", bool(replay) and not unequal,
                  f"{len(unequal)} of {len(replay)} replayed ops gave different draws"),
            Check("quantile_roundtrip", worst <= self.roundtrip_bound,
                  f"max |F(quantile(u)) - u| = {worst:.3g} over {len(samples[::8]) * 8} "
                  f"sampled uniforms (bound {self.roundtrip_bound:g})"),
        ]


class Tables(Workload):
    """Table regeneration: moments rows at shapes in [1e-3, 1e3] plus the CLI tables.

    Each block of 17 ops is 16 one-row moments tables and one in-process
    `ghl3 table <kind>` for the default cdf, moments or median table in turn,
    whose output is compared byte for byte with tests/golden.
    """

    name = "tables"
    item_name = "cells_per_s"
    pool_size = 2040
    kinds = ("cdf", "moments", "median")
    rows_per_cli = 16

    def __init__(self, lib, seed: int, root: Path):
        super().__init__(lib, seed, root)
        rng = self.rng
        tables = lib.tables
        self.golden = {k: (root / GOLDEN_DIR / f"{k}_default.csv").read_text() for k in self.kinds}
        specs = {
            "cdf": tables.default_cdf_specs(),
            "moments": (tables.default_moments_spec(),),
            "median": (tables.default_median_spec(),),
        }
        self.cells = {k: sum(self._spec_cells(s) for s in specs[k]) for k in self.kinds}
        row_shapes = shapes(rng, 1e-3, 1e3)
        cycle = iter(shape_indices(rng, self.pool_size))
        cli_turn = 0
        for i in range(self.pool_size):
            if i % (self.rows_per_cli + 1) == self.rows_per_cli:
                self.ops.append(Op("cli", (self.kinds[cli_turn % 3],)))
                cli_turn += 1
            else:
                spec = tables.TableSpec("moments", (row_shapes[next(cycle)],), n_max=4)
                self.ops.append(Op("moments_row", (spec,)))

    @staticmethod
    def _spec_cells(spec) -> int:
        if spec.table_id == "cdf":
            return spec.x_count * len(spec.b_values)
        if spec.table_id == "moments":
            return spec.n_max * len(spec.b_values)
        return len(spec.b_values)

    def call(self, op: Op):
        if op.kind == "moments_row":
            return self.lib.tables.build_table(op.args[0])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.lib.cli.main(["table", op.args[0]])
        return code, out.getvalue()

    def items(self, op: Op, result) -> int:
        if op.kind == "moments_row":
            return self._spec_cells(op.args[0])
        return self.cells[op.args[0]]

    def bad_result(self, op: Op, result) -> str:
        if op.kind == "cli":
            return f"exit code {result[0]}" if result[0] != 0 else ""
        return bad_values([float(c) for row in result.rows for c in row[1:]])

    def checks(self, done):
        cli = [(op, res) for op, res in done if op.kind == "cli"]
        mismatched = [op for op, (code, text) in cli if text != self.golden[op.args[0]]]
        rows = [(op, res) for op, res in done if op.kind == "moments_row"]
        malformed = [
            op for op, table in rows
            if len(table.rows) != 1 or table.rows[0][0] != f"{op.args[0].b_values[0]:g}"
            or len(table.rows[0]) != 1 + op.args[0].n_max
        ]
        return [
            Check("golden_tables", bool(cli) and not mismatched,
                  f"{len(mismatched)} of {len(cli)} `ghl3 table` outputs differ from tests/golden"),
            Check("moments_rows", not malformed,
                  f"{len(malformed)} of {len(rows)} moments rows without one labelled row of n_max cells"),
        ]


class PointEval(Workload):
    """Point evaluation over the whole advertised domain.

    b log-uniform in [1e-3, 1e3], x log-uniform in [1e-12, 700], p in both
    tails (log-uniform down to 1e-12 and up to 1 - 1e-9), order-statistic n
    log-uniform in [1, 1000]. Each block of 22 ops holds every op kind in the
    proportions of WEIGHTS, shuffled; the weights keep any one function
    below about half of the workload's time. The pool holds 1488 blocks:
    op_p99_us falls among the dearest cdf_rth ops, and with a quarter of
    that pool which of them a seed drew moved it by up to a fifth.
    """

    name = "point_eval"
    item_name = "evals_per_s"
    pool_size = 22 * 372 * 4
    WEIGHTS = {"cdf": 4, "survival": 4, "pdf": 4, "hazard": 2, "quantile": 4,
               "cdf_quadrature": 1, "pdf_rth": 2, "cdf_rth": 1}
    unit_range = ("cdf", "survival", "cdf_quadrature", "cdf_rth")
    ordstat = ("pdf_rth", "cdf_rth")

    def __init__(self, lib, seed: int, root: Path):
        super().__init__(lib, seed, root)
        rng = self.rng
        ghl3 = lib.ghl3
        self.dists = [ghl3.GeneralizedHalfLogistic(b) for b in shapes(rng, 1e-3, 1e3)]
        block = [k for k, w in self.WEIGHTS.items() for _ in range(w)]
        kinds = []
        while len(kinds) < self.pool_size:
            rng.shuffle(block)
            kinds.extend(block)
        # One stratified stream per (kind, parameter), consumed in pool order.
        per_kind = self.pool_size // len(block)
        draws = {k: [iter(stratified(rng, per_kind * w)) for _ in range(3 if k in self.ordstat else 1)]
                 for k, w in self.WEIGHTS.items()}
        for kind, s in zip(kinds, shape_indices(rng, self.pool_size)):
            self.ops.append(Op(kind, (s, *self._args(kind, *(next(d) for d in draws[kind])))))

    def _args(self, kind: str, v: float, w: float = 0.0, z: float = 0.0) -> tuple:
        if kind == "quantile":
            # Both tails evenly: the lower half of v maps onto p in [1e-12, 0.5),
            # the upper half onto 1 - p with 1 - p in [1e-9, 0.5).
            if v < 0.5:
                return (log_scale(2.0 * v, 1e-12, 0.5),)
            return (1.0 - log_scale(2.0 * v - 1.0, 1e-9, 0.5),)
        x = log_scale(v, 1e-12, 700.0)
        if kind in self.ordstat:
            n = round(log_scale(w, 1.0, 1000.0))
            return (self.lib.ghl3.OrderIndex(rank(z, n), n), x)
        return (x,)

    def call(self, op: Op):
        d = self.dists[op.args[0]]
        if op.kind in self.ordstat:
            return getattr(self.lib.ghl3, op.kind)(d, *op.args[1:])
        return getattr(d, op.kind)(op.args[1])

    def bad_result(self, op: Op, result) -> str:
        return bad_values((result,), hi=1.0 if op.kind in self.unit_range else math.inf)

    def checks(self, done):
        # The functions are pure: the same inputs must give the same outputs.
        replay = done[:1024]
        changed = [op for op, value in replay if not identical(self.call(op), value)]
        return [Check("same_inputs_same_outputs", bool(replay) and not changed,
                      f"{len(changed)} of {len(replay)} replayed evaluations changed")]


WORKLOADS = {w.name: w for w in (SampleMC, Tables, PointEval)}
