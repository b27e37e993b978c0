"""Score ghl3 against the frozen oracle grid in oracle.json.

Accuracy is reported as correct decimal digits of the worst point,
log10(1 + 1/e) for the worst relative error e, with e capped at 1. That is
-log10(e) to within 0.001 digits whenever e < 1e-3, and it never reaches 0:
a value wrong by 100% or more, a raised error and a non-finite return all
mean that no digit is right, and all score log10(2) = 0.301 digits. The
uncapped worst error and its point are kept for the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

ORACLE_PATH = Path(__file__).with_name("oracle.json")

# The error at which no digit is right; larger errors and failures score it.
NO_DIGIT_ERROR = 1.0
# Below half an ulp of 1.0 the error is rounding noise; this caps digits at 17.
ERROR_FLOOR = 1e-17

METRICS = ("cdf", "quantile", "moment", "cdf_quadrature", "ordstat")


def load_oracle(path: Path = ORACLE_PATH) -> dict:
    """The oracle tables as {name: list of row dicts}."""
    raw = json.loads(path.read_text())
    return {
        name: [dict(zip(table["columns"], row)) for row in table["rows"]]
        for name, table in raw.items()
        if name != "about"
    }


def relative_error(got: float, want: float) -> float:
    if not math.isfinite(got):
        return math.inf
    return max(abs(got - want) / abs(want), ERROR_FLOOR)


def digits(worst_error: float) -> float:
    return math.log10(1.0 + 1.0 / min(worst_error, NO_DIGIT_ERROR))


@dataclass
class Score:
    """Worst relative error over one oracle table, with where it occurred."""

    points: int = 0
    failures: int = 0
    worst_error: float = ERROR_FLOOR
    worst_point: str = ""

    def add(self, call, want: float, where: str) -> None:
        self.points += 1
        try:
            got = call()
        except Exception as exc:  # every raised error is scored, never fatal
            self.failures += 1
            err, shown = math.inf, type(exc).__name__
        else:
            if not math.isfinite(got):
                self.failures += 1
            err, shown = relative_error(got, want), repr(got)
        if err > self.worst_error or not self.worst_point:
            self.worst_error = err
            self.worst_point = f"{where}: got {shown}, want {want!r}"

    @property
    def digits(self) -> float:
        return digits(self.worst_error)


def score(ghl3, oracle: dict) -> dict[str, Score]:
    """Evaluate every oracle point through the public ghl3 API."""
    dists: dict[float, object] = {}

    def dist(b: float):
        if b not in dists:
            dists[b] = ghl3.GeneralizedHalfLogistic(b)
        return dists[b]

    scores = {name: Score() for name in METRICS}
    for row in oracle["cdf"]:
        d, x = dist(row["b"]), row["x"]
        where = f"b={row['b']:g} x={x:.6g}"
        if row["cdf"] is not None:
            scores["cdf"].add(lambda: d.cdf(x), row["cdf"], "cdf " + where)
            scores["cdf_quadrature"].add(lambda: d.cdf_quadrature(x), row["cdf"], where)
        if row["survival"] is not None:
            scores["cdf"].add(lambda: d.survival(x), row["survival"], "survival " + where)
    for row in oracle["quantile"]:
        d, p = dist(row["b"]), row["p"]
        scores["quantile"].add(lambda: d.quantile(p), row["x"], f"b={row['b']:g} p={p!r}")
    for row in oracle["moment"]:
        d, n = dist(row["b"]), row["n"]
        scores["moment"].add(lambda: d.moment(n), row["moment"], f"b={row['b']:g} n={n}")
    for row in oracle["ordstat"]:
        d, x = dist(row["b"]), row["x"]
        idx = ghl3.OrderIndex(row["r"], row["n"])
        where = f"b={row['b']:g} r={idx.r} n={idx.n} x={x:.6g}"
        if row["pdf_rth"] is not None:
            scores["ordstat"].add(lambda: ghl3.pdf_rth(d, idx, x), row["pdf_rth"], "pdf_rth " + where)
        if row["cdf_rth"] is not None:
            scores["ordstat"].add(lambda: ghl3.cdf_rth(d, idx, x), row["cdf_rth"], "cdf_rth " + where)
    return scores
