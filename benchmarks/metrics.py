"""Pure formulas behind the benchmark's metrics and output checks.

Nothing here imports aircomp or reads a clock, so every rule can be tested
on hand-made numbers.
"""

from __future__ import annotations

import csv
import io
import math
import statistics

DB_PER_NEPER = 10.0 / math.log(10.0)


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples, q: float, min_beyond: int = 10):
    """Nearest-rank ``q``-th percentile, reported only with enough tail behind it.

    Returns ``(value, beyond)`` where ``beyond`` counts the samples ranked
    above the percentile.  ``value`` is ``None`` when fewer than
    ``min_beyond`` samples lie beyond it, because such a percentile is
    set by a handful of outliers.
    """
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < min_beyond:
        return None, max(beyond, 0)
    return float(ordered[rank - 1]), beyond


def pooled_rel_var(mses, std_errs) -> float:
    """Squared relative standard error of one op, pooled over ops of equal size.

    Each op's ``(std_err / mse)**2`` estimates the same quantity; pooling
    the squared errors and the means separately is steadier than
    averaging the noisy per-op ratios.
    """
    mean_sq_se = statistics.fmean(se * se for se in std_errs)
    return mean_sq_se / statistics.fmean(mses) ** 2


def time_to_rel_se(time_s: float, rel_var: float, target: float = 0.01) -> float:
    """Wall time to reach a relative standard error of ``target``.

    ``time_s`` produced an estimate whose squared relative standard error
    is ``rel_var``; the standard error shrinks as ``1/sqrt(time)``.
    """
    return time_s * rel_var / target**2


def time_to_gap_se(time_s: float, se_db_sq: float, target_db: float = 0.1) -> float:
    """Wall time to resolve a dB gap to a standard error of ``target_db``."""
    return time_s * se_db_sq / target_db**2


class Moments:
    """Running count, sum and sum of squares of one stream of values."""

    def __init__(self):
        self.n, self.s, self.ss = 0, 0.0, 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.s += x
        self.ss += x * x

    @property
    def mean(self) -> float:
        return self.s / self.n

    @property
    def var(self) -> float:
        return (self.ss - self.s * self.s / self.n) / (self.n - 1)

    @property
    def std_err(self) -> float:
        return math.sqrt(self.var / self.n)

    @property
    def rel_var_of_mean(self) -> float:
        """``(std_err / mean)**2``."""
        return self.var / (self.n * self.mean**2)


class PairMoments:
    """Running moments of paired values ``(a, b)``, including their cross sum."""

    def __init__(self):
        self.a, self.b, self.sab = Moments(), Moments(), 0.0

    def add(self, a: float, b: float) -> None:
        self.a.add(a)
        self.b.add(b)
        self.sab += a * b

    @property
    def cov(self) -> float:
        return (self.sab - self.a.s * self.b.s / self.a.n) / (self.a.n - 1)


def paired_gap_db(pair: PairMoments) -> tuple[float, float]:
    """Paired gap ``10*log10(mean_a / mean_b)`` and its delta-method standard error.

    The same formula as ``aircomp.compare_policies``, for squared errors
    the benchmark collected itself on common random numbers.
    """
    ma, mb = pair.a.mean, pair.b.mean
    var_log = (pair.a.var / ma**2 + pair.b.var / mb**2 - 2.0 * pair.cov / (ma * mb)) / pair.a.n
    return DB_PER_NEPER * math.log(ma / mb), DB_PER_NEPER * math.sqrt(max(var_log, 0.0))


def unpaired_gap_se_db(mse_a: float, se_a: float, mse_b: float, se_b: float) -> float:
    """Standard error of a dB gap between two independent estimates."""
    return DB_PER_NEPER * math.sqrt((se_a / mse_a) ** 2 + (se_b / mse_b) ** 2)


def pooled_mean_check(mses, std_errs, exact: float, max_z: float = 4.0) -> str | None:
    """Compare the mean of independent equal-size estimates with an exact value.

    Returns a failure reason, or ``None`` when the pooled estimate lies
    within ``max_z`` standard errors of ``exact``.
    """
    m = len(mses)
    mean = statistics.fmean(mses)
    se = math.sqrt(sum(s * s for s in std_errs)) / m
    z = (mean - exact) / se
    if not abs(z) <= max_z:
        return f"Monte Carlo MSE {mean:.6g} is {z:+.2f} standard errors from the exact {exact:.6g}"
    return None


def read_rows(csv_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def nan_row_failures(rows) -> list[str]:
    """One reason per sweep row whose statistics are not finite.

    ``aircomp sweep`` turns a failing cell into NaN rows and still exits
    0, so a NaN row is a failed op even when the exit code is clean.
    """
    reasons = []
    for row in rows:
        if not all(math.isfinite(float(row[key])) for key in ("mse", "std_err", "mse_db")):
            reasons.append(f"non-finite row k={row['axis_value']} {row['target']} {row['policy']}")
    return reasons


def failed_frac(failed: int, attempted: int) -> float:
    return failed / attempted
