"""Formulas and failure accounting of the benchmark harness.

Run with ``python -m pytest benchmarks/tests`` from the repository root.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import metrics as M  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_p99_needs_ten_samples_beyond_it():
    value, beyond = M.tail_percentile(range(999), 99)
    assert value is None and beyond == 9
    value, beyond = M.tail_percentile(range(1, 1001), 99)
    assert (value, beyond) == (990.0, 10)


def test_median_is_reported_from_three_samples():
    assert M.tail_percentile([3.0, 1.0, 2.0], 50, min_beyond=1) == (2.0, 1)


def test_time_to_one_percent():
    # 2 s gave a 2% relative error; 1% needs four times the work
    assert M.time_to_rel_se(2.0, 0.02**2) == pytest.approx(8.0)
    rel_var = M.pooled_rel_var([10.0, 10.0], [0.2, 0.2])
    assert rel_var == pytest.approx(0.02**2)


def test_gap_time_to_a_tenth_of_a_db():
    assert M.time_to_gap_se(0.5, 0.2**2) == pytest.approx(2.0)


def test_running_moments_match_numpy():
    rng = np.random.default_rng(5)
    a = rng.exponential(2.0, 500)
    b = a * 3.0 + rng.exponential(1.0, 500)
    pair = M.PairMoments()
    for x, y in zip(a, b):
        pair.add(float(x), float(y))
    cov = np.cov(a, b, ddof=1)
    assert pair.a.var == pytest.approx(cov[0, 0], rel=1e-9)
    assert pair.cov == pytest.approx(cov[0, 1], rel=1e-9)
    gap, se = M.paired_gap_db(pair)
    ma, mb = a.mean(), b.mean()
    var_log = (cov[0, 0] / ma**2 + cov[1, 1] / mb**2 - 2 * cov[0, 1] / (ma * mb)) / a.size
    assert gap == pytest.approx(10 * math.log10(ma / mb), rel=1e-12)
    assert se == pytest.approx(10 / math.log(10) * math.sqrt(var_log), rel=1e-6)


def test_pooled_check_against_exact_value():
    assert M.pooled_mean_check([1.0, 1.2], [0.1, 0.1], 1.1) is None
    assert "standard errors" in M.pooled_mean_check([1.0, 1.2], [0.01, 0.01], 1.5)


def test_thinned_keeps_evenly_spaced_samples():
    kept = workloads.Thinned(capacity=8)
    for x in range(100):
        kept.add(float(x))
    assert kept.seen == 100 and kept.kept <= 8
    values = kept.values()
    assert values == [float(x) for x in range(0, 100, kept.stride)]


CSV_HEADER = "axis_value,target,policy,mse,std_err,mse_db,trials_used\n"


class FakeCli:
    """Stands in for ``aircomp.cli``: writes a results.csv and exits 0."""

    def __init__(self, rows):
        self.rows = rows

    def main(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "results.csv").write_text(CSV_HEADER + "".join(self.rows))
        return 0


class FakeAircomp:
    def __init__(self, rows):
        self.cli = FakeCli(rows)


def test_nan_sweep_row_fails_the_op(tmp_path):
    rows = ["1,config-1,heuristic,1.0,0.1,0.0,100\n", "1,config-3,heuristic,nan,nan,nan,0\n"]
    wl = workloads.SweepPaper(FakeAircomp(rows), 1, tmp_path, name="sweep-paper", trials=100)
    attempted, failed, reasons, _, _ = run.measure(wl, 0.0, None)
    assert attempted == run.MIN_OPS and failed == attempted
    assert M.failed_frac(failed, attempted) == 1.0
    assert any("non-finite row k=1 config-3 heuristic" in r for r in reasons)


def test_clean_sweep_ops_do_not_fail(tmp_path):
    rows = ["1,config-1,heuristic,1.0,0.1,0.0,100\n"]
    wl = workloads.SweepPaper(FakeAircomp(rows), 1, tmp_path, name="sweep-paper", trials=100)
    attempted, failed, reasons, _, _ = run.measure(wl, 0.0, None)
    assert (failed, reasons) == (0, [])
    assert wl.ops == attempted
