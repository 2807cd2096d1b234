"""The benchmark's four workloads: inputs built from a seed, the timed op, its checks.

Every workload but sweep-paper runs at the reference geometry (10 m disk,
50 m altitude, 1 W, target config-1).  aircomp receives only the
``ExperimentConfig`` (or CLI arguments) built here; functions are looked
up on the package at call time so the traced run sees its wrappers.
"""

from __future__ import annotations

import math
import random
import shutil
import statistics
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as clock

import metrics as M

REFERENCE = {"r_cov": 10.0, "h": 50.0, "p_watts": 1.0, "target": "config-1"}
HEURISTIC_FLOOR_DB = 5.0  # acceptance criterion 1's floor on the heuristic's gain
REJECTING_NOISE = 1e-10  # about 81% of reference rounds fail the pilot check here
SUFFIX = {1e-12: "", REJECTING_NOISE: ".noise-1e-10"}


@dataclass
class Op:
    """One timed op: its wall time, what it returned, and what went wrong."""

    latency_s: float
    output: object
    stats: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


class Thinned:
    """Evenly spaced samples of an unbounded stream, in memory allocated up front.

    When the buffer fills, every second sample is dropped and the stride
    doubles, so the kept samples stay evenly spread over the whole run and
    the benchmark's own memory does not grow with the op count (which
    would show in ``peak_rss_mib`` whenever the program got faster).
    """

    def __init__(self, capacity: int = 1 << 16):
        self.capacity = capacity
        self.buf = array("d", bytes(8 * capacity))
        self.kept = 0
        self.seen = 0
        self.stride = 1

    def add(self, x: float) -> None:
        if self.seen % self.stride == 0:
            if self.kept == self.capacity:
                self.buf[: self.kept // 2] = self.buf[0 : self.kept : 2]
                self.kept //= 2
                self.stride *= 2
            if self.seen % self.stride == 0:
                self.buf[self.kept] = x
                self.kept += 1
        self.seen += 1

    def values(self) -> list[float]:
        return self.buf[: self.kept].tolist()


def _base_seed(name: str, seed: int) -> int:
    return random.Random(f"{name}:{seed}").randrange(2**31)


def exact_benchmark_mse(ac, cfg) -> float:
    """Exact marginal MSE of the benchmark policy: the oracle for the Monte Carlo checks."""
    tspec = ac.build_target(cfg.target, cfg.n)
    params = ac.ChannelParams(g0=cfg.g0, tx_power_w=cfg.p_watts)
    traj = ac.plan_diameter_trajectory(cfg.k, cfg.r_cov, cfg.h)
    stats = ac.gain_statistics(traj, cfg.r_cov, params, cfg.zeta)
    beta = ac.beta_benchmark(traj, params, cfg.zeta, cfg.n)
    return ac.mse_exact_marginal(tspec, stats, cfg.data_mean, cfg.data_var, cfg.noise_var, beta)


class EngineCell:
    """One op is the README quick start at each noise level.

    ``estimate_mse(cfg, "heuristic")`` then
    ``compare_policies(cfg, "benchmark", "heuristic")``; op ``j`` uses
    config seed ``base + j``.  After each op an untimed
    ``estimate_mse(cfg, "benchmark")`` at noise 1e-12 feeds the check
    against the exact marginal MSE.
    """

    def __init__(self, ac, seed: int, work_dir: Path, *, name, n, k, trials, noises):
        self.ac, self.name, self.n, self.k, self.trials, self.noises = ac, name, n, k, trials, noises
        self.base = _base_seed(name, seed)
        self.records: list[dict] = []
        self.exact = None

    def config(self, j: int, noise: float):
        return self.ac.ExperimentConfig(
            n=self.n, k=self.k, noise_var=noise, trials=self.trials, seed=self.base + j, **REFERENCE
        )

    @property
    def trial_counts(self) -> dict:
        return {"trials_per_call": self.trials, "engine_calls_per_op": 2 * len(self.noises)}

    def prepare(self) -> None:
        self.exact = exact_benchmark_mse(self.ac, self.config(0, self.noises[0]))

    def run_op(self, j: int) -> Op:
        ac, parts, outputs = self.ac, {}, []
        start = clock()
        for noise in self.noises:
            cfg = self.config(j, noise)
            t0 = clock()
            est = ac.estimate_mse(cfg, "heuristic")
            t1 = clock()
            gap = ac.compare_policies(cfg, "benchmark", "heuristic")
            t2 = clock()
            outputs += [est, gap]
            parts[noise] = (t1 - t0, t2 - t1, est, gap)
        op = Op(clock() - start, tuple(outputs), stats={"parts": parts})
        for noise, (_, _, est, gap) in parts.items():
            if not all(map(math.isfinite, (est.mse, est.std_err, gap.gap_db, gap.std_err_db))):
                op.failures.append(f"non-finite estimate at noise {noise:g}")
        _, _, _, gap = parts[self.noises[0]]
        if not gap.gap_db >= HEURISTIC_FLOOR_DB:
            op.failures.append(f"heuristic beats the benchmark by only {gap.gap_db:.2f} dB")
        return op

    @property
    def ops(self) -> int:
        return len(self.records)

    def check_op(self, j: int, op: Op) -> None:
        bench = self.ac.estimate_mse(self.config(j, self.noises[0]), "benchmark")
        op.stats["bench"] = (bench.mse, bench.std_err)

    def record(self, op: Op) -> None:
        self.records.append({"latency_s": op.latency_s, **op.stats})

    def run_checks(self) -> list[str]:
        mses, ses = zip(*(r["bench"] for r in self.records))
        reason = M.pooled_mean_check(mses, ses, self.exact)
        return [] if reason is None else [f"benchmark policy: {reason}"]

    def end_to_end(self) -> dict[str, float]:
        lat = [r["latency_s"] for r in self.records]
        rounds = 2 * len(self.noises) * self.trials
        out = {
            "latency_p50_s": M.median(lat),
            "trials_per_s": M.median(rounds / x for x in lat),
        }
        for noise in self.noises:
            parts = [r["parts"][noise] for r in self.records]
            t_est, t_gap, ests, gaps = zip(*parts)
            rel_var = M.pooled_rel_var([e.mse for e in ests], [e.std_err for e in ests])
            se_db_sq = statistics.fmean(g.std_err_db**2 for g in gaps)
            out["time_to_1pct_s" + SUFFIX[noise]] = M.time_to_rel_se(M.median(t_est), rel_var)
            out["gap_time_to_0.1db_s" + SUFFIX[noise]] = M.time_to_gap_se(M.median(t_gap), se_db_sq)
        return out

    def layer_totals(self) -> dict[str, float]:
        ests = [r["parts"][noise][2] for r in self.records for noise in self.noises]
        return {
            "trial_links": self.ops * 2 * len(self.noises) * self.trials * self.n * self.k,
            "accepted": sum(e.trials_used for e in ests),
            "simulated": sum(e.trials_used + e.trials_rejected for e in ests),
            "bytes_written": 0,
        }


class SweepPaper:
    """One op is one run of the paper-figure sweep through ``aircomp.cli.main``.

    Every op of a run uses the same seed, so ``results.csv`` must come out
    byte-identical each time.  The squares target ``config-2`` is left out:
    with zero-mean data its closed-form centre is 0, ``beta_grid_oracle``
    rejects that, and ``sweep`` writes NaN rows for the whole cell, so
    every op would fail.
    """

    POLICIES = "heuristic,heuristic-equal,optimal-equal,benchmark,grid-oracle"
    TARGETS = ("config-1", "config-3")
    K_VALUES = range(1, 11)
    N = 20

    def __init__(self, ac, seed: int, work_dir: Path, *, name, trials):
        self.ac, self.name, self.trials, self.work_dir = ac, name, trials, work_dir
        self.base = _base_seed(name, seed)
        self.reference_csv = None
        self.rows = None  # rows of the first op; every op must write the same results.csv
        self.records: list[dict] = []

    @property
    def trial_counts(self) -> dict:
        return {"trials_per_cell": self.trials, "cells_per_op": len(self.K_VALUES) * len(self.TARGETS)}

    def argv(self, out: Path) -> list[str]:
        return [
            "sweep", "--axis", "k", "--values", f"{self.K_VALUES[0]}:{self.K_VALUES[-1]}",
            "--targets", ",".join(self.TARGETS), "--policies", self.POLICIES, "--noise-var", "1e-12",
            "--trials", str(self.trials), "--seed", str(self.base), "--out", str(out),
        ]

    def prepare(self) -> None:
        pass

    def run_op(self, j: int) -> Op:
        out = self.work_dir / f"sweep-{j}"
        shutil.rmtree(out, ignore_errors=True)
        argv = self.argv(out)
        start = clock()
        code = self.ac.cli.main(argv)
        op = Op(clock() - start, None)
        if code != 0:
            op.failures.append(f"aircomp sweep exited with code {code}")
        csv_path = out / "results.csv"
        text = csv_path.read_text() if csv_path.is_file() else ""
        if not text:
            op.failures.append("no results.csv written")
        written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        shutil.rmtree(out, ignore_errors=True)
        rows = M.read_rows(text)
        op.failures += M.nan_row_failures(rows)
        if self.reference_csv is None:
            self.reference_csv = text
        elif text != self.reference_csv:
            op.failures.append("results.csv differs from the first op's")
        op.output = text
        op.stats = {"rows": rows, "bytes_written": written}
        return op

    @property
    def ops(self) -> int:
        return len(self.records)

    def check_op(self, j: int, op: Op) -> None:
        pass

    def record(self, op: Op) -> None:
        if self.rows is None:
            self.rows = op.stats["rows"]
        self.records.append({"latency_s": op.latency_s, "bytes_written": op.stats["bytes_written"]})

    def run_checks(self) -> list[str]:
        return []

    def _rows(self, policy: str) -> dict[int, dict]:
        return {int(r["axis_value"]): r for r in self.rows if r["target"] == "config-1" and r["policy"] == policy}

    def end_to_end(self) -> dict[str, float]:
        lat = M.median(r["latency_s"] for r in self.records)
        heur, bench = self._rows("heuristic"), self._rows("benchmark")
        # every op returns the same rows, so the sweep's own error bars are
        # pooled over its ten config-1 cells instead of over ops
        rel_var = statistics.fmean(
            (float(r["std_err"]) / float(r["mse"])) ** 2 for r in heur.values()
        )
        se_db_sq = statistics.fmean(
            M.unpaired_gap_se_db(
                float(heur[k]["mse"]), float(heur[k]["std_err"]),
                float(bench[k]["mse"]), float(bench[k]["std_err"]),
            ) ** 2
            for k in heur
        )
        cells = len(self.K_VALUES) * len(self.TARGETS)
        return {
            "latency_p50_s": lat,
            "trials_per_s": M.median(cells * self.trials / r["latency_s"] for r in self.records),
            "time_to_1pct_s": M.time_to_rel_se(lat, rel_var),
            "gap_time_to_0.1db_s": M.time_to_gap_se(lat, se_db_sq),
        }

    def layer_totals(self) -> dict[str, float]:
        heur = [r for r in self.rows if r["policy"] == "heuristic"]
        return {
            "trial_links": self.ops * self.trials * self.N * sum(self.K_VALUES) * len(self.TARGETS),
            "accepted": sum(int(r["trials_used"]) for r in heur),
            "simulated": len(heur) * self.trials,
            "bytes_written": sum(r["bytes_written"] for r in self.records),
        }


class PerRound:
    """One op is one ``run_trial(cfg, "heuristic", base + i)`` at the reference cell.

    After each op an untimed ``run_trial(cfg, "benchmark", base + i)``
    on the same streams gives the paired gap and the check against the
    exact marginal MSE.  Statistics are kept as running sums and latencies
    as thinned samples, so memory stays flat however many ops run.
    """

    def __init__(self, ac, seed: int, work_dir: Path, *, name, noise):
        self.ac, self.name = ac, name
        self.base = _base_seed(name, seed)
        self.cfg = ac.ExperimentConfig(n=20, k=5, noise_var=noise, seed=self.base, **REFERENCE)
        self.exact = None
        self.heur = M.Moments()
        self.bench = M.Moments()
        self.pair = M.PairMoments()
        self.ops = 0
        self.latency = Thinned()
        self.pair_time = Thinned()
        self.bench_time = Thinned()

    @property
    def trial_counts(self) -> dict:
        return {"rounds_per_op": 1, "check_rounds_per_op": 1}

    def prepare(self) -> None:
        self.exact = exact_benchmark_mse(self.ac, self.cfg)

    def run_op(self, j: int) -> Op:
        start = clock()
        try:
            sq = self.ac.run_trial(self.cfg, "heuristic", self.base + j)
        except self.ac.SamplingRejectedError:
            sq = None  # protocol behaviour, not a failure
        op = Op(clock() - start, sq)
        if sq is not None and not math.isfinite(sq):
            op.failures.append(f"non-finite squared error in round {j}")
        return op

    def check_op(self, j: int, op: Op) -> None:
        start = clock()
        sq = self.ac.run_trial(self.cfg, "benchmark", self.base + j)
        op.stats = {"bench": sq, "bench_s": clock() - start}

    def record(self, op: Op) -> None:
        self.ops += 1
        self.latency.add(op.latency_s)
        self.pair_time.add(op.latency_s + op.stats["bench_s"])
        self.bench_time.add(op.stats["bench_s"])
        sq_b = op.stats["bench"]
        self.bench.add(sq_b)
        if op.output is not None:
            self.heur.add(op.output)
            self.pair.add(op.output, sq_b)

    def run_checks(self) -> list[str]:
        reason = M.pooled_mean_check([self.bench.mean], [self.bench.std_err], self.exact)
        return [] if reason is None else [f"benchmark policy: {reason}"]

    def end_to_end(self) -> dict[str, float]:
        lat = self.latency.values()
        p99, beyond = M.tail_percentile(lat, 99)
        _, se_db = M.paired_gap_db(self.pair)
        out = {
            "latency_p50_s": M.median(lat),
            "trials_per_s": 1.0 / statistics.fmean(lat),
            # rejected rounds cost time too, so time is charged per op, not per accepted round
            "time_to_1pct_s": M.time_to_rel_se(M.median(lat) * self.ops, self.heur.rel_var_of_mean),
            "gap_time_to_0.1db_s": M.time_to_gap_se(M.median(self.pair_time.values()) * self.ops, se_db**2),
            "check_round_p50_s": M.median(self.bench_time.values()),
        }
        if p99 is not None:
            out["latency_p99_s"] = p99
            out["latency_p99_s.samples_beyond"] = beyond
        return out

    def layer_totals(self) -> dict[str, float]:
        return {
            "trial_links": self.ops * self.cfg.n * self.cfg.k,
            "accepted": self.heur.n,
            "simulated": self.ops,
            "bytes_written": 0,
        }


WORKLOADS = {
    "ref-cell": (
        "reference cell n=20 k=5 at noise 1e-12 and 1e-10: engine kernel in L3, rejection-heavy cell",
        lambda ac, seed, wd: EngineCell(
            ac, seed, wd, name="ref-cell", n=20, k=5, trials=50_000, noises=(1e-12, REJECTING_NOISE)
        ),
    ),
    "sweep-paper": (
        "paper-figure CLI sweep over k=1..10, two targets, five policies: per-cell quadrature, grid oracle, CSV writing",
        lambda ac, seed, wd: SweepPaper(ac, seed, wd, name="sweep-paper", trials=5_000),
    ),
    "large-network": (
        "n=2000 k=20: 100-trial chunks whose temporaries exceed L3, 4 stream spawns per chunk",
        lambda ac, seed, wd: EngineCell(
            ac, seed, wd, name="large-network", n=2000, k=20, trials=1_000, noises=(1e-12,)
        ),
    ),
    "per-round": (
        "one run_trial round at a time: the only path through geometry, channel and protocol",
        lambda ac, seed, wd: PerRound(ac, seed, wd, name="per-round", noise=1e-12),
    ),
}


def build(ac, name: str, seed: int, work_dir: Path):
    """Build a workload's inputs from its seed."""
    return WORKLOADS[name][1](ac, seed, work_dir)
