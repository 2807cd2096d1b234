"""Benchmark entry point: one workload, one seed, a closed loop with one caller.

    python3 benchmarks/run.py --workload ref-cell --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; aircomp is imported from ``src/``
of that checkout and driven in this process through its public API and
``aircomp.cli.main``.  Each op is issued after the previous one returns.
The run prints a table of every metric with its unit, the run record as
one JSON line, and as its last line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  The record, and the spans of a traced run,
are also written to ``benchmarks/results/``.

Exit codes: 0 with a result printed, 1 when no op succeeded, 2 when
aircomp cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import metrics as M
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 3
SETUP_PROBES = 15

# gated end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_p50_s": ("s", "lower"),
    "trials_per_s": ("trials/s", "higher"),
    "time_to_1pct_s": ("s", "lower"),
    "gap_time_to_0.1db_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}
# printed and recorded where they apply, not gated
EXTRA_UNITS = {
    "latency_p99_s": "s",
    "latency_p99_s.samples_beyond": "count",
    "time_to_1pct_s.noise-1e-10": "s",
    "gap_time_to_0.1db_s.noise-1e-10": "s",
    "check_round_p50_s": "s",
    "failed_frac": "ratio",
}

PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import aircomp, aircomp.cli, workloads; "
    "workloads.build(aircomp, sys.argv[3], int(sys.argv[4]), None); print('ready', flush=True)"
)


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in spans.LAYERS}
    for name in spans.span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.time_s"] = "s"
    units[spans.OBJECTIVE_CALLS] = "count"
    units["evaluation.ns_per_trial_link"] = "ns"
    units["evaluation.accepted_frac.heuristic"] = "ratio"
    units["cli.bytes_written"] = "bytes"
    units["trace.overhead_s"] = "s"
    return units


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use; must run before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def setup_times(name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters until aircomp is imported and the inputs are built."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, "-c", PROBE, str(SRC), str(HERE), name, str(seed)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def machine_record(blas_cap: int) -> dict:
    import numpy  # only after cap_blas_threads has run

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        l3 = os.sysconf("SC_LEVEL3_CACHE_SIZE") or None
    except (ValueError, OSError):
        l3 = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "aircomp").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_cap": blas_cap,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def traced_op(wl, j: int, tracer: spans.Tracer, traced_latency: workloads.Thinned):
    """Run op ``j`` untraced and traced, alternating which goes first; compare outputs."""
    errors_before = len(tracer.errors)

    def traced():
        with tracer.installed(), tracer.op(j):
            return wl.run_op(j)

    if j % 2:
        twin = traced()
        op = wl.run_op(j)
    else:
        op = wl.run_op(j)
        twin = traced()
    traced_latency.add(twin.latency_s)
    if twin.output != op.output:
        op.failures.append("traced output differs from the untraced output")
    op.failures += tracer.errors[errors_before:]
    return op


def measure(wl, seconds: float, tracer):
    latency, traced_latency = workloads.Thinned(), workloads.Thinned()
    attempted = failed = 0
    reasons: list[str] = []
    start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - start < seconds:
        j = attempted
        attempted += 1
        try:
            op = wl.run_op(j) if tracer is None else traced_op(wl, j, tracer, traced_latency)
            wl.check_op(j, op)
        except Exception as exc:  # a failing op is counted and the loop goes on
            failed += 1
            reasons.append(f"op {j}: {type(exc).__name__}: {exc}")
            continue
        wl.record(op)
        latency.add(op.latency_s)
        if op.failures:
            failed += 1
            reasons += [f"op {j}: {r}" for r in op.failures]
    return attempted, failed, reasons, latency, traced_latency


def layer_metrics(wl, tracer: spans.Tracer, latency, traced_latency) -> dict[str, float]:
    out = {key: value / tracer.ops for key, value in tracer.totals.items()}
    totals = wl.layer_totals()
    links_per_op = totals["trial_links"] / wl.ops
    out["evaluation.ns_per_trial_link"] = 1e9 * out["evaluation.self_s"] / links_per_op
    out["evaluation.accepted_frac.heuristic"] = totals["accepted"] / totals["simulated"]
    out["cli.bytes_written"] = totals["bytes_written"] / wl.ops
    out["trace.overhead_s"] = M.median(traced_latency.values()) - M.median(latency.values())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_cap = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    try:
        import aircomp
        import aircomp.cli
    except ImportError as exc:
        print(f"cannot import aircomp from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(aircomp.__file__).resolve().parent != SRC / "aircomp":
        print(f"aircomp was imported from {aircomp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    setup = [] if args.trace else setup_times(args.workload, args.seed)
    work_dir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        wl = workloads.build(aircomp, args.workload, args.seed, work_dir)
        wl.prepare()
        attempted, failed, reasons, latency, traced_latency = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if wl.ops == 0:
        print("\n".join(["no op succeeded:", *reasons[:20]]), file=sys.stderr)
        return 1
    run_failures = wl.run_checks()
    if run_failures:
        # the run-level checks pool every op, so each op shares the failure
        failed = attempted
        reasons += run_failures

    if args.trace:
        values = layer_metrics(wl, tracer, latency, traced_latency)
        units = per_layer_units()
        extras = {}
    else:
        values = wl.end_to_end()
        values["setup_s"] = M.median(setup)
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["failed_frac"] = M.failed_frac(failed, attempted)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        extras = {name: values[name] for name in EXTRA_UNITS if name in values}

    result_metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload][0],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller",
        "trial_counts": wl.trial_counts,
        "machine": machine_record(blas_cap),
        "load_average_start": load_start,
        "load_average_end": os.getloadavg(),
        "samples": {
            "ops": attempted,
            "latency_samples": latency.kept,
            "setup_probes": len(setup),
            "traced_ops": tracer.ops if tracer else 0,
        },
        "failures": reasons[:50],
        "extras": {name: {"value": v, "unit": EXTRA_UNITS[name]} for name, v in extras.items()},
        "metrics": result_metrics,
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}")
    for name, entry in {**result_metrics, **record["extras"]}.items():
        better = END_TO_END.get(name, (None, ""))[1]
        note = f"{better} is better" if better else ("not gated" if name in extras else "")
        print(f"  {name:<48} {entry['value']:<14.6g} {entry['unit']:<9} {note}")
    for reason in reasons[:20]:
        print(f"  FAILED {reason}")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(results / f"{stem}-spans.jsonl", "w") as fh:
            for op_id, name, start, end, parent in tracer.kept:
                fh.write(json.dumps({"op": op_id, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
