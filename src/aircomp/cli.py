"""Command-line front end.

Subcommands:

* ``sweep``  -- Monte Carlo MSE across an axis (``k`` or ``n``).
* ``single`` -- one configuration (a one-point sweep).
* ``oracle`` -- equal-coefficient grid search on one configuration.
* ``validate`` -- fast self-checks of the numerical core.

Run commands write ``results.csv``, ``manifest.txt``, and
``summary.txt`` into ``--out``.  The manifest lists every effective
parameter as ``key = value`` lines and is itself a valid ``--config``
file, so any run can be reproduced exactly from its manifest.

Configuration precedence: command-line flags override config-file
entries, which override built-in defaults.  Config files are flat
``key = value`` text; ``#`` starts a comment and blank lines are
ignored.

Exit codes: 0 success, 2 configuration error, 3 runtime failure
(including a sweep in which every cell failed).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import ChannelParams
from .estimator import gain_statistics, mse_model
from .evaluation import (
    POLICY_NAMES,
    TARGET_NAMES,
    ExperimentConfig,
    ExperimentResult,
    build_target,
    estimate_mse,
    grid_oracle,
    sweep,
    to_db,
)
from .geometry import deploy_sensors, distance_matrix, max_distance_bound, plan_diameter_trajectory
from .nomographic import target_second_moment

__all__ = ["main", "ConfigError", "RunManifest", "parse_config_text", "render_manifest"]

_VERSION = "0.1.0"


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunManifest:
    """Every effective parameter of one CLI run."""

    command: str
    config: ExperimentConfig
    targets: tuple[str, ...]
    axis: str
    values: tuple[int, ...]
    resolution: int
    span: float
    out: str


# ---------------------------------------------------------------- config file


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` text into a string-to-string mapping.

    ``#`` starts a comment, blank lines are skipped, duplicate keys are
    rejected.  Values are coerced later against the schema.
    """
    data: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in data:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        data[key] = value
    return data


def _coerce_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from None


def _coerce_float(key, text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None


def _coerce_bool(key, text):
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true or false, got {text!r}")


def parse_values_spec(text: str) -> tuple[int, ...]:
    """Axis values: either ``start:end[:step]`` (inclusive) or a comma list."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) not in (2, 3):
                raise ConfigError(f"range must be start:end[:step], got {text!r}")
            start, end = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
            if step < 1:
                raise ConfigError(f"range step must be >= 1, got {step}")
            vals = tuple(range(start, end + 1, step))
        else:
            vals = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"values must be integers, got {text!r}") from None
    if not vals:
        raise ConfigError(f"values is empty: {text!r}")
    return vals


def _coerce_name_list(key, text, allowed):
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not names:
        raise ConfigError(f"{key} is empty")
    if key == "targets" and names == ("all",):
        return TARGET_NAMES
    for name in names:
        if name not in allowed:
            raise ConfigError(f"{key} entry {name!r} not in {allowed}")
    return names


_INT_KEYS = ("n", "k", "trials", "seed", "resolution")
_FLOAT_KEYS = ("r_cov", "h", "p_watts", "noise_var", "zeta", "g0", "data_mean", "data_var", "span")


def _coerce_file_entries(raw: dict[str, str]) -> dict:
    out: dict = {}
    for key, text in raw.items():
        if key in ("version", "command"):
            continue  # manifest bookkeeping, not parameters
        if key in _INT_KEYS:
            out[key] = _coerce_int(key, text)
        elif key in _FLOAT_KEYS:
            out[key] = _coerce_float(key, text)
        elif key == "redeploy_per_trial":
            out[key] = _coerce_bool(key, text)
        elif key == "target":
            out[key] = text
        elif key == "targets":
            out[key] = _coerce_name_list(key, text, TARGET_NAMES)
        elif key == "policies":
            out[key] = _coerce_name_list(key, text, POLICY_NAMES)
        elif key == "axis":
            out[key] = text
        elif key == "values":
            out[key] = parse_values_spec(text)
        elif key == "out":
            out[key] = text
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return out


# ------------------------------------------------------------------ manifest


def render_manifest(manifest: RunManifest) -> str:
    """Serialize a run so the text is itself a valid ``--config`` file."""
    cfg = manifest.config
    lines = [
        "# run manifest; reusable as a --config file",
        f"version = {_VERSION}",
        f"command = {manifest.command}",
        f"n = {cfg.n}",
        f"k = {cfg.k}",
        f"r_cov = {cfg.r_cov!r}",
        f"h = {cfg.h!r}",
        f"p_watts = {cfg.p_watts!r}",
        f"noise_var = {cfg.noise_var!r}",
        f"zeta = {cfg.zeta!r}",
        f"g0 = {cfg.g0!r}",
        f"data_mean = {cfg.data_mean!r}",
        f"data_var = {cfg.data_var!r}",
        f"target = {cfg.target}",
        f"targets = {','.join(manifest.targets)}",
        f"policies = {','.join(cfg.policies)}",
        f"trials = {cfg.trials}",
        f"seed = {cfg.seed}",
        f"redeploy_per_trial = {'true' if cfg.redeploy_per_trial else 'false'}",
        f"axis = {manifest.axis}",
        f"values = {','.join(str(v) for v in manifest.values)}",
        f"resolution = {manifest.resolution}",
        f"span = {manifest.span!r}",
        f"out = {manifest.out}",
    ]
    return "\n".join(lines) + "\n"


def _build_manifest(args: argparse.Namespace) -> RunManifest:
    merged: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        merged.update(_coerce_file_entries(parse_config_text(path.read_text())))

    # flags override the file
    flag_keys = [
        ("n", "n"), ("k", "k"), ("r_cov", "r_cov"), ("altitude", "h"),
        ("p_watts", "p_watts"), ("noise_var", "noise_var"), ("zeta", "zeta"),
        ("g0", "g0"), ("data_mean", "data_mean"), ("data_var", "data_var"),
        ("target", "target"), ("trials", "trials"), ("seed", "seed"),
        ("resolution", "resolution"), ("span", "span"), ("axis", "axis"),
    ]
    for attr, key in flag_keys:
        value = getattr(args, attr, None)
        if value is not None:
            merged[key] = value
    if getattr(args, "p_dbm", None) is not None:
        if args.p_watts is not None:
            raise ConfigError("give either --p-watts or --p-dbm, not both")
        merged["p_watts"] = 10.0 ** ((args.p_dbm - 30.0) / 10.0)
    if getattr(args, "noise_dbm", None) is not None:
        if args.noise_var is not None:
            raise ConfigError("give either --noise-var or --noise-dbm, not both")
        merged["noise_var"] = 10.0 ** ((args.noise_dbm - 30.0) / 10.0)
    if getattr(args, "redeploy", None) is not None:
        merged["redeploy_per_trial"] = _coerce_bool("redeploy", args.redeploy)
    if getattr(args, "policies", None) is not None:
        merged["policies"] = _coerce_name_list("policies", args.policies, POLICY_NAMES)
    if getattr(args, "targets", None) is not None:
        merged["targets"] = _coerce_name_list("targets", args.targets, TARGET_NAMES)
    if getattr(args, "values", None) is not None:
        merged["values"] = parse_values_spec(args.values)
    if args.out is not None:
        merged["out"] = args.out

    if merged.get("target") is not None and merged["target"] not in TARGET_NAMES:
        raise ConfigError(f"target must be one of {TARGET_NAMES}, got {merged['target']!r}")

    config_fields = {
        k: merged[k]
        for k in (
            "n", "k", "r_cov", "h", "p_watts", "noise_var", "zeta", "g0",
            "data_mean", "data_var", "target", "policies", "trials", "seed",
            "redeploy_per_trial",
        )
        if k in merged
    }
    try:
        config = ExperimentConfig(**config_fields)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None

    targets = merged.get("targets", (config.target,))
    axis = merged.get("axis", "k")
    if axis not in ("k", "n"):
        raise ConfigError(f"axis must be 'k' or 'n', got {axis!r}")
    values = merged.get("values", ())
    resolution = merged.get("resolution", 64)
    span = merged.get("span", 100.0)
    out = merged.get("out")

    if args.command == "sweep":
        if not values:
            raise ConfigError("sweep needs axis values (--values or config 'values')")
        if any(v < 1 for v in values) or any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("axis values must be strictly ascending positive integers")
    elif args.command == "single":
        axis = "k"
        values = (config.k,)
    elif args.command == "oracle":
        axis = "k"
        values = (config.k,)
        if resolution < 16:
            raise ConfigError(f"resolution must be >= 16, got {resolution}")
        if not span > 1.0:
            raise ConfigError(f"span must be > 1, got {span}")
    if out is None:
        raise ConfigError("an output directory is required (--out)")

    return RunManifest(
        command=args.command,
        config=config,
        targets=tuple(targets),
        axis=axis,
        values=tuple(values),
        resolution=resolution,
        span=span,
        out=out,
    )


# ----------------------------------------------------------------- reporting


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _summary_text(manifest: RunManifest, result: ExperimentResult) -> str:
    cfg = manifest.config
    lines = [
        f"{manifest.command} summary",
        f"axis = {result.axis}; trials per cell = {cfg.trials}; seed = {cfg.seed}",
        f"policies = {', '.join(cfg.policies)}",
        "",
    ]
    cells = sorted({(r.axis_value, r.target) for r in result.rows})
    for axis_value, target in cells:
        lines.append(f"[{result.axis} = {axis_value}, target = {target}]")
        cell_rows = [r for r in result.rows if r.axis_value == axis_value and r.target == target]
        by_policy = {r.policy: r for r in cell_rows}
        if cell_rows[0].error:
            lines.append(f"  failed: {cell_rows[0].error}")
        for row in cell_rows:
            lines.append(
                f"  {row.policy:<16} mse = {_fmt(row.mse):<12} "
                f"mse_db = {_fmt(row.mse_db):<10} std_err = {_fmt(row.std_err):<12} "
                f"trials = {row.trials_used}"
            )
        bench = by_policy.get("benchmark")
        if bench is not None and math.isfinite(bench.mse_db):
            for row in cell_rows:
                if row.policy == "benchmark" or not math.isfinite(row.mse_db):
                    continue
                lines.append(
                    f"  gap {row.policy} - benchmark = {_fmt(row.mse_db - bench.mse_db)} dB"
                )
        lines.append("")
    return "\n".join(lines)


def _oracle_csv_text(result) -> str:
    lines = ["beta,mse"]
    for b, val in zip(result.grid, result.values):
        lines.append(f"{float(b)!r},{float(val)!r}")
    return "\n".join(lines) + "\n"


def _oracle_summary_text(manifest: RunManifest, result) -> str:
    cfg = manifest.config
    tspec = build_target(cfg.target, cfg.n)
    reference = target_second_moment(tspec, cfg.data_mean, cfg.data_var)
    return "\n".join(
        [
            "oracle summary",
            f"grid points = {result.grid.size}; trials = {cfg.trials}; seed = {cfg.seed}",
            f"closed-form center beta = {result.center!r}",
            f"best beta = {result.beta!r}",
            f"best mse = {result.mse!r} ({_fmt(to_db(result.mse, reference))} dB)",
            f"best/center beta ratio = {_fmt(result.beta / result.center)}",
        ]
    ) + "\n"


# ------------------------------------------------------------------ commands


def _run(manifest: RunManifest) -> int:
    """Run one command, write its artifacts and return the exit code.

    A sweep reports each failed cell on stderr and exits 3 when no cell
    succeeded.
    """
    out_dir = Path(manifest.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    code = 0
    if manifest.command in ("sweep", "single"):
        result = sweep(manifest.config, manifest.axis, manifest.values, targets=manifest.targets)
        result.write_csv(out_dir / "results.csv")
        _write_text(out_dir / "summary.txt", _summary_text(manifest, result))
        failed = {(r.axis_value, r.target): r.error for r in result.rows if r.error}
        for (axis_value, target), error in failed.items():
            print(f"cell {result.axis} = {axis_value}, target = {target} failed: {error}", file=sys.stderr)
        if len(failed) == len({(r.axis_value, r.target) for r in result.rows}):
            code = 3
    elif manifest.command == "oracle":
        result = grid_oracle(manifest.config, manifest.resolution, manifest.span)
        _write_text(out_dir / "results.csv", _oracle_csv_text(result))
        _write_text(out_dir / "summary.txt", _oracle_summary_text(manifest, result))
    else:
        raise ValueError(f"unhandled command {manifest.command!r}")
    _write_text(out_dir / "manifest.txt", render_manifest(manifest))
    return code


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _run_validate() -> bool:
    """Fast internal consistency checks; prints one PASS/FAIL line each."""
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append(True)
            print(f"PASS {name}")
        except Exception as exc:  # report, never raise
            checks.append(False)
            print(f"FAIL {name}: {exc}")

    def deployment_inside_disk():
        sensors = deploy_sensors(2000, 10.0, seed=7)
        radii = np.hypot(sensors.positions[:, 0], sensors.positions[:, 1])
        if not np.all(radii <= 10.0 + 1e-12):
            raise AssertionError(f"max radius {radii.max()} exceeds 10")

    def distances_within_bound():
        sensors = deploy_sensors(500, 10.0, seed=11)
        traj = plan_diameter_trajectory(5, 10.0, 50.0)
        d = distance_matrix(sensors, traj)
        hi = max_distance_bound(10.0, 50.0)
        if not (np.all(d >= 50.0) and np.all(d <= hi)):
            raise AssertionError("distance outside [h, bound]")

    def quadrature_matches_closed_form():
        params = ChannelParams()  # 1 W, so the mean gain is the mean power gain
        traj = plan_diameter_trajectory(1, 10.0, 50.0)
        stats = gain_statistics(traj, 10.0, params, 1.0)
        exact = params.g0**2 * math.log(1.0 + (10.0 / 50.0) ** 2) / 10.0**2
        rel = abs(stats.mean_g[0] - exact) / exact
        if rel > 1e-9:
            raise AssertionError(f"relative error {rel}")

    def model_matches_second_moment_at_zero():
        cfg = ExperimentConfig()
        tspec = build_target("config-1", cfg.n)
        params = ChannelParams(g0=cfg.g0, tx_power_w=cfg.p_watts)
        traj = plan_diameter_trajectory(cfg.k, cfg.r_cov, cfg.h)
        stats = gain_statistics(traj, cfg.r_cov, params, cfg.zeta)
        breakdown = mse_model(tspec, stats, cfg.data_mean, cfg.data_var, cfg.noise_var, 0.0)
        ref = target_second_moment(tspec, cfg.data_mean, cfg.data_var)
        if abs(breakdown.mse - ref) > 1e-12 * ref:
            raise AssertionError(f"{breakdown.mse} vs {ref}")

    def monte_carlo_deterministic():
        cfg = ExperimentConfig(trials=2000, seed=3)
        a = estimate_mse(cfg, "benchmark")
        b = estimate_mse(cfg, "benchmark")
        if a != b:
            raise AssertionError("repeated run differs")

    check("deployment-inside-disk", deployment_inside_disk)
    check("distances-within-bound", distances_within_bound)
    check("quadrature-matches-closed-form", quadrature_matches_closed_form)
    check("model-matches-second-moment-at-zero", model_matches_second_moment_at_zero)
    check("monte-carlo-deterministic", monte_carlo_deterministic)
    return all(checks)


# -------------------------------------------------------------------- parser


def _add_common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", help="output directory for results.csv, manifest.txt, summary.txt")
    p.add_argument("--n", type=int, help="number of sensors")
    p.add_argument("--k", type=int, help="number of hover stops")
    p.add_argument("--r-cov", type=float, dest="r_cov", help="coverage disk radius in meters")
    p.add_argument("--altitude", type=float, help="flight altitude in meters")
    p.add_argument("--p-watts", type=float, dest="p_watts", help="illumination power in watts")
    p.add_argument("--p-dbm", type=float, dest="p_dbm", help="illumination power in dBm")
    p.add_argument("--noise-var", type=float, dest="noise_var", help="receiver noise variance in watts")
    p.add_argument("--noise-dbm", type=float, dest="noise_dbm", help="receiver noise power in dBm")
    p.add_argument("--zeta", type=float, help="backscatter reflection coefficient in (0, 1]")
    p.add_argument("--g0", type=float, help="free-space gain at 1 m")
    p.add_argument("--data-mean", type=float, dest="data_mean", help="sensor reading mean")
    p.add_argument("--data-var", type=float, dest="data_var", help="sensor reading variance")
    p.add_argument("--target", choices=TARGET_NAMES, help="target function")
    p.add_argument("--targets", help="comma list of targets, or 'all'")
    p.add_argument("--policies", help=f"comma list from {', '.join(POLICY_NAMES)}")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per cell")
    p.add_argument("--seed", type=int, help="root seed")
    p.add_argument("--redeploy", choices=("true", "false"), help="redeploy sensors every trial")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aircomp",
        description="Simulate over-the-air aggregation from a hovering collector.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo MSE across an axis")
    _add_common_options(p_sweep)
    p_sweep.add_argument("--axis", choices=("k", "n"), help="swept parameter")
    p_sweep.add_argument("--values", help="axis values: start:end[:step] or comma list")

    p_single = sub.add_parser("single", help="one configuration")
    _add_common_options(p_single)

    p_oracle = sub.add_parser("oracle", help="equal-coefficient grid search")
    _add_common_options(p_oracle)
    p_oracle.add_argument("--resolution", type=int, help="grid points (>= 16)")
    p_oracle.add_argument("--span", type=float, help="multiplicative half-width (> 1)")

    sub.add_parser("validate", help="fast numerical self-checks")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return int(code)

    if args.command == "validate":
        try:
            return 0 if _run_validate() else 3
        except Exception as exc:  # pragma: no cover - defensive
            print(f"runtime error: {exc}", file=sys.stderr)
            return 3

    try:
        manifest = _build_manifest(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return _run(manifest)
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
