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

Every run parameter is declared once, in ``_PARAMS``: its config key,
text parser, flag, help and the commands that have the flag.  The grid
keys ``resolution`` and ``span`` set the ``grid-oracle`` search in every
command, though only ``oracle`` has their flags; ``oracle`` searches the
one cell of ``target``, so ``--targets`` and ``--policies`` exist on
``sweep`` and ``single`` only, and an ``oracle`` manifest records that
target and ``policies = grid-oracle``.  Configuration precedence:
command-line flags override config-file entries, which override built-in
defaults.  Config files are flat ``key = value`` text; ``#`` starts a
comment and blank lines are ignored.

Exit codes: 0 success, 2 configuration error, 3 runtime failure
(including a sweep in which no row succeeded).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .channel import ChannelParams, effective_gain_matrix
from .estimator import beta_benchmark, gain_statistics, mse_exact_conditional, mse_model
from .evaluation import (
    ESTIMATOR_NAMES,
    POLICY_NAMES,
    TARGET_NAMES,
    ExperimentConfig,
    ExperimentResult,
    axis_values,
    build_target,
    estimate_mse,
    fixed_deployment,
    grid_oracle,
    sweep,
    target_reference,
    to_db,
)
from .geometry import deploy_sensors, distance_matrix, max_distance_bound, plan_diameter_trajectory

__all__ = ["main", "ConfigError", "RunManifest", "parse_config_text", "render_manifest"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunManifest:
    """Every effective parameter of one CLI run; the field defaults are the built-in ones."""

    command: str
    config: ExperimentConfig
    targets: tuple[str, ...]
    out: str | None = None  # required; a run without it is a configuration error
    axis: str = "k"
    values: tuple[int, ...] = ()


# ---------------------------------------------------------------- config file


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` text into a string-to-string mapping.

    ``#`` starts a comment, blank lines are skipped, duplicate keys are
    rejected.  Values are parsed later by the parameter table.
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


def _bool(text):
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"must be true or false, got {text!r}")


def parse_values_spec(text: str) -> tuple[int, ...]:
    """Axis values: either ``start:end[:step]`` (inclusive) or a comma list."""
    text = text.strip()
    parts = text.split(":")
    if len(parts) > 3:
        raise ConfigError(f"range must be start:end[:step], got {text!r}")
    tokens = parts if len(parts) > 1 else [tok for tok in text.split(",") if tok.strip()]
    try:
        ints = [int(tok) for tok in tokens]
    except ValueError:
        raise ConfigError(f"values must be integers, got {text!r}") from None
    if len(parts) == 1:
        vals = tuple(ints)
    else:
        step = ints[2] if len(ints) == 3 else 1
        if step < 1:
            raise ConfigError(f"range step must be >= 1, got {step}")
        vals = tuple(range(ints[0], ints[1] + 1, step))
    if not vals:
        raise ConfigError(f"values is empty: {text!r}")
    return vals


def _name_list(allowed, text):
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not names:
        raise ValueError("is empty")
    if allowed is TARGET_NAMES and names == ("all",):
        return TARGET_NAMES
    for i, name in enumerate(names):
        if name not in allowed:
            raise ValueError(f"entry {name!r} not in {allowed}")
        if name in names[:i]:
            raise ValueError(f"entry {name!r} is repeated")
    return names


def _axis(text):
    if text not in ("k", "n"):
        raise ValueError(f"must be 'k' or 'n', got {text!r}")
    return text


class _Param(NamedTuple):
    """One run parameter: its config and manifest key, text parser, flag, help and commands."""

    key: str
    parse: Callable[[str], object]  # text -> value, or raises ValueError
    flag: str
    help: str
    commands: tuple[str, ...] | None = None  # the run commands with this flag; None: all of them


# Every run parameter, in manifest order.  Config files and flags are both
# parsed by these rows, and the manifest and the subparsers are built from them.
_PARAMS = {
    param.key: param
    for param in (
        _Param("n", int, "--n", "number of sensors"),
        _Param("k", int, "--k", "number of hover stops"),
        _Param("r_cov", float, "--r-cov", "coverage disk radius in meters"),
        _Param("h", float, "--altitude", "flight altitude in meters"),
        _Param("p_watts", float, "--p-watts", "illumination power in watts"),
        _Param("noise_var", float, "--noise-var", "receiver noise variance in watts"),
        _Param("zeta", float, "--zeta", "backscatter reflection coefficient in (0, 1]"),
        _Param("g0", float, "--g0", "free-space gain at 1 m"),
        _Param("data_mean", float, "--data-mean", "sensor reading mean"),
        _Param("data_var", float, "--data-var", "sensor reading variance"),
        _Param("target", str, "--target", f"target function: {', '.join(TARGET_NAMES)}"),
        _Param("targets", partial(_name_list, TARGET_NAMES), "--targets", "comma list of targets, or 'all'",
               ("sweep", "single")),
        _Param("policies", partial(_name_list, POLICY_NAMES), "--policies",
               f"comma list from {', '.join(POLICY_NAMES)}", ("sweep", "single")),
        _Param("trials", int, "--trials", "Monte Carlo trials per cell"),
        _Param("seed", int, "--seed", "root seed"),
        _Param("redeploy_per_trial", _bool, "--redeploy", "redeploy sensors every trial (true/false)"),
        _Param("estimator", str, "--estimator",
               f"per-trial Monte Carlo value: {' or '.join(ESTIMATOR_NAMES)} (see README)"),
        _Param("axis", _axis, "--axis", "swept parameter: k or n", ("sweep",)),
        _Param("values", parse_values_spec, "--values", "axis values: start:end[:step] or comma list",
               ("sweep",)),
        _Param("resolution", int, "--resolution", "grid points (>= 16)", ("oracle",)),
        _Param("span", float, "--span", "multiplicative half-width (> 1)", ("oracle",)),
        _Param("out", str, "--out", "output directory for results.csv, manifest.txt, summary.txt"),
    )
}
_CONFIG_KEYS = {field.name for field in fields(ExperimentConfig)}

# dBm spellings of two watt parameters, the only unit conversion: 10**((dbm - 30) / 10) W
_DBM_FLAGS = {
    "p_watts": ("--p-dbm", "illumination power in dBm"),
    "noise_var": ("--noise-dbm", "receiver noise power in dBm"),
}


def _dbm_to_watts(text):
    try:
        return 10.0 ** ((float(text) - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"{text} dBm is out of range") from None


def _parse(key: str, parse: Callable[[str], object], text: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _coerce(entries: dict[str, str]) -> dict:
    """Parse ``key -> text`` entries through the parameter table."""
    for key in entries:
        if key not in _PARAMS:
            raise ConfigError(f"unknown config key {key!r}")
    return {key: _parse(key, _PARAMS[key].parse, text) for key, text in entries.items()}


# ------------------------------------------------------------------ manifest


def _show(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def render_manifest(manifest: RunManifest) -> str:
    """Serialize a run so the text is itself a valid ``--config`` file."""
    lines = [
        "# run manifest; reusable as a --config file",
        f"version = {__version__}",
        f"command = {manifest.command}",
    ]
    for key in _PARAMS:
        value = getattr(manifest.config if key in _CONFIG_KEYS else manifest, key)
        lines.append(f"{key} = {_show(value)}")
    return "\n".join(lines) + "\n"


def _build_manifest(args: argparse.Namespace) -> RunManifest:
    entries: dict[str, str] = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        entries = parse_config_text(path.read_text())
        for key in ("version", "command"):  # manifest bookkeeping, not parameters
            entries.pop(key, None)

    flags = {key: getattr(args, key) for key in _PARAMS if getattr(args, key, None) is not None}
    for key, (flag, _) in _DBM_FLAGS.items():
        dbm = getattr(args, f"{key}_dbm")
        if dbm is not None:
            if key in flags:
                raise ConfigError(f"give either {_PARAMS[key].flag} or {flag}, not both")
            flags[key] = repr(_parse(flag, _dbm_to_watts, dbm))
    merged = {**_coerce(entries), **_coerce(flags)}

    extras = {key: value for key, value in merged.items() if key not in _CONFIG_KEYS}
    if args.command == "sweep" and "values" not in extras:
        raise ConfigError("sweep needs axis values (--values or config 'values')")
    try:
        config = ExperimentConfig(**{k: v for k, v in merged.items() if k in _CONFIG_KEYS})
        if args.command == "sweep":
            axis_values(extras["values"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None

    if args.command != "sweep":
        extras.update(axis="k", values=(config.k,))
    if args.command == "oracle":  # the oracle runs only the grid search, on config.target
        config = replace(config, policies=("grid-oracle",))
        extras.pop("targets", None)
    extras.setdefault("targets", (config.target,))
    manifest = RunManifest(args.command, config, **extras)
    if manifest.out is None:
        raise ConfigError("an output directory is required (--out)")
    return manifest


# ----------------------------------------------------------------- reporting


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _cells(result: ExperimentResult) -> dict:
    """Rows grouped by ``(axis value, target)``, in sorted cell order."""
    cells: dict = {}
    for row in result.rows:
        cells.setdefault((row.axis_value, row.target), []).append(row)
    return dict(sorted(cells.items()))


def _failures(cell_rows) -> list[str]:
    """One ``failed`` line per distinct reason in a cell; a reason not every row shares names its policies."""
    policies: dict[str, list[str]] = {}
    for row in cell_rows:
        if row.error:
            policies.setdefault(row.error, []).append(row.policy)
    return [
        f"failed: {error}" if len(names) == len(cell_rows) else f"failed ({', '.join(names)}): {error}"
        for error, names in policies.items()
    ]


def _summary_text(manifest: RunManifest, result: ExperimentResult) -> str:
    cfg = manifest.config
    lines = [
        f"{manifest.command} summary",
        f"axis = {result.axis}; trials per cell = {cfg.trials}; seed = {cfg.seed}",
        f"policies = {', '.join(cfg.policies)}",
        "",
    ]
    for (axis_value, target), cell_rows in _cells(result).items():
        lines.append(f"[{result.axis} = {axis_value}, target = {target}]")
        by_policy = {r.policy: r for r in cell_rows}
        lines.extend(f"  {line}" for line in _failures(cell_rows))
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
    rows = (f"{float(b)!r},{float(val)!r}" for b, val in zip(result.grid, result.values))
    return "\n".join(["beta,mse", *rows]) + "\n"


def _oracle_summary_text(manifest: RunManifest, result) -> str:
    cfg = manifest.config
    return "\n".join(
        [
            "oracle summary",
            f"target = {cfg.target}",
            f"grid points = {result.grid.size}; trials = {cfg.trials}; seed = {cfg.seed}",
            f"closed-form center beta = {result.center!r}",
            f"best beta = {result.beta!r}",
            f"best mse = {result.mse!r} ({_fmt(to_db(result.mse, target_reference(cfg)))} dB)",
            f"best/center beta ratio = {_fmt(result.beta / result.center)}",
        ]
    ) + "\n"


# ------------------------------------------------------------------ commands


def _run(manifest: RunManifest) -> int:
    """Run one command, write its artifacts and return the exit code.

    A sweep reports each failure reason of each cell on stderr and exits
    3 when no row succeeded.
    """
    out_dir = Path(manifest.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    code = 0
    if manifest.command == "oracle":
        result = grid_oracle(manifest.config)
        (out_dir / "results.csv").write_text(_oracle_csv_text(result), newline="\n")
        (out_dir / "summary.txt").write_text(_oracle_summary_text(manifest, result), newline="\n")
    else:
        result = sweep(manifest.config, manifest.axis, manifest.values, targets=manifest.targets)
        result.write_csv(out_dir / "results.csv")
        (out_dir / "summary.txt").write_text(_summary_text(manifest, result), newline="\n")
        for (axis_value, target), cell_rows in _cells(result).items():
            for line in _failures(cell_rows):
                print(f"cell {result.axis} = {axis_value}, target = {target} {line}", file=sys.stderr)
        if all(row.error for row in result.rows):
            code = 3
    (out_dir / "manifest.txt").write_text(render_manifest(manifest), newline="\n")
    return code


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
        ref = target_reference(cfg, tspec)
        if abs(breakdown.mse - ref) > 1e-12 * ref:
            raise AssertionError(f"{breakdown.mse} vs {ref}")

    def conditional_matches_exact():
        # every trial of a fixed layout under a non-pilot policy has the same conditional MSE
        cfg = ExperimentConfig(redeploy_per_trial=False, trials=100, noise_var=1e-12, seed=3)
        tspec = build_target(cfg.target, cfg.n)
        params = ChannelParams(g0=cfg.g0, tx_power_w=cfg.p_watts)
        traj = plan_diameter_trajectory(cfg.k, cfg.r_cov, cfg.h)
        gains = effective_gain_matrix(fixed_deployment(cfg), traj, params)
        beta = beta_benchmark(traj, params, cfg.zeta, cfg.n)
        exact = mse_exact_conditional(tspec, gains, cfg.data_mean, cfg.data_var, cfg.noise_var, beta)
        mse = estimate_mse(cfg, "benchmark").mse
        if abs(mse - exact) > 1e-12 * exact:
            raise AssertionError(f"{mse} vs {exact}")

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
    check("conditional-matches-exact", conditional_matches_exact)
    check("monte-carlo-deterministic", monte_carlo_deterministic)
    return all(checks)


# -------------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aircomp",
        description="Simulate over-the-air aggregation from a hovering collector.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (
        ("sweep", "Monte Carlo MSE across an axis"),
        ("single", "one configuration"),
        ("oracle", "equal-coefficient grid search"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        for param in _PARAMS.values():
            if param.commands is None or command in param.commands:
                p.add_argument(param.flag, dest=param.key, help=param.help)
            if param.key in _DBM_FLAGS:
                flag, dbm_help = _DBM_FLAGS[param.key]
                p.add_argument(flag, dest=f"{param.key}_dbm", help=dbm_help)
    sub.add_parser("validate", help="fast numerical self-checks")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, --version and usage errors
        return int(exc.code or 0)

    if args.command == "validate":
        return 0 if _run_validate() else 3

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
