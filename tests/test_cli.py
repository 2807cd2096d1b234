"""Tests for the command-line front end.

Covers the flat config grammar, flag/file/default precedence, manifest
round-tripping (a manifest is itself a valid config file and reproduces
its run byte for byte), artifact layout, and the exit-code contract:
0 success, 2 configuration error, 3 runtime failure.
"""

import dataclasses
import hashlib
import math

import pytest

from aircomp.cli import (
    _PARAMS,
    ConfigError,
    RunManifest,
    _build_manifest,
    _build_parser,
    main,
    parse_config_text,
    parse_values_spec,
    render_manifest,
)
from aircomp.evaluation import ExperimentConfig, ExperimentResult, estimate_mse


def run_single(tmp_path, name, extra=()):
    """Run the ``single`` subcommand into ``tmp_path/name``; return the dir."""
    out = tmp_path / name
    code = main(
        [
            "single",
            "--out",
            str(out),
            "--trials",
            "300",
            "--noise-var",
            "1e-12",
            "--seed",
            "3",
            *extra,
        ]
    )
    assert code == 0
    return out


class TestConfigGrammar:
    def test_comments_blanks_and_spacing(self):
        text = """
        # leading comment
        n = 12

        k=3   # trailing comment
        target   =   config-2
        """
        assert parse_config_text(text) == {"n": "12", "k": "3", "target": "config-2"}

    def test_value_may_contain_equals(self):
        assert parse_config_text("note = a=b") == {"note": "a=b"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("n = 1\nn = 2\n")

    def test_missing_separator_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("= 5\n")


class TestValuesSpec:
    def test_inclusive_range(self):
        assert parse_values_spec("2:6") == (2, 3, 4, 5, 6)

    def test_range_with_step(self):
        assert parse_values_spec("2:10:2") == (2, 4, 6, 8, 10)
        assert parse_values_spec("1:10:4") == (1, 5, 9)

    def test_comma_list(self):
        assert parse_values_spec("1,3,9") == (1, 3, 9)
        assert parse_values_spec(" 4 ") == (4,)

    def test_empty_and_backwards_ranges_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_values_spec("5:1")
        with pytest.raises(ConfigError, match="empty"):
            parse_values_spec("")
        with pytest.raises(ConfigError, match="step"):
            parse_values_spec("2:10:0")
        with pytest.raises(ConfigError, match="start:end"):
            parse_values_spec("1:2:3:4")

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigError):
            parse_values_spec("1,two,3")
        with pytest.raises(ConfigError):
            parse_values_spec("1.5:4")


class TestArtifacts:
    def test_single_writes_three_files(self, tmp_path):
        out = run_single(tmp_path, "run")
        assert (out / "results.csv").is_file()
        assert (out / "summary.txt").is_file()
        assert (out / "manifest.txt").is_file()
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == ExperimentResult.CSV_HEADER
        # default: one axis value, one target, three policies
        assert len(lines) == 1 + 3

    def test_csv_uses_lf_only(self, tmp_path):
        out = run_single(tmp_path, "run")
        assert b"\r" not in (out / "results.csv").read_bytes()

    def test_summary_mentions_each_policy(self, tmp_path):
        out = run_single(tmp_path, "run")
        summary = (out / "summary.txt").read_text()
        for policy in ("heuristic", "heuristic-equal", "benchmark"):
            assert policy in summary

    def test_targets_all_expands(self, tmp_path):
        out = run_single(tmp_path, "run", extra=["--targets", "all"])
        lines = (out / "results.csv").read_text().splitlines()[1:]
        targets = {line.split(",")[1] for line in lines}
        assert targets == {"config-1", "config-2", "config-3"}


class TestManifestRoundTrip:
    def test_manifest_parses_as_config(self, tmp_path):
        out = run_single(tmp_path, "run")
        entries = parse_config_text((out / "manifest.txt").read_text())
        assert entries["command"] == "single"
        assert entries["trials"] == "300"
        assert entries["noise_var"] == "1e-12"
        assert entries["seed"] == "3"
        assert entries["out"] == str(out)

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        first = run_single(tmp_path, "first")
        second = tmp_path / "second"
        code = main(
            [
                "single",
                "--config",
                str(first / "manifest.txt"),
                "--out",
                str(second),
            ]
        )
        assert code == 0
        assert (second / "results.csv").read_bytes() == (
            first / "results.csv"
        ).read_bytes()

    def test_flags_override_file_which_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "base.cfg"
        cfg.write_text("trials = 50\nk = 3\nnoise_var = 1e-12\n")
        out = tmp_path / "run"
        code = main(
            ["single", "--config", str(cfg), "--out", str(out), "--trials", "75"]
        )
        assert code == 0
        entries = parse_config_text((out / "manifest.txt").read_text())
        assert entries["trials"] == "75"  # flag wins
        assert entries["k"] == "3"  # file wins over default 5
        assert entries["n"] == "20"  # untouched default


class TestParameterTable:
    def build(self, tmp_path, command, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return _build_manifest(_build_parser().parse_args([command, "--config", str(path)]))

    def test_every_config_field_is_a_table_key(self):
        assert {f.name for f in dataclasses.fields(ExperimentConfig)} <= set(_PARAMS)

    def test_every_parameter_round_trips_through_the_manifest(self, tmp_path):
        manifest = RunManifest(
            command="sweep",
            config=ExperimentConfig(
                n=7, k=3, r_cov=12.5, h=40.0, p_watts=0.5, noise_var=1e-12, zeta=0.8,
                g0=0.03, data_mean=0.25, data_var=2.0, target="config-3",
                policies=("zero", "grid-oracle"), resolution=32, span=7.5, trials=40, seed=9,
                redeploy_per_trial=False, estimator="plain",
            ),
            targets=("config-2", "config-3"),
            out=str(tmp_path / "elsewhere"),
            axis="n",
            values=(3, 5),
        )
        text = render_manifest(manifest)
        default = parse_config_text(render_manifest(self.build(tmp_path, "sweep", "values = 1\nout = x\n")))
        entries = parse_config_text(text)
        assert list(entries) == ["version", "command", *_PARAMS]
        assert [key for key in _PARAMS if entries[key] == default[key]] == []  # nothing left at its default
        assert self.build(tmp_path, "sweep", text) == manifest

    def test_redeploy_flag_takes_the_config_spellings(self, tmp_path):
        for spelling, rendered in (("no", "false"), ("YES", "true"), ("0", "false")):
            out = run_single(tmp_path, spelling, extra=["--redeploy", spelling])
            assert parse_config_text((out / "manifest.txt").read_text())["redeploy_per_trial"] == rendered


class TestEstimatorParameter:
    def test_round_trips_through_flag_manifest_and_config_file(self, tmp_path):
        out = run_single(tmp_path, "run", extra=["--estimator", "plain"])
        assert parse_config_text((out / "manifest.txt").read_text())["estimator"] == "plain"
        rerun = tmp_path / "rerun"
        assert main(["single", "--config", str(out / "manifest.txt"), "--out", str(rerun)]) == 0
        assert (rerun / "results.csv").read_bytes() == (out / "results.csv").read_bytes()
        cfg = ExperimentConfig(trials=300, noise_var=1e-12, seed=3, estimator="plain")
        row = (out / "results.csv").read_text().splitlines()[1].split(",")
        assert float(row[3]) == estimate_mse(cfg, row[2]).mse
        default = run_single(tmp_path, "default")
        assert parse_config_text((default / "manifest.txt").read_text())["estimator"] == "conditional"
        assert (default / "results.csv").read_bytes() != (out / "results.csv").read_bytes()

    def test_unknown_estimator_is_config_error(self, tmp_path, capsys):
        assert main(["single", "--estimator", "bootstrap", "--out", str(tmp_path / "x")]) == 2
        assert "unknown estimator 'bootstrap'" in capsys.readouterr().err
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("estimator = Plain\n")
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()


class TestUnitConversions:
    def test_power_dbm(self, tmp_path):
        out = run_single(tmp_path, "run", extra=["--p-dbm", "30"])
        entries = parse_config_text((out / "manifest.txt").read_text())
        assert float(entries["p_watts"]) == pytest.approx(1.0, rel=1e-12)

    def test_noise_dbm(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "single",
                "--out",
                str(out),
                "--trials",
                "100",
                "--noise-dbm",
                "-90",
            ]
        )
        assert code == 0
        entries = parse_config_text((out / "manifest.txt").read_text())
        assert float(entries["noise_var"]) == pytest.approx(1e-12, rel=1e-12)

    @pytest.mark.parametrize("flag", ["--p-dbm", "--noise-dbm"])
    def test_overflowing_dbm_is_config_error(self, tmp_path, capsys, flag):
        assert main(["single", "--out", str(tmp_path / "x"), flag, "1e6"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {flag}: ")

    def test_conflicting_power_flags(self, tmp_path):
        code = main(
            [
                "single",
                "--out",
                str(tmp_path / "x"),
                "--p-watts",
                "1",
                "--p-dbm",
                "30",
            ]
        )
        assert code == 2

    def test_conflicting_noise_flags(self, tmp_path):
        code = main(
            [
                "single",
                "--out",
                str(tmp_path / "x"),
                "--noise-var",
                "1e-10",
                "--noise-dbm",
                "-70",
            ]
        )
        assert code == 2


class TestSweepCommand:
    def test_axis_rows(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "sweep",
                "--axis",
                "k",
                "--values",
                "2:4",
                "--policies",
                "benchmark",
                "--trials",
                "100",
                "--noise-var",
                "1e-12",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == ["2", "3", "4"]

    def test_missing_values_is_config_error(self, tmp_path):
        code = main(["sweep", "--axis", "k", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_backwards_range_is_config_error(self, tmp_path):
        code = main(
            ["sweep", "--axis", "k", "--values", "5:1", "--out", str(tmp_path / "x")]
        )
        assert code == 2


    def test_every_cell_failing_exits_3_with_reasons(self, tmp_path, capsys):
        # Zero-variance zero-mean data has a zero dB reference, so every
        # cell fails: NaN rows are still written, each reason is reported
        # on stderr and in the summary, and the run exits 3.
        out = tmp_path / "run"
        code = main(
            [
                "sweep", "--axis", "k", "--values", "2:3", "--policies", "benchmark,zero",
                "--data-var", "0", "--data-mean", "0", "--trials", "50", "--out", str(out),
            ]
        )
        assert code == 3
        rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
        assert len(rows) == 4 and all(row[3] == "nan" and row[6] == "0" for row in rows)
        reason = "ValueError: reference must be positive, got 0.0"
        stderr = capsys.readouterr().err
        assert stderr.count(reason) == 2
        assert "cell k = 2, target = config-1 failed" in stderr
        assert (out / "summary.txt").read_text().count(f"failed: {reason}") == 2

    def test_policy_failure_is_reported_once_per_cell_with_its_policy(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "sweep", "--axis", "k", "--values", "4,5", "--policies", "benchmark,heuristic",
                "--noise-var", "1e-2", "--trials", "3", "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0  # benchmark rows succeeded
        rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
        assert [(row[0], row[2]) for row in rows] == [
            ("4", "benchmark"), ("4", "heuristic"), ("5", "benchmark"), ("5", "heuristic")
        ]
        line = "failed (heuristic): EstimationError: every trial was rejected"
        assert capsys.readouterr().err.count(line) == 2
        assert (out / "summary.txt").read_text().count(line) == 2

    def test_a_quadrature_failure_stops_only_the_policy_that_reads_it(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "sweep", "--axis", "k", "--values", "4:5", "--altitude", "0.001",
                "--policies", "heuristic,benchmark,optimal-equal", "--noise-var", "1e-12",
                "--trials", "200", "--out", str(out),
            ]
        )
        assert code == 0  # the pilot rules and the benchmark never read the disk quadrature
        err = capsys.readouterr().err
        assert err.count("failed (optimal-equal): QuadratureConvergenceError") == 2
        assert err.count("failed") == 2
        rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
        assert [(row[0], row[2]) for row in rows] == [
            (k, p) for k in ("4", "5") for p in ("heuristic", "benchmark", "optimal-equal")
        ]
        for row in rows:
            if row[2] == "optimal-equal":
                assert math.isnan(float(row[3])) and row[6] == "0"
            else:
                assert math.isfinite(float(row[5])) and row[6] == "200"


class TestOracleCommand:
    def test_writes_grid_csv(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "oracle",
                "--trials",
                "200",
                "--noise-var",
                "1e-12",
                "--resolution",
                "16",
                "--span",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "beta,mse"
        assert len(lines) >= 17  # grid plus the inserted center
        for line in lines[1:]:
            beta_s, mse_s = line.split(",")
            assert float(beta_s) > 0.0
            assert math.isfinite(float(mse_s))
        assert "best" in (out / "summary.txt").read_text()

    def test_low_resolution_is_config_error(self, tmp_path):
        code = main(
            ["oracle", "--resolution", "8", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_non_finite_span_is_config_error(self, tmp_path, capsys):
        assert main(["oracle", "--span", "inf", "--out", str(tmp_path / "x")]) == 2
        assert "span must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value", [("--targets", "config-3"), ("--policies", "zero")])
    def test_sweep_only_flags_are_usage_errors(self, tmp_path, flag, value):
        assert main(["oracle", flag, value, "--trials", "50", "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_manifest_targets_is_the_searched_target(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target = config-3\ntargets = config-1,config-2\n")
        out = tmp_path / "run"
        code = main(
            [
                "oracle", "--config", str(cfg), "--trials", "200", "--noise-var", "1e-12",
                "--resolution", "16", "--span", "10", "--out", str(out),
            ]
        )
        assert code == 0
        assert parse_config_text((out / "manifest.txt").read_text())["targets"] == "config-3"
        assert "target = config-3" in (out / "summary.txt").read_text()

    def test_manifest_policies_is_the_grid_search(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("policies = zero,benchmark\n")
        argv = ["--trials", "200", "--noise-var", "1e-12", "--resolution", "16"]
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["oracle", "--config", str(cfg), *argv, "--out", str(first)]) == 0
        assert parse_config_text((first / "manifest.txt").read_text())["policies"] == "grid-oracle"
        assert main(["oracle", "--config", str(first / "manifest.txt"), "--out", str(again)]) == 0
        for name in ("results.csv", "summary.txt"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    def test_degenerate_data_is_runtime_error(self, tmp_path):
        # Zero-variance zero-mean data gives no usable search center;
        # the failure surfaces as a runtime error, not a crash.
        code = main(
            [
                "oracle",
                "--data-var",
                "0",
                "--data-mean",
                "0",
                "--trials",
                "50",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 3


class TestExitCodes:
    def test_missing_out_is_config_error(self, tmp_path):
        assert main(["single", "--trials", "10"]) == 2

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_factor = 9\n")
        assert main(["single", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_duplicate_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 5\nn = 6\n")
        assert main(["single", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_non_finite_parameter_is_config_error(self, tmp_path, capsys):
        assert main(["single", "--out", str(tmp_path / "x"), "--noise-var", "nan"]) == 2
        assert "noise_var must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag", [("--r-cov", "1e308"), ("--r-cov", "1e200"), ("--altitude", "1e200")])
    def test_an_overflowing_length_is_config_error(self, tmp_path, capsys, flag):
        assert main(["single", "--out", str(tmp_path / "x"), *flag]) == 2
        assert capsys.readouterr().err.startswith("config error: (2 * r_cov)**2 + h**2 must be finite")
        assert not (tmp_path / "x").exists()

    def test_bad_bool_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("redeploy_per_trial = maybe\n")
        assert main(["single", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert (
            main(
                [
                    "single",
                    "--config",
                    str(tmp_path / "absent.cfg"),
                    "--out",
                    str(tmp_path / "x"),
                ]
            )
            == 2
        )

    def test_version_flag_exits_cleanly(self):
        assert main(["--version"]) == 0

    @pytest.mark.parametrize(
        "flags", [["--targets", "config-1,config-1"], ["--policies", "benchmark,zero,benchmark"]]
    )
    def test_repeated_name_is_config_error(self, tmp_path, capsys, flags):
        assert main(["sweep", "--values", "2", *flags, "--out", str(tmp_path / "x")]) == 2
        assert "is repeated" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestGridFromConfig:
    """A config file's grid reaches the grid-oracle rows of every run command."""

    GRID = "resolution = 16\nspan = 1.001\ntarget = config-3\npolicies = optimal-equal,grid-oracle\n"

    def run(self, tmp_path, name, argv, grid=GRID):
        cfg = tmp_path / f"{name}.cfg"
        # the plain estimator: its sampled objective moves with the grid, while the
        # exact conditional one has its minimum at this cell's closed-form centre
        cfg.write_text(grid + "trials = 2000\nnoise_var = 1e-10\nestimator = plain\n")
        out = tmp_path / name
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        return out

    @staticmethod
    def grid_oracle_mse(out, k):
        rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
        return {int(row[0]): float(row[3]) for row in rows if row[2] == "grid-oracle"}[k]

    @pytest.mark.parametrize("argv", [["sweep", "--values", "2:4"], ["single", "--k", "3"]])
    def test_grid_oracle_rows_use_the_config_grid(self, tmp_path, argv):
        out = self.run(tmp_path, "run", argv)
        cfg = ExperimentConfig(
            k=3, target="config-3", resolution=16, span=1.001, trials=2000, noise_var=1e-10,
            estimator="plain",
        )
        assert self.grid_oracle_mse(out, 3) == estimate_mse(cfg, "grid-oracle").mse
        default = self.run(tmp_path, "default", argv, grid="target = config-3\npolicies = grid-oracle\n")
        assert self.grid_oracle_mse(default, 3) != self.grid_oracle_mse(out, 3)

        rerun = tmp_path / "rerun"
        assert main([argv[0], "--config", str(out / "manifest.txt"), "--out", str(rerun)]) == 0
        for name in ("results.csv", "summary.txt"):
            assert (rerun / name).read_bytes() == (out / name).read_bytes()


class TestValidateCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["validate"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.startswith("PASS ") for line in lines)
        names = {line.split()[1] for line in lines}
        assert names == {
            "deployment-inside-disk",
            "distances-within-bound",
            "quadrature-matches-closed-form",
            "model-matches-second-moment-at-zero",
            "conditional-matches-exact",
            "monte-carlo-deterministic",
        }


class TestAcceptanceDigests:
    """The acceptance sweep's ``results.csv``, pinned bit for bit under each estimator.

    A change that moves these bits on purpose updates the digest in the
    same commit and records the old and new digests in CHANGES.md.
    """

    SWEEP = [
        "sweep", "--axis", "k", "--values", "1:10", "--targets", "config-1,config-3",
        "--policies", "heuristic,heuristic-equal,optimal-equal,benchmark,grid-oracle",
        "--noise-var", "1e-12", "--trials", "5000", "--seed", "7",
    ]

    @pytest.mark.parametrize(
        "extra, digest",
        [
            ([], "5aa69bfb291cb0ee395202e6368cf3f882b0ba1160052b2bb7e997dcd2944c64"),
            (["--estimator", "plain"], "d3c0173e55abd93f90e1d6933c6b51eb797f08cad8e37e4adcf2a957ba068414"),
        ],
        ids=["default", "plain"],
    )
    def test_results_csv_digest(self, tmp_path, extra, digest):
        assert main([*self.SWEEP, *extra, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == digest
