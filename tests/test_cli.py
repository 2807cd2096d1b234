"""Tests for the command-line front end.

Covers the flat config grammar, flag/file/default precedence, manifest
round-tripping (a manifest is itself a valid config file and reproduces
its run byte for byte), artifact layout, and the exit-code contract:
0 success, 2 configuration error, 3 runtime failure.
"""

import math

import pytest

from aircomp.cli import (
    ConfigError,
    main,
    parse_config_text,
    parse_values_spec,
)
from aircomp.evaluation import ExperimentResult


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
        with pytest.raises(ConfigError):
            parse_values_spec("2:10:0")

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


class TestValidateCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["validate"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.startswith("PASS ") for line in lines)
        names = {line.split()[1] for line in lines}
        assert names == {
            "deployment-inside-disk",
            "distances-within-bound",
            "quadrature-matches-closed-form",
            "model-matches-second-moment-at-zero",
            "monte-carlo-deterministic",
        }
