"""Command-line interface: parsing, formats, exit codes, figure data."""

from __future__ import annotations

import csv
import functools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cavitytherm import cli, dynamics, hilbert, validation
from cavitytherm.analytic import Timescales

REPO_ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIG = REPO_ROOT / "configs" / "fig_rho01.cfg"

RUN_FIELDS = [
    "t", "pe", "temperature", "inverted", "collapse_completed",
    "within_half_revival", "pulse_residual_ok", "pulse_residual",
    "pre_x", "pre_y", "pre_z", "post_x", "post_y", "post_z",
]

UNITS_LINE = "# units: temperatures in delta_e/k_B, times in 1/g"

# Every setting flag in --help order: its type, a config-file value and a
# different, valid flag value.
SETTING_VALUES = [
    ("out", str, "from_file.csv", "from_flag.csv"),
    ("format", str, "csv", "json"),
    ("n_bar", float, "25", "46"),
    ("g", float, "1.5", "0.5"),
    ("delta_e", float, "2", "3"),
    ("phi", float, "0.1", "0.4"),
    ("time", float, "7", "9"),
    ("pe0", float, "0.2", "0.3"),
    ("cutoff", int, "200", "300"),
    ("grid_points", int, "5", "7"),
    ("initial_level", str, "g", "both"),
    ("pulse_mode", str, "explicit_unitary", "diagonalize"),
]


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    lines = text.splitlines()
    assert lines[0] == UNITS_LINE
    reader = csv.DictReader(lines[1:])
    rows = list(reader)
    return list(reader.fieldnames), rows


@pytest.fixture(scope="module")
def validate_run(tmp_path_factory, src_env):
    out_path = tmp_path_factory.mktemp("validate") / "report.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cavitytherm", "validate", "--out", str(out_path)],
        capture_output=True, text=True, timeout=120, env=src_env,
    )
    _, rows = parse_csv(out_path.read_text(encoding="utf-8"))
    return proc, rows


class TestConfigFile:
    def test_shipped_config_is_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--config", str(SHIPPED_CONFIG), "--time", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "base.cfg"
        cfg.write_text("n_bar = 25  # overridden below\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "fig-tmin", "--config", str(cfg), "--n-bar", "46")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["n_bar"]) == 46.0

    @pytest.mark.parametrize("key, kind, in_file, on_flag", SETTING_VALUES)
    def test_every_flag_overrides_its_config_key(self, tmp_path, key, kind, in_file, on_flag):
        cfg = tmp_path / "base.cfg"
        cfg.write_text(f"{key} = {in_file}\n", encoding="utf-8")
        argv = ["run", "--config", str(cfg)]
        from_file = cli._build_spec(cli._build_parser().parse_args(argv))
        assert type(getattr(from_file, key)) is kind
        assert getattr(from_file, key) == kind(in_file)
        flag = "--" + key.replace("_", "-")
        spec = cli._build_spec(cli._build_parser().parse_args(argv + [flag, on_flag]))
        assert type(getattr(spec, key)) is kind
        assert getattr(spec, key) == kind(on_flag) != kind(in_file)

    def test_settings_table_has_twelve_flags_and_one_config_only_key(self):
        flagged = [key for key, (_, flag) in cli._SETTINGS.items() if flag is not None]
        assert flagged == [key for key, _, _, _ in SETTING_VALUES]
        assert set(cli._SETTINGS) - set(flagged) == {"initial_beta"}

    def test_initial_beta_is_config_only(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--initial-beta", "2"])
        assert exc.value.code == 2
        cfg = tmp_path / "beta.cfg"
        cfg.write_text("initial_beta = 2\n", encoding="utf-8")
        spec = cli._build_spec(cli._build_parser().parse_args(["run", "--config", str(cfg)]))
        assert type(spec.initial_beta) is float and spec.initial_beta == 2.0

    def test_config_can_set_format(self, capsys, tmp_path):
        cfg = tmp_path / "json.cfg"
        cfg.write_text("format = json\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--time", "0")
        assert code == 0
        assert json.loads(out)["rows"]

    @pytest.mark.parametrize("content", [
        "unknown_key = 3\n",
        "n_bar three\n",
        "n_bar = not_a_number\n",
    ])
    def test_bad_config_contents(self, capsys, tmp_path, content):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(content, encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "error:" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--config", str(tmp_path / "absent.cfg"))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("content", [
        "n_bar = nan\n", "g = inf\n", "delta_e = -inf\n", "phi = nan\n",
        "time = inf\n", "pe0 = nan\n", "initial_beta = nan\n",
    ])
    def test_non_finite_values_are_config_errors(self, capsys, tmp_path, content):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(content, encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("beta, pe", [("inf", 0.0), ("-inf", 1.0)])
    def test_infinite_initial_beta_is_a_pure_level(self, capsys, tmp_path, beta, pe):
        cfg = tmp_path / "beta.cfg"
        cfg.write_text(f"initial_beta = {beta}\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--time", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["pre_z"]) == 2.0 * pe - 1.0

    def test_bad_pulse_mode_is_a_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "mode.cfg"
        cfg.write_text("pulse_mode = bogus\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == ("error: pulse_mode must be one of ('explicit_unitary', "
                       "'diagonalize'), got 'bogus'\n")

    @pytest.mark.parametrize("key", ["format", "initial_level", "pulse_mode"])
    def test_bad_choice_in_config_is_a_config_error(self, capsys, tmp_path, key):
        cfg = tmp_path / "choice.cfg"
        cfg.write_text(f"{key} = bogus\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        choices = cli._SETTINGS[key][1]["choices"]
        assert code == 2
        assert out == ""
        assert err == f"error: {key} must be one of {choices}, got 'bogus'\n"

    def test_conflicting_initial_state(self, capsys, tmp_path):
        cfg = tmp_path / "beta.cfg"
        cfg.write_text("initial_beta = 1.0\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "run", "--config", str(cfg), "--pe0", "0.3")
        assert code == 2
        assert "at most one" in err


class TestRunCommand:
    def test_zero_time_echoes_initial_temperature(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--time", "0")
        assert code == 0
        fieldnames, rows = parse_csv(out)
        assert fieldnames == RUN_FIELDS
        assert len(rows) == 1
        assert float(rows[0]["temperature"]) == pytest.approx(1.0, abs=1e-12)
        assert rows[0]["inverted"] == "false"

    def test_overflowing_time_is_a_numeric_failure_naming_it(self, capsys):
        code, out, err = run_cli(capsys, "run", "--time", "1e308")
        assert code == 3
        assert out == ""
        assert err.strip() == ("numeric failure: interaction_time overflows the Rabi "
                               "angle g sqrt(n_top + 1) t, got 1e+308")

    def test_overflowing_carrier_phase_is_a_numeric_failure_naming_it(self, capsys):
        message = "interaction_time overflows the carrier phase omega t, got "
        code, out, err = run_cli(capsys, "run", "--delta-e", "1e308", "--time", "2")
        assert (code, out) == (3, "")
        assert err.splitlines() == ["numeric failure: " + message + "2.0"]
        code, out, err = run_cli(capsys, "fig-rho01", "--delta-e", "1e308")
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: " + message)
        code, out, _ = run_cli(capsys, "sweep", "--delta-e", "1e308", "--grid-points", "3")
        assert code == 0
        grid = np.linspace(0.0, Timescales(36.0).half_revival, 3)
        assert [row["error"] for row in parse_csv(out)[1]] == [
            "", message + repr(float(grid[1])), message + repr(float(grid[2]))]

    def test_output_is_byte_stable(self, capsys):
        args = ("run", "--time", "9")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--time", "9", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["units"] == {"temperature": "delta_e/k_B", "time": "1/g"}
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        assert isinstance(row["pe"], float)
        assert 0.0 <= row["pe"] <= 0.5 + 1e-12

    def test_infinite_temperature_token_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--time", "0", "--pe0", "0.5",
            "--pulse-mode", "diagonalize")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["temperature"] == "inf"

    def test_infinite_temperature_token_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--time", "0", "--pe0", "0.5",
            "--pulse-mode", "diagonalize", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0]["temperature"] == "inf"

    def test_every_csv_cell_is_finite_or_inf_token(self, capsys):
        _, out, _ = run_cli(capsys, "run", "--time", "4")
        _, rows = parse_csv(out)
        for key, cell in rows[0].items():
            assert cell != ""
            assert cell.lower() != "nan"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        code, out, _ = run_cli(capsys, "run", "--time", "0", "--out", str(target))
        assert code == 0
        assert out == ""
        _, rows = parse_csv(target.read_text(encoding="utf-8"))
        assert len(rows) == 1

    def test_unwritable_out_is_config_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "run.csv"
        code, out, err = run_cli(capsys, "run", "--time", "9", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}")
        assert len(err.splitlines()) == 1

    def test_nonpositive_coupling_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--g", "-1")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("flag, value", [
        ("--phi", "nan"), ("--time", "inf"), ("--n-bar", "inf"),
        ("--g", "nan"), ("--delta-e", "inf"), ("--pe0", "nan"),
    ])
    def test_non_finite_flag_is_config_error(self, capsys, flag, value):
        code, _, err = run_cli(capsys, "run", flag, value)
        assert code == 2
        assert "must be finite" in err

    def test_insufficient_cutoff_is_numeric_failure(self, capsys):
        code, _, err = run_cli(capsys, "run", "--time", "1", "--cutoff", "5")
        assert code == 3
        assert "numeric failure" in err
        assert "need n_max >= 86" in err

    def test_out_of_memory_is_a_numeric_failure_naming_n_bar(self, capsys, monkeypatch):
        # A field too bright for memory fails where numpy first allocates
        # for it; the mass sum stands in for that allocation here.
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array with shape "
                              "(1000000040,) and data type float64")

        monkeypatch.setattr(hilbert, "coherent_mass", no_memory)
        code, out, err = run_cli(capsys, "run", "--n-bar", "1e4")
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "numeric failure: out of memory at n_bar=10000.0: Unable to allocate "
            "7.45 GiB for an array with shape (1000000040,) and data type float64"]

    def test_out_of_memory_before_the_settings_are_built(self, capsys, monkeypatch):
        def no_memory(path):
            raise MemoryError("no room for the config file")

        monkeypatch.setattr(cli, "parse_config_file", no_memory)
        code, out, err = run_cli(capsys, "run", "--config", "any.cfg")
        assert (code, out) == (3, "")
        assert err.splitlines() == ["numeric failure: out of memory: no room for the config file"]


class TestFigRho01:
    def test_row_count_matches_grid(self, capsys):
        code, out, _ = run_cli(capsys, "fig-rho01", "--grid-points", "40")
        assert code == 0
        fieldnames, rows = parse_csv(out)
        assert fieldnames == ["t", "re_num", "im_num", "re_analytic", "im_analytic"]
        assert len(rows) == 40

    def test_both_levels_output(self, capsys):
        code, out, _ = run_cli(capsys, "fig-rho01", "--initial-level", "both")
        assert code == 0
        fieldnames, rows = parse_csv(out)
        assert fieldnames == [
            "t", "re_num_e", "im_num_e", "re_num_g", "im_num_g",
            "re_analytic", "im_analytic",
        ]
        assert len(rows) == 400

        scales = Timescales(36.0)
        t = np.array([float(r["t"]) for r in rows])
        diff = np.maximum(
            np.abs(np.array([float(r["re_num_e"]) for r in rows])
                   - np.array([float(r["re_num_g"]) for r in rows])),
            np.abs(np.array([float(r["im_num_e"]) for r in rows])
                   - np.array([float(r["im_num_g"]) for r in rows])),
        )
        early = t < scales.collapse_complete
        # The two initial levels disagree strongly during the collapse and
        # become indistinguishable afterwards.
        assert diff[early].max() > 0.5
        assert diff[~early].max() <= 0.02

        # Inside the working window the closed form tracks the numerics.
        window = (t >= scales.collapse_complete) & (
            t <= scales.half_revival - scales.collapse_complete)
        for comp in ("re", "im"):
            num = np.array([float(r[f"{comp}_num_e"]) for r in rows])
            ana = np.array([float(r[f"{comp}_analytic"]) for r in rows])
            assert np.abs(num - ana)[window].max() <= 0.02

    def test_field_is_built_once_for_both_levels(self, capsys, monkeypatch):
        calls = []
        original = dynamics.poisson_weight
        monkeypatch.setattr(dynamics, "poisson_weight",
                            lambda n, n_bar: calls.append(n_bar) or original(n, n_bar))
        code, _, _ = run_cli(capsys, "fig-rho01", "--initial-level", "both")
        assert code == 0
        assert len(calls) == 1

    def test_grid_spans_expected_range(self, capsys):
        code, out, _ = run_cli(capsys, "fig-rho01", "--grid-points", "10")
        assert code == 0
        _, rows = parse_csv(out)
        t = [float(r["t"]) for r in rows]
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(0.6 * Timescales(36.0).tau_revival)


class TestFigTmin:
    def test_default_grid(self, capsys):
        code, out, _ = run_cli(capsys, "fig-tmin")
        assert code == 0
        fieldnames, rows = parse_csv(out)
        assert fieldnames == ["n_bar", "t_min"]
        assert len(rows) == 20
        n_bar = [float(r["n_bar"]) for r in rows]
        temps = [float(r["t_min"]) for r in rows]
        assert n_bar[0] == pytest.approx(10.0)
        assert n_bar[-1] == pytest.approx(1000.0)
        assert all(b < a for a, b in zip(temps, temps[1:]))

    @pytest.mark.parametrize("points", [None, 1, 2, 7, 50, 200])
    def test_grid_is_numpys_logspace_to_an_ulp(self, points):
        # numpy's power is not libm's pow: on some sizes a point moves by
        # one ulp, never on the default 20 points.
        grid = cli._n_bar_grid(cli.RunSpec(command="fig-tmin", grid_points=points))
        reference = np.logspace(1.0, 3.0, 20 if points is None else points)
        assert all(type(n) is float for n in grid)
        assert (grid[0], grid[-1], len(grid)) == (reference[0], reference[-1], len(reference))
        np.testing.assert_array_max_ulp(np.array(grid), reference, maxulp=1)
        if points is None:
            assert grid == reference.tolist()

    def test_single_point_grid(self, capsys):
        code, out, _ = run_cli(capsys, "fig-tmin", "--n-bar", "46")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["t_min"]) == pytest.approx(0.2001, abs=1e-3)

    @pytest.mark.parametrize("n_bar", ["1e-3", "0.5"])
    def test_dim_field_is_a_numeric_failure(self, capsys, n_bar):
        code, out, err = run_cli(capsys, "fig-tmin", "--n-bar", n_bar)
        assert code == 3
        assert out == ""
        assert err.startswith(f"numeric failure: t_min undefined for n_bar={float(n_bar)}")


class TestFigTmax:
    def test_both_variants_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "fig-tmax", "--grid-points", "8")
        assert code == 0
        fieldnames, rows = parse_csv(out)
        assert fieldnames == ["n_bar", "t_max_numeric", "t_max_closed_form"]
        assert len(rows) == 8
        for column in ("t_max_numeric", "t_max_closed_form"):
            temps = [float(r[column]) for r in rows]
            assert all(b > a for a, b in zip(temps, temps[1:]))

    def test_log_ratio_rounding_to_zero_reads_infinite_temperature(self, capsys):
        # Was "float division by zero" (exit 3).
        code, out, err = run_cli(capsys, "fig-tmax", "--n-bar", "1e300")
        assert (code, err) == (0, "")
        assert out.splitlines()[2] == "1.0000000000000001e+300,inf,inf"

    def test_hundred_point_grid(self, capsys):
        # Was exit 3: "lambert_w0 did not converge for x=33990.13743634579".
        code, out, err = run_cli(capsys, "fig-tmax", "--grid-points", "100")
        assert (code, err) == (0, "")
        assert len(parse_csv(out)[1]) == 100

    @pytest.mark.parametrize("n_bar", ["1e306", "1e308"])
    def test_overflowing_collapse_argument_names_the_closed_form(self, capsys, n_bar):
        # Was "lambert_w0 did not converge for x=inf" and an unnamed
        # OverflowError: 400 n_bar overflows, and so did (t / tau_c)^2.
        code, out, err = run_cli(capsys, "fig-tmax", "--n-bar", n_bar)
        assert (code, out) == (3, "")
        assert err == (f"numeric failure: closed-form t_max undefined for "
                       f"n_bar={float(n_bar)}\n")


class TestSweep:
    def test_grid_and_fields(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--grid-points", "25")
        assert code == 0
        fieldnames, rows = parse_csv(out)
        assert fieldnames == RUN_FIELDS + ["error"]
        assert len(rows) == 25
        t = [float(r["t"]) for r in rows]
        assert all(b > a for a, b in zip(t, t[1:]))
        assert all(r["error"] == "" for r in rows)

    def test_json_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--grid-points", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 5

    @pytest.mark.parametrize("pulse_mode", ["explicit_unitary", "diagonalize"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_rows_are_the_bytes_of_run(self, capsys, pulse_mode, fmt):
        flags = ["--phi", "3.8116", "--pulse-mode", pulse_mode, "--format", fmt]
        code, out, _ = run_cli(capsys, "sweep", "--grid-points", "7", *flags)
        assert code == 0
        grid = np.linspace(0.0, Timescales(36.0).half_revival, 7)
        if fmt == "csv":
            sweep_lines = out.splitlines()
            assert sweep_lines[1] == ",".join(RUN_FIELDS + ["error"])
        else:
            sweep_rows = json.loads(out)["rows"]
        for i, t in enumerate(grid):
            code, run_out, _ = run_cli(capsys, "run", "--time", repr(float(t)), *flags)
            assert code == 0
            if fmt == "csv":
                assert sweep_lines[2 + i] == run_out.splitlines()[2] + ","
            else:
                (run_row,) = json.loads(run_out)["rows"]
                assert sweep_rows[i] == {**run_row, "error": ""}
                assert json.dumps(sweep_rows[i]) == json.dumps({**run_row, "error": ""})


class TestValidate:
    @pytest.fixture
    def fast_battery(self, monkeypatch):
        # The fast battery keeps the in-process tests quick; the full
        # battery's CSV report is covered by the validate_run fixture.
        # `validate` imports the battery when it runs, so the module's
        # binding is the one to patch.
        monkeypatch.setattr(validation, "run_all_checks",
                            functools.partial(validation.run_all_checks, include_slow=False))

    def test_exit_code_tracks_check_outcomes(self, validate_run):
        proc, rows = validate_run
        all_passed = all(r["passed"] == "true" for r in rows)
        assert proc.returncode == (0 if all_passed else 1)

    def test_reports_at_least_fifteen_distinct_checks(self, validate_run):
        _, rows = validate_run
        names = {r["name"] for r in rows}
        assert len(names) >= 15
        assert len(names) == len(rows)

    def test_human_readable_report(self, validate_run):
        proc, rows = validate_run
        assert "PASS" in proc.stdout
        summary = proc.stdout.strip().splitlines()[-1]
        assert f"{len(rows)} checks" in summary

    def test_failures_name_the_check_and_measurement(self, validate_run):
        proc, rows = validate_run
        for row in rows:
            if row["passed"] != "true":
                assert row["name"] in proc.stdout
                assert row["detail"] != ""

    @pytest.mark.parametrize("value, cell, json_value", [
        (np.float64(0.1), "0.10000000000000001", 0.1),
        (np.float64(np.inf), "inf", "inf"),
        (math.inf, "inf", "inf"),
        (-math.inf, "-inf", "-inf"),
    ])
    def test_numpy_scalar_cells(self, value, cell, json_value):
        assert cli._render_csv(["v"], [{"v": value}]).splitlines()[2] == cell
        (row,) = json.loads(cli._render_json(["v"], [{"v": value}]))["rows"]
        assert row["v"] == json_value and type(row["v"]) is type(json_value)

    @pytest.mark.parametrize("value", [math.nan, np.float64(np.nan)])
    def test_nan_cells_are_refused(self, value):
        for render in (cli._render_csv, cli._render_json):
            with pytest.raises(ValueError, match="refusing to emit NaN"):
                render(["v"], [{"v": value}])

    def test_json_report_has_boolean_verdicts(self, capsys, tmp_path, fast_battery):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "validate", "--format", "json",
                             "--out", str(out_path))
        rows = json.loads(out_path.read_text(encoding="utf-8"))["rows"]
        assert rows and all(type(r["passed"]) is bool for r in rows)
        assert code == (0 if all(r["passed"] for r in rows) else 1)


    def test_json_report_to_stdout_replaces_text(self, capsys, fast_battery):
        code, out, _ = run_cli(capsys, "validate", "--format", "json")
        rows = json.loads(out)["rows"]
        assert rows and all(type(r["passed"]) is bool for r in rows)
        assert code == (0 if all(r["passed"] for r in rows) else 1)

    def test_unwritable_out_is_config_error(self, capsys, tmp_path, fast_battery):
        target = tmp_path / "missing" / "report.csv"
        code, _, err = run_cli(capsys, "validate", "--out", str(target))
        assert code == 2
        assert err.startswith(f"error: cannot write {target}")
        assert len(err.splitlines()) == 1


def test_cli_import_loads_no_oracle_modules(src_env):
    # No module of the package imports scipy, so a cold CLI start loads
    # none of it; the validation battery itself loads only when `validate`
    # runs.
    code = ("import sys, cavitytherm.cli; "
            "print(sorted(m for m in sys.modules "
            "if m in ('scipy', 'cavitytherm.validation') or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True, env=src_env)
    assert proc.stdout.strip() == "[]"


def test_commands_emit_only_plain_python_cells(capsys, monkeypatch):
    # Every CSV and JSON cell passes through _plain_value; record what the
    # commands hand it.
    seen = set()
    plain_value = cli._plain_value

    def recording(value):
        seen.add(type(value))
        return plain_value(value)

    monkeypatch.setattr(cli, "_plain_value", recording)
    for argv in (["run", "--time", "9"],
                 ["sweep", "--grid-points", "20"],
                 ["sweep", "--grid-points", "20", "--pulse-mode", "diagonalize"],
                 ["fig-rho01", "--grid-points", "20", "--initial-level", "both"],
                 ["fig-tmin"], ["fig-tmax"], ["validate", "--format", "json"]):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
    assert seen and seen <= {float, bool, str, type(None)}


def _cli_child(src_env, argv, block_numpy):
    """``python -m cavitytherm argv`` in a child, numpy unimportable if asked."""
    block = "sys.modules['numpy'] = None; " if block_numpy else ""
    code = (f"import runpy, sys; {block}"
            "runpy.run_module('cavitytherm', run_name='__main__', alter_sys=True)")
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=120, env=src_env)


@pytest.mark.parametrize("argv, exit_code", [
    (["fig-tmin", "--n-bar", "46"], 0),
    (["fig-tmax", "--n-bar", "46"], 0),
    (["fig-tmin"], 0),
    (["fig-tmax"], 0),
    (["fig-tmin", "--grid-points", "7"], 0),
    (["fig-tmax", "--grid-points", "7"], 0),
    (["--version"], 0),
    (["--help"], 0),
    (["run", "--config", "{bad_config}"], 2),
], ids=["fig-tmin", "fig-tmax", "fig-tmin-default-grid", "fig-tmax-default-grid",
        "fig-tmin-7-points", "fig-tmax-7-points", "version", "help", "bad-config"])
def test_closed_form_commands_need_no_numpy(src_env, tmp_path, argv, exit_code):
    bad_config = tmp_path / "bad.cfg"
    bad_config.write_text("n_bar = 36\nbogus = 1\n", encoding="utf-8")
    argv = [a.format(bad_config=bad_config) for a in argv]
    blocked = _cli_child(src_env, argv, block_numpy=True)
    normal = _cli_child(src_env, argv, block_numpy=False)
    assert normal.returncode == exit_code, normal.stderr
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (
        normal.returncode, normal.stdout, normal.stderr)


def test_simulating_commands_import_numpy_when_they_run(src_env):
    normal = _cli_child(src_env, ["run", "--time", "9"], block_numpy=False)
    assert normal.returncode == 0, normal.stderr
    assert len(parse_csv(normal.stdout)[1]) == 1
    blocked = _cli_child(src_env, ["run", "--time", "9"], block_numpy=True)
    assert blocked.returncode == 1
    assert "ModuleNotFoundError: import of numpy halted" in blocked.stderr


class TestArgumentParsing:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["explode"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_bad_format_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--format", "yaml"])
        assert exc.value.code == 2
