"""Configuration validation and command-line contract tests."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ftjsim
from ftjsim import cli, table
from ftjsim import crossbar as xb
from ftjsim import inference as inf
from ftjsim.cli import main
from ftjsim.conduction import K_B_EV, ConductionParams
from ftjsim.config import (MAX_ARRAY_DIM, STREAM_WORKLOAD, CrossbarConfig, SimConfig,
                           config_from_dict, load_config)
from ftjsim.device import MAX_LEVELS, TRACE_CSV_HEADER, DeviceParams, UpdateScheme
from ftjsim.errors import ConfigError
from ftjsim.inference import make_blobs_dataset
from ftjsim.variability import VariabilityParams, derive_seed

from conftest import default_config_text, sweep_to_csv, synthetic_pf_sweep


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def default_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(default_config_text())
    return path


class TestConfig:
    def test_defaults_are_valid(self):
        config = SimConfig()
        assert config.device.conduction.on_off == 7.0
        assert config.crossbar.rows == 64

    def test_shipped_defaults_match_dataclass_defaults(self):
        assert json.loads(default_config_text()) == SimConfig().to_dict()

    def test_load_round_trip(self, default_json):
        config = load_config(default_json)
        assert config == SimConfig()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            config_from_dict({"schema_version": 1, "bogus": 1})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"conduction": {"g_lrs_ref": 1e-8, "typo_key": 2}})
        # A key that another part of the file sets is unknown inside this section.
        for key, value in (("conduction", {}), ("scheme", "width_ramp")):
            with pytest.raises(ConfigError) as exc:
                config_from_dict({"device": {key: value}})
            assert str(exc.value) == f"unknown key(s) ['{key}'] in section 'device'"
        # The stream seed derives from the master seed, no command reads a
        # drift rate, and the write and read voltages are the device's own.
        old_bias = {"v_write_pot": -1.6, "v_write_dep": 2.4, "v_read": 0.2}
        for raw, key, section in (({"variability": {"seed": 1}}, "seed", "variability"),
                                  ({"variability": {"drift_per_decade": 0.0}},
                                   "drift_per_decade", "variability"),
                                  ({"crossbar": {"bias": old_bias}}, "bias", "crossbar"),
                                  ({"crossbar": {"bias": {"kind": "vhalf"}}}, "bias",
                                   "crossbar")):
            with pytest.raises(ConfigError) as exc:
                config_from_dict(raw)
            assert str(exc.value) == f"unknown key(s) ['{key}'] in section '{section}'"

    def test_scheme_is_a_device_parameter(self):
        config = config_from_dict({"scheme": "width_ramp"})
        assert config.device.scheme is UpdateScheme.WIDTH_RAMP
        assert config.to_dict() == {**SimConfig().to_dict(), "scheme": "width_ramp"}

    def test_invariant_violation_rejected(self):
        with pytest.raises(ConfigError, match="conduction"):
            config_from_dict({"conduction": {"on_off": 0.5}})

    def test_size_bounds_load(self):
        # One past either bound is a row of the exit-2 table.
        config = config_from_dict({"device": {"n_levels": MAX_LEVELS},
                                   "crossbar": {"rows": MAX_ARRAY_DIM, "cols": MAX_ARRAY_DIM}})
        assert config.device.n_levels == MAX_LEVELS
        assert (config.crossbar.rows, config.crossbar.cols) == (MAX_ARRAY_DIM, MAX_ARRAY_DIM)

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict({"schema_version": 99})

    def test_every_field_is_a_key_of_the_defaults_file(self):
        # No dataclass field exists outside the file format: a field that no
        # config can set (as a stream seed was) fails here.  Fields named
        # here come from elsewhere in the file: the top-level scheme and
        # conduction section.
        raw = json.loads(default_config_text())
        sections = [
            (SimConfig, set(raw) - {"scheme", "conduction"}),
            (ConductionParams, set(raw["conduction"])),
            (DeviceParams, set(raw["device"]) | {"conduction", "scheme"}),
            (VariabilityParams, set(raw["variability"])),
            (CrossbarConfig, set(raw["crossbar"])),
        ]
        for cls, keys in sections:
            assert {f.name for f in dataclasses.fields(cls)} == keys, cls.__name__


def fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports this ftjsim."""
    src = str(Path(ftjsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


class TestCliContracts:
    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = run_cli("--config", tmp_path / "nope.json", "--out", tmp_path, "iv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ftjsim: config-error:")
        assert len(err.strip().splitlines()) == 1

    def test_no_command_imports_scipy(self, tmp_path):
        # scipy is a test dependency only: one fresh interpreter runs every command,
        # fit on a trace and on a sweep included, and no scipy module may be loaded.
        raw = json.loads(default_config_text())
        raw["crossbar"]["rows"] = raw["crossbar"]["cols"] = 8
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps(raw))
        sweep = tmp_path / "sweep.csv"
        sweep_to_csv(synthetic_pf_sweep(np.linspace(0.2, 0.3, 9), [300.0, 340.0], phi_b=0.15,
                                        beta=0.4), sweep)
        out = tmp_path / "out"
        commands = [["iv"], ["pulse"], ["bench"], ["fit", str(out / "pulse_trace.csv"), str(sweep)],
                    ["xbar", "--writes", "50"], ["infer", "--seeds", "1", "--hidden", "8"]]
        code = ("import json, sys\nfrom ftjsim.cli import main\n"
                f"codes = [main(['--config', {str(cfg)!r}, '--out', {str(out)!r}, *c]) "
                f"for c in {commands!r}]\n"
                "print(json.dumps([codes, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))")
        codes, scipy_modules = json.loads(fresh_python(code).splitlines()[-1])
        assert codes == [0] * len(commands)
        assert scipy_modules == []

    def test_loading_a_config_leaves_numpy_random_unloaded(self, tmp_path):
        # numpy 2 loads numpy.random on first use; commands that draw nothing
        # (iv, fit) never need it, so loading a config must not import it.
        cfg = tmp_path / "seeded.json"
        cfg.write_text(json.dumps({"seed": 777}))
        code = ("import sys\nimport numpy\nbefore = 'numpy.random' in sys.modules\n"
                "import ftjsim.cli\nftjsim.cli.load_config()\n"
                f"ftjsim.cli.load_config({str(cfg)!r})\n"
                "print(before, 'numpy.random' in sys.modules)")
        assert fresh_python(code).split() == ["False", "False"]

    @pytest.mark.filterwarnings("error")
    def test_sharp_staircase_pulse_warns_nothing(self, tmp_path, capsys):
        # At nu_p = 40 the staircase's last level inverts through log1p(-1).
        cfg = tmp_path / "sharp.json"
        cfg.write_text(json.dumps({"device": {"nu_p": 40}}))
        assert run_cli("--config", cfg, "--out", tmp_path, "pulse") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [("pulse",), ("bench",), ("xbar", "--writes", "50"),
                                         ("infer", "--seeds", "1", "--hidden", "4")],
                             ids=["pulse", "bench", "xbar", "infer"])
    def test_integer_in_float_field_runs_as_float(self, tmp_path, capsys, command):
        # A JSON integer in a float field is handed over as a float: 2**70
        # held as a Python int made np.expm1 raise TypeError.
        cfg = tmp_path / "int_nu.json"
        cfg.write_text(json.dumps({"device": {"nu_p": 2**70}, "crossbar": {"rows": 8, "cols": 8}}))
        nu_p = load_config(cfg).device.nu_p
        assert type(nu_p) is float and nu_p == 2.0**70
        assert run_cli("--config", cfg, "--out", tmp_path / "out", *command) == 0
        assert capsys.readouterr().err == ""

    def test_fit_reads_each_file_once(self, tmp_path, monkeypatch):
        assert run_cli("--out", tmp_path, "pulse") == 0
        trace, sweep = tmp_path / "pulse_trace.csv", tmp_path / "sweep.csv"
        sweep_to_csv(synthetic_pf_sweep(np.linspace(0.2, 0.3, 9), [300.0, 340.0], phi_b=0.15,
                                        beta=0.4), sweep)
        reads = []
        for module in (table, cli, inf):  # every module holding read_table
            monkeypatch.setattr(module, "read_table",
                                lambda path, read=module.read_table: reads.append(path) or read(path))
        assert run_cli("--out", tmp_path, "fit", trace, sweep) == 0
        assert sorted(reads) == [trace, sweep]

    def test_negative_pulse_count_exits_3(self, tmp_path, capsys):
        # Counts up to 0 would normalize by 0; the fit refuses any count below 0.
        trace = tmp_path / "trace.csv"
        trace.write_text(",".join(TRACE_CSV_HEADER) + "\n" + "".join(
            f"{c},potentiation,{g},{1 / g}\n" for c, g in zip(range(-4, 1), [1, 2, 3, 4, 5])))
        assert run_cli("--out", tmp_path, "fit", trace) == 3
        err = capsys.readouterr().err
        assert err == "ftjsim: fit-error: pulse counts must be >= 0, got -4\n"

    def test_unsaturating_branch_reports_warning_row(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text(",".join(TRACE_CSV_HEADER) + "\n" + "".join(
            f"{c},depression,{g},{1 / g}\n" for c, g in [(2, 1.0)] * 3 + [(5, 0.5)] * 3))
        assert run_cli("--out", tmp_path, "fit", trace) == 0
        rows = (tmp_path / "fit_report.csv").read_text().strip().splitlines()
        assert ("trace.csv,update_depression,warning,"
                "nu at its search bound 1e-09; the saturating exponential cannot follow "
                "this branch") in rows

    def test_saturated_branch_reports_warning_row(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text(",".join(TRACE_CSV_HEADER) + "\n" + "".join(
            f"{c},potentiation,{g},{1 / g}\n" for c, g in zip(range(11), [1.0] + [2.0] * 10)))
        assert run_cli("--out", tmp_path, "fit", trace) == 0
        rows = (tmp_path / "fit_report.csv").read_text().strip().splitlines()
        assert [r for r in rows if ",warning," in r] == [
            "trace.csv,update_potentiation,warning,branch saturated by its first pulse count; "
            "nu 374.299 fits and so does any larger nu"]

    @pytest.mark.parametrize("seed", [-5, 2**64])
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, seed):
        assert run_cli("--seed", seed, "--out", tmp_path, "iv") == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [("xbar", "--writes", "-5"), ("infer", "--seeds", "0"),
                                         ("pulse", "--pot", "999"), ("pulse", "--dep", "-1"),
                                         ("iv", "--temps", "nan"), ("iv", "--temps", "inf"),
                                         ("iv", "--temps", "1"), ("iv", "--temps", "abc"),
                                         ("pulse", "--temps", "abc"), ("bench", "--temps", "300"),
                                         ("--temps", "300", "xbar"),
                                         ("infer", "--hidden", "abc"),
                                         ("infer", "--dataset", "no_such_dataset.csv"),
                                         ("infer", "--hidden", "8,0"),
                                         ("infer", "--hidden", "0"),
                                         ("infer", "--hidden", f"{MAX_ARRAY_DIM + 1}"),
                                         ("iv", "--temps", ""),
                                         ("xbar", "--writes", f"{cli.MAX_WRITES + 1}"),
                                         ("infer", "--seeds", f"{cli.MAX_SEEDS + 1}")])
    def test_out_of_range_count_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # Every bad command-line value.  Counts below their least value fail in
        # argparse; the rest (the --writes and --seeds upper bounds, pulse
        # counts bounded by the config's n_levels, temperatures, --temps on a
        # command other than iv, layer widths, the dataset path) are reported
        # by main before it makes the output directory or runs any command.
        monkeypatch.chdir(tmp_path)  # so the relative dataset path is missing
        for name in ("cmd_iv", "cmd_pulse", "cmd_fit", "cmd_xbar", "cmd_infer", "cmd_bench"):
            monkeypatch.setattr(cli, name, lambda *args: pytest.fail("the command ran"))
        out = tmp_path / "out"
        if command not in (("xbar", "--writes", "-5"), ("infer", "--seeds", "0")):
            assert run_cli("--out", out, *command) == 2
            err = capsys.readouterr().err
            assert err.startswith("ftjsim: config-error:") and command[1] in err
            assert len(err.strip().splitlines()) == 1
        else:
            with pytest.raises(SystemExit) as exc:
                run_cli("--out", out, *command)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument {command[1]}: expected an integer" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("section, values", [
        ("conduction", {"on_off": -1}),
        ("variability", {"sigma_c2c": math.nan}),
        ("device", {"area": math.nan}),
        ("device", {"v_set_full": -1.2}),
        ("crossbar", {"bias": {"kind": "vfull"}}),
        ("conduction", {"e_a": math.nan}),
        ("conduction", {"beta": math.nan}),
        ("device", {"n_levels": 2.5}),
        ("seed", True),
        ("variability", {"seed": True}),
        ("crossbar", {"rows": 8.0}),
        ("crossbar", {"cols": True}),
        ("conduction", {"g_lrs_ref": math.inf}),
        ("conduction", {"t_ref": 10**400}),
        ("crossbar", {"bias": {"v_write_pot": math.nan}}),
        ("device", {"hzo_thickness_nm": math.nan}),
        ("variability", {"drift_per_decade": -math.inf}),
        ("device", {"area": True}),
        ("device", {"nu_p": "1.9"}),
        ("scheme", "single"),
        ("device", {"conduction": {}}),
        ("device", {"scheme": "width_ramp"}),
        ("output_dir", 5),
        ("variability", {"sigma_c2c": 1e308}),
        ("conduction", {"g_lrs_ref": 1e300, "area_ref": 1e-10}),
        ("conduction", {"g_lrs_ref": 1e-300, "area_ref": 1e300}),
        ("device", {"hzo_thickness_nm": 0}),
        ("device", {"hzo_thickness_nm": -0.0}),
        ("device", {"hzo_thickness_nm": -5}),
        ("device", {"hzo_thickness_nm": 5e-324}),
        ("device", {"hzo_thickness_nm": 1e-320}),
        ("device", {"v_set_full": -math.inf}),
        ("crossbar", {"bias": {"v_write_pot": 2.0, "v_write_dep": -1.0}}),
        ("variability", {"sigma_d2d_hrs": 1e300}),
        ("variability", {"sigma_d2d_lrs": 1e300}),
        ("crossbar", {"rows": 10**20}),
        ("crossbar", {"cols": MAX_ARRAY_DIM + 1}),
        ("device", {"n_levels": 10**30}),
        ("device", {"n_levels": MAX_LEVELS + 1}),
        ("variability", {"sigma_c2c": 1e300}),
        ("conduction", {"on_off": 1e308}),
        ("device", {"area": 1e-300}),
        ("conduction", {"area_ref": 1e308}),
    ], ids=["on_off", "nan_sigma_c2c", "nan_area", "subthreshold_v_set_full", "bias_kind",
            "nan_e_a", "nan_beta", "float_n_levels", "bool_seed", "bool_variability_seed",
            "float_rows", "bool_cols", "inf_g_lrs_ref", "huge_int_t_ref", "nan_v_write_pot",
            "nan_hzo_thickness", "inf_drift", "bool_area", "string_nu_p", "scheme_single",
            "device_conduction", "device_scheme",
            "int_output_dir", "huge_sigma_c2c", "overflowing_g_lrs", "underflowing_g_hrs",
            "zero_hzo_thickness", "negative_zero_hzo_thickness", "negative_hzo_thickness",
            "subnormal_hzo_thickness", "small_subnormal_hzo_thickness", "minus_inf_v_set_full",
            "swapped_write_rails", "huge_sigma_d2d_hrs", "huge_sigma_d2d_lrs", "huge_rows",
            "cols_over_bound", "huge_n_levels", "n_levels_over_bound", "sigma_c2c_over_bound",
            "subnormal_g_hrs", "subnormal_g_hrs_from_area", "subnormal_g_lrs"])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, section, values):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: values}))
        assert run_cli("--config", bad, "--out", tmp_path, "iv") == 2
        err = capsys.readouterr().err
        assert err.startswith("ftjsim: config-error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("values, named", [
        ({"v_set_full": -math.inf}, "device.v_set_full must be a finite number, got -inf"),
        ({"hzo_thickness_nm": 5e-324}, "hzo_thickness_nm 5e-324 gives no finite coercive field"),
        ({"hzo_thickness_nm": 1e-310}, "hzo_thickness_nm 1e-310 gives no finite coercive field"),
    ], ids=["minus_inf_v_set_full", "subnormal_hzo_thickness", "overflowing_coercive_field"])
    def test_bad_device_value_names_its_key(self, tmp_path, capsys, values, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"device": values}))
        assert run_cli("--config", bad, "--out", tmp_path, "bench") == 2
        assert named in capsys.readouterr().err

    def test_non_ohmic_read_voltage_exits_2(self, tmp_path, capsys, monkeypatch):
        # infer reads every layer at up to 0.1 V, which must stay in the Ohmic
        # regime; it refuses before it trains the baseline.
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the read-voltage check")

        monkeypatch.setattr(inf, "train_mlp", no_training)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"conduction": {"v_ohmic_max": 0.05}}))
        out = tmp_path / "out"
        assert run_cli("--config", bad, "--out", out, "infer", "--seeds", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith("ftjsim: config-error: read voltage 0.1 V exceeds the Ohmic "
                              "regime edge 0.05 V")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("case, unconverged", [
        ("one_iteration", "1 of 1 paths unconverged after 1 iterations"),
        ("one_iteration_candidates", "2 of 2 paths unconverged after 1 iterations"),
    ], ids=["one_iteration", "one_iteration_candidates"])
    def test_unconverged_solver_exits_4(self, tmp_path, capsys, monkeypatch, recwarn, case,
                                        unconverged):
        # A cap of one iteration stops the strongest Ohmic path, solved first,
        # at seed 3, where that path needs three.  At seed 4 it converges in
        # one iteration, but two paths whose bias sums show that they may
        # carry more need four.
        raw = {"crossbar": {"rows": 8, "cols": 8}, "seed": 3 if case == "one_iteration" else 4}
        monkeypatch.setattr(xb, "_SNEAK_MAX_ITERS", 1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert run_cli("--config", cfg, "--out", tmp_path / "out", "xbar") == 4
        err = capsys.readouterr().err
        assert err.startswith(f"ftjsim: convergence-error: sneak-path solver: {unconverged}")
        assert len(err.strip().splitlines()) == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("kept\n")
        assert run_cli("--out", tmp_path / out, "iv") == 2
        err = capsys.readouterr().err
        assert err.startswith("ftjsim: config-error: cannot create output directory")
        assert len(err.strip().splitlines()) == 1
        assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize("command, section, values", [
        ("bench", "conduction", {"g_lrs_ref": math.inf}),
        ("xbar", "device", {"v_reset_full": math.nan}),
        ("bench", "device", {"hzo_thickness_nm": math.nan}),
    ], ids=["bench_inf_g_lrs_ref", "xbar_nan_v_reset_full", "bench_nan_hzo_thickness"])
    def test_non_finite_float_exits_2_before_the_command(self, tmp_path, capsys, command,
                                                          section, values):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: values}))
        assert run_cli("--config", bad, "--out", tmp_path / "out", command) == 2
        err = capsys.readouterr().err
        assert err.startswith("ftjsim: config-error:") and "must be a finite number" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("temps, row", [
        ([300.0], ""), ([300.0, 320.0], "5e-324,1e-9,300.0\n"),
        ([300.0, 320.0], "0.05,1e-9,5e-324\n"), ([1e300, 1.5e300], ""),
    ], ids=["one_temperature", "overflowing_j_over_v", "subnormal_temperature",
            "huge_temperatures"])
    def test_fit_failure_exits_3(self, tmp_path, capsys, temps, row):
        sweep = tmp_path / "sweep.csv"
        sweep_to_csv(synthetic_pf_sweep(np.linspace(0.01, 0.1, 5), temps, phi_b=0.15,
                                        beta=0.0), sweep)
        with open(sweep, "a") as fh:
            fh.write(row)
        assert run_cli("--out", tmp_path, "fit", sweep) == 3
        assert capsys.readouterr().err.startswith("ftjsim: fit-error:")

    @pytest.mark.parametrize("kind, row", [
        ("sweep", "abc,1e-9,300.0"), ("sweep", "0.05,1e-9"),
        ("trace", "0,potentiation,abc,1e9"), ("trace", "0,potentiation,1e-9"),
        ("sweep", "0.05,1e-9,300.0,7"), ("trace", "1,potentiation,1e-9,1e9,7"),
        ("sweep", "0.05,nan,300.0"), ("sweep", "0.05,inf,300.0"), ("sweep", "0.05,1e-9,inf"),
        ("sweep", "0.05,1e-9,nan"), ("trace", "1,potentiation,nan,1e9"),
        ("trace", "1,potentiation,1e-9,inf"), ("trace", "1,sideways,1e-9,1e9"),
        ("sweep", "0.05," + "1" * 140_000 + ",300.0"),
    ], ids=["sweep_non_numeric", "sweep_short_row", "trace_non_numeric", "trace_short_row",
            "sweep_long_row", "trace_long_row", "sweep_nan_current", "sweep_inf_current",
            "sweep_inf_temperature", "sweep_nan_temperature", "trace_nan_conductance",
            "trace_inf_resistance", "trace_sideways_direction", "sweep_over_long_cell"])
    def test_malformed_fit_file_exits_3(self, tmp_path, capsys, kind, row):
        path = tmp_path / f"{kind}.csv"
        if kind == "sweep":
            sweep_to_csv(synthetic_pf_sweep(np.linspace(0.01, 0.1, 5), [300.0, 320.0], phi_b=0.15,
                                            beta=0.0), path)
        else:
            path.write_text(",".join(TRACE_CSV_HEADER) + "\n0,potentiation,1e-9,1e9\n")
        with open(path, "a") as fh:
            fh.write(row + "\n")
        assert run_cli("--out", tmp_path, "fit", path) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"ftjsim: fit-error: {path}: malformed row")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("rows", ["", "0,potentiation,1e-9,1e9\n"],
                             ids=["header_only", "one_row"])
    def test_trace_without_fittable_branch_exits_3(self, tmp_path, capsys, rows):
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_CSV_HEADER) + "\n" + rows)
        assert run_cli("--out", tmp_path / "out", "fit", path) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"ftjsim: fit-error: {path}: no direction has the 5 points")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out" / "fit_report.csv").exists()

    @pytest.mark.parametrize("case, message", [
        ("no_rows", "no rows"), ("nan_feature", "non-finite feature"),
        ("negative_label", "label -1 outside 0..3"), ("huge_features", "training diverged"),
        ("long_rows", "every row needs 17 cells"), ("label_gap", "label 1 in 0..6 has no sample"),
        ("huge_label", "label 4 in 0..1099511627776 has no sample"),
        ("blank_lines_only", "no header row"), ("not_utf8", "not a well-formed UTF-8 CSV file"),
        ("label_2_63", "label 4 in 0..9223372036854775808 has no sample"),
        ("label_2_64", "label 4 in 0..18446744073709551616 has no sample"),
    ], ids=["no_rows", "nan_feature", "negative_label", "huge_features", "long_rows", "label_gap",
            "huge_label", "blank_lines_only", "not_utf8", "label_2_63", "label_2_64"])
    def test_bad_dataset_exits_2(self, tmp_path, capsys, save_dataset_csv, case, message):
        x, y = make_blobs_dataset(n_samples=64)
        if case == "no_rows":
            x, y = x[:0], y[:0]
        elif case == "nan_feature":
            x[1, 2] = np.nan
        elif case == "negative_label":
            y[0] = -1
        elif case == "huge_features":  # lr-1 training on features of magnitude 100 overflows
            x = 100.0 * x
        elif case == "label_gap":  # labels {0, 2, 4, 6} would make a 7-output network
            y = 2 * y
        elif case == "huge_label":  # must not allocate one entry per label value
            y[0] = 2**40
        elif case in ("label_2_63", "label_2_64"):  # past int64 and uint64: printed exactly
            y = y.astype(object)
            y[0] = 2 ** int(case[-2:])
        path = tmp_path / "data.csv"
        save_dataset_csv(path, x, y)
        if case == "long_rows":  # the appended cell would otherwise be read as the label
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:1] + [line + ",7" for line in lines[1:]]) + "\n")
        elif case == "blank_lines_only":
            path.write_text("\n\n")
        elif case == "not_utf8":
            path.write_bytes(path.read_bytes() + b"0.5,\xff\n")
        out = tmp_path / "out"
        assert run_cli("--out", out, "infer", "--dataset", path, "--seeds", 1) == 2
        err = capsys.readouterr().err
        assert err.startswith("ftjsim: config-error:") and message in err
        assert len(err.strip().splitlines()) == 1
        # A dataset that cannot be read is refused before the output directory
        # is made; divergence needs the training done first.
        if case == "huge_features":
            assert not any(out.iterdir())
        else:
            assert not out.exists()

    def test_iv_default_grid_and_activation(self, tmp_path):
        assert run_cli("--out", tmp_path, "--temps", "300,330", "iv") == 0
        rows = (tmp_path / "iv_sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "voltage_V,temperature_K,state,current_A,resistance_ohm"
        table = {}
        for line in rows[1:]:
            v, t, state, i, r = line.split(",")
            table[(round(float(v), 6), float(t), state)] = float(i)
        # R_on read point: 0.1 V, LRS, 300 K -> 1e-9 A.
        assert table[(0.1, 300.0, "lrs")] == pytest.approx(1e-9, rel=1e-9)
        # Odd symmetry across the grid.
        assert table[(-0.1, 300.0, "lrs")] == pytest.approx(-1e-9, rel=1e-9)
        # 330 K rows scale by the activation factor in the Ohmic regime.
        factor = math.exp(-0.15 * (1 / (K_B_EV * 330) - 1 / (K_B_EV * 300)))
        assert table[(0.05, 330.0, "hrs")] == pytest.approx(
            table[(0.05, 300.0, "hrs")] * factor, rel=1e-9)

    def test_pulse_then_fit_round_trip(self, tmp_path, capsys):
        # Noise off: the staircase written by `pulse` must fit back exactly.
        raw = json.loads(default_config_text())
        raw["variability"]["sigma_c2c"] = 0.0
        cfg = tmp_path / "quiet.json"
        cfg.write_text(json.dumps(raw))
        assert run_cli("--config", cfg, "--out", tmp_path, "pulse") == 0
        trace = tmp_path / "pulse_trace.csv"
        assert trace.exists()
        assert run_cli("--config", cfg, "--out", tmp_path, "fit", trace) == 0
        report = (tmp_path / "fit_report.csv").read_text()
        values = {}
        for line in report.strip().splitlines()[1:]:
            file, model, param, value = line.split(",", 3)
            values[(model, param)] = value
        assert float(values[("update_potentiation", "nu")]) == pytest.approx(1.9, rel=1e-6)
        assert float(values[("update_depression", "nu")]) == pytest.approx(4.3, rel=1e-6)

    def test_fit_sweep_files(self, tmp_path):
        temps = [300.0, 320.0, 340.0, 360.0]
        low = tmp_path / "low.csv"
        sweep_to_csv(synthetic_pf_sweep(np.linspace(0.01, 0.1, 10), temps, phi_b=0.15, beta=0.0,
                                        ln_prefactor=-18.0), low)
        high = tmp_path / "high.csv"
        sweep_to_csv(synthetic_pf_sweep(np.linspace(0.2, 0.3, 9), temps, phi_b=0.15, beta=0.4,
                                        ln_prefactor=-15.0), high)
        assert run_cli("--out", tmp_path, "fit", low, high) == 0
        report = (tmp_path / "fit_report.csv").read_text()
        values = {}
        for line in report.strip().splitlines()[1:]:
            file, model, param, value = line.split(",", 3)
            values[(file, model, param)] = value
        assert float(values[("low.csv", "ohmic", "e_a_eV")]) == pytest.approx(0.15, rel=1e-6)
        assert float(values[("high.csv", "poole_frenkel", "phi_b_eV")]) == pytest.approx(0.15, rel=1e-6)
        assert float(values[("high.csv", "poole_frenkel", "beta_eV_per_sqrtV")]) == pytest.approx(0.4, rel=1e-6)

    def test_xbar_reports(self, tmp_path):
        cfg = tmp_path / "small.json"
        raw = json.loads(default_config_text())
        raw["crossbar"]["rows"] = raw["crossbar"]["cols"] = 8
        cfg.write_text(json.dumps(raw))
        assert run_cli("--config", cfg, "--out", tmp_path, "xbar", "--writes", "200") == 0
        program = dict(line.split(",", 1) for line in
                       (tmp_path / "xbar_program.csv").read_text().strip().splitlines()[1:])
        assert float(program["converged_fraction"]) >= 0.9
        disturb = dict(line.split(",", 1) for line in
                       (tmp_path / "xbar_disturb.csv").read_text().strip().splitlines()[1:])
        assert int(disturb["disturbed_cells"]) == 0
        assert (tmp_path / "xbar_read.csv").exists()
        snapshot = (tmp_path / "xbar_snapshot.csv").read_text().strip().splitlines()
        assert snapshot[0] == "row,col,w,g_S" and len(snapshot) == 1 + 64

    def test_xbar_writes_are_three_array_draws(self, tmp_path, monkeypatch):
        # After the target and input draws, the workload stream gives the rows,
        # the columns and the amplitude coin of all writes, each in one array draw.
        cfg = tmp_path / "small.json"
        raw = json.loads(default_config_text())
        raw["crossbar"]["rows"], raw["crossbar"]["cols"] = 6, 9
        cfg.write_text(json.dumps(raw))
        seen = []
        monkeypatch.setattr(xb, "write_cells", lambda xbar, *writes, apply=xb.write_cells:
                            seen.append(writes) or apply(xbar, *writes))
        assert run_cli("--config", cfg, "--seed", 777, "--out", tmp_path,
                       "xbar", "--writes", "300") == 0
        (rows, cols, amps), = seen
        rng = np.random.default_rng(derive_seed(777, STREAM_WORKLOAD))
        rng.uniform(0.3, 0.95, size=(6, 9))  # programming targets
        rng.uniform(-1.0, 1.0, size=6)       # read input
        params = load_config(cfg).device
        assert np.array_equal(rows, rng.integers(6, size=300))
        assert np.array_equal(cols, rng.integers(9, size=300))
        assert np.array_equal(amps, np.where(rng.random(300) < 0.5, params.v_set_full,
                                             params.v_reset_full))

    def test_infer_report(self, tmp_path):
        assert run_cli("--out", tmp_path, "infer", "--seeds", "2", "--hidden", "8") == 0
        lines = (tmp_path / "infer_report.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["seed", "analog_accuracy", "baseline_accuracy", "degradation_points"]
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert 0.0 <= float(fields[1]) <= 1.0
            assert float(fields[3]) < 5.0

    @pytest.mark.parametrize("mode", ["continuous", "open_loop", "write_verify"])
    def test_infer_rows_do_not_depend_on_replica_count_or_grouping(self, tmp_path, monkeypatch,
                                                                   mode):
        def report(name, n_seeds):
            out = tmp_path / name
            assert run_cli("--out", out, "infer", "--hidden", "8", "--seeds", n_seeds,
                           "--mode", mode) == 0
            return (out / "infer_report.csv").read_text().splitlines()

        ten = report("ten", 10)
        assert len(ten) == 11
        assert report("four", 4) == ten[:5]
        for per_pass in (1, 10):
            monkeypatch.setattr(cli, "REPLICAS_PER_PASS", per_pass)
            assert report(f"per_pass_{per_pass}", 10) == ten

    @pytest.mark.parametrize("command", [[], ["infer"]], ids=["main", "infer"])
    def test_help_exits_0_at_80_columns(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith("usage: ftjsim")
        assert max(len(line) for line in text.splitlines()) <= 80

    def test_bench_tracks_simulation(self, tmp_path, capsys):
        assert run_cli("--out", tmp_path, "bench") == 0
        rows = dict(
            line.split(",", 2)[:2]
            for line in (tmp_path / "bench.csv").read_text().strip().splitlines()[1:]
        )
        assert float(rows["on_off"]) == pytest.approx(7.0, rel=1e-9)
        assert float(rows["r_on"]) == pytest.approx(1e8, rel=1e-9)
        assert float(rows["nonlinearity_potentiation"]) == pytest.approx(1.9, rel=1e-3)
        assert float(rows["nonlinearity_depression"]) == pytest.approx(-4.3, rel=1e-3)
        assert float(rows["depression_energy"]) < 1e-12
        assert float(rows["memory_window"]) == pytest.approx(1.4, abs=0.06)
        assert float(rows["coercive_field"]) == pytest.approx(1.6, rel=1e-6)

    def test_bench_follows_modified_config(self, tmp_path):
        raw = json.loads(default_config_text())
        raw["conduction"]["on_off"] = 10.0
        cfg = tmp_path / "mod.json"
        cfg.write_text(json.dumps(raw))
        assert run_cli("--config", cfg, "--out", tmp_path, "bench") == 0
        rows = dict(
            line.split(",", 2)[:2]
            for line in (tmp_path / "bench.csv").read_text().strip().splitlines()[1:]
        )
        assert float(rows["on_off"]) == pytest.approx(10.0, rel=1e-9)

    @pytest.mark.parametrize("command", [
        ("iv", "--temps", "300,330"),
        ("pulse",),
        ("bench",),
        ("infer", "--seeds", "1", "--hidden", "8"),
        ("xbar", "--writes", "50"),
        ("xbar", "--writes", "0"),
    ])
    def test_byte_identical_reruns(self, tmp_path, command):
        cfg = tmp_path / "small.json"
        raw = json.loads(default_config_text())
        raw["crossbar"]["rows"] = raw["crossbar"]["cols"] = 8
        cfg.write_text(json.dumps(raw))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("--config", cfg, "--seed", 99, "--out", out1, *command) == 0
        assert run_cli("--config", cfg, "--seed", 99, "--out", out2, *command) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == sorted(p.name for p in out2.iterdir())
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("seed", [12345, 4242])
    @pytest.mark.parametrize("command", [("xbar", "--writes", "50"), ("pulse",), ("bench",)],
                             ids=["xbar", "pulse", "bench"])
    def test_seed_flag_naming_the_config_seed_changes_nothing(self, tmp_path, command, seed):
        # The config's seed is the master seed of every stream, so repeating it
        # with --seed must write the same bytes, and any other seed must not.
        raw = json.loads(default_config_text())
        raw["seed"] = seed
        raw["crossbar"]["rows"] = raw["crossbar"]["cols"] = 8
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps(raw))
        plain, flagged, other = tmp_path / "plain", tmp_path / "flagged", tmp_path / "other"
        assert run_cli("--config", cfg, "--out", plain, *command) == 0
        assert run_cli("--config", cfg, "--seed", seed, "--out", flagged, *command) == 0
        assert run_cli("--config", cfg, "--seed", seed + 1, "--out", other, *command) == 0
        names = sorted(p.name for p in plain.iterdir())
        assert names and names == sorted(p.name for p in flagged.iterdir())
        for name in names:
            assert (plain / name).read_bytes() == (flagged / name).read_bytes(), name
        assert names == sorted(p.name for p in other.iterdir())
        assert any((plain / name).read_bytes() != (other / name).read_bytes() for name in names)

    def test_config_scheme_selection_swaps_shapes(self, tmp_path):
        raw = json.loads(default_config_text())
        raw["crossbar"]["rows"] = raw["crossbar"]["cols"] = 8
        swapped = json.loads(json.dumps(raw))
        swapped["device"]["nu_p"], swapped["device"]["nu_d"] = (raw["device"]["nu_d"],
                                                                raw["device"]["nu_p"])
        raw["scheme"] = "width_ramp"
        quiet = json.loads(json.dumps(raw))
        quiet["variability"]["sigma_c2c"] = 0.0
        cfg = {}
        for name, body in (("width", raw), ("swapped", swapped), ("quiet", quiet)):
            cfg[name] = tmp_path / f"{name}.json"
            cfg[name].write_text(json.dumps(body))
        assert run_cli("--config", cfg["quiet"], "--out", tmp_path, "pulse") == 0
        assert run_cli("--config", cfg["quiet"], "--out", tmp_path, "fit",
                       tmp_path / "pulse_trace.csv") == 0
        values = {}
        for line in (tmp_path / "fit_report.csv").read_text().strip().splitlines()[1:]:
            _, model, param, value = line.split(",", 3)
            values[(model, param)] = value
        # Width-ramp staircases use the opposite sharpness per direction.
        assert float(values[("update_potentiation", "nu")]) == pytest.approx(4.3, rel=1e-6)
        assert float(values[("update_depression", "nu")]) == pytest.approx(1.9, rel=1e-6)
        # With noise, every write path under the width ramp equals the amplitude
        # ramp with nu_p and nu_d swapped, file for file and byte for byte.
        infer = ("infer", "--hidden", "8", "--seeds", "2", "--mode")
        for i, command in enumerate((("pulse",), ("xbar",), (*infer, "open_loop"),
                                     (*infer, "write_verify"))):
            width, amp = tmp_path / f"width{i}", tmp_path / f"swapped{i}"
            assert run_cli("--config", cfg["width"], "--out", width, *command) == 0
            assert run_cli("--config", cfg["swapped"], "--out", amp, *command) == 0
            names = sorted(p.name for p in width.iterdir())
            assert names and names == sorted(p.name for p in amp.iterdir())
            for name in names:
                assert (width / name).read_bytes() == (amp / name).read_bytes(), (command, name)
