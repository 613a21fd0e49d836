"""Command-line interface: sweeps, pulse traces, fits, array workloads, reports.

Exit codes: 0 success, 2 configuration error, 3 fit failure, 4 a solver that
did not converge.  All outputs are CSV with header rows and SI units; identical
config and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import conduction as cnd
from . import crossbar as xb
from . import device as dev
from . import inference as inf
from . import variability as var
from .config import (
    MAX_ARRAY_DIM,
    STREAM_EVAL_BASE,
    STREAM_TRAINING,
    STREAM_VARIABILITY,
    STREAM_WORKLOAD,
    SimConfig,
    load_config,
)
from .errors import ConfigError, ConvergenceError, FitError
from .table import read_table, write_columns, write_table

IV_CSV_HEADER = ("voltage_V", "temperature_K", "state", "current_A", "resistance_ohm")
# Monte-Carlo replicas that infer programs in one stacked pass.  Rows do not
# depend on it; larger groups gained no time and cost peak memory.
REPLICAS_PER_PASS = 3
# Largest xbar --writes and infer --seeds; the README gives what each costs.
MAX_WRITES = 10**6
MAX_SEEDS = 1000


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _parse_temps(raw: str | None, p: cnd.ConductionParams) -> list[float]:
    try:
        temps = [float(s) for s in raw.split(",") if s.strip()] if raw is not None else [p.t_ref]
        for t in temps:
            cnd.activation_factor(t, p)  # the conduction law's one temperature check
    except ValueError as exc:
        raise ConfigError(f"invalid --temps value {raw!r}: {exc}") from exc
    if not temps:
        raise ConfigError(f"--temps names no temperature, got {raw!r}")
    return temps


def _parse_hidden(raw: str) -> list[int]:
    try:
        hidden = [int(h) for h in raw.split(",") if h.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid --hidden value {raw!r}: {exc}") from exc
    # Each width becomes a crossbar dimension, bounded as the configured ones are.
    if not all(1 <= h <= MAX_ARRAY_DIM for h in hidden):
        raise ConfigError(f"--hidden widths must lie in [1, {MAX_ARRAY_DIM}], got {raw!r}")
    return hidden


def _pulse_counts(n_pot: int | None, n_dep: int | None, params: dev.DeviceParams) -> tuple:
    n_pot = params.n_levels if n_pot is None else n_pot
    n_dep = params.n_levels if n_dep is None else n_dep
    if not (0 <= n_pot <= params.n_levels and 0 <= n_dep <= params.n_levels):
        raise ConfigError(f"--pot and --dep must lie in [0, n_levels = {params.n_levels}], "
                          f"got {n_pot} and {n_dep}")
    return n_pot, n_dep


def cmd_iv(config: SimConfig, out: Path, temps: list[float]) -> None:
    """Voltage/current/resistance grid for both endpoint states."""
    params = config.device
    grid = np.linspace(-cnd.V_READ_SWEEP_MAX, cnd.V_READ_SWEEP_MAX, 61)
    grid = grid[grid != 0]
    states = (("lrs", params.g_lrs), ("hrs", params.g_hrs))
    i = np.concatenate([cnd.current(grid, g, t, params.conduction)
                        for t in temps for _, g in states])
    v = np.tile(grid, len(temps) * len(states))
    write_columns(out / "iv_sweep.csv", IV_CSV_HEADER, [
        v, np.repeat(temps, len(states) * grid.size),
        np.tile(np.repeat([name for name, _ in states], grid.size), len(temps)), i, v / i])
    print(f"wrote {out / 'iv_sweep.csv'} ({v.size} rows)")


def cmd_pulse(config: SimConfig, out: Path, n_pot: int, n_dep: int) -> None:
    """Potentiation/depression staircase under the configured scheme."""
    rng = np.random.default_rng(var.derive_seed(config.seed, STREAM_VARIABILITY))
    trace = dev.run_sequence(n_pot, n_dep, config.device, config.variability.sigma_c2c, rng)
    dev.write_trace_csv(out / "pulse_trace.csv", trace)
    print(f"wrote {out / 'pulse_trace.csv'} ({len(trace)} rows)")


def _fit_rows(path: Path, model: str, values: dict, warnings: tuple) -> list:
    """One report row per fitted value, then one per warning."""
    return ([[path.name, model, name, _fmt(v)] for name, v in values.items()]
            + [[path.name, model, "warning", w] for w in warnings])


def _sweep_from_table(header: tuple, body: np.ndarray) -> cnd.SweepRecord:
    if not len(body):
        raise ValueError("no samples")
    return cnd.SweepRecord(*body.T)


def _fit_sweep_file(config: SimConfig, path: Path, data: cnd.SweepRecord, rows: list) -> None:
    p = config.device.conduction
    low = data.restrict(0.0, p.v_ohmic_max)
    if len(low):
        fit = cnd.fit_ohmic(low)
        rows += _fit_rows(path, "ohmic", {"e_a_eV": fit.e_a, "ln_prefactor": fit.ln_prefactor,
                          "max_flatness_residual": fit.max_flatness_residual,
                          "r_squared": fit.r_squared}, fit.warnings)
    high = data.restrict(p.v_pf_min, cnd.V_READ_SWEEP_MAX)
    if len(high):
        fit = cnd.fit_poole_frenkel(high)
        rows += _fit_rows(path, "poole_frenkel", {"phi_b_eV": fit.phi_b,
                          "beta_eV_per_sqrtV": fit.beta, "ln_prefactor": fit.ln_prefactor,
                          "r_squared": fit.r_squared}, fit.warnings)
        rows += [[path.name, "poole_frenkel", "note", n] for n in fit.notes]
    if not len(low) and not len(high):
        raise FitError(f"{path}: no samples inside the configured fit windows")


def _fit_trace_file(config: SimConfig, path: Path, points: list, rows: list) -> None:
    branches = {d: [pt for pt in points if pt.direction == d] for d in dev.TRACE_DIRECTIONS}
    branches = {d: b for d, b in branches.items() if len(b) >= 5}
    if not branches:
        raise FitError(f"{path}: no direction has the 5 points an update-curve fit needs")
    for direction, branch in branches.items():
        fit = dev.fit_update_curve([pt.count for pt in branch],
                                   [pt.conductance for pt in branch])
        rows += _fit_rows(path, f"update_{direction}", {"nu": fit.nu, "sigma0": fit.sigma0,
                          "rms_residual": fit.rms_residual}, fit.warnings)


def cmd_fit(config: SimConfig, out: Path, files: list[str]) -> None:
    """Extract model parameters from sweep and trace CSV files."""
    if not files:
        raise ConfigError("fit requires at least one input file")
    loaders = {cnd.SweepRecord.CSV_HEADER: (_sweep_from_table, _fit_sweep_file),
               dev.TRACE_CSV_HEADER: (dev.trace_from_table, _fit_trace_file)}
    rows: list = []
    for name in files:
        path = Path(name)
        try:
            header, body = read_table(path, numeric=(cnd.SweepRecord.CSV_HEADER,))
            if header not in loaders:
                raise FitError(f"{path}: unrecognized header {header!r}")
            load, fit = loaders[header]
            data = load(header, body)
        except OSError as exc:
            raise FitError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:  # a format fault, a non-numeric cell or a non-finite value
            raise FitError(f"{path}: malformed row: {exc}") from exc
        fit(config, path, data, rows)
    write_table(out / "fit_report.csv", ("file", "model", "parameter", "value"), rows)
    for row in rows:
        print(" ".join(str(c) for c in row))
    print(f"wrote {out / 'fit_report.csv'}")


def cmd_xbar(config: SimConfig, out: Path, n_writes: int) -> None:
    """Program, read and disturb-count a crossbar of the configured geometry."""
    params = config.device
    xbar = xb.Crossbar.create(config.crossbar.rows, config.crossbar.cols, params, config.variability,
                              var.derive_seed(config.seed, STREAM_VARIABILITY))
    rng = np.random.default_rng(var.derive_seed(config.seed, STREAM_WORKLOAD))

    # Closed-loop programming of a random mid-range pattern.
    t_norm = rng.uniform(0.3, 0.95, size=xbar.w.shape)
    target = params.g_hrs + t_norm * (params.g_lrs - params.g_hrs)
    report = xb.program_write_verify(xbar, target, tol=0.05)
    write_table(out / "xbar_program.csv", ("metric", "value"), [
        ["rows", xbar.rows],
        ["cols", xbar.cols],
        ["converged_fraction", _fmt(report.converged_fraction)],
        ["mean_iterations", _fmt(report.mean_iterations)],
        ["max_iterations", report.max_iterations],
        ["clipped_cells", report.clipped_cells],
    ])

    # One analog read with a random input vector.
    v_in = dev.PULSE_READ_VOLTAGE * rng.uniform(-1.0, 1.0, size=xbar.rows)
    currents = xb.read_vmm(xbar, v_in)
    write_table(out / "xbar_read.csv", ("col", "current_A"),
                [[j, _fmt(i)] for j, i in enumerate(currents)])

    # Random single-cell writes under the half-bias scheme, drawn as arrays, applied in order.
    rows = rng.integers(xbar.rows, size=n_writes)
    cols = rng.integers(xbar.cols, size=n_writes)
    amps = np.where(rng.random(n_writes) < 0.5, params.v_set_full, params.v_reset_full)
    disturbed = xb.write_cells(xbar, rows, cols, amps).disturbed
    sneak = xb.sneak_ratio(xbar, xbar.rows // 2, xbar.cols // 2, 0.5)
    write_table(out / "xbar_disturb.csv", ("metric", "value"), [
        ["writes", n_writes],
        ["disturbed_cells", disturbed],
        ["sneak_ratio_at_0.5V", _fmt(sneak)],
    ])
    xbar.snapshot_csv(out / "xbar_snapshot.csv")
    print(f"wrote {out / 'xbar_program.csv'}, xbar_read.csv, xbar_disturb.csv, xbar_snapshot.csv")


def cmd_infer(config: SimConfig, out: Path, x: np.ndarray, y: np.ndarray, n_seeds: int,
              hidden: list[int], mode: str) -> None:
    """Analog-vs-float accuracy over Monte-Carlo device replicas."""
    n_classes = int(y.max()) + 1
    spec = inf.MLPSpec((x.shape[1], *hidden, n_classes))
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        weights = inf.train_mlp(x, y, spec, seed=var.derive_seed(config.seed, STREAM_TRAINING))
    if not all(np.isfinite(w).all() for w in weights):
        raise ConfigError("training diverged; scale the dataset features to about [-1, 1]")

    rows = []
    per_class_header = [f"class_{k}_analog" for k in range(n_classes)]
    baseline = inf.float_forward(weights, x)
    seeds = [var.derive_seed(config.seed, STREAM_EVAL_BASE + s) for s in range(n_seeds)]
    reports = []
    for lo in range(0, n_seeds, REPLICAS_PER_PASS):  # a group is dropped once evaluated
        reports += [inf.evaluate(net, x, y, baseline) for net in inf.program_network(
            weights, config.device, config.variability, seeds[lo:lo + REPLICAS_PER_PASS], mode)]
    for s, report in enumerate(reports):
        rows.append([s, _fmt(report.analog_accuracy), _fmt(report.baseline_accuracy),
                     _fmt(report.degradation_points)]
                    + [_fmt(a) for a in report.per_class_analog])
        print(f"seed {s}: analog {report.analog_accuracy:.4f} "
              f"baseline {report.baseline_accuracy:.4f} "
              f"degradation {report.degradation_points:+.2f} points")
    write_table(out / "infer_report.csv",
                ("seed", "analog_accuracy", "baseline_accuracy", "degradation_points",
                 *per_class_header), rows)
    print(f"wrote {out / 'infer_report.csv'}")


def cmd_bench(config: SimConfig, out: Path) -> None:
    """One-page device summary, every figure computed from simulation."""
    params = config.device
    p = params.conduction
    t_ref = p.t_ref

    i_lrs = cnd.current(0.1, params.g_lrs, t_ref, p)
    i_hrs = cnd.current(0.1, params.g_hrs, t_ref, p)
    r_on = 0.1 / i_lrs

    trace = dev.run_sequence(params.n_levels, params.n_levels, params)
    pot = [pt for pt in trace if pt.direction == "potentiation"]
    dep = [pt for pt in trace if pt.direction == "depression"]
    nu_p = dev.fit_update_curve([pt.count for pt in pot], [pt.conductance for pt in pot]).nu
    nu_d = dev.fit_update_curve([pt.count for pt in dep], [pt.conductance for pt in dep]).nu

    e_dep = dev.write_energy(params.g_hrs, params.v_reset_full, params.t_width_ref)
    e_pot = dev.write_energy(params.g_lrs, params.v_set_full, params.t_width_ref)

    rng = np.random.default_rng(var.derive_seed(config.seed, STREAM_VARIABILITY))
    steps = dev.truncated_normal(rng, config.variability.sigma_c2c, size=10_000)
    c2c = float(np.std(steps))
    g_hrs_pop, _ = var.sample_endpoint_arrays(10_000, params, config.variability, rng)
    d2d = float(np.std(np.log(g_hrs_pop)))

    coercive_field_mv_cm = params.coercive_field / 1e6
    loop = dev.hysteresis_loop(params, params.v_set_full - 0.4, params.v_reset_full + 0.6, 101)
    _, _, window = dev.extract_memory_window(loop)

    rows = [
        ("nonlinearity_potentiation", f"{nu_p:.3g}", "dimensionless"),
        ("nonlinearity_depression", f"{-nu_d:.3g}", "dimensionless"),
        ("r_on", _fmt(r_on), "ohm"),
        ("on_off", _fmt(i_lrs / i_hrs), "dimensionless"),
        ("depression_write", f"{params.v_reset_full:g} V / {params.t_width_ref:g} s", ""),
        ("potentiation_write", f"{params.v_set_full:g} V / {params.t_width_ref:g} s", ""),
        ("depression_energy", _fmt(e_dep), "J"),
        ("potentiation_energy", _fmt(e_pot), "J"),
        ("cycle_to_cycle_sigma", _fmt(c2c), "relative"),
        ("device_to_device_sigma", _fmt(d2d), "ln(S)"),
        ("memory_window", _fmt(window), "V"),
        ("coercive_field", f"{coercive_field_mv_cm:.3g}", "MV/cm"),
        ("nonlinearity_ratio_0.5V", _fmt(cnd.nonlinearity_ratio(0.5, t_ref, p)), "dimensionless"),
        ("area", f"{params.area:g}", "um^2"),
    ]
    write_table(out / "bench.csv", ("metric", "value", "unit"), rows)
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value} {unit}".rstrip())
    print(f"wrote {out / 'bench.csv'}")


def _count(minimum: int):
    """argparse type for an integer count of at least ``minimum``."""
    def count(raw: str) -> int:
        if int(raw) < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {raw!r}")
        return int(raw)
    return count


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # Registered on the main parser and again on every subparser (with
    # suppressed defaults) so the flags work on either side of the subcommand.
    kwargs = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--config", help="JSON config file (defaults used when omitted)", **kwargs)
    parser.add_argument("--seed", type=int, help="master seed overriding the config", **kwargs)
    parser.add_argument("--out", help="output directory (default from config)", **kwargs)
    parser.add_argument("--temps", help="comma-separated temperatures in K (iv)", **kwargs)


def _help_formatter(prog: str) -> argparse.HelpFormatter:
    # A fixed width: argparse otherwise asks the terminal for its size every
    # time it makes a formatter, once per add_argument.
    return argparse.HelpFormatter(prog, width=80)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ftjsim",
        description="Ferroelectric analog-memory simulator: device, array and inference studies.",
        formatter_class=_help_formatter,
    )
    _add_common_flags(parser, suppress=False)
    parser.set_defaults(config=None, seed=None, out=None, temps=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, formatter_class=_help_formatter)
        _add_common_flags(p, suppress=True)
        return p

    add_command("iv", "endpoint I(V) grid across temperatures")
    p_pulse = add_command("pulse", "potentiation/depression staircase trace")
    p_pulse.add_argument("--pot", type=int, help="potentiation pulse count (default n_levels)")
    p_pulse.add_argument("--dep", type=int, help="depression pulse count (default n_levels)")
    p_fit = add_command("fit", "extract parameters from sweep/trace CSVs")
    p_fit.add_argument("files", nargs="+", help="sweep or trace CSV files")
    p_xbar = add_command("xbar", "program/read/disturb a crossbar")
    p_xbar.add_argument("--writes", type=_count(0), default=1000, help="random write count")
    p_infer = add_command("infer", "analog inference accuracy report")
    p_infer.add_argument("--dataset", help="dataset CSV (bundled blobs when omitted)")
    p_infer.add_argument("--seeds", type=_count(1), default=10, help="Monte-Carlo replicas")
    p_infer.add_argument("--hidden", default="24",
                         help="comma-separated hidden layer widths ('' for linear)")
    p_infer.add_argument("--mode", default="open_loop",
                         choices=("continuous", "open_loop", "write_verify"))
    add_command("bench", "one-page simulated device summary")
    return parser


def _resolve(args: argparse.Namespace, config: SimConfig):
    """The chosen command as a function of the output directory, its argv values checked.

    Every refusal that needs no work done comes from here, before the output
    directory is made.
    """
    if args.temps is not None and args.command != "iv":
        raise ConfigError(f"--temps is read by iv only, not by {args.command} "
                          f"(got {args.temps!r})")
    if args.command == "iv":
        temps = _parse_temps(args.temps, config.device.conduction)
        return lambda out: cmd_iv(config, out, temps)
    if args.command == "pulse":
        n_pot, n_dep = _pulse_counts(args.pot, args.dep, config.device)
        return lambda out: cmd_pulse(config, out, n_pot, n_dep)
    if args.command == "fit":
        return lambda out: cmd_fit(config, out, args.files)
    if args.command == "xbar":
        if args.writes > MAX_WRITES:
            raise ConfigError(f"--writes must be <= {MAX_WRITES}, got {args.writes}")
        return lambda out: cmd_xbar(config, out, args.writes)
    if args.command == "infer":
        if args.seeds > MAX_SEEDS:
            raise ConfigError(f"--seeds must be <= {MAX_SEEDS}, got {args.seeds}")
        hidden = _parse_hidden(args.hidden)
        try:
            x, y = inf.load_dataset_csv(args.dataset) if args.dataset else inf.make_blobs_dataset()
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read --dataset {args.dataset}: {exc}") from exc
        inf.check_read_voltage(config.device)
        return lambda out: cmd_infer(config, out, x, y, args.seeds, hidden, args.mode)
    return lambda out: cmd_bench(config, out)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        run = _resolve(args, config)
        out = Path(args.out) if args.out else Path(config.output_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        run(out)
    except ConfigError as exc:
        print(f"ftjsim: config-error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"ftjsim: fit-error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"ftjsim: convergence-error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
