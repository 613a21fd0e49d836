"""ftjsim benchmark: one closed-loop caller drives ``ftjsim.cli.main`` in-process.

Usage, from the repository root:

    python3 benchmarks/run.py --workload array_64 --seed 12345 --seconds 30 --trace 0

Each iteration issues the workload's commands one after another, each only
after the previous one returned, and then checks their outputs.  With
``--trace 0`` it reports host-time end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced iterations and reports per-layer metrics from
spans around every public function of the ftjsim modules.  The last line of
standard output is one JSON object; a results file, and with tracing the
spans, go to ``.bench_out/<workload>/seed<seed>-trace<0|1>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# One caller on small matrices: a single BLAS thread keeps timings steady.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
MIN_ITERATIONS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Run in a fresh interpreter: the cost a user pays before the first command.
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import ftjsim.cli
t1 = time.perf_counter()
ftjsim.cli.load_config()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1}))
"""


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-s", *args], cwd=ROOT,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)


def measure_setup(samples: int) -> list[dict]:
    """Import of ftjsim.cli plus load_config(), each in a fresh interpreter."""
    return [json.loads(_run_child(["-c", SETUP_CODE, str(SRC)]).stdout) for _ in range(samples)]


def scipy_optimize_import_frac() -> float:
    """Share of ``import ftjsim.cli`` spent importing scipy.optimize, from one
    fresh interpreter's ``-X importtime`` cumulative times."""
    proc = _run_child(["-X", "importtime", "-c",
                       f"import sys; sys.path.insert(0, {str(SRC)!r}); import ftjsim.cli"])
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
        if len(fields) == 3 and fields[1].isdigit():
            cumulative[fields[2]] = int(fields[1])
    return cumulative.get("scipy.optimize", 0) / cumulative["ftjsim.cli"]


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "workload_seed": seed,
    }


def tree_digest(path: Path) -> dict[str, str]:
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


class Runner:
    """Runs iterations of one workload and keeps every check outcome."""

    def __init__(self, cli, workload, seed: int, run_dir: Path, truth: dict):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.inputs = run_dir / "inputs"
        self.iter_dir = run_dir / "iteration"
        self.truth = truth
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.command_s: dict[str, list[float]] = {}

    def _record(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def iteration(self) -> float:
        """Issue the workload's commands; return their host seconds, then check outputs."""
        shutil.rmtree(self.iter_dir, ignore_errors=True)
        self.iter_dir.mkdir(parents=True)
        commands = self.workload.commands(self.inputs, self.iter_dir)
        codes = []
        gc.collect()
        start = time.perf_counter()
        for label, argv in commands:
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = self.cli.main(["--seed", str(self.seed), "--out",
                                          str(self.iter_dir / label), *argv])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash counts as a failed command
                code = traceback.format_exc(limit=3)
            self.command_s.setdefault(label, []).append(time.perf_counter() - t0)
            codes.append((label, code, sink.getvalue()))
        wall = time.perf_counter() - start
        for label, code, output in codes:
            self._record(f"{self.workload.name}.{label}.exit_0", code == 0,
                         f"exit {code!r}: {output.strip()[-300:]}")
        if all(code == 0 for _, code, _ in codes):
            try:
                for check in self.workload.check(self.iter_dir, self.truth):
                    self._record(*check)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                self._record(f"{self.workload.name}.outputs_readable", False, repr(exc))
        digest = tree_digest(self.iter_dir)
        if self.reference is None:
            self.reference = digest
        else:
            changed = sorted(k for k in digest.keys() | self.reference.keys()
                             if digest.get(k) != self.reference.get(k))
            self._record(f"{self.workload.name}.byte_identical", not changed,
                         f"differs from the first iteration: {changed}")
        return wall


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    q = int(100 * (n - 10) / n)
    return q, statistics.quantiles(samples, n=100)[q - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ftjsim" / "cli.py").is_file():
        print(f"benchmark: no ftjsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("benchmark: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)

    import layers
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = OUT / workload.name / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)

    import ftjsim.cli
    env = environment(args.seed)
    setup = measure_setup(SETUP_SAMPLES)
    truth = workload.prepare(args.seed, run_dir / "inputs")
    runner = Runner(ftjsim.cli, workload, args.seed, run_dir, truth)

    untraced: list[float] = []
    traced: list[float] = []
    tracer = spans.Tracer(layers.COUNTERS)
    layer_modules = [sys.modules[f"ftjsim.{name}"] for name in layers.LAYERS]
    deadline = time.perf_counter() + args.seconds

    def time_left(step_s: float) -> bool:
        # Start another step only if it would end less than half a step late.
        return time.perf_counter() + 0.5 * step_s < deadline

    if args.trace:
        # Alternate, so both sides see the same drift in machine load.
        while not traced or time_left(statistics.median(untraced) + statistics.median(traced)):
            untraced.append(runner.iteration())
            tracer.iteration = len(traced)
            tracer.install(layer_modules, "ftjsim")
            try:
                traced.append(runner.iteration())
            finally:
                tracer.uninstall()
    else:
        while len(untraced) < MIN_ITERATIONS or time_left(statistics.median(untraced)):
            untraced.append(runner.iteration())

    failed = len(runner.failures)
    attempted = runner.attempted
    median_wall = statistics.median(untraced)
    report = {
        "workload": workload.name, "why": workload.why, "trace": args.trace,
        "environment": env, "inputs": truth,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "failures": runner.failures,
        "wall_s_samples": untraced, "command_s_samples": runner.command_s,
        "setup_samples": setup,
    }
    if args.trace:
        tables = spans.span_tables(tracer.spans)
        per_iteration = [layers.iteration_metrics(*tables[i], tracer.counts, i, wall)
                         for i, wall in enumerate(traced)]
        values = {name: statistics.median(v[name] for v in per_iteration)
                  for name in per_iteration[0]}
        values["config.load_config.s"] = statistics.median(s["load_config_s"] for s in setup)
        values["import.s"] = statistics.median(s["import_s"] for s in setup)
        values["import.scipy_optimize_frac"] = scipy_optimize_import_frac()
        values["trace.overhead_frac"] = statistics.median(traced) / median_wall - 1.0
        units = layers.PER_LAYER
        last = tables[len(traced) - 1][0]
        report["traced_wall_s_samples"] = traced
        report["span_table_last_iteration"] = dict(sorted(last.items()))
        report["top_self_s"] = sorted(((row["self_s"], name) for name, row in last.items()),
                                      reverse=True)[:10]
        tracer.write_csv(run_dir / "spans.csv")
    else:
        values = {
            "wall_s": median_wall,
            "setup_s": statistics.median(s["import_s"] + s["load_config_s"] for s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        tail = tail_percentile(untraced)
        if tail:
            report["wall_s_tail"] = {"percentile": tail[0], "value": tail[1]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["metrics"] = metrics
    (run_dir / "results.json").write_text(json.dumps(report, indent=1))

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"iterations {len(untraced)} untraced, {len(traced)} traced")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(f"error_rate {failed / attempted} ratio ({failed} of {attempted} commands and checks)")
    print(f"wall_s samples {len(untraced)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
