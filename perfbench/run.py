"""The nomacast benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see workloads.py for why each exists): ``mc_direct``,
``mc_full_matrix``, ``analytic`` and ``sweep_pooled``.  The program is
imported from ``src/`` of the current directory and driven through
``nomacast.cli.run_scenario``; the benchmark exits with code 2 when there
is no ``src/nomacast`` to import.

One invocation:

1. ``--trace 0`` only: times ``import nomacast.cli`` plus preset resolution
   in fresh interpreters (``setup_s``, median of several).
2. Runs the workload once, untimed, as warm-up; for a pooled workload a
   second untimed run uses ``workers=1``.
3. Repeats the workload at the same seed for ``--seconds`` and reports
   medians.  Afterwards every run's CSVs must be byte-identical to the
   first run's (the determinism check).  With
   ``--trace 1`` it alternates untraced and traced runs and reports
   per-layer numbers from the traced ones (see tracing.py).
4. Checks every output of every run (workloads.check_run); each
   (variant, SNR, metric) row is one attempted operation.

Human-readable lines (metrics with units and sample counts, provenance,
CSV sha256, the ROADMAP baseline comparison) come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
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
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
MIN_RUNS = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "rng.window_bits.s": "s", "rng.words": "count",
    "rng.bits_to_exponential.s": "s", "rng.bits_to_normal.s": "s",
    "channel.channels_from_normals.s": "s",
    "transmission.power_fraction.s": "s", "transmission.time_fraction.s": "s",
    "transmission.rates.s": "s",
    "montecarlo.estimate_many.s": "s", "montecarlo.self.s": "s",
    "montecarlo.ms_per_chunk": "ms", "montecarlo.pool_starts": "count",
    "montecarlo.pool_efficiency": "1",
    "analysis.unicast_outage_prob.s": "s", "analysis.secrecy_outage_prob.s": "s",
    "analysis.ms_per_point": "ms",
    "cli.self.s": "s", "cli.emit_csv.s": "s", "cli.csv_bytes": "bytes",
    "trace_overhead_frac": "1",
}
# Per-2^16-chunk and per-point costs recorded in ROADMAP.md at the seed
# commit (M=10, K=11), set beside the first traced numbers.
ROADMAP_BASELINE = {
    "fig1": ("montecarlo.ms_per_chunk (direct_gains)", 79.0),
    "fig3_random": ("montecarlo.ms_per_chunk (full_matrix)", 955.0),
    "secrecy": ("analysis.ms_per_point (secrecy, na=500)", 25.0),
}

_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import workloads
workloads.scenarios(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3] == "1")
print(time.perf_counter() - t0, workloads.cli.__file__)
"""


@dataclass
class Run:
    workers: int
    traced: bool
    wall: float
    cpu: float
    files: dict
    reports: list
    error: str | None
    spans: object = None            # tracing.Tracer of a traced run
    per_variant_mc: dict = field(default_factory=dict)


def _cpu_seconds() -> float:
    """User+system CPU of this process and of every child it has waited for."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def measure_setup(root: Path, workload: str, seed: int, smoke: bool, probes: int):
    """Median wall time of import + scenario resolution in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(root / "src")]))
    times = []
    for _ in range(probes):
        out = subprocess.run([sys.executable, "-c", _SETUP_PROBE, workload, str(seed),
                              "1" if smoke else "0"], cwd=root, env=env, text=True,
                             capture_output=True, check=True, timeout=120).stdout.split()
        if not Path(out[1]).resolve().is_relative_to(root / "src"):
            raise RuntimeError(f"setup probe imported nomacast from {out[1]}")
        times.append(float(out[0]))
    return times


class Bench:
    def __init__(self, root: Path, workload, seed: int, smoke: bool):
        import tracing
        import workloads as wl
        self.tracing, self.wl = tracing, wl
        self.root = root
        self.workload = workload
        self.variants = wl.scenarios(workload, seed, smoke)
        self.reference = wl.load_reference()
        self.ops = wl.operations(self.variants, workload.mode, self.reference)
        self.out = root / ".perfbench_out" / f"{workload.name}-{os.getpid()}"
        self.runs = []
        self.timed_from = 0
        self.absent = set()

    @property
    def timed(self):
        return self.runs[self.timed_from:]

    def run_once(self, workers: int, traced: bool) -> Run:
        """One workload run, from the resolved scenarios to CSVs and report written."""
        cli = self.wl.cli
        out_dir = self.out / f"run{len(self.runs)}"
        out_dir.mkdir(parents=True)
        tracer = self.tracing.Tracer() if traced else None
        reports, per_variant = [], {}

        def body():
            for v in self.variants:
                before = tracer.totals["montecarlo.estimate_many"] if tracer else 0.0
                report, _ = cli.run_scenario(v, out_dir=out_dir, mode=self.workload.mode,
                                             workers=workers)
                reports.append(report)
                if tracer:
                    per_variant[v.name] = tracer.totals["montecarlo.estimate_many"] - before
            text = "\n\n".join(r.render() for r in reports) + "\n"
            (out_dir / f"{self.workload.name}_report.txt").write_text(text)

        error = None
        c0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            if tracer:
                with self.tracing.installed(tracer) as absent:
                    self.absent.update(absent)
                    tracer.call("cli.run", "cli", body)
            else:
                body()
        except Exception:  # a crash fails every operation of the run; keep measuring
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        shutil.rmtree(out_dir)
        run = Run(workers, traced, wall, cpu, files, reports, error, tracer, per_variant)
        self.runs.append(run)
        return run

    def repeat(self, kinds, seconds: float):
        """Cycle through (workers, traced) kinds for ``seconds``, MIN_RUNS cycles at least."""
        deadline = time.perf_counter() + seconds
        cycles = 0
        while cycles < MIN_RUNS or time.perf_counter() < deadline:
            for workers, traced in kinds:
                self.run_once(workers, traced)
            cycles += 1

    def check(self):
        """(attempted, failed, rms MC standard error, runs whose CSVs differ from
        run 0, notes) over every run so far."""
        wl, ops = self.wl, set(self.ops)
        first = self.runs[0]
        failed, rms_se, differ, notes = 0, None, 0, []
        for i, run in enumerate(self.runs):
            if run.error is not None:
                bad = set(ops)
            else:
                try:
                    bad, rms = wl.check_run(self.variants, self.workload.mode, run.files,
                                            run.reports, self.reference)
                except (ValueError, KeyError, UnicodeDecodeError) as exc:
                    bad, rms = set(ops), None
                    notes.append(f"run {i}: unreadable output ({exc!r})")
                rms_se = rms if rms_se is None else rms_se
            if i > 0:
                mismatch = wl.differing_operations(first.files, run.files)
                if mismatch:
                    differ += 1
                    notes.append(f"run {i} (workers={run.workers}): {len(mismatch)} "
                                 f"operations differ from run 0")
                bad |= mismatch
            failed += len(bad & ops)
            if bad:
                notes.append(f"run {i}: failed {sorted(bad)[:5]}")
        return len(ops) * len(self.runs), failed, rms_se, differ, notes

    def clean(self):
        shutil.rmtree(self.out, ignore_errors=True)
        try:
            self.out.parent.rmdir()
        except OSError:
            pass


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _line(name, value, unit, detail=""):
    print(f"  {name:<34} {value:>14.6g} {unit:<6} {detail}")


def end_to_end(bench: Bench, setup_times, rms_se):
    timed = [r for r in bench.timed if r.error is None]
    walls = [r.wall for r in timed]
    wall = _median(walls)
    ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": wall,
        "cpu_s": _median(r.cpu for r in timed),
        "peak_rss_mb": max(ru_self, ru_children) / 1024.0,
        "setup_s": _median(setup_times),
    }
    n = f"(median of {len(timed)} runs)"
    print("end-to-end metrics (tracing off):")
    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else [wall] * 3
    _line("wall_s", metrics["wall_s"], "s", f"{n}, quartiles {quartiles[0]:.4g} .. "
          f"{quartiles[2]:.4g} s, max {max(walls, default=0):.4g} s")
    _line("cpu_s", metrics["cpu_s"], "s", f"{n}, parent + pool workers")
    _line("peak_rss_mb", metrics["peak_rss_mb"], "MiB", "max over parent and workers")
    _line("setup_s", metrics["setup_s"], "s", f"(median of {len(setup_times)} "
          "fresh interpreters)")
    realizations = bench.wl.realizations(bench.workload, bench.variants)
    analytic_rows = sum(1 for name, data in bench.runs[0].files.items()
                        if name.endswith(".csv")
                        for line in data.decode().splitlines() if ",analytic," in line)
    if wall > 0 and realizations:
        _line("realizations_per_s", realizations / wall, "1/s", n)
    if wall > 0 and bench.workload.mode == "analytic":
        _line("analytic_points_per_s", analytic_rows / wall, "1/s", n)
    if rms_se is not None:
        _line("time_to_se_s", wall * (rms_se / 1e-3) ** 2, "s",
              f"rms_se={rms_se:.4g} over the MC rows")
    return metrics


def per_layer(bench: Bench):
    wl, workload = bench.wl, bench.workload
    layer_runs = [r for r in bench.timed if r.traced and r.workers == 1 and r.error is None]
    realizations = wl.realizations(workload, bench.variants)

    def med(fn, runs=layer_runs):
        return _median(fn(r.spans) for r in runs)

    def per_call(keys):
        def fn(t):
            calls = sum(t.calls[k] for k in keys)
            return 1000.0 * sum(t.totals[k] for k in keys) / calls if calls else 0.0
        return fn

    rates = ("transmission.noma_rate", "transmission.oma_rate", "transmission.secrecy_rate")
    analysis = ("analysis.unicast_outage_prob", "analysis.secrecy_outage_prob")
    metrics = {f"{k}.s": med(lambda t, k=k: t.totals[k]) for k in (
        "rng.window_bits", "rng.bits_to_exponential", "rng.bits_to_normal",
        "channel.channels_from_normals", "transmission.power_fraction",
        "transmission.time_fraction", "montecarlo.estimate_many", "cli.emit_csv",
        *analysis)}
    metrics["rng.words"] = med(lambda t: t.counts["rng.words"])
    metrics["transmission.rates.s"] = med(lambda t: sum(t.totals[k] for k in rates))
    metrics["montecarlo.self.s"] = med(lambda t: t.self_time["montecarlo"])
    metrics["montecarlo.ms_per_chunk"] = (
        1000.0 * metrics["montecarlo.estimate_many.s"] * wl.CHUNK / realizations
        if realizations else 0.0)
    metrics["analysis.ms_per_point"] = med(per_call(analysis))
    metrics["cli.self.s"] = med(lambda t: t.self_time["cli"])
    metrics["cli.csv_bytes"] = float(sum(len(d) for name, d in bench.runs[0].files.items()
                                         if name.endswith(".csv")))

    w = workload.workers
    own = [r for r in bench.timed if r.workers == w and r.error is None]
    traced_own = [r for r in own if r.traced]
    metrics["montecarlo.pool_starts"] = med(lambda t: t.counts["montecarlo.pool_starts"],
                                            traced_own)
    metrics["montecarlo.pool_efficiency"] = 0.0
    if w > 1:
        est_w = med(lambda t: t.totals["montecarlo.estimate_many"], traced_own)
        if est_w > 0:
            metrics["montecarlo.pool_efficiency"] = (
                metrics["montecarlo.estimate_many.s"] / (w * est_w))
    untraced = _median(r.wall for r in own if not r.traced)
    metrics["trace_overhead_frac"] = (_median(r.wall for r in traced_own) / untraced - 1.0
                                      if untraced > 0 else 0.0)

    print(f"per-layer metrics (traced, workers=1, median of {len(layer_runs)} runs; "
          f"pool metrics and overhead at workers={w}):")
    for name, unit in PER_LAYER_UNITS.items():
        _line(name, metrics[name], unit)
    if bench.absent:
        print(f"  absent hooks (reported as 0): {', '.join(sorted(bench.absent))}")
    _baseline(bench, layer_runs)
    return metrics


def _baseline(bench: Bench, layer_runs):
    """Set the traced per-chunk and per-point costs beside the ROADMAP numbers."""
    for v in bench.variants:
        if v.name in ROADMAP_BASELINE and bench.workload.mode != "analytic":
            label, ref = ROADMAP_BASELINE[v.name]
            chunks = v.samples * len(v.snr_grid_db) / bench.wl.CHUNK
            _compare(label, 1000.0 * _median(r.per_variant_mc[v.name]
                                             for r in layer_runs) / chunks, ref)
    key = "analysis.secrecy_outage_prob"
    if any(r.spans.calls[key] for r in layer_runs):
        label, ref = ROADMAP_BASELINE["secrecy"]
        _compare(label, _median(1000.0 * r.spans.totals[key] / r.spans.calls[key]
                                for r in layer_runs), ref)


def _compare(label, value, ref):
    ratio = value / ref
    flag = "  GAP > 2x, reported" if not 0.5 <= ratio <= 2.0 else ""
    print(f"  baseline {label}: {value:.4g} ms here vs {ref:g} ms in ROADMAP "
          f"({ratio:.2f}x){flag}")


def provenance(bench: Bench, seed: int):
    import multiprocessing

    import numpy
    import scipy
    files = bench.runs[0].files
    return {
        "workload": bench.workload.name, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "commit": _git_commit(bench.root),
        "csv_sha256": bench.wl.csv_sha256(files),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nomacast benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sample counts and SNR grids, for the benchmark's tests")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "nomacast" / "__init__.py").is_file():
        print(f"perfbench: no src/nomacast under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < wl.MAX_SEED or args.seconds <= 0:
        print("perfbench: need 0 <= seed < 2**32 and seconds > 0", file=sys.stderr)
        return 2
    if not Path(wl.cli.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported nomacast from {wl.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    setup_times = []
    if args.trace == 0:
        setup_times = measure_setup(root, args.workload, args.seed, args.smoke,
                                    1 if args.smoke else SETUP_PROBES)
    workload = wl.WORKLOADS[args.workload]
    bench = Bench(root, workload, args.seed, args.smoke)
    try:
        bench.run_once(workload.workers, False)
        if workload.workers > 1:
            bench.run_once(1, False)
        bench.timed_from = len(bench.runs)
        kinds = [(workload.workers, False)]
        if args.trace:
            kinds += [(workload.workers, True)] + ([(1, True)] if workload.workers > 1 else [])
        bench.repeat(kinds, args.seconds)
    finally:
        bench.clean()

    attempted, failed, rms_se, differ, notes = bench.check()
    print(f"perfbench {workload.name}: {workload.why}")
    print("provenance: " + json.dumps(provenance(bench, args.seed), sort_keys=True))
    print(f"determinism: {len(bench.runs) - 1 - differ} of {len(bench.runs) - 1} runs "
          f"(workers {sorted({r.workers for r in bench.runs})}) byte-identical to run 0")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    units = END_TO_END_UNITS
    metrics = end_to_end(bench, setup_times, rms_se) if args.trace == 0 else per_layer(bench)
    if args.trace:
        units = PER_LAYER_UNITS
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
