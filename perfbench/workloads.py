"""Benchmark workloads, the correctness gate and the determinism check.

A workload is a list of preset scenario variants plus a run mode and a
worker count.  The workload seed becomes the scenario seed; the program
under test only ever sees the resulting ``Scenario`` objects, handed to
``nomacast.cli.run_scenario``.

Every (variant, SNR, metric) triple that a run must produce is one
operation.  An operation fails when its CSV row is missing or not finite,
when a Monte Carlo row lies further than ``max(abs_tol, 4 * combined SE)``
from the stored reference, when an analytic row lies further than the
quadrature tolerance from the stored closed form, or when the CLI's own
analytic-vs-Monte-Carlo comparison reports FAIL for it.  The gate is
statistical rather than byte-pinned, so a change that re-streams the
random numbers still passes it.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from nomacast import cli

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Workload seeds are scenario seeds in [0, MAX_SEED); the references are
# drawn at REF_SEED, which no workload can use.
MAX_SEED = 1 << 32
REF_SEED = (1 << 40) + 7

# A 2^16-realization chunk, the unit in which per-realization cost is quoted.
CHUNK = 1 << 16

# Tolerances in probability units; outage-rate rows scale them by the target.
MC_ABS_TOL = 0.002
MC_SIGMAS = 4.0
# Largest quadrature error of the presets' own node counts against the
# refined references is ~1.7e-4 (fig1, na=20), so 1e-3 leaves headroom for
# a legitimate change of quadrature while catching a wrong formula.
ANALYTIC_TOL = 1e-3

SMOKE_SAMPLES = 2048


@dataclass(frozen=True)
class Workload:
    name: str
    variants: tuple      # (preset, variant name)
    mode: str
    workers: int
    samples: int | None  # None keeps the preset's budget (no Monte Carlo)
    why: str
    snr_grid_db: tuple | None = None  # None keeps the preset's grid


WORKLOADS = {w.name: w for w in (
    Workload("mc_direct", (("fig1", "fig1"),), "mc", 1, 1 << 17,
             "direct_gains sampling: rng, transmission kernel and montecarlo "
             "reduction do the work; channel, analysis and the pool stay idle"),
    # One whole 2^16 chunk per point, as in a preset run, on the SNR points
    # where no outage of either variant is trivially 0 or 1.
    Workload("mc_full_matrix", (("fig2", "fig2_sched"), ("fig3", "fig3_random")),
             "mc", 1, CHUNK,
             "full_matrix sampling, scheduling at M=2 and a random OMA "
             "beamformer at M=10: ndtri and the channel projection dominate",
             snr_grid_db=(20.0, 24.0, 28.0)),
    Workload("analytic", (("fig1", "fig1"), ("fig4", "fig4_rs1"), ("fig4", "fig4_rs2"),
                          ("fig4", "fig4_rs3")), "analytic", 1, None,
             "closed forms only, mostly the na=500 nested secrecy quadrature; "
             "the control for every Monte Carlo change"),
    Workload("sweep_pooled", (("fig1", "fig1"),), "both", 2, 1 << 17,
             "two 2^16 chunks per SNR point at workers=2: a process pool per "
             "grid point, the comparison and the CSV/report path"),
)}


def scenarios(workload: Workload, seed: int, smoke: bool = False):
    """The Scenario variants of a workload, derived from the workload seed."""
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be in [0, {MAX_SEED}), got {seed}")
    out = []
    for preset, variant in workload.variants:
        resolved, _ = cli.resolve_scenarios(preset)
        scenario = next(s for s in resolved if s.name == variant)
        updates = {"seed": seed}
        if workload.snr_grid_db is not None:
            updates["snr_grid_db"] = workload.snr_grid_db
        if workload.samples is not None:
            updates["samples"] = SMOKE_SAMPLES if smoke else workload.samples
        if smoke:
            grid = updates.get("snr_grid_db", scenario.snr_grid_db)
            updates["snr_grid_db"] = tuple(sorted(grid))[::5]
        out.append(replace(scenario, **updates))
    return out


def realizations(workload: Workload, variants) -> int:
    """Monte Carlo realizations of one workload run (samples x points x variants)."""
    if workload.mode == "analytic":
        return 0
    return sum(v.samples * len(v.snr_grid_db) for v in variants)


def snr_key(snr_db: float) -> str:
    return f"{snr_db:.9g}"


def ref_key(variant: str, snr_db: float, metric: str) -> str:
    return f"{variant}|{snr_key(snr_db)}|{metric}"


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def metric_scale(scenario, metric: str) -> float:
    """Target rate of an outage-rate metric, 1 for a probability."""
    if metric.startswith("outage_rate_unicast"):
        return scenario.r_u
    if metric.startswith("outage_rate_secrecy"):
        return scenario.r_s
    return 1.0


def expected_methods(mode: str, ref_row: dict):
    methods = []
    if mode in ("analytic", "both") and ref_row["closed_form"]:
        methods.append("analytic")
    if mode in ("mc", "both"):
        methods.append("mc")
    return methods


def operations(variants, mode: str, reference: dict):
    """Every (variant, snr, metric) triple one workload run must produce."""
    ops = []
    for v in variants:
        for snr in v.snr_grid_db:
            for metric in v.metrics:
                key = ref_key(v.name, snr, metric.value)
                ref = reference["rows"].get(key)
                if ref is None or expected_methods(mode, ref):
                    ops.append(key)  # a row without a reference cannot pass
    return ops


def parse_csvs(files: dict) -> dict:
    """CSV rows of one run keyed by (variant, snr, metric, method)."""
    rows = {}
    for name, data in files.items():
        if not name.endswith(".csv"):
            continue
        variant = None
        for rec in csv.DictReader(io.StringIO(data.decode())):
            if variant is None:
                suffix = "_" + rec["metric"] + ".csv"
                variant = name[:-len(suffix)] if name.endswith(suffix) else name
            key = ref_key(variant, float(rec["snr_db"]), rec["metric"])
            rows[key, rec["method"]] = (float(rec["value"]), float(rec["stderr"]))
    return rows


def check_run(variants, mode: str, files: dict, reports, reference: dict):
    """Correctness gate for one workload run.

    Returns (failed operation keys, root-mean-square Monte Carlo standard
    error in probability units, or None without Monte Carlo rows).
    """
    rows = parse_csvs(files)
    failed = set()
    se2 = []
    for v in variants:
        for snr in v.snr_grid_db:
            for metric in v.metrics:
                key = ref_key(v.name, snr, metric.value)
                ref = reference["rows"].get(key)
                if ref is None:
                    failed.add(key)
                    continue
                scale = metric_scale(v, metric.value)
                for method in expected_methods(mode, ref):
                    row = rows.get((key, method))
                    if row is None or not all(math.isfinite(x) for x in row):
                        failed.add(key)
                        continue
                    value, stderr = row
                    diff = abs(value - ref["value"])
                    if method == "mc":
                        se2.append((stderr / scale) ** 2)
                        combined = math.hypot(stderr, ref["stderr"])
                        tol = max(MC_ABS_TOL * scale, MC_SIGMAS * combined)
                    else:
                        tol = ANALYTIC_TOL * scale
                    if not diff <= tol:
                        failed.add(key)
    for v, report in zip(variants, reports):
        for row, verdict in zip(getattr(report, "rows", ()), getattr(report, "verdicts", ())):
            if verdict != "PASS":
                failed.add(ref_key(v.name, row.snr_db, row.metric.value))
    rms_se = math.sqrt(sum(se2) / len(se2)) if se2 else None
    return failed, rms_se


def differing_operations(files_a: dict, files_b: dict) -> set:
    """Operations whose CSV rows are not byte-identical between two runs."""
    if files_a == files_b:
        return set()
    lines = []
    for files in (files_a, files_b):
        out = {}
        for name, data in files.items():
            if name.endswith(".csv"):
                for line in data.decode().splitlines()[1:]:
                    out.setdefault(name, set()).add(line)
        lines.append(out)
    diff = set()
    for name in set(lines[0]) | set(lines[1]):
        changed = lines[0].get(name, set()) ^ lines[1].get(name, set())
        for line in changed:
            snr, metric = line.split(",")[:2]
            diff.add(ref_key(name[:-len("_" + metric + ".csv")], float(snr), metric))
    return diff


def csv_sha256(files: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        if name.endswith(".csv"):
            h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()
