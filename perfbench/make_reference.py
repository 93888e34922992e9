"""Regenerate perfbench/reference.json, the values the correctness gate uses.

Run from the repository root:

    python3 perfbench/make_reference.py

Every (variant, SNR, metric) of every workload gets one reference.  Where a
closed form exists it is the reference, evaluated with far more quadrature
nodes than the presets use.  Otherwise the reference is a Monte Carlo
estimate with many more samples than any workload draws, at REF_SEED, a
seed no workload can use.  Generating the file takes several minutes on
two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from nomacast import cli  # noqa: E402
from nomacast.transmission import LinkConfig  # noqa: E402

import workloads as wl  # noqa: E402

# Node counts for the closed forms; both are converged to ~1e-5 or better.
UNICAST_NA = 2000
SECRECY_NA = 1500
# Pool size for the reference runs; the values do not depend on it.
WORKERS = 2
# Monte Carlo budget per SNR point for metrics without a closed form.
MC_SAMPLES = {"fig1": 1 << 24, "fig2_sched": 1 << 22, "fig3_random": 1 << 22}


def _variants():
    seen = {}
    for workload in wl.WORKLOADS.values():
        for v in wl.scenarios(workload, 0):
            seen.setdefault(v.name, (v, set()))[1].add(workload.mode)
    return seen.values()


def _closed_form(v, metric, snr_db):
    cfg = LinkConfig(10.0 ** (snr_db / 10.0), v.r_m, v.r_u, v.r_s)
    na = SECRECY_NA if "secrecy" in metric.value else UNICAST_NA
    return cli.analytic_value(metric, cfg, v.m, v.k, na, v.scheduling)


def _mc_rows(v):
    scenario = replace(v, samples=MC_SAMPLES[v.name], seed=wl.REF_SEED)
    with tempfile.TemporaryDirectory(dir=ROOT) as out:
        cli.run_scenario(scenario, out_dir=out, mode="mc", workers=WORKERS)
        files = {p.name: p.read_bytes() for p in Path(out).iterdir()}
    return wl.parse_csvs(files)


def main():
    rows = {}
    for v, modes in _variants():
        closed = {(snr, m): _closed_form(v, m, snr)
                  for snr in v.snr_grid_db for m in v.metrics}
        needs_mc = any(x is None for x in closed.values()) and modes != {"analytic"}
        mc = _mc_rows(v) if needs_mc else {}
        for (snr, metric), value in closed.items():
            key = wl.ref_key(v.name, snr, metric.value)
            if value is not None:
                rows[key] = {"value": value, "stderr": 0.0, "closed_form": True}
            elif (key, "mc") in mc:
                value, stderr = mc[key, "mc"]
                rows[key] = {"value": value, "stderr": stderr, "closed_form": False,
                             "samples": MC_SAMPLES[v.name]}
            else:
                rows[key] = {"value": None, "stderr": None, "closed_form": False}
        print(f"{v.name}: {len(closed)} references", file=sys.stderr)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    meta = {"commit": commit, "ref_seed": wl.REF_SEED, "unicast_na": UNICAST_NA,
            "secrecy_na": SECRECY_NA, "mc_samples": MC_SAMPLES,
            "numpy": np.__version__}
    wl.REFERENCE_PATH.write_text(json.dumps({"meta": meta, "rows": rows}, indent=1,
                                            sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
