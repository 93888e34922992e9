"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench -q

The smoke runs use tiny sample counts and SNR grids, so the whole module
takes well under a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          text=True, capture_output=True, timeout=170)


def _smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    stdout, result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert "byte-identical to run 0" in stdout and '"start_method"' in stdout
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_no_program_means_nonzero_exit_and_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "mc_direct", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_gate_fails_a_wrong_value():
    w = wl.WORKLOADS["mc_direct"]
    variants = wl.scenarios(w, 3, smoke=True)
    ref = wl.load_reference()
    v = variants[0]
    rows = ["snr_db,metric,method,value,stderr,ci_low,ci_high"]
    for snr in v.snr_grid_db:
        r = ref["rows"][wl.ref_key(v.name, snr, "unicast_outage")]
        rows.append(f"{snr:.9g},unicast_outage,mc,{r['value'] + 0.05:.9g},0.001,0,1")
    files = {f"{v.name}_unicast_outage.csv": ("\n".join(rows) + "\n").encode()}
    failed, _ = wl.check_run(variants, "mc", files, [], ref)
    ops = wl.operations(variants, "mc", ref)
    assert failed == set(ops)  # shifted rows fail, rows of missing files fail


def test_determinism_mismatch_names_the_operation():
    a = {"fig1_unicast_outage.csv": b"h\n16,unicast_outage,mc,0.5,0.1,0,1\n"}
    b = {"fig1_unicast_outage.csv": b"h\n16,unicast_outage,mc,0.6,0.1,0,1\n"}
    assert wl.differing_operations(a, b) == {"fig1|16|unicast_outage"}
    assert wl.differing_operations(a, a) == set()


def test_missing_hook_target_is_absent_not_an_error():
    hooks = (("transmission.gone", "transmission", "nomacast.transmission",
              "no_such_function", ("nomacast.montecarlo",)),
             ("nowhere.f", "nowhere", "nomacast_no_such_module", "f", ()))
    tracer = tracing.Tracer()
    with tracing.installed(tracer, hooks=hooks, pool_hook=None) as absent:
        assert absent == ["transmission.gone", "nowhere.f"]


def test_hooks_are_restored():
    from nomacast import montecarlo, transmission
    before = (montecarlo.window_bits, transmission.power_fraction,
              montecarlo.ProcessPoolExecutor)
    with tracing.installed(tracing.Tracer()) as absent:
        assert absent == []
        assert montecarlo.window_bits is not before[0]
    assert (montecarlo.window_bits, transmission.power_fraction,
            montecarlo.ProcessPoolExecutor) == before
