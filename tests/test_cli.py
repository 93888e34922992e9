import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import nomacast
from csv_reader import read_csv
from nomacast.cli import (CSV_HEADER, PRESETS, ComparisonReport, ReportRow,
                          ScenarioError, Scenario, emit_csv, load_scenario_file,
                          main, parse_metrics, parse_snr_grid, run_scenario)
from nomacast.montecarlo import MetricKind, SimulationPlan, estimate_many
from nomacast.transmission import LinkConfig


def test_presets_resolvable_and_valid():
    assert set(PRESETS) == {"fig1", "fig2", "fig3", "fig4", "fig5"}
    for variants in PRESETS.values():
        for scenario in variants:
            scenario.validate()
    assert [s.scheduling for s in PRESETS["fig5"]] == [False, True]
    assert [s.r_s for s in PRESETS["fig4"]] == [1.0, 2.0, 3.0]
    assert [s.oma_beamformer for s in PRESETS["fig3"]] == ["mrt", "equal", "random"]


def _python(*argv):
    """Run a fresh interpreter with this package's source on its path."""
    src = Path(nomacast.__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_loads_no_scipy(tmp_path):
    """scipy is slow to import and only the large-shape gamma fallback needs it:
    neither the import nor an analytic run at M <= 100 loads it."""
    for step in ("cli.resolve_scenarios('fig4')",
                 "cli.main(['--scenario', 'fig4', '--mode', 'analytic', '--snr', '10', "
                 f"'--na', '50', '--out', {str(tmp_path)!r}])"):
        run = _python("-c", f"import sys, nomacast.cli as cli; {step}; "
                            "print('scipy' in sys.modules)")
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "False"


_MC_MODULES = ("numpy.random", "concurrent.futures.process")


@pytest.mark.parametrize("step, absent", [
    ("None", _MC_MODULES),
    ("cli.main(['--scenario', 'fig4', '--mode', 'analytic', '--snr', '10', '--na', '50', "
     "'--out', OUT])", _MC_MODULES),
    ("cli.main(['--scenario', 'fig1', '--mode', 'mc', '--snr', '10', '--samples', '1000', "
     "'--workers', '1', '--out', OUT])", ("concurrent.futures.process",)),
], ids=["import", "analytic_run", "serial_mc_run"])
def test_monte_carlo_modules_load_on_first_use(tmp_path, step, absent):
    """numpy.random loads with the first Monte Carlo draw and the process-pool
    module (multiprocessing, hashlib) with the first pool, so neither the import
    nor an analytic run adds them to what ``import numpy`` loads, and a serial
    Monte Carlo run adds no pool module."""
    run = _python("-c", f"import sys, numpy; OUT = {str(tmp_path)!r}; base = set(sys.modules); "
                        f"import nomacast.cli as cli; assert {step} in (None, 0); "
                        "print(*sorted(set(sys.modules) - base))")
    assert run.returncode == 0, run.stderr
    added = set(run.stdout.splitlines()[-1].split())
    assert "nomacast.montecarlo" in added and not set(absent) & added


def test_readme_quickstart_runs():
    """The README's one Python block runs in a fresh interpreter and prints
    the analytic value, the Monte Carlo estimate and its standard error."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [code] = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    run = _python("-c", code)
    assert run.returncode == 0, run.stderr
    values = [float(x) for x in run.stdout.split()]
    assert len(values) == 3 and all(math.isfinite(x) for x in values)


def test_every_public_name_resolves():
    """A stale ``__all__`` entry would break ``from nomacast import *``."""
    namespace = {}
    exec("from nomacast import *", namespace)  # raises AttributeError on a stale name
    assert set(nomacast.__all__) <= set(namespace)


def test_module_entry_point_exits_with_main_status(tmp_path):
    """``python -m nomacast.cli`` exits with main's return code."""
    ok = _python("-m", "nomacast.cli", "--scenario", "fig1", "--mode", "analytic",
                 "--snr", "10", "--out", str(tmp_path / "ok"))
    assert ok.returncode == 0, ok.stderr
    assert sorted(p.name for p in (tmp_path / "ok").glob("*.csv")) == [
        "fig1_outage_rate_unicast.csv", "fig1_unicast_outage.csv"]
    bad = _python("-m", "nomacast.cli", "--scenario", "fig1", "--mode", "analytic",
                  "--k", "1", "--out", str(tmp_path / "bad"))
    assert bad.returncode == 2
    assert bad.stderr.startswith("config error: ") and bad.stderr.count("\n") == 1
    assert not (tmp_path / "bad").exists()


def test_parse_snr_grid():
    assert parse_snr_grid("0:40:10") == (0.0, 10.0, 20.0, 30.0, 40.0)
    assert parse_snr_grid("4,8,16") == (4.0, 8.0, 16.0)
    with pytest.raises(ScenarioError):
        parse_snr_grid("10:0:5")
    with pytest.raises(ScenarioError):
        parse_snr_grid("abc")


@pytest.mark.parametrize("args", [
    ["--mode", "analytic", "--snr", "0:1e18:1"], ["--mode", "mc", "--snr", "0:1e18:1"],
    ["--mode", "analytic", "--snr", "10", "--na", "1000000000000000000"],
    ["--mode", "mc", "--samples", "10", "--snr", "10", "--m", "100000000000000000"],
], ids=["analytic", "mc", "analytic_nodes", "mc_antennas"])
def test_main_snr_grid_too_large_to_build_is_a_config_error(tmp_path, capsys, args):
    """10^18 grid points or quadrature nodes, or 10^17 antennas, would need 6.94 EiB
    or more, so the first allocation fails at once."""
    code = main(["--scenario", "fig1", *args, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_parse_metrics():
    assert parse_metrics(["unicast_outage"]) == (MetricKind.UNICAST_OUTAGE,)
    with pytest.raises(ScenarioError):
        parse_metrics(["not_a_metric"])


def _tiny(name="tiny", **overrides):
    base = dict(name=name, m=2, k=3, r_m=1.0, r_u=2.0, r_s=1.0,
                snr_grid_db=(10.0, 20.0), na=32,
                metrics=(MetricKind.UNICAST_OUTAGE, MetricKind.OUTAGE_RATE_UNICAST),
                samples=5000, seed=77)
    base.update(overrides)
    return Scenario(**base)


def test_run_scenario_writes_expected_csvs(tmp_path):
    report, paths = run_scenario(_tiny(), out_dir=tmp_path)
    assert len(paths) == 2
    for path in paths:
        rows = read_csv(path)
        assert {r["method"] for r in rows} == {"analytic", "mc"}
        snrs = [r["snr_db"] for r in rows]
        assert snrs == sorted(snrs)
    assert report.rows and len(report.verdicts) == len(report.rows)


def test_csv_byte_identical_across_runs(tmp_path):
    _, paths_a = run_scenario(_tiny(), out_dir=tmp_path / "a")
    _, paths_b = run_scenario(_tiny(), out_dir=tmp_path / "b")
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_csv_round_trip_idempotent(tmp_path):
    _, paths = run_scenario(_tiny(), out_dir=tmp_path)
    original = paths[0].read_bytes()
    emit_csv(read_csv(paths[0]), paths[0])
    assert paths[0].read_bytes() == original


def test_csv_header_schema(tmp_path):
    _, paths = run_scenario(_tiny(), out_dir=tmp_path)
    first = paths[0].read_text().splitlines()[0]
    assert first == ",".join(CSV_HEADER)


def test_analytic_only_run_has_no_mc_rows(tmp_path):
    report, paths = run_scenario(_tiny(samples=0), out_dir=tmp_path, mode="analytic")
    for path in paths:
        assert all(r["method"] == "analytic" for r in read_csv(path))
    assert not report.rows  # nothing to compare
    assert report.all_pass


def test_mc_only_run_has_no_analytic_rows(tmp_path):
    report, paths = run_scenario(_tiny(samples=2000), out_dir=tmp_path, mode="mc")
    for path in paths:
        assert all(r["method"] == "mc" for r in read_csv(path))
    assert report.all_pass


def test_scheduling_run_is_mc_only(tmp_path):
    scenario = _tiny(scheduling=True, samples=2000)
    report, paths = run_scenario(scenario, out_dir=tmp_path, mode="both")
    for path in paths:
        assert all(r["method"] == "mc" for r in read_csv(path))
    assert not report.rows


def test_report_tolerance_rule():
    cfg = LinkConfig(10.0, 1.0, 2.0, 1.0)
    row = ReportRow(10.0, MetricKind.UNICAST_OUTAGE, 0.5, 0.504, 0.0005)
    assert row.tolerance(cfg) == pytest.approx(0.005)
    assert row.abs_diff <= row.tolerance(cfg)
    wide = ReportRow(10.0, MetricKind.UNICAST_OUTAGE, 0.5, 0.52, 0.01)
    assert wide.tolerance(cfg) == pytest.approx(0.03)  # 3 SE dominates


def test_scenario_file_loading(tmp_path):
    cfg_file = tmp_path / "custom.cfg"
    cfg_file.write_text(
        "[scenario]\n"
        "name = custom\n"
        "m = 2\n"
        "k = 3\n"
        "r_m = 1.0\n"
        "r_u = 2.0\n"
        "r_s = 1.0\n"
        "snr_db = 0:20:10\n"
        "na = 16\n"
        "metrics = unicast_outage, multicast_outage\n"
        "scheduling = off\n"
        "samples = 1000\n"
        "seed = 5\n")
    scenario = load_scenario_file(cfg_file)
    assert scenario.name == "custom"
    assert scenario.snr_grid_db == (0.0, 10.0, 20.0)
    assert scenario.metrics == (MetricKind.UNICAST_OUTAGE,
                                MetricKind.MULTICAST_OUTAGE)


def test_scenario_file_errors(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(ScenarioError):
        load_scenario_file(missing)
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nname = x\nm = 2\n")  # missing required keys
    with pytest.raises(ScenarioError):
        load_scenario_file(bad)


def test_repeated_metric_or_snr_point_is_evaluated_once(tmp_path):
    """A metric or SNR point given twice, on the command line or in a config
    file, gives one set of CSV rows and one report line per point."""
    assert parse_metrics(["unicast_outage", "multicast_outage", " unicast_outage"]) == (
        MetricKind.UNICAST_OUTAGE, MetricKind.MULTICAST_OUTAGE)
    assert parse_snr_grid("4,0,4,0.0") == (4.0, 0.0)
    code = main(["--scenario", "fig1", "--metric", "unicast_outage", "--metric",
                 "unicast_outage", "--snr", "0,4,0", "--samples", "2000",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "fig1_unicast_outage.csv")
    assert [(r["snr_db"], r["method"]) for r in rows] == [
        (0.0, "analytic"), (0.0, "mc"), (4.0, "analytic"), (4.0, "mc")]
    assert (tmp_path / "fig1_report.txt").read_text().count("unicast_outage") == 2
    cfg_file = tmp_path / "twice.cfg"
    cfg_file.write_text("[scenario]\nm = 2\nk = 3\nr_m = 1\nr_u = 2\nsnr_db = 10, 0, 10\n"
                        "metrics = unicast_outage, multicast_outage, unicast_outage\n")
    scenario = load_scenario_file(cfg_file)
    assert scenario.snr_grid_db == (10.0, 0.0)
    assert scenario.metrics == (MetricKind.UNICAST_OUTAGE, MetricKind.MULTICAST_OUTAGE)


def test_repeated_snr_point_or_metric_from_the_api_is_rejected(tmp_path):
    """The parsers drop repeats, but a Scenario built in code reaches
    run_scenario as it is; a repeat would write its CSV rows twice."""
    fig1 = PRESETS["fig1"][0]
    with pytest.raises(ScenarioError, match="repeated SNR point 0.0"):
        run_scenario(replace(fig1, snr_grid_db=(0.0, 0.0)), out_dir=tmp_path,
                     mode="analytic")
    with pytest.raises(ScenarioError, match="repeated metric unicast_outage"):
        run_scenario(replace(fig1, metrics=(MetricKind.UNICAST_OUTAGE,) * 2),
                     out_dir=tmp_path, mode="analytic")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mode, code", [("mc", 2), ("both", 2), ("analytic", 0)])
def test_main_zero_samples(tmp_path, capsys, mode, code):
    """Zero samples is a config error, one line and no traceback, wherever
    Monte Carlo runs; an analytic run draws none and writes analytic rows."""
    assert main(["--scenario", "fig1", "--mode", mode, "--samples", "0", "--snr", "10,20",
                 "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    rows = [r for path in tmp_path.glob("*.csv") for r in read_csv(path)]
    if code == 2:
        assert err.startswith("config error: need at least one sample")
        assert err.count("\n") == 1 and not rows
    else:
        assert err == "" and rows and all(r["method"] == "analytic" for r in rows)


@pytest.mark.parametrize("mode", ["analytic", "mc", "both"])
@pytest.mark.parametrize("flag, value, message", [
    ("--workers", "0", "need at least one worker, got 0"),
    ("--workers", "-3", "need at least one worker, got -3"),
    ("--samples", "-5", "invalid sample count -5"),
], ids=["workers_0", "workers_-3", "samples_-5"])
def test_main_bad_worker_or_sample_count_is_a_config_error(tmp_path, capsys, mode, flag,
                                                            value, message):
    """Every mode rejects them, analytic mode too, before anything is written."""
    out = tmp_path / "out"
    assert main(["--scenario", "fig1", "--mode", mode, "--snr", "10", flag, value,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


_CFG_HEAD = "[scenario]\nm = 2\nk = 3\nr_m = 1\nr_u = 2\nsnr_db = 10\n"
_FIG1 = PRESETS["fig1"][0]


def _main(*argv):
    return lambda inputs, out: main([*argv, "--out", str(out)])


def _main_on_config(text):
    def run(inputs, out):
        path = inputs / "bad.cfg"
        path.write_text(text)
        return main(["--config", str(path), "--out", str(out)])
    return run


def _read_bad_header(inputs, out):
    path = inputs / "bad.csv"
    path.write_text("snr_db,value\n10,0.5\n")
    return read_csv(path)


@pytest.mark.parametrize("call, error, message", [
    (_main("--scenario", "fig1", "--mode", "analytic", "--k", "1"), 2,
     "invalid system size M=10, K=1"),
    (lambda inputs, out: run_scenario(replace(_FIG1, snr_grid_db=()), out), ScenarioError,
     "empty SNR grid"),
    (_main("--scenario", "fig1", "--mode", "analytic", "--na", "0"), 2,
     "invalid node count 0"),
    (_main_on_config(_CFG_HEAD + "metrics = unicast_outage\noma_beamformer = zf\n"), 2,
     "unknown OMA beamformer 'zf'"),
    (lambda inputs, out: run_scenario(replace(_FIG1, metrics=()), out), ScenarioError,
     "no metrics requested"),
    (lambda inputs, out: run_scenario(_FIG1, out, mode="fast"), ScenarioError,
     "unknown mode 'fast'"),
    (_main_on_config(_CFG_HEAD + "metrics = unicast_outage\nscheduling = maybe\n"), 2,
     "cannot parse boolean 'maybe'"),
    (_main_on_config("[other]\nm = 2\n"), 2, "has no [scenario] section"),
    (_main_on_config(_CFG_HEAD.replace("m = 2", "m = two") + "metrics = unicast_outage\n"),
     2, "malformed scenario config"),
    (_main_on_config(_CFG_HEAD + "m = 3\nmetrics = unicast_outage\n"), 2,
     "malformed scenario config"),
    (_main_on_config("m = 2\nk = 3\n"), 2, "malformed scenario config"),
    (_main_on_config(_CFG_HEAD + "metrics = unicast_outage\n[scenario]\nseed = 1\n"), 2,
     "malformed scenario config"),
    (lambda inputs, out: emit_csv([], out / "empty.csv"), ValueError, "no rows to write"),
    (_read_bad_header, ScenarioError, "unexpected CSV header"),
    (lambda inputs, out: LinkConfig(0.0, 1.0, 1.0), ValueError,
     "rho must be positive, got 0.0"),
    (lambda inputs, out: estimate_many([MetricKind.UNICAST_OUTAGE], [LinkConfig(10.0, 1.0, 2.0)],
                                       (0, 3), SimulationPlan(10, 1)), ValueError,
     "need at least 1 antenna, got 0"),
], ids=["system_size", "empty_grid", "node_count", "oma_beamformer", "no_metrics",
        "unknown_mode", "boolean", "no_section", "malformed", "duplicate_key",
        "no_section_header", "duplicate_section", "no_rows", "csv_header", "rho",
        "no_antenna"])
def test_invalid_input_is_rejected_before_anything_is_written(tmp_path, capsys, call, error,
                                                              message):
    """main exits with the code and one stderr line naming the cause; the API
    raises it.  Neither creates the output directory."""
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    if isinstance(error, int):
        assert call(inputs, out) == error
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err
    else:
        with pytest.raises(error, match=re.escape(message)):
            call(inputs, out)
    assert not out.exists()


def test_variant_that_fails_late_leaves_the_output_directory_empty(tmp_path, capsys):
    """main evaluates every variant before it writes any file.  At this K
    fig2_nosched still runs (it draws M + 2 words per window), but fig2_sched's
    K * M-word window cannot be allocated, so the run exits 2 and writes nothing,
    not even the first variant's CSVs."""
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--scenario", "fig2", "--mode", "mc", "--samples", "10", "--snr", "10",
                 "--k", "100000000000000000", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert list(out.iterdir()) == []


def test_scenario_name_that_leaves_the_output_directory_is_a_config_error(tmp_path,
                                                                          capsys):
    """The name is the stem of every output file: ``../escaped`` would write
    beside --out, so it exits 2 before anything is written."""
    cfg_file = tmp_path / "escape.cfg"
    cfg_file.write_text("[scenario]\nname = ../escaped\nm = 2\nk = 3\nr_m = 1\nr_u = 2\n"
                        "snr_db = 10\nmetrics = unicast_outage\nsamples = 100\n")
    before = {p: sorted(p.iterdir()) for p in (tmp_path, tmp_path.parent)}
    assert main(["--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: invalid scenario name '../escaped'\n"
    assert {p: sorted(p.iterdir()) for p in before} == before


@pytest.mark.parametrize("name", ["a/b", "a\\b", "a\0b", "..", ".", ""])
def test_scenario_name_must_be_a_file_stem(tmp_path, name):
    with pytest.raises(ScenarioError, match="invalid scenario name"):
        run_scenario(replace(PRESETS["fig1"][0], name=name), out_dir=tmp_path,
                     mode="analytic")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key", ["sampels", "seeed"])
def test_unknown_config_key_is_a_config_error(tmp_path, capsys, key):
    """A misspelt key exits 2 naming it, instead of running with the default."""
    cfg_file = tmp_path / "typo.cfg"
    cfg_file.write_text("[scenario]\nm = 2\nk = 3\nr_m = 1\nr_u = 2\nsnr_db = 10\n"
                        f"metrics = unicast_outage\n{key} = 5\n")
    with pytest.raises(ScenarioError, match=f"unknown key '{key}'"):
        load_scenario_file(cfg_file)
    assert main(["--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_main_unknown_scenario_exit_code(tmp_path, capsys):
    code = main(["--scenario", "fig99", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_main_unsupported_analytics_exit_code(tmp_path, capsys):
    # secrecy analytics are undefined for K = 2
    code = main(["--scenario", "fig4", "--k", "2", "--mode", "analytic",
                 "--snr", "10", "--out", str(tmp_path)])
    assert code == 3
    assert "unsupported" in capsys.readouterr().err


def test_main_scheduling_analytic_exit_code(tmp_path, capsys):
    code = main(["--scenario", "fig1", "--scheduling", "on", "--mode", "analytic",
                 "--snr", "10", "--out", str(tmp_path)])
    assert code == 3


def test_main_analytic_skips_variants_without_closed_form(tmp_path, capsys):
    """fig2_sched has no closed form: analytic mode writes fig2_nosched's rows and
    a report that notes the skipped variant, and exits 0."""
    code = main(["--scenario", "fig2", "--mode", "analytic", "--snr", "10,20",
                 "--out", str(tmp_path)])
    assert code == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "fig2_nosched_outage_rate_unicast.csv", "fig2_nosched_unicast_outage.csv"]
    report = (tmp_path / "fig2_report.txt").read_text()
    assert "no closed form applies to scenario 'fig2_sched'" in report
    assert "fig2_sched" in capsys.readouterr().out


def test_main_analytic_with_no_closed_form_in_any_variant_exits_3(tmp_path, capsys):
    code = main(["--scenario", "fig2", "--scheduling", "on", "--mode", "analytic",
                 "--snr", "10", "--out", str(tmp_path)])
    assert code == 3
    assert "no closed form applies" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_unsupported_closed_form_drops_only_its_own_rows(tmp_path):
    """At K = 2 the secrecy closed form is unsupported: its note is added once,
    and the unicast closed form still writes its analytic rows."""
    code = main(["--scenario", "fig1", "--mode", "analytic", "--k", "2", "--r-s", "1",
                 "--metric", "secrecy_outage", "--metric", "unicast_outage",
                 "--snr", "0,20", "--out", str(tmp_path)])
    assert code == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["fig1_unicast_outage.csv"]
    rows = read_csv(tmp_path / "fig1_unicast_outage.csv")
    assert [(r["snr_db"], r["method"]) for r in rows] == [(0.0, "analytic"), (20.0, "analytic")]
    report = (tmp_path / "fig1_report.txt").read_text()
    assert report.count("note: secrecy analytics need K >= 3") == 1


def test_each_closed_form_is_evaluated_once_per_snr_point(tmp_path, monkeypatch):
    """A probability and its outage rate share one closed-form evaluation."""
    import nomacast.analysis as analysis
    calls, secrecy = [], analysis.secrecy_outage_prob

    def counting(m, k, cfg, rule):
        calls.append(cfg.rho)
        return secrecy(m, k, cfg, rule)
    monkeypatch.setattr(analysis, "secrecy_outage_prob", counting)
    scenario = replace(PRESETS["fig4"][0], snr_grid_db=(0.0, 10.0, 20.0), na=40,
                       metrics=(MetricKind.SECRECY_OUTAGE, MetricKind.OUTAGE_RATE_SECRECY))
    run_scenario(scenario, out_dir=tmp_path, mode="analytic")
    assert scenario.name == "fig4_rs1" and calls == [1.0, 10.0, 100.0]


def test_main_comparison_failure_exit_code(tmp_path, monkeypatch):
    import nomacast.montecarlo as montecarlo
    monkeypatch.setitem(montecarlo.CLOSED_FORMS, (MetricKind.UNICAST_OUTAGE, False),
                        (lambda m, k, cfg, rule: 0.5, 0.005))
    code = main(["--scenario", "fig1", "--samples", "2000", "--snr", "40",
                 "--metric", "unicast_outage", "--out", str(tmp_path)])
    assert code == 1  # outage at 40 dB is nowhere near 0.5


def test_main_crash_exits_4_without_traceback(tmp_path, monkeypatch, capsys):
    import nomacast.cli as cli

    def crash(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "_evaluate", crash)
    code = main(["--scenario", "fig1", "--samples", "100", "--out", str(tmp_path)])
    assert code == 4  # never 1, which means a comparison failed
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


def test_secrecy_outage_at_zero_target_matches_closed_form(tmp_path):
    """At r_s = 0 a realization with no positive secrecy rate is an outage for
    the Monte Carlo field as for the closed form, so every point passes."""
    code = main(["--scenario", "fig4", "--metric", "secrecy_outage", "--r-s", "0",
                 "--samples", "20000", "--snr", "0:25:5", "--out", str(tmp_path)])
    assert code == 0
    assert "FAIL" not in (tmp_path / "fig4_report.txt").read_text()
    rows = read_csv(tmp_path / "fig4_secrecy_outage.csv")
    at_0db = {r["method"]: r["value"] for r in rows if r["snr_db"] == 0.0}
    assert at_0db["analytic"] > 0.999 and at_0db["mc"] > 0.999


@pytest.mark.parametrize("preset, override, variants", [
    ("fig4", ["--r-s", "0"], ["fig4"]),
    ("fig2", ["--scheduling", "on"], ["fig2"]),
    ("fig3", ["--oma-beamformer", "mrt"], ["fig3"]),
    ("fig5", ["--scheduling", "off"], ["fig5"]),
    ("fig4", ["--r-m", "1.5"], ["fig4_rs1", "fig4_rs2", "fig4_rs3"]),
])
def test_override_that_makes_variants_identical_runs_one(tmp_path, preset, override,
                                                          variants):
    """Variants an override makes identical run once, named after the preset."""
    metric = "secrecy_outage" if preset in ("fig4", "fig5") else "unicast_outage"
    code = main(["--scenario", preset, "--metric", metric, *override, "--mode", "mc",
                 "--samples", "1000", "--snr", "10", "--out", str(tmp_path)])
    assert code == 0
    report = (tmp_path / f"{preset}_report.txt").read_text()
    assert [line.split(":")[0] for line in report.splitlines()
            if line.startswith("scenario ")] == [f"scenario {v}" for v in variants]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        f"{v}_{metric}.csv" for v in variants]


@pytest.mark.parametrize("mode", ["analytic", "mc", "both"])
def test_outage_rate_at_zero_target_is_rejected_by_both_routes(tmp_path, capsys, mode):
    """Closed form and Monte Carlo derive an outage rate the same way, so
    neither writes a (1 - P) * 0 row."""
    code = main(["--scenario", "fig4", "--metric", "outage_rate_secrecy", "--r-s", "0",
                 "--snr", "10", "--na", "50", "--samples", "1000", "--mode", mode,
                 "--out", str(tmp_path)])
    assert code == 2
    assert "outage_rate_secrecy needs a positive r_s target" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["out", "out/deeper"])
def test_main_unwritable_output_is_a_config_error(tmp_path, capsys, sub):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    code = main(["--scenario", "fig1", "--mode", "analytic", "--snr", "10",
                 "--out", str(blocker / sub)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write ") and "Traceback" not in err


def test_main_unwritable_report_is_a_config_error(tmp_path, capsys):
    """The report file is checked like the CSVs: here its path is a directory."""
    (tmp_path / "fig1_report.txt").mkdir()
    code = main(["--scenario", "fig1", "--mode", "analytic", "--snr", "10",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_main_end_to_end_pass(tmp_path):
    code = main(["--scenario", "fig1", "--samples", "40000", "--snr", "8:16:8",
                 "--out", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "fig1_report.txt").read_text()
    assert "verdict: PASS" in report
    assert (tmp_path / "fig1_unicast_outage.csv").exists()


def test_main_config_file_end_to_end(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "[scenario]\nname = run\nm = 2\nk = 3\nr_m = 1\nr_u = 2\n"
        "snr_db = 10\nna = 16\nmetrics = unicast_outage\nsamples = 4000\nseed = 9\n")
    code = main(["--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "run_report.txt").exists()


def test_one_process_pool_per_scenario_run(tmp_path, monkeypatch):
    """A pooled run draws each window once for the whole grid, in one pool."""
    import nomacast.montecarlo as montecarlo
    starts = []
    real = montecarlo.futures.ProcessPoolExecutor

    def counting(*args, **kwargs):
        starts.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(montecarlo.futures, "ProcessPoolExecutor", counting)
    scenario = _tiny(samples=montecarlo._CHUNK + 5000,  # two chunks per point
                     snr_grid_db=(0.0, 10.0, 20.0, 30.0))
    _, pooled = run_scenario(scenario, out_dir=tmp_path / "w2", mode="mc", workers=2)
    assert len(starts) == 1
    _, serial = run_scenario(scenario, out_dir=tmp_path / "w1", mode="mc", workers=1)
    assert len(starts) == 1
    assert [p.read_bytes() for p in pooled] == [p.read_bytes() for p in serial]


def test_report_includes_scheme_gaps(tmp_path):
    scenario = _tiny(metrics=(MetricKind.OUTAGE_RATE_SECRECY,
                              MetricKind.OUTAGE_RATE_SECRECY_OMA),
                     snr_grid_db=(20.0,), samples=4000)
    report, _ = run_scenario(scenario, out_dir=tmp_path)
    assert len(report.gaps) == 1
    snr_db, label, gap = report.gaps[0]
    assert snr_db == 20.0 and "secrecy" in label
    assert "secrecy outage-rate gap" in report.render()


def test_report_render_mentions_fail():
    scenario = _tiny()
    report = ComparisonReport(scenario)
    report.rows.append(ReportRow(10.0, MetricKind.UNICAST_OUTAGE, 0.5, 0.9, 0.001))
    report.verdicts.append("FAIL")
    text = report.render()
    assert "FAIL" in text and not report.all_pass


@pytest.mark.parametrize("override", [["--r-u", "2000"], ["--snr", "4000"]],
                         ids=["r_u_2000", "snr_4000"])
def test_main_overflowing_input_is_a_config_error(tmp_path, capsys, override):
    code = main(["--scenario", "fig1", "--mode", "analytic", "--out", str(tmp_path),
                 *override])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_main_large_antenna_count_analytic(tmp_path):
    """k^-m is computed in floating point, so M = 300 no longer overflows."""
    code = main(["--scenario", "fig1", "--mode", "analytic", "--m", "300",
                 "--snr", "0,20,40", "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "fig1_unicast_outage.csv")
    assert len(rows) == 3 and all(math.isfinite(r["value"]) for r in rows)
    assert rows[0]["value"] == pytest.approx(1.0)


@pytest.mark.parametrize("override,name", [
    (["--r-s", "nan"], "r_s"), (["--r-m", "inf"], "r_m"), (["--snr", "inf"], "rho")],
    ids=["r_s_nan", "r_m_inf", "snr_inf"])
def test_main_non_finite_input_is_a_config_error(tmp_path, capsys, override, name):
    code = main(["--scenario", "fig1", "--mode", "analytic", "--out", str(tmp_path),
                 *override])
    assert code == 2
    assert f"{name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, (1 << 64) + 5])
def test_main_seed_out_of_range_is_a_config_error(tmp_path, capsys, seed):
    code = main(["--scenario", "fig1", "--mode", "mc", "--samples", "100",
                 "--seed", str(seed), "--out", str(tmp_path)])
    assert code == 2
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err
    with pytest.raises(ScenarioError):
        _tiny(seed=seed).validate()
    _tiny(seed=(1 << 64) - 1).validate()


def test_fig3_equal_and_random_beams_write_identical_rows(tmp_path):
    """Both non-MRT OMA beams sample the same gain distribution, draw for draw."""
    equal, random = (next(s for s in PRESETS["fig3"] if s.oma_beamformer == kind)
                     for kind in ("equal", "random"))
    tiny = dict(samples=3000, snr_grid_db=(16.0, 24.0))
    _, paths_e = run_scenario(replace(equal, **tiny), out_dir=tmp_path, mode="mc")
    _, paths_r = run_scenario(replace(random, **tiny), out_dir=tmp_path, mode="mc")
    assert [p.name.replace("equal", "random") for p in paths_e] == [p.name for p in paths_r]
    for pe, pr in zip(paths_e, paths_r):
        assert pe.read_bytes() == pr.read_bytes()


GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("preset", ["fig1", "fig2", "fig4", "fig5"])
def test_analytic_csvs_match_golden_files(tmp_path, preset):
    """The preset closed forms reproduce the stored CSVs byte for byte (fig2 and
    fig5 write only their unscheduled variant)."""
    assert main(["--scenario", preset, "--mode", "analytic", "--out", str(tmp_path)]) == 0
    golden = sorted(GOLDEN_DIR.glob(f"{preset}_*.csv"))
    assert [p.name for p in golden] == sorted(p.name for p in tmp_path.glob("*.csv"))
    for path in golden:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


GOLDEN_MC_DIR = Path(__file__).parent / "data" / "golden_mc"


@pytest.mark.parametrize("variant", [
    "fig1", "fig2_nosched", "fig2_sched", "fig3_mrt", "fig3_equal", "fig3_random",
    "fig4_rs1", "fig4_rs2", "fig4_rs3", "fig5_nosched", "fig5_sched"])
def test_mc_csvs_match_golden_files(tmp_path, variant):
    """Monte Carlo CSVs at 8192 samples and 0, 20 and 40 dB reproduce the stored
    files byte for byte for every preset variant: the (z1, u, v) layout with
    and without secrecy, unscheduled non-MRT beams and scheduled plans.  Every
    value is an exact count or an outage rate of one."""
    scenario = next(s for group in PRESETS.values() for s in group if s.name == variant)
    _, paths = run_scenario(replace(scenario, samples=8192, snr_grid_db=(0.0, 20.0, 40.0)),
                            out_dir=tmp_path, mode="mc")
    golden = sorted(GOLDEN_MC_DIR.glob(f"{variant}_*.csv"))
    assert [p.name for p in golden] == sorted(p.name for p in paths)
    for path in golden:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
