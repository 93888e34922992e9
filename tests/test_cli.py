import math
from dataclasses import replace

import pytest

from nomacast.cli import (CSV_HEADER, PRESETS, ComparisonReport, ReportRow,
                          ScenarioError, Scenario, emit_csv, load_scenario_file,
                          main, parse_metrics, parse_snr_grid, read_csv,
                          run_scenario)
from nomacast.montecarlo import MetricKind
from nomacast.transmission import LinkConfig


def test_presets_resolvable_and_valid():
    assert set(PRESETS) == {"fig1", "fig2", "fig3", "fig4", "fig5"}
    for variants in PRESETS.values():
        for scenario in variants:
            scenario.validate()
    assert [s.scheduling for s in PRESETS["fig5"]] == [False, True]
    assert [s.r_s for s in PRESETS["fig4"]] == [1.0, 2.0, 3.0]
    assert [s.oma_beamformer for s in PRESETS["fig3"]] == ["mrt", "equal", "random"]


def test_parse_snr_grid():
    assert parse_snr_grid("0:40:10") == (0.0, 10.0, 20.0, 30.0, 40.0)
    assert parse_snr_grid("4,8,16") == (4.0, 8.0, 16.0)
    with pytest.raises(ScenarioError):
        parse_snr_grid("10:0:5")
    with pytest.raises(ScenarioError):
        parse_snr_grid("abc")


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


def test_main_comparison_failure_exit_code(tmp_path, monkeypatch):
    import nomacast.cli as cli
    monkeypatch.setattr(cli, "analytic_value",
                        lambda metric, cfg, m, k, na, scheduling=False: 0.5)
    code = main(["--scenario", "fig1", "--samples", "2000", "--snr", "40",
                 "--metric", "unicast_outage", "--out", str(tmp_path)])
    assert code == 1  # outage at 40 dB is nowhere near 0.5


def test_main_crash_exits_4_without_traceback(tmp_path, monkeypatch, capsys):
    import nomacast.cli as cli

    def crash(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "run_scenario", crash)
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
    rows = read_csv(tmp_path / "fig4_rs1_secrecy_outage.csv")
    at_0db = {r["method"]: r["value"] for r in rows if r["snr_db"] == 0.0}
    assert at_0db["analytic"] > 0.999 and at_0db["mc"] > 0.999


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
    real = montecarlo.ProcessPoolExecutor

    def counting(*args, **kwargs):
        starts.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", counting)
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
