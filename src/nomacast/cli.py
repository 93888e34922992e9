"""Command-line front end: scenario runs, SNR sweeps, CSV, comparisons.

A scenario bundles the system size, rate targets, SNR grid, metrics, and
Monte Carlo budget.  The five ``fig*`` presets reproduce the reference
operating points; arbitrary scenarios load from a flat key=value config
file (see the README for the grammar).  Each run writes one CSV per metric
plus a text report comparing analytic and Monte Carlo values wherever both
exist; the library's ``run_scenario`` writes the CSVs and no report.

Exit codes: 0 all comparisons pass (or nothing to compare), 1 a comparison
failed, 2 configuration error, 3 analytics unsupported for every variant of
the request, 4 internal error (an unexpected exception, reported in one line).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis
from .montecarlo import (BEAMFORMER_KINDS, CLOSED_FORMS, MRT, Estimate, MetricKind,
                         SimulationPlan, analytic_estimate, derive_estimate, estimate_many,
                         source_metric, gain_law, analytic_value)  # the last for perfbench
from .transmission import LinkConfig

EXIT_OK = 0
EXIT_COMPARISON_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL_ERROR = 4

CSV_HEADER = ("snr_db", "metric", "method", "value", "stderr", "ci_low", "ci_high")

DEFAULT_SAMPLES = 1_000_000
DEFAULT_SEED = 12345


class ScenarioError(Exception):
    """Unknown scenario name, malformed configuration or unwritable output."""


def _snr_label(snr_db) -> str:
    """An SNR point as the CSVs and the report write it (-0.0 as 0)."""
    return f"{snr_db + 0.0:.9g}"


@dataclass(frozen=True)
class Scenario:
    name: str
    m: int
    k: int
    r_m: float
    r_u: float
    r_s: float
    snr_grid_db: tuple
    na: int
    metrics: tuple
    scheduling: bool = False
    oma_beamformer: str = MRT
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED

    def __post_init__(self):  # every Scenario that exists is valid
        self.validate()

    def validate(self):
        # the name is the stem of every output file, so it must not leave --out
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):
            raise ScenarioError(f"invalid scenario name {self.name!r}")
        if self.m < 1 or self.k < 2:
            raise ScenarioError(f"invalid system size M={self.m}, K={self.k}")
        if not self.snr_grid_db:
            raise ScenarioError("empty SNR grid")
        if self.na < 1:
            raise ScenarioError(f"invalid node count {self.na}")
        if self.samples < 0:  # zero is valid: an analytic run draws none
            raise ScenarioError(f"invalid sample count {self.samples}")
        if self.oma_beamformer not in BEAMFORMER_KINDS:
            raise ScenarioError(f"unknown OMA beamformer {self.oma_beamformer!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ScenarioError(f"seed must be in [0, 2**64), got {self.seed}")
        if not self.metrics:
            raise ScenarioError("no metrics requested")
        labels = [_snr_label(x) for x in self.snr_grid_db]
        for what, values in (("SNR point", labels), ("metric", self.metrics)):
            if dup := [getattr(x, "value", x) for x, n in Counter(values).items() if n > 1]:
                raise ScenarioError(f"repeated {what} {dup[0]}")


_UNICAST_METRICS = (MetricKind.UNICAST_OUTAGE, MetricKind.UNICAST_OUTAGE_OMA,
                    MetricKind.OUTAGE_RATE_UNICAST, MetricKind.OUTAGE_RATE_UNICAST_OMA)
_SECRECY_METRICS = (MetricKind.SECRECY_OUTAGE, MetricKind.SECRECY_OUTAGE_OMA,
                    MetricKind.OUTAGE_RATE_SECRECY, MetricKind.OUTAGE_RATE_SECRECY_OMA)


def _presets():
    grid4 = tuple(float(s) for s in range(0, 41, 4))
    grid5 = tuple(float(s) for s in range(0, 41, 5))
    fig1 = Scenario("fig1", m=10, k=11, r_m=1.0, r_u=6.0, r_s=0.0,
                    snr_grid_db=grid4, na=20, metrics=_UNICAST_METRICS)
    fig2 = Scenario("fig2", m=2, k=11, r_m=1.0, r_u=7.0, r_s=0.0,
                    snr_grid_db=grid4, na=20, metrics=_UNICAST_METRICS)
    fig3 = Scenario("fig3", m=10, k=11, r_m=1.0, r_u=6.0, r_s=0.0,
                    snr_grid_db=grid4, na=20,
                    metrics=(MetricKind.OUTAGE_RATE_UNICAST,
                             MetricKind.OUTAGE_RATE_UNICAST_OMA))
    fig4 = Scenario("fig4", m=10, k=11, r_m=1.0, r_u=6.0, r_s=2.0,
                    snr_grid_db=grid5, na=500, metrics=_SECRECY_METRICS)
    fig5 = Scenario("fig5", m=10, k=11, r_m=1.0, r_u=6.0, r_s=2.0,
                    snr_grid_db=grid5, na=500, metrics=_SECRECY_METRICS)
    return {
        "fig1": [fig1],
        "fig2": [replace(fig2, name="fig2_nosched"),
                 replace(fig2, name="fig2_sched", scheduling=True)],
        "fig3": [replace(fig3, name=f"fig3_{kind}", oma_beamformer=kind)
                 for kind in BEAMFORMER_KINDS],
        "fig4": [replace(fig4, name=f"fig4_rs{r}", r_s=float(r)) for r in (1, 2, 3)],
        "fig5": [replace(fig5, name="fig5_nosched"),
                 replace(fig5, name="fig5_sched", scheduling=True)],
    }


PRESETS = _presets()


@dataclass(frozen=True)
class ReportRow:
    snr_db: float
    metric: MetricKind
    analytic: float
    mc_value: float
    mc_stderr: float
    scheduling: bool = False

    @property
    def abs_diff(self) -> float:
        return abs(self.analytic - self.mc_value)

    def tolerance(self, cfg: LinkConfig) -> float:
        """max(3 SE, CLOSED_FORMS' tolerance, which a rate scales like an SE)."""
        tol = CLOSED_FORMS[source_metric(self.metric), self.scheduling][1]
        return max(derive_estimate(self.metric, cfg, Estimate(0.0, tol, 0.0, 0.0, 0)).stderr,
                   3.0 * self.mc_stderr)


_GAP_PAIRS = (
    (MetricKind.OUTAGE_RATE_UNICAST, MetricKind.OUTAGE_RATE_UNICAST_OMA,
     "unicast outage-rate gap"),
    (MetricKind.OUTAGE_RATE_SECRECY, MetricKind.OUTAGE_RATE_SECRECY_OMA,
     "secrecy outage-rate gap"),
)


@dataclass
class ComparisonReport:
    scenario: Scenario
    rows: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    gaps: list = field(default_factory=list)  # (snr_db, label, noma - oma)
    skipped: bool = False  # analytic mode, and no closed form applies

    @property
    def all_pass(self) -> bool:
        return all(v == "PASS" for v in self.verdicts)

    @property
    def all_notes(self) -> list:
        """The notes, and the skip note that names this report's own variant."""
        if not self.skipped:
            return self.notes
        return self.notes + [
            f"no closed form applies to scenario {self.scenario.name!r} (scheduling="
            f"{'on' if self.scenario.scheduling else 'off'}); variant skipped"]

    def render(self) -> str:
        lines = [f"scenario {self.scenario.name}: M={self.scenario.m} "
                 f"K={self.scenario.k} r_m={self.scenario.r_m:g} "
                 f"r_u={self.scenario.r_u:g} r_s={self.scenario.r_s:g} "
                 f"scheduling={'on' if self.scenario.scheduling else 'off'} "
                 f"oma={self.scenario.oma_beamformer} samples={self.scenario.samples} "
                 f"seed={self.scenario.seed}"]
        for note in self.all_notes:
            lines.append(f"  note: {note}")
        if not self.rows:
            lines.append("  no analytic/Monte-Carlo pairs to compare")
        for row, verdict in zip(self.rows, self.verdicts):
            lines.append(f"  {_snr_label(row.snr_db):>6} dB  {row.metric.value:<26} "
                         f"analytic={row.analytic:.6g} mc={row.mc_value:.6g} "
                         f"|diff|={row.abs_diff:.3g}  {verdict}")
        for snr_db, label, gap in self.gaps:
            lines.append(f"  {_snr_label(snr_db):>6} dB  {label}: {gap:+.3f} BPCU")
        lines.append(f"  verdict: {'PASS' if self.all_pass else 'FAIL'}")
        return "\n".join(lines)


def emit_csv(rows) -> str:
    """Metric rows as CSV text with the fixed schema and deterministic order."""
    rows = sorted(rows, key=lambda r: (r["snr_db"], r["metric"], r["method"]))
    if not rows:
        raise ValueError("no rows to write")
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([_snr_label(r["snr_db"]), r["metric"], r["method"],
                         f"{r['value']:.9g}", f"{r['stderr']:.9g}",
                         f"{r['ci_low']:.9g}", f"{r['ci_high']:.9g}"])
    return text.getvalue()


def _write_text(path: Path, text: str, name):
    """Write ``text`` to ``path``, creating its directory.  An output path that
    cannot be created or written is a usage error, reported as ``name``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioError(f"cannot write {name}: {exc}") from None


def _write_all(files):
    """Write each text of the dict ``files`` {path: text} under a temporary name
    beside its path, and rename them all only after the last write succeeded, so
    a run whose write fails leaves none of its files."""
    temps = []
    try:
        for path, text in files.items():
            if path.is_dir():  # its rename would fail after the others had landed
                raise ScenarioError(f"cannot write {path}: it is a directory")
            temps.append(path.with_name(f".{path.name}.{os.getpid()}.tmp"))
            _write_text(temps[-1], text, path)
        for temp, path in zip(temps, files):
            os.replace(temp, path)
    except OSError as exc:
        raise ScenarioError(f"cannot write {exc.filename2 or exc.filename}: {exc}") from None
    finally:
        for temp in temps:
            if temp.exists():  # not after its rename, nor where --out is no directory
                temp.unlink()


def run_scenario(scenario: Scenario, out_dir=".", mode: str = "both",
                 workers: int = 1):
    """Execute one scenario variant; returns (report, list of CSV paths).

    Writes the CSVs all or nothing, as ``main`` does, and no report.  A metric
    without a closed form gets no analytic rows; in analytic mode a variant
    with none at all writes no CSV and says so in a report note.
    """
    report, csv_rows = _evaluate(scenario, mode, workers)
    files = _csv_files(scenario, csv_rows, out_dir)
    _write_all(files)
    return report, list(files)


def _evaluate(scenario: Scenario, mode: str, workers: int):
    """(report, {metric: CSV rows}) of one variant; writes nothing."""
    if mode not in ("analytic", "mc", "both"):
        raise ScenarioError(f"unknown mode {mode!r}")
    if workers < 1:
        raise ScenarioError(f"need at least one worker, got {workers}")
    report = ComparisonReport(scenario)
    csv_rows = {metric: [] for metric in scenario.metrics}
    grid = sorted(scenario.snr_grid_db)
    cfgs = [LinkConfig(10.0 ** (snr_db / 10.0), scenario.r_m, scenario.r_u, scenario.r_s)
            for snr_db in grid]
    mcs = [{}] * len(cfgs)
    if mode != "analytic":  # every point reuses windows [0, samples): one pass, one pool
        plan = SimulationPlan(scenario.samples, scenario.seed, scenario.scheduling,
                              scenario.oma_beamformer, workers)
        mcs = estimate_many(scenario.metrics, cfgs, (scenario.m, scenario.k), plan)
        if gain_law(scenario.metrics, scenario.m, scenario.k, plan)[0] == "split":
            report.notes.append("OMA gains drawn as the M = 1 system: no paired metric requested")
    kinds = () if mode == "mc" else dict.fromkeys(map(source_metric, scenario.metrics))
    for snr_db, cfg, mc in zip(grid, cfgs, mcs):
        closed = {}  # the closed form of each probability kind, once per point
        for kind in kinds:
            try:
                closed[kind] = analytic_estimate(kind, cfg, scenario.m, scenario.k,
                                                 scenario.na, scenario.scheduling)
            except analysis.UnsupportedAnalyticsError as exc:
                if str(exc) not in report.notes:
                    report.notes.append(str(exc))
        for metric in scenario.metrics:
            source = closed.get(source_metric(metric))
            exact = None if source is None else derive_estimate(metric, cfg, source)
            for method, est in (("analytic", exact), ("mc", mc.get(metric))):
                if est is not None:
                    csv_rows[metric].append({
                        "snr_db": snr_db, "metric": metric.value, "method": method,
                        "value": est.value, "stderr": est.stderr,
                        "ci_low": est.ci_low, "ci_high": est.ci_high})
            if exact is not None and metric in mc:
                row = ReportRow(snr_db, metric, exact.value, mc[metric].value,
                                mc[metric].stderr, scenario.scheduling)
                report.rows.append(row)
                report.verdicts.append(
                    "PASS" if row.abs_diff <= row.tolerance(cfg) else "FAIL")
        for noma_metric, oma_metric, label in _GAP_PAIRS:
            if noma_metric in mc and oma_metric in mc:
                report.gaps.append((snr_db, label,
                                    mc[noma_metric].value - mc[oma_metric].value))
    report.skipped = mode == "analytic" and not any(csv_rows.values()) and not report.notes
    return report, csv_rows


def _csv_files(scenario: Scenario, csv_rows, out_dir) -> dict:
    """{path: CSV text} of one CSV per metric with rows, named after the variant."""
    return {Path(out_dir) / f"{scenario.name}_{metric.value}.csv": emit_csv(rows)
            for metric, rows in csv_rows.items() if rows}


# --- configuration loading ----------------------------------------------------

def parse_snr_grid(text: str):
    """Parse 'LO:HI:STEP' (inclusive) or a comma list of dB values, each kept once."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi, step = (float(x) for x in text.split(":"))
            if step <= 0 or hi < lo:
                raise ValueError
            return tuple(np.arange(lo, hi + step / 2, step).tolist())
        return tuple(dict.fromkeys(float(x) for x in text.split(",")))
    except ValueError:
        raise ScenarioError(f"cannot parse SNR grid {text!r}") from None


def parse_metrics(items):
    out = []
    for item in items:
        try:
            out.append(MetricKind(item.strip()))
        except ValueError:
            valid = ", ".join(m.value for m in MetricKind)
            raise ScenarioError(f"unknown metric {item!r}; valid: {valid}") from None
    return tuple(dict.fromkeys(out))


def _parse_bool(text: str) -> bool:
    if (value := configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())) is None:
        raise ScenarioError(f"cannot parse boolean {text!r}")
    return value


# config key: (Scenario field, parser of its text); a flag's destination is its
# key, and argparse has already converted a numeric flag (README grammar)
_KEYS = {"name": ("name", str), "m": ("m", int), "k": ("k", int), "r_m": ("r_m", float),
         "r_u": ("r_u", float), "r_s": ("r_s", float),
         "snr_db": ("snr_grid_db", parse_snr_grid), "na": ("na", int),
         "metrics": ("metrics", lambda text: parse_metrics(text.split(","))),
         "scheduling": ("scheduling", _parse_bool), "oma_beamformer": ("oma_beamformer", str),
         "samples": ("samples", int), "seed": ("seed", int)}


def load_scenario_file(path) -> Scenario:
    """Load a scenario from a [scenario] section of key=value lines."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:  # a duplicate key or section or a missing header is malformed too
        if not parser.read(path):
            raise ScenarioError(f"cannot read config file {path}")
        if not parser.has_section("scenario"):
            raise ScenarioError(f"{path} has no [scenario] section")
        sec = parser["scenario"]
        for key in sec:  # a misspelt key must not fall back to a default silently
            if key not in _KEYS:
                raise ScenarioError(f"{path}: unknown key {key!r}")
        for req in ("m", "k", "r_m", "r_u", "metrics"):
            if req not in sec:
                raise ScenarioError(f"{path}: missing required key {req!r}")
        texts = {"name": Path(path).stem, "r_s": "0", "snr_db": "0:40:4", "na": "20", **sec}
        return Scenario(**{_KEYS[key][0]: _KEYS[key][1](t) for key, t in texts.items()})
    except (configparser.Error, TypeError, ValueError) as exc:  # some span lines
        raise ScenarioError(f"malformed scenario config {path}: "
                            f"{' '.join(str(exc).splitlines())}") from None


def resolve_scenarios(name=None, config_path=None):
    if name is not None:
        if name not in PRESETS:
            raise ScenarioError(f"unknown scenario {name!r}; presets: "
                                f"{', '.join(sorted(PRESETS))}")
        return list(PRESETS[name]), name
    scenario = load_scenario_file(config_path)
    return [scenario], scenario.name


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    """Each flag given, read as its config key; a repeated flag's values join with commas."""
    texts = {key: ",".join(v) if isinstance(v, list) else v
             for key, v in vars(args).items() if key in _KEYS and v is not None}
    return replace(scenario, **{_KEYS[key][0]: _KEYS[key][1](t) for key, t in texts.items()})


def _job_key(scenario: Scenario, run_name: str):
    """Variants of a run with one key are one job, evaluated once.  The key holds
    every field _evaluate reads but the name, which only a skipped variant's note
    carries, with the gain law in place of the OMA beam: the engine reads the beam
    only to pick that law, and CLOSED_FORMS is keyed by metric and scheduling."""
    law = gain_law(scenario.metrics, scenario.m, scenario.k, scenario)  # plan: beam, scheduling
    return replace(scenario, name=run_name, oma_beamformer=MRT), law


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nomacast",
        description="Link-level NOMA multicast/unicast simulator and "
                    "outage calculator")
    parser._negative_number_matcher = re.compile(r"-\.?\d")  # --snr -5:10:5 is a value
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="preset name (fig1..fig5)")
    source.add_argument("--config", help="path to a scenario config file")
    parser.add_argument("--metric", dest="metrics", action="append",
                        help="metric to evaluate (repeatable); overrides the "
                             "scenario's list")
    parser.add_argument("--mode", choices=("analytic", "mc", "both"),
                        default="both")
    parser.add_argument("--samples", type=int, help="Monte Carlo samples per point")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--snr", dest="snr_db", help="grid as LO:HI:STEP (dB) or comma list")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--na", type=int, help="quadrature node count")
    parser.add_argument("--scheduling", help="on/off, as in a config file")
    parser.add_argument("--oma-beamformer", dest="oma_beamformer",
                        choices=BEAMFORMER_KINDS)
    parser.add_argument("--m", type=int, help="antenna count override")
    parser.add_argument("--k", type=int, help="user count override")
    parser.add_argument("--r-m", dest="r_m", type=float, help="multicast rate")
    parser.add_argument("--r-u", dest="r_u", type=float, help="unicast rate")
    parser.add_argument("--r-s", dest="r_s", type=float, help="secrecy rate")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenarios, run_name = resolve_scenarios(args.scenario, args.config)
        scenarios = [_apply_overrides(s, args) for s in scenarios]
        keys = [_job_key(s, run_name) for s in scenarios]
        if len(set(keys)) == 1:  # one job: one variant, named after the run
            scenarios, keys = [replace(scenarios[0], name=run_name)], keys[:1]
        # each job is evaluated once, as its first variant, before any file is written
        jobs = {key: _evaluate(scenarios[keys.index(key)], args.mode, args.workers)
                for key in dict.fromkeys(keys)}
        reports = [replace(jobs[key][0], scenario=s) for key, s in zip(keys, scenarios)]
        if args.mode == "analytic" and not any(any(rows.values()) for _, rows in jobs.values()):
            raise analysis.UnsupportedAnalyticsError(  # no variant has a closed form
                "; ".join(dict.fromkeys(note for r in reports for note in r.all_notes)))
        csvs = {path: text for key, scenario in zip(keys, scenarios)
                for path, text in _csv_files(scenario, jobs[key][1], args.out).items()}
        summary = "\n\n".join(r.render() for r in reports)
        summary_path = Path(args.out) / f"{run_name}_report.txt"
        _write_all({**csvs, summary_path: summary + "\n"})
        for path in csvs:
            print(f"wrote {path}")
        print(summary)
        print(f"wrote {summary_path}")
        return EXIT_OK if all(r.all_pass for r in reports) else EXIT_COMPARISON_FAIL
    except analysis.UnsupportedAnalyticsError as exc:
        print(f"unsupported analytics: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ScenarioError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OverflowError as exc:
        print(f"config error: a numeric input is out of range ({exc})", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:  # every allocation is sized by the inputs (grid, M, K, na)
        print(f"config error: the request is too large to allocate ({exc})", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:  # a crash must never read as a comparison verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
