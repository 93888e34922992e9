"""Command-line front end: scenario runs, SNR sweeps, CSV, comparisons.

A scenario bundles the system size, rate targets, SNR grid, metrics, and
Monte Carlo budget.  The five ``fig*`` presets reproduce the reference
operating points; arbitrary scenarios load from a flat key=value config
file (see the README for the grammar).  Each run writes one CSV per metric
plus a text report comparing analytic and Monte Carlo values wherever both
exist.

Exit codes: 0 all comparisons pass (or nothing to compare), 1 a comparison
failed, 2 configuration error, 3 analytics unsupported for every variant of
the request, 4 internal error (an unexpected exception, reported in one line).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis
from .montecarlo import (BEAMFORMER_KINDS, CLOSED_FORMS, MRT, Estimate, MetricKind,
                         SimulationPlan, analytic_estimate, derive_estimate, estimate_many,
                         source_metric, analytic_value)  # perfbench reads cli.analytic_value
from .transmission import LinkConfig

EXIT_OK = 0
EXIT_COMPARISON_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL_ERROR = 4

CSV_HEADER = ("snr_db", "metric", "method", "value", "stderr", "ci_low", "ci_high")

DEFAULT_SAMPLES = 1_000_000
DEFAULT_SEED = 12345
_CONFIG_KEYS = ("name", "m", "k", "r_m", "r_u", "r_s", "snr_db", "na", "metrics",
                "scheduling", "oma_beamformer", "samples", "seed")  # README grammar


class ScenarioError(Exception):
    """Unknown scenario name, malformed configuration or unwritable output."""


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
        for what, values in (("SNR point", self.snr_grid_db), ("metric", self.metrics)):
            if dup := [getattr(x, "value", x) for x, n in Counter(values).items() if n > 1]:
                raise ScenarioError(f"repeated {what} {dup[0]}")
        return self


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

    @property
    def all_pass(self) -> bool:
        return all(v == "PASS" for v in self.verdicts)

    def render(self) -> str:
        lines = [f"scenario {self.scenario.name}: M={self.scenario.m} "
                 f"K={self.scenario.k} r_m={self.scenario.r_m:g} "
                 f"r_u={self.scenario.r_u:g} r_s={self.scenario.r_s:g} "
                 f"scheduling={'on' if self.scenario.scheduling else 'off'} "
                 f"oma={self.scenario.oma_beamformer} samples={self.scenario.samples} "
                 f"seed={self.scenario.seed}"]
        for note in self.notes:
            lines.append(f"  note: {note}")
        if not self.rows:
            lines.append("  no analytic/Monte-Carlo pairs to compare")
        for row, verdict in zip(self.rows, self.verdicts):
            lines.append(f"  {row.snr_db:6.1f} dB  {row.metric.value:<26} "
                         f"analytic={row.analytic:.6g} mc={row.mc_value:.6g} "
                         f"|diff|={row.abs_diff:.3g}  {verdict}")
        for snr_db, label, gap in self.gaps:
            lines.append(f"  {snr_db:6.1f} dB  {label}: {gap:+.3f} BPCU")
        lines.append(f"  verdict: {'PASS' if self.all_pass else 'FAIL'}")
        return "\n".join(lines)


def emit_csv(rows, path):
    """Write metric rows with the fixed schema and deterministic order."""
    rows = sorted(rows, key=lambda r: (r["snr_db"], r["metric"], r["method"]))
    if not rows:
        raise ValueError("no rows to write")
    path = Path(path)
    try:  # an output path that cannot be created or written is a usage error
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in rows:
                writer.writerow([f"{r['snr_db']:.9g}", r["metric"], r["method"],
                                 f"{r['value']:.9g}", f"{r['stderr']:.9g}",
                                 f"{r['ci_low']:.9g}", f"{r['ci_high']:.9g}"])
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc}") from None
    return path


def run_scenario(scenario: Scenario, out_dir=".", mode: str = "both",
                 workers: int = 1):
    """Execute one scenario variant; returns (report, list of CSV paths).

    A metric without a closed form gets no analytic rows; in analytic mode a
    variant with none at all writes no CSV and says so in a report note.
    """
    report, csv_rows = _evaluate(scenario, mode, workers)
    return report, _write_csvs(scenario, csv_rows, out_dir)


def _evaluate(scenario: Scenario, mode: str, workers: int):
    """(report, {metric: CSV rows}) of one variant; writes nothing."""
    scenario.validate()
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
        mcs = estimate_many(scenario.metrics, cfgs, (scenario.m, scenario.k), SimulationPlan(
            scenario.samples, scenario.seed, scenario.scheduling, scenario.oma_beamformer,
            workers), stream_base=0)
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
    if mode == "analytic" and not any(csv_rows.values()) and not report.notes:
        report.notes.append(
            f"no closed form applies to scenario {scenario.name!r} "
            f"(scheduling={'on' if scenario.scheduling else 'off'}); variant skipped")
    return report, csv_rows


def _write_csvs(scenario: Scenario, csv_rows, out_dir):
    """One CSV per metric with rows, named after the variant; returns the paths."""
    return [emit_csv(rows, Path(out_dir) / f"{scenario.name}_{metric.value}.csv")
            for metric, rows in csv_rows.items() if rows]


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
    if text.lower() in ("on", "true", "yes", "1"):
        return True
    if text.lower() in ("off", "false", "no", "0"):
        return False
    raise ScenarioError(f"cannot parse boolean {text!r}")


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
            if key not in _CONFIG_KEYS:
                raise ScenarioError(f"{path}: unknown key {key!r}")
        for req in ("m", "k", "r_m", "r_u", "metrics"):
            if req not in sec:
                raise ScenarioError(f"{path}: missing required key {req!r}")
        return Scenario(
            name=sec.get("name", Path(path).stem),
            m=sec.getint("m"),
            k=sec.getint("k"),
            r_m=sec.getfloat("r_m"),
            r_u=sec.getfloat("r_u"),
            r_s=sec.getfloat("r_s", 0.0),
            snr_grid_db=parse_snr_grid(sec.get("snr_db", "0:40:4")),
            na=sec.getint("na", 20),
            metrics=parse_metrics(sec.get("metrics").split(",")),
            scheduling=_parse_bool(sec.get("scheduling", "off")),
            oma_beamformer=sec.get("oma_beamformer", MRT),
            samples=sec.getint("samples", DEFAULT_SAMPLES),
            seed=sec.getint("seed", DEFAULT_SEED),
        ).validate()
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
    updates = {}
    if args.metric:
        updates["metrics"] = parse_metrics(args.metric)
    if args.snr is not None:
        updates["snr_grid_db"] = parse_snr_grid(args.snr)
    if args.scheduling is not None:
        updates["scheduling"] = _parse_bool(args.scheduling)
    for key in ("samples", "seed", "na", "oma_beamformer", "m", "k", "r_m", "r_u", "r_s"):
        if getattr(args, key) is not None:
            updates[key] = getattr(args, key)
    return replace(scenario, **updates) if updates else scenario


def _collapse_identical(scenarios, run_name: str):
    """One variant, named after the run, when the overrides made all identical.

    A preset's variants differ in one field (r_s, scheduling or the OMA
    beamformer); overriding that field leaves copies that would repeat the
    same work under misleading names.
    """
    runs = {replace(s, name=run_name) for s in scenarios}
    return list(runs) if len(runs) == 1 else scenarios


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nomacast",
        description="Link-level NOMA multicast/unicast simulator and "
                    "outage calculator")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="preset name (fig1..fig5)")
    source.add_argument("--config", help="path to a scenario config file")
    parser.add_argument("--metric", action="append",
                        help="metric to evaluate (repeatable); overrides the "
                             "scenario's list")
    parser.add_argument("--mode", choices=("analytic", "mc", "both"),
                        default="both")
    parser.add_argument("--samples", type=int, help="Monte Carlo samples per point")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--snr", help="grid as LO:HI:STEP (dB) or comma list")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--na", type=int, help="quadrature node count")
    parser.add_argument("--scheduling", choices=("on", "off"))
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
        scenarios = _collapse_identical(
            [_apply_overrides(s, args).validate() for s in scenarios], run_name)
        # every variant is evaluated before any file is written: all or nothing
        results = [_evaluate(s, args.mode, args.workers) for s in scenarios]
        reports = [report for report, _ in results]
        if args.mode == "analytic" and not any(any(rows.values()) for _, rows in results):
            raise analysis.UnsupportedAnalyticsError(  # no variant has a closed form
                "; ".join(dict.fromkeys(note for r in reports for note in r.notes)))
        for scenario, (_, csv_rows) in zip(scenarios, results):
            for p in _write_csvs(scenario, csv_rows, args.out):
                print(f"wrote {p}")
        summary = "\n\n".join(r.render() for r in reports)
        summary_path = Path(args.out) / f"{run_name}_report.txt"
        try:
            summary_path.parent.mkdir(parents=True, exist_ok=True)
            summary_path.write_text(summary + "\n")
        except OSError as exc:
            raise ScenarioError(f"cannot write {summary_path}: {exc}") from None
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
