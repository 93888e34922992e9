"""Read the CLI's metric CSVs back, for the tests that check what a run wrote.

The package only writes these files: ``nomacast.cli.emit_csv`` formats them
and ``nomacast.cli._write_all`` writes them.  Reading them back is the tests'
job.
"""

from __future__ import annotations

import csv

from nomacast.cli import CSV_HEADER, ScenarioError


def read_csv(path):
    """Parse a metric CSV back into row dicts (floats for numeric columns)."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_HEADER:
            raise ScenarioError(f"unexpected CSV header in {path}")
        for rec in reader:
            out.append({key: text if key in ("metric", "method") else float(text)
                        for key, text in rec.items()})
    return out
