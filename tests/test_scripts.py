"""Smoke tests for the paper-figure scripts: small runs whose CSVs must respect the predicted rates."""

import csv
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)], check=True, capture_output=True)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_rate_experiment_stays_under_its_bound(tmp_path):
    run_script("rate_experiment.py", "--instances", 2, "--horizon", 200, "--out-dir", tmp_path)
    rows = read_rows(tmp_path / "summary.csv")
    assert len(rows) == 2
    assert all(float(row["worst_slack"]) <= 0.0 for row in rows)


def test_contraction_experiment_beats_the_predicted_factor(tmp_path):
    out = tmp_path / "contraction.csv"
    run_script("contraction_experiment.py", "--instances", 2, "--out", out)
    rows = read_rows(out)
    assert len(rows) == 2
    assert all(float(row["worst_observed"]) <= float(row["predicted_factor"]) for row in rows)
