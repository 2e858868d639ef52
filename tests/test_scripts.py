"""Smoke tests for the scripts: small runs of the paper-figure experiments, whose CSVs must respect the
predicted rates, of the output audit and of the mutation audit."""

import csv
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from batteries import SCALES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, check=True):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)], check=check, capture_output=True,
                          text=True)


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


def test_output_audit_flags_a_moved_field(tmp_path):
    audit = tmp_path / "audit.jsonl"
    run_script("output_audit.py", SCRIPTS.parent, "--first", 2, "--out", audit)
    rows = [json.loads(line) for line in audit.read_text(encoding="utf-8").splitlines()]
    calls = [row["call"].split() for row in rows]
    assert {call[0] for call in calls} == {"margin_report", "library", "certify", "run", "batch", "scaled", "desk"}
    scaled = {tuple(call[2:]) for call in calls if call[:2] == ["scaled", "margin"]}  # (scale, set/instance)
    assert {scale for scale, _ in scaled} == {f"{scale:g}" for scale in SCALES} and len(scaled) == 2 * 2 * len(SCALES)
    assert all(row["fields"]["exit"] == 0.0 for row in rows if row["call"].startswith("scaled margin "))
    # certify on the copies: five statements on each negative instance, two on each positive one, all refused
    # at 1e-9, where the ill-posed band takes in every margin, and all verified at the other scales
    certified = {(call[3], call[-2], call[-1]): row["fields"]["exit"]  # (theorem, scale, set/instance) -> exit
                 for call, row in zip(calls, rows) if call[:2] == ["scaled", "certify"]}
    assert len(certified) == (2 * 5 + 2 * 2) * len(SCALES)
    assert {(theorem, name.split("/")[0]) for theorem, _, name in certified} == {
        *((theorem, "negative") for theorem in ("gordan1", "gordan3", "radius", "hoffman-dual", "hoffman-simplex")),
        ("gordan2", "positive"), ("hoffman-primal", "positive"),
    }
    assert all(code == (3.0 if scale == "1e-09" else 0.0) for (_, scale, _), code in certified.items())
    # the library slice calls what the CLI's certify-lp calls do, and reads the same numbers
    library = {row["call"].split(" ", 1)[1]: row["fields"] for row in rows if row["call"].startswith("library ")}
    certify = {row["call"].split(" ", 1)[1]: row["fields"] for row in rows
               if row["call"].startswith("certify ") and "certify-lp/" in row["call"]}
    assert library.keys() == certify.keys() and len(library) >= 2
    assert all(fields == {k: v for k, v in certify[call].items() if k != "exit"} for call, fields in library.items())
    written = {(command, mode, algorithm, kind) for command, mode, _, algorithm, kind in
               (call for call in calls if call[0] in ("run", "batch") and len(call) == 5)}
    assert written == {
        (command, mode, algorithm, kind)
        for command in ("run", "batch")
        for mode in ("primal-feasibility", "dual-certificate", "margin-maximization")
        for algorithm in ("classic", "np", "vng")
        for kind in ("summary.json", "alpha.json", "trace.csv")
    }
    desk = [call[1:] for call in calls if call[0] == "desk"]
    kinds = ("planted-positive", "planted-negative", "near-ill-posed", "rank-deficient")
    stems = {f"{kind}-{i}" for kind in kinds for i in range(2)}
    assert {tuple(call) for call in desk if len(call) == 2} == {
        (step, stem) for step in ("gen", "instance", "margin") for stem in stems
    }
    assert {tuple(call) for call in desk if len(call) == 1} == {("batch",), ("report",)}
    assert {tuple(call[1:]) for call in desk if len(call) == 4} == {
        (stem, algorithm, kind) for stem in stems for algorithm in ("np", "vng") for kind in ("summary.json", "trace.csv")
    }
    assert all(row["fields"]["exit"] == 0.0 for row in rows if row["call"] in ("desk batch", "desk report"))
    same = run_script("output_audit.py", "--compare", audit, audit, check=False)
    assert same.returncode == 0, same.stdout
    rows[0]["sha256"] = "0" * 64  # one field one ulp off
    rows[0]["fields"]["rho_affine"] = math.nextafter(rows[0]["fields"]["rho_affine"], math.inf)
    moved = tmp_path / "moved.jsonl"
    moved.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    result = run_script("output_audit.py", "--compare", audit, moved, check=False)
    assert result.returncode == 1
    field, moved_count, delta = result.stdout.splitlines()[-1].split()
    assert (field, moved_count) == ("rho_affine", "1") and 0.0 < float(delta) < 1e-15


def test_mutation_audit_kills_a_mutant_and_refuses_a_stale_one(tmp_path):
    result = run_script("mutation_audit.py", "empty-trace-fails-its-update-checks", check=False)
    assert result.returncode == 0, result.stdout + result.stderr
    outcome, name, first_failure = result.stdout.splitlines()[0].split()
    assert (outcome, name) == ("killed", "empty-trace-fails-its-update-checks")
    assert first_failure.startswith("tests/test_theorems.py::test_a_run_certified_before_any_update_")
    stale = run_script("mutation_audit.py", "no-such-mutant", check=False)
    assert stale.returncode == 2 and "unknown mutants" in stale.stderr
    spec = importlib.util.spec_from_file_location("mutation_audit", SCRIPTS / "mutation_audit.py")
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    (tmp_path / "twice.py").write_text("x = 1\nx = 1\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="old text occurs 2 times in twice.py"):
        audit.check_applies([audit.Mutant("twice", "twice.py", "x = 1", "x = 2", ())], root=tmp_path)
