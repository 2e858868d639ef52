import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import signal
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linfeas.cli
import linfeas.lp
import linfeas.margins
import linfeas.reporting
import linfeas.theorems
from linfeas.algorithms import MODES, AlgorithmConfig, perceptron_classic
from linfeas.cli import main
from linfeas.instance import IngestError, ingest, instance_from_dict, load_instance, save_instance
from linfeas.reporting import build_run_summary


@pytest.fixture
def triangle_path(tmp_path, triangle):
    return save_instance(triangle, tmp_path / "triangle.json")


@pytest.fixture
def axes_unit_path(tmp_path):
    inst = ingest([[1.0, 0.0], [0.0, 1.0]], normalize=True, name="axes")
    return save_instance(inst, tmp_path / "axes.json")


def run_cli(*args):
    return main([str(a) for a in args])


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_gen_and_margin(tmp_path, capsys):
    out = tmp_path / "neg.json"
    code = run_cli(
        "gen", "--kind", "planted-negative", "--d", "2", "--n", "3",
        "--target", "-0.5", "--seed", "0", "--out", out,
    )
    assert code == 0
    assert out.exists()
    capsys.readouterr()

    assert run_cli("margin", out) == 0
    payload = read_json(capsys)
    assert payload["rho_affine"] == pytest.approx(-0.5, abs=1e-9)
    assert payload["method"] == "enumeration"


def test_gen_rejects_bad_spec(tmp_path, capsys):
    code = run_cli(
        "gen", "--kind", "planted-positive", "--d", "2", "--n", "2",
        "--target", "1.5", "--out", tmp_path / "x.json",
    )
    assert code == 1


def test_margin_grid_and_iterative(axes_unit_path, capsys):
    assert run_cli("margin", axes_unit_path, "--method", "grid", "--resolution", "4096") == 0
    payload = read_json(capsys)
    assert payload["rho_affine_lower"] == pytest.approx(1.0 / np.sqrt(2.0), abs=2e-3)

    assert run_cli("margin", axes_unit_path, "--method", "iterative", "--eps", "0.2") == 0
    payload = read_json(capsys)
    assert payload["rho_plus_lower"] <= 1.0 / np.sqrt(2.0) <= payload["rho_plus_upper"]


def test_run_writes_trace_and_summary(tmp_path, triangle_path, capsys):
    out_dir = tmp_path / "runs"
    code = run_cli(
        "run", triangle_path, "--algorithm", "vng", "--mode", "dual-certificate",
        "--eps", "1e-9", "--max-iters", "200", "--out-dir", out_dir, "--dump-alpha",
    )
    assert code == 0
    summary = read_json(capsys)
    assert summary["all_passed"]
    names = {check["name"] for check in summary["checks"]}
    assert {"dual-certificate-rate", "dual-witness-distance", "vng-contraction", "vng-monotone"} <= names
    traces = list(out_dir.glob("*.trace.csv"))
    alphas = list(out_dir.glob("*.alpha.json"))
    summaries = list(out_dir.glob("*.summary.json"))
    assert len(traces) == 1 and len(alphas) == 1 and len(summaries) == 1
    header = traces[0].read_text().splitlines()[0]
    assert header == "t,norm_w,margin_t,loss,chosen_index"


def test_run_infeasible_instance_notes_the_alternative(tmp_path, capsys):
    seg = ingest([[1.0, 0.0], [-1.0, 0.0]], normalize=True, name="segment")
    path = save_instance(seg, tmp_path / "segment.json")
    code = run_cli(
        "run", path, "--algorithm", "classic", "--mode", "primal-feasibility",
        "--max-iters", "40", "--out-dir", tmp_path / "runs",
    )
    assert code == 0  # exhaustion is the expected outcome, not a violation
    summary = read_json(capsys)
    assert summary["termination"] == "exhausted"
    assert summary["certificate"] is None
    note = [c for c in summary["checks"] if c["name"] == "alternative-excludes-feasibility"]
    assert len(note) == 1 and note[0]["passed"]


def test_run_unknown_algorithm_is_usage_error(triangle_path):
    assert run_cli("run", triangle_path, "--algorithm", "sgd") == 1


def test_run_unreadable_instance(tmp_path):
    assert run_cli("run", tmp_path / "missing.json", "--algorithm", "np") == 1


def test_certify_gordan_exit_codes(tmp_path, triangle_path, axes_unit_path, capsys):
    assert run_cli("certify", triangle_path, "--theorem", "gordan3", "--gamma", "0.4") == 0
    payload = read_json(capsys)
    assert payload["alternative_held"] == "second"

    # threshold on the margin itself: refused as ill-posed
    assert run_cli("certify", triangle_path, "--theorem", "gordan3", "--gamma", "0.5") == 3

    assert run_cli("certify", axes_unit_path, "--theorem", "gordan1") == 0
    payload = read_json(capsys)
    assert payload["alternative_held"] == "first"


def test_certify_hoffman_defaults_and_args(tmp_path, triangle_path, axes_unit_path, capsys):
    assert run_cli("certify", triangle_path, "--theorem", "hoffman-simplex") == 0
    assert run_cli("certify", axes_unit_path, "--theorem", "hoffman-dual") == 3  # needs negative margin
    capsys.readouterr()
    assert (
        run_cli(
            "certify", axes_unit_path, "--theorem", "hoffman-primal",
            "--c", "[1, 1]", "--w", "[0, 0]",
        )
        == 0
    )
    payload = read_json(capsys)
    assert payload["bound_value"] == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert payload["exact_distance"] == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_certify_bad_vector_usage(axes_unit_path):
    assert run_cli("certify", axes_unit_path, "--theorem", "hoffman-primal", "--c", "[1]") == 1
    assert run_cli("certify", axes_unit_path, "--theorem", "hoffman-primal", "--c", "oops") == 1


def test_certify_meb_and_radius(tmp_path, triangle_path, axes_unit_path):
    assert run_cli("certify", axes_unit_path, "--theorem", "meb") == 0
    assert run_cli("certify", triangle_path, "--theorem", "radius", "--samples", "8") == 0
    assert run_cli("certify", triangle_path, "--theorem", "radius", "--samples", "1") == 0  # the least count
    assert run_cli("certify", axes_unit_path, "--theorem", "radius") == 3


def test_batch_and_report(tmp_path, capsys):
    inst_dir = tmp_path / "instances"
    for seed in (0, 1):
        run_cli(
            "gen", "--kind", "planted-positive", "--d", "2", "--n", "4",
            "--target", "0.4", "--seed", seed,
            "--out", inst_dir / f"pos{seed}.json",
        )
    capsys.readouterr()
    out_dir = tmp_path / "runs"
    code = run_cli(
        "batch", "--instances", inst_dir, "--algorithms", "np,vng",
        "--mode", "margin-maximization", "--max-iters", "300", "--out-dir", out_dir,
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith("pass") for line in lines)

    csv_path = tmp_path / "report.csv"
    assert run_cli("report", "--out-dir", out_dir, "--csv", csv_path) == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "instance,algorithm,mode,check,passed,violation"
    assert len(rows) > 4


def test_batch_parallel_workers(tmp_path, capsys):
    inst_dir = tmp_path / "instances"
    for seed in (0, 1):
        run_cli(
            "gen", "--kind", "planted-negative", "--d", "2", "--n", "4",
            "--target", "-0.4", "--seed", seed,
            "--out", inst_dir / f"neg{seed}.json",
        )
    capsys.readouterr()
    code = run_cli(
        "batch", "--instances", inst_dir, "--algorithms", "vng", "--workers", "2",
        "--mode", "dual-certificate", "--eps", "1e-8", "--max-iters", "500",
        "--out-dir", tmp_path / "runs",
    )
    assert code == 0
    assert len(list((tmp_path / "runs").glob("*.summary.json"))) == 2


def test_run_without_oracle_is_unchecked(tmp_path, capsys):
    # 20 columns is above the oracle's budget: the run applies no check and must not pass
    rng = np.random.default_rng(5)
    path = save_instance(ingest(rng.standard_normal((20, 3)).tolist(), normalize=True), tmp_path / "wide.json")
    code = run_cli("run", path, "--algorithm", "np", "--max-iters", "50", "--out-dir", tmp_path / "runs")
    assert code == 3
    summary = read_json(capsys)
    assert summary["oracle"] is None and summary["checks"] == []
    assert summary["verdict"] == "unchecked"
    assert not summary["all_passed"]


def test_batch_reports_unchecked_runs(tmp_path, capsys):
    # 20 columns is above the oracle's budget: no check covers these runs, and batch must not pass them
    inst_dir = tmp_path / "instances"
    rng = np.random.default_rng(5)
    for name in ("wide-a", "wide-b"):
        save_instance(ingest(rng.standard_normal((20, 3)).tolist(), normalize=True, name=name), inst_dir / f"{name}.json")
    code = run_cli(
        "batch", "--instances", inst_dir, "--algorithms", "classic", "--mode", "margin-maximization",
        "--max-iters", "50", "--out-dir", tmp_path / "runs",
    )
    assert code == 3
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and all(line.endswith(",classic,unchecked") for line in lines)
    for path in (tmp_path / "runs").glob("*.summary.json"):
        summary = json.loads(path.read_text())
        assert summary["verdict"] == "unchecked" and not summary["all_passed"]


BUDGET_LINE = (
    "instance has n=20 columns, above the enumeration budget 14; "
    "use margin_grid_estimate (rank <= 3) or the iterative estimators in the algorithms module"
)


@pytest.mark.parametrize("command", ["margin", "gen", "certify"])
def test_a_refusal_past_the_budget_is_one_line(tmp_path, capsys, command):
    # the origin inside a hull of 20 columns in R^3: past its budget the rank >= 2 subset judge refuses, in one line
    wide = tmp_path / "wide.json"
    if command == "gen":
        args = ("gen", "--kind", "planted-negative", "--d", "3", "--n", "20", "--target", "-0.3", "--out", wide)
    else:
        rng = np.random.default_rng(5)
        save_instance(ingest(rng.standard_normal((20, 3)).tolist(), normalize=True), wide)
        args = (command, wide, *(("--theorem", "radius") if command == "certify" else ()))
    assert run_cli(*args) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [BUDGET_LINE]


def test_a_feasible_instance_past_the_budget_takes_every_path(tmp_path, capsys):
    # the positive side has no budget: a planted-positive (50, 200) instance is measured and checked like a desk one
    path = tmp_path / "instances" / "big.json"
    gen = ("gen", "--kind", "planted-positive", "--d", "50", "--n", "200", "--target", "0.1", "--seed", "3")
    assert run_cli(*gen, "--out", path) == 0
    assert capsys.readouterr().out == f"{path}\n"
    flags = ("--mode", "margin-maximization", "--max-iters", "2000")
    assert run_cli("run", path, "--algorithm", "np", *flags, "--out-dir", tmp_path / "run") == 0
    summaries = [read_json(capsys)]
    for workers in ("1", "2"):
        out = tmp_path / f"batch{workers}"
        argv = ("batch", "--instances", path.parent, "--algorithms", "np", "--workers", workers, *flags)
        assert run_cli(*argv, "--out-dir", out) == 0
        assert capsys.readouterr().out == "planted-positive-d50-n200-s3,np,pass\n"
        summaries += [json.loads(summary.read_text()) for summary in out.glob("*.summary.json")]
    assert len(summaries) == 3
    for summary in summaries:
        assert summary["verdict"] == "pass" and summary["oracle"]["method"] == "min-norm-point"
        assert [(check["name"], check["passed"]) for check in summary["checks"]] == [
            ("margin-maximization-rate", True), ("meb-convergence", True), ("norm-sandwich", True)
        ]
    for theorem in ("hoffman-primal", "meb"):
        assert run_cli("certify", path, "--theorem", theorem) == 0
        assert read_json(capsys)["verified"] is True


def test_margin_of_a_rank_one_instance_past_the_budget(tmp_path, capsys):
    # the rank-1 judge reads each column once, so no budget guards it: 30 points on a line through the origin
    from oracles import negative_margin_enumeration

    inst = ingest(np.outer(np.linspace(-0.5, 1.0, 30), [0.6, 0.8]).tolist(), normalize=False, name="line")
    assert run_cli("margin", save_instance(inst, tmp_path / "line.json")) == 0
    payload = read_json(capsys)
    assert (payload["rank"], payload["method"], payload["ill_posed"]) == (1, "enumeration", False)
    value, normal, _ = negative_margin_enumeration(inst, inst.basis)
    assert payload["rho_affine"] == -value == pytest.approx(-0.5, abs=1e-12)
    assert payload["witness_direction"] == (-normal.vector).tolist()


@pytest.mark.parametrize("kind, n, target", [("planted-positive", "6", "0.3"), ("planted-negative", "8", "-0.2")])
def test_classic_is_judged_by_the_one_mode_it_honours(tmp_path, capsys, kind, n, target):
    # classic stops only on a primal certificate: under every mode it writes the same trace and certificate,
    # and its summary names primal-feasibility and applies that mode's check
    path = tmp_path / "instances" / f"{kind}.json"
    assert run_cli("gen", "--kind", kind, "--d", "3", "--n", n, "--target", target, "--seed", "1", "--out", path) == 0
    capsys.readouterr()
    printed, traces = [], []
    for mode in MODES:
        argv = ["run", path, "--algorithm", "classic", "--mode", mode, "--max-iters", "500", "--out-dir", tmp_path / mode]
        assert run_cli(*argv) == 0
        printed.append(capsys.readouterr().out)
        (trace,) = (tmp_path / mode).glob("*.trace.csv")
        traces.append(trace.read_bytes())
    assert printed == printed[:1] * 3 and traces == traces[:1] * 3
    summary = json.loads(printed[0])
    assert (summary["mode"], summary["verdict"]) == ("primal-feasibility", "pass")
    expected = "mistake-bound" if kind == "planted-positive" else "alternative-excludes-feasibility"
    assert [check["name"] for check in summary["checks"]] == [expected]
    assert (summary["certificate"] is not None) == (kind == "planted-positive")
    # batch runs classic at its default mode, margin-maximization, and judges it the same way
    assert run_cli("batch", "--instances", path.parent, "--algorithms", "classic", "--out-dir", tmp_path / "batch") == 0
    assert capsys.readouterr().out == f"{summary['instance']},classic,pass\n"


def test_batch_requires_instances(tmp_path):
    assert run_cli("batch", "--instances", tmp_path / "nowhere") == 1


def _three_instances(folder):
    for seed in range(3):
        assert run_cli(
            "gen", "--kind", "planted-positive", "--d", "2", "--n", "4", "--target", "0.4",
            "--seed", seed, "--out", folder / f"pos{seed}.json",
        ) == 0
    return folder


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):  # none alive and none left unreaped
        os.waitpid(-1, os.WNOHANG)


def test_batch_never_forks_more_processes_than_instances(tmp_path, capsys, monkeypatch):
    forks = []
    fork = os.fork

    def recording_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(linfeas.cli.os, "fork", recording_fork)
    one, three = tmp_path / "one", _three_instances(tmp_path / "three")
    one.mkdir()
    (one / "pos0.json").write_bytes((three / "pos0.json").read_bytes())
    capsys.readouterr()
    outputs, counts = {}, {}
    for folder, workers in ((one, "1"), (one, "100000"), (three, "1"), (three, "2"), (three, "100000")):
        forks.clear()
        assert run_cli(
            "batch", "--instances", folder, "--workers", workers, "--max-iters", "50", "--out-dir", tmp_path / "runs"
        ) == 0
        outputs[folder.name, workers] = capsys.readouterr().out
        counts[folder.name, workers] = len(forks)
        _assert_no_child_process()
    assert counts == {("one", "1"): 0, ("one", "100000"): 0, ("three", "1"): 0, ("three", "2"): 1, ("three", "100000"): 2}
    assert outputs["one", "1"] == outputs["one", "100000"]
    assert outputs["three", "1"] == outputs["three", "2"] == outputs["three", "100000"]


def test_batch_without_fork_runs_every_share_in_turn(tmp_path, capsys, monkeypatch):
    folder = _three_instances(tmp_path / "three")
    capsys.readouterr()
    expected = {}
    for workers in ("1", "2"):
        assert run_cli("batch", "--instances", folder, "--workers", workers, "--out-dir", tmp_path / "forked") == 0
        expected[workers] = capsys.readouterr().out
    monkeypatch.delattr(os, "fork")
    assert run_cli("batch", "--instances", folder, "--workers", "2", "--out-dir", tmp_path / "in-turn") == 0
    assert capsys.readouterr().out == expected["1"] == expected["2"]
    assert _tree(tmp_path / "in-turn") == _tree(tmp_path / "forked")


@pytest.mark.parametrize(
    ("death", "ended"),
    [(lambda: os._exit(7), "exited with code 7"), (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9")],
)
def test_a_dead_batch_worker_is_a_one_line_error(tmp_path, capsys, monkeypatch, death, ended):
    folder = _three_instances(tmp_path / "three")
    test_pid, worker = os.getpid(), linfeas.cli._batch_worker

    def dies_in_a_child(task):
        if os.getpid() != test_pid:
            death()
        return worker(task)

    monkeypatch.setattr(linfeas.cli, "_batch_worker", dies_in_a_child)
    capsys.readouterr()
    assert run_cli("batch", "--instances", folder, "--workers", "2", "--out-dir", tmp_path / "runs") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: batch share 1: its worker process {ended} before reporting"]
    _assert_no_child_process()


@pytest.mark.parametrize("failing", [(0, 1), (1, 2)])
def test_batch_reports_the_earliest_failing_task(tmp_path, capsys, monkeypatch, failing):
    # with two processes, tasks 0 and 2 run in this process and task 1 in the child
    folder = _three_instances(tmp_path / "three")
    worker = linfeas.cli._batch_worker

    def refuse_some(task):
        index = int(task[0].stem[-1])
        if index in failing:
            raise linfeas.cli.InapplicableError(f"task {index} refused in process {os.getpid()}")
        return worker(task)

    monkeypatch.setattr(linfeas.cli, "_batch_worker", refuse_some)
    capsys.readouterr()
    assert run_cli("batch", "--instances", folder, "--workers", "2", "--out-dir", tmp_path / "runs") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"task {failing[0]} refused in process ")
    assert line.endswith(f" {os.getpid()}") == (failing[0] % 2 == 0)
    _assert_no_child_process()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_batch_without_workers_is_a_usage_error(tmp_path, capsys, workers):
    path = save_instance(ingest([[1.0, 0.0], [0.0, 1.0]], normalize=True), tmp_path / "instances" / "axes.json")
    assert run_cli("batch", "--instances", path.parent, "--workers", workers, "--out-dir", tmp_path / "runs") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "--workers" in line
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("algorithms", ["", ","])
def test_batch_without_algorithms_is_a_usage_error(tmp_path, capsys, monkeypatch, algorithms):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a batch task ran with no algorithm to run")

    monkeypatch.setattr(linfeas.cli, "_batch_worker", refuse)
    path = save_instance(ingest([[1.0, 0.0], [0.0, 1.0]], normalize=True), tmp_path / "instances" / "axes.json")
    assert run_cli("batch", "--instances", path.parent, "--algorithms", algorithms, "--out-dir", tmp_path / "runs") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "--algorithms" in line
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("algorithms", ["np,np", "np, vng,np"])
def test_batch_refuses_a_repeated_algorithm(tmp_path, capsys, monkeypatch, algorithms):
    # both runs of a repeated name wrote the same trace and summary files, and batch printed two result lines
    def refuse(*_args, **_kwargs):
        raise AssertionError("a batch task ran with a repeated algorithm")

    monkeypatch.setattr(linfeas.cli, "_batch_worker", refuse)
    path = save_instance(ingest([[1.0, 0.0], [0.0, 1.0]], normalize=True), tmp_path / "instances" / "axes.json")
    assert run_cli("batch", "--instances", path.parent, "--algorithms", algorithms, "--out-dir", tmp_path / "runs") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --algorithms names an algorithm more than once, got {algorithms!r}"]
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("resolution", ["1", "0", "-5"])
def test_grid_resolution_below_two_is_a_usage_error(axes_unit_path, capsys, resolution):
    assert run_cli("margin", axes_unit_path, "--method", "grid", "--resolution", resolution) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "--resolution" in line


def test_grid_above_rank_three_is_inapplicable(tmp_path, capsys):
    path = save_instance(ingest(np.eye(4).tolist(), normalize=True), tmp_path / "axes4.json")
    assert run_cli("margin", path, "--method", "grid", "--resolution", "8") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "rank <= 3" in line


def test_usage_error_exit_code():
    assert main(["margin"]) == 1  # missing positional
    assert main(["no-such-command"]) == 1


@pytest.fixture
def mixed_dir(tmp_path):
    """Positive, negative and rank-deficient instances, and one above the oracle's budget."""
    inst_dir = tmp_path / "instances"
    for kind, target in (("planted-positive", "0.3"), ("planted-negative", "-0.3"), ("rank-deficient", "-0.3")):
        assert run_cli(
            "gen", "--kind", kind, "--d", "3", "--n", "6", "--target", target, "--seed", "4",
            "--out", inst_dir / f"{kind}.json",
        ) == 0
    rng = np.random.default_rng(8)
    save_instance(ingest(rng.standard_normal((16, 3)).tolist(), normalize=True, name="wide"), inst_dir / "wide.json")
    return inst_dir


def _tree(root):
    return {path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*"))}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_batch_matches_the_runs_it_fans_out(tmp_path, capsys, mixed_dir, workers):
    algorithms = ["np", "vng", "classic"]
    flags = ["--mode", "margin-maximization", "--max-iters", "200", "--dump-alpha"]
    expected_lines, codes = [], []
    for path in sorted(mixed_dir.glob("*.json")):
        for algorithm in algorithms:
            capsys.readouterr()
            codes.append(run_cli("run", path, "--algorithm", algorithm, *flags, "--out-dir", tmp_path / "run"))
            summary = read_json(capsys)
            expected_lines.append(f"{summary['instance']},{algorithm},{summary['verdict']}")
    assert set(codes) == {0, 3}
    assert [line for line in expected_lines if line.startswith("wide,")] == [
        f"wide,{algorithm},unchecked" for algorithm in algorithms
    ]  # above the oracle's budget
    code = run_cli(
        "batch", "--instances", mixed_dir, "--algorithms", ",".join(algorithms), "--workers", workers,
        *flags, "--out-dir", tmp_path / "batch",
    )
    assert code == max(codes)
    assert capsys.readouterr().out.splitlines() == expected_lines
    run_tree, batch_tree = _tree(tmp_path / "run"), _tree(tmp_path / "batch")
    assert len(run_tree) == 3 * len(expected_lines)  # trace, alpha dump and summary of every run
    assert batch_tree == run_tree


def test_batch_measures_each_instance_once(tmp_path, capsys, monkeypatch, mixed_dir):
    measured = Counter()
    original = linfeas.margins._measure

    def counted(instance, *args, **kwargs):
        measured[instance.name] += 1
        return original(instance, *args, **kwargs)

    monkeypatch.setattr(linfeas.margins, "_measure", counted)
    capsys.readouterr()
    code = run_cli(
        "batch", "--instances", mixed_dir, "--algorithms", "np,vng,classic", "--workers", "1",
        "--max-iters", "100", "--out-dir", tmp_path / "runs",
    )
    assert code == 3
    assert len(capsys.readouterr().out.splitlines()) == 12
    assert measured.pop("wide") == 1  # above the budget: its refusal is kept, so no run measures it again
    assert len(measured) == 3 and set(measured.values()) == {1}


@pytest.mark.parametrize(
    "args",
    [
        ("--theorem", "hoffman-dual", "--x", "[1, -1, 0]"),
        ("--theorem", "gordan1", "--gamma", "0.5"),
    ],
)
def test_certify_refuses_bad_statement_inputs_before_the_oracle(triangle_path, capsys, monkeypatch, args):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the oracle ran for a malformed input")

    monkeypatch.setattr(linfeas.theorems, "margin_report", refuse)
    assert run_cli("certify", triangle_path, *args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize(
    "payload",
    [b"[1, 2]", b'{"columns": "abc"}', b'{"columns": [["1", "0"], ["0", "1"]]}',
     b'{"columns": [[true, false], [false, true]]}', b'{"columns": "123"}', b'{"columns": [[]]}',
     pytest.param(b'{"columns": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", id="nested-too-deep"),
     pytest.param(b"\xff\xfe{}", id="not-utf-8")],
)
def test_malformed_instance_json_is_usage_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    assert run_cli("margin", path) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: cannot read instance")
    assert "Traceback" not in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
_ENTRIES = st.integers(-2, 2) | st.floats(-2.0, 2.0) | st.sampled_from([1e-300, 1e300, 2**64, 10**400])
_PAYLOADS = _JSON | st.fixed_dictionaries(
    {"columns": st.lists(st.lists(_ENTRIES, max_size=4), max_size=6) | _JSON},
    optional={"normalize": _JSON, "name": _JSON},
)


@settings(max_examples=60, deadline=None)
@given(payload=_PAYLOADS, method=st.sampled_from(["exact", "grid", "iterative"]))
def test_arbitrary_instance_json_exits_with_one_line_and_no_traceback(tmp_path_factory, payload, method):
    try:
        instance_from_dict(payload)
    except IngestError:
        pass
    path = tmp_path_factory.mktemp("fuzz") / "instance.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli("margin", path, "--method", method, *(("--eps", "0.5") if method == "iterative" else ()))
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) == (0 if code == 0 else 1)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["margin", "run", "batch", "certify"])
def test_bad_rank_tolerance_is_usage_error(tmp_path, triangle_path, capsys, command, value):
    out_dir = tmp_path / "out"
    args = {
        "margin": ("margin", triangle_path),
        "run": ("run", triangle_path, "--algorithm", "np"),
        "batch": ("batch", "--instances", triangle_path.parent),
        "certify": ("certify", triangle_path, "--theorem", "meb"),
    }[command]
    if command in ("run", "batch"):  # margin and certify write nothing and take no --out-dir
        args = (*args, "--out-dir", out_dir)
    assert run_cli(*args, "--tol-rank", value) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: argument --tol-rank: must be a finite positive number, got '{value}'"
        if command == "margin"  # the only command with a rank cutoff; the others take no --tol-rank at all
        else f"error: unrecognized arguments: --tol-rank {value}"
    ]
    assert not out_dir.exists()  # refused before any work


@pytest.fixture
def thin_heptagon_path(tmp_path, thin_heptagon):
    return save_instance(thin_heptagon, tmp_path / "heptagon.json")


def test_margin_forwards_rank_tolerance(thin_heptagon_path, capsys):
    assert run_cli("margin", thin_heptagon_path) == 0
    default = read_json(capsys)
    assert (default["rank"], default["rank_tolerance"]) == (3, 1e-10)
    assert run_cli("margin", thin_heptagon_path, "--tol-rank", "1e-3") == 0
    coarse = read_json(capsys)
    assert (coarse["rank"], coarse["rank_tolerance"]) == (2, 0.001)
    assert coarse["rho_affine"] < default["rho_affine"] < 0.0


@pytest.mark.parametrize("method", ["grid", "iterative"])
def test_rank_tolerance_with_a_method_that_ignores_it_is_usage_error(triangle_path, capsys, method):
    assert run_cli("margin", triangle_path, "--method", method, "--tol-rank", "1e-3") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --tol-rank applies only to --method exact, not --method {method}"]


@pytest.mark.parametrize(
    "args, line",
    [
        (("certify", "--theorem", "hoffman-dual", "--p", "[5, 0, 0]"),
         "--p applies only to --theorem hoffman-simplex, not --theorem hoffman-dual"),
        (("certify", "--theorem", "meb", "--b", "[1, 2]", "--gamma", "0.3", "--samples", "5"),
         "--gamma applies only to --theorem gordan1, gordan2 or gordan3, not --theorem meb"),
        (("certify", "--theorem", "gordan1", "--samples", "5"),
         "--samples applies only to --theorem gordan3 or radius, not --theorem gordan1"),
        (("certify", "--theorem", "radius", "--gamma", "0"),
         "--gamma applies only to --theorem gordan1, gordan2 or gordan3, not --theorem radius"),
        (("certify", "--theorem", "hoffman-primal", "--x", "[1, 0, 0]"),
         "--x applies only to --theorem hoffman-dual, not --theorem hoffman-primal"),
        (("margin", "--method", "exact", "--eps", "0.5", "--resolution", "7"),
         "--resolution applies only to --method grid, not --method exact"),
        (("margin", "--eps", "0.1"), "--eps applies only to --method iterative, not --method exact"),
        (("margin", "--method", "grid", "--eps", "0.5"), "--eps applies only to --method iterative, not --method grid"),
        (("margin", "--method", "iterative", "--resolution", "64"),
         "--resolution applies only to --method grid, not --method iterative"),
    ],
)
def test_a_flag_the_theorem_or_method_does_not_read_is_refused_before_the_oracle(
    triangle_path, capsys, monkeypatch, args, line
):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the oracle ran for a refused flag")

    monkeypatch.setattr(linfeas.theorems, "margin_report", refuse)
    monkeypatch.setattr(linfeas.cli, "margin_report", refuse)
    assert run_cli(args[0], triangle_path, *args[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {line}"]


@pytest.mark.parametrize("theorem", linfeas.cli.THEOREMS)
def test_every_theorem_accepts_a_seed(triangle_path, axes_unit_path, capsys, theorem):
    # certify-lp passes one --seed to every statement; a theorem without samples ignores it
    path = axes_unit_path if theorem in ("gordan1", "gordan2", "hoffman-primal") else triangle_path
    extra = ("--gamma", "0.2") if theorem in ("gordan2", "gordan3") else ()
    assert run_cli("certify", path, "--theorem", theorem, "--seed", "3", *extra) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "args",
    [
        ("margin",),
        ("certify", "--theorem", "meb"),
        ("run", "--algorithm", "np"),
        ("gen", "--kind", "planted-negative", "--d", "2", "--n", "3", "--target", "-0.5"),
    ],
)
def test_min_norm_point_failure_is_inapplicable(tmp_path, triangle_path, capsys, monkeypatch, args):
    def fail(instance):
        raise linfeas.margins.MinNormPointError("min-norm point failed its optimality check: gap 1.000e-03")

    monkeypatch.setattr(linfeas.margins, "positive_margin_exact", fail)
    if args[0] != "gen":  # gen takes no instance path
        args = (args[0], triangle_path, *args[1:])
    if args[0] in ("run", "gen"):  # margin and certify write nothing and take no --out-dir
        args = (*args, "--out-dir", tmp_path / "out")
    code = run_cli(*args)
    captured = capsys.readouterr()
    if args[0] == "run":  # the summary is still written, with the oracle checks skipped
        assert json.loads(captured.out)["oracle"] is None
        assert "Traceback" not in captured.err
    else:
        assert code == 3
        assert captured.err.splitlines() == ["min-norm point failed its optimality check: gap 1.000e-03"]


def test_nnls_non_convergence_is_a_min_norm_point_failure(triangle_path, triangle, capsys, monkeypatch):
    def fail(matrix, target):
        raise ValueError("NNLS: no convergence in 150 major cycles")

    monkeypatch.setattr(linfeas.margins, "_nnls", fail)
    with pytest.raises(linfeas.margins.MinNormPointError):
        linfeas.margins.positive_margin_exact(triangle)
    assert run_cli("margin", triangle_path) == 3
    assert capsys.readouterr().err.splitlines() == ["min-norm point: NNLS: no convergence in 150 major cycles"]


# the columns of planted-negative-d2-n3-s7029 (tests/batteries.py) times 1e9, columns that the solvers
# refuse as not unit; the oracle measures them in the unit of the longest column, 2**30
SCALED_TRIANGLE = [
    [-25962384.671750962, 999662920.4797766],
    [-894685325.410827, -446696953.75558893],
    [895272337.2073903, -445519295.0156222],
]


def test_margin_of_the_scaled_triangle_scales_the_unit_one(tmp_path, capsys):
    from batteries import negative_instances

    unit = negative_instances(30)[29][0]
    assert unit.name == "planted-negative-d2-n3-s7029"
    path = save_instance(ingest(SCALED_TRIANGLE, normalize=False, name="scaled"), tmp_path / "scaled.json")
    assert run_cli("margin", path) == 0
    payload = read_json(capsys)
    rho_minus = linfeas.margins.margin_report(unit).rho_minus
    assert payload["rho_minus"] == pytest.approx(1e9 * rho_minus, rel=1e-14, abs=0.0)
    assert payload["rho_minus"] == pytest.approx(-4.4611e8, rel=1e-4)


@pytest.mark.parametrize(
    "args",
    [("margin",), ("certify", "--theorem", "radius"), ("batch",)],
)
def test_negative_side_failure_is_one_line(tmp_path, capsys, monkeypatch, args):
    def fail(instance, basis):
        raise linfeas.margins.NegativeMarginError(
            "no supporting hyperplane found; the hull is degenerate at this rank tolerance"
        )

    monkeypatch.setattr(linfeas.margins, "_negative_margin_details", fail)
    path = save_instance(ingest(SCALED_TRIANGLE, normalize=False, name="scaled"), tmp_path / "in" / "scaled.json")
    with pytest.raises(linfeas.margins.NegativeMarginError):
        linfeas.margins.margin_report(load_instance(path))
    if args[0] == "batch":  # the solvers refuse the columns before the oracle runs
        args = ("batch", "--instances", path.parent, "--out-dir", tmp_path / "runs")
        expected = f"{path}: algorithm requires unit columns; ingest with normalize=True"
    else:
        args = (args[0], path, *args[1:])
        expected = "no supporting hyperplane found; the hull is degenerate at this rank tolerance"
    assert run_cli(*args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [expected]


def test_simplex_breakdown_in_certify_is_one_line(triangle_path, capsys, monkeypatch):
    # phase 1 of a ball point's membership program comes out unbounded, which exact arithmetic rules
    # out: rounding can provoke it (a rank-4 instance in R^5 at 1e-6 did on one BLAS kernel)
    monkeypatch.setattr(linfeas.lp, "_pivot_loop", lambda *args: "unbounded")
    assert run_cli("certify", triangle_path, "--theorem", "gordan3", "--gamma", "0.2") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "gordan3: its program broke down in rounding on these columns (phase-1 subproblem cannot be unbounded)"
    ]


def test_hoffman_simplex_empty_witness_set_is_a_simplex_breakdown(triangle_path, capsys, monkeypatch):
    # a negative margin puts the origin in the hull, so exact arithmetic finds the zero-combination
    # weight set nonempty; the l1 distance program finding it empty (as rounding did on a rank-3
    # instance in R^4 at 1e-6 on one BLAS kernel) was reported as a usage error (exit 1)
    monkeypatch.setattr(linfeas.lp, "solve", lambda *args: linfeas.lp.LpSolution(status="infeasible"))
    assert run_cli("certify", triangle_path, "--theorem", "hoffman-simplex") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "hoffman-simplex: its program broke down in rounding on these columns "
        "(target polyhedron is empty (status infeasible))"
    ]


def test_hoffman_primal_failed_projection_is_a_breakdown(axes_unit_path, capsys, monkeypatch):
    # a positive margin makes {y | A^T y >= c} nonempty for every c, so only rounding can fail the
    # projection's feasibility check: stand in for it
    def failing(*_args):
        raise ValueError("halfspace projection failed its feasibility check (tolerance 1e-9)")

    monkeypatch.setattr(linfeas.theorems, "dist_l2_to_halfspaces", failing)
    assert run_cli("certify", axes_unit_path, "--theorem", "hoffman-primal") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "hoffman-primal: its program broke down in rounding on these columns "
        "(halfspace projection failed its feasibility check (tolerance 1e-9))"
    ]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_negative_side_failure_leaves_runs_unchecked(tmp_path, triangle_path, capsys, monkeypatch, workers):
    def fail(instance, basis):
        raise linfeas.margins.NegativeMarginError("instance has rank 0; margins are undefined")

    monkeypatch.setattr(linfeas.margins, "_negative_margin_details", fail)
    save_instance(load_instance(triangle_path), triangle_path.parent / "copy.json")
    code = run_cli(
        "batch", "--instances", triangle_path.parent, "--workers", workers, "--max-iters", "50",
        "--out-dir", tmp_path / "runs",
    )
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [f"triangle,{a},unchecked" for _ in range(2) for a in ("np", "vng")]
    summaries = sorted((tmp_path / "runs").glob("*.summary.json"))
    assert len(summaries) == 4
    assert all(json.loads(path.read_text())["oracle"] is None for path in summaries)


@pytest.fixture
def oracle_calls(monkeypatch):
    """Count the entries into the two exact enumerations behind margin_report."""
    calls = Counter()
    for name in ("positive_margin_exact", "_negative_margin_details"):
        original = getattr(linfeas.margins, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(linfeas.margins, name, counted)
    return calls


def test_exact_oracle_runs_once_per_command(tmp_path, oracle_calls, axes_unit_path, triangle_path):
    commands = {
        "gen planted-negative": (
            "gen", "--kind", "planted-negative", "--d", "3", "--n", "6", "--target", "-0.3",
            "--out", tmp_path / "neg.json",
        ),
        "run np on a feasible instance": (
            "run", axes_unit_path, "--algorithm", "np", "--mode", "margin-maximization",
            "--max-iters", "50", "--out-dir", tmp_path / "runs",
        ),
        "certify meb, feasible": ("certify", axes_unit_path, "--theorem", "meb"),
        "certify meb, infeasible": ("certify", triangle_path, "--theorem", "meb"),
    }
    for label, command in commands.items():
        oracle_calls.clear()
        assert run_cli(*command) == 0, label
        assert oracle_calls["positive_margin_exact"] == 1, (label, oracle_calls)
        assert oracle_calls["_negative_margin_details"] <= 1, (label, oracle_calls)


@pytest.mark.parametrize(
    "command",
    [
        ("run", "{path}", "--algorithm", "np"),
        ("margin", "{path}", "--method", "iterative"),
        ("batch", "--instances", "{dir}", "--workers", "1"),
        ("batch", "--instances", "{dir}", "--workers", "2"),
    ],
)
def test_solvers_on_non_unit_columns_are_inapplicable(tmp_path, capsys, command):
    path = tmp_path / "instances" / "scaled.json"
    path.parent.mkdir()
    for name in ("scaled.json", "scaled2.json"):  # two files, so two workers start a pool
        (path.parent / name).write_text('{"columns": [[2, 0], [0, 1]], "normalize": false}')
    args = [a.format(path=path, dir=path.parent) for a in command]
    if command[0] != "margin":  # margin writes nothing and takes no --out-dir
        args += ["--out-dir", tmp_path / "runs"]
    assert run_cli(*args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.endswith("algorithm requires unit columns; ingest with normalize=True")


def test_non_unit_columns_are_refused_before_the_oracle(tmp_path, capsys, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the oracle ran for an instance the solvers refuse")

    monkeypatch.setattr(linfeas.margins, "_measure", refuse)
    path = tmp_path / "instances" / "scaled.json"
    path.parent.mkdir()
    path.write_text('{"columns": [[2, 0], [0, 1]], "normalize": false}')
    lines = []
    for command in (("run", path, "--algorithm", "np"), ("batch", "--instances", path.parent, "--workers", "1")):
        assert run_cli(*command, "--out-dir", tmp_path / "runs") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines.append(captured.err)
    assert lines[0] == lines[1] == f"{path}: algorithm requires unit columns; ingest with normalize=True\n"


@pytest.mark.parametrize("field", ['"normalize": "false"', '"normalize": 1', '"name": 3', '"name": null'])
def test_an_instance_file_with_a_mistyped_flag_or_name_is_refused(tmp_path, capsys, field):
    path = tmp_path / "typed.json"
    path.write_text(f'{{"columns": [[2, 0], [0, 1]], {field}}}')
    assert run_cli("margin", path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: cannot read instance {path}: ")


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_report_refuses_an_out_dir_that_is_not_a_directory(tmp_path, capsys, kind):
    out_dir = tmp_path / "runs"
    if kind == "file":
        out_dir.write_text("")
    assert run_cli("report", "--out-dir", out_dir) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --out-dir {out_dir} is not a directory"]


@pytest.mark.parametrize(
    "columns",
    ["[[1e200, 0], [0, 1e200]]", "[[1e-200, 0], [0, 1e-200]]", "[[0, 0]]"],
)
def test_unmeasurable_columns_are_refused_on_ingest(tmp_path, capsys, columns):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"columns": {columns}, "normalize": false}}')
    assert run_cli("margin", path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: cannot read instance")


@pytest.mark.parametrize(
    "args",
    [
        ("run", "{path}", "--algorithm", "np", "--max-iters", "0"),
        ("margin", "{path}", "--method", "iterative", "--eps", "0"),
        ("margin", "{path}", "--method", "iterative", "--eps", "inf"),
    ],
)
def test_bad_solver_settings_are_usage_errors(tmp_path, axes_unit_path, capsys, args):
    argv = [a.format(path=axes_unit_path) for a in args]
    if args[0] == "run":  # margin writes nothing and takes no --out-dir
        argv += ["--out-dir", tmp_path / "runs"]
    assert run_cli(*argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize(
    "command, message",
    [
        (("run", "{path}", "--algorithm", "np", "--max-iters", "1" + "0" * 14), f"a trace of 1{'0' * 14} updates"),
        (("batch", "--instances", "{dir}", "--workers", "2", "--max-iters", "100000000000000"), "Unable to allocate"),
        (("run", "{path}", "--algorithm", "vng", "--max-iters", "1" + "0" * 20), f"a trace of 1{'0' * 20} updates"),
        (("margin", "{path}", "--method", "iterative", "--eps", "1e-9"), "a trace of 3999999999999999488 updates"),
        (("margin", "{path}", "--method", "iterative", "--eps", "1e-200"), "a trace of 3999999999999999615"),
    ],
)
def test_an_iteration_budget_too_large_to_trace_is_a_usage_error(tmp_path, axes_unit_path, capsys, command, message):
    # numpy refuses each of these sizes at once, touching no memory; they raised MemoryError or
    # ValueError out of main, and margin printed numpy's "array is too big" with exit 3
    (tmp_path / "axes2.json").write_bytes(axes_unit_path.read_bytes())  # two files, so batch forks a worker
    argv = [a.format(path=axes_unit_path, dir=axes_unit_path.parent) for a in command]
    if command[0] != "margin":
        argv += ["--out-dir", tmp_path / "runs"]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and message in line


@pytest.mark.parametrize(
    "command, message",
    [
        (("certify", "{path}", "--theorem", "radius", "--samples", "1" + "0" * 14), "Unable to allocate 1.42 PiB"),
        (("certify", "{path}", "--theorem", "gordan3", "--gamma", "0.1", "--samples", "1" + "0" * 14),
         "Unable to allocate 1.42 PiB"),
        (("margin", "{path}", "--method", "grid", "--resolution", "1" + "0" * 14), "Unable to allocate 728. TiB"),
        (("gen", "--kind", "planted-negative", "--d", "2", "--n", "1" + "0" * 14, "--target", "-0.5",
          "--out-dir", "{tmp}"), "Unable to allocate 728. TiB"),
        (("gen", "--kind", "planted-positive", "--d", "1" + "0" * 14, "--n", "3", "--target", "0.2",
          "--out-dir", "{tmp}"), "Unable to allocate 728. TiB"),
        (("gen", "--kind", "planted-negative", "--d", "2", "--n", "5", "--target", "-0.5", "--out", "{tmp}"),
         "Is a directory"),
        (("run", "{path}", "--algorithm", "np", "--out-dir", "{path}"), "File exists"),
        (("report", "--out-dir", "{tmp}", "--csv", "{tmp}"), "Is a directory"),
    ],
)
def test_an_unallocatable_size_or_an_unwritable_output_is_a_one_line_error(
    tmp_path, triangle_path, capsys, command, message
):
    # numpy refuses each size at once, touching no memory (a rank-3 grid at such a resolution loops
    # instead, so it is not here); each case ended in a MemoryError or OSError traceback
    argv = [a.format(path=triangle_path, tmp=tmp_path) for a in command]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and message in line


@pytest.mark.parametrize(
    "flags",
    [
        ("--kind", "planted-negative", "--target", "-0.5", "--jitter", "nan"),
        ("--kind", "planted-negative", "--target", "-0.5", "--jitter", "inf"),
        ("--kind", "rank-deficient", "--target", "nan"),
    ],
)
def test_gen_refuses_a_target_or_jitter_that_is_not_finite(tmp_path, capsys, flags):
    # nan jitter wrote "jitter": NaN into the instance file, inf jitter warned and blamed the columns,
    # and a nan target planted -0.5 on the rank-deficient kind
    out = tmp_path / "inst.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("gen", "--d", "3", "--n", "5", *flags, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "must be finite" in line


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--kind", "near-ill-posed", "--target", "0.5"),
         "error: near-ill-posed plants margin 0.0001 itself; target_margin must be 0"),
        (("--kind", "near-ill-posed", "--target", "-0.2"),
         "error: near-ill-posed plants margin 0.0001 itself; target_margin must be 0"),
        (("--kind", "rank-deficient", "--target", "0.3"), "error: rank-deficient needs target_margin in (-1, 0)"),
        (("--kind", "rank-deficient", "--target", "-1.5"), "error: rank-deficient needs target_margin in (-1, 0)"),
    ],
    ids=["near-ill-posed-positive", "near-ill-posed-negative", "rank-deficient-positive", "rank-deficient-below-minus-one"],
)
def test_gen_refuses_a_target_its_kind_cannot_plant(tmp_path, capsys, flags, message):
    # near-ill-posed planted 1e-4 whatever the target, and rank-deficient planted -0.5 for a positive one
    out = tmp_path / "inst.json"
    assert run_cli("gen", "--d", "3", "--n", "6", *flags, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize("kind", ["near-ill-posed", "rank-deficient"])
def test_gen_target_zero_is_the_kinds_default(tmp_path, capsys, kind):
    out = tmp_path / "inst.json"
    assert run_cli("gen", "--kind", kind, "--d", "3", "--n", "6", "--target", "0", "--out", out) == 0
    assert capsys.readouterr().out == f"{out}\n"
    planted = {"near-ill-posed": 1e-4, "rank-deficient": -0.5}[kind]
    assert json.loads(out.read_text())["metadata"]["target_margin"] == planted


@pytest.mark.parametrize(
    "command",
    [
        ("run", "{path}", "--algorithm", "np", "--mode", "dual-certificate"),
        ("batch", "--instances", "{dir}", "--mode", "dual-certificate", "--workers", "1"),
        ("batch", "--instances", "{dir}", "--mode", "dual-certificate", "--workers", "2"),
    ],
)
def test_nan_eps_is_usage_error(tmp_path, axes_unit_path, capsys, command):
    (tmp_path / "axes2.json").write_bytes(axes_unit_path.read_bytes())  # two files, so two workers start a pool
    argv = [a.format(path=axes_unit_path, dir=axes_unit_path.parent) for a in command]
    assert run_cli(*argv, "--eps", "nan", "--out-dir", tmp_path / "runs") == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "nan" in line
    assert not (tmp_path / "runs").exists()


_UNREAD_FLAGS = {
    "gen": ("--tol-rank", "--max-iters", "--eps", "--dump-alpha"),
    "margin": ("--seed", "--out-dir", "--max-iters", "--dump-alpha"),
    "certify": ("--tol-rank", "--out-dir", "--max-iters", "--eps", "--dump-alpha"),
    "run": ("--seed", "--tol-rank"),
    "batch": ("--seed", "--tol-rank"),
    "report": ("--seed", "--tol-rank", "--max-iters", "--eps", "--dump-alpha"),
}
_FLAG_VALUES = {"--seed": "1", "--tol-rank": "1e-3", "--out-dir": "out", "--max-iters": "5", "--eps": "3"}


@pytest.mark.parametrize(
    "command,flag", [(command, flag) for command, flags in _UNREAD_FLAGS.items() for flag in flags]
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, axes_unit_path, capsys, command, flag):
    args = {
        "gen": ("gen", "--kind", "planted-positive", "--d", "2", "--n", "3", "--out", tmp_path / "g.json"),
        "margin": ("margin", axes_unit_path),
        "certify": ("certify", axes_unit_path, "--theorem", "meb"),
        "run": ("run", axes_unit_path, "--algorithm", "np", "--out-dir", tmp_path / "runs"),
        "batch": ("batch", "--instances", axes_unit_path.parent, "--out-dir", tmp_path / "runs"),
        "report": ("report", "--out-dir", tmp_path),
    }[command]
    value = (_FLAG_VALUES[flag],) if flag in _FLAG_VALUES else ()
    assert run_cli(*args, flag, *value) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: unrecognized arguments: {' '.join((flag, *value))}"]
    assert not (tmp_path / "g.json").exists() and not (tmp_path / "runs").exists()
    assert run_cli(command, "--help") == 0
    assert flag not in capsys.readouterr().out


def test_reused_parser_leaks_no_state_between_calls(tmp_path, axes_unit_path, triangle_path, capsys):
    commands = [
        ("margin", axes_unit_path, "--method", "grid", "--resolution", "64"),
        ("margin", axes_unit_path),
        ("margin", triangle_path, "--tol-rank", "1e-3"),
        ("margin", triangle_path),
        ("certify", axes_unit_path, "--theorem", "hoffman-primal", "--c", "[1, 2]", "--w", "[0.5, -1]"),
        ("certify", axes_unit_path, "--theorem", "hoffman-primal"),
        ("certify", triangle_path, "--theorem", "gordan3", "--gamma", "0.2", "--samples", "4", "--seed", "3"),
        ("certify", triangle_path, "--theorem", "gordan3", "--gamma", "0.2"),
        ("margin", axes_unit_path, "--method", "iterative", "--eps", "0.05"),
        ("margin", axes_unit_path, "--method", "iterative"),
        ("margin", axes_unit_path, "--method", "warp"),
        ("gen", "--kind", "planted-positive", "--d", "2", "--n", "3", "--target", "0.2", "--out", tmp_path / "g.json"),
    ]

    def outcome(command):
        code = run_cli(*command)
        return code, capsys.readouterr().out

    fresh = []
    for command in commands:
        linfeas.cli._parser.cache_clear()
        fresh.append(outcome(command))
    assert linfeas.cli._parser() is linfeas.cli._parser()
    for command, expected in zip(commands + commands[::-1], fresh + fresh[::-1]):
        assert outcome(command) == expected, command


@pytest.mark.parametrize(
    "args",
    [
        ("{axes}", "--theorem", "hoffman-primal", "--c", "[NaN, 1]"),
        ("{axes}", "--theorem", "hoffman-primal", "--w", "[NaN, 0]"),
        ("{triangle}", "--theorem", "gordan2", "--gamma", "nan"),
        ("{triangle}", "--theorem", "gordan3", "--gamma", "nan"),
        ("{triangle}", "--theorem", "gordan3", "--gamma", "inf"),
        ("{triangle}", "--theorem", "hoffman-dual", "--x", "[1, 0, NaN]"),
        ("{triangle}", "--theorem", "hoffman-dual", "--b", "[Infinity, 0]"),
        ("{triangle}", "--theorem", "hoffman-simplex", "--p", "[NaN, 0.5, 0.5]"),
        ("{triangle}", "--theorem", "hoffman-dual", "--b", "[null, 0]"),
    ],
)
def test_non_finite_certify_input_is_usage_error(
    axes_unit_path, triangle_path, capsys, recwarn, oracle_calls, args
):
    argv = [a.format(axes=axes_unit_path, triangle=triangle_path) for a in args]
    assert run_cli("certify", *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert not oracle_calls  # refused before any work
    assert not recwarn.list


def test_non_finite_vector_with_a_newline_is_one_error_line(triangle_path, capsys, oracle_calls):
    assert run_cli("certify", triangle_path, "--theorem", "hoffman-dual", "--b", "[NaN\n, 1]") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --b must be finite, got '[NaN\\n, 1]'"]
    assert not oracle_calls


@pytest.mark.parametrize("weights", ["[5, 0, 0]", "[0.5, 0, 0.1]", "[1.5, -0.5, 0]", "[0, 0, 0]"])
def test_certify_refuses_p_off_the_simplex(triangle_path, capsys, oracle_calls, weights):
    # weights off the simplex were rescaled without a word: [5, 0, 0] was certified as e_0
    assert run_cli("certify", triangle_path, "--theorem", "hoffman-simplex", "--p", weights) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: --p must be simplex weights: ")
    assert not oracle_calls


@pytest.mark.parametrize(
    "args, message",
    [
        (("--theorem", "gordan3", "--gamma", "0.25"), "ball point"),
        (("--theorem", "hoffman-dual"), "scaled residual direction is not representable"),
        (("--theorem", "hoffman-simplex"), "reflected hull point is not representable"),
    ],
)
def test_a_certificate_the_theory_guarantees_but_cannot_build_exits_2(triangle_path, capsys, monkeypatch, args, message):
    # a point the inradius puts in the hull that no weights represent is a genuine finding, not a refusal
    monkeypatch.setattr(linfeas.theorems, "representable", lambda _instance, points: [None] * len(points))
    assert run_cli("certify", triangle_path, *args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(message)


@pytest.mark.parametrize("value", ["-3", "0"])
@pytest.mark.parametrize("theorem", [("radius",), ("gordan3", "--gamma", "0.4")])
def test_non_positive_samples_is_usage_error(triangle_path, capsys, oracle_calls, theorem, value):
    assert run_cli("certify", triangle_path, "--theorem", *theorem, "--samples", value) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: argument --samples: must be a positive integer, got '{value}'"
    ]
    assert not oracle_calls


def test_certify_output_is_byte_identical_to_the_recorded_round(tmp_path, capsys):
    # certify radius, hoffman-dual and hoffman-simplex on one certify-lp round, as
    # printed before representable answered batches; their output must not move
    recorded = json.loads((Path(__file__).parent / "data" / "certify_lp_seed7.json").read_text())
    assert len(recorded["cases"]) == 28
    for case in recorded["cases"]:
        path = tmp_path / f"{case['name']}.json"
        path.write_text(json.dumps(case["instance"]))
        for theorem, expected in case["certify"].items():
            assert run_cli("certify", path, "--theorem", theorem, "--seed", "7") == expected["exit"]
            assert capsys.readouterr().out == expected["stdout"], (case["name"], theorem)


def _key_paths(value, prefix=""):
    """The key paths of a JSON value: "ball.center" for a nested object, "checks[].name" inside a list."""
    paths = set()
    if isinstance(value, dict):
        for key, item in value.items():
            paths.add(prefix + key)
            paths |= _key_paths(item, f"{prefix}{key}.")
    elif isinstance(value, list):
        for item in value:
            paths |= _key_paths(item, prefix.removesuffix(".") + "[].")
    return paths


MARGIN_KEYS = {
    "rho_classical", "rho_affine", "rho_plus", "rho_minus", "witness_direction", "witness_weights", "method", "rank",
    "rank_tolerance", "ill_posed", "boundary_pass",
}
GORDAN_KEYS = {
    "gamma", "part", "alternative_held", "residuals", "witness_direction", "witness_weights", "ball_samples",
    "verified", "margin", *(f"margin.{key}" for key in MARGIN_KEYS),
}
HOFFMAN_KEYS = {
    "variant", "bound_value", "constructed_witness", "witness_residual", "witness_distance", "exact_distance", "slack",
    "relaxed_bound", "verified",
}
RUN_KEYS = {
    "instance", "algorithm", "mode", "iterations", "termination", "all_passed", "verdict",
    "certificate", "certificate.kind", "certificate.direction", "certificate.weights", "certificate.epsilon",
    "certificate.iterations",
    "oracle", *(f"oracle.{key}" for key in MARGIN_KEYS),
    "checks", "checks[].name", "checks[].passed", "checks[].violation", "checks[].detail",
}


# every key perfbench/workloads.py and `linfeas report` read is in these sets; a field added to
# or renamed in a result record changes its JSON, and so one of these sets
@pytest.mark.parametrize(
    "fixture, args, keys",
    [
        ("triangle_path", ["margin"], MARGIN_KEYS),
        ("triangle_path", ["certify", "--theorem", "gordan1"], GORDAN_KEYS),
        ("axes_unit_path", ["certify", "--theorem", "gordan2", "--gamma", "0.1"], GORDAN_KEYS),
        ("triangle_path", ["certify", "--theorem", "gordan3", "--gamma", "0.25"],
         GORDAN_KEYS | {"ball_samples[].v", "ball_samples[].weights"}),
        ("triangle_path", ["certify", "--theorem", "hoffman-dual"], HOFFMAN_KEYS),
        ("triangle_path", ["certify", "--theorem", "hoffman-simplex"], HOFFMAN_KEYS),
        ("axes_unit_path", ["certify", "--theorem", "hoffman-primal"], HOFFMAN_KEYS),
        ("axes_unit_path", ["certify", "--theorem", "meb"], {
            "statement", "ball", "ball.center", "ball.radius", "ball.support_weights", "radius_identity_gap",
            "containment_overshoot", "center_gap", "verified",
        }),
        ("triangle_path", ["certify", "--theorem", "radius"],
         {"statement", "inradius", "interior_samples", "failures", "verified"}),
        ("axes_unit_path", ["run", "--algorithm", "np"], RUN_KEYS),
    ],
    ids=["margin", "gordan1", "gordan2", "gordan3", "hoffman-dual", "hoffman-simplex", "hoffman-primal", "meb",
         "radius", "run"],
)
def test_json_key_sets_are_pinned(request, tmp_path, capsys, fixture, args, keys):
    command, *flags = args
    out_dir = ["--out-dir", tmp_path / "out"] if command == "run" else []
    assert run_cli(command, request.getfixturevalue(fixture), *flags, *out_dir) == 0
    out = capsys.readouterr().out
    printed = json.loads(out)
    assert _key_paths(printed) == keys
    if command == "run":  # a run with a certificate and applied checks; its saved summary has the printed bytes
        assert printed["certificate"] is not None and printed["checks"]
        (saved,) = (tmp_path / "out").glob("*.summary.json")
        assert saved.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("payload", ['{"instance": "x"', '{"checks": [{}]}'], ids=["truncated", "missing-fields"])
def test_report_refuses_a_malformed_summary(tmp_path, capsys, payload):
    (tmp_path / "a.summary.json").write_text(payload)
    assert run_cli("report", "--out-dir", tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: cannot read summary {tmp_path / 'a.summary.json'}: ")


def test_report_lists_an_unchecked_run(tmp_path, capsys):
    # the 20-column instance of test_run_without_oracle_is_unchecked: no check applies to its run
    rng = np.random.default_rng(5)
    path = save_instance(ingest(rng.standard_normal((20, 3)).tolist(), normalize=True), tmp_path / "wide.json")
    assert run_cli("run", path, "--algorithm", "np", "--max-iters", "50", "--out-dir", tmp_path / "runs") == 3
    name = read_json(capsys)["instance"]
    assert run_cli("report", "--out-dir", tmp_path / "runs") == 0
    assert capsys.readouterr().out.splitlines() == [
        "instance,algorithm,mode,check,passed,violation",
        f"{name},np,primal-feasibility,,unchecked,",
    ]


def _skewed_oracle(monkeypatch, **shift):
    """Give every reader of the oracle a copy of the exact report, the named fields mapped by the given functions."""
    original = linfeas.margins.margin_report

    def skewed(instance, *args, **kwargs):
        report = original(instance, *args, **kwargs)
        return dataclasses.replace(report, **{field: change(getattr(report, field)) for field, change in shift.items()})

    for module in (linfeas.margins, linfeas.theorems, linfeas.reporting):
        monkeypatch.setattr(module, "margin_report", skewed)


@pytest.mark.parametrize(
    "rho, side",
    [
        (linfeas.margins.ZERO_BAND, 0),
        (math.nextafter(linfeas.margins.ZERO_BAND, math.inf), 1),
        (-linfeas.margins.ZERO_BAND, 0),
        (math.nextafter(-linfeas.margins.ZERO_BAND, -math.inf), -1),
    ],
)
def test_every_statement_reads_the_side_of_its_margin(axes, triangle, monkeypatch, rho, side):
    # one margin at or one step past an edge of the band, fed to each reader: each decides as MarginReport.side
    _skewed_oracle(monkeypatch, rho_affine=lambda _: rho, rho_plus=lambda _: max(rho, 0.0),
                   rho_minus=lambda _: min(rho, 0.0))
    report = linfeas.margins.margin_report(triangle)
    assert report.side() == side
    if side == 0:
        with pytest.raises(linfeas.theorems.IllPosedError, match="within 1e-09 of the decision threshold"):
            linfeas.theorems.gordan_decide(triangle, 0.0, 1)
    else:
        held = linfeas.theorems.gordan_decide(triangle, 0.0, 1).alternative_held
        assert held == ("first" if side == 1 else "second")
    for statement, needs, args in (
        (linfeas.theorems.hoffman_primal, 1, (axes, np.ones(2), np.zeros(2))),
        (linfeas.theorems.hoffman_dual, -1, (triangle, np.zeros(2), np.array([1.0, 0.0, 0.0]))),
    ):
        if side == needs:
            assert statement(*args).bound_value > 0.0
        else:
            sign = "positive" if needs == 1 else "negative"
            with pytest.raises(linfeas.theorems.InapplicableError, match=f"needs a strictly {sign} margin"):
                statement(*args)
    certificate, trace = perceptron_classic(triangle, AlgorithmConfig(max_iters=5))
    summary = build_run_summary(triangle, certificate, trace)
    expected = {1: ["mistake-bound"], 0: [], -1: ["alternative-excludes-feasibility"]}[side]
    assert [check.name for check in summary.checks] == expected


def test_certify_meb_fails_on_a_moved_rho_plus(axes_unit_path, capsys, monkeypatch):
    _skewed_oracle(monkeypatch, rho_plus=lambda rho: rho + 1e-6)
    assert run_cli("certify", axes_unit_path, "--theorem", "meb") == 2
    out = read_json(capsys)
    assert out["statement"] == "meb" and out["verified"] is False
    assert out["containment_overshoot"] > 1e-9


def test_certify_radius_fails_on_an_inflated_inradius(triangle_path, capsys, monkeypatch):
    _skewed_oracle(monkeypatch, rho_minus=lambda rho: 1.1 * rho)
    assert run_cli("certify", triangle_path, "--theorem", "radius") == 2
    out = read_json(capsys)
    assert out["statement"] == "radius" and out["verified"] is False
    assert out["inradius"] == pytest.approx(0.55)
    assert out["failures"] and all(f.startswith("interior sample ") for f in out["failures"])


def test_certify_radius_fails_on_a_deflated_inradius(triangle_path, capsys, monkeypatch):
    # the interior samples shrink with the claimed inradius and stay representable: only the
    # point just beyond the claimed nearest facet, still inside the hull, gives it away
    _skewed_oracle(monkeypatch, rho_minus=lambda rho: 0.9 * rho)
    assert run_cli("certify", triangle_path, "--theorem", "radius") == 2
    out = read_json(capsys)
    assert out["statement"] == "radius" and out["verified"] is False
    assert out["inradius"] == pytest.approx(0.45)
    assert out["failures"] == ["point beyond the nearest facet was representable"]


def test_certify_meb_refuses_non_unit_columns_before_the_oracle(tmp_path, capsys, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the oracle ran for an instance meb refuses")

    monkeypatch.setattr(linfeas.theorems, "margin_report", refuse)
    path = tmp_path / "scaled.json"
    path.write_text('{"columns": [[2, 0], [0, 1]], "normalize": false}')
    assert run_cli("certify", path, "--theorem", "meb") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["minimum_enclosing_ball requires unit columns (ingest with normalize=True)"]


def test_certify_radius_refusal_is_the_shared_negative_margin_line(axes_unit_path, capsys):
    assert run_cli("certify", axes_unit_path, "--theorem", "radius") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["statement needs a strictly negative margin, instance has 7.071e-01"]


@pytest.fixture(scope="module")
def certify_fuzz_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("certify-fuzz")
    angles = np.deg2rad([90.0, 210.0, 330.0])
    triangle = ingest(np.column_stack([np.cos(angles), np.sin(angles)]).tolist(), normalize=True, name="triangle")
    axes = ingest([[1.0, 0.0], [0.0, 1.0]], normalize=True, name="axes")
    return {"triangle": save_instance(triangle, folder / "triangle.json"), "axes": save_instance(axes, folder / "axes.json")}


_VECTOR_TEXT = st.none() | st.text(max_size=12) | st.lists(st.floats(), max_size=4).map(json.dumps)


@settings(max_examples=60, deadline=None)
@given(
    theorem=st.sampled_from(linfeas.cli.THEOREMS),
    fixture=st.sampled_from(["triangle", "axes"]),
    gamma=st.none() | st.floats(),
    vectors=st.fixed_dictionaries({flag: _VECTOR_TEXT for flag in ("b", "x", "p", "c", "w")}),
)
def test_arbitrary_certify_input_exits_with_one_line_and_no_traceback(
    certify_fuzz_paths, theorem, fixture, gamma, vectors
):
    reads = linfeas.cli.THEOREM_FLAGS[theorem]  # a flag the theorem does not read is refused before its inputs
    argv = ["certify", certify_fuzz_paths[fixture], "--theorem", theorem]
    if gamma is not None and "gamma" in reads:
        argv.append(f"--gamma={gamma!r}")
    argv += [f"--{flag}={text}" for flag, text in vectors.items() if text is not None and flag in reads]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(*argv)
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "fixture, theorem, vector",
    [("triangle", "hoffman-dual", "--x=[1e308, 1e308, 1e308]"),
     ("triangle", "hoffman-dual", "--b=[1e308, 1e308]"),
     ("triangle", "hoffman-simplex", "--p=[1e308, 1e308, 1e308]"),
     ("axes", "hoffman-primal", "--c=[1e308, 1e308]"),
     ("axes", "hoffman-primal", "--w=[-1e308, 1e308]")],
)
def test_certify_overflow_is_one_usage_error(certify_fuzz_paths, capsys, fixture, theorem, vector):
    # finite inputs whose statement leaves the float range: no numpy warning, no
    # Infinity or NaN in the output, and no false violation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("certify", certify_fuzz_paths[fixture], "--theorem", theorem, vector) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {theorem}: the statement overflows on these inputs (")


def test_report_quotes_names_that_hold_a_comma_or_a_line_break(tmp_path, capsys):
    names = ["a,b", "two\nlines", 'say "hi"', "carriage\rreturn", "plain"]
    for k, name in enumerate(names):
        path = save_instance(ingest([[1.0, 0.0], [0.0, 1.0]], normalize=True, name=name), tmp_path / f"i{k}.json")
        assert run_cli("run", path, "--algorithm", "np", "--max-iters", "20", "--out-dir", tmp_path / "runs") == 0
    capsys.readouterr()
    assert run_cli("report", "--out-dir", tmp_path / "runs") == 0
    text = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    per_run = Counter(row["instance"] for row in rows)
    assert set(per_run) == set(names) and len(set(per_run.values())) == 1
    assert {(row["algorithm"], row["mode"], row["passed"]) for row in rows} == {("np", "primal-feasibility", "True")}
    # an ordinary row is written as before: its cells joined by commas, unquoted
    plain = [",".join(row.values()) for row in rows if row["instance"] == "plain"]
    assert [line for line in text.splitlines() if line.startswith("plain,")] == plain


@settings(max_examples=40, deadline=None)
@given(
    payload=_PAYLOADS,
    command=st.sampled_from(["run", "batch"]),
    algorithms=st.sampled_from(["classic", "np", "vng", "np,vng", "", ","]),
    mode=st.sampled_from(["primal-feasibility", "dual-certificate", "margin-maximization"]),
    max_iters=st.integers(-1, 20),
)
def test_arbitrary_run_and_batch_input_exits_with_one_line_and_no_traceback(
    tmp_path_factory, payload, command, algorithms, mode, max_iters
):
    folder = tmp_path_factory.mktemp("run-fuzz")
    path = folder / "instances" / "instance.json"
    path.parent.mkdir()
    path.write_text(json.dumps(payload))
    if command == "run":
        argv = ["run", path, "--algorithm", algorithms.split(",")[0]]
    else:
        argv = ["batch", "--instances", path.parent, "--algorithms", algorithms, "--workers", "1"]
    argv += ["--mode", mode, "--max-iters", max_iters, "--eps", "0.5", "--out-dir", folder / "out"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(*argv)
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "command",
    [
        ["certify", "{instance}", "--theorem", "gordan3", "--gamma", "0.05"],  # written by the print itself
        ["margin", "{instance}"],  # small enough to sit in the buffer until main flushes it
        ["report", "--out-dir", "{folder}"],
    ],
)
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, triangle_path, command):
    import subprocess
    import sys

    src = str(Path(linfeas.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [part.format(instance=triangle_path, folder=tmp_path) for part in command]
    reader, writer = os.pipe()
    os.close(reader)  # the reader is gone before the first byte is written, as after `| head -c 10`
    try:
        done = subprocess.run(
            [sys.executable, "-m", "linfeas.cli", *argv], stdout=writer, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(writer)
    assert done.returncode == 1
    assert done.stderr == b""


def test_closed_stdout_in_process_leaves_the_callers_stream_alone(triangle_path, capsys):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    with contextlib.redirect_stdout(Closed()):
        assert run_cli("margin", triangle_path) == 1
    assert capsys.readouterr().err == ""


@pytest.fixture
def hexagon_path(tmp_path):
    """A regular hexagon in a random 2-plane of R^120: rank 2 with n = 6, so [A; 1^T] would have 121 rows."""
    plane, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((120, 2)))
    angles = 2.0 * np.pi * np.arange(6) / 6
    columns = plane @ np.vstack([np.cos(angles), np.sin(angles)])
    hexagon = ingest(columns.T.tolist(), normalize=True, name="hexagon")
    return save_instance(hexagon, tmp_path / "instances" / "hexagon.json")


@pytest.mark.parametrize("theorem", ["hoffman-simplex", "hoffman-dual"])
def test_hoffman_bounds_certify_a_low_rank_hexagon_in_high_dimension(hexagon_path, capsys, theorem):
    assert run_cli("certify", hexagon_path, "--theorem", theorem) == 0
    assert read_json(capsys)["verified"] is True


def test_runs_on_a_low_rank_hexagon_in_high_dimension_replay_the_dual_distance(tmp_path, hexagon_path, capsys):
    assert run_cli("run", hexagon_path, "--algorithm", "np", "--out-dir", tmp_path / "run") == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "dual-witness-distance" in [check["name"] for check in json.loads(captured.out)["checks"]]
    code = run_cli(
        "batch", "--instances", hexagon_path.parent, "--algorithms", "np,vng", "--workers", "2",
        "--out-dir", tmp_path / "batch",
    )
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    assert captured.out.splitlines() == ["hexagon,np,pass", "hexagon,vng,pass"]
    for path in (tmp_path / "batch").glob("*.summary.json"):
        assert "dual-witness-distance" in [check["name"] for check in json.loads(path.read_text())["checks"]]
