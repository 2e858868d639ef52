import contextlib
import csv
import dataclasses
import io
import json
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
import linfeas.margins
import linfeas.theorems
from linfeas.cli import main
from linfeas.instance import IngestError, ingest, instance_from_dict, load_instance, save_instance


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
    # classic ignores --mode and no check covers it outside primal-feasibility
    inst_dir = tmp_path / "instances"
    for kind, target in (("planted-positive", "0.3"), ("planted-negative", "-0.3")):
        assert run_cli(
            "gen", "--kind", kind, "--d", "3", "--n", "6", "--target", target, "--out", inst_dir / f"{kind}.json"
        ) == 0
    capsys.readouterr()
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
    original = linfeas.cli.margin_report

    def counted(instance, *args, **kwargs):
        measured[instance.name] += 1
        return original(instance, *args, **kwargs)

    monkeypatch.setattr(linfeas.cli, "margin_report", counted)
    capsys.readouterr()
    code = run_cli(
        "batch", "--instances", mixed_dir, "--algorithms", "np,vng,classic", "--workers", "1",
        "--max-iters", "100", "--out-dir", tmp_path / "runs",
    )
    assert code == 3
    assert len(capsys.readouterr().out.splitlines()) == 12
    assert len(measured) == 4 and set(measured.values()) == {1}


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
        code = run_cli("margin", path, "--method", method, "--eps", "0.5")
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


# the columns of planted-negative-d2-n3-s7029 (tests/batteries.py) times 1e9: at that scale the
# negative side's absolute tolerances find no supporting hyperplane
SCALED_TRIANGLE = [
    [-25962384.671750962, 999662920.4797766],
    [-894685325.410827, -446696953.75558893],
    [895272337.2073903, -445519295.0156222],
]


@pytest.mark.parametrize(
    "args",
    [("margin",), ("certify", "--theorem", "radius"), ("batch",)],
)
def test_negative_side_failure_is_one_line(tmp_path, capsys, args):
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


def test_simplex_breakdown_in_certify_is_one_line(tmp_path, capsys):
    # a rank-4 instance in R^5 at 1e-6: phase 1 of a ball point's membership program
    # comes out unbounded in rounding, which exact arithmetic rules out
    from batteries import mixed_instances

    (inst,) = [inst for inst, _ in mixed_instances(60, seed=42) if inst.name == "rank-deficient-d5-n10-s84"]
    path = save_instance(ingest((1e-6 * inst.columns.T).tolist(), normalize=False, name="tiny"), tmp_path / "tiny.json")
    assert run_cli("certify", path, "--theorem", "gordan3", "--gamma", "2.36e-7") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "gordan3: the simplex broke down in rounding on these columns (phase-1 subproblem cannot be unbounded)"
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

    monkeypatch.setattr(linfeas.cli, "margin_report", refuse)
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

    for module in (linfeas.margins, linfeas.theorems):
        monkeypatch.setattr(module, "margin_report", skewed)


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
    argv = ["certify", certify_fuzz_paths[fixture], "--theorem", theorem]
    if gamma is not None:
        argv.append(f"--gamma={gamma!r}")
    argv += [f"--{flag}={text}" for flag, text in vectors.items() if text is not None]
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
