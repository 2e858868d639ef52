#!/usr/bin/env python3
"""Byte audit of the oracle, certifier and solver outputs of one source tree.

Writes one JSON line per output: the call, the SHA-256 of its bytes and its
numeric fields, flattened ("witness_direction[2]"; booleans as 0 and 1). The
outputs are margin_report on four seeded batteries:

- positive_instances(200, d_max=8, n_max=14)
- negative_instances(100)
- mixed_instances(300, seed=42)
- the certify-lp shapes: d 2-4, n 5-9, two planted-negative and two
  planted-positive instances each, seeds 700 up

plus ``linfeas certify`` with the CLI's defaults where no value is named:

- on every instance: ``gordan1``, and ``gordan2`` at gamma = |rho|/2
- on every instance whose report is negative past ZERO_BAND: ``gordan3`` at
  gamma = |rho-|/2, ``radius``, ``hoffman-dual``, ``hoffman-simplex`` and
  ``meb``
- on every instance whose report is positive past ZERO_BAND:
  ``hoffman-primal`` and ``meb``

and, on the first three instances of each battery, ``linfeas run`` with each
algorithm in each mode, and ``linfeas batch`` of all three algorithms over
those instances in each mode, both with ``--max-iters 100 --dump-alpha``.

On the certify-lp shapes, each of those statements is also called in the
library, right after margin_report on the same instance, with the arguments
the CLI passes.

Then ``linfeas margin`` on the scaled copies (``normalize: false``) of the
two sets of tests/batteries.py's ``scale_sets``, 150 zero-margin and 90
negative instances, at each of its ``SCALES`` from 1e-9 to 1e12, so that an
output that moves off unit scale is counted field by field. On the negative
set's copies ``linfeas certify`` also runs ``gordan1``, ``gordan3`` at gamma =
scale |rho-|/2, ``radius``, ``hoffman-dual`` and ``hoffman-simplex``, and on
the copies of positive_instances(40) ``gordan2`` at gamma = scale |rho|/2 and
``hoffman-primal``, each rho from the unit copy's report.

Last, one round of the desk pipeline: ``linfeas gen`` of each of the four
kinds at six fixed (d, n) from (3, 10) to (8, 14), ``linfeas margin`` of each
saved instance, ``linfeas batch --algorithms np,vng --workers 2`` over them
all, and ``linfeas report`` of the summaries.

A report or library statement that raises is recorded by its error's type
and message, a library statement that returns by its JSON text, a certify
call by its exit code and its standard output and error, a run by its exit
code and standard output (its standard error names a temporary path), and a
batch by its exit code and standard output and error. Every summary, alpha
dump and trace CSV that a run or batch writes is recorded too, keyed by
command, mode, instance and algorithm; its fields are a summary's or dump's
numbers, or a trace's cells by column ("norm_w[3]"). The desk pipeline's
calls are recorded the same way, with every instance file gen saves and the
report CSV, whose fields are its violations.

The batteries come from this script's own tests/batteries.py and the library
from TREE/src, so two trees are audited on the same instances. Run each tree
in its own process, then compare:

    python scripts/output_audit.py PARENT_TREE --out parent.jsonl
    python scripts/output_audit.py . --out change.jsonl
    python scripts/output_audit.py --compare parent.jsonl change.jsonl

--compare prints, per field, how many outputs moved and the largest |delta|,
and exits 1 when any output's bytes differ.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

RUN_INSTANCES = 3  # per battery, the instances whose run and batch outputs are audited
RUN_ALGORITHMS = ("classic", "np", "vng")
RUN_FLAGS = ["--max-iters", "100", "--dump-alpha"]
DESK_KINDS = {  # kind -> the gen target at dimension d, as the desk-pipeline benchmark poses them
    "planted-positive": lambda d: 0.2,
    "planted-negative": lambda d: -0.5 / d,
    "near-ill-posed": lambda d: None,
    "rank-deficient": lambda d: -0.4 / (d - 1),
}
DESK_PER_KIND = 6  # (d, n) = (3 + i, 10 + i % 5)


def _batteries(first: int | None):
    from batteries import mixed_instances, negative_instances, positive_instances

    from linfeas.generators import GeneratorSpec, generate

    certify_lp = []
    shapes = [(d, n) for d in (2, 3, 4) for n in range(5, 10) if n > d + 1]
    for idx, (d, n) in enumerate((shape for shape in shapes for _ in range(2))):
        for kind, target in (("planted-negative", -0.5 / d), ("planted-positive", 0.2)):
            certify_lp.append(generate(GeneratorSpec(kind=kind, d=d, n=n, target_margin=target, seed=700 + idx)))
    batteries = {
        "positive": positive_instances(200, d_max=8, n_max=14),
        "negative": negative_instances(100),
        "mixed": mixed_instances(300, seed=42),
        "certify-lp": certify_lp,
    }
    return {label: [inst for inst, _ in battery[:first]] for label, battery in batteries.items()}


def _flatten(value, key: str = "", out: dict | None = None) -> dict:
    """The numeric leaves of a JSON value, keyed by their path."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{key}.{k}" if key else k, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{key}[{i}]", out)
    elif isinstance(value, (bool, int, float)):
        out[key] = float(value)
    return out


def _line(call: str, text: str, fields: dict) -> str:
    digest = hashlib.sha256(text.encode()).hexdigest()
    return json.dumps({"call": call, "sha256": digest, "fields": fields}, sort_keys=True)


def _certify_args(report: dict, zero_band: float) -> list[list[str]]:
    """The certify argument lists audited on an instance with this margin report."""
    rho = report["rho_affine"]
    calls = [["--theorem", "gordan1"], ["--theorem", "gordan2", "--gamma", repr(abs(rho) / 2.0)]]
    if rho < -zero_band:
        gamma = repr(abs(report["rho_minus"]) / 2.0)
        calls += [["--theorem", "gordan3", "--gamma", gamma]]
        calls += [["--theorem", theorem] for theorem in ("radius", "hoffman-dual", "hoffman-simplex", "meb")]
    elif rho > zero_band:
        calls += [["--theorem", theorem] for theorem in ("hoffman-primal", "meb")]
    return calls


def _statement(inst, args: list[str]):
    """The result of the statement a certify argument list names, called in-process with the CLI's defaults."""
    import numpy as np

    from linfeas import theorems
    from linfeas.instance import SimplexPoint

    theorem, gamma = args[1], float(args[3]) if len(args) > 2 else 0.0
    if theorem.startswith("gordan"):
        return theorems.gordan_decide(inst, gamma, int(theorem[-1]))
    return {
        "meb": lambda: theorems.certify_meb(inst),
        "radius": lambda: theorems.certify_radius(inst),
        "hoffman-dual": lambda: theorems.hoffman_dual(inst, np.zeros(inst.d), np.eye(inst.n)[0]),
        "hoffman-simplex": lambda: theorems.hoffman_simplex(inst, SimplexPoint.unit_mass(inst.n, 0)),
        "hoffman-primal": lambda: theorems.hoffman_primal(inst, np.ones(inst.n), np.zeros(inst.d)),
    }[theorem]()


def _cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(arg) for arg in argv])
    return code, stdout.getvalue(), stderr.getvalue()


def _json_fields(stdout: str, code: int) -> dict:
    fields = _flatten(json.loads(stdout)) if stdout else {}
    fields["exit"] = float(code)
    return fields


def _file_fields(path: Path) -> dict:
    """A written file's numbers: a JSON file's leaves, or a trace CSV's cells by column."""
    if path.suffix == ".json":
        return _flatten(json.loads(path.read_text(encoding="utf-8")))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {f"{column}[{i}]": float(cell) for i, row in enumerate(rows) for column, cell in row.items()}


def _written(command: str, mode: str, out_dir: Path, out) -> None:
    """Record each file under out_dir, named STEM__ALGORITHM__DIGEST.KIND; the digest hashes a temporary path."""
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():  # none when every call failed early
        stem, algorithm, rest = path.name.split("__")
        call = f"{command} {mode} {stem} {algorithm} {rest.split('.', 1)[1]}"
        print(_line(call, path.read_bytes().decode("utf-8"), _file_fields(path)), file=out)


def _audit_solvers(main, paths: list[Path], tmp: Path, out) -> None:
    """run and batch on every instance in paths (one directory), with every algorithm and mode."""
    from linfeas.algorithms import MODES

    for mode in MODES:
        run_dir, batch_dir = tmp / "run" / mode, tmp / "batch" / mode
        for path in paths:
            for algorithm in RUN_ALGORITHMS:
                argv = ["run", path, "--algorithm", algorithm, "--mode", mode, "--out-dir", run_dir, *RUN_FLAGS]
                code, stdout, _ = _cli(main, argv)
                print(_line(f"run {mode} {path.stem} {algorithm}", f"exit {code}\n{stdout}",
                            _json_fields(stdout, code)), file=out)
        argv = ["batch", "--instances", paths[0].parent, "--algorithms", ",".join(RUN_ALGORITHMS), "--mode", mode,
                "--out-dir", batch_dir, *RUN_FLAGS]
        code, stdout, stderr = _cli(main, argv)
        text = f"exit {code}\n{stdout}{stderr.replace(str(tmp), '<tmp>')}"
        print(_line(f"batch {mode}", text, {"exit": float(code)}), file=out)
        _written("run", mode, run_dir, out)
        _written("batch", mode, batch_dir, out)


def _scaled_certify_args(label: str, unit: dict, scale: float) -> list[list[str]]:
    """The certify argument lists audited on a set's copy at this scale, gamma from the unit copy's report."""
    if label == "negative":
        gamma = repr(scale * abs(unit["rho_minus"]) / 2.0)
        return [["--theorem", "gordan1"], ["--theorem", "gordan3", "--gamma", gamma]] + [
            ["--theorem", theorem] for theorem in ("radius", "hoffman-dual", "hoffman-simplex")]
    if label == "positive":
        return [["--theorem", "gordan2", "--gamma", repr(scale * abs(unit["rho_affine"]) / 2.0)],
                ["--theorem", "hoffman-primal"]]
    return []


def _audit_scaled(main, tmp: Path, first: int | None, out) -> None:
    """margin on each scale set's copies at every scale, and certify on the negative set's and on those of
    positive_instances(40)."""
    from batteries import SCALES, positive_instances, scale_sets, scaled

    from linfeas.instance import save_instance
    from linfeas.margins import margin_report

    sets = {**scale_sets(), "positive": [inst for inst, _ in positive_instances(40)]}
    for label, battery in sets.items():
        for inst in battery[:first]:
            unit = margin_report(inst).as_dict()
            for scale in SCALES:
                path = save_instance(scaled(inst, scale), tmp / "scaled" / f"{label}-{inst.name}-{scale:g}.json")
                calls = [] if label == "positive" else [("margin", ["margin", path])]
                calls += [(f"certify {' '.join(args)}", ["certify", path, *args])
                          for args in _scaled_certify_args(label, unit, scale)]
                for name, argv in calls:
                    code, stdout, stderr = _cli(main, argv)
                    print(_line(f"scaled {name} {scale:g} {label}/{inst.name}",
                                f"exit {code}\n{stdout}{stderr}".replace(str(tmp), "<tmp>"),
                                _json_fields(stdout, code)), file=out)


def _audit_desk(main, tmp: Path, first: int | None, out) -> None:
    """gen, margin, batch and report, as one desk-pipeline round runs them."""
    instances, runs = tmp / "desk" / "instances", tmp / "desk" / "runs"
    for kind, target in DESK_KINDS.items():
        for i in range(min(DESK_PER_KIND, first or DESK_PER_KIND)):
            d, n = 3 + i, 10 + i % 5
            stem = f"{kind}-{i}"
            argv = ["gen", "--kind", kind, "--d", d, "--n", n, "--seed", 2400 + i, "--out", instances / f"{stem}.json"]
            if target(d) is not None:
                argv += ["--target", repr(target(d))]
            code, stdout, stderr = _cli(main, argv)
            print(_line(f"desk gen {stem}", f"exit {code}\n{stdout}{stderr}".replace(str(tmp), "<tmp>"),
                        {"exit": float(code)}), file=out)
            path = instances / f"{stem}.json"
            if path.exists():
                text = path.read_text(encoding="utf-8")
                print(_line(f"desk instance {stem}", text, _flatten(json.loads(text))), file=out)
                code, stdout, stderr = _cli(main, ["margin", path])
                print(_line(f"desk margin {stem}", f"exit {code}\n{stdout}{stderr}", _json_fields(stdout, code)),
                      file=out)
    argv = ["batch", "--instances", instances, "--algorithms", "np,vng", "--mode", "margin-maximization",
            "--workers", "2", "--max-iters", "500", "--out-dir", runs]
    code, stdout, stderr = _cli(main, argv)
    print(_line("desk batch", f"exit {code}\n{stdout}{stderr}".replace(str(tmp), "<tmp>"), {"exit": float(code)}),
          file=out)
    _written("desk", "batch", runs, out)
    code, stdout, stderr = _cli(main, ["report", "--out-dir", runs])
    fields = {f"violation[{i}]": float(row["violation"]) for i, row in enumerate(csv.DictReader(io.StringIO(stdout)))
              if row["violation"]}
    fields["exit"] = float(code)
    print(_line("desk report", f"exit {code}\n{stdout}{stderr}", fields), file=out)


def audit(tree: Path, first: int | None, out) -> None:
    sys.path[:0] = [str(tree / "src"), str(REPO / "tests")]
    from linfeas.cli import main
    from linfeas.instance import json_text, save_instance
    from linfeas.margins import ZERO_BAND, margin_report

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        solver_paths = []
        for label, battery in _batteries(first).items():
            for inst in battery:
                call = f"margin_report {label}/{inst.name}"
                try:
                    report = margin_report(inst).as_dict()
                except ValueError as exc:
                    print(_line(call, f"{type(exc).__name__}: {exc}", {}), file=out)
                    continue
                print(_line(call, json.dumps(report, sort_keys=True), _flatten(report)), file=out)
                for args in _certify_args(report, ZERO_BAND) if label == "certify-lp" else ():
                    call = f"library {' '.join(args)} {label}/{inst.name}"
                    try:
                        text = json_text(_statement(inst, args).as_dict())
                    except (ValueError, RuntimeError) as exc:
                        print(_line(call, f"{type(exc).__name__}: {exc}", {}), file=out)
                        continue
                    print(_line(call, text, _flatten(json.loads(text))), file=out)
                path = save_instance(inst, tmp / "instances" / f"{label}-{inst.name}.json")
                for args in _certify_args(report, ZERO_BAND):
                    code, stdout, stderr = _cli(main, ["certify", path, *args])
                    print(_line(f"certify {' '.join(args)} {label}/{inst.name}", f"exit {code}\n{stdout}{stderr}",
                                _json_fields(stdout, code)), file=out)
            for inst in battery[:RUN_INSTANCES]:
                solver_paths.append(save_instance(inst, tmp / "solvers" / f"{label}-{inst.name}.json"))
        _audit_solvers(main, solver_paths, tmp, out)
        _audit_scaled(main, tmp, first, out)
        _audit_desk(main, tmp, first, out)


def _read(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {row["call"]: row for row in map(json.loads, fh)}


def compare(a: Path, b: Path) -> int:
    left, right = _read(a), _read(b)
    shared = [call for call in left if call in right]
    moved_calls = [call for call in shared if left[call]["sha256"] != right[call]["sha256"]]
    print(f"{len(shared)} outputs in both, {len(moved_calls)} with other bytes; "
          f"{len(left) - len(shared)} only in {a}, {len(right) - len(shared)} only in {b}")
    moved, largest = defaultdict(set), defaultdict(float)
    for call in moved_calls:
        x, y = left[call]["fields"], right[call]["fields"]
        for key in x.keys() | y.keys():
            u, v = x.get(key), y.get(key)
            if u == v or (u is not None and v is not None and math.isnan(u) and math.isnan(v)):
                continue  # a trace's margin_t is nan where the iterate is zero
            field = re.sub(r"\[\d+\]", "[]", key)
            moved[field].add(call)
            delta = math.inf if u is None or v is None else abs(u - v)
            largest[field] = max(largest[field], math.inf if math.isnan(delta) else delta)
    if moved:
        print(f"{'field':<40} {'moved':>6} {'largest |delta|':>16}")
        for field in sorted(moved):
            print(f"{field:<40} {len(moved[field]):>6} {largest[field]:>16.3e}")
    identical = not moved_calls and len(shared) == len(left) == len(right)
    return 0 if identical else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tree", nargs="?", type=Path, help="source tree whose src/ holds the linfeas to audit")
    parser.add_argument("--out", type=Path, help="JSON-lines file to write (default: standard output)")
    parser.add_argument("--first", type=int, help="audit only the first N instances of each battery")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="compare two audit files")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.tree is None:
        parser.error("give a source tree to audit, or --compare A B")
    if args.out is None:
        audit(args.tree.resolve(), args.first, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as out:
            audit(args.tree.resolve(), args.first, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
