"""Command-line entry point: generate, measure, run, certify, batch, report.

Exit codes: 0 success or statement verified, 1 usage error, or standard
output closed before the output was written (a reader such as head exited
early; no traceback is printed), 2 a bound or certificate check failed (a
genuine finding), 3 statement inapplicable, instance ill-posed, a certify
statement whose simplex broke down in rounding (lp.SimplexBreakdownError, a
state exact arithmetic rules out, which columns far from unit length can
provoke), or a run to which no check applied, 4 a batch worker process
ended without reporting its share.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import pickle
import signal
import sys
from pathlib import Path

import numpy as np

from .algorithms import (
    MODES,
    AlgorithmConfig,
    TraceBudgetError,
    margin_estimate_np,
    perceptron_classic,
    perceptron_normalized,
    require_unit_columns,
    vng,
)
from .generators import GenerationError, GeneratorSpec, generate
from .instance import ProblemInstance, SimplexPoint, json_text, load_instance, save_instance
from .lp import SimplexBreakdownError
from .margins import OracleError, margin_grid_estimate, margin_report
from .reporting import RunSummary, build_run_summary
from .theorems import (
    CertificateConstructionError,
    IllPosedError,
    InapplicableError,
    certify_meb,
    certify_radius,
    gordan_decide,
    hoffman_dual,
    hoffman_primal,
    hoffman_simplex,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_INAPPLICABLE = 3
EXIT_WORKER = 4

VERDICT_EXIT = {"pass": EXIT_OK, "fail": EXIT_VIOLATION, "unchecked": EXIT_INAPPLICABLE}

ALGORITHMS = {
    "classic": perceptron_classic,
    "np": perceptron_normalized,
    "vng": vng,
}

THEOREMS = (
    "gordan1",
    "gordan2",
    "gordan3",
    "hoffman-dual",
    "hoffman-simplex",
    "hoffman-primal",
    "meb",
    "radius",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 reserved for bound violations
        raise _UsageError(message)


def _positive_float(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite nonnegative number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _grid_resolution(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 2, got {text!r}")
    return value


_SHARED_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--out-dir": dict(type=Path, default=Path("out")),
    "--max-iters": dict(type=int, default=10_000),
    "--eps": dict(type=float, default=0.1),
    "--dump-alpha": dict(action="store_true"),
}


def _command(sub, name: str, about: str, shared: tuple[str, ...]) -> _Parser:
    """A subcommand that accepts, of the shared flags, only the ones it reads."""
    command = sub.add_parser(name, help=about)
    for flag in shared:
        command.add_argument(flag, **_SHARED_FLAGS[flag])
    return command


def _build_parser() -> _Parser:
    parser = _Parser(prog="linfeas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    solver_flags = ("--out-dir", "--max-iters", "--eps", "--dump-alpha")

    gen = _command(sub, "gen", "generate an instance with a planted margin", ("--seed", "--out-dir"))
    gen.add_argument("--kind", required=True, choices=("planted-positive", "planted-negative", "near-ill-posed", "rank-deficient"))
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--target", type=float, default=0.0, help="planted margin (sign per kind)")
    gen.add_argument("--jitter", type=float, default=0.0)
    gen.add_argument("--out", type=Path, default=None, help="output path (default under --out-dir)")

    margin = _command(sub, "margin", "margin report for an instance", ("--eps",))
    margin.add_argument("instance", type=Path)
    margin.add_argument("--method", choices=("exact", "grid", "iterative"), default="exact")
    margin.add_argument("--tol-rank", type=_positive_float, default=None, help="rank cutoff override (--method exact)")
    margin.add_argument("--resolution", type=_grid_resolution, default=4096)

    run = _command(sub, "run", "run an algorithm, write trace and summary", solver_flags)
    run.add_argument("instance", type=Path)
    run.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))
    run.add_argument("--mode", default="primal-feasibility", choices=MODES)

    certify = _command(sub, "certify", "verify a statement on an instance", ("--seed",))
    certify.add_argument("instance", type=Path)
    certify.add_argument("--theorem", required=True, choices=THEOREMS)
    certify.add_argument("--gamma", type=_nonnegative_float, default=0.0)
    certify.add_argument("--b", type=str, default=None, help="JSON vector, length d")
    certify.add_argument("--x", type=str, default=None, help="JSON nonnegative vector, length n")
    certify.add_argument("--p", type=str, default=None, help="JSON simplex weights, length n")
    certify.add_argument("--c", type=str, default=None, help="JSON vector, length n")
    certify.add_argument("--w", type=str, default=None, help="JSON vector, length d")
    certify.add_argument("--samples", type=_positive_int, default=32)

    batch = _command(sub, "batch", "fan runs out over instances x algorithms", solver_flags)
    batch.add_argument("--instances", type=Path, required=True, help="directory of instance JSON files")
    batch.add_argument("--algorithms", type=str, default="np,vng")
    batch.add_argument("--mode", default="margin-maximization", choices=MODES)
    batch.add_argument("--workers", type=_positive_int, default=1)

    report = _command(sub, "report", "aggregate run summaries to CSV", ("--out-dir",))
    report.add_argument("--csv", type=Path, default=None, help="write here instead of stdout")

    return parser


def _parse_vector(text: str | None, length: int, label: str) -> np.ndarray | None:
    if text is None:
        return None
    try:
        values = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _UsageError(f"--{label} must be a JSON array: {exc}") from exc
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"--{label} must be an array of numbers: {exc}") from exc
    if arr.shape != (length,):
        raise _UsageError(f"--{label} must have length {length}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise _UsageError(f"--{label} must be finite, got {text!r}")
    return arr


def _load(path: Path) -> ProblemInstance:
    try:
        return load_instance(path)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8, JSON or columns
        raise _UsageError(f"cannot read instance {path}: {exc}") from exc


def _emit(payload: dict) -> None:
    print(json_text(payload))


def cmd_gen(args) -> int:
    try:
        spec = GeneratorSpec(
            kind=args.kind,
            d=args.d,
            n=args.n,
            target_margin=args.target,
            seed=args.seed,
            jitter=args.jitter,
        )
        instance, metadata = generate(spec)
    except OracleError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (ValueError, GenerationError) as exc:
        raise _UsageError(str(exc)) from exc
    out = args.out if args.out is not None else args.out_dir / f"{spec.default_name}.json"
    save_instance(instance, out, metadata=metadata)
    print(out)
    return EXIT_OK


def cmd_margin(args) -> int:
    if args.tol_rank is not None and args.method != "exact":  # only the exact oracle takes a rank cutoff
        raise _UsageError(f"--tol-rank applies only to --method exact, not --method {args.method}")
    instance = _load(args.instance)
    if args.method == "exact":
        try:
            report = margin_report(instance, rank_tol=args.tol_rank)
        except OracleError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_INAPPLICABLE
        _emit(report.as_dict())
        return EXIT_OK
    if args.method == "grid":
        try:
            estimate = margin_grid_estimate(instance, args.resolution)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_INAPPLICABLE
        _emit({
            "method": "grid",
            "resolution": args.resolution,
            "rho_affine_lower": estimate,
            "gap_bound": 2.0 * np.pi / args.resolution,
        })
        return EXIT_OK
    if not (np.isfinite(args.eps) and args.eps > 0.0):
        raise _UsageError(f"--eps must be a finite positive number for --method iterative, got {args.eps}")
    try:
        lower, upper = margin_estimate_np(instance, args.eps)
    except ValueError as exc:  # with eps valid, the solvers' one precondition: unit columns
        print(str(exc), file=sys.stderr)
        return EXIT_INAPPLICABLE
    _emit({
        "method": "iterative",
        "eps": args.eps,
        "rho_plus_lower": lower,
        "rho_plus_upper": upper,
    })
    return EXIT_OK


def _run_one(
    instance_path: Path,
    algorithms: list[str],
    mode: str,
    eps: float,
    max_iters: int,
    out_dir: Path,
    dump_alpha: bool,
) -> list[tuple[RunSummary, Path]]:
    """Run each algorithm on one instance, loaded and measured by the exact oracle once."""
    instance = _load(instance_path)
    try:
        config = AlgorithmConfig(max_iters=max_iters, target_eps=eps, mode=mode)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    try:
        require_unit_columns(instance)  # the solvers' one precondition, checked before the oracle runs
    except ValueError as exc:
        raise InapplicableError(f"{instance_path}: {exc}") from exc
    try:
        report = margin_report(instance)
    except OracleError:
        report = None  # summaries still written, oracle checks skipped
    runs = []
    for algorithm in algorithms:
        certificate, trace = ALGORITHMS[algorithm](instance, config)
        summary = build_run_summary(instance, report, algorithm, mode, certificate, trace)
        digest = hashlib.sha1(
            f"{instance_path}|{algorithm}|{mode}|{eps}|{max_iters}".encode()
        ).hexdigest()[:10]
        stem = f"{instance_path.stem}__{algorithm}__{digest}"
        trace.write_csv(out_dir / f"{stem}.trace.csv")
        if dump_alpha:
            alpha_path = out_dir / f"{stem}.alpha.json"
            alpha_path.parent.mkdir(parents=True, exist_ok=True)
            with open(alpha_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"alpha": trace.coefficients.tolist()}))  # json.dump runs the pure-Python pass
        runs.append((summary, summary.save(out_dir / f"{stem}.summary.json")))
    return runs


def cmd_run(args) -> int:
    task = (args.instance, [args.algorithm], args.mode, args.eps, args.max_iters, args.out_dir, args.dump_alpha)
    ((summary, summary_path),) = _run_one(*task)
    _emit(summary.as_dict())
    print(f"summary: {summary_path}", file=sys.stderr)
    return VERDICT_EXIT[summary.verdict]


def cmd_certify(args) -> int:
    instance = _load(args.instance)
    n, d = instance.n, instance.d
    theorem = args.theorem
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if theorem.startswith("gordan"):
                result = gordan_decide(
                    instance, args.gamma, int(theorem[-1]), sample_seed=args.seed, samples=args.samples
                )
            elif theorem == "meb":
                result = certify_meb(instance)
            elif theorem == "radius":
                result = certify_radius(instance, sample_seed=args.seed, samples=args.samples)
            elif theorem == "hoffman-dual":
                b = _parse_vector(args.b, d, "b")
                x = _parse_vector(args.x, n, "x")
                result = hoffman_dual(instance, np.zeros(d) if b is None else b, np.eye(n)[0] if x is None else x)
            elif theorem == "hoffman-simplex":
                p = _parse_vector(args.p, n, "p")
                point = SimplexPoint.unit_mass(n, 0) if p is None else SimplexPoint.from_approximate(p)
                result = hoffman_simplex(instance, point)
            else:
                c = _parse_vector(args.c, n, "c")
                w = _parse_vector(args.w, d, "w")
                result = hoffman_primal(instance, np.ones(n) if c is None else c, np.zeros(d) if w is None else w)
    except (IllPosedError, InapplicableError, OracleError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INAPPLICABLE
    except SimplexBreakdownError as exc:  # rounding, which the columns' scale can provoke
        print(f"{theorem}: the simplex broke down in rounding on these columns ({exc})", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except CertificateConstructionError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    except FloatingPointError as exc:  # finite inputs whose statement leaves the float range
        raise _UsageError(f"{theorem}: the statement overflows on these inputs ({exc})") from exc
    _emit(result.as_dict())
    return EXIT_OK if result.verified else EXIT_VIOLATION


class _WorkerDied(Exception):
    """A batch worker process ended without reporting its share's outcomes."""


def _batch_worker(task) -> list[tuple[str, str, str]]:
    runs = _run_one(*task)
    return [(summary.instance, summary.algorithm, summary.verdict) for summary, _ in runs]


def _share_outcomes(tasks: list) -> list:
    """Run tasks in turn; each outcome is the task's result or the exception it raised."""
    outcomes = []
    for task in tasks:
        try:
            outcomes.append(_batch_worker(task))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def _fork_share(tasks: list):
    """Start a child that runs tasks and writes their pickled outcomes to a pipe; (pid, read end)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_share_outcomes(tasks)))
            code = 0
        finally:
            os._exit(code)  # flushes none of the parent's buffered output and runs no exit handler
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _share_report(share: int, payload: bytes, status: int, size: int) -> list:
    """A child's outcomes from what it wrote; a child that reported nothing fails each of its tasks."""
    try:
        return pickle.loads(payload)
    except Exception:  # an empty or cut-off payload: the child died before it finished writing
        code = os.waitstatus_to_exitcode(status)
        ended = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        return [_WorkerDied(f"batch share {share}: its worker process {ended} before reporting")] * size


def _run_shares(tasks: list, workers: int) -> list:
    """Results of tasks in task order, task k run by process k mod workers.

    This process runs share 0 after forking one child per other share; where
    os.fork does not exist it runs every share in turn. The first failing
    task's exception is raised once every child is reaped.
    """
    shares = [tasks[k::workers] for k in range(workers)]
    children = {}
    try:
        if hasattr(os, "fork"):
            for k in range(1, workers):
                children[k] = _fork_share(shares[k])
        outcomes = [_share_outcomes(shares[0])]
        for k in range(1, workers):
            if k not in children:
                outcomes.append(_share_outcomes(shares[k]))
                continue
            pid, pipe = children[k]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[k]
            outcomes.append(_share_report(k, payload, status, len(shares[k])))
    finally:
        for pid, pipe in children.values():  # left only when this process's own work was interrupted
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = [outcomes[k % workers][k // workers] for k in range(len(tasks))]
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def cmd_batch(args) -> int:
    instance_dir = args.instances
    paths = sorted(instance_dir.glob("*.json"))
    if not paths:
        raise _UsageError(f"no instance JSON files under {instance_dir}")
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise _UsageError(f"--algorithms names no algorithm, got {args.algorithms!r}")
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise _UsageError(f"unknown algorithms: {unknown}")
    # one task per instance: a process loads and measures its instance once for all algorithms
    tasks = [(path, algorithms, args.mode, args.eps, args.max_iters, args.out_dir, args.dump_alpha) for path in paths]
    per_instance = _run_shares(tasks, min(args.workers, len(tasks)))
    results = [row for rows in per_instance for row in rows]
    for name, algo, verdict in results:
        print(f"{name},{algo},{verdict}")
    verdicts = {verdict for _, _, verdict in results}
    return VERDICT_EXIT[next(v for v in ("fail", "unchecked", "pass") if v in verdicts)]


def cmd_report(args) -> int:
    buffer = io.StringIO()
    plain = csv.writer(buffer, lineterminator="\n")  # quotes a cell holding a comma, a quote or a newline
    quoted = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)  # for a carriage return too
    plain.writerow(["instance", "algorithm", "mode", "check", "passed", "violation"])
    for path in sorted(args.out_dir.glob("*.summary.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            run = [str(payload[key]) for key in ("instance", "algorithm", "mode")]
            checks = [[str(c["name"]), str(c["passed"]), f"{c['violation']:.17g}"] for c in payload.get("checks", [])]
        except (OSError, ValueError, RecursionError, LookupError, TypeError, AttributeError) as exc:
            raise _UsageError(f"cannot read summary {path}: {exc!r}") from exc
        for check in checks or [["", "unchecked", ""]]:  # a run no check applied to gets one row
            (quoted if any("\r" in cell for cell in run + check) else plain).writerow(run + check)
    text = buffer.getvalue()
    if args.csv is not None:
        args.csv.parent.mkdir(parents=True, exist_ok=True)
        args.csv.write_text(text, encoding="utf-8")
        print(args.csv)
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process: building it costs far more than a parse."""
    return _build_parser()


def _drop_stdout() -> None:
    """Point standard output's descriptor at the null device, so the exit flush of a closed pipe is silent."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # in-process callers pass a StringIO, which has none
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        handler = {
            "gen": cmd_gen,
            "margin": cmd_margin,
            "run": cmd_run,
            "certify": cmd_certify,
            "batch": cmd_batch,
            "report": cmd_report,
        }[args.command]
        code = handler(args)
        sys.stdout.flush()  # a reader gone early shows here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_USAGE
    except (_UsageError, TraceBudgetError) as exc:  # an iteration budget too large to trace is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InapplicableError as exc:  # a run refused for its instance, in batch workers too
        print(str(exc), file=sys.stderr)
        return EXIT_INAPPLICABLE
    except _WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
