"""The three benchmark workloads: solve-large, desk-pipeline and certify-lp.

Before each round a workload builds its inputs from the seed in ``setup``
(timed) and computes its reference values in ``prepare`` (untimed); every
round runs the same operations. Only calls into linfeas are timed; every
output is checked with ``checks`` afterwards, outside the timed region.

Each timed call is keyed by what it does, so every round adds one sample per
key and the run can report each call at its best of all rounds. Times are
reference seconds (see ``clock``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import shutil
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import clock

WORKERS = 2  # batch workers; the benchmark machine has 2 cores


@dataclass
class Recorder:
    """Timings and outcomes of one run, gathered round by round.

    Each dict maps an operation key to its reference seconds in every round
    so far. ``samples`` holds every timed call, ``latency`` the calls behind
    op_p50/op_p90 and ``work`` those behind work_per_s, with ``units`` the
    steps, batch runs or certify calls that each of them does. ``wall``
    holds the timed calls in wall seconds.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    wall: dict[str, list[float]] = field(default_factory=dict)
    latency: dict[str, list[float]] = field(default_factory=dict)
    work: dict[str, list[float]] = field(default_factory=dict)
    units: dict[str, float] = field(default_factory=dict)

    def timed(self, key: str, fn, *args):
        result, wall, elapsed = clock.timed(fn, *args)
        self.samples.setdefault(key, []).append(elapsed)
        self.wall.setdefault(key, []).append(wall)
        return result, elapsed

    def add_latency(self, key: str, seconds: float) -> None:
        self.latency.setdefault(key, []).append(seconds)

    def add_work(self, key: str, units: float, seconds: float) -> None:
        self.units[key] = units
        self.work.setdefault(key, []).append(seconds)

    def attempt(self, label: str, fn) -> None:
        """Run one operation; an exception or any reported problem marks it failed."""
        try:
            problems = fn()
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)


def cli(argv: list[str]) -> tuple[int, str]:
    """``linfeas.cli.main`` in-process, with its standard output captured."""
    from linfeas.cli import main  # looked up per call, so a traced round gets the wrapper

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _columns(path: Path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return np.array(json.load(fh)["columns"], dtype=float).T


def _unit_columns(rng, d: int, n: int) -> np.ndarray:
    cols = rng.standard_normal((d, n))
    return cols / np.linalg.norm(cols, axis=0)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Reference values for the checks; not timed."""

    def round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def probes(self) -> dict[str, float]:
        """Extra per-layer figures measured outside the rounds of a traced run."""
        return {}


# --- solve-large --------------------------------------------------------------


class SolveLarge(Workload):
    """Library solvers on seeded instances from (4, 8) to (50, 200)."""

    name = "solve-large"
    SIZES = ((4, 8), (20, 100), (50, 200))
    COPIES = 4  # instances per size and side: 120 timed call kinds a round
    CAP = 0.2  # feasible columns satisfy a . u >= CAP for a hidden unit u
    BUDGET = 1000
    EPS = 0.05
    # classic ignores the mode, so it runs once per instance
    CALLS = (
        ("classic", "margin-maximization"),
        ("np", "margin-maximization"),
        ("np", "dual-certificate"),
        ("vng", "margin-maximization"),
        ("vng", "dual-certificate"),
    )

    def setup(self) -> None:
        from linfeas import load_instance

        rng = np.random.default_rng([self.seed, 1])
        inst_dir = _fresh(self.workdir / "instances")
        self.cases = []
        for (d, n), copy, feasible in itertools.product(self.SIZES, range(self.COPIES), (True, False)):
            cols = self._feasible(rng, d, n) if feasible else self._infeasible(rng, d, n)
            path = inst_dir / f"d{d}n{n}-{'feasible' if feasible else 'infeasible'}-{copy}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"name": path.stem, "columns": cols.T.tolist(), "normalize": True}, fh)
            self.cases.append({"d": d, "n": n, "feasible": feasible, "path": path,
                               "instance": load_instance(path)})

    def _feasible(self, rng, d: int, n: int) -> np.ndarray:
        u = _unit_columns(rng, d, 1)[:, 0]
        kept = np.zeros((d, 0))
        while kept.shape[1] < n:
            batch = _unit_columns(rng, d, 4096)
            kept = np.hstack([kept, batch[:, u @ batch >= self.CAP]])
        return kept[:, :n]

    def _infeasible(self, rng, d: int, n: int) -> np.ndarray:
        # regular simplex (inradius exactly 1/d) under a random rotation, plus random columns
        centred = np.eye(d + 1) - 1.0 / (d + 1)
        _, _, vt = np.linalg.svd(centred)
        simplex = vt[:d] @ centred
        simplex /= np.linalg.norm(simplex, axis=0)
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        rotated = (q * np.sign(np.diag(r))) @ simplex
        cols = np.hstack([rotated, _unit_columns(rng, d, n - d - 1)])
        return cols[:, rng.permutation(n)]

    def prepare(self) -> None:
        for case in self.cases:
            cols = case["instance"].columns
            case["rho_plus"] = checks.min_norm_point(cols).rho_plus if case["feasible"] else 0.0

    def round(self, rec: Recorder) -> None:
        from linfeas import AlgorithmConfig, perceptron_classic, perceptron_normalized, vng

        solvers = {"classic": perceptron_classic, "np": perceptron_normalized, "vng": vng}
        out_dir = _fresh(self.workdir / "traces")
        for case in self.cases:
            for algo, mode in self.CALLS:
                key = f"{case['path'].stem}-{algo}-{mode}"
                csv_path = out_dir / f"{key}.csv"

                def op(case=case, algo=algo, mode=mode, csv_path=csv_path, key=key):
                    config = AlgorithmConfig(max_iters=self.BUDGET, target_eps=self.EPS, mode=mode)
                    (cert, trace), solve_s = rec.timed(f"{key}/solve", solvers[algo], case["instance"], config)
                    _, write_s = rec.timed(f"{key}/csv", trace.write_csv, csv_path)
                    rec.add_latency(key, solve_s + write_s)
                    rec.add_work(key, trace.steps, solve_s)
                    return self._check(case, algo, mode, cert, trace, csv_path)

                rec.attempt(key, op)

    def _check(self, case, algo, mode, cert, trace, csv_path) -> list[str]:
        cols = case["instance"].columns
        rho = case["rho_plus"]
        problems = []
        if cert is not None and cert.kind == "primal-feasible":
            updates = cert.iterations if algo == "classic" else None
            problems += checks.check_primal_certificate(cols, cert.direction, updates, rho)
        if cert is not None and cert.kind == "dual-epsilon":
            problems += checks.check_dual_certificate(cols, cert.weights.weights, self.EPS)
        if case["feasible"]:
            if algo == "classic" and cert is None:
                problems.append("classic found no certificate on a feasible instance")
            if algo == "np":
                problems += checks.check_feasible_norms(trace.norms, rho)
            if algo == "vng":
                problems += checks.check_feasible_norms(trace.norms, rho, upper=False)
        else:
            if algo == "classic" and cert is not None:
                problems.append("classic returned a certificate on an infeasible instance")
            if algo == "np":
                problems += checks.check_np_infeasible_norms(trace.norms)
                if mode == "dual-certificate" and cert is None:
                    problems.append(f"no dual certificate although 1/sqrt(t) <= eps by t = {self.BUDGET}")
        if algo == "vng":
            lower = None if case["feasible"] else 1.0 / case["d"]
            problems += checks.check_vng_norms(trace.norms, lower)
        if algo == "np":
            _, norms, chosen = checks.read_trace_csv(csv_path)
            problems += checks.check_np_trace(cols, chosen, norms)
        return problems

    def probes(self) -> dict[str, float]:
        """tracemalloc peak of one full-budget np call per size (the trace buffers dominate)."""
        from linfeas import AlgorithmConfig, perceptron_normalized

        config = AlgorithmConfig(max_iters=self.BUDGET, mode="margin-maximization")
        peak = 0
        for case in self.cases:
            tracemalloc.start()
            try:
                perceptron_normalized(case["instance"], config)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return {"algorithms.trace_peak_mb": peak / 2**20}


# --- desk-pipeline ------------------------------------------------------------


class DeskPipeline(Workload):
    """The CLI path at desk scale: gen, margin, batch and report, in-process."""

    name = "desk-pipeline"
    KINDS = ("planted-positive", "planted-negative", "near-ill-posed", "rank-deficient")
    PER_KIND = 25  # instances per kind: 100 a round, 200 timed gen and margin call kinds
    GROUPS = 4  # batches per kind: a shorter batch call is bracketed more closely by the speed probe
    BATCH_ITERS = 500
    BALL_SAMPLES = 2

    @classmethod
    def specs(cls) -> list[tuple[str, int, int, float | None]]:
        """(kind, d, n, target) for one round: per kind, 25 distinct (d, n) in 3..8 x 10..14."""
        out = []
        for kind in cls.KINDS:
            for i in range(cls.PER_KIND):
                d, n = 3 + i % 6, 10 + i % 5
                target = {
                    "planted-positive": 0.2,
                    "planted-negative": -0.5 / d,
                    "near-ill-posed": None,
                    "rank-deficient": -0.4 / (d - 1),
                }[kind]
                out.append((kind, d, n, target))
        return out

    def setup(self) -> None:
        """Fresh output tree and one small gen + margin per kind, so lazy imports finish."""
        warm = _fresh(self.workdir / "warmup")
        for k, kind in enumerate(self.KINDS):
            target = {"planted-positive": "0.2", "planted-negative": "-0.2", "near-ill-posed": "0",
                      "rank-deficient": "-0.3"}[kind]
            path = warm / f"{k}.json"
            code, _ = cli(["gen", "--kind", kind, "--d", "3", "--n", "6", "--target", target,
                           "--seed", str(self.seed), "--out", str(path)])
            if code != 0:
                raise RuntimeError(f"warm-up gen for {kind} exited {code}")
            code, _ = cli(["margin", str(path)])
            if code != 0:
                raise RuntimeError(f"warm-up margin for {kind} exited {code}")

    def round(self, rec: Recorder) -> None:
        base = _fresh(self.workdir / "round")
        run_dir = base / "runs"
        refs: dict[str, dict] = {}
        rng = np.random.default_rng([self.seed, 2])
        groups: dict[Path, int] = {}  # batch input directory -> instances in it
        for idx, (kind, d, n, target) in enumerate(self.specs()):
            stem = f"i{idx:02d}"
            group = base / "instances" / f"{kind}-{idx % self.GROUPS}"
            groups[group] = groups.get(group, 0) + 1
            path = group / f"{stem}.json"
            gen_seed = self.seed * 1000 + idx
            argv = ["gen", "--kind", kind, "--d", str(d), "--n", str(n), "--seed", str(gen_seed), "--out", str(path)]
            if target is not None:
                argv += ["--target", repr(target)]

            def gen_op(argv=argv, path=path, kind=kind, d=d, target=target, stem=stem):
                (code, _), elapsed = rec.timed(f"gen/{stem}", cli, argv)
                rec.add_latency(f"gen/{stem}", elapsed)
                if code != 0:
                    return [f"gen exited {code}"]
                refs[stem] = ref = self._reference(_columns(path))
                return self._check_gen(ref, kind, d, target)

            def margin_op(path=path, stem=stem):
                (code, text), elapsed = rec.timed(f"margin/{stem}", cli, ["margin", str(path)])
                rec.add_latency(f"margin/{stem}", elapsed)
                if code != 0:
                    return [f"margin exited {code}"]
                return self._check_margin(refs[stem], json.loads(text), rng)

            rec.attempt(f"gen/{stem}/{kind}/d{d}", gen_op)
            if stem in refs:
                rec.attempt(f"margin/{stem}/{kind}/d{d}", margin_op)

        for group, count in groups.items():
            argv = ["batch", "--instances", str(group), "--algorithms", "np,vng", "--mode",
                    "margin-maximization", "--workers", str(WORKERS), "--max-iters", str(self.BATCH_ITERS),
                    "--out-dir", str(run_dir)]

            def batch_op(argv=argv, key=f"batch/{group.name}", runs=2 * count):
                (code, text), elapsed = rec.timed(key, cli, argv)
                rec.add_work(key, runs, elapsed)
                lines = [line for line in text.splitlines() if line.strip()]
                problems = [] if code == 0 else [f"batch exited {code}"]
                if len(lines) != runs:
                    problems.append(f"batch printed {len(lines)} result lines for {runs} runs")
                return problems

            rec.attempt(f"batch/{group.name}", batch_op)
        total_checks = 0
        for stem in sorted(refs):
            for algo in ("np", "vng"):
                found = sorted(run_dir.glob(f"{stem}__{algo}__*.summary.json"))
                holder = {}

                def run_op(found=found, stem=stem, algo=algo, holder=holder):
                    if len(found) != 1:
                        return [f"{len(found)} summary files"]
                    with open(found[0], "r", encoding="utf-8") as fh:
                        summary = json.load(fh)
                    holder["checks"] = len(summary["checks"])
                    trace_csv = Path(str(found[0]).replace(".summary.json", ".trace.csv"))
                    return self._check_run(refs[stem], algo, summary, trace_csv)

                rec.attempt(f"run/{stem}/{algo}", run_op)
                total_checks += holder.get("checks", 0)

        def report_op():
            csv_path = base / "report.csv"
            (code, _), _ = rec.timed("report", cli, ["report", "--out-dir", str(run_dir), "--csv", str(csv_path)])
            if code != 0:
                return [f"report exited {code}"]
            with open(csv_path, "r", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            problems = []
            if len(rows) != total_checks:
                problems.append(f"report has {len(rows)} rows for {total_checks} checks")
            if any(row["passed"] != "True" for row in rows):
                problems.append("report lists a failed check")
            return problems

        rec.attempt("report", report_op)

    @staticmethod
    def _reference(cols: np.ndarray) -> dict:
        basis, _ = checks.span_coordinates(cols)
        mnp = checks.min_norm_point(cols)
        feasible = mnp.rho_plus > 1e-9
        return {
            "columns": cols,
            "rank": basis.shape[1],
            "feasible": feasible,
            "rho_plus": mnp.rho_plus,
            "inradius": None if feasible else checks.inradius(cols),
        }

    @staticmethod
    def _check_gen(ref: dict, kind: str, d: int, target: float | None) -> list[str]:
        cols = ref["columns"]
        problems = []
        if cols.shape[0] != d:
            problems.append(f"instance has dimension {cols.shape[0]}, asked for {d}")
        if np.abs(np.linalg.norm(cols, axis=0) - 1.0).max() > 1e-12:
            problems.append("instance columns are not unit")
        if kind == "planted-positive" and ref["rho_plus"] < target - 1e-9:
            problems.append(f"planted margin {target} but rho+ = {ref['rho_plus']:.6g}")
        if kind == "near-ill-posed" and not ref["feasible"]:
            problems.append("near-ill-posed instance is infeasible")
        if kind in ("planted-negative", "rank-deficient"):
            if ref["feasible"]:
                problems.append(f"{kind} instance has the origin outside its hull")
            elif ref["inradius"] < abs(target) - 1e-9:
                problems.append(f"planted inradius {abs(target):.6g} but the hull holds {ref['inradius']:.6g}")
        if kind == "rank-deficient" and ref["rank"] != d - 1:
            problems.append(f"rank-deficient instance has rank {ref['rank']}")
        return problems

    def _check_margin(self, ref: dict, report: dict, rng) -> list[str]:
        cols = ref["columns"]
        rho = report["rho_affine"]
        if ref["feasible"]:
            problems = checks.check_min_norm_witness(cols, report["witness_weights"], report["rho_plus"], ref["rho_plus"])
            attained = float((np.asarray(report["witness_direction"]) @ cols).min())
            if abs(attained - rho) > checks.TOL:
                problems.append(f"witness direction attains {attained:.17g}, not rho {rho:.17g}")
            return problems
        problems = checks.check_infeasible_witness(cols, report["witness_direction"], rho, ref["inradius"])
        problems += checks.check_simplex(report["witness_weights"], cols.shape[1])
        problems += checks.check_ball_representable(cols, 0.99 * abs(rho), self.BALL_SAMPLES, rng)
        return problems

    @staticmethod
    def _check_run(ref: dict, algo: str, summary: dict, trace_csv: Path) -> list[str]:
        problems = []
        if not summary["checks"]:
            problems.append("summary applied no checks")
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        if failed or not summary["all_passed"]:
            problems.append(f"summary checks failed: {failed}")
        _, norms, chosen = checks.read_trace_csv(trace_csv)
        cols = ref["columns"]
        if ref["feasible"]:
            problems += checks.check_feasible_norms(norms, ref["rho_plus"])
        elif algo == "np":
            problems += checks.check_np_infeasible_norms(norms)
        if algo == "vng":
            problems += checks.check_vng_norms(norms, ref["inradius"])
        else:
            problems += checks.check_np_trace(cols, chosen, norms)
        return problems


# --- certify-lp ---------------------------------------------------------------


class CertifyLp(Workload):
    """``linfeas certify`` on small generated instances: the LP-backed statements."""

    name = "certify-lp"
    SHAPES = tuple((d, n) for d in (2, 3, 4) for n in (5, 6, 7, 8, 9) if n > d + 1)  # (d, n)
    COPIES = 2  # instances per shape and kind: 196 timed call kinds a round
    NEGATIVE = ("gordan3", "radius", "hoffman-dual", "hoffman-simplex", "meb")
    POSITIVE = ("hoffman-primal", "meb")

    def setup(self) -> None:
        from linfeas import GeneratorSpec, generate, save_instance

        inst_dir = _fresh(self.workdir / "instances")
        self.cases = []
        for idx, ((d, n), _) in enumerate(itertools.product(self.SHAPES, range(self.COPIES))):
            for kind, target in (("planted-negative", -0.5 / d), ("planted-positive", 0.2)):
                spec = GeneratorSpec(kind=kind, d=d, n=n, target_margin=target, seed=self.seed * 100 + idx)
                instance, metadata = generate(spec)
                path = save_instance(instance, inst_dir / f"{kind}-{idx}.json", metadata=metadata)
                self.cases.append({"path": path, "negative": kind == "planted-negative"})

    def prepare(self) -> None:
        for case in self.cases:
            cols = _columns(case["path"])
            case["columns"] = cols
            if case["negative"]:
                case["inradius"] = checks.inradius(cols)
            else:
                case["rho_plus"] = checks.min_norm_point(cols).rho_plus

    def round(self, rec: Recorder) -> None:
        for case in self.cases:
            for theorem in self.NEGATIVE if case["negative"] else self.POSITIVE:
                argv = ["certify", str(case["path"]), "--theorem", theorem, "--seed", str(self.seed)]
                if theorem == "gordan3":
                    argv += ["--gamma", repr(0.5 * case["inradius"])]
                key = f"{theorem}/{case['path'].stem}"

                def op(case=case, theorem=theorem, argv=argv, key=key):
                    (code, text), elapsed = rec.timed(key, cli, argv)
                    rec.add_latency(key, elapsed)
                    rec.add_work(key, 1, elapsed)
                    if code != 0:
                        return [f"certify exited {code}"]
                    payload = json.loads(text)
                    if payload.get("verified") is not True:
                        return ["certify did not report verified: true"]
                    return self._check(case, theorem, payload)

                rec.attempt(key, op)

    def _check(self, case: dict, theorem: str, out: dict) -> list[str]:
        cols = case["columns"]
        d, n = cols.shape
        x0 = np.zeros(n)
        x0[0] = 1.0
        if theorem == "gordan3":
            return self._check_gordan3(cols, out)
        if theorem == "radius":
            gap = abs(out["inradius"] - case["inradius"])
            return [f"inradius off the Qhull value by {gap:.3e}"] if gap > checks.TOL else []
        if theorem == "meb":
            ball = out["ball"]
            rho_plus = 0.0 if case["negative"] else case["rho_plus"]
            problems = checks.check_meb(cols, ball["center"], ball["radius"], rho_plus)
            problems += checks.check_simplex(ball["support_weights"], n)
            gap = float(np.linalg.norm(cols @ np.asarray(ball["support_weights"]) - np.asarray(ball["center"])))
            if gap > checks.TOL:
                problems.append(f"centre is not the support combination (gap {gap:.3e})")
            return problems
        witness = np.asarray(out["constructed_witness"], dtype=float)
        bound = out["bound_value"]
        if theorem == "hoffman-dual":
            # from x0 = e_0 to {x >= 0 | A x = 0}: bound ||A x0|| / inradius
            expected = 1.0 / case["inradius"]
            exact = checks.l1_distance(x0, cols, np.zeros(d))
            residual = float(np.linalg.norm(cols @ witness))
            problems = [] if witness.min() >= -1e-12 else ["witness has a negative entry"]
            distance = float(np.abs(witness - x0).sum())
        elif theorem == "hoffman-simplex":
            # from p = e_0 to {p in simplex | A p = 0}: bound 2r / (r + inradius), r = ||a_0|| = 1
            expected = 2.0 / (1.0 + case["inradius"])
            eq = np.vstack([cols, np.ones((1, n))])
            exact = checks.l1_distance(x0, eq, np.concatenate([np.zeros(d), [1.0]]))
            residual = float(np.linalg.norm(cols @ witness))
            problems = checks.check_simplex(witness, n)
            distance = float(np.abs(witness - x0).sum())
        else:  # hoffman-primal from w = 0 to {y | A^T y >= 1}: distance and bound are both 1/rho+
            expected = 1.0 / case["rho_plus"]
            exact = expected
            residual = float(np.clip(1.0 - cols.T @ witness, 0.0, None).max())
            problems = []
            distance = float(np.linalg.norm(witness))
        if residual > checks.TOL:
            problems.append(f"witness residual {residual:.3e}")
        if abs(distance - out["witness_distance"]) > checks.TOL:
            problems.append(f"witness distance {out['witness_distance']:.17g}, recomputed {distance:.17g}")
        if distance > bound + checks.TOL:
            problems.append(f"witness distance {distance:.17g} exceeds the bound {bound:.17g}")
        if abs(bound - expected) > checks.TOL * max(1.0, expected):
            problems.append(f"bound {bound:.17g}, expected {expected:.17g} from the reference margin")
        problems += checks.check_hoffman_bound(bound, exact)
        return problems

    @staticmethod
    def _check_gordan3(cols: np.ndarray, out: dict) -> list[str]:
        if out["alternative_held"] != "second":
            return [f"alternative {out['alternative_held']} held below the inradius"]
        problems = []
        gamma = out["gamma"]
        for k, sample in enumerate(out["ball_samples"]):
            v = np.asarray(sample["v"], dtype=float)
            problems += checks.check_simplex(sample["weights"], cols.shape[1])
            residual = float(np.linalg.norm(cols @ np.asarray(sample["weights"]) - v))
            if residual > checks.TOL:
                problems.append(f"ball sample {k}: residual {residual:.3e}")
            if np.linalg.norm(v) > gamma * (1.0 + 1e-12):
                problems.append(f"ball sample {k} lies outside the gamma ball")
        if not out["ball_samples"]:
            problems.append("no ball samples")
        return problems


WORKLOADS = {cls.name: cls for cls in (SolveLarge, DeskPipeline, CertifyLp)}
