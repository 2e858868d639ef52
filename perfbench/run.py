"""Run one benchmark workload, or all of them, against linfeas built from ./src.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` rounds alternate untraced and traced and the
result holds the per-layer metrics instead. The line before it records the
commit, the Python and numpy versions and ``nproc``; both are also written
to ``.perfbench_out/``. The exit code is 0 when every operation passed its
checks, 1 when one failed and 2 when the checkout has no linfeas sources.
"""

from __future__ import annotations

import os

# set before numpy loads, so BLAS threads neither compete with the two batch
# workers nor inflate peak RSS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("solve-large", "desk-pipeline", "certify-lp")
MIN_ROUNDS = 3  # every call of an untraced run is the best of at least three
SETUPS = 9  # set-ups in a run, one before each round at least; setup_s is their median


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _best_round(samples: dict[str, list[float]]) -> float:
    """Seconds of one round with every call at its best of all rounds."""
    return sum(min(v) for v in samples.values())


def _quantile(values: list[float], prob: float) -> float:
    """Harrell-Davis estimate: a beta-weighted mean of all order statistics.

    The calls of a round form clusters (one per call type); a plain order
    statistic jumps between clusters with the noise at their edges, the
    weighted mean does not.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(values, prob=[prob])[0])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    import clock
    import workloads
    from workloads import Recorder

    workdir = OUT / name
    workload = workloads.WORKLOADS[name](seed, workdir)
    setup_s = []

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(workdir / "spans")
    plain, traced = Recorder(), Recorder()  # untraced and traced rounds
    spans = []
    rounds = {False: 0, True: 0}
    need = {False: 2 if trace else MIN_ROUNDS, True: 2 if trace else 0}
    for _ in range(SETUPS - need[False] - need[True]):
        setup_s.append(clock.timed(workload.setup)[2])
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or any(rounds[k] < need[k] for k in need):
        tracing = trace and rounds[False] > rounds[True]
        setup_s.append(clock.timed(workload.setup)[2])  # every round starts from a fresh set-up
        workload.prepare()
        if tracing:
            tracer.install()
            try:
                workload.round(traced)
            finally:
                tracer.uninstall()
            tracer.collect_children()
            spans.extend(tracer.take())
        else:
            workload.round(plain)
        rounds[tracing] += 1
    peak = _peak_rss_mb()

    if trace:
        from layers import layer_metrics

        values = layer_metrics(spans, rounds[True], workloads.WORKERS)
        values["algorithms.trace_peak_mb"] = 0.0
        values.update(workload.probes())
        values["tracing.overhead_s"] = _best_round(traced.samples) - _best_round(plain.samples)
    else:
        calls = sum(len(v) for v in plain.latency.values())
        if len(plain.latency) < 100:
            raise RuntimeError(f"{len(plain.latency)} call kinds; a p90 needs at least 100")
        best_ms = [1e3 * min(v) for v in plain.latency.values()]
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": _best_round(plain.samples),
            "peak_rss_mb": peak,
            "op_p50_ms": _quantile(best_ms, 0.5),
            "op_p90_ms": _quantile(best_ms, 0.9),
            "work_per_s": sum(plain.units.values()) / sum(min(v) for v in plain.work.values()),
        }
    units = _declared_units("per_layer" if trace else "end_to_end")
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")
    failed = plain.failed + traced.failed
    result = {
        "correct": failed == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": {key: {"value": float(values[key]), "unit": units[key]} for key in values},
    }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": rounds[False] + rounds[True],
        "latency_calls": sum(len(v) for v in plain.latency.values()),
        "latency_kinds": len(plain.latency),
        "setup_samples": len(setup_s),
        "wall_s_unscaled": _best_round(plain.wall),
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "nproc": os.cpu_count(),
    }
    return {"info": info, "result": result}, plain.failures + traced.failures


def _declared_units(section: str) -> dict[str, str]:
    """Name to unit of the metrics BENCHMARK.json declares in a section."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _run_all(args) -> int:
    """Each workload in a fresh interpreter, so its peak RSS is its own."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        for line in lines[:-1]:
            print(line)
        code = max(code, proc.returncode)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "linfeas" / "__init__.py").is_file():
        print(f"error: no linfeas sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    import linfeas

    if Path(linfeas.__file__).resolve().parent != (SRC / "linfeas").resolve():
        print(f"error: imported linfeas from {linfeas.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    record, failures = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(record["info"], sort_keys=True))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
