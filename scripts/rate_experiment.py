#!/usr/bin/env python3
"""Margin-maximization rate experiment.

Generates feasible instances over a sweep of planted margins, runs the
averaged perceptron to a fixed horizon, and emits one plot-ready CSV per
instance with the per-iteration direction gap against its predicted rate,
plus a summary CSV of worst-case slacks. Everything is seeded.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linfeas.algorithms import AlgorithmConfig, perceptron_normalized
from linfeas.generators import GeneratorSpec, generate
from linfeas.margins import margin_report, minimum_enclosing_ball


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("out/rates"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instances", type=int, default=8)
    parser.add_argument("--d", type=int, default=4)
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--horizon", type=int, default=20_000)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(args.seed)
    summary_rows = []
    for k in range(args.instances):
        target = float(rng.uniform(0.1, 0.7))
        spec = GeneratorSpec("planted-positive", args.d, args.n, target, seed=args.seed + k)
        instance, meta = generate(spec)
        report = margin_report(instance)
        rho = report.rho_plus
        ball = minimum_enclosing_ball(instance)
        w_star = ball.center / np.linalg.norm(ball.center)

        config = AlgorithmConfig(max_iters=args.horizon, mode="margin-maximization")
        _, trace = perceptron_normalized(instance, config)
        ts = trace.ts[1:].astype(float)
        gap = np.linalg.norm(
            trace.iterates[1:] / trace.norms[1:, None] - w_star[None, :], axis=1
        )
        bound = 4.0 / (rho * np.sqrt(ts))

        path = args.out_dir / f"{instance.name}.rate.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "direction_gap", "gap_bound", "norm", "margin"])
            for i in range(ts.size):
                writer.writerow(
                    [
                        int(ts[i]),
                        f"{gap[i]:.17g}",
                        f"{bound[i]:.17g}",
                        f"{trace.norms[1 + i]:.17g}",
                        f"{trace.margins[1 + i]:.17g}",
                    ]
                )
        worst_slack = float((gap - bound).max())
        summary_rows.append([instance.name, f"{rho:.6f}", f"{worst_slack:.3e}", str(path)])
        print(f"{instance.name}: margin {rho:.4f}, worst gap-minus-bound {worst_slack:.3e}")

    summary = args.out_dir / "summary.csv"
    with open(summary, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "margin", "worst_slack", "trace_csv"])
        writer.writerows(summary_rows)
    print(f"summary: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
