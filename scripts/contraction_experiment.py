#!/usr/bin/env python3
"""Linear-rate experiment for the furthest-point iteration on infeasible instances.

Sweeps planted inradii, runs the iteration to a small target norm, and
compares the observed per-step contraction against the predicted factor
sqrt(1 - inradius^2). Emits a CSV of per-instance factors.
"""

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linfeas.algorithms import AlgorithmConfig, vng
from linfeas.generators import GeneratorSpec, generate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out/contraction.csv"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instances", type=int, default=10)
    parser.add_argument("--target-norm", type=float, default=1e-8)
    args = parser.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(args.seed)
    rows = []
    for k in range(args.instances):
        n = int(rng.integers(4, 11))
        target = -float(rng.uniform(0.2, min(0.7, math.cos(math.pi / n) - 0.05)))
        spec = GeneratorSpec("planted-negative", 2, n, target, seed=args.seed + k, jitter=0.05)
        instance, meta = generate(spec)
        inradius = abs(meta["rho_minus"])
        predicted = math.sqrt(1.0 - inradius * inradius)

        budget = math.ceil(math.log(1.0 / args.target_norm) / inradius**2) + 1
        config = AlgorithmConfig(
            max_iters=budget, mode="dual-certificate", target_eps=args.target_norm
        )
        cert, trace = vng(instance, config)
        norms = trace.norms
        ratios = norms[1:][norms[:-1] > 0] / norms[:-1][norms[:-1] > 0]
        observed = float(ratios.max()) if ratios.size else 0.0
        steps = cert.iterations if cert is not None else trace.steps
        rows.append(
            [instance.name, f"{inradius:.6f}", f"{predicted:.6f}", f"{observed:.6f}", steps]
        )
        print(
            f"{instance.name}: inradius {inradius:.4f}, predicted factor {predicted:.4f}, "
            f"worst observed {observed:.4f}, steps to target {steps}"
        )

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "inradius", "predicted_factor", "worst_observed", "steps"])
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
