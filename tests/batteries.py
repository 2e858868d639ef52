"""Seeded instance batteries shared by the property and acceptance tests."""

from __future__ import annotations

import math

import numpy as np

from linfeas.generators import GeneratorSpec, generate
from linfeas.instance import ProblemInstance, ingest
from linfeas.margins import ZERO_BAND, margin_report, positive_margin_exact

SCALES = (1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9, 1e12)  # the column scales of the scale relation


def positive_instances(count: int, seed: int = 9000, d_max: int = 5, n_max: int = 10):
    """Strictly feasible instances with targets spread over (0.15, 0.8)."""
    rng = np.random.default_rng(seed)
    out = []
    s = seed
    while len(out) < count:
        d = int(rng.integers(2, d_max + 1))
        n = int(rng.integers(2, n_max + 1))
        target = float(rng.uniform(0.15, 0.8))
        out.append(generate(GeneratorSpec("planted-positive", d, n, target, seed=s)))
        s += 1
    return out


def _negative_spec(rng, s: int, d_max: int, n_max: int) -> GeneratorSpec:
    d = int(rng.integers(1, min(d_max, 5) + 1))
    if d == 1:
        n = int(rng.integers(2, min(6, n_max) + 1))
        target = -float(rng.uniform(0.2, 0.8))
    elif d == 2:
        n = int(rng.integers(3, n_max + 1))
        cap = math.cos(math.pi / n) - 0.05
        target = -float(rng.uniform(0.15, max(0.16, min(0.75, cap))))
    elif d == 3:
        n = int(rng.integers(6, max(7, n_max + 1)))
        target = -float(rng.uniform(0.15, 0.5))
    elif d == 4:
        n = int(rng.integers(8, max(9, n_max + 1)))
        target = -float(rng.uniform(0.15, 0.45))
    else:
        n = max(10, n_max)
        target = -float(rng.uniform(0.15, 0.35))
    return GeneratorSpec("planted-negative", d, n, target, seed=s, jitter=0.04)


def negative_instances(count: int, seed: int = 7000, d_max: int = 5, n_max: int = 10):
    """Strictly infeasible instances over the template families, lightly jittered."""
    rng = np.random.default_rng(seed)
    out = []
    s = seed
    while len(out) < count:
        out.append(generate(_negative_spec(rng, s, d_max, n_max)))
        s += 1
    return out


def infeasible_instances(count: int, seed: int = 8000, d_max: int = 5, n_max: int = 10):
    """Strictly infeasible instances: planted templates plus flat rank-deficient embeddings."""
    rng = np.random.default_rng(seed)
    out = []
    s = seed
    while len(out) < count:
        if len(out) % 3 == 2:
            inner = _negative_spec(rng, s, d_max - 1, n_max)
            spec = GeneratorSpec(
                "rank-deficient", inner.d + 1, inner.n, inner.target_margin, seed=s, jitter=0.04
            )
        else:
            spec = _negative_spec(rng, s, d_max, n_max)
        out.append(generate(spec))
        s += 1
    return out


def mixed_instances(count: int, seed: int = 5000, d_max: int = 5, n_max: int = 10):
    """Cycle the four generator kinds; used by the alternative-exclusivity battery."""
    rng = np.random.default_rng(seed)
    out = []
    s = seed
    while len(out) < count:
        kind = ("planted-positive", "planted-negative", "rank-deficient", "near-ill-posed")[
            len(out) % 4
        ]
        if kind == "planted-positive":
            d = int(rng.integers(2, d_max + 1))
            n = int(rng.integers(2, n_max + 1))
            spec = GeneratorSpec(kind, d, n, float(rng.uniform(0.15, 0.8)), seed=s)
        elif kind == "planted-negative":
            spec = _negative_spec(rng, s, d_max, n_max)
        elif kind == "rank-deficient":
            inner = _negative_spec(rng, s, d_max - 1, n_max)
            spec = GeneratorSpec(kind, inner.d + 1, inner.n, inner.target_margin, seed=s, jitter=0.04)
        else:
            d = int(rng.integers(2, d_max + 1))
            n = int(rng.integers(2, n_max + 1))
            spec = GeneratorSpec(kind, d, n, seed=s)
        out.append(generate(spec))
        s += 1
    return out


def scale_sets() -> dict[str, list[ProblemInstance]]:
    """The two sets the scale relation is measured on: the 150 zero-margin instances of negative_instances(100)
    and mixed_instances(100, seed=42), and the 90 instances of negative_instances(60) and
    mixed_instances(60, seed=42) whose margin lies below the ill-posed band."""
    zero = [inst for inst, _ in negative_instances(100) + mixed_instances(100, seed=42)
            if positive_margin_exact(inst)[0] == 0.0]
    negative = [inst for inst, _ in negative_instances(60) + mixed_instances(60, seed=42)
                if margin_report(inst).rho_affine < -ZERO_BAND]
    return {"zero": zero, "negative": negative}


def scaled(instance: ProblemInstance, scale: float) -> ProblemInstance:
    """The instance with its columns multiplied by scale, kept as they are (normalize=False), under its own name."""
    return ingest((scale * instance.columns).T.tolist(), normalize=False, name=instance.name)
