"""Seeded instance generators with oracle-verified planted margins.

Planted values are lower bounds on the true margin magnitude, never the exact
value; every generated instance is measured by the exact oracle before it
leaves this module and the measured margins ride along as metadata. Each
candidate is measured once, in its final form: a rank-deficient one in its
padded, rotated embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import ProblemInstance, ingest
from .margins import MarginReport, margin_report

__all__ = ["GenerationError", "GeneratorSpec", "generate", "KINDS"]

KINDS = ("planted-positive", "planted-negative", "near-ill-posed", "rank-deficient")

REJECTION_BUDGET = 1_000_000

NEAR_ILL_POSED_TARGET = 1e-4


class GenerationError(ValueError):
    """Raised when a spec cannot be realized (budget or template limits)."""


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    d: int
    n: int
    target_margin: float = 0.0
    seed: int = 0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be at least 1")
        if not (math.isfinite(self.target_margin) and math.isfinite(self.jitter)):
            raise ValueError(f"target_margin and jitter must be finite, got {self.target_margin} and {self.jitter}")
        if self.kind == "planted-positive" and not 0.0 < self.target_margin < 1.0:
            raise ValueError("planted-positive needs target_margin in (0, 1)")
        negative = self.kind == "planted-negative" or (self.kind == "rank-deficient" and self.target_margin != 0.0)
        if negative and not -1.0 < self.target_margin < 0.0:
            raise ValueError(f"{self.kind} needs target_margin in (-1, 0)")
        if self.kind == "near-ill-posed" and self.target_margin != 0.0:
            raise ValueError(f"near-ill-posed plants margin {NEAR_ILL_POSED_TARGET} itself; target_margin must be 0")
        if self.jitter < 0.0:
            raise ValueError("jitter must be nonnegative")

    @property
    def default_name(self) -> str:
        return f"{self.kind}-d{self.d}-n{self.n}-s{self.seed}"


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _sample_positive_columns(rng, d, n, target):
    """Rejection sampling of unit columns in the target-margin cap of a planted direction."""
    pivot = _unit(rng.standard_normal(d))
    columns = []
    draws = 0
    while len(columns) < n:
        batch = rng.standard_normal((256, d))
        draws += 256
        norms = np.linalg.norm(batch, axis=1)
        keep = norms > 1e-12
        batch = batch[keep] / norms[keep][:, None]
        for row in batch[batch @ pivot >= target]:
            columns.append(row)
            if len(columns) == n:
                break
        if draws > REJECTION_BUDGET:
            raise GenerationError(
                f"rejection sampling exceeded {REJECTION_BUDGET} draws; "
                f"lower target_margin (got {target})"
            )
    return np.array(columns)


def _regular_simplex_vertices(d: int) -> np.ndarray:
    """d+1 unit vectors forming a regular simplex centered at the origin in R^d."""
    corners = np.eye(d + 1)
    centered = corners - corners.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    coords = centered @ vt[:d].T
    return coords / np.linalg.norm(coords, axis=1)[:, None]


def _negative_template(rng, d, n, radius):
    """Unit columns whose hull contains the origin-centered ball of the given radius."""
    if d == 1:
        if n < 2:
            raise GenerationError("planted-negative in one dimension needs n >= 2")
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(n)])
    if n == 2:
        v = np.zeros(d)
        if d == 2:
            v[:] = (0.0, 1.0)
        else:
            v = _unit(rng.standard_normal(d))
        return np.array([v, -v])
    if d == 2:
        inradius = math.cos(math.pi / n)
        if inradius < radius - 1e-12:
            raise GenerationError(
                f"a regular {n}-gon only reaches inradius {inradius:.4f}; "
                f"need more columns for |target| = {radius}"
            )
        angles = math.pi / 2 + 2.0 * math.pi * np.arange(n) / n
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if n >= 2 * d and radius <= 1.0 / math.sqrt(d) + 1e-12:
        base = np.vstack([np.eye(d), -np.eye(d)])
    elif n >= d + 1 and radius <= 1.0 / d + 1e-12:
        base = _regular_simplex_vertices(d)
    else:
        raise GenerationError(
            f"no template reaches |target| = {radius} with d={d}, n={n}: the cross-polytope "
            f"needs n >= {2 * d} and |target| <= {1.0 / math.sqrt(d):.4f}, the simplex "
            f"needs n >= {d + 1} and |target| <= {1.0 / d:.4f}"
        )
    extras = []
    while len(base) + len(extras) < n:
        extras.append(_unit(rng.standard_normal(d)))  # extra hull points keep containment
    if extras:
        return np.vstack([base, np.array(extras)])
    return base


def _planted_negative(spec: GeneratorSpec, rng, target: float) -> tuple[ProblemInstance, MarginReport]:
    flat = spec.kind == "rank-deficient"  # plant in d - 1 dimensions, then pad and rotate
    base = _negative_template(rng, spec.d - 1 if flat else spec.d, spec.n, abs(target))
    perturbation = rng.standard_normal(base.shape)
    rotation = _random_rotation(rng, spec.d) if flat else None

    def measured(columns: np.ndarray) -> tuple[ProblemInstance, MarginReport]:
        instance = ingest(columns, normalize=True, name=spec.default_name)
        if rotation is not None:
            padded = np.vstack([instance.columns, np.zeros((1, spec.n))])
            instance = ingest((rotation @ padded).T, normalize=True, name=spec.default_name)
        return instance, margin_report(instance)

    jitter = spec.jitter
    for _ in range(7):
        if jitter > 0.0:
            jittered = base + jitter * perturbation
            norms = np.linalg.norm(jittered, axis=1)
            if np.any(norms < 1e-9):
                jitter *= 0.5
                continue
            candidate = jittered / norms[:, None]
        else:
            candidate = base
        instance, report = measured(candidate)
        if report.rho_affine <= target + 1e-9:
            return instance, report
        if jitter == 0.0:
            raise GenerationError("template failed its own oracle verification")
        jitter *= 0.5  # shrink until containment of the planted ball survives
    return measured(base)


def _random_rotation(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def generate(spec: GeneratorSpec) -> tuple[ProblemInstance, dict]:
    """Build the instance for a spec and return it with oracle metadata.

    Same spec, same bytes: all randomness comes from the seed.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.kind in ("planted-positive", "near-ill-posed"):
        target = spec.target_margin if spec.kind == "planted-positive" else NEAR_ILL_POSED_TARGET
        columns = _sample_positive_columns(rng, spec.d, spec.n, target)
        instance = ingest(columns, normalize=True, name=spec.default_name)
        report = margin_report(instance)
    else:  # planted-negative, or rank-deficient: a flat negative-margin instance embedded and rotated
        if spec.kind == "rank-deficient" and spec.d < 2:
            raise GenerationError("rank-deficient requires d >= 2")
        target = spec.target_margin if spec.target_margin < 0.0 else -0.5
        instance, report = _planted_negative(spec, rng, target)

    if spec.kind in ("planted-positive", "near-ill-posed"):
        if report.rho_affine < target - 1e-9:
            raise GenerationError("planted positive margin failed oracle verification")
    elif spec.kind == "planted-negative":
        if report.rho_affine > target + 1e-9:
            raise GenerationError("planted negative margin failed oracle verification")
    else:
        if report.rank >= spec.d or report.rho_affine >= 0.0:
            raise GenerationError("rank-deficient embedding failed oracle verification")

    metadata = {
        "kind": spec.kind,
        "d": spec.d,
        "n": spec.n,
        "seed": spec.seed,
        "jitter": spec.jitter,
        "target_margin": target,
        "rho_affine": report.rho_affine,
        "rho_classical": report.rho_classical,
        "rho_plus": report.rho_plus,
        "rho_minus": report.rho_minus,
        "rank": report.rank,
    }
    return instance, metadata
