"""Exact desk-scale margin oracles with certifying witnesses.

Two exponential-but-exact enumerations do the work: the positive margin is
the distance from the origin to the convex hull of the columns, found by
solving the least-norm subproblem on every affinely independent support set;
the negative margin is the inradius of the hull about the origin inside the
column span, found by enumerating supporting hyperplanes through column
subsets. A quasi-uniform direction grid provides an independent low-rank
cross-check, and the minimum enclosing ball comes out of the positive-margin
witness in closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .instance import (
    ColumnSpaceBasis,
    PrimalDirection,
    ProblemInstance,
    SimplexPoint,
    column_space_basis,
    combine,
)
from .lp import LinearProgram, batched_solve, solve

__all__ = [
    "BudgetExceededError",
    "MarginReport",
    "BallReport",
    "positive_margin_exact",
    "margin_report",
    "margin_grid_estimate",
    "minimum_enclosing_ball",
    "representable",
    "ZERO_BAND",
    "ENUMERATION_BUDGET",
]

# |rho| at or below this is reported as ill-posed; verifiers refuse claims
# that would have to split hairs inside the band.
ZERO_BAND = 1e-9

ENUMERATION_BUDGET = 14

SIDE_TOL = 1e-9  # supporting-hyperplane side test (absolute)


class BudgetExceededError(ValueError):
    """Raised when an exact oracle is asked for more columns than it enumerates."""


@dataclass(eq=False)
class MarginReport:
    """Exact margins plus the witnesses that certify them."""

    rho_classical: float
    rho_affine: float
    rho_plus: float
    rho_minus: float
    witness_direction: PrimalDirection | None
    witness_weights: SimplexPoint | None
    method: str
    rank: int
    rank_tolerance: float
    ill_posed: bool
    boundary_pass: bool = False  # winning hyperplane passed its side test only within tolerance

    def as_dict(self) -> dict:
        return {
            "rho_classical": self.rho_classical,
            "rho_affine": self.rho_affine,
            "rho_plus": self.rho_plus,
            "rho_minus": self.rho_minus,
            "witness_direction": (
                None if self.witness_direction is None else list(map(float, self.witness_direction.vector))
            ),
            "witness_weights": (
                None if self.witness_weights is None else list(map(float, self.witness_weights.weights))
            ),
            "method": self.method,
            "rank": self.rank,
            "rank_tolerance": self.rank_tolerance,
            "ill_posed": self.ill_posed,
            "boundary_pass": self.boundary_pass,
        }


@dataclass(eq=False)
class BallReport:
    """A ball certified against the hull: enclosing (positive case) or unit (otherwise)."""

    center: np.ndarray
    radius: float
    support_weights: SimplexPoint

    def as_dict(self) -> dict:
        return {
            "center": list(map(float, self.center)),
            "radius": self.radius,
            "support_weights": list(map(float, self.support_weights.weights)),
        }


def _check_budget(instance: ProblemInstance) -> None:
    if instance.n > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"instance has n={instance.n} columns, above the enumeration budget "
            f"{ENUMERATION_BUDGET}; use margin_grid_estimate (rank <= 3) or the iterative "
            "estimators in the algorithms module"
        )


def positive_margin_exact(instance: ProblemInstance) -> tuple[float, SimplexPoint]:
    """Distance from the origin to the convex hull, with a minimizing weight vector.

    Enumerates every affinely independent support set, solves the bordered
    least-norm system on its face, keeps candidates with nonnegative weights,
    and returns the global minimum. Exactly 0 when the origin lies in the hull.
    """
    _check_budget(instance)
    n = instance.n
    cols = instance.columns
    G = instance.gram
    max_size = min(n, instance.rank + 1)

    best_norm = np.inf
    candidates: list[tuple[tuple[int, ...], np.ndarray]] = []
    for k in range(1, max_size + 1):
        combos = np.array(list(itertools.combinations(range(n), k)))
        count = combos.shape[0]
        sub_gram = G[combos[:, :, None], combos[:, None, :]]
        system = np.zeros((count, k + 1, k + 1))
        system[:, :k, :k] = 2.0 * sub_gram
        system[:, :k, k] = 1.0
        system[:, k, :k] = 1.0
        rhs = np.zeros((count, k + 1))
        rhs[:, k] = 1.0
        sols, ok = batched_solve(system, rhs)
        weights = sols[:, :k]
        ok &= np.all(weights >= -1e-12, axis=1)
        if not ok.any():
            continue
        # evaluate norms directly in column space: far better conditioned near 0
        points = np.einsum("dmk,mk->md", cols[:, combos], weights)
        norms = np.linalg.norm(points, axis=1)
        norms[~ok] = np.inf
        batch_best = norms.min()
        if batch_best < best_norm - 1e-12:
            best_norm = float(batch_best)
            candidates = []
        if batch_best <= best_norm + 1e-12:
            for idx in np.nonzero(norms <= best_norm + 1e-12)[0]:
                candidates.append((tuple(int(i) for i in combos[idx]), weights[idx]))

    support, q = min(candidates, key=lambda item: item[0])
    full = np.zeros(n)
    full[list(support)] = np.clip(q, 0.0, None)
    if best_norm <= 1e-12:  # numerically zero: the origin is a hull point
        best_norm = 0.0
    return best_norm, SimplexPoint.from_approximate(full)


def _negative_margin_details(
    instance: ProblemInstance,
    basis: ColumnSpaceBasis,
    side_tol: float = SIDE_TOL,
) -> tuple[float, PrimalDirection, bool, tuple[int, ...]]:
    """Inradius of the hull about the origin within the span, with the nearest facet's normal."""
    _check_budget(instance)
    r = basis.rank
    if r < 1:
        raise ValueError("instance has rank 0; margins are undefined")
    coords = basis.coordinates(instance.columns)  # (r, n)
    n = instance.n

    normals: list[np.ndarray] = []
    dists: list[float] = []
    violations: list[float] = []
    supports: list[tuple[int, ...]] = []

    if r == 1:
        line = coords[0]
        for i in range(n):
            for sign in (1.0, -1.0):
                values = sign * line
                beta = float(values[i])
                worst = float(values.max()) - beta
                if worst <= side_tol:
                    normals.append(np.array([sign]))
                    dists.append(max(beta, 0.0))
                    violations.append(max(worst, 0.0))
                    supports.append((i,))
    else:
        combos = np.array(list(itertools.combinations(range(n), r)))
        pts = np.moveaxis(coords[:, combos], 0, 2)  # (count, r, r): rows are points
        diffs = pts[:, 1:, :] - pts[:, :1, :]  # (count, r-1, r)
        _, sing, vt = np.linalg.svd(diffs)
        candidate_normals = vt[:, -1, :]  # unit by construction
        independent = sing[:, -1] > 1e-12 * np.maximum(1.0, sing[:, 0])
        values = candidate_normals @ coords  # (count, n)
        beta = np.einsum("cr,cr->c", candidate_normals, pts[:, 0, :])
        over = values.max(axis=1) - beta
        under = beta - values.min(axis=1)
        for idx in np.nonzero(independent)[0]:
            if over[idx] <= side_tol:
                h, b, viol = candidate_normals[idx], beta[idx], over[idx]
            elif under[idx] <= side_tol:
                h, b, viol = -candidate_normals[idx], -beta[idx], under[idx]
            else:
                continue
            normals.append(h)
            dists.append(max(float(b), 0.0))
            violations.append(max(float(viol), 0.0))
            supports.append(tuple(int(i) for i in combos[idx]))

    if not dists:
        raise ValueError(
            "no supporting hyperplane found; the hull is degenerate at this rank tolerance"
        )
    dist_array = np.asarray(dists)
    best = dist_array.min()
    tied = [i for i in range(len(dists)) if dist_array[i] <= best + 1e-12]
    winner = min(tied, key=lambda i: supports[i])
    direction = PrimalDirection(basis.lift(normals[winner]), in_column_space=True)
    flagged = bool(0.0 < violations[winner] <= side_tol)
    return float(dist_array[winner]), direction, flagged, supports[winner]


def margin_report(instance: ProblemInstance, rank_tol: float | None = None) -> MarginReport:
    """Exact classical and span-restricted margins with both witnesses attached.

    This is the single entry into the exact enumeration: every consumer
    (generators, run summaries, certifiers, the enclosing ball) computes one
    report per instance and reads its margins and witnesses from it. The
    witness direction is the unit margin maximizer; on the negative side it is
    minus the outward normal of the nearest facet.
    """
    basis = column_space_basis(instance, rank_tol)
    rank = basis.rank
    rho_plus_val, weights = positive_margin_exact(instance)
    flagged = False
    if rho_plus_val > ZERO_BAND:
        rho_affine = float(rho_plus_val)
        direction = PrimalDirection(
            combine(instance, weights) / rho_plus_val, in_column_space=True
        )
    else:
        inradius, facet_normal, flagged, _ = _negative_margin_details(instance, basis)
        rho_affine = -float(inradius)
        direction = PrimalDirection(-facet_normal.vector, in_column_space=True)
    rho_classical = rho_affine if rank == instance.d else max(0.0, rho_affine)
    return MarginReport(
        rho_classical=rho_classical,
        rho_affine=rho_affine,
        rho_plus=max(0.0, rho_affine),
        rho_minus=min(0.0, rho_affine),
        witness_direction=direction,
        witness_weights=weights,
        method="enumeration",
        rank=rank,
        rank_tolerance=basis.tolerance,
        ill_posed=abs(rho_affine) <= ZERO_BAND,
        boundary_pass=flagged,
    )


def _sphere_grid(resolution: int) -> np.ndarray:
    """Quasi-uniform unit grid on S^2: ring construction, ~resolution points per angle."""
    rings = []
    for j in range(resolution):
        polar = np.pi * (j + 0.5) / resolution
        count = max(1, int(round(resolution * np.sin(polar))))
        azimuth = 2.0 * np.pi * np.arange(count) / count
        sp, cp = np.sin(polar), np.cos(polar)
        rings.append(
            np.column_stack([sp * np.cos(azimuth), sp * np.sin(azimuth), np.full(count, cp)])
        )
    return np.vstack(rings)


def margin_grid_estimate(instance: ProblemInstance, resolution: int) -> float:
    """Lower estimate of the span-restricted margin from a dense direction grid.

    Supported for rank <= 3 only. The returned value never exceeds the exact
    margin and is within O(1/resolution) of it (2*pi/resolution is a safe
    bound for unit columns).
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    rank = instance.rank
    if rank > 3:
        raise ValueError(f"grid estimate supports rank <= 3, instance has rank {rank}")
    coords = instance.basis.coordinates(instance.columns)  # (rank, n)
    if rank == 1:
        grid = np.array([[1.0], [-1.0]])
    elif rank == 2:
        angles = 2.0 * np.pi * np.arange(resolution) / resolution
        grid = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        grid = _sphere_grid(resolution)
    best = -np.inf
    for start in range(0, grid.shape[0], 65536):
        block = grid[start : start + 65536]
        best = max(best, float((block @ coords).min(axis=1).max()))
    return best


def minimum_enclosing_ball(instance: ProblemInstance, report: MarginReport | None = None) -> BallReport:
    """Smallest ball enclosing the hull of unit columns, from the margin witness.

    For unit columns the radius is sqrt(1 - rho_plus^2) and the center is the
    hull point selected by the positive-margin minimizer; when the origin lies
    in the hull the answer degenerates to the unit ball about the origin. A
    ``report`` computed earlier can be passed to skip the oracle.
    """
    if not instance.has_unit_columns():
        raise ValueError("minimum_enclosing_ball requires unit columns (ingest with normalize=True)")
    if report is None:
        report = margin_report(instance)
    rho_plus, weights = report.rho_plus, report.witness_weights
    if rho_plus <= ZERO_BAND:
        return BallReport(center=np.zeros(instance.d), radius=1.0, support_weights=weights)
    radius = float(np.sqrt(max(0.0, 1.0 - rho_plus * rho_plus)))
    return BallReport(center=combine(instance, weights), radius=radius, support_weights=weights)


def representable(
    instance: ProblemInstance,
    v: np.ndarray,
    residual_tol: float = 1e-9,
) -> SimplexPoint | None:
    """Weights p with columns @ p = v when v lies in the hull, else None.

    Solved as a phase-1 feasibility program; the emptiness answer is the
    simplex status, double-checked against the residual tolerance.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (instance.d,):
        raise ValueError(f"query vector has shape {v.shape}, expected ({instance.d},)")
    n = instance.n
    eq = np.vstack([instance.columns, np.ones((1, n))])
    rhs = np.concatenate([v, [1.0]])
    sol = solve(LinearProgram(objective=np.zeros(n), eq_matrix=eq, eq_rhs=rhs))
    if sol.status != "optimal":
        return None
    point = SimplexPoint.from_approximate(sol.x)
    if np.linalg.norm(combine(instance, point) - v) > residual_tol:
        return None
    return point
