"""Exact desk-scale margin oracles with certifying witnesses.

The positive margin is the distance from the origin to the convex hull of
the columns, found by one nonnegative least-squares program on [A; 1^T],
each cycle of which is polynomial. The negative margin is the inradius of
the hull about the origin inside the column span, found by an SVD side test
on column r-subsets. At small shapes the test judges every r-subset in one
batched pass, which costs less than any facet search there. Otherwise the
facets come from the polar, by double description, so the cost follows the
facet count and not C(n, r), and the test judges only the r-subsets near the
nearest facets: it gives the value, the normal and the tie-break that it
gives over every r-subset (the reference enumeration in tests/oracles.py). A
quasi-uniform direction grid provides an independent low-rank cross-check,
and the minimum enclosing ball comes out of the positive-margin witness in
closed form.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

import numpy as np

from .instance import (
    REPAIR_TOL,
    ColumnSpaceBasis,
    PrimalDirection,
    ProblemInstance,
    Record,
    SimplexPoint,
    column_space_basis,
    combine,
    simplex_rows,
)
from .lp import _nnls, solve

__all__ = [
    "OracleError",
    "BudgetExceededError",
    "MinNormPointError",
    "NegativeMarginError",
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

GRID_BLOCK = 65536  # directions margin_grid_estimate scores at once

# first-order relative error of the SVD step's normal, per unit condition number and r^2;
# times the reach of the columns it bounds the rounding in the SVD step's side test
NORMAL_ROUNDING = 64.0 * np.finfo(float).eps
POLAR_TOL = 1e-10  # double description: a row is tight on a ray within this share of the dot's magnitude
POLAR_RANK_TOL = 1e-9  # rows tight on two rays span r - 1 dimensions when their (r-1)-th singular value exceeds it
# the negative side judges every column r-subset, skipping the polar, when r C(n, r) is below this:
# there the batched side test costs less than double description (crossover table in CHANGES.md)
ENUMERATE_BELOW = 300


class OracleError(ValueError):
    """Raised when an exact oracle gives no margin for an instance; callers skip or refuse it."""


class BudgetExceededError(OracleError):
    """Raised when an exact oracle is asked for more columns than it enumerates."""


class MinNormPointError(OracleError):
    """Raised when the min-norm-point method does not reach a point that passes its check."""


class NegativeMarginError(OracleError):
    """Raised when the negative side finds no facet to measure: rank 0, or no supporting hyperplane."""


@dataclass(frozen=True, eq=False)
class MarginReport(Record):
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
    boundary_pass: bool = False  # a column lies beyond the winning hyperplane by more than rounding, within SIDE_TOL


@dataclass(frozen=True, eq=False)
class BallReport(Record):
    """A ball certified against the hull: enclosing (positive case) or unit (otherwise)."""

    center: np.ndarray
    radius: float
    support_weights: SimplexPoint


def _check_budget(instance: ProblemInstance) -> None:
    if instance.n > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"instance has n={instance.n} columns, above the enumeration budget "
            f"{ENUMERATION_BUDGET}; use margin_grid_estimate (rank <= 3) or the iterative "
            "estimators in the algorithms module"
        )


def positive_margin_exact(instance: ProblemInstance) -> tuple[float, SimplexPoint, PrimalDirection | None]:
    """Distance from the origin to the convex hull, with a minimizing weight vector and direction.

    One nonnegative least-squares program (Lawson and Hanson, Solving Least
    Squares Problems, 1974, ch. 23), run in longdouble: near the origin,
    double precision leaves the hull point too coarse to pick columns by.
    Take the u >= 0 minimizing ||[A; 1^T] u - e_{d+1}||. Writing u = t p with
    p on the simplex, the objective is t^2 ||A p||^2 + (t - 1)^2, whose
    minimum over t, ||A p||^2 / (1 + ||A p||^2), increases with ||A p||; so
    p = u / sum(u) is a min-norm point of the hull, and x = A p the hull
    point. The program weighs A against the row of ones, so A is first
    scaled by the power of two that brings its longest column to a length in
    [1/sqrt(2), sqrt(2)): that rounds nothing and does not move p, and the
    result does not depend on the columns' scale. A witness failing ||x||^2 - min_i a_i . x <= 1e-9 max_i ||a_i||^2,
    or a least-squares loop that does not converge, raises MinNormPointError.
    Exactly 0 when the origin lies in the hull, judged by ||x|| <= 1e-12
    max_i ||a_i||, and then the direction is None;
    otherwise it is x / ||x||, formed in longdouble before rounding: on hulls
    within 1e-8 of the origin it attains the distance on every column to well
    within ZERO_BAND, where the unit vector of the rounded witness does not.
    """
    _check_budget(instance)
    cols = instance.columns.astype(np.longdouble)
    reach = np.sqrt(np.einsum("ij,ij->j", cols, cols)).max()
    shift = np.frexp(reach * np.sqrt(2.0))[1] - 1  # reach / 2**shift lies in [1/sqrt(2), sqrt(2))
    system = np.vstack([np.ldexp(cols, -shift), np.ones((1, instance.n), dtype=np.longdouble)])
    target = np.zeros(instance.d + 1, dtype=np.longdouble)
    target[-1] = 1.0
    try:
        support, u, _ = _nnls(system, target)
    except ValueError as exc:
        raise MinNormPointError(f"min-norm point: {exc}") from exc
    q = u / u.sum()
    x = cols[:, support] @ q
    point = SimplexPoint.from_approximate(np.bincount(support, weights=q.astype(float), minlength=instance.n))
    witness = combine(instance, point)
    gap = float(witness @ witness - (witness @ instance.columns).min())
    if gap > 1e-9 * float(reach) ** 2:
        raise MinNormPointError(f"min-norm point failed its optimality check: gap {gap:.3e}")
    norm = float(np.sqrt(x @ x))
    if norm <= 1e-12 * reach:  # numerically zero at the columns' scale: the origin is a hull point
        return 0.0, point, None
    return norm, point, PrimalDirection((x / np.sqrt(x @ x)).astype(float))


def _polar_rays(coords: np.ndarray) -> np.ndarray:
    """Extreme rays (y, s) of the cone {a_j . y <= s for every column, s >= 0}, by double description.

    Motzkin, Raiffa, Thompson and Thrall (1953), as revisited by Fukuda and Prodon
    (1996). The start is the cone of s >= 0 and r columns picked by one pivoted
    Gram-Schmidt pass over the unit rows; the other columns cut it one at a time.
    A cut keeps the rays on its side and joins each pair it separates that is
    adjacent. Two rays are adjacent when the rows tight on both, at least r - 1
    of them, have rank r - 1. A ray tight on exactly r rows has them independent,
    so the count decides; between two rays tight on more, the shared unit rows
    need an (r - 1)-th singular value above POLAR_RANK_TOL. (The combinatorial
    test, no third ray tight on the shared rows, is not used: a ray counted tight
    on a row it only nearly meets can hide a true edge.) A row is tight on a ray
    within POLAR_TOL of the magnitude of its dot, which keeps the test
    scale-invariant. The cone is pointed, as the columns span r dimensions. The
    tight rows of a ray are the bits of one int64 (n <= ENUMERATION_BUDGET).
    """
    r, n = coords.shape
    rows = np.empty((n + 1, r + 1))
    rows[:n, :r], rows[:, r], rows[n, :r] = coords.T, -1.0, 0.0  # the last row is s >= 0
    size = POLAR_TOL * np.abs(rows)
    unit = rows / np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    residual, order = unit.copy(), [n]
    for _ in range(r):  # pivoted Gram-Schmidt on the unit rows, from s >= 0
        residual -= (residual @ residual[order[-1]])[:, None] * residual[order[-1]]
        weight = np.einsum("ij,ij->i", residual, residual)
        order.append(int(np.argmax(weight)))
        residual[order[-1]] /= np.sqrt(weight[order[-1]])
    rays = -np.linalg.inv(rows[order]).T  # ray i is tight on every start row but order[i]
    start = 1 << np.array(order, dtype=np.int64)
    tight = start.sum() - start
    for j in sorted(set(range(n)) - set(order)):
        values = rays @ rows[j]
        margin = np.abs(rays) @ size[j]
        tight |= (np.abs(values) <= margin) * (1 << j)
        cut, kept = (values > margin).nonzero()[0], (values < -margin).nonzero()[0]
        if cut.size == 0:
            continue
        shared = tight[cut, None] & tight[kept]
        p, q = np.nonzero(np.bitwise_count(shared) >= r - 1)
        p, q, shared = cut[p], kept[q], shared[p, q]
        crowded = (np.bitwise_count(tight[p]) > r) & (np.bitwise_count(tight[q]) > r)
        if crowded.any():
            held = (shared[crowded, None] >> np.arange(n + 1)) & 1  # (pairs, rows)
            adjacent = ~crowded
            adjacent[crowded] = np.linalg.svd(held[:, :, None] * unit, compute_uv=False)[:, r - 2] > POLAR_RANK_TOL
            p, q, shared = p[adjacent], q[adjacent], shared[adjacent]
        share = values[p] / (values[p] - values[q])  # in (0, 1): where the segment meets the row
        survivors = values <= margin
        rays = np.concatenate((rays[survivors], rays[p] + share[:, None] * (rays[q] - rays[p])))
        tight = np.concatenate((tight[survivors], shared | (1 << j)))
    return rays


@functools.lru_cache(maxsize=None)  # the crossover bounds the entries
def _all_subsets(n: int, r: int) -> np.ndarray:
    """Every r-subset of range(n) as a row, in lexicographic order; read-only, as it is shared."""
    subsets = np.array(list(itertools.combinations(range(n), r)))
    subsets.setflags(write=False)
    return subsets


def _near_facet_subsets(coords: np.ndarray, reach: float) -> np.ndarray:
    """The column r-subsets near the polar's nearest facets, in lexicographic order; see _negative_margin_details."""
    r, n = coords.shape
    rays = _polar_rays(coords)
    rays /= np.sqrt(np.einsum("ij,ij->i", rays[:, :r], rays[:, :r]))[:, None]  # unit facet normals
    facet_dist = np.maximum(rays[:, r], 0.0)
    slack = facet_dist[:, None] - rays[:, :r] @ coords  # (facets, n), >= 0 up to rounding
    excess = facet_dist - facet_dist.min()
    near = excess[:, None] + slack <= (r + 1) * (SIDE_TOL + ZERO_BAND) + POLAR_TOL * reach
    count = near.sum(axis=1)
    subsets = [np.nonzero(near[count == r])[1].reshape(-1, r)]  # a simplicial facet is one subset
    for row in {tuple(np.flatnonzero(row)) for row in near[count > r]}:
        subsets.append(np.array(list(itertools.combinations(row, r))))
    subsets = np.vstack(subsets)
    _, first = np.unique(subsets @ n ** np.arange(r - 1, -1, -1), return_index=True)  # lexicographic
    return subsets[first]


def _negative_margin_details(
    instance: ProblemInstance,
    basis: ColumnSpaceBasis,
) -> tuple[float, PrimalDirection, bool]:
    """Inradius of the hull about the origin within the span, with the nearest facet's normal.

    The judge is an SVD side test on column r-subsets in lexicographic order:
    a subset's hyperplane is kept when it supports the hull within SIDE_TOL,
    and the first kept subset within 1e-12 of the least distance wins. Rank 1
    judges every column. At rank >= 2 the judge sees every r-subset when
    r C(n, r) is below ENUMERATE_BELOW and the longest column lies in
    [1/sqrt(2), sqrt(2)); there one batched pass costs less than the polar.
    The second condition keeps the side test at the scale its absolute
    tolerances (SIDE_TOL, the 1e-12 tie) were set for. On a triangle scaled by
    1e9 the test rejects the nearest edge through rounding: judged over every
    subset, it would return the second-nearest edge as the inradius, while the
    polar offers only the nearest and the call raises NegativeMarginError.
    Otherwise the judge sees only the subsets near the nearest facets, which
    come from the polar: a ray (y, s) of the cone
    {a_j . y <= s, s >= 0} (_polar_rays) with s > 0 is the facet y . x = s at
    distance s / ||y||; one with s = 0 is a supporting hyperplane through the
    origin, at distance 0 (the origin on the boundary, or beyond it by at most
    ZERO_BAND, as margin_report asks only then). The judged subsets are the
    r-subsets of the columns whose slack to one facet, plus that facet's
    excess over the least facet distance, is at most (r + 1)(SIDE_TOL +
    ZERO_BAND) and the polar's rounding (_near_facet_subsets).

    No near-minimum is lost: the rays (u_k, d_k), ||u_k|| = 1, generate the
    point (v, h(v)) of the cone, where v is a kept subset's unit normal and
    h(v) the hull's support in v, so v = sum_k c_k u_k with c >= 0 and
    sum_k c_k >= 1. The subset's columns lie within SIDE_TOL of h(v), and h(v)
    exceeds the least facet distance by at most SIDE_TOL and the 1e-12 (or
    the subset's offset lies at most ZERO_BAND + SIDE_TOL below 0). Weighted by
    c_k, the facets' excesses plus the slacks of the r columns sum to at most
    the bound above, so one facet carries no more. The judge thus sees every
    subset it keeps as a near-minimum over all C(n, r): same value, winner,
    tie-break and boundary_pass on either side of the crossover.
    """
    _check_budget(instance)
    r = basis.rank
    if r < 1:
        raise NegativeMarginError("instance has rank 0; margins are undefined")
    coords = basis.coordinates(instance.columns)  # (r, n)
    n = instance.n
    reach = np.sqrt(r) * np.abs(coords).max()  # at least every column norm

    # candidates come in lexicographic order of support, so the first near-minimum is the lowest
    if r == 1:
        # each column supports the segment in one orientation or both, + before -
        line = coords[0]
        sign = np.tile([1.0, -1.0], n)
        candidate_normals, beta = np.ones((2 * n, 1)), np.repeat(line, 2)
        violations = np.where(sign > 0.0, line.max() - beta, beta - line.min())
        keep = violations <= SIDE_TOL
        cond = np.ones(2 * n)
    else:
        longest = np.sqrt(np.einsum("ij,ij->j", instance.columns, instance.columns)).max()
        if r * comb(n, r) < ENUMERATE_BELOW and 1.0 <= longest * np.sqrt(2.0) < 2.0:  # unit scale
            subsets = _all_subsets(n, r)
        else:
            subsets = _near_facet_subsets(coords, reach)
        pts = np.moveaxis(coords[:, subsets], 0, 2)  # (count, r, r): rows are points
        diffs = pts[:, 1:, :] - pts[:, :1, :]  # (count, r-1, r)
        _, sing, vt = np.linalg.svd(diffs)
        candidate_normals = vt[:, -1, :]  # unit by construction
        independent = sing[:, -1] > 1e-12 * np.maximum(1.0, sing[:, 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = sing[:, 0] / sing[:, -1]  # of the edges; only the independent subsets' are read
        values = candidate_normals @ coords  # (count, n)
        beta = np.einsum("cr,cr->c", candidate_normals, pts[:, 0, :])
        over = values.max(axis=1) - beta
        under = beta - values.min(axis=1)
        outward = over <= SIDE_TOL  # else only the flipped normal can support the hull
        keep = independent & (outward | (under <= SIDE_TOL))
        sign = np.where(outward, 1.0, -1.0)
        violations = np.where(outward, over, under)
    normals = (sign[:, None] * candidate_normals)[keep]
    dists = np.maximum(sign * beta, 0.0)[keep]
    violations = np.maximum(violations, 0.0)[keep]
    # the side test's excess of a_j . normal over the facet's offset carries rounding from the
    # dots and from the normal: at most this much, so an excess below it is no near-miss
    rounding = (NORMAL_ROUNDING * r * r * reach * cond)[keep]

    if dists.size == 0:
        raise NegativeMarginError(
            "no supporting hyperplane found; the hull is degenerate at this rank tolerance"
        )
    winner = int(np.argmax(dists <= dists.min() + 1e-12))
    direction = PrimalDirection(basis.lift(normals[winner]))
    flagged = bool(rounding[winner] < violations[winner] <= SIDE_TOL)
    return float(dists[winner]), direction, flagged


# the report margin_report measured at each live instance's default rank cutoff; an entry dies with its instance
_KEPT: weakref.WeakKeyDictionary[ProblemInstance, MarginReport] = weakref.WeakKeyDictionary()


def margin_report(instance: ProblemInstance, rank_tol: float | None = None) -> MarginReport:
    """Exact classical and span-restricted margins with both witnesses attached.

    This is the single entry into the exact oracles: every consumer
    (generators, run summaries, certifiers, the enclosing ball) calls it with
    the instance and reads its margins and witnesses from the report. The
    report at the instance's default rank cutoff, the one the rank frame, the
    ball samples and the span test read, is measured once and kept for as long
    as the instance lives, so the oracle runs once per instance and every
    statement reads the same report, a frozen value: assigning a field raises
    dataclasses.FrozenInstanceError. A failure raises and is not kept. A
    report at another cutoff (``rank_tol``) is measured afresh and not kept.
    The witness direction is the unit margin maximizer; on the negative side
    it is minus the outward normal of the nearest facet.
    """
    if rank_tol is not None:
        return _measure(instance, rank_tol)
    report = _KEPT.get(instance)
    if report is None:
        report = _KEPT[instance] = _measure(instance, None)
    return report


def _measure(instance: ProblemInstance, rank_tol: float | None) -> MarginReport:
    """The margin report at this rank cutoff (None: the instance's default), by the exact oracles."""
    basis = column_space_basis(instance, rank_tol)
    rank = basis.rank
    rho_plus_val, weights, direction = positive_margin_exact(instance)
    flagged = False
    if rho_plus_val > ZERO_BAND:
        rho_affine = float(rho_plus_val)
    else:
        inradius, facet_normal, flagged = _negative_margin_details(instance, basis)
        rho_affine = -float(inradius)
        direction = PrimalDirection(-facet_normal.vector)
    rho_classical = rho_affine if rank == instance.d else max(0.0, rho_affine)
    return MarginReport(
        rho_classical=rho_classical,
        rho_affine=rho_affine,
        rho_plus=max(0.0, rho_affine),
        rho_minus=min(0.0, rho_affine),
        witness_direction=direction,
        witness_weights=weights,
        method="min-norm-point" if rho_affine > ZERO_BAND else "enumeration",
        rank=rank,
        rank_tolerance=basis.tolerance,
        ill_posed=abs(rho_affine) <= ZERO_BAND,
        boundary_pass=flagged,
    )


def _sphere_grid(resolution: int) -> Iterator[np.ndarray]:
    """Quasi-uniform unit grid on S^2 (rings, ~resolution points per angle), stacked one GRID_BLOCK at a time."""
    pending, held = [], 0
    for j in range(resolution):
        polar = np.pi * (j + 0.5) / resolution
        count = max(1, int(round(resolution * np.sin(polar))))
        azimuth = 2.0 * np.pi * np.arange(count) / count
        sp, cp = np.sin(polar), np.cos(polar)
        pending.append(np.column_stack([sp * np.cos(azimuth), sp * np.sin(azimuth), np.full(count, cp)]))
        held += count
        while held >= GRID_BLOCK:
            stacked = np.vstack(pending)
            yield stacked[:GRID_BLOCK]
            pending, held = [stacked[GRID_BLOCK:]], held - GRID_BLOCK
    if held:
        yield np.vstack(pending)


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
        blocks = [np.array([[1.0], [-1.0]])]
    elif rank == 2:
        angles = 2.0 * np.pi * np.arange(resolution) / resolution
        grid = np.column_stack([np.cos(angles), np.sin(angles)])
        blocks = (grid[start : start + GRID_BLOCK] for start in range(0, resolution, GRID_BLOCK))
    else:
        blocks = _sphere_grid(resolution)
    return max(float((block @ coords).min(axis=1).max()) for block in blocks)


def minimum_enclosing_ball(instance: ProblemInstance) -> BallReport:
    """Smallest ball enclosing the hull of unit columns, from the margin witness.

    For unit columns the radius is sqrt(1 - rho_plus^2) and the center is the
    hull point selected by the positive-margin minimizer; when the origin lies
    in the hull the answer degenerates to the unit ball about the origin. The
    witness is the instance's kept margin_report, so the oracle runs at most
    once per instance.
    """
    if not instance.has_unit_columns():
        raise ValueError("minimum_enclosing_ball requires unit columns (ingest with normalize=True)")
    report = margin_report(instance)
    rho_plus, weights = report.rho_plus, report.witness_weights
    if rho_plus <= ZERO_BAND:
        return BallReport(center=np.zeros(instance.d), radius=1.0, support_weights=weights)
    radius = float(np.sqrt(max(0.0, 1.0 - rho_plus * rho_plus)))
    return BallReport(center=combine(instance, weights), radius=radius, support_weights=weights)


def _rank_frame(instance: ProblemInstance, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eq = [F; 1^T] and the rows [c_k, 1] of rhs: the hull programs eq p = [c_k; 1] of a (k, d) stack of points v_k.

    On a rank-deficient instance F = B^T A and c_k = B^T v_k, with B the
    orthonormal basis of the span, so the d - r redundant rows of [A; 1^T]
    never reach the simplex; c_k is summed row by row, with the same bytes at
    any k. At full rank, and at rank 0 (all-zero columns have no basis), F = A
    and c_k = v_k. Without its last row and entry, a program is A x = v_k.
    """
    columns, n = instance.columns, instance.n
    frame, coords = columns, points
    if columns.any() and instance.basis.rank < instance.d:
        basis = instance.basis.basis
        frame = basis.T @ columns
        coords = (points[:, None, :] * basis.T).sum(axis=2)
    return np.vstack([frame, np.ones((1, n))]), np.hstack([coords, np.ones((len(points), 1))])


def representable(instance: ProblemInstance, points: np.ndarray) -> list[SimplexPoint | None]:
    """For each row v of a (k, d) stack, weights p with columns @ p = v when v lies in the hull, else None.

    The lowest open point runs a phase-1 feasibility program; its emptiness
    answer is the simplex status, double-checked: weights that simplex_rows
    refuses (SimplexPoint.from_approximate's rules) or a residual
    ||columns @ p - v|| above 1e-9 also give None. The program comes from
    _rank_frame, which also poses the l1 distance programs of the Hoffman
    statements and of the run replay: on a rank-deficient instance it is
    [B^T A; 1^T] p = [B^T v; 1], with B the orthonormal basis of the span, so
    the redundant rows of [A; 1^T] do not arise. The residual is still taken
    in R^d, so a point off the span gets None.
    When the simplex ends on a square basis (no artificial left, no
    redundant row dropped), it is solved against every open point's
    right-hand side at once. A solution that is entrywise >= 0 is a basic
    feasible solution of that point's program, found without pivoting
    (Chvatal, Linear Programming, 1983, ch. 3). Those solutions and the
    simplex's own weights pass the checks together, one simplex_rows call per
    basis. So only the simplex answers None, and a one-row stack gets the
    simplex's answer alone, which is row 0's answer in any stack. The bases
    live for one call.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != instance.d:
        raise ValueError(f"query points have shape {points.shape}, expected (k, {instance.d})")
    if not np.all(np.isfinite(points)):
        raise ValueError("query points must be finite")
    columns, n = instance.columns, instance.n
    eq, rhs = _rank_frame(instance, points)

    answers: list[SimplexPoint | None] = [None] * len(points)
    is_open = np.ones(len(points), dtype=bool)
    for k in range(len(points)):
        if not is_open[k]:
            continue
        is_open[k] = False
        sol = solve(np.zeros(n), eq, rhs[k])
        if sol.status != "optimal":
            continue
        rows = [k]  # the simplex's point and every open point its basis answers, accepted in one pass
        if len(sol.basis) == eq.shape[0] and is_open.any():
            rest = np.flatnonzero(is_open)
            solved = np.linalg.solve(eq[:, sol.basis], rhs[rest].T)
            fits = solved.min(axis=0) >= 0.0
            rows.extend(rest[fits])
        weights = np.zeros((len(rows), n))
        weights[0] = sol.x
        if len(rows) > 1:
            weights[1:, sol.basis] = solved[:, fits].T
        for j, point in zip(rows, _accepted(columns, points[rows], weights)):
            answers[j] = point
            is_open[j] = point is None and j != k  # the simplex's answer stands; others may try a later basis
    return answers


def _accepted(columns: np.ndarray, points: np.ndarray, weights: np.ndarray) -> list[SimplexPoint | None]:
    """Row i of a (k, n) weight block as a SimplexPoint when simplex_rows accepts it under
    from_approximate's rules and ||columns @ p - points[i]|| <= 1e-9, else None; in one pass."""
    rows, faults = simplex_rows(weights, repair=REPAIR_TOL)
    with np.errstate(invalid="ignore", over="ignore"):  # a refused row may hold NaN or inf
        residuals = np.sqrt(np.square((rows[:, None, :] * columns).sum(axis=2) - points).sum(axis=1))
    return [
        None if i in faults or not residual <= 1e-9 else SimplexPoint._from_row(row)
        for i, (row, residual) in enumerate(zip(rows, residuals.tolist()))
    ]
