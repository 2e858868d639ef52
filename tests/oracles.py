"""Independent brute-force oracles for the test suite.

Nothing here shares code with the library paths it checks: distances come
from dense parameter grids, LP answers from exhaustive basic-solution
enumeration, Euclidean projections from exhaustive active-set
enumeration, min-norm points from exhaustive support-set enumeration or
from exact rational arithmetic, the negative margin from the supporting
hyperplanes of every column r-subset. Slow and exact at tiny sizes, which
is the point. Two references are not brute force. The solver loops at the
end are the iterations with one numpy update per array (w, alpha, w . A),
which the library's single-state-vector kernel, and the alpha rows its traces
replay from the chosen columns, must match byte for byte;
``loss``, the margin loss of one iterate, is the reference for the traces'
loss column.
``nnls_fresh_factorization`` is Lawson and Hanson's NNLS with the QR factor
built afresh in every minor cycle, by ``least_squares``: the library's own
Householder factor built from an empty prefix. It checks the library's reuse
of the factor, not the QR arithmetic.
``simplex_frozen`` is the dense two-phase simplex as it stood before its
pivots were cut to fewer numpy calls, kept verbatim: the library's must give
the same status, basis and bytes on every program, so the cuts keep every
operation and its order. ``_compute_basis``, ``_polar_rays`` and
``_near_facet_subsets`` are the rank basis, the polar's double description and
the judge's near-facet subsets as they stood before their loops were cut to
fewer numpy calls, kept verbatim on the same terms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from linfeas.algorithms import STALL_GAP, AlgorithmConfig, Certificate, IterateTrace
from linfeas.instance import ColumnSpaceBasis, PrimalDirection, ProblemInstance, SimplexPoint
from linfeas.lp import (
    FEASIBILITY_TOL,
    MAX_PIVOTS,
    NNLS_TOL,
    PIVOT_TOL,
    REDUCED_COST_TOL,
    DegenerateFaceError,
    SimplexBreakdownError,
    _HouseholderQR,
)
from linfeas.margins import NORMAL_ROUNDING, POLAR_RANK_TOL, POLAR_TOL, SIDE_TOL, NegativeMarginError


def segment_min_norm(a: np.ndarray, b: np.ndarray, step: float = 1e-6) -> float:
    """min ||t a + (1-t) b|| over a dense grid of t in [0, 1]."""
    ts = np.arange(0.0, 1.0 + step, step)
    points = np.outer(ts, a) + np.outer(1.0 - ts, b)
    return float(np.linalg.norm(points, axis=1).min())


def angular_margin(columns_2d: np.ndarray, count: int = 360_000) -> float:
    """sup over a dense angle grid of min_i w . a_i, for 2-dimensional columns."""
    angles = 2.0 * np.pi * np.arange(count) / count
    grid = np.column_stack([np.cos(angles), np.sin(angles)])
    return float((grid @ columns_2d).min(axis=1).max())


def _independent_rows(matrix: np.ndarray, tol: float = 1e-9) -> list[int]:
    "Indices of a maximal set of linearly independent rows (greedy Gram-Schmidt)."
    kept: list[int] = []
    basis: list[np.ndarray] = []
    for i in range(matrix.shape[0]):
        residual = matrix[i].astype(float).copy()
        for q in basis:
            residual -= (q @ matrix[i]) * q
        norm = np.linalg.norm(residual)
        if norm > tol * max(1.0, np.linalg.norm(matrix[i])):
            basis.append(residual / norm)
            kept.append(i)
    return kept


def enumerate_standard_form(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    tol: float = 1e-9,
) -> tuple[str, float | None]:
    """Solve min c@x, Ax = b, x >= 0 by enumerating basic solutions.

    Redundant rows are dropped first (an inconsistent redundancy is an
    immediate infeasibility), so square bases exist whenever the system is
    consistent. Conclusive for bounded feasible regions (the optimum sits at
    a vertex); the caller is responsible for ensuring boundedness. Returns
    ("infeasible", None) when no basic feasible solution exists, which
    settles feasibility because the standard-form cone is pointed.
    """
    keep = _independent_rows(A)
    if len(_independent_rows(np.hstack([A, b[:, None]]))) > len(keep):
        return "infeasible", None
    A = A[keep]
    b = b[keep]
    m, n = A.shape
    best = None
    for cols in itertools.combinations(range(n), min(m, n)):
        sub = A[:, cols]
        try:
            x_sub = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x_sub)):
            continue
        if np.max(np.abs(sub @ x_sub - b)) > 1e-7:
            continue
        if np.any(x_sub < -tol):
            continue
        x = np.zeros(n)
        x[list(cols)] = np.clip(x_sub, 0.0, None)
        if np.max(np.abs(A @ x - b)) > 1e-7:
            continue
        value = float(c @ x)
        if best is None or value < best:
            best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def halfplane_projection_grid(
    point: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    span: float = 6.0,
    resolution: int = 2001,
) -> float:
    """Euclidean distance to {y | normals.T y >= offsets} by a dense 2-d grid."""
    assert point.size == 2
    xs = np.linspace(point[0] - span, point[0] + span, resolution)
    ys = np.linspace(point[1] - span, point[1] + span, resolution)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    feasible = np.all(pts @ normals >= offsets[None, :] - 1e-12, axis=1)
    if not feasible.any():
        return np.inf
    return float(np.linalg.norm(pts[feasible] - point[None, :], axis=1).min())


def halfspace_projection_enumeration(
    point: np.ndarray, normals: np.ndarray, offsets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Euclidean distance from point to {y | normals[:, i] @ y >= offsets[i]}, with the nearest y.

    Projects onto every equality subsystem of at most d rows, keeps the
    candidates that satisfy every halfspace to within 1e-9, and returns the
    closest. Exact up to the solves, because the projection's active set is
    among the subsets. Subsystems whose solve is singular or leaves a residual
    above 1e-8 are skipped. Raises ValueError when no candidate is feasible.
    Exponential in the row count.
    """
    point = np.asarray(point, dtype=float)
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    d, m = normals.shape
    if (normals.T @ point - offsets).min() >= -1e-9:
        return 0.0, point
    best_dist, best_point = np.inf, None
    for k in range(1, min(d, m) + 1):
        subsets = np.array(list(itertools.combinations(range(m), k)))
        sub = np.moveaxis(normals[:, subsets], 1, 0)  # (count, d, k)
        grams = np.einsum("cdk,cdl->ckl", sub, sub)
        target = offsets[subsets] - np.einsum("cdk,d->ck", sub, point)
        try:
            coeffs = np.linalg.solve(grams, target[..., None])[..., 0]
        except np.linalg.LinAlgError:  # a singular member: solve one by one, skip the singular
            coeffs = np.full(target.shape, np.nan)
            for i, gram in enumerate(grams):
                try:
                    coeffs[i] = np.linalg.solve(gram, target[i])
                except np.linalg.LinAlgError:
                    pass
        residual = np.abs(np.einsum("ckl,cl->ck", grams, coeffs) - target).max(axis=1)
        ok = np.all(np.isfinite(coeffs), axis=1) & (residual <= 1e-8)
        candidates = point + np.einsum("cdk,ck->cd", sub, np.where(ok[:, None], coeffs, 0.0))
        ok &= (candidates @ normals - offsets).min(axis=1) >= -1e-9
        if not ok.any():
            continue
        dists = np.where(ok, np.linalg.norm(candidates - point, axis=1), np.inf)
        i = int(np.argmin(dists))
        if dists[i] < best_dist - 1e-15:
            best_dist, best_point = float(dists[i]), candidates[i]
    if best_point is None:
        raise ValueError("halfspace intersection appears empty")
    return best_dist, best_point


def min_norm_point_enumeration(columns: np.ndarray) -> tuple[float, np.ndarray]:
    """Distance from the origin to the convex hull of the columns, with weights.

    Solves the bordered least-norm system [2 G_S, 1; 1', 0] on every subset S
    of at most rank + 1 columns and keeps the nearest candidate whose weights
    are nonnegative. Every kept candidate is a hull point, and the optimal face
    has an affinely independent support among the subsets, so the minimum is
    exact up to the double-precision solves. Those leave errors of about 1e-9
    when the hull is a sliver within 1e-8 of the origin; use
    min_norm_point_rational there. Exponential in the column count.
    """
    columns = np.asarray(columns, dtype=float)
    n = columns.shape[1]
    gram = columns.T @ columns
    best_norm, best_weights = np.inf, None
    for k in range(1, min(n, np.linalg.matrix_rank(columns) + 1) + 1):
        subsets = np.array(list(itertools.combinations(range(n), k)))
        systems = np.ones((len(subsets), k + 1, k + 1))
        systems[:, :k, :k] = 2.0 * gram[subsets[:, :, None], subsets[:, None, :]]
        systems[:, k, k] = 0.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        try:
            sols = np.linalg.solve(systems, np.broadcast_to(rhs, (len(subsets), k + 1))[..., None])[..., 0]
        except np.linalg.LinAlgError:  # a singular member: solve one by one, skip the singular
            sols = np.full((len(subsets), k + 1), np.nan)
            for i, system in enumerate(systems):
                try:
                    sols[i] = np.linalg.solve(system, rhs)
                except np.linalg.LinAlgError:
                    pass
        residual = np.abs(np.einsum("mij,mj->mi", systems, sols) - rhs).max(axis=1)
        ok = np.all(np.isfinite(sols), axis=1) & (residual <= 1e-8) & np.all(sols[:, :k] >= -1e-12, axis=1)
        if not ok.any():
            continue
        q = np.clip(sols[ok, :k], 0.0, None)
        q /= q.sum(axis=1, keepdims=True)
        norms = np.linalg.norm(np.einsum("dmk,mk->md", columns[:, subsets[ok]], q), axis=1)
        i = int(np.argmin(norms))
        if norms[i] < best_norm:
            best_norm = float(norms[i])
            best_weights = np.zeros(n)
            best_weights[subsets[ok][i]] = q[i]
    return best_norm, best_weights


def negative_margin_enumeration(
    instance: ProblemInstance, basis: ColumnSpaceBasis
) -> tuple[float, PrimalDirection, bool]:
    """Inradius of the hull about the origin by the hyperplane of every column r-subset.

    The reference for margins._negative_margin_details, with its signature and
    its side test (SIDE_TOL), near-tie rule and boundary_pass flag: every
    r-subset of the columns, in lexicographic order, gets an SVD normal; the
    subsets whose hyperplane supports the hull within SIDE_TOL are kept, and the
    first kept subset within 1e-12 of the least distance wins. C(n, r) subsets.
    It measures in the library's unit: the coordinates divided by the power of
    two 2**k that brings the longest column into [1/sqrt(2), sqrt(2)), with the
    distance multiplied back.
    """
    r = basis.rank
    if r < 1:
        raise NegativeMarginError("instance has rank 0; margins are undefined")
    cols = instance.columns.astype(np.longdouble)
    shift = int(np.frexp(np.sqrt(np.einsum("ij,ij->j", cols, cols)).max() * np.sqrt(2.0))[1]) - 1
    coords = np.ldexp(basis.coordinates(instance.columns), -shift)  # (r, n), in units of 2**shift
    n = instance.n
    reach = np.sqrt(r) * np.abs(coords).max()
    if r == 1:
        line = coords[0]
        sign = np.tile([1.0, -1.0], n)
        candidate_normals, beta = np.ones((2 * n, 1)), np.repeat(line, 2)
        violations = np.where(sign > 0.0, line.max() - beta, beta - line.min())
        keep = violations <= SIDE_TOL
        cond = np.ones(2 * n)
    else:
        subsets = np.array(list(itertools.combinations(range(n), r)))
        pts = np.moveaxis(coords[:, subsets], 0, 2)  # (count, r, r): rows are points
        diffs = pts[:, 1:, :] - pts[:, :1, :]
        _, sing, vt = np.linalg.svd(diffs)
        candidate_normals = vt[:, -1, :]
        independent = sing[:, -1] > 1e-12 * np.maximum(1.0, sing[:, 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = sing[:, 0] / sing[:, -1]
        values = candidate_normals @ coords
        beta = np.einsum("cr,cr->c", candidate_normals, pts[:, 0, :])
        over = values.max(axis=1) - beta
        under = beta - values.min(axis=1)
        outward = over <= SIDE_TOL
        keep = independent & (outward | (under <= SIDE_TOL))
        sign = np.where(outward, 1.0, -1.0)
        violations = np.where(outward, over, under)
    normals = (sign[:, None] * candidate_normals)[keep]
    dists = np.maximum(sign * beta, 0.0)[keep]
    violations = np.maximum(violations, 0.0)[keep]
    rounding = (NORMAL_ROUNDING * r * r * reach * cond)[keep]
    if dists.size == 0:
        raise ValueError("no supporting hyperplane found; the hull is degenerate at this rank tolerance")
    winner = int(np.argmax(dists <= dists.min() + 1e-12))
    direction = PrimalDirection(basis.lift(normals[winner]))
    return float(np.ldexp(dists[winner], shift)), direction, bool(rounding[winner] < violations[winner] <= SIDE_TOL)


def min_norm_point_rational(columns: np.ndarray) -> tuple[float, np.ndarray]:
    """Distance from the origin to the convex hull of the columns, with weights, exactly.

    Wolfe's min-norm-point method in rational arithmetic on the double inputs,
    each of which is a rational. The loop ends only when ||x||^2 <= a_i . x holds
    exactly for every column, which is the optimality condition itself, so the
    distance is exact up to its final square root. In exact arithmetic every
    corral is affinely independent and every cycle lowers ||x||, so no
    tolerance or guard is needed.
    """
    cols = [[Fraction(v) for v in col] for col in np.asarray(columns, dtype=float).T.tolist()]
    n = len(cols)
    gram = [[sum(u * v for u, v in zip(a, b)) for b in cols] for a in cols]
    corral, weights = [min(range(n), key=lambda i: gram[i][i])], [Fraction(1)]
    while True:
        dots = [sum(w * gram[c][i] for w, c in zip(weights, corral)) for i in range(n)]
        norm_sq = sum(w * dots[c] for w, c in zip(weights, corral))
        j = min(range(n), key=lambda i: dots[i])
        if dots[j] >= norm_sq:
            break
        corral, weights = corral + [j], weights + [Fraction(0)]
        while True:
            y = _rational_affine_minimizer(gram, corral)
            if all(v > 0 for v in y):
                weights = y
                break
            theta = min(w / (w - v) for w, v in zip(weights, y) if v <= 0)
            weights = [w + theta * (v - w) for w, v in zip(weights, y)]
            corral, weights = [c for c, w in zip(corral, weights) if w > 0], [w for w in weights if w > 0]
    full = np.zeros(n)
    full[corral] = [float(w) for w in weights]
    return math.sqrt(norm_sq), full


def _rational_affine_minimizer(gram: list[list[Fraction]], corral: list[int]) -> list[Fraction]:
    """Solve [G_S, 1; 1', 0] [y; mu] = [0; 1] by Gauss-Jordan elimination over the rationals."""
    k = len(corral)
    rows = [[gram[a][b] for b in corral] + [Fraction(1), Fraction(0)] for a in corral]
    rows.append([Fraction(1)] * k + [Fraction(0), Fraction(1)])
    for c in range(k + 1):
        pivot = next(r for r in range(c, k + 1) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(k + 1):
            if r != c and rows[r][c] != 0:
                factor = rows[r][c] / rows[c][c]
                rows[r] = [u - factor * v for u, v in zip(rows[r], rows[c])]
    return [rows[i][k + 1] / rows[i][i] for i in range(k)]


def least_squares(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """z minimising ||matrix @ z - rhs||: the library's Householder factor built from an empty prefix."""
    return _HouseholderQR(matrix, rhs).solve(list(range(matrix.shape[1])))


def nnls_fresh_factorization(matrix: np.ndarray, target: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Support, weights and residual of the u >= 0 minimising ||matrix @ u - target||, factoring every support afresh.

    The cycles, stops and tie-breaks of ``lp._nnls``, written out again; each
    least-squares solve is ``least_squares`` on a copy of matrix[:, support].
    """
    reach = np.sqrt(np.einsum("ij,ij->j", matrix, matrix)).max()
    scale = np.sqrt(target @ target)
    support, weights, residual = [], np.zeros(0), -target
    for _ in range(50 * matrix.shape[1]):
        gradient = residual @ matrix
        gradient[support] = np.inf
        j = int(np.argmin(gradient))
        norm = np.sqrt(residual @ residual)
        if norm <= NNLS_TOL * scale or gradient[j] >= -NNLS_TOL * reach * norm:
            return support, weights, residual
        trial, trial_weights = support + [j], np.append(weights, 0.0)
        try:
            while True:  # minor cycles
                y = least_squares(matrix[:, trial].copy(), target.copy())
                if np.all(y > 0.0):
                    break
                shrink = y <= 0.0
                ratios = np.where(shrink, 0.0, np.inf).astype(trial_weights.dtype)
                np.divide(trial_weights, trial_weights - y, out=ratios, where=shrink & (trial_weights > 0.0))
                drop = int(np.argmin(ratios))
                trial_weights = trial_weights + ratios[drop] * (y - trial_weights)
                trial_weights[drop] = 0.0
                trial = [i for i, w in zip(trial, trial_weights) if w > 0.0]
                trial_weights = trial_weights[trial_weights > 0.0]
        except DegenerateFaceError:
            return support, weights, residual
        lowered = matrix[:, trial] @ y - target
        if lowered @ lowered >= residual @ residual:
            return support, weights, residual
        support, weights, residual = trial, y, lowered
    raise ValueError("NNLS reference: no convergence")


# --- the dense simplex before its pivots were cut to fewer numpy calls ------------------------------


def _pivot(tableau: np.ndarray, crow: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])
    crow -= crow[col] * tableau[row]


def _pivot_loop(tableau, basis, crow, ncols, degenerate_threshold):
    """Run simplex pivots until optimal or unbounded. Returns the status."""
    m = tableau.shape[0]
    degenerate = 0
    bland = False
    for _ in range(MAX_PIVOTS):
        reduced = crow[:ncols]
        if bland:
            eligible = np.nonzero(reduced < -REDUCED_COST_TOL)[0]
            if eligible.size == 0:
                return "optimal"
            col = int(eligible[0])
        else:
            col = int(np.argmin(reduced)) if ncols else 0
            if ncols == 0 or reduced[col] >= -REDUCED_COST_TOL:
                return "optimal"
        column = tableau[:, col]
        positive = column > PIVOT_TOL
        if not positive.any():
            return "unbounded"
        ratios = np.full(m, np.inf)
        ratios[positive] = tableau[positive, -1] / column[positive]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]
        # leaving-variable tie-break by smallest basis label (Bland-compatible)
        row = int(min(ties, key=lambda r: basis[r]))
        if best <= FEASIBILITY_TOL:
            degenerate += 1
            if degenerate > degenerate_threshold:
                bland = True
        _pivot(tableau, crow, row, col)
        basis[row] = col
    raise SimplexBreakdownError("simplex did not terminate within the pivot budget")


def _two_phase(A, b, c):
    """Solve min c@y, A y = b, y >= 0. Returns (status, y, basis)."""
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: artificial identity basis minimizing total infeasibility
    tableau = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    crow = np.concatenate([np.zeros(n), np.ones(m), [0.0]])
    for i in range(m):
        crow -= tableau[i]  # basic artificial cost is 1
    threshold = 50 * (m + n + m)
    if _pivot_loop(tableau, basis, crow, n + m, threshold) != "optimal":
        raise SimplexBreakdownError("phase-1 subproblem cannot be unbounded")
    if -crow[-1] > FEASIBILITY_TOL:
        return "infeasible", None, None

    # drive leftover artificials out of the basis; all-zero rows are redundant
    drop_rows: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            candidates = np.nonzero(np.abs(tableau[i, :n]) > PIVOT_TOL)[0]
            if candidates.size:
                _pivot(tableau, crow, i, int(candidates[0]))
                basis[i] = int(candidates[0])
            else:
                drop_rows.append(i)
    if drop_rows:
        keep = [i for i in range(m) if i not in drop_rows]
        tableau = tableau[keep]
        basis = [basis[i] for i in keep]
        m = len(keep)

    # phase 2 on the original objective, artificial columns removed
    tableau = np.hstack([tableau[:, :n], tableau[:, -1:]])
    crow = np.concatenate([c, [0.0]])
    for i in range(m):
        crow -= crow[basis[i]] * tableau[i]
    threshold = 50 * (m + n)
    if _pivot_loop(tableau, basis, crow, n, threshold) == "unbounded":
        return "unbounded", None, basis
    y = np.zeros(n)
    for i in range(m):
        y[basis[i]] = tableau[i, -1]
    return "optimal", y, basis


def simplex_frozen(objective: np.ndarray, A: np.ndarray, b: np.ndarray) -> tuple:
    """(status, x, objective value, basis) of min objective @ x, A x = b, x >= 0, as lp.solve reports them."""
    c, A, b = (np.asarray(v, dtype=float) for v in (objective, A, b))
    status, x, basis = _two_phase(A, b, c)
    if status != "optimal":
        return status, None, None, basis
    return status, x, float(c @ x), basis


# --- the rank basis and the polar before their loops were cut to fewer numpy calls ---------------


def _compute_basis(columns: np.ndarray, tol: float) -> ColumnSpaceBasis:
    """Rank-revealing orthogonalization with greedy pivoting on residual norms; all-zero columns have rank 0."""
    d, n = columns.shape
    work = columns.copy()
    vectors: list[np.ndarray] = []
    for _ in range(min(d, n)):
        norms = np.sqrt(np.add.reduce(work * work, axis=0))  # np.linalg.norm(work, axis=0), without its wrapper
        j = int(norms.argmax())
        if norms[j] <= tol:
            break
        q = work[:, j] / norms[j]
        # one re-orthogonalization pass keeps the basis clean at desk scale
        for b in vectors:
            q = q - (b @ q) * b
        qn = np.sqrt(q.dot(q))  # np.linalg.norm(q)
        if qn * norms[j] <= tol:  # the new direction's length in the columns' units, as tol is
            break
        q /= qn
        vectors.append(q)
        work -= np.outer(q, q @ work)
    basis = np.column_stack(vectors) if vectors else np.zeros((d, 0))
    return ColumnSpaceBasis(basis=basis, rank=len(vectors), tolerance=tol)


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


def _near_facet_subsets(coords: np.ndarray, reach: float, band: float) -> np.ndarray:
    """The column r-subsets near the nearest facets, lexicographic, band in coords' unit (_negative_margin_details)."""
    r, n = coords.shape
    rays = _polar_rays(coords)
    rays /= np.sqrt(np.einsum("ij,ij->i", rays[:, :r], rays[:, :r]))[:, None]  # unit facet normals
    facet_dist = np.maximum(rays[:, r], 0.0)
    slack = facet_dist[:, None] - rays[:, :r] @ coords  # (facets, n), >= 0 up to rounding
    excess = facet_dist - facet_dist.min()
    near = excess[:, None] + slack <= (r + 1) * (SIDE_TOL + band) + POLAR_TOL * reach
    count = near.sum(axis=1)
    subsets = [np.nonzero(near[count == r])[1].reshape(-1, r)]  # a simplicial facet is one subset
    for row in {tuple(np.flatnonzero(row)) for row in near[count > r]}:
        subsets.append(np.array(list(itertools.combinations(row, r))))
    subsets = np.vstack(subsets)
    _, first = np.unique(subsets @ n ** np.arange(r - 1, -1, -1), return_index=True)  # lexicographic
    return subsets[first]

# --- solver reference: the per-array loops -------------------------------------------------------


def loss(instance: ProblemInstance, w: np.ndarray) -> float:
    """Margin loss 0.5*||w||^2 - min_i w . a_i (minimized at the scaled margin direction)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (instance.d,):
        raise ValueError(f"vector has shape {w.shape}, expected ({instance.d},)")
    return float(0.5 * (w @ w) - (w @ instance.columns).min())


class _TraceBuilder:
    def __init__(self, algorithm: str, mode: str, instance: ProblemInstance, capacity: int):
        self.algorithm = algorithm
        self.mode = mode
        self.ts = np.zeros(capacity + 1, dtype=int)
        self.iterates = np.zeros((capacity + 1, instance.d))
        self.coefficients = np.zeros((capacity + 1, instance.n))
        self.norms = np.zeros(capacity + 1)
        self.margins = np.zeros(capacity + 1)
        self.losses = np.zeros(capacity + 1)
        self.chosen = np.full(capacity + 1, -1, dtype=int)
        self.kept = np.full(capacity + 1, np.nan) if algorithm == "vng" else None
        self.rows = 0

    def record(
        self, t: int, w: np.ndarray, coeff: np.ndarray, norm: float, worst: float, chosen: int, kept: float = np.nan
    ) -> None:
        """Append the state after update t; ``worst`` is min_i w . a_i, ``kept`` vng's weight left on w."""
        i = self.rows
        self.ts[i] = t
        self.iterates[i] = w
        self.coefficients[i] = coeff
        self.norms[i] = norm
        self.margins[i] = worst / norm if norm > 0.0 else np.nan
        self.losses[i] = 0.5 * norm * norm - worst
        self.chosen[i] = chosen
        if self.kept is not None:
            self.kept[i] = kept
        self.rows += 1

    def freeze(self, termination: str) -> IterateTrace:
        # a full buffer is handed over as is; a partial one is trimmed, freeing its unused tail
        r = self.rows
        buffers = {
            name: b if b.shape[0] == r else b[:r].copy() for name, b in vars(self).items() if isinstance(b, np.ndarray)
        }
        coefficients = buffers.pop("coefficients")
        trace = IterateTrace(
            algorithm=self.algorithm, mode=self.mode, termination=termination, n=coefficients.shape[1], **buffers
        )
        # the reference's alpha rows are its own per-array loop's, seated where the trace caches its replay
        coefficients.flags.writeable = False
        vars(trace)["coefficients"] = coefficients
        return trace


def _primal_certificate(cols: np.ndarray, w: np.ndarray, dots: np.ndarray, iterations: int) -> Certificate | None:
    """Certify w if it strictly separates the columns, checked against them directly.

    The loops update ``dots`` incrementally, so this resynchronises them with
    w @ cols in place and returns None if rounding had carried one across zero.
    """
    dots[:] = w @ cols
    worst = float(dots.min())
    if worst <= 0.0:
        return None
    return Certificate(
        kind="primal-feasible",
        direction=w.copy(),
        weights=None,
        epsilon=worst / math.sqrt(float(w @ w)),
        iterations=iterations,
    )


def _dual_certificate(alpha: np.ndarray, norm: float, iterations: int) -> Certificate:
    return Certificate(
        kind="dual-epsilon",
        direction=None,
        weights=SimplexPoint.from_approximate(alpha),
        epsilon=float(norm),
        iterations=iterations,
    )


def reference_classic(
    instance: ProblemInstance,
    config: AlgorithmConfig,
) -> tuple[Certificate | None, IterateTrace]:
    """The classical perceptron loop with one numpy update per array (w, counts, dots)."""
    cols = instance.columns
    gram = instance.gram
    trace = _TraceBuilder("classic", "primal-feasibility", instance, config.max_iters)  # the one mode it honours
    w = cols[:, 0].copy()
    counts = np.zeros(instance.n)
    counts[0] = 1.0
    dots = gram[0].copy()  # w . a_j for every column j
    trace.record(0, w, counts, math.sqrt(float(w @ w)), float(dots[dots.argmin()]), -1)
    certificate: Certificate | None = None
    for t in range(1, config.max_iters + 2):  # the last pass only checks the final state
        mistakes = dots <= 0.0  # exact sign test, no slack
        i = int(mistakes.argmax())  # the lowest-index mistake, if there is one
        if not mistakes[i]:
            certificate = _primal_certificate(cols, w, dots, t - 1)
            if certificate is not None:
                break
            mistakes = dots <= 0.0
            i = int(mistakes.argmax())
        if t > config.max_iters:
            break
        w += cols[:, i]
        counts[i] += 1.0
        dots += gram[i]
        trace.record(t, w, counts, math.sqrt(float(w @ w)), float(dots[dots.argmin()]), i)
    reason = "primal-feasible" if certificate is not None else "exhausted"
    return certificate, trace.freeze(reason)


def reference_averaged(
    instance: ProblemInstance,
    config: AlgorithmConfig,
    step_rule: str,
) -> tuple[Certificate | None, IterateTrace]:
    """The np / vng loop with one numpy update per array (w, alpha, dots)."""
    cols = instance.columns
    gram = instance.gram
    half_diag = 0.5 * gram.diagonal()
    trace = _TraceBuilder(step_rule, config.mode, instance, config.max_iters)
    w = cols[:, 0].copy()
    alpha = np.zeros(instance.n)
    alpha[0] = 1.0
    dots = gram[0].copy()  # w . a_j for every column j
    sq = float(w @ w)
    norm = math.sqrt(sq)
    worst_index = int(dots.argmin())  # a most violated column
    worst = float(dots[worst_index])
    trace.record(0, w, alpha, norm, worst, -1)
    certificate: Certificate | None = None
    reason = "completed"
    for t in range(1, config.max_iters + 2):  # the last pass only checks the final state
        if config.mode == "primal-feasibility" and worst > 0.0:
            certificate = _primal_certificate(cols, w, dots, t - 1)
            if certificate is not None:
                reason = "primal-feasible"
                break
        if config.mode == "dual-certificate" and norm <= config.target_eps:
            certificate = _dual_certificate(alpha, norm, t - 1)
            reason = "dual-epsilon"
            break
        if t > config.max_iters:
            if config.mode != "margin-maximization":
                reason = "exhausted"
            elif worst > 0.0:
                certificate = _primal_certificate(cols, w, dots, t - 1)
            break

        # both rules move to w <- keep * w + step * a_i and differ only in (keep, step)
        if step_rule == "np":
            i = worst_index
            step = 1.0 / t
            keep = 1.0 - step
        else:  # vng: furthest point, exact line search on the connecting segment
            i = int((dots - half_diag).argmin())  # furthest: ||w - a_j||^2 = ||w||^2 - 2 w.a_j + G_jj
            dot_i, g_ii = float(dots[i]), float(gram[i, i])
            gap = sq - dot_i  # Frank-Wolfe gap, zero at the minimum-norm point
            denom = gap + g_ii - dot_i  # ||w - a_i||^2
            keep = (g_ii - dot_i) / denom if denom > 1e-30 else 1.0
            if keep >= 1.0 or gap <= STALL_GAP * norm:
                reason = "stalled"  # line search cannot shrink the norm beyond rounding
                break
            keep = max(keep, 0.0)
            step = 1.0 - keep
        w *= keep
        w += step * cols[:, i]
        alpha *= keep
        alpha[i] += step
        dots *= keep
        dots += step * gram[i]
        sq = float(w @ w)
        norm = math.sqrt(sq)
        worst_index = int(dots.argmin())
        worst = float(dots[worst_index])
        trace.record(t, w, alpha, norm, worst, i, keep)
    return certificate, trace.freeze(reason)
