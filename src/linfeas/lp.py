"""Dense two-phase simplex, and the distance subroutines built on it and on NNLS.

The simplex takes one form of program, min c @ x subject to A x = b and
x >= 0: hull membership and the l1 distance to a witness set are both
written that way. Desk scale, with no size budget: tableaus are dense, the
package's programs have at most 2n + 1 rows (margins._rank_frame), and
exactness of the reported status matters more than speed. The pivot loop
starts with the most-negative-reduced-cost rule and falls back to Bland's
rule once the count of degenerate pivots suggests stalling, which
guarantees termination. The tableau's last row holds the reduced costs, so a
pivot is one whole-tableau update; each step keeps the arithmetic of the
plainer form it replaced, operation for operation and in order, so the bytes
of every answer stay those of tests/oracles.py's frozen copy. Phase 2 is
skipped on an all-zero objective, as every membership program has: its
reduced costs stay zero, so it could not pivot.

The Euclidean projections share one active-set solver, Lawson and
Hanson's NNLS on a Householder least-squares solve whose factor is kept
across its cycles: it gives the projection onto an intersection of
halfspaces here, and the min-norm point of a hull in the margins module. It
keeps the precision of the arrays it is given, and the bytes of
tests/oracles.py's fresh factorization. Nothing here enumerates subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LpSolution",
    "SimplexBreakdownError",
    "solve",
    "dist_l1_to_polyhedron",
    "dist_l2_to_halfspaces",
]

MAX_PIVOTS = 1_000_000  # per simplex phase; Bland's rule terminates long before

NNLS_TOL = 1e-12  # NNLS stops: residual over target norm, or gradient over largest column norm times residual

EMPTY_TOL = 1e-20  # squared NNLS residual at or below this is rounding: the halfspaces meet nowhere

FEASIBILITY_TOL = 1e-9  # phase-1 infeasibility above this is real; a ratio step at or below it is degenerate
REDUCED_COST_TOL = 1e-9  # a column enters only if its reduced cost is below minus this
PIVOT_TOL = 1e-11  # a pivot entry must exceed this


class SimplexBreakdownError(RuntimeError):
    """Raised when rounding takes a program where exact arithmetic cannot: an unbounded phase 1, no end within
    the pivot budget, or (in theorems) a distance program failing on a set that the margin makes nonempty."""


class DegenerateFaceError(RuntimeError):
    """Raised when a least-squares subproblem's matrix is rank-deficient."""


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective_value: float | None = None
    basis: list[int] | None = None


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= column[:, None] * pivot_row  # the products of np.outer, without its wrapper; the costs' row too


def _pivot_loop(tableau, basis, crow, ncols, degenerate_threshold):
    """Run simplex pivots until optimal or unbounded; crow is the tableau's last row. Returns the status."""
    m = tableau.shape[0] - 1
    rhs = tableau[:m, -1]  # a view: each pivot updates it in place
    ratios = np.empty(m)  # the ratio test's one buffer
    degenerate = 0
    bland = False
    for _ in range(MAX_PIVOTS):
        reduced = crow[:ncols]
        if bland:
            eligible = (reduced < -REDUCED_COST_TOL).nonzero()[0]
            if eligible.size == 0:
                return "optimal"
            col = int(eligible[0])
        else:
            col = int(reduced.argmin()) if ncols else 0
            if ncols == 0 or reduced[col] >= -REDUCED_COST_TOL:
                return "optimal"
        column = tableau[:m, col]
        positive = column > PIVOT_TOL
        if not positive.any():
            return "unbounded"
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=positive)
        best = float(ratios.min())
        ties = (ratios <= best + 1e-12 * (1.0 + abs(best))).nonzero()[0]
        # leaving-variable tie-break by smallest basis label (Bland-compatible)
        row = int(ties[0]) if ties.size == 1 else min(ties.tolist(), key=basis.__getitem__)
        if best <= FEASIBILITY_TOL:
            degenerate += 1
            if degenerate > degenerate_threshold:
                bland = True
        _pivot(tableau, row, col)
        basis[row] = col
    raise SimplexBreakdownError("simplex did not terminate within the pivot budget")


def _two_phase(A, b, c):
    """Solve min c@y, A y = b, y >= 0. Returns (status, y, basis)."""
    m, n = A.shape

    # phase 1: artificial identity basis minimizing total infeasibility; rows with b < 0 are negated
    sign = np.where(b < 0, -1.0, 1.0)
    tableau = np.zeros((m + 1, n + m + 1))  # the last row holds the reduced costs
    np.multiply(A, sign[:, None], out=tableau[:m, :n])
    np.multiply(b, sign, out=tableau[:m, -1])
    tableau.flat[n : m * (n + m + 2) : n + m + 2] = 1.0  # the diagonal of the artificial block, tableau[i, n + i]
    basis = list(range(n, n + m))
    crow = np.subtract.reduce(tableau[:m], axis=0, initial=0.0, out=tableau[-1])  # 0 - row 0 - row 1 - ...
    crow[n:-1] = 0.0  # basic artificial cost is 1, so the artificial columns' reduced costs are 1 - 1
    threshold = 50 * (m + n + m)
    if _pivot_loop(tableau, basis, crow, n + m, threshold) != "optimal":
        raise SimplexBreakdownError("phase-1 subproblem cannot be unbounded")
    if -crow[-1] > FEASIBILITY_TOL:
        return "infeasible", None, None

    # drive leftover artificials out of the basis; all-zero rows are redundant
    drop_rows: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            candidates = (np.abs(tableau[i, :n]) > PIVOT_TOL).nonzero()[0]
            if candidates.size:
                _pivot(tableau, i, int(candidates[0]))
                basis[i] = int(candidates[0])
            else:
                drop_rows.append(i)
    if drop_rows:
        tableau = np.delete(tableau, drop_rows, axis=0)
        basis = [basis[i] for i in range(m) if i not in drop_rows]
        m = len(basis)

    # phase 2 on the original objective, artificial columns removed; on a zero objective every
    # reduced cost stays a zero, so phase 2 could not pivot and is skipped
    if c.any():
        tableau = np.hstack([tableau[:, :n], tableau[:, -1:]])
        crow = np.concatenate([c, [0.0]], out=tableau[-1])
        for i in range(m):
            crow -= crow[basis[i]] * tableau[i]
        threshold = 50 * (m + n)
        if _pivot_loop(tableau, basis, crow, n, threshold) == "unbounded":
            return "unbounded", None, basis
    y = np.zeros(n)
    y[basis] = tableau[:-1, -1]
    return "optimal", y, basis


def solve(objective: np.ndarray, eq_matrix: np.ndarray, eq_rhs: np.ndarray) -> LpSolution:
    """min objective @ x subject to eq_matrix @ x = eq_rhs and x >= 0, by the two-phase dense simplex."""
    c = np.asarray(objective, dtype=float)
    A = np.asarray(eq_matrix, dtype=float)
    b = np.asarray(eq_rhs, dtype=float)
    if c.ndim != 1 or not np.isfinite(c).all():
        raise ValueError("objective must be a finite vector")
    if A.ndim != 2 or A.shape[1] != c.size or b.shape != (A.shape[0],):
        raise ValueError(f"inconsistent equality block: matrix {A.shape}, rhs {b.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("equality block must have finite entries")
    status, x, basis = _two_phase(A, b, c)
    if status != "optimal":
        return LpSolution(status=status, basis=basis)
    return LpSolution(status="optimal", x=x, objective_value=float(c @ x), basis=basis)


def dist_l1_to_polyhedron(x0: np.ndarray, eq_matrix: np.ndarray, eq_rhs: np.ndarray) -> tuple[float, np.ndarray]:
    """l1 distance from x0 to {x >= 0 | eq_matrix x = eq_rhs}, with the nearest x.

    Solves the split program over (x, u, v) >= 0 with x - u + v = x0 and
    objective sum(u) + sum(v). Raises ValueError when the target set is empty.
    """
    x0 = np.asarray(x0, dtype=float)
    A = np.asarray(eq_matrix, dtype=float)
    b = np.asarray(eq_rhs, dtype=float)
    m, n = A.shape
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")
    objective = np.concatenate([np.zeros(n), np.ones(2 * n)])
    block = np.zeros((m + n, 3 * n))
    block[:m, :n] = A
    block[m:, :n] = np.eye(n)
    block[m:, n : 2 * n] = -np.eye(n)
    block[m:, 2 * n :] = np.eye(n)
    sol = solve(objective, block, np.concatenate([b, x0]))
    if sol.status != "optimal":
        raise ValueError(f"target polyhedron is empty (status {sol.status})")
    return float(sol.objective_value), sol.x[:n]


def _reflect(vector: np.ndarray, c: int, reflector: tuple[np.ndarray, np.ndarray] | None) -> None:
    """Apply Householder reflector c, held as (2 v, v), to vector[c:] in place."""
    if reflector is not None:
        twice, v = reflector
        tail = vector[c:]  # one view, read and updated in place
        tail -= twice * (v @ tail)


class _HouseholderQR:
    """Householder QR of matrix[:, support] and the reflected target, for a support that keeps its prefix.

    Works in the arrays' own precision. Column c is reflected by reflectors 0
    to c - 1 and then yields reflector c, which depends only on the support's
    first c + 1 columns. So a new support keeps the reflectors of the prefix
    it shares with the last one and factors only the columns after it: the
    same operations, in the same order, as a factorization from an empty
    prefix. The normal equations, whose squared conditioning loses small
    residuals, are never formed.
    """

    def __init__(self, matrix: np.ndarray, target: np.ndarray) -> None:
        rows = matrix.shape[0]
        self.matrix = matrix
        self.support: list[int] = []
        self.reflectors: list[tuple[np.ndarray, np.ndarray] | None] = []  # None: column c was 0 from row c down
        self.factor = np.empty((rows, rows), dtype=matrix.dtype)  # column c: support[c] after reflectors 0 to c
        self.peaks: list = []  # the largest magnitude in each column of the factor
        self.rhs = [target]  # rhs[c]: the target after reflectors 0 to c - 1
        self.cutoff = np.finfo(matrix.dtype).eps * rows  # times the largest peak: the smallest diagonal allowed

    def solve(self, support: list[int]) -> np.ndarray:
        """z minimising ||matrix[:, support] @ z - target||; raises DegenerateFaceError when rank-deficient."""
        rows, cols = self.matrix.shape[0], len(support)
        if cols > rows:
            raise DegenerateFaceError(f"{cols} columns in dimension {rows} are linearly dependent")
        kept = 0
        while kept < min(cols, len(self.support)) and support[kept] == self.support[kept]:
            kept += 1
        del self.support[kept:], self.reflectors[kept:], self.peaks[kept:], self.rhs[kept + 1 :]
        for c in range(kept, cols):
            column = self.matrix[:, support[c]].copy()
            for k, reflector in enumerate(self.reflectors):
                _reflect(column, k, reflector)
            v = column[c:].copy()
            v[0] += np.copysign(np.sqrt(v @ v), v[0])
            norm = np.sqrt(v @ v)
            reflector = None
            if norm:
                v /= norm
                reflector = (2.0 * v, v)
            _reflect(column, c, reflector)
            rhs = self.rhs[c].copy()
            _reflect(rhs, c, reflector)
            self.support.append(support[c])
            self.reflectors.append(reflector)
            self.factor[:, c] = column
            self.peaks.append(np.abs(column).max())
            self.rhs.append(rhs)
        z = np.zeros(cols, dtype=self.matrix.dtype)
        if not cols:
            return z
        factor, rhs = self.factor, self.rhs[cols]
        if np.abs(factor.diagonal()[:cols]).min() <= self.cutoff * max(self.peaks):
            raise DegenerateFaceError("linearly dependent columns")
        for c in reversed(range(cols)):  # back substitution on the triangular factor
            z[c] = (rhs[c] - factor[c, c + 1 : cols] @ z[c + 1 :]) / factor[c, c]
        return z


def _minor_cycles(qr: _HouseholderQR, support: list[int], weights: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Move the weights on support to the least-squares minimiser on its span, dropping columns on the way.

    The weights are positive but for an entering column's 0: Lawson and
    Hanson's inner loop.
    """
    while True:
        y = qr.solve(support)
        if (y > 0.0).all():
            return support, y
        # step until the first weight reaches 0: at once for an entering column (weight 0) at y <= 0
        shrink = y <= 0.0
        ratios = np.where(shrink, 0.0, np.inf).astype(weights.dtype)
        np.divide(weights, weights - y, out=ratios, where=shrink & (weights > 0.0))
        drop = int(ratios.argmin())
        weights = weights + ratios[drop] * (y - weights)
        weights[drop] = 0.0
        support, weights = [i for i, w in zip(support, weights) if w > 0.0], weights[weights > 0.0]


def _nnls(matrix: np.ndarray, target: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Support, positive weights and residual of the u >= 0 minimising ||matrix @ u - target||.

    Lawson and Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23), in the arrays' own precision: a major cycle admits the
    column along which the residual falls fastest, then the minor cycles
    solve least squares on the support. It stops when the residual is at
    most NNLS_TOL times the target's norm (the target is met), when no
    column's gradient beats NNLS_TOL, or when the residual stops falling.
    The residual is
    matrix[:, support] @ weights - target. Raises ValueError when it runs
    out of major cycles.
    """
    m = matrix.shape[1]
    reach = np.sqrt(np.einsum("ij,ij->j", matrix, matrix)).max()
    scale = np.sqrt(target @ target)
    qr = _HouseholderQR(matrix, target)  # one factor for every cycle: each solve re-factors only past the kept prefix
    support, weights, residual = [], np.zeros(0), -target
    squared = residual @ residual
    for _ in range(50 * m):  # a guard: Lawson and Hanson need a few major cycles per column
        gradient = residual @ matrix  # half the gradient of the squared residual
        gradient[support] = np.inf  # in exact arithmetic 0 on the support
        j = int(gradient.argmin())
        norm = np.sqrt(squared)
        if norm <= NNLS_TOL * scale or gradient[j] >= -NNLS_TOL * reach * norm:
            return support, weights, residual
        try:
            grown, solved = _minor_cycles(qr, support + [j], np.concatenate((weights, [0.0])))
        except DegenerateFaceError:  # column j lies in the support's span: the residual cannot fall
            return support, weights, residual
        lowered = matrix[:, grown] @ solved - target
        lowered_squared = lowered @ lowered
        if lowered_squared >= squared:  # in exact arithmetic every cycle lowers it
            return support, weights, residual
        support, weights, residual, squared = grown, solved, lowered, lowered_squared
    raise ValueError(f"NNLS: no convergence in {50 * m} major cycles")


def dist_l2_to_halfspaces(point: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> tuple[float, np.ndarray]:
    """Euclidean distance from point to {y | normals[:, i] @ y >= offsets[i]}, with the nearest y.

    Least-distance programming reduced to one NNLS (Lawson and Hanson, ch. 23):
    with b = offsets - normals.T @ point, the residual r of min ||[normals; b] u
    - e_{d+1}|| over u >= 0 is 0 exactly when the intersection is empty.
    Otherwise the support S of u is the active set, and the nearest point is
    point + z for the least-norm z with normals[:, S].T @ z = b[S]: the same
    point as point - r[:d] / r[d], without the cancellation in r[:d]. Raises
    ValueError when the intersection is empty, or when the point misses a
    halfspace by more than the feasibility tolerance 1e-9.
    """
    point = np.asarray(point, dtype=float)
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    d = normals.shape[0]
    slack = normals.T @ point - offsets
    if slack.min() >= -1e-9:  # feasibility tolerance, here and for the projection below
        return 0.0, point
    system = np.vstack([normals, -slack])
    target = np.zeros(d + 1)
    target[d] = 1.0
    active, _, residual = _nnls(system, target)
    if residual[d] >= 0.0 or residual @ residual <= EMPTY_TOL:  # in exact arithmetic r[d] = -||r||^2
        raise ValueError("halfspace intersection appears empty")
    step = np.linalg.lstsq(normals[:, active].T, -slack[active], rcond=None)[0]
    nearest = point + step
    if (normals.T @ nearest - offsets).min() < -1e-9:
        raise ValueError("halfspace projection failed its feasibility check (tolerance 1e-9)")
    return float(np.sqrt(step @ step)), nearest
