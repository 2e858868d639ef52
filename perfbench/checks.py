"""Reference and property checks for the benchmark, made apart from linfeas.

Nothing here imports linfeas. Reference values come from numpy and scipy:
the min-norm point of a hull from scipy's NNLS on the bordered system
[A; M 1^T], polished on its support and confirmed by the optimality
condition; the inradius of a hull from Qhull facets; representability and
l1 distances from HiGHS through ``scipy.optimize.linprog``. Every ``check_*``
function returns a list of problems, empty when the output passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull

TOL = 1e-9
BORDER = 1e3  # weight M of the sum-to-one row in the bordered NNLS system


class ReferenceCheckError(RuntimeError):
    """Raised when a reference computation cannot confirm its own answer."""


@dataclass(frozen=True)
class MinNormPoint:
    weights: np.ndarray  # on the simplex
    point: np.ndarray  # columns @ weights
    rho_plus: float  # distance from the origin to the hull


def _optimality_gap(columns: np.ndarray, point: np.ndarray) -> float:
    """||x||^2 - min_i a_i . x; at most 0 exactly when x is the min-norm hull point."""
    return float(point @ point - (columns.T @ point).min())


def min_norm_point(columns: np.ndarray) -> MinNormPoint:
    """Closest point of the convex hull of the columns to the origin."""
    d, n = columns.shape
    bordered = np.vstack([columns, BORDER * np.ones((1, n))])
    rhs = np.concatenate([np.zeros(d), [BORDER]])
    raw, _ = nnls(bordered, rhs, maxiter=50 * n)
    if raw.sum() <= 0.0:
        raise ReferenceCheckError("NNLS returned the zero vector")
    support = np.nonzero(raw > 1e-12 * raw.max())[0]
    weights = _polish(columns, support)
    if weights is None:
        weights = raw / raw.sum()
    point = columns @ weights
    if _optimality_gap(columns, point) > TOL:
        raise ReferenceCheckError("min-norm reference failed its optimality condition")
    return MinNormPoint(weights=weights, point=point, rho_plus=float(np.linalg.norm(point)))


def _polish(columns: np.ndarray, support: np.ndarray) -> np.ndarray | None:
    """Exact least-norm affine combination on the support, if it stays in the simplex."""
    sub = columns[:, support]
    k = support.size
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = sub.T @ sub
    system[:k, k] = 1.0
    system[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    q, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    q = q[:k]
    if q.min() < -1e-12:
        return None
    full = np.zeros(columns.shape[1])
    full[support] = np.clip(q, 0.0, None)
    return full / full.sum()


def span_coordinates(columns: np.ndarray, rel_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the column span (d, r) and the columns in it (r, n)."""
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    rank = int((s > rel_tol * max(1.0, s[0])).sum())
    basis = u[:, :rank]
    return basis, basis.T @ columns


def inradius(columns: np.ndarray) -> float:
    """Radius of the largest origin-centred ball in the hull, inside the span (Qhull)."""
    _, coords = span_coordinates(columns)
    if coords.shape[0] == 1:
        line = coords[0]
        return float(min(line.max(), -line.min()))
    hull = ConvexHull(coords.T)
    offsets = -hull.equations[:, -1] / np.linalg.norm(hull.equations[:, :-1], axis=1)
    return float(offsets.min())


def representable(columns: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """Simplex weights p with columns @ p = v (HiGHS), or None when v is outside the hull."""
    d, n = columns.shape
    eq = np.vstack([columns, np.ones((1, n))])
    rhs = np.concatenate([v, [1.0]])
    res = linprog(np.zeros(n), A_eq=eq, b_eq=rhs, bounds=(0, None), method="highs")
    return res.x if res.status == 0 else None


def l1_distance(x0: np.ndarray, eq: np.ndarray, rhs: np.ndarray) -> float:
    """min ||x - x0||_1 over {x >= 0 | eq x = rhs} (HiGHS, split variables x, t)."""
    m, n = eq.shape
    cost = np.concatenate([np.zeros(n), np.ones(n)])
    a_eq = np.hstack([eq, np.zeros((m, n))])
    eye = np.eye(n)
    a_ub = np.vstack([np.hstack([eye, -eye]), np.hstack([-eye, -eye])])
    b_ub = np.concatenate([x0, -x0])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=rhs, bounds=(0, None), method="highs")
    if res.status != 0:
        raise ReferenceCheckError(f"l1 distance LP ended with status {res.status}")
    return float(res.fun)


# --- property checks -------------------------------------------------------


def check_simplex(weights, n: int, tol: float = TOL) -> list[str]:
    p = np.asarray(weights, dtype=float)
    if p.shape != (n,):
        return [f"weights have shape {p.shape}, expected ({n},)"]
    problems = []
    if p.min() < -tol:
        problems.append(f"negative weight {p.min():.3e}")
    if abs(p.sum() - 1.0) > tol:
        problems.append(f"weights sum to {p.sum():.17g}")
    return problems


def check_min_norm_witness(columns: np.ndarray, weights, rho_plus: float, reference: float) -> list[str]:
    """Feasible side: p on the simplex, min_i a_i.(Ap) >= ||Ap||^2 - tol, ||Ap|| = rho = reference."""
    problems = check_simplex(weights, columns.shape[1])
    if problems:
        return problems
    point = columns @ np.asarray(weights, dtype=float)
    gap = _optimality_gap(columns, point)
    if gap > TOL:
        problems.append(f"witness is not the min-norm point: optimality gap {gap:.3e}")
    norm = float(np.linalg.norm(point))
    if abs(norm - rho_plus) > TOL:
        problems.append(f"||Ap|| = {norm:.17g} but reported rho_plus {rho_plus:.17g}")
    if abs(rho_plus - reference) > TOL:
        problems.append(f"rho_plus {rho_plus:.17g} differs from the NNLS reference {reference:.17g}")
    return problems


def check_infeasible_witness(columns: np.ndarray, direction, rho: float, reference_inradius: float) -> list[str]:
    """Infeasible side: unit w in the span attains min_i w.a_i = rho, and |rho| is the Qhull inradius."""
    w = np.asarray(direction, dtype=float)
    problems = []
    if abs(np.linalg.norm(w) - 1.0) > TOL:
        problems.append(f"witness direction has norm {np.linalg.norm(w):.17g}")
    basis, _ = span_coordinates(columns)
    off_span = float(np.linalg.norm(w - basis @ (basis.T @ w)))
    if off_span > TOL:
        problems.append(f"witness direction leaves the column span by {off_span:.3e}")
    attained = float((w @ columns).min())
    if abs(attained - rho) > TOL:
        problems.append(f"min_i w.a_i = {attained:.17g} but reported rho {rho:.17g}")
    if abs(abs(rho) - reference_inradius) > TOL:
        problems.append(f"|rho| = {abs(rho):.17g} but the Qhull inradius is {reference_inradius:.17g}")
    return problems


def check_ball_representable(columns: np.ndarray, radius: float, samples: int, rng) -> list[str]:
    """Seeded points on the sphere of the given radius in the span lie in the hull (HiGHS)."""
    basis, _ = span_coordinates(columns)
    problems = []
    for k in range(samples):
        z = rng.standard_normal(basis.shape[1])
        v = radius * (basis @ (z / np.linalg.norm(z)))
        p = representable(columns, v)
        if p is None:
            problems.append(f"ball sample {k} of radius {radius:.6g} is not representable")
    return problems


def check_primal_certificate(columns: np.ndarray, direction, updates: int | None, rho_plus: float) -> list[str]:
    """w.a_i > 0 for every column; the classic perceptron also within ceil(1/rho^2) updates."""
    w = np.asarray(direction, dtype=float)
    problems = []
    worst = float((w @ columns).min())
    if not worst > 0.0:
        problems.append(f"certificate direction has min_i w.a_i = {worst:.3e}")
    if updates is not None:
        budget = math.ceil(1.0 / (rho_plus * rho_plus))
        if updates > budget:
            problems.append(f"{updates} updates exceed the mistake bound {budget}")
    return problems


def check_dual_certificate(columns: np.ndarray, weights, eps: float) -> list[str]:
    problems = check_simplex(weights, columns.shape[1])
    if problems:
        return problems
    norm = float(np.linalg.norm(columns @ np.asarray(weights, dtype=float)))
    if norm > eps:
        problems.append(f"||Ap|| = {norm:.6g} exceeds eps {eps:.6g}")
    return problems


def check_feasible_norms(norms, rho_plus: float, upper: bool = True, slack: float = 1e-7) -> list[str]:
    """rho+ <= ||w_t|| (<= rho+ + 2/sqrt(t) when ``upper``) for t >= 1."""
    norms = np.asarray(norms, dtype=float)[1:]
    if norms.size == 0:
        return []
    t = np.arange(1, norms.size + 1)
    problems = []
    below = float((rho_plus - norms).max())
    if below > slack:
        problems.append(f"||w_t|| falls below rho+ by {below:.3e}")
    if upper:
        above = float((norms - rho_plus - 2.0 / np.sqrt(t)).max())
        if above > slack:
            problems.append(f"||w_t|| exceeds rho+ + 2/sqrt(t) by {above:.3e}")
    return problems


def check_np_infeasible_norms(norms, slack: float = 1e-12) -> list[str]:
    """||w_t|| <= 1/sqrt(t) for t >= 1 when the origin lies in the hull."""
    norms = np.asarray(norms, dtype=float)[1:]
    if norms.size == 0:
        return []
    excess = float((norms - 1.0 / np.sqrt(np.arange(1, norms.size + 1))).max())
    return [f"||w_t|| exceeds 1/sqrt(t) by {excess:.3e}"] if excess > slack else []


def check_vng_norms(norms, inradius_lower: float | None = None, slack: float = 1e-12) -> list[str]:
    """Norms never increase; with an inradius lower bound r, each step contracts by sqrt(1 - r^2)."""
    norms = np.asarray(norms, dtype=float)
    if norms.size < 2:
        return []
    problems = []
    rise = float((norms[1:] - norms[:-1]).max())
    if rise > slack:
        problems.append(f"vng norm rose by {rise:.3e}")
    if inradius_lower is not None:
        factor = math.sqrt(max(0.0, 1.0 - inradius_lower * inradius_lower))
        excess = float((norms[1:] - factor * norms[:-1]).max())
        if excess > slack:
            problems.append(f"vng step contracted less than sqrt(1 - r^2) = {factor:.6g} by {excess:.3e}")
    return problems


def np_norms_from_chosen(columns: np.ndarray, chosen) -> np.ndarray:
    """Norms of the averaged-perceptron iterates rebuilt from the chosen indices."""
    chosen = np.asarray(chosen, dtype=int)
    w = columns[:, 0].copy()
    norms = np.empty(chosen.size)
    norms[0] = np.linalg.norm(w)
    for t in range(1, chosen.size):
        step = 1.0 / t
        w = (1.0 - step) * w + step * columns[:, chosen[t]]
        norms[t] = np.linalg.norm(w)
    return norms


def check_np_trace(columns: np.ndarray, chosen, norms, tol: float = TOL) -> list[str]:
    """Each chosen column minimises w.a_i, and the rebuilt norms match the recorded ones."""
    chosen = np.asarray(chosen, dtype=int)
    norms = np.asarray(norms, dtype=float)
    if chosen.size != norms.size:
        return [f"{chosen.size} chosen indices against {norms.size} norms"]
    if chosen[1:].size and (chosen[1:].min() < 0 or chosen[1:].max() >= columns.shape[1]):
        return ["chosen index out of range"]
    w = columns[:, 0].copy()
    for t in range(1, chosen.size):
        dots = w @ columns
        if dots[chosen[t]] > dots.min() + 1e-12:
            return [f"step {t} chose column {chosen[t]}, not a most violated one"]
        step = 1.0 / t
        w = (1.0 - step) * w + step * columns[:, chosen[t]]
    gap = float(np.abs(np_norms_from_chosen(columns, chosen) - norms).max())
    return [f"rebuilt norms differ from the trace by {gap:.3e}"] if gap > tol else []


def check_hoffman_bound(bound: float, exact: float, tol: float = TOL) -> list[str]:
    if bound < exact - tol:
        return [f"bound {bound:.17g} is below the exact distance {exact:.17g}"]
    return []


def check_meb(columns: np.ndarray, center, radius: float, rho_plus: float, tol: float = TOL) -> list[str]:
    """radius^2 + rho+^2 = 1 and every column lies in the ball."""
    c = np.asarray(center, dtype=float)
    problems = []
    identity = abs(radius * radius + rho_plus * rho_plus - 1.0)
    if identity > tol:
        problems.append(f"radius^2 + rho+^2 - 1 = {identity:.3e}")
    overshoot = float(np.linalg.norm(columns - c[:, None], axis=0).max() - radius)
    if overshoot > tol:
        problems.append(f"a column lies {overshoot:.3e} outside the ball")
    return problems


def read_trace_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, norm_w, chosen_index) columns of a trace CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0].astype(int), data[:, 1], data[:, 4].astype(int)
