"""Constructive certifiers for the margin-quantified alternative, error bounds and balls.

The eight statements ``linfeas certify`` checks all live here: Gordan's
alternative in parts 1-3 (``gordan_decide``), the Hoffman-type bounds
``hoffman_dual``, ``hoffman_simplex`` and ``hoffman_primal``, the enclosing
ball identity radius^2 + rho_plus^2 = 1 (``certify_meb``) and the inradius
ball lying in the hull (``certify_radius``). Each verifier checks its inputs,
then decides which side of its statement holds using the exact margin oracle,
constructs the witness object the statement promises and reports its
residuals, so a claim never rests on the oracle alone. Every result is a
Record with ``verified``. Every distance bound is cross-checked against
the exact l1 or l2 distance from the LP module. Each verifier reads the
instance's own ``margin_report``, kept per instance at its default rank
cutoff, the one the rank frame, the ball samples and the span test read: a
statement and its checks share one rank, and no statement can read the
report of other columns or another cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import PrimalDirection, ProblemInstance, Record, SimplexPoint, combine
from .lp import dist_l1_to_polyhedron, dist_l2_to_halfspaces
from .margins import (
    ZERO_BAND, BallReport, MarginReport, _rank_frame, margin_report, minimum_enclosing_ball, representable,
)

__all__ = [
    "IllPosedError",
    "InapplicableError",
    "CertificateConstructionError",
    "GordanVerdict",
    "HoffmanReport",
    "BallVerdict",
    "BallSample",
    "RadiusVerdict",
    "gordan_decide",
    "hoffman_dual",
    "hoffman_simplex",
    "hoffman_primal",
    "certify_meb",
    "certify_radius",
]

RESIDUAL_TOL = 1e-9


class IllPosedError(RuntimeError):
    """Raised when the requested threshold sits inside the ill-posed band."""


class InapplicableError(RuntimeError):
    """Raised when a statement's margin precondition fails for the instance."""


class CertificateConstructionError(RuntimeError):
    """Raised when a promised witness cannot be constructed: a genuine finding."""


@dataclass(frozen=True, eq=False)
class BallSample(Record):
    """A point of the gamma-ball and the weights that represent it; unpacks as (v, weights)."""

    v: np.ndarray
    weights: SimplexPoint

    def __iter__(self):
        return iter((self.v, self.weights))


@dataclass(frozen=True, eq=False)
class GordanVerdict(Record):
    """Which alternative held, the witness constructed for it, and its residuals."""

    gamma: float
    part: int
    alternative_held: str  # "first" | "second"
    residuals: np.ndarray
    margin: MarginReport
    witness_direction: PrimalDirection | None = None
    witness_weights: SimplexPoint | None = None
    ball_samples: tuple[BallSample, ...] | None = None

    _properties = ("verified",)

    @property
    def min_slack(self) -> float:
        return float(self.residuals.min())

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())

    @property
    def verified(self) -> bool:
        if self.alternative_held == "first":
            return self.min_slack > RESIDUAL_TOL
        return self.max_residual <= RESIDUAL_TOL


@dataclass(frozen=True, eq=False)
class HoffmanReport(Record):
    """A distance-to-feasibility bound with its constructed witness and residuals."""

    variant: str  # "dual-general" | "dual-simplex" | "primal"
    bound_value: float
    constructed_witness: np.ndarray | SimplexPoint
    witness_residual: float
    witness_distance: float
    exact_distance: float
    slack: float
    relaxed_bound: float | None = None

    _properties = ("verified",)

    @property
    def verified(self) -> bool:
        ok = self.witness_residual <= RESIDUAL_TOL
        ok &= self.witness_distance <= self.bound_value + RESIDUAL_TOL
        ok &= self.exact_distance <= self.bound_value + RESIDUAL_TOL
        return bool(ok)


@dataclass(frozen=True, eq=False)
class BallVerdict(Record):
    """The enclosing ball with its radius-identity, containment and centre residuals."""

    ball: BallReport
    radius_identity_gap: float
    containment_overshoot: float
    center_gap: float

    statement = "meb"
    _properties = ("statement", "verified")

    @property
    def verified(self) -> bool:
        gaps = (self.radius_identity_gap, self.containment_overshoot, self.center_gap)
        return all(gap <= RESIDUAL_TOL for gap in gaps)


@dataclass(frozen=True, eq=False)
class RadiusVerdict(Record):
    """The inradius with the spot checks of its ball that failed."""

    inradius: float
    interior_samples: int
    failures: tuple[str, ...]

    statement = "radius"
    _properties = ("statement", "verified")

    @property
    def verified(self) -> bool:
        return not self.failures


def _in_target(
    variant: str, bound: float, point: np.ndarray | SimplexPoint, residual: float, relaxed: float | None = None
) -> HoffmanReport:
    """The report for a point already in its target set: it is its own witness, at distance 0."""
    return HoffmanReport(
        variant, bound, point, residual, witness_distance=0.0, exact_distance=0.0, slack=bound, relaxed_bound=relaxed
    )


def _span_directions(instance: ProblemInstance, count: int, seed: int) -> np.ndarray:
    """Unit directions in the column span: basis directions plus seeded samples."""
    basis = instance.basis.basis
    z = np.random.default_rng(seed).standard_normal((count, basis.shape[1]))
    norms = np.sqrt(np.vecdot(z, z))
    units = z[norms != 0.0] / norms[norms != 0.0, None]
    return np.vstack([basis.T, -basis.T, np.matvec(basis, units)])  # matvec: the bytes of one lift per sample


def gordan_decide(
    instance: ProblemInstance,
    gamma: float,
    part: int,
    sample_seed: int = 0,
    samples: int = 32,
) -> GordanVerdict:
    """Decide which alternative holds at threshold gamma and construct its witness.

    Part 1 is the zero-threshold statement (gamma must be 0). Part 2 splits on
    strict dot products above gamma versus a hull point within gamma of the
    origin. Part 3 splits on dot products above -gamma versus the gamma-ball
    being representable; the ball claim is certified by the exact inradius
    comparison and spot-checked on the scaled basis directions plus seeded
    samples, all passed to one batched ``representable`` call, so the
    ``ball_samples`` weights are a basic feasible solution for each point but
    not always the one a fresh simplex would pick. Gamma must satisfy
    0 <= gamma < inf. The margin is the instance's kept margin_report, asked
    for once the inputs pass, so the oracle runs at most once per instance
    across every statement.
    """
    if not 0.0 <= gamma < np.inf:
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma!r}")
    if part not in (1, 2, 3):
        raise ValueError("part must be 1, 2, or 3")
    if part == 1 and gamma != 0.0:
        raise ValueError("part 1 is the zero-threshold statement; use gamma = 0")
    report = margin_report(instance)
    rho = report.rho_affine
    pivot = gamma if part in (1, 2) else -gamma
    if abs(rho - pivot) <= ZERO_BAND:
        raise IllPosedError(
            f"margin {rho:.3e} is within {ZERO_BAND} of the decision threshold "
            f"{pivot:.3e}; refusing to certify either alternative"
        )

    if rho > pivot:
        w = report.witness_direction
        assert w is not None
        slacks = w.vector @ instance.columns - pivot
        return GordanVerdict(
            gamma=gamma, part=part, alternative_held="first", residuals=slacks, margin=report, witness_direction=w
        )

    if part in (1, 2):
        weights = report.witness_weights
        assert weights is not None
        norm = float(np.linalg.norm(combine(instance, weights)))
        # second alternative: a hull point within gamma of the origin
        residuals = np.array([max(norm - gamma, 0.0)])
        return GordanVerdict(
            gamma=gamma, part=part, alternative_held="second", residuals=residuals, margin=report,
            witness_weights=weights,
        )

    # part 3, second alternative: every point of the gamma-ball in the span is
    # representable; spot-check scaled directions in one batch of feasibility LPs
    if gamma == 0.0:
        directions = np.zeros((1, instance.d))
    else:
        directions = gamma * _span_directions(instance, samples, sample_seed)
    table = tuple(BallSample(v, p) for v, p in zip(directions, representable(instance, directions)))
    for v, p in table:
        if p is None:
            raise CertificateConstructionError(
                f"ball point {v} is not representable although the inradius "
                f"{abs(report.rho_minus):.6g} covers radius {gamma:.6g}"
            )
    gaps = np.matvec(instance.columns, np.array([p.weights for _, p in table])) - directions
    return GordanVerdict(
        gamma=gamma, part=part, alternative_held="second", residuals=np.sqrt(np.vecdot(gaps, gaps)), margin=report,
        ball_samples=table,
    )


def _require_negative_margin(report: MarginReport) -> float:
    if report.rho_affine >= -ZERO_BAND:
        raise InapplicableError(
            f"statement needs a strictly negative margin, instance has {report.rho_affine:.3e}"
        )
    return abs(report.rho_minus)


def hoffman_dual(instance: ProblemInstance, b: np.ndarray, x: np.ndarray) -> HoffmanReport:
    """Bound the l1 distance from x >= 0 to {x' >= 0 | A x' = b} by residual/inradius.

    Constructs the repaired point x + p * ||Ax - b|| / inradius, where p
    represents the scaled residual direction inside the hull, and verifies it
    lands in the target set. Requires b in the column span with a nonempty
    target set, which the exact distance's phase 1 checks.
    """
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    if b.shape != (instance.d,) or x.shape != (instance.n,):
        raise ValueError("b must have length d and x length n")
    if not (np.isfinite(b).all() and np.isfinite(x).all()):
        raise ValueError("b and x must be finite")
    if np.any(x < -1e-12):
        raise ValueError("x must be entrywise nonnegative")
    rho = _require_negative_margin(margin_report(instance))
    x = np.clip(x, 0.0, None)
    span_gap = float(np.linalg.norm(b - instance.basis.project(b)))
    if span_gap > RESIDUAL_TOL * max(1.0, float(np.linalg.norm(b))):
        raise InapplicableError("witness set is empty: rhs has a component outside the column span")
    residual_vec = instance.columns @ x - b
    r = float(np.linalg.norm(residual_vec))
    bound = r / rho
    if r <= 1e-12:
        return _in_target("dual-general", bound, x, r)
    eq, rhs = _rank_frame(instance, b[None])  # b lies in the span: A x = b in the rank frame, without the row of ones
    try:
        exact, _ = dist_l1_to_polyhedron(x, eq[:-1], rhs[0, :-1])
    except ValueError as exc:  # the distance program's phase 1 found the target set empty
        raise InapplicableError("witness set {x >= 0 | Ax = b} is empty") from exc
    v = rho * (b - instance.columns @ x) / r
    (p,) = representable(instance, v[None])
    if p is None:
        raise CertificateConstructionError(
            "scaled residual direction is not representable despite the inradius guarantee"
        )
    repaired = x + p.weights * (r / rho)
    witness_residual = float(np.linalg.norm(instance.columns @ repaired - b))
    witness_distance = float(np.abs(repaired - x).sum())
    return HoffmanReport(
        variant="dual-general",
        bound_value=bound,
        constructed_witness=repaired,
        witness_residual=witness_residual,
        witness_distance=witness_distance,
        exact_distance=exact,
        slack=bound - exact,
    )


def hoffman_simplex(instance: ProblemInstance, p: SimplexPoint) -> HoffmanReport:
    """Bound the l1 distance from weights p to the zero-combination weight set.

    The sharp bound is 2||Ap|| / (||Ap|| + inradius); the relaxed one drops
    the first addend of the denominator. The witness blends p with a
    representation of the reflected, inradius-scaled hull point.
    """
    rho = _require_negative_margin(margin_report(instance))
    image = combine(instance, p)
    r = float(np.linalg.norm(image))
    relaxed = 2.0 * r / rho
    sharp = 2.0 * r / (r + rho)
    if r <= 1e-12:
        return _in_target("dual-simplex", sharp, p, r, relaxed)
    v = -(rho / r) * image
    (p_prime,) = representable(instance, v[None])
    if p_prime is None:
        raise CertificateConstructionError(
            "reflected hull point is not representable despite the inradius guarantee"
        )
    lam = r / (r + rho)
    blended = SimplexPoint.from_approximate(lam * p_prime.weights + (1.0 - lam) * p.weights)
    witness_residual = float(np.linalg.norm(combine(instance, blended)))
    witness_distance = float(np.abs(p.weights - blended.weights).sum())
    eq, rhs = _rank_frame(instance, np.zeros((1, instance.d)))
    exact, _ = dist_l1_to_polyhedron(p.weights, eq, rhs[0])
    return HoffmanReport(
        variant="dual-simplex",
        bound_value=sharp,
        constructed_witness=blended,
        witness_residual=witness_residual,
        witness_distance=witness_distance,
        exact_distance=exact,
        slack=sharp - exact,
        relaxed_bound=relaxed,
    )


def hoffman_primal(instance: ProblemInstance, c: np.ndarray, w: np.ndarray) -> HoffmanReport:
    """Bound the Euclidean distance from w to {y | A^T y >= c} by violation/margin.

    The witness pushes w along the unit margin-maximizing direction far enough
    to clear the largest violation. The exact distance cross-check is the
    Euclidean projection onto the constraint polyhedron by NNLS.
    """
    c = np.asarray(c, dtype=float)
    w = np.asarray(w, dtype=float)
    if c.shape != (instance.n,) or w.shape != (instance.d,):
        raise ValueError("c must have length n and w length d")
    if not (np.isfinite(c).all() and np.isfinite(w).all()):
        raise ValueError("c and w must be finite")
    report = margin_report(instance)
    if report.rho_affine <= ZERO_BAND:
        raise InapplicableError(
            f"statement needs a strictly positive margin, instance has {report.rho_affine:.3e}"
        )
    rho_plus = report.rho_plus
    violation = np.clip(c - instance.columns.T @ w, 0.0, None)
    worst = float(violation.max())
    bound = worst / rho_plus
    if worst <= 1e-12:
        return _in_target("primal", bound, w, 0.0)
    direction = report.witness_direction
    assert direction is not None
    witness = w + bound * direction.vector
    witness_residual = float(np.clip(c - instance.columns.T @ witness, 0.0, None).max())
    witness_distance = float(np.linalg.norm(witness - w))
    exact, _ = dist_l2_to_halfspaces(w, instance.columns, c)
    return HoffmanReport(
        variant="primal",
        bound_value=bound,
        constructed_witness=witness,
        witness_residual=witness_residual,
        witness_distance=witness_distance,
        exact_distance=exact,
        slack=bound - exact,
    )


def certify_meb(instance: ProblemInstance) -> BallVerdict:
    """Check the smallest enclosing ball of the unit columns against radius^2 + rho_plus^2 = 1.

    Also checks that the ball contains every column and that its centre is the
    combination its support weights give. Unit columns are checked before the
    oracle runs.
    """
    if not instance.has_unit_columns():
        raise InapplicableError("minimum_enclosing_ball requires unit columns (ingest with normalize=True)")
    report = margin_report(instance)
    ball = minimum_enclosing_ball(instance)
    cols = instance.columns
    overshoot = float(np.linalg.norm(cols - ball.center[:, None], axis=0).max() - ball.radius)
    return BallVerdict(
        ball=ball,
        radius_identity_gap=abs(ball.radius**2 + report.rho_plus**2 - 1.0),
        containment_overshoot=max(overshoot, 0.0),
        center_gap=float(np.linalg.norm(cols @ ball.support_weights.weights - ball.center)),
    )


def certify_radius(instance: ProblemInstance, sample_seed: int = 0, samples: int = 32) -> RadiusVerdict:
    """Spot-check that the ball of the inradius lies in the hull and reaches its nearest facet.

    The interior points are 0.99 times the inradius along the seeded sample
    directions of Gordan part 3; each must be representable. The point 1.001
    times the inradius past the nearest facet must not be. Needs a strictly
    negative margin.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    report = margin_report(instance)
    inradius = _require_negative_margin(report)
    assert report.witness_direction is not None
    inside = 0.99 * inradius * _span_directions(instance, samples, sample_seed)[2 * instance.basis.rank :]
    beyond = -(1.0 + 1e-3) * inradius * report.witness_direction.vector
    *answers, outside = representable(instance, np.vstack([inside, beyond]))
    failures = [f"interior sample {k} not representable" for k, p in enumerate(answers) if p is None]
    if outside is not None:
        failures.append("point beyond the nearest facet was representable")
    return RadiusVerdict(inradius=inradius, interior_samples=samples, failures=tuple(failures))
