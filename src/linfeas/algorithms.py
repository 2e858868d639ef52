"""Perceptron-family iterations with full trace recording.

Three iterations over unit columns: the classical additive perceptron, the
averaged variant that tracks a convex combination of columns (a subgradient
step on the margin loss), and the furthest-point line-search iteration that
is Frank-Wolfe on the minimum-norm-point problem. Each loop keeps w . a_j for
every column and updates it from one row of the instance's cached Gram matrix,
so a step costs O(d + n). Ties break on the lowest column index, up to the
rounding of those dots, and every trace is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .instance import ProblemInstance, SimplexPoint

__all__ = [
    "MODES",
    "AlgorithmConfig",
    "IterateTrace",
    "Certificate",
    "perceptron_classic",
    "perceptron_normalized",
    "vng",
    "loss",
    "margin_estimate_np",
]

MODES = ("primal-feasibility", "dual-certificate", "margin-maximization")

TRACE_HEADER = "t,norm_w,margin_t,loss,chosen_index"

# vng stalls once its Frank-Wolfe gap is rounding noise, a few eps * ||w|| at the optimum
STALL_GAP = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class AlgorithmConfig:
    max_iters: int = 1000
    target_eps: float = 0.0
    mode: str = "primal-feasibility"

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.target_eps < 0.0:
            raise ValueError("target_eps must be nonnegative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(eq=False)
class Certificate:
    kind: str  # "primal-feasible" | "dual-epsilon"
    direction: np.ndarray | None
    weights: SimplexPoint | None
    epsilon: float
    iterations: int

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "direction": None if self.direction is None else list(map(float, self.direction)),
            "weights": None if self.weights is None else list(map(float, self.weights.weights)),
            "epsilon": self.epsilon,
            "iterations": self.iterations,
        }


@dataclass(eq=False)
class IterateTrace:
    """Per-iteration record of a run; row t holds the state after update t.

    ``coefficients`` rows are convex weights for the averaged iterations and
    raw update counts for the classical perceptron (either way the iterate is
    columns @ coefficients). ``chosen`` holds the column index used to produce
    row t, with -1 at t = 0.
    """

    algorithm: str
    ts: np.ndarray
    iterates: np.ndarray
    coefficients: np.ndarray
    norms: np.ndarray
    margins: np.ndarray
    losses: np.ndarray
    chosen: np.ndarray
    termination: str

    @property
    def steps(self) -> int:
        return int(self.ts[-1])

    def alpha(self, t: int) -> SimplexPoint:
        return SimplexPoint.from_approximate(self.coefficients[t])

    def write_csv(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(TRACE_HEADER + "\n")
            columns = (self.ts, self.norms, self.margins, self.losses, self.chosen)
            fh.write("".join(
                f"{t},{norm:.17g},{margin:.17g},{loss_t:.17g},{i}\n"
                for t, norm, margin, loss_t, i in zip(*(c.tolist() for c in columns))
            ))
        return path


class _TraceBuilder:
    def __init__(self, algorithm: str, instance: ProblemInstance, capacity: int):
        self.algorithm = algorithm
        self.ts = np.zeros(capacity + 1, dtype=int)
        self.iterates = np.zeros((capacity + 1, instance.d))
        self.coefficients = np.zeros((capacity + 1, instance.n))
        self.norms = np.zeros(capacity + 1)
        self.margins = np.zeros(capacity + 1)
        self.losses = np.zeros(capacity + 1)
        self.chosen = np.full(capacity + 1, -1, dtype=int)
        self.rows = 0

    def record(self, t: int, w: np.ndarray, coeff: np.ndarray, norm: float, worst: float, chosen: int) -> None:
        """Append the state after update t; ``worst`` is min_i w . a_i."""
        i = self.rows
        self.ts[i] = t
        self.iterates[i] = w
        self.coefficients[i] = coeff
        self.norms[i] = norm
        self.margins[i] = worst / norm if norm > 0.0 else np.nan
        self.losses[i] = 0.5 * norm * norm - worst
        self.chosen[i] = chosen
        self.rows += 1

    def freeze(self, termination: str) -> IterateTrace:
        # a full buffer is handed over as is; a partial one is trimmed, freeing its unused tail
        r = self.rows
        buffers = {name: b for name, b in vars(self).items() if isinstance(b, np.ndarray)}
        return IterateTrace(
            algorithm=self.algorithm,
            termination=termination,
            **{name: b if b.shape[0] == r else b[:r].copy() for name, b in buffers.items()},
        )


def _require_unit_columns(instance: ProblemInstance) -> None:
    if not instance.has_unit_columns():
        raise ValueError("algorithm requires unit columns; ingest with normalize=True")


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


def perceptron_classic(
    instance: ProblemInstance,
    config: AlgorithmConfig,
) -> tuple[Certificate | None, IterateTrace]:
    """Additive perceptron: add the lowest-index column with nonpositive dot.

    Starts at the first column; stops when no mistake remains (strict
    feasibility certificate) or the iteration budget runs out.
    """
    _require_unit_columns(instance)
    cols = instance.columns
    gram = instance.gram
    trace = _TraceBuilder("classic", instance, config.max_iters)
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


def _averaged_run(
    instance: ProblemInstance,
    config: AlgorithmConfig,
    step_rule: str,
) -> tuple[Certificate | None, IterateTrace]:
    cols = instance.columns
    gram = instance.gram
    half_diag = 0.5 * gram.diagonal()
    trace = _TraceBuilder(step_rule, instance, config.max_iters)
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
        trace.record(t, w, alpha, norm, worst, i)
    return certificate, trace.freeze(reason)


def perceptron_normalized(
    instance: ProblemInstance,
    config: AlgorithmConfig,
) -> tuple[Certificate | None, IterateTrace]:
    """Averaged perceptron: move toward the worst column with weight 1/t.

    The iterate stays a convex combination of columns (the first update
    replaces the starting column outright since the averaging weight is 1).
    Termination depends on the mode: strict feasibility, iterate norm at most
    target_eps, or run the full budget while maximizing the margin.
    """
    _require_unit_columns(instance)
    return _averaged_run(instance, config, "np")


def vng(
    instance: ProblemInstance,
    config: AlgorithmConfig,
) -> tuple[Certificate | None, IterateTrace]:
    """Furthest-point iteration with exact line search toward the origin.

    Each step picks the column furthest from the iterate and jumps to the
    minimum-norm point of the connecting segment (the closed-form minimizer
    clamped to [0, 1]); a clamp at 1 means no progress is possible and the
    run stops with a stall flag. This is Frank-Wolfe on the minimum-norm
    point of the hull, so the iterate norm never increases.
    """
    _require_unit_columns(instance)
    return _averaged_run(instance, config, "vng")


def loss(instance: ProblemInstance, w: np.ndarray) -> float:
    """Margin loss 0.5*||w||^2 - min_i w . a_i (minimized at the scaled margin direction)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (instance.d,):
        raise ValueError(f"vector has shape {w.shape}, expected ({instance.d},)")
    return float(0.5 * (w @ w) - (w @ instance.columns).min())


def margin_estimate_np(instance: ProblemInstance, eps: float) -> tuple[float, float]:
    """Interval of width eps around the positive margin from a fixed-length run.

    Runs the averaged perceptron for ceil(4/eps^2) updates and returns
    (||w_t|| - eps, ||w_t||); for instances with positive margin the interval
    is guaranteed to contain it.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    steps = math.ceil(4.0 / (eps * eps))
    config = AlgorithmConfig(max_iters=steps, mode="margin-maximization")
    _, trace = perceptron_normalized(instance, config)
    upper = float(trace.norms[-1])
    return upper - eps, upper
