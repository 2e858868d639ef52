"""Perceptron-family iterations with full trace recording.

Three iterations over unit columns: the classical additive perceptron, the
averaged variant that tracks a convex combination of columns (a subgradient
step on the margin loss), and the furthest-point line-search iteration that
is Frank-Wolfe on the minimum-norm-point problem. They are three step rules of
one loop, which keeps one state vector s = [w | w . A] of length d + n, of
which w and the dots w . a_j are views, and one update table U = [A' | G] of
shape (n, d + n), built per call from the columns and the instance's cached
Gram matrix. A step rule picks column i and the update: s += U[i] (classic)
or s *= keep; s += step * U[i] (averaged), which does elementwise what
separate updates of w and the dots would do. A step costs O(d + n) in these
numpy calls, with keep and step passed as 0-d arrays and every output buffer
preallocated:

- all rules: argmin of the dots, and the copies of w and of the smallest dot
  into the trace rows;
- classic: dots <= 0 into a bool buffer, its argmax, and one add;
- np: one multiply, one multiply into a scratch row, and one add;
- vng: those three, plus w . w, dots - G_jj / 2 and its argmin, and the
  weight kept on w into its trace row;
- the dual-certificate stop: w . w.

The loop holds only the update, the column choice and the stop tests, and
records w, min_j w . a_j and the chosen column per step (and vng's kept
weight); norms, margins and losses are derived from those rows after the
loop. The coefficients alpha of each iterate (w = A alpha) are not carried:
they follow from the chosen columns and the weights, and the trace replays
them on read with the elementwise operations a state [w | alpha | w . A]
would have made (alpha *= keep; alpha_i += step, or alpha_i += 1 for classic;
its other entries would gain step * 0.0, which leaves alpha >= 0 as it is),
so they are the same bytes. Ties break on the lowest column index, up to the
rounding of the dots, and every trace is reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .instance import ProblemInstance, Record, SimplexPoint

__all__ = [
    "MODES",
    "TraceBudgetError",
    "AlgorithmConfig",
    "IterateTrace",
    "Certificate",
    "perceptron_classic",
    "perceptron_normalized",
    "require_unit_columns",
    "vng",
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
        if not (self.target_eps >= 0.0):  # refuses nan, which no stop test would ever meet
            raise ValueError(f"target_eps must be nonnegative, got {self.target_eps}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True, eq=False)
class Certificate(Record):
    kind: str  # "primal-feasible" | "dual-epsilon"
    direction: np.ndarray | None
    weights: SimplexPoint | None
    epsilon: float
    iterations: int


@dataclass(frozen=True, eq=False)
class IterateTrace:
    """Per-iteration record of a run; row t holds the state after update t.

    ``chosen`` holds the column index used to produce row t, with -1 at
    t = 0; ``kept`` holds, for vng only, the weight update t left on the
    previous iterate. Every array is read-only. ``coefficients`` rows are
    convex weights for the averaged iterations and raw update counts for the
    classical perceptron (either way the iterate is columns @ coefficients);
    they are replayed from ``chosen`` and the weights on first read, and
    ``alpha_rows`` replays only up to the rows it is asked for.
    """

    algorithm: str
    mode: str  # the mode the run honoured: primal-feasibility for classic, whatever the config asked
    ts: np.ndarray
    iterates: np.ndarray
    norms: np.ndarray
    margins: np.ndarray
    losses: np.ndarray
    chosen: np.ndarray
    termination: str
    n: int  # the instance's column count, the length of a coefficient row
    kept: np.ndarray | None = None

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def steps(self) -> int:
        return int(self.ts[-1])

    @functools.cached_property
    def coefficients(self) -> np.ndarray:
        return self.alpha_rows(self.ts)

    def alpha_rows(self, rows: Sequence[int]) -> np.ndarray:
        """The coefficient rows at these row indices, replayed from alpha_0 = e_0 up to the last of them.

        Update t adds 1 to alpha_i for classic; for np and vng it scales alpha
        by the weight kept on w (1 - 1/t for np, the recorded line-search
        weight for vng) and adds the column's weight (1/t, or 1 - kept) to
        alpha_i. These are the elementwise operations of the kernel's update,
        so the rows are bit for bit those of a state that carries alpha.
        """
        rows = self.ts[np.asarray(rows, dtype=np.intp)]  # negative rows count from the end, as in indexing
        out = np.empty((rows.size, self.n))
        last = int(rows.max(initial=0))
        chosen = self.chosen[: last + 1].tolist()
        if self.algorithm == "classic":
            keeps, steps = None, [1.0] * (last + 1)
        elif self.algorithm == "np":
            weights = 1.0 / self.ts[1 : last + 1]  # 1.0 / t, as the kernel divides
            keeps, steps = [None, *(1.0 - weights).tolist()], [None, *weights.tolist()]
        else:
            keeps = self.kept[: last + 1].tolist()
            steps = [None, *(1.0 - self.kept[1 : last + 1]).tolist()]
        alpha = np.zeros(self.n)
        alpha[0] = 1.0
        keep = np.empty(())  # a 0-d operand, as in the kernel
        t = 0
        for k in np.argsort(rows, kind="stable").tolist():
            for t in range(t + 1, int(rows[k]) + 1):
                if keeps is not None:
                    keep[()] = keeps[t]
                    np.multiply(alpha, keep, alpha)
                alpha[chosen[t]] += steps[t]
            out[k] = alpha
        out.flags.writeable = False
        return out

    def write_csv(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(TRACE_HEADER + "\n")
            columns = (self.ts, self.norms, self.margins, self.losses, self.chosen)
            cells = [None] * (5 * len(self.ts))  # row-major: the columns interleaved
            for k, column in enumerate(columns):
                cells[k::5] = column.tolist()
            fh.write(("%d,%.17g,%.17g,%.17g,%d\n" * len(self.ts)) % tuple(cells))
        return path


class TraceBudgetError(MemoryError):
    """Raised when the trace of an iteration budget cannot be allocated."""


def _trace_buffers(capacity: int, d: int, weighted: bool) -> tuple[np.ndarray | None, ...]:
    """Rows for update 0 to capacity: w, min_j w . a_j, the chosen column and, if weighted, the kept weight."""
    rows = capacity + 1
    try:
        kept = np.full(rows, np.nan) if weighted else None  # row 0 follows no update
        return np.zeros((rows, d)), np.zeros(rows), np.full(rows, -1, dtype=int), kept
    except (MemoryError, ValueError) as exc:  # numpy refuses a size past memory, or past its index range
        raise TraceBudgetError(f"cannot allocate a trace of {capacity} updates: {exc}") from exc


def _freeze(
    algorithm: str, mode: str, n: int, rows: int, termination: str, buffers: tuple[np.ndarray | None, ...]
) -> IterateTrace:
    # a full buffer is handed over as is; a partial one is trimmed, freeing its unused tail
    iterates, worsts, chosen, kept = (b if b is None or b.shape[0] == rows else b[:rows].copy() for b in buffers)
    # vecdot reduces each row by the same ddot as w @ w, so these are the per-step bytes
    norms = np.sqrt(np.vecdot(iterates, iterates))
    margins = np.divide(worsts, norms, out=np.full(rows, np.nan), where=norms > 0.0)
    losses = 0.5 * norms * norms - worsts
    return IterateTrace(
        algorithm=algorithm,
        mode=mode,
        ts=np.arange(rows),
        iterates=iterates,
        norms=norms,
        margins=margins,
        losses=losses,
        chosen=chosen,
        termination=termination,
        n=n,
        kept=kept,
    )


def _update_table(instance: ProblemInstance) -> np.ndarray:
    """Row i is [a_i | G_i]: what a unit step toward column i adds to [w | w . A]."""
    return np.hstack([instance.columns.T, instance.gram])


def require_unit_columns(instance: ProblemInstance) -> None:
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


def _step_loop(
    instance: ProblemInstance,
    config: AlgorithmConfig,
    step_rule: str,
) -> tuple[Certificate | None, IterateTrace]:
    """The one loop of all three iterations; ``step_rule`` is "classic", "np" or "vng"."""
    require_unit_columns(instance)
    d, n, cols = instance.d, instance.n, instance.columns
    max_iters, target_eps = config.max_iters, config.target_eps
    table = _update_table(instance)
    updates = list(table)  # the row views U[i], made once
    g_diag = instance.gram.diagonal()
    half_diag, g_list = 0.5 * g_diag, g_diag.tolist()
    s = table[0].copy()  # [w | w . a_j for every column j] at the first column
    w, dots = s[:d], s[d:]
    buffers = _trace_buffers(max_iters, d, step_rule == "vng")
    iterates, worsts, chosen, kept_rows = buffers
    # scratch for step * U[i], vng's dots - G_jj / 2 and classic's mistakes
    scaled, reach, mistakes = np.empty_like(s), np.empty(n), np.empty(n, dtype=bool)
    keep, step, zero = np.empty(()), np.empty(()), np.zeros(())  # 0-d operands: ufuncs take them faster than floats
    add, multiply, subtract, less_equal = np.add, np.multiply, np.subtract, np.less_equal
    classic = step_rule == "classic"
    averaged = step_rule == "np"
    mode = "primal-feasibility" if classic else config.mode  # classic stops only on a primal certificate
    primal = mode == "primal-feasibility"
    dual = mode == "dual-certificate"
    certifies_at_budget = mode == "margin-maximization"
    reads_norm = dual or step_rule == "vng"
    certificate: Certificate | None = None
    reason = "completed"
    for t in range(max_iters + 1):  # row t: the state after update t, its stop tests, then update t + 1
        if reads_norm:
            sq = float(w.dot(w))
            norm = math.sqrt(sq)
        worst_index = dots.argmin()  # a most violated column
        iterates[t] = w
        worsts[t] = worst = dots[worst_index]
        if primal and worst > 0.0:
            certificate = _primal_certificate(cols, w, dots, t)
            if certificate is not None:
                reason = "primal-feasible"
                break
        if dual and norm <= target_eps:
            reason = "dual-epsilon"  # certified below, from the trace's replay of row t
            break
        if t == max_iters:
            if not certifies_at_budget:
                reason = "exhausted"
            elif worst > 0.0:
                certificate = _primal_certificate(cols, w, dots, t)
            break

        if classic:
            i = less_equal(dots, zero, mistakes).argmax()  # the lowest-index mistake; exact sign test, no slack
            add(s, updates[i], s)
        else:  # w <- keep * w + step * a_i; np and vng differ only in (keep, step)
            if averaged:
                i = worst_index
                weight = 1.0 / (t + 1)  # of the new column
                step[()] = weight
                keep[()] = 1.0 - weight
            else:  # vng: furthest point, exact line search on the connecting segment
                # furthest: ||w - a_j||^2 = ||w||^2 - 2 w.a_j + G_jj
                i = subtract(dots, half_diag, reach).argmin()
                dot_i, g_ii = dots.item(i), g_list[i]
                gap = sq - dot_i  # Frank-Wolfe gap, zero at the minimum-norm point
                denom = gap + g_ii - dot_i  # ||w - a_i||^2
                kept = (g_ii - dot_i) / denom if denom > 1e-30 else 1.0  # the weight left on w
                if kept >= 1.0 or gap <= STALL_GAP * norm:
                    reason = "stalled"  # line search cannot shrink the norm beyond rounding
                    break
                kept = max(kept, 0.0)
                keep[()] = kept_rows[t + 1] = kept
                step[()] = 1.0 - kept
            multiply(s, keep, s)
            add(s, multiply(updates[i], step, scaled), s)
        chosen[t + 1] = i
    trace = _freeze(step_rule, mode, n, t + 1, reason, buffers)
    if reason == "dual-epsilon":
        certificate = _dual_certificate(trace.alpha_rows([t])[0], norm, t)
    return certificate, trace


def perceptron_classic(
    instance: ProblemInstance,
    config: AlgorithmConfig,
) -> tuple[Certificate | None, IterateTrace]:
    """Additive perceptron: add the lowest-index column with nonpositive dot.

    Starts at the first column; stops when no mistake remains (strict
    feasibility certificate) or the iteration budget runs out, in any mode:
    its trace records primal-feasibility, the one mode it honours.
    """
    return _step_loop(instance, config, "classic")


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
    return _step_loop(instance, config, "np")


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
    return _step_loop(instance, config, "vng")


def margin_estimate_np(instance: ProblemInstance, eps: float) -> tuple[float, float]:
    """Interval of width eps around the positive margin from a fixed-length run.

    Runs the averaged perceptron for ceil(4/eps^2) updates and returns
    (||w_t|| - eps, ||w_t||); for instances with positive margin the interval
    is guaranteed to contain it.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    steps = math.ceil(4.0 / max(eps * eps, 1e-300))  # the floor keeps 4 / eps^2 finite; no trace holds 4e300 updates
    config = AlgorithmConfig(max_iters=steps, mode="margin-maximization")
    _, trace = perceptron_normalized(instance, config)
    upper = float(trace.norms[-1])
    return upper - eps, upper
