"""Run summaries: replay the convergence guarantees over a recorded trace.

Every check that applies to the instance and to the algorithm and mode the
trace records is evaluated against the instance's kept oracle margins and
reported with its worst violation, so a summary is a machine-checkable claim
about the run rather than a log line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algorithms import Certificate, IterateTrace
from .instance import ProblemInstance, Record, combine, write_json
from .margins import MarginReport, OracleError, dual_witness_distance, margin_report

__all__ = ["BoundCheck", "RunSummary", "build_run_summary", "DUAL_DISTANCE_SAMPLES"]

# iteration indices at which the dual-witness distance is checked; each point
# costs one LP, so the replay samples instead of sweeping the whole trace
DUAL_DISTANCE_SAMPLES = (10, 100, 1000)

CHECK_SLACK = 1e-7  # absolute slack for the margin-maximization family


@dataclass(frozen=True, eq=False)
class BoundCheck(Record):
    name: str
    passed: bool
    violation: float  # worst positive excess over the bound, 0 when clean
    detail: str = ""


@dataclass(frozen=True, eq=False)
class RunSummary(Record):
    instance: str
    algorithm: str
    mode: str
    iterations: int
    termination: str
    certificate: Certificate | None
    oracle: MarginReport | None
    checks: tuple[BoundCheck, ...]

    _properties = ("all_passed", "verdict")

    @property
    def all_passed(self) -> bool:
        """True only when at least one check ran and every check passed."""
        return bool(self.checks) and all(check.passed for check in self.checks)

    @property
    def verdict(self) -> str:
        """pass, fail, or unchecked when no check applied (the oracle was skipped, or none covers the run)."""
        if not self.checks:
            return "unchecked"
        return "pass" if self.all_passed else "fail"

    def save(self, path: str | Path) -> Path:
        return write_json(self.as_dict(), path)


def _check_from_excess(name: str, excess: float, detail: str = "") -> BoundCheck:
    excess = float(max(excess, 0.0))
    return BoundCheck(name=name, passed=excess == 0.0, violation=excess, detail=detail)


def _check_each_update(name: str, excess: np.ndarray) -> BoundCheck:
    """The check of a bound that holds at every update, on its worst excess; vacuous when no update was recorded."""
    if excess.size == 0:
        return BoundCheck(name, True, 0.0, "no updates recorded")
    return _check_from_excess(name, float(excess.max()))


def _mistake_bound(trace: IterateTrace, cert: Certificate | None, rho_plus: float) -> BoundCheck:
    budget = math.ceil(1.0 / (rho_plus * rho_plus))
    if cert is None or cert.kind != "primal-feasible":
        return BoundCheck(
            name="mistake-bound",
            passed=False,
            violation=float("inf"),
            detail=f"no feasibility certificate within {trace.steps} updates (budget {budget})",
        )
    return _check_from_excess(
        "mistake-bound",
        cert.iterations - budget,
        detail=f"{cert.iterations} updates against budget {budget}",
    )


def _dual_rate(trace: IterateTrace) -> BoundCheck:
    worst = 0.0
    details = []
    for eps in (0.5, 0.2, 0.1):
        t = math.ceil(1.0 / (eps * eps))
        if t >= trace.ts.size:
            continue
        worst = max(worst, float(trace.norms[t] - eps))
        details.append(f"t={t}: |w|={trace.norms[t]:.4g} vs eps={eps}")
    return _check_from_excess("dual-certificate-rate", worst, detail="; ".join(details))


def _margin_maximization(trace: IterateTrace, rho_plus: float, w_star: np.ndarray) -> BoundCheck:
    ts = trace.ts[1:]
    iterates = trace.iterates[1:]
    norms = trace.norms[1:]
    margins = trace.margins[1:]
    gap = np.linalg.norm(iterates / norms[:, None] - w_star[None, :], axis=1)
    lower_excess = (rho_plus - margins) - gap
    upper_excess = gap - 4.0 / (rho_plus * np.sqrt(ts))
    return _check_each_update("margin-maximization-rate", np.maximum(lower_excess, upper_excess) - CHECK_SLACK)


def _meb_convergence(trace: IterateTrace, rho_plus: float, w_star: np.ndarray) -> BoundCheck:
    ts = trace.ts[1:]
    gap = np.linalg.norm(trace.iterates[1:] - rho_plus * w_star[None, :], axis=1)
    return _check_each_update("meb-convergence", gap - 2.0 / np.sqrt(ts) - CHECK_SLACK)


def _norm_sandwich(trace: IterateTrace, rho_plus: float) -> BoundCheck:
    ts = trace.ts[1:]
    norms = trace.norms[1:]
    below = rho_plus - norms
    above = norms - (rho_plus + 2.0 / np.sqrt(ts))
    return _check_each_update("norm-sandwich", np.maximum(below, above) - CHECK_SLACK)


def _dual_witness_distance(
    instance: ProblemInstance, trace: IterateTrace, rho_minus_abs: float
) -> BoundCheck:
    worst = 0.0
    details = []
    samples = [t for t in DUAL_DISTANCE_SAMPLES if t < trace.ts.size]
    for t, alpha in zip(samples, trace.alpha_rows(samples)):  # replays the weights up to the last sample only
        dist = dual_witness_distance(instance, alpha)
        bound = 2.0 / (rho_minus_abs * math.sqrt(t))
        worst = max(worst, dist - bound)
        details.append(f"t={t}: dist={dist:.4g} vs bound={bound:.4g}")
    return _check_from_excess("dual-witness-distance", worst, detail="; ".join(details))


def _vng_contraction(trace: IterateTrace, rho_affine: float) -> BoundCheck:
    norms = trace.norms
    factor = math.sqrt(max(0.0, 1.0 - rho_affine * rho_affine))
    return _check_each_update("vng-contraction", norms[1:] - (norms[:-1] * factor + 1e-12))


def _vng_monotone(trace: IterateTrace) -> BoundCheck:
    norms = trace.norms
    return _check_each_update("vng-monotone", norms[1:] - norms[:-1] - 1e-12)


def build_run_summary(instance: ProblemInstance, certificate: Certificate | None, trace: IterateTrace) -> RunSummary:
    """Assemble the summary of one run, running every bound check that applies to it.

    The algorithm and the mode are the trace's, the margins the instance's kept margin_report. An instance
    the oracle refuses (an OracleError, such as the negative side's budget past n = 14) gets no oracle and no check.
    """
    try:
        report = margin_report(instance)
    except OracleError:
        report = None
    checks: list[BoundCheck] = []
    if report is not None:
        rho = report.rho_affine
        side = report.side()
        feasible, infeasible = side == 1, side == -1
        if feasible and trace.mode == "primal-feasibility":
            checks.append(_mistake_bound(trace, certificate, report.rho_plus))
        if infeasible and trace.mode == "primal-feasibility":
            # the alternative holds on the dual side: exhaustion is the correct outcome
            wrongly_feasible = certificate is not None and certificate.kind == "primal-feasible"
            checks.append(
                BoundCheck(
                    name="alternative-excludes-feasibility",
                    passed=not wrongly_feasible,
                    violation=float("inf") if wrongly_feasible else 0.0,
                    detail=(
                        f"oracle margin {rho:.4g} < 0: no strictly feasible direction exists, "
                        "so running out of iterations is expected"
                    ),
                )
            )
        if infeasible and trace.algorithm in ("np", "vng"):
            checks.append(_dual_rate(trace))
            checks.append(_dual_witness_distance(instance, trace, abs(report.rho_minus)))
        if feasible and trace.algorithm in ("np", "vng"):
            center = combine(instance, report.witness_weights)  # the enclosing ball's center
            w_star = center / np.linalg.norm(center)
            checks.append(_margin_maximization(trace, report.rho_plus, w_star))
            checks.append(_meb_convergence(trace, report.rho_plus, w_star))
            checks.append(_norm_sandwich(trace, report.rho_plus))
        if trace.algorithm == "vng":
            if infeasible:
                checks.append(_vng_contraction(trace, report.rho_affine))
            checks.append(_vng_monotone(trace))
    return RunSummary(
        instance=instance.name,
        algorithm=trace.algorithm,
        mode=trace.mode,
        iterations=trace.steps,
        termination=trace.termination,
        certificate=certificate,
        oracle=report,
        checks=tuple(checks),
    )
