"""Acceptance suite: every criterion at its stated tolerance, one line each.

Batteries are seeded and exact oracle values come from the enumeration
oracles, so a failure here is a genuine finding about the implementation (or
the bound), never flakiness.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from batteries import (
    infeasible_instances,
    mixed_instances,
    negative_instances,
    positive_instances,
)
from oracles import enumerate_standard_form

from linfeas.algorithms import (
    AlgorithmConfig,
    margin_estimate_np,
    perceptron_classic,
    perceptron_normalized,
    vng,
)
from linfeas.instance import SimplexPoint, combine, ingest
from linfeas.lp import dist_l1_to_polyhedron, solve
from linfeas.margins import (
    margin_grid_estimate,
    margin_report,
    minimum_enclosing_ball,
    representable,
)
from linfeas.theorems import gordan_decide, hoffman_dual, hoffman_primal, hoffman_simplex


@pytest.fixture
def criterion(capfd):
    "Context manager printing one uncaptured pass/fail line per criterion."

    @contextmanager
    def _criterion(number: int, label: str):
        def emit(outcome: str) -> None:
            with capfd.disabled():
                print(f"[acceptance] criterion {number:2d} ({label}): {outcome}", flush=True)

        try:
            yield
        except BaseException:
            emit("FAIL")
            raise
        emit("PASS")

    return _criterion


# ---------------------------------------------------------------------------
# shared batteries (module scope keeps the expensive runs single-shot)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def margin_max_battery():
    "100 feasible instances run to t = 10^4 in margin-maximization mode."
    battery = []
    for inst, meta in positive_instances(100, seed=13_000):
        report = margin_report(inst)
        ball = minimum_enclosing_ball(inst)
        w_star = ball.center / np.linalg.norm(ball.center)
        config = AlgorithmConfig(max_iters=10_000, mode="margin-maximization")
        _, trace = perceptron_normalized(inst, config)
        battery.append((inst, report, w_star, trace))
    return battery


@pytest.fixture(scope="module")
def negative_battery():
    "100 strictly infeasible instances shared by the dual-side criteria."
    return [(inst, margin_report(inst)) for inst, _ in negative_instances(100, seed=14_000)]


def test_criterion_1_gordan_exclusivity(criterion):
    with criterion(1, "alternative exclusivity at margin thresholds"):
        checked = 0
        for inst, meta in mixed_instances(1000, seed=10_000):
            report = margin_report(inst)
            rho = report.rho_affine
            min_image = float(np.linalg.norm(combine(inst, report.witness_weights)))
            cases = [(1, 0.0)]
            for gamma in (0.0, 0.5 * abs(rho), 2.0 * abs(rho)):
                cases.append((2, gamma))
                cases.append((3, gamma))
            for part, gamma in cases:
                pivot = gamma if part in (1, 2) else -gamma
                if abs(rho - pivot) <= 1e-9:
                    continue  # the battery never asks inside the ill-posed band
                verdict = gordan_decide(inst, gamma, part)
                assert verdict.verified, (
                    f"{inst.name} part {part} gamma {gamma}: witness residuals "
                    f"{verdict.residuals}"
                )
                # exclusivity: the exact oracle rules out the flipped claim
                if verdict.alternative_held == "first":
                    if part in (1, 2):
                        assert min_image > gamma + 1e-9
                    else:
                        assert rho > -gamma + 1e-9
                        if gamma == 0.0:
                            assert min_image > 1e-9
                else:
                    assert rho < pivot - 1e-9
                checked += 1
        assert checked >= 6000


def test_criterion_2_mistake_bound(criterion):
    with criterion(2, "feasibility within inverse-squared-margin updates"):
        for inst, meta in positive_instances(200, seed=11_000):
            report = margin_report(inst)
            budget = math.ceil(1.0 / report.rho_plus**2)
            config = AlgorithmConfig(max_iters=budget + 1, mode="primal-feasibility")
            for runner in (perceptron_classic, perceptron_normalized):
                cert, _ = runner(inst, config)
                assert cert is not None and cert.kind == "primal-feasible", (
                    f"{inst.name}: {runner.__name__} missed the update budget {budget}"
                )
                assert cert.iterations <= budget, (
                    f"{inst.name}: {runner.__name__} used {cert.iterations} > {budget}"
                )


def test_criterion_3_dual_certificate_rate(criterion):
    with criterion(3, "iterate norm under eps by ceil(1/eps^2) averaged steps"):
        config = AlgorithmConfig(max_iters=100, mode="margin-maximization")
        for inst, meta in infeasible_instances(200, seed=12_000):
            assert meta["rho_affine"] < 0.0
            _, trace = perceptron_normalized(inst, config)
            for eps in (0.5, 0.2, 0.1):
                t = math.ceil(1.0 / (eps * eps))
                assert trace.norms[t] <= eps, (
                    f"{inst.name}: |w_{t}| = {trace.norms[t]:.6g} > {eps}"
                )


def test_criterion_4_margin_maximization(criterion, margin_max_battery):
    with criterion(4, "margin gap bracketed by direction gap and its rate"):
        for inst, report, w_star, trace in margin_max_battery:
            rho = report.rho_plus
            ts = trace.ts[1:].astype(float)
            directions = trace.iterates[1:] / trace.norms[1:, None]
            gap = np.linalg.norm(directions - w_star[None, :], axis=1)
            lower_excess = (rho - trace.margins[1:]) - gap
            upper_excess = gap - 4.0 / (rho * np.sqrt(ts))
            assert lower_excess.max() <= 1e-7, f"{inst.name}: {lower_excess.max():.3e}"
            assert upper_excess.max() <= 1e-7, f"{inst.name}: {upper_excess.max():.3e}"


def test_criterion_5_meb_convergence_and_sandwich(criterion, margin_max_battery):
    with criterion(5, "center convergence, norm sandwich, and estimate interval"):
        for inst, report, w_star, trace in margin_max_battery:
            rho = report.rho_plus
            ts = trace.ts[1:].astype(float)
            center_gap = np.linalg.norm(trace.iterates[1:] - rho * w_star[None, :], axis=1)
            assert (center_gap - 2.0 / np.sqrt(ts)).max() <= 1e-7, inst.name
            norms = trace.norms[1:]
            assert (rho - norms).max() <= 1e-7, inst.name
            assert (norms - rho - 2.0 / np.sqrt(ts)).max() <= 1e-7, inst.name
        for inst, report, w_star, trace in margin_max_battery:
            for eps in (0.5, 0.1):
                lower, upper = margin_estimate_np(inst, eps)
                assert lower - 1e-9 <= report.rho_plus <= upper + 1e-9, (
                    f"{inst.name}: [{lower}, {upper}] misses {report.rho_plus}"
                )


def test_criterion_6_dual_witness_distance(criterion, negative_battery):
    with criterion(6, "l1 distance of averaged weights to the witness set"):
        config = AlgorithmConfig(max_iters=1000, mode="margin-maximization")
        for inst, report in negative_battery:
            rho = abs(report.rho_minus)
            _, trace = perceptron_normalized(inst, config)
            rows = np.vstack([inst.columns, np.ones(inst.n)])
            rhs = np.concatenate([np.zeros(inst.d), [1.0]])
            for t in (10, 100, 1000):
                dist, _ = dist_l1_to_polyhedron(trace.coefficients[t], rows, rhs)
                bound = 2.0 / (rho * math.sqrt(t))
                assert dist <= bound + 1e-9, (
                    f"{inst.name}: dist at t={t} is {dist:.6g} > {bound:.6g}"
                )


def test_criterion_7_vng_linear_convergence(criterion, negative_battery):
    with criterion(7, "per-step contraction and time to 1e-6"):
        for inst, report in negative_battery:
            rho = abs(report.rho_minus)
            budget = math.ceil(math.log(1e6) / rho**2) + 1
            config = AlgorithmConfig(
                max_iters=budget + 5, mode="dual-certificate", target_eps=1e-6
            )
            cert, trace = vng(inst, config)
            factor = math.sqrt(1.0 - rho * rho)
            steps = trace.norms
            excess = steps[1:] - (steps[:-1] * factor + 1e-12)
            assert excess.max() <= 0.0, f"{inst.name}: contraction broken by {excess.max():.3e}"
            assert cert is not None and cert.kind == "dual-epsilon", inst.name
            assert cert.iterations <= budget, (
                f"{inst.name}: needed {cert.iterations} > {budget} steps"
            )


def test_criterion_8_hoffman_bounds(criterion, negative_battery):
    with criterion(8, "error-bound witnesses feasible and bounds above exact distances"):
        rng = np.random.default_rng(15_000)
        for inst, _ in negative_battery:
            x = rng.uniform(0.0, 2.0, inst.n)
            b = inst.columns @ rng.uniform(0.0, 1.0, inst.n)
            dual = hoffman_dual(inst, b, x)
            assert dual.verified, f"{inst.name}: dual-general {dual.as_dict()}"
            point = SimplexPoint.from_approximate(rng.dirichlet(np.ones(inst.n)))
            simplex = hoffman_simplex(inst, point)
            assert simplex.verified, f"{inst.name}: dual-simplex {simplex.as_dict()}"
        for inst, meta in positive_instances(100, seed=16_000):
            c = rng.standard_normal(inst.n)
            w = rng.standard_normal(inst.d)
            primal = hoffman_primal(inst, c, w)
            assert primal.verified, f"{inst.name}: primal {primal.as_dict()}"

        # worked tight cases: bound equals the exact distance
        segment = ingest([[1.0, 0.0], [-1.0, 0.0]], normalize=False, name="segment")
        tight_dual = hoffman_dual(segment, np.zeros(2), np.array([1.0, 0.0]))
        assert abs(tight_dual.bound_value - 1.0) <= 1e-9
        assert abs(tight_dual.bound_value - tight_dual.exact_distance) <= 1e-9
        axes = ingest([[1.0, 0.0], [0.0, 1.0]], normalize=False, name="axes")
        tight_primal = hoffman_primal(axes, np.ones(2), np.zeros(2))
        assert abs(tight_primal.bound_value - math.sqrt(2.0)) <= 1e-9
        assert abs(tight_primal.bound_value - tight_primal.exact_distance) <= 1e-9


def test_criterion_9_geometry_oracles(criterion, negative_battery):
    with criterion(9, "ball identities, inscribed sampling, grid agreement"):
        for inst, meta in positive_instances(200, seed=17_000):
            ball = minimum_enclosing_ball(inst)
            assert abs(ball.radius**2 + meta["rho_plus"] ** 2 - 1.0) <= 1e-9, inst.name
            gaps = np.linalg.norm(inst.columns - ball.center[:, None], axis=0)
            assert gaps.max() <= ball.radius + 1e-9, inst.name

        rng = np.random.default_rng(18_000)
        for inst, report in negative_battery:
            inradius = abs(report.rho_minus)
            basis = inst.basis
            for _ in range(8):
                z = rng.standard_normal(basis.rank)
                z /= np.linalg.norm(z)
                v = 0.99 * inradius * basis.lift(z)
                assert representable(inst, v[None])[0] is not None, inst.name
            outside = -(1.0 + 1e-3) * inradius * report.witness_direction.vector
            assert representable(inst, outside[None])[0] is None, inst.name

        resolution = 1024
        for rank, count in ((1, 5), (2, 10), (3, 10)):
            for k in range(count):
                local = np.random.default_rng(19_000 + 61 * rank + k)
                n = int(local.integers(max(2, rank), 9))
                flat = local.standard_normal((n, rank))
                flat /= np.linalg.norm(flat, axis=1)[:, None]
                cols = np.zeros((n, max(rank, 2) + 1))
                cols[:, :rank] = flat
                inst = ingest(cols.tolist(), normalize=True)
                assert inst.rank == rank
                exact = margin_report(inst).rho_affine
                grid = margin_grid_estimate(inst, resolution)
                tol = 2.0 * np.pi / resolution
                assert exact - tol <= grid <= exact + 1e-9, (
                    f"rank {rank}: grid {grid:.6g} vs exact {exact:.6g}"
                )


def test_criterion_10_lp_oracle_soundness(criterion):
    with criterion(10, "simplex matches exhaustive vertex enumeration"):
        rng = np.random.default_rng(20_000)
        statuses = {"optimal": 0, "infeasible": 0}
        for trial in range(500):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m + 1, 9))
            if trial % 3 == 0:
                # integer data provokes exact ties, degenerate pivots, and
                # redundant rows far more often than gaussian data
                A = rng.integers(-3, 4, size=(m, n)).astype(float)
                b = rng.integers(-3, 4, size=m).astype(float)
                c = rng.integers(-3, 4, size=n).astype(float)
            else:
                A = rng.standard_normal((m, n))
                b = rng.standard_normal(m)
                c = rng.standard_normal(n)
            # bounding row keeps the region a polytope, so the vertex
            # enumeration oracle is conclusive for both status and optimum
            A_ext = np.vstack([np.hstack([A, np.zeros((m, 1))]), np.ones(n + 1)])
            b_ext = np.concatenate([b, [100.0]])
            c_ext = np.concatenate([c, [0.0]])
            status, value = enumerate_standard_form(A_ext, b_ext, c_ext)
            sol = solve(c_ext, A_ext, b_ext)
            assert sol.status == status
            if status == "optimal":
                assert abs(sol.objective_value - value) <= 1e-8
            statuses[status] += 1
        assert statuses["optimal"] >= 100 and statuses["infeasible"] >= 50
