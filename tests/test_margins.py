import numpy as np
import pytest

from oracles import angular_margin, segment_min_norm

from batteries import negative_instances, positive_instances

from linfeas.instance import SimplexPoint, combine, ingest
from linfeas.margins import (
    BudgetExceededError,
    margin_grid_estimate,
    margin_report,
    minimum_enclosing_ball,
    positive_margin_exact,
    representable,
)


def test_positive_margin_axes(axes):
    value, point = positive_margin_exact(axes)
    assert value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert np.allclose(point.weights, [0.5, 0.5], atol=1e-12)


def test_positive_margin_origin_in_hull(segment):
    value, point = positive_margin_exact(segment)
    assert value <= 1e-12
    assert np.allclose(point.weights, [0.5, 0.5], atol=1e-12)


def test_positive_margin_sixty_degrees_vs_grid():
    a = np.array([1.0, 0.0])
    b = np.array([np.cos(np.pi / 3.0), np.sin(np.pi / 3.0)])
    inst = ingest([a.tolist(), b.tolist()], normalize=False)
    value, point = positive_margin_exact(inst)
    grid = segment_min_norm(a, b, step=1e-6)
    assert value == pytest.approx(grid, abs=2e-6)
    assert value == pytest.approx(0.8660254037844386, abs=1e-12)  # frozen from the grid oracle
    assert np.linalg.norm(combine(inst, point)) == pytest.approx(value, abs=1e-12)


def test_positive_margin_budget():
    cols = np.eye(15)[:, :15]
    inst = ingest(cols.T.tolist(), normalize=False)
    with pytest.raises(BudgetExceededError, match="iterative"):
        positive_margin_exact(inst)


def test_negative_margin_segment(segment):
    report = margin_report(segment)
    value, direction = -report.rho_minus, -report.witness_direction.vector  # the facet normal
    assert value == pytest.approx(1.0, abs=1e-12)
    assert abs(abs(direction[0]) - 1.0) <= 1e-12
    assert abs(direction[1]) <= 1e-12


def test_negative_margin_triangle_vs_angular_grid(triangle):
    report = margin_report(triangle)
    value, direction = -report.rho_minus, -report.witness_direction.vector  # the facet normal
    assert value == pytest.approx(0.5, abs=1e-12)
    # independent check: dense sweep of directions in the plane
    grid_sup = angular_margin(triangle.columns)
    assert -value == pytest.approx(grid_sup, abs=1e-8)
    # the minimizing direction supports the hull at distance 1/2
    assert (direction @ triangle.columns).max() == pytest.approx(0.5, abs=1e-12)


def test_margin_report_axes(axes):
    report = margin_report(axes)
    assert report.rho_affine == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert report.rho_classical == report.rho_affine
    assert report.rho_plus == report.rho_affine
    assert report.rho_minus == 0.0
    assert not report.ill_posed
    direction = report.witness_direction.vector
    assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-10)
    assert (direction @ axes.columns).min() == pytest.approx(report.rho_affine, abs=1e-10)


def test_margin_report_segment_rank_rule(segment):
    report = margin_report(segment)
    assert report.rho_affine == pytest.approx(-1.0, abs=1e-12)
    assert report.rho_classical == 0.0  # rank 1 < d = 2 forces the classical value up
    assert report.rho_plus == 0.0
    assert report.rho_minus == pytest.approx(-1.0, abs=1e-12)
    assert report.rank == 1


def test_margin_report_triangle(triangle):
    report = margin_report(triangle)
    assert report.rho_affine == pytest.approx(-0.5, abs=1e-12)
    assert report.rho_classical == report.rho_affine  # full rank keeps them equal
    worst = (report.witness_direction.vector @ triangle.columns).min()
    assert worst == pytest.approx(report.rho_affine, abs=1e-10)


def test_margin_report_boundary_is_flagged_ill_posed():
    # columns {e1, -e1, e2}: the origin sits on the hull boundary
    inst = ingest([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], normalize=False)
    report = margin_report(inst)
    assert abs(report.rho_affine) <= 1e-9
    assert report.ill_posed


def test_rank_raising_column_kills_negative_margin():
    # strictly infeasible pair plus a column with an orthogonal component
    inst = ingest(
        [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1e-3, 0.0]], normalize=True
    )
    report = margin_report(inst)
    assert report.rho_classical == 0.0
    assert report.rho_affine >= -1e-9


def test_negative_margin_tie_break_is_lexicographic():
    # diamond: four facets tie at distance 1/sqrt(2); the first supporting
    # support set in lexicographic order is {0, 2} = {e1, e2}
    diamond = ingest(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], normalize=False
    )
    report = margin_report(diamond)
    value, direction = -report.rho_minus, -report.witness_direction.vector  # the facet normal
    assert value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert np.allclose(direction, np.ones(2) / np.sqrt(2.0), atol=1e-12)


def test_witness_weights_certify_dual_side(triangle):
    report = margin_report(triangle)
    image = combine(triangle, report.witness_weights)
    assert np.linalg.norm(image) <= 1e-9  # hull contains the origin


def test_grid_estimate_rank_two(axes, segment):
    est = margin_grid_estimate(axes, 10_000)
    assert abs(est - 1.0 / np.sqrt(2.0)) <= 1e-3
    est2 = margin_grid_estimate(segment, 10_000)
    assert abs(est2 - (-1.0)) <= 1e-3


def test_grid_estimate_rank_one():
    inst = ingest([[1.0, 0.0]], normalize=False)
    assert margin_grid_estimate(inst, 100) == pytest.approx(1.0, abs=1e-12)


def test_grid_estimate_rank_three_vs_exact():
    rng = np.random.default_rng(2)
    cols = rng.standard_normal((6, 3))
    cols /= np.linalg.norm(cols, axis=1)[:, None]
    inst = ingest(cols.tolist(), normalize=True)
    exact = margin_report(inst).rho_affine
    for resolution in (128, 512):
        grid = margin_grid_estimate(inst, resolution)
        assert grid <= exact + 1e-9
        assert grid >= exact - 2.0 * np.pi / resolution


def test_grid_estimate_rejects_high_rank():
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((8, 4))
    inst = ingest(cols.tolist(), normalize=True)
    with pytest.raises(ValueError, match="rank"):
        margin_grid_estimate(inst, 100)


def test_meb_axes(axes):
    ball = minimum_enclosing_ball(axes)
    assert np.allclose(ball.center, [0.5, 0.5], atol=1e-12)
    assert ball.radius == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    gaps = np.linalg.norm(axes.columns - ball.center[:, None], axis=0)
    assert np.allclose(gaps, ball.radius, atol=1e-12)


def test_meb_degenerates_to_unit_ball(segment):
    ball = minimum_enclosing_ball(segment)
    assert np.allclose(ball.center, 0.0)
    assert ball.radius == 1.0


def test_meb_single_point():
    inst = ingest([[1.0, 0.0]], normalize=False)
    ball = minimum_enclosing_ball(inst)
    assert np.allclose(ball.center, [1.0, 0.0], atol=1e-12)
    assert ball.radius == pytest.approx(0.0, abs=1e-8)


def test_meb_rejects_unnormalized():
    inst = ingest([[2.0, 0.0], [0.0, 1.0]], normalize=False)
    with pytest.raises(ValueError, match="unit columns"):
        minimum_enclosing_ball(inst)


def test_representable_segment(segment):
    point = representable(segment, np.array([0.3, 0.0]))
    assert point is not None
    assert np.allclose(point.weights, [0.65, 0.35], atol=1e-9)
    assert np.allclose(combine(segment, point), [0.3, 0.0], atol=1e-9)


def test_representable_negative_answer(axes):
    assert representable(axes, np.zeros(2)) is None


def test_representable_column_itself(triangle):
    target = triangle.column(0)
    point = representable(triangle, target)
    assert point is not None
    assert np.allclose(combine(triangle, point), target, atol=1e-9)


def test_optimal_face_subproblem_matches_global_margin():
    # when the minimizing support is all of S, the face subproblem and the
    # global enumeration must agree
    from linfeas.lp import min_norm_on_face

    for inst, meta in positive_instances(10, seed=300):
        value, point = positive_margin_exact(inst)
        support = list(point.support)
        face_norm, q = min_norm_on_face(inst.columns[:, support])
        assert np.all(q >= -1e-9)
        assert face_norm == pytest.approx(value, abs=1e-9)


def test_minimax_duality_on_feasible_battery():
    for inst, meta in positive_instances(25, seed=400):
        report = margin_report(inst)
        min_norm = np.linalg.norm(combine(inst, report.witness_weights))
        assert report.rho_affine == pytest.approx(min_norm, abs=1e-8)
        sup_min = (report.witness_direction.vector @ inst.columns).min()
        assert sup_min == pytest.approx(report.rho_affine, abs=1e-8)


def test_radius_property_on_infeasible_battery():
    rng = np.random.default_rng(77)
    for inst, meta in negative_instances(20, seed=500):
        report = margin_report(inst)
        inradius = abs(report.rho_minus)
        basis = inst.basis
        for _ in range(6):
            z = rng.standard_normal(basis.rank)
            z /= np.linalg.norm(z)
            v = 0.99 * inradius * basis.lift(z)
            assert representable(inst, v) is not None
        outside = -(1.0 + 1e-3) * inradius * report.witness_direction.vector
        assert representable(inst, outside) is None


def test_meb_identity_on_feasible_battery():
    for inst, meta in positive_instances(25, seed=600):
        report = margin_report(inst)
        ball = minimum_enclosing_ball(inst)
        assert ball.radius**2 + report.rho_plus**2 == pytest.approx(1.0, abs=1e-9)
        gaps = np.linalg.norm(inst.columns - ball.center[:, None], axis=0)
        assert gaps.max() <= ball.radius + 1e-9


def test_grid_agrees_with_exact_low_rank_battery():
    rng = np.random.default_rng(88)
    resolution = 2048
    for _ in range(10):
        n = int(rng.integers(2, 8))
        cols = rng.standard_normal((n, 2))
        cols /= np.linalg.norm(cols, axis=1)[:, None]
        inst = ingest(cols.tolist(), normalize=True)
        exact = margin_report(inst).rho_affine
        grid = margin_grid_estimate(inst, resolution)
        assert exact - 2.0 * np.pi / resolution <= grid <= exact + 1e-9
