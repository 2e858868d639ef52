import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    angular_margin,
    min_norm_point_enumeration,
    min_norm_point_rational,
    negative_margin_enumeration,
    segment_min_norm,
)

from batteries import mixed_instances, negative_instances, positive_instances

from linfeas.generators import GeneratorSpec, generate
from linfeas.instance import SimplexPoint, combine, ingest
from linfeas.margins import (
    SIDE_TOL,
    ZERO_BAND,
    BudgetExceededError,
    NegativeMarginError,
    margin_grid_estimate,
    margin_report,
    minimum_enclosing_ball,
    positive_margin_exact,
    representable,
)


def test_positive_margin_axes(axes):
    value, point, _ = positive_margin_exact(axes)
    assert value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert np.allclose(point.weights, [0.5, 0.5], atol=1e-12)


def test_positive_margin_on_a_point_and_an_edge():
    # the axes case is test_positive_margin_axes
    value, point, _ = positive_margin_exact(ingest([[1.0, 0.0]], normalize=False))
    assert value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(point.weights, [1.0])

    value, point, _ = positive_margin_exact(ingest([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]], normalize=False))
    assert value == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)
    assert np.allclose(point.weights, [0.5, 0.5], atol=1e-12)


def test_positive_margin_scales_with_the_columns():
    # the least-squares program weighs the columns against a row of ones; the margin must not see their scale
    for inst, _ in positive_instances(10, seed=41):
        value, _, _ = positive_margin_exact(inst)
        for scale in (1e-6, 1e12):
            scaled, _, _ = positive_margin_exact(ingest((scale * inst.columns).T.tolist(), normalize=False))
            assert scaled == pytest.approx(scale * value, rel=1e-12)


def test_zero_margin_reads_zero_at_any_column_scale():
    # zero is judged against the columns' reach: scaled up, no zero-margin instance turns feasible
    zero = [
        inst for inst, _ in negative_instances(100) + mixed_instances(100, seed=42)
        if positive_margin_exact(inst)[0] == 0.0
    ]
    assert len(zero) == 150
    for scale in (1e6, 1e9, 1e12):
        for inst in zero:
            scaled = ingest((scale * inst.columns).T.tolist(), normalize=False, name=inst.name)
            assert positive_margin_exact(scaled)[0] == 0.0
            try:
                report = margin_report(scaled)
            except NegativeMarginError:  # the negative side's tolerances are absolute
                continue
            assert report.rho_plus == 0.0 and report.rho_affine <= ZERO_BAND


def test_positive_margin_origin_in_hull(segment):
    value, point, _ = positive_margin_exact(segment)
    assert value <= 1e-12
    assert np.allclose(point.weights, [0.5, 0.5], atol=1e-12)


def test_positive_margin_sixty_degrees_vs_grid():
    a = np.array([1.0, 0.0])
    b = np.array([np.cos(np.pi / 3.0), np.sin(np.pi / 3.0)])
    inst = ingest([a.tolist(), b.tolist()], normalize=False)
    value, point, _ = positive_margin_exact(inst)
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
    (point,) = representable(segment, np.array([[0.3, 0.0]]))
    assert point is not None
    assert np.allclose(point.weights, [0.65, 0.35], atol=1e-9)
    assert np.allclose(combine(segment, point), [0.3, 0.0], atol=1e-9)


def test_representable_negative_answer(axes):
    assert representable(axes, np.zeros((1, 2)))[0] is None


def test_representable_column_itself(triangle):
    target = triangle.columns[:, 0]
    (point,) = representable(triangle, target[None])
    assert point is not None
    assert np.allclose(combine(triangle, point), target, atol=1e-9)


def test_optimal_face_subproblem_matches_global_margin():
    # the affine least-squares minimizer on the support S of the min-norm
    # point must have nonnegative weights and attain the global margin
    for inst, meta in positive_instances(10, seed=300):
        value, point, _ = positive_margin_exact(inst)
        face = inst.columns[:, np.flatnonzero(point.weights)]
        z = np.linalg.lstsq(face[:, 1:] - face[:, :1], -face[:, 0], rcond=None)[0]
        q = np.concatenate([[1.0 - z.sum()], z])
        assert np.all(q >= -1e-9)
        assert np.linalg.norm(face @ q) == pytest.approx(value, abs=1e-9)


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
            assert representable(inst, v[None])[0] is not None
        outside = -(1.0 + 1e-3) * inradius * report.witness_direction.vector
        assert representable(inst, outside[None])[0] is None


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


def _assert_min_norm_point(inst, reference):
    """positive_margin_exact against a test-side reference, and its witness against optimality."""
    value, point, _ = positive_margin_exact(inst)
    assert abs(value - reference(inst.columns)[0]) <= 1e-9
    weights = point.weights
    assert np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-12
    x = combine(inst, weights)
    assert np.linalg.norm(x) == pytest.approx(value, abs=1e-12)
    assert x @ x - (x @ inst.columns).min() <= 1e-9


def _desk_shapes():
    """One instance of every desk-pipeline shape, d 3-8 by n 10-14, cycling the four kinds."""
    kinds = ("planted-positive", "planted-negative", "near-ill-posed", "rank-deficient")
    for i, (d, n) in enumerate((d, n) for d in range(3, 9) for n in range(10, 15)):
        kind = kinds[i % 4]
        target = {"planted-positive": 0.2, "planted-negative": -0.5 / d, "near-ill-posed": 0.0,
                  "rank-deficient": -0.4 / (d - 1)}[kind]
        yield generate(GeneratorSpec(kind, d, n, target, seed=i, jitter=0.03))[0]


def test_min_norm_point_matches_enumeration():
    rng = np.random.default_rng(31)
    non_unit = [
        ingest((rng.standard_normal((n, d)) * rng.uniform(0.2, 5.0, (n, 1)) + shift).tolist(), normalize=False)
        for d, n, shift in [(2, 5, 0.0), (3, 8, 1.0), (4, 10, 0.5), (5, 11, 2.0), (3, 12, 0.0), (6, 9, 0.3)]
    ]
    batteries = (
        [inst for inst, _ in positive_instances(20, seed=41)]
        + [inst for inst, _ in negative_instances(20, seed=42)]
        + non_unit
        + list(_desk_shapes())
    )
    for inst in batteries:
        _assert_min_norm_point(inst, min_norm_point_enumeration)


@st.composite
def degenerate_columns(draw):
    """Columns with many ties: integer grids, duplicates, near-collinear sets, the origin on the boundary."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 11))
    grid = st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=n, max_size=n)
    family = draw(st.sampled_from(["grid", "duplicates", "near-collinear", "boundary"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "grid":
        cols = np.array(draw(grid), dtype=float)
    elif family == "duplicates":
        base = np.array(draw(grid), dtype=float)[: max(1, n // 3)]
        cols = base[rng.integers(0, len(base), size=n)]
    elif family == "near-collinear":
        direction = rng.standard_normal(d)
        lengths = rng.uniform(0.5, 2.0, n)
        if draw(st.booleans()):  # on both sides of the origin: a sliver around it
            lengths *= rng.choice([-1.0, 1.0], n)
        noise = 10.0 ** draw(st.integers(-7, -1))
        cols = np.outer(lengths, direction) + noise * rng.standard_normal((n, d))
    else:  # the origin on the hull boundary: a segment through it, the rest on one side
        cols = np.array(draw(grid), dtype=float)
        cols[:, -1] = np.abs(cols[:, -1]) + (d > 1)
        axis = np.eye(d)[0]
        cols[0] = axis
        if n > 1:
            cols[1] = -draw(st.integers(1, 3)) * axis
    return cols


@given(cols=degenerate_columns())
@example(cols=np.array([[2.0, -1.0]]))  # n = 1
@example(cols=np.array([[1.0], [-3.0], [0.5]]))  # d = 1
@example(cols=np.array([[0.0, 0.0], [1.0, 0.0]]))  # a zero column: the origin is a vertex
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_min_norm_point_on_degenerate_inputs(cols):
    _assert_min_norm_point(ingest(cols.tolist(), normalize=False), min_norm_point_rational)


def test_min_norm_point_on_slivers_through_the_origin():
    # Near-collinear unit columns on both sides of the origin with noise 1e-7:
    # the hull is a sliver within about 1e-8 of the origin, where double
    # precision alone resolves the distance only to about 1e-8.
    rng = np.random.default_rng(61)
    for _ in range(60):
        d, n = int(rng.integers(2, 6)), int(rng.integers(3, 12))
        lengths = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        cols = np.outer(lengths, rng.standard_normal(d)) + 1e-7 * rng.standard_normal((n, d))
        inst = ingest(cols.tolist(), normalize=True)
        _assert_min_norm_point(inst, min_norm_point_rational)
        exact, _ = min_norm_point_rational(inst.columns)
        assert (margin_report(inst).rho_affine > ZERO_BAND) == (exact > ZERO_BAND)


def test_witness_direction_certifies_rho_plus_on_slivers():
    # drawn like the sliver test above: the direction must attain the reported
    # margin on every column, to within the ill-posed band
    rng = np.random.default_rng(61)
    feasible = 0
    for _ in range(200):
        d, n = int(rng.integers(2, 6)), int(rng.integers(3, 12))
        lengths = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        cols = np.outer(lengths, rng.standard_normal(d)) + 1e-7 * rng.standard_normal((n, d))
        inst = ingest(cols.tolist(), normalize=True)
        report = margin_report(inst)
        if report.rho_plus > ZERO_BAND:
            feasible += 1
            assert (report.witness_direction.vector @ inst.columns).min() >= report.rho_plus - ZERO_BAND
    assert feasible >= 90  # about half the slivers miss the origin


def _report_json(inst) -> str:
    """margin_report as JSON text, or the error it raises."""
    try:
        return json.dumps(margin_report(inst).as_dict(), sort_keys=True)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_matches_the_enumeration(inst) -> bool:
    """The report is byte-identical to the one built on the enumeration of every r-subset; True on the negative side."""
    from_facets = _report_json(inst)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("linfeas.margins._negative_margin_details", negative_margin_enumeration)
        assert _report_json(inst) == from_facets
    return '"method": "enumeration"' in from_facets


def _cross_polytopes_with_extra_columns():
    rng = np.random.default_rng(62)
    for d in range(2, 6):
        for extra in range(0, 14 - 2 * d + 1, 2):
            cols = np.vstack([np.eye(d), -np.eye(d), rng.standard_normal((extra, d))])
            yield ingest(cols.tolist(), normalize=True)


def _scaled_columns():
    # column norms from 1e-3 to 1e3, and whole instances at 1e-3 and 1e3
    rng = np.random.default_rng(63)
    for _ in range(24):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2 * d + 1, 14))
        cols = rng.standard_normal((n, d))
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (n, 1)) if rng.random() < 0.5 else 10.0 ** rng.choice([-3.0, 3.0])
        yield ingest((cols * scale).tolist(), normalize=False)


def _non_simplicial_hulls():
    """Hulls whose facets hold more than r columns: jitter-free cross-polytopes, and integer grids around the origin."""
    rng = np.random.default_rng(65)
    for d in range(2, 8):  # every facet of a cross-polytope ties, so the tie-break decides the winner
        cols = np.vstack([np.eye(d), -np.eye(d)])[rng.permutation(2 * d)]
        yield ingest((cols * rng.choice([1e-3, 1.0, 1e3])).tolist(), normalize=False)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        extra = int(rng.integers(0, 15 - 2 * d))
        cols = np.vstack([np.eye(d), -np.eye(d), rng.integers(-1, 2, (extra, d))])[rng.permutation(2 * d + extra)]
        yield ingest(cols.tolist(), normalize=False)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        yield ingest(rng.integers(-2, 3, (int(rng.integers(d + 2, 15)), d)).tolist(), normalize=False)


def _near_degenerate_hulls():
    """Rows tight to within the polar's tolerance: an integer grid moved by 1e-12, a diamond around a 3e-10 column."""
    grid = np.array([[-1, 1, -1], [-1, 1, 1], [0, 0, 1], [1, 0, 1], [0, -1, 0], [0, 0, 1], [1, -1, 1],
                     [-1, -1, -1], [-1, 0, 0], [1, 0, 0], [-1, 0, 1], [0, 1, 0], [0, -1, 0], [0, 0, -1]], dtype=float)
    diamond = np.array([[0, -1], [1.5e-10, 2.4e-10], [0, 1], [-1, 1], [-1, -1], [-1, 0], [-1, 0], [1, 1], [1, 0]])
    rng = np.random.default_rng(66)
    for _ in range(10):
        yield ingest((grid + 1e-12 * rng.standard_normal(grid.shape)).tolist(), normalize=True)
        yield ingest((diamond + 1e-10 * rng.standard_normal(diamond.shape)).tolist(), normalize=False)


def test_facets_feed_the_judge_every_subset_the_enumeration_keeps():
    # a hull flat to within the side tolerance: the x-axis pair supports the
    # hull only within SIDE_TOL, and is no facet, but the side test keeps it as
    # the nearest supporting hyperplane, so it must reach the judge
    flat = ingest([[-1e-4, 0.0], [1e-4, 0.0], [3e-5, 9e-10], [-3e-5, 9e-10], [1e-5, 9e-10], [0.0, -1.5e-9]],
                  normalize=False)
    batteries = {
        "negative": [inst for inst, _ in negative_instances(40, seed=64)],
        "desk shapes": list(_desk_shapes()),
        "cross-polytopes": list(_cross_polytopes_with_extra_columns()),
        "scaled": list(_scaled_columns()),
        "non-simplicial": list(_non_simplicial_hulls()),
        "near-degenerate": list(_near_degenerate_hulls()),
        "flat": [flat],
    }
    for label, battery in batteries.items():
        negative = sum(_assert_matches_the_enumeration(inst) for inst in battery)
        assert negative >= len(battery) // 3, (label, negative, len(battery))


@given(cols=degenerate_columns())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_facets_match_the_enumeration_on_degenerate_inputs(cols):
    _assert_matches_the_enumeration(ingest(cols.tolist(), normalize=False))


@pytest.mark.parametrize("scale", [1.0, 1e-4])
def test_boundary_pass_on_a_facet_within_side_tol(scale):
    # the diamond with a fifth column half of SIDE_TOL beyond the midpoint of
    # {e1, e2}: that subset still ties for the nearest facet and comes first,
    # but passes the side test only within the tolerance, which is absolute
    lift = 0.5 * SIDE_TOL / np.sqrt(2.0)
    cols = scale * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.5, 0.5]])
    cols[4] += lift
    inst = ingest(cols.tolist(), normalize=False)
    report = margin_report(inst)
    assert report.boundary_pass
    assert report.rho_minus == pytest.approx(-scale / np.sqrt(2.0), abs=1e-12)
    assert np.allclose(-report.witness_direction.vector, np.ones(2) / np.sqrt(2.0), atol=1e-12)
    assert _assert_matches_the_enumeration(inst)


@pytest.mark.parametrize("d", [2, 3])
def test_boundary_pass_ignores_rounding_on_exact_facets(d):
    # the diamond and the 3-D cross-polytope: no column lies beyond any facet, and
    # the SVD normal's rounding alone must not raise the flag
    cols = np.vstack([np.eye(d), -np.eye(d)])
    report = margin_report(ingest(cols.tolist(), normalize=False))
    assert report.rho_minus == pytest.approx(-1.0 / np.sqrt(d), abs=1e-15)
    assert not report.boundary_pass



# --- batched membership queries ----------------------------------------------------


def _membership_queries(inst, rng, report=None) -> np.ndarray:
    """Hull vertices, points inside, points just beyond each column and, on the negative side, ball points; shuffled."""
    cols = inst.columns
    d, n = cols.shape
    centre = cols.mean(axis=1)
    blocks = [cols.T, rng.dirichlet(np.ones(n), 8) @ cols.T, cols.T + 1e-6 * (cols.T - centre)]
    if report is not None and report.rho_affine < -ZERO_BAND:
        inradius = abs(report.rho_minus)
        z = rng.standard_normal((12, inst.basis.rank))
        z /= np.linalg.norm(z, axis=1)[:, None]
        blocks.append(inradius * np.array([0.5, 0.99] * 6)[:, None] * (z @ inst.basis.basis.T))
        blocks.append(-(1.0 + 1e-3) * inradius * report.witness_direction.vector[None])
    points = np.vstack(blocks)
    return points[rng.permutation(len(points))]


def _simplex_alone(inst, v) -> SimplexPoint | None:
    """The phase-1 program of one query, solved on its own; None unless its weights pass the checks."""
    from linfeas.lp import solve

    eq = np.vstack([inst.columns, np.ones((1, inst.n))])
    sol = solve(np.zeros(inst.n), eq, np.append(v, 1.0))
    if sol.status == "infeasible" or sol.x.min() < -1e-9:
        return None
    point = SimplexPoint.from_approximate(sol.x)
    return point if np.linalg.norm(inst.columns @ point.weights - v) <= 1e-9 else None


def _assert_batch_answers(inst, points) -> list:
    """None exactly where the simplex alone finds no checked point; otherwise a basic feasible solution."""
    answers = representable(inst, points)
    assert len(answers) == len(points)
    eq = np.vstack([inst.columns, np.ones((1, inst.n))])
    for k, (v, p) in enumerate(zip(points, answers)):
        assert (p is None) == (_simplex_alone(inst, v) is None), (inst.name, k)
        if p is None:
            continue
        w = p.weights
        assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
        assert np.linalg.norm(inst.columns @ w - v) <= 1e-9
        support = np.flatnonzero(w)
        assert np.linalg.matrix_rank(eq[:, support]) == support.size, (inst.name, k)
    # the first row always runs the simplex, so it gets the one-row answer byte for byte
    (first,) = representable(inst, points[:1])
    assert (answers[0] is None) == (first is None)
    if first is not None:
        assert answers[0].weights.tobytes() == first.weights.tobytes()
    return answers


def _certify_lp_instances():
    """Planted instances at the certify-lp shapes: d 2-4, n 5-9."""
    for d in (2, 3, 4):
        for n in range(d + 2, 10):
            for kind, target in (("planted-negative", -0.5 / d), ("planted-positive", 0.2)):
                yield generate(GeneratorSpec(kind=kind, d=d, n=n, target_margin=target, seed=100 * d + n))[0]


def test_batched_representable_matches_the_simplex_on_batteries():
    rng = np.random.default_rng(71)
    instances = (
        [inst for inst, _ in negative_instances(20, seed=72)]
        + [inst for inst, _ in mixed_instances(24, seed=73)]  # a quarter are rank-deficient
        + list(_certify_lp_instances())
    )
    answered = refused = 0
    for inst in instances:
        answers = _assert_batch_answers(inst, _membership_queries(inst, rng, margin_report(inst)))
        refused += sum(p is None for p in answers)
        answered += sum(p is not None for p in answers)
    assert answered > 1000 and refused > 200  # both answers are exercised


@given(cols=degenerate_columns(), seed=st.integers(0, 2**32 - 1))
@example(cols=np.array([[2.0, -1.0]]), seed=0)  # n = 1
@example(cols=np.array([[1.0], [-3.0], [0.5]]), seed=0)  # d = 1
@example(cols=np.array([[0.0, 0.0], [1.0, 0.0]]), seed=0)  # a zero column
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_batched_representable_on_degenerate_inputs(cols, seed):
    inst = ingest(cols.tolist(), normalize=False)
    _assert_batch_answers(inst, _membership_queries(inst, np.random.default_rng(seed)))


def test_one_row_call_is_the_simplex_alone():
    rng = np.random.default_rng(74)
    for inst, _ in negative_instances(10, seed=75):
        for v in _membership_queries(inst, rng, margin_report(inst)):
            (p,) = representable(inst, v[None])
            alone = _simplex_alone(inst, v)
            assert (p is None) == (alone is None)
            if p is not None:
                assert p.weights.tobytes() == alone.weights.tobytes()


def test_batch_reuses_bases_only_on_full_row_rank(monkeypatch):
    from batteries import infeasible_instances

    import linfeas.margins

    calls = []
    original = linfeas.margins.solve
    monkeypatch.setattr(linfeas.margins, "solve", lambda *program: calls.append(1) or original(*program))
    rng = np.random.default_rng(76)
    runs = {True: 0, False: 0}
    points = {True: 0, False: 0}
    for inst, _ in infeasible_instances(24, seed=77):  # every third is rank-deficient
        inradius = abs(margin_report(inst).rho_minus)
        z = rng.standard_normal((38, inst.basis.rank))
        ball = 0.5 * inradius * (z / np.linalg.norm(z, axis=1)[:, None]) @ inst.basis.basis.T
        calls.clear()
        assert all(p is not None for p in representable(inst, ball))
        full = np.linalg.matrix_rank(np.vstack([inst.columns, np.ones((1, inst.n))])) == inst.d + 1
        runs[full] += len(calls)
        points[full] += len(ball)
        if not full:  # the simplex drops a redundant row, so no basis is square
            assert len(calls) == len(ball)
    assert points[True] and points[False]
    assert runs[True] <= 0.25 * points[True]


def test_representable_refuses_bad_queries(triangle):
    with pytest.raises(ValueError, match="finite"):
        representable(triangle, np.array([[0.0, 0.0], [np.nan, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        representable(triangle, np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        representable(triangle, np.zeros(2))
    assert representable(triangle, np.zeros((0, 2))) == []
