import dataclasses

import numpy as np
import pytest

import linfeas.lp
import linfeas.margins
import linfeas.theorems

from batteries import infeasible_instances, mixed_instances, negative_instances, positive_instances

from linfeas.algorithms import AlgorithmConfig, perceptron_normalized, vng
from linfeas.instance import SimplexPoint, combine, ingest
from linfeas.margins import ZERO_BAND, margin_report
from linfeas.reporting import build_run_summary
from linfeas.theorems import (
    RESIDUAL_TOL,
    IllPosedError,
    InapplicableError,
    _span_directions,
    certify_meb,
    certify_radius,
    gordan_decide,
    hoffman_dual,
    hoffman_primal,
    hoffman_simplex,
)


def test_gordan_part1_feasible(axes):
    verdict = gordan_decide(axes, 0.0, 1)
    assert verdict.alternative_held == "first"
    assert verdict.verified
    w = verdict.witness_direction.vector
    assert np.allclose(w, np.ones(2) / np.sqrt(2.0), atol=1e-10)
    assert (w @ axes.columns).min() > 1e-9


def test_gordan_part1_infeasible(segment):
    verdict = gordan_decide(segment, 0.0, 1)
    assert verdict.alternative_held == "second"
    assert verdict.verified
    assert np.allclose(verdict.witness_weights.weights, [0.5, 0.5])
    assert np.linalg.norm(combine(segment, verdict.witness_weights)) <= 1e-9


def test_gordan_part1_rejects_nonzero_gamma(axes):
    with pytest.raises(ValueError, match="gamma = 0"):
        gordan_decide(axes, 0.1, 1)


def test_gordan_part2_both_sides(axes):
    rho = 1.0 / np.sqrt(2.0)
    first = gordan_decide(axes, rho / 2.0, 2)
    assert first.alternative_held == "first" and first.verified
    assert first.min_slack == pytest.approx(rho / 2.0, abs=1e-9)
    second = gordan_decide(axes, 2.0 * rho, 2)
    assert second.alternative_held == "second" and second.verified
    image = np.linalg.norm(combine(axes, second.witness_weights))
    assert image <= 2.0 * rho + 1e-9


def test_gordan_part3_triangle_ball(triangle):
    verdict = gordan_decide(triangle, 0.4, 3)
    assert verdict.alternative_held == "second"
    assert verdict.verified
    assert len(verdict.ball_samples) >= 32
    for v, point in verdict.ball_samples:
        assert np.linalg.norm(combine(triangle, point) - v) <= 1e-9


def test_gordan_part3_first_side(triangle):
    verdict = gordan_decide(triangle, 1.2, 3)  # margin -0.5 > -1.2
    assert verdict.alternative_held == "first"
    assert verdict.verified
    w = verdict.witness_direction.vector
    assert (w @ triangle.columns).min() > -1.2 + 1e-9


def test_gordan_refuses_ill_posed_band(axes, triangle):
    rho = 1.0 / np.sqrt(2.0)
    with pytest.raises(IllPosedError):
        gordan_decide(axes, rho + 1e-12, 2)
    with pytest.raises(IllPosedError):
        gordan_decide(triangle, 0.5, 3)  # -gamma hits the margin exactly


def test_gordan_rejects_negative_gamma(axes):
    with pytest.raises(ValueError):
        gordan_decide(axes, -0.1, 2)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
@pytest.mark.parametrize("part", [2, 3])
def test_gordan_rejects_non_finite_gamma(triangle, gamma, part):
    with pytest.raises(ValueError, match="finite"):
        gordan_decide(triangle, gamma, part)


def test_gordan_gamma_zero_parts_agree():
    for inst, meta in mixed_instances(24, seed=2100):
        report = margin_report(inst)
        if abs(report.rho_affine) <= 1e-9:
            continue
        verdicts = [gordan_decide(inst, 0.0, part) for part in (1, 2, 3)]
        assert len({v.alternative_held for v in verdicts}) == 1
        assert all(v.verified for v in verdicts)


def test_gordan_flip_always_fails():
    # when one side holds, the oracle margin certifies the other side cannot
    for inst, meta in mixed_instances(16, seed=2200):
        report = margin_report(inst)
        if abs(report.rho_affine) <= 1e-9:
            continue
        gamma = 0.5 * abs(report.rho_affine)
        verdict = gordan_decide(inst, gamma, 2)
        min_image = np.linalg.norm(combine(inst, report.witness_weights))
        if verdict.alternative_held == "first":
            # no hull point can reach within gamma of the origin
            assert min_image > gamma + 1e-9
        else:
            # no unit direction can clear gamma
            assert report.rho_affine < gamma - 1e-9


def test_hoffman_dual_tight_example(segment):
    report = hoffman_dual(segment, np.zeros(2), np.array([1.0, 0.0]))
    assert report.bound_value == pytest.approx(1.0, abs=1e-12)
    assert report.exact_distance == pytest.approx(1.0, abs=1e-9)
    assert report.witness_distance == pytest.approx(1.0, abs=1e-9)
    assert report.verified
    assert np.allclose(report.constructed_witness, [1.0, 1.0], atol=1e-9)


def test_hoffman_dual_zero_distance(segment):
    member = np.array([0.4, 0.4])
    report = hoffman_dual(segment, np.zeros(2), member)
    assert report.witness_distance == 0.0
    assert report.exact_distance == 0.0
    assert report.verified


def test_hoffman_dual_triangle_scaled_mass(triangle):
    report = hoffman_dual(triangle, np.zeros(2), np.array([1.0, 0.0, 0.0]))
    assert report.bound_value == pytest.approx(2.0, abs=1e-9)  # unit residual over inradius 1/2
    assert report.exact_distance <= report.bound_value + 1e-9
    assert report.verified


def test_hoffman_dual_inapplicable(axes):
    with pytest.raises(InapplicableError):
        hoffman_dual(axes, np.zeros(2), np.array([1.0, 0.0]))


def test_hoffman_dual_rhs_outside_span(segment):
    with pytest.raises(InapplicableError, match="span"):
        hoffman_dual(segment, np.array([0.0, 1.0]), np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "error, expected, message",
    [
        (ValueError("target polyhedron is empty"), InapplicableError, r"^witness set \{x >= 0 \| Ax = b\} is empty$"),
    ],
)
def test_hoffman_dual_maps_only_an_empty_witness_set_to_inapplicable(triangle, monkeypatch, error, expected, message):
    # under a negative margin the columns' cone is their span, so only rounding in the
    # distance program's phase 1 can find the witness set empty: stand in for it
    def failing(*_args):
        raise error

    monkeypatch.setattr(linfeas.theorems, "dist_l1_to_polyhedron", failing)
    with pytest.raises(expected, match=message):
        hoffman_dual(triangle, np.zeros(2), np.array([1.0, 0.0, 0.0]))


def test_hoffman_simplex_tight_example(segment):
    report = hoffman_simplex(segment, SimplexPoint(np.array([1.0, 0.0])))
    assert report.bound_value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(report.constructed_witness.weights, [0.5, 0.5], atol=1e-9)
    assert report.witness_distance == pytest.approx(1.0, abs=1e-9)
    assert report.relaxed_bound == pytest.approx(2.0, abs=1e-12)
    assert report.verified


def test_hoffman_simplex_zero_distance(segment):
    report = hoffman_simplex(segment, SimplexPoint(np.array([0.5, 0.5])))
    assert report.witness_distance == 0.0
    assert report.exact_distance == 0.0


def test_hoffman_simplex_triangle(triangle):
    report = hoffman_simplex(triangle, SimplexPoint.unit_mass(3, 0))
    assert report.verified
    assert report.exact_distance <= report.bound_value + 1e-9
    assert report.bound_value <= report.relaxed_bound + 1e-12


def test_hoffman_primal_tight_example(axes):
    report = hoffman_primal(axes, np.ones(2), np.zeros(2))
    assert report.bound_value == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert report.exact_distance == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert np.allclose(report.constructed_witness, [1.0, 1.0], atol=1e-9)
    assert report.verified


def test_hoffman_primal_slack_example(axes):
    report = hoffman_primal(axes, np.zeros(2), np.array([-1.0, 0.0]))
    assert report.bound_value == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert report.exact_distance == pytest.approx(1.0, abs=1e-9)
    assert report.verified


def test_hoffman_primal_zero_distance(axes):
    report = hoffman_primal(axes, np.array([0.1, 0.1]), np.ones(2))
    assert report.witness_distance == 0.0


def test_hoffman_primal_inapplicable(segment):
    with pytest.raises(InapplicableError):
        hoffman_primal(segment, np.zeros(2), np.zeros(2))


def test_hoffman_constant_independent_of_rhs(triangle):
    # for a fixed instance the bound over the residual is one constant
    rho = abs(margin_report(triangle).rho_minus)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(0.0, 2.0, 3)
        x_b = rng.uniform(0.0, 2.0, 3)
        b = triangle.columns @ x_b
        residual = np.linalg.norm(triangle.columns @ x - b)
        if residual <= 1e-12:
            continue
        report = hoffman_dual(triangle, b, x)
        assert report.bound_value / residual == pytest.approx(1.0 / rho, rel=1e-12)


def test_hoffman_witnesses_on_batteries():
    for inst, meta in negative_instances(8, seed=2400):
        rng = np.random.default_rng(inst.n)
        x = rng.uniform(0.0, 2.0, inst.n)
        b = inst.columns @ rng.uniform(0.0, 1.0, inst.n)
        dual = hoffman_dual(inst, b, x)
        assert dual.verified
        simplex = hoffman_simplex(inst, SimplexPoint.unit_mass(inst.n, 0))
        assert simplex.verified
    for inst, meta in positive_instances(8, seed=2500):
        rng = np.random.default_rng(inst.n + 1)
        primal = hoffman_primal(inst, rng.standard_normal(inst.n), rng.standard_normal(inst.d))
        assert primal.verified


def test_certify_meb_on_both_sides(axes, triangle):
    verdict = certify_meb(axes)
    assert verdict.verified
    assert verdict.ball.radius == pytest.approx(np.sqrt(0.5))
    assert np.allclose(verdict.ball.center, [0.5, 0.5])
    unit = certify_meb(triangle)  # the origin is in the hull: the unit ball about it
    assert unit.verified and unit.ball.radius == 1.0


def test_certify_meb_and_radius_check_inputs_before_the_oracle(axes, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the oracle ran for an input the statement refuses")

    monkeypatch.setattr(linfeas.theorems, "margin_report", refuse)
    scaled = ingest([[2.0, 0.0], [0.0, 1.0]], normalize=False)
    with pytest.raises(InapplicableError, match="requires unit columns"):
        certify_meb(scaled)
    with pytest.raises(ValueError, match="samples"):
        certify_radius(axes, samples=0)
    monkeypatch.undo()
    with pytest.raises(InapplicableError, match="strictly negative margin"):
        certify_radius(axes)


def test_a_report_at_another_rank_cutoff_is_not_kept(thin_heptagon):
    # at a cutoff of 1e-3 the report sees rank 2 and rho -0.63, while the ball samples and the
    # rank frame read rank 3, where rho is -6.2e-6: a statement that read it would fail its own checks
    assert margin_report(thin_heptagon, rank_tol=1e-3).rank == 2
    kept = margin_report(thin_heptagon)
    assert kept.rank == 3 and kept.rank_tolerance == thin_heptagon.basis.tolerance
    assert certify_radius(thin_heptagon).verified
    verdict = gordan_decide(thin_heptagon, 0.2, 3)
    assert verdict.verified and verdict.margin is kept


def test_the_kept_report_and_its_instance_cannot_be_edited(triangle):
    # an edit of the kept report once made certify_meb verify a rho_plus of 0.1 on these axes, and
    # re-pointed columns read d = 2 beside the rank and rho_plus measured on the old ones
    axes = ingest(np.eye(3).tolist(), normalize=True, name="axes")
    measured = margin_report(axes)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gordan_decide(axes, 0.0, 1).margin.rho_plus = 0.1
    with pytest.raises(dataclasses.FrozenInstanceError):
        margin_report(axes).rho_plus = 0.1
    with pytest.raises(dataclasses.FrozenInstanceError):
        axes.columns = triangle.columns
    assert margin_report(axes) is measured and measured.rho_plus == pytest.approx(1.0 / np.sqrt(3.0))
    assert axes.d == 3 and axes.rank == 3
    verdict = certify_meb(axes)
    assert verdict.verified and verdict.ball.radius == pytest.approx(np.sqrt(2.0 / 3.0))


@pytest.mark.parametrize("field", ["exact_distance", "witness_distance"])
def test_a_hoffman_distance_past_its_bound_is_not_verified(segment, field):
    report = hoffman_dual(segment, np.zeros(2), np.array([1.0, 0.0]))
    assert report.verified
    moved = dataclasses.replace(report, **{field: report.bound_value + 1e-6})
    assert moved.as_dict()["verified"] is False


def test_a_gordan_first_alternative_within_the_tolerance_is_not_verified(axes):
    verdict = gordan_decide(axes, 0.0, 1)
    assert verdict.alternative_held == "first" and verdict.verified
    slack = dataclasses.replace(verdict, residuals=np.full(axes.n, 0.5 * RESIDUAL_TOL))
    assert slack.as_dict()["verified"] is False


@pytest.mark.parametrize("field", ["center_gap", "radius_identity_gap"])
def test_a_ball_with_one_gap_past_the_tolerance_is_not_verified(axes, field):
    verdict = certify_meb(axes)
    assert verdict.verified
    moved = dataclasses.replace(verdict, **{field: 2.0 * RESIDUAL_TOL})
    assert moved.as_dict()["verified"] is False


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["b", "x", "c", "w"])
def test_hoffman_refuses_non_finite_vectors_before_the_oracle(triangle, axes, monkeypatch, name, value):
    # unrefused, a nan in b or x read as an empty witness set, an inf in x ran the simplex to its
    # pivot budget, and a nan in c or w gave verified: False with a nan bound
    def refuse(*_args, **_kwargs):
        raise AssertionError("the oracle ran for a vector the statement refuses")

    monkeypatch.setattr(linfeas.theorems, "margin_report", refuse)
    vectors = {"b": np.zeros(2), "x": np.array([1.0, 0.0, 0.0]), "c": np.ones(2), "w": np.zeros(2)}
    vectors[name][0] = value
    if name in ("b", "x"):
        with pytest.raises(ValueError, match="^b and x must be finite$"):
            hoffman_dual(triangle, vectors["b"], vectors["x"])
    else:
        with pytest.raises(ValueError, match="^c and w must be finite$"):
            hoffman_primal(axes, vectors["c"], vectors["w"])


def test_certify_radius_queries_the_seeded_ball_points(monkeypatch):
    # the points of the per-sample loop radius drew before it shared Gordan part 3's
    # directions, bit for bit, then the point past the nearest facet
    queried = []
    original = linfeas.theorems.representable

    def recorded(instance, points):
        queried.append(np.array(points))
        return original(instance, points)

    monkeypatch.setattr(linfeas.theorems, "representable", recorded)
    checked = 0
    for k, (inst, _) in enumerate(infeasible_instances(12)):
        report = margin_report(inst)
        if report.rho_affine >= -ZERO_BAND:
            continue
        samples, seed = 3 + k, 7 * k
        verdict = certify_radius(inst, sample_seed=seed, samples=samples)
        assert verdict.verified and verdict.interior_samples == samples
        inradius = abs(report.rho_minus)
        rng = np.random.default_rng(seed)
        expected = []
        for _ in range(samples):
            z = rng.standard_normal(inst.basis.rank)
            z /= np.linalg.norm(z)
            expected.append(0.99 * inradius * inst.basis.lift(z))
        expected.append(-(1.0 + 1e-3) * inradius * report.witness_direction.vector)
        assert np.array_equal(queried.pop(), np.array(expected))
        checked += 1
    assert checked >= 10


def test_every_simplex_program_is_posed_in_the_rank_frame(monkeypatch):
    # hull programs have at most rank + 1 rows, and an l1 distance adds n rows for its split
    rows = []

    def spied(solve):
        return lambda objective, eq_matrix, eq_rhs: (rows.append(len(eq_matrix)), solve(objective, eq_matrix, eq_rhs))[1]

    monkeypatch.setattr(linfeas.margins, "solve", spied(linfeas.margins.solve))  # representable
    monkeypatch.setattr(linfeas.lp, "solve", spied(linfeas.lp.solve))  # dist_l1_to_polyhedron
    deficient = 0
    for inst, _ in mixed_instances(24, seed=42) + infeasible_instances(12):
        report = margin_report(inst)
        gamma = 0.5 * abs(report.rho_affine)
        statements = [
            lambda: gordan_decide(inst, 0.0, 1),
            lambda: gordan_decide(inst, gamma, 2),
            lambda: gordan_decide(inst, gamma, 3),
            lambda: certify_meb(inst),
            lambda: certify_radius(inst),
            lambda: hoffman_dual(inst, np.zeros(inst.d), np.eye(inst.n)[0]),
            lambda: hoffman_simplex(inst, SimplexPoint.unit_mass(inst.n, 0)),
            lambda: hoffman_primal(inst, np.ones(inst.n), np.zeros(inst.d)),
        ]
        rows.clear()
        for statement in statements:
            try:
                statement()
            except (IllPosedError, InapplicableError):
                pass
        for name, algorithm in (("np", perceptron_normalized), ("vng", vng)):
            certificate, trace = algorithm(inst, AlgorithmConfig(max_iters=100))
            build_run_summary(inst, report, name, "primal-feasibility", certificate, trace)
        assert max(rows, default=0) <= inst.rank + 1 + inst.n, inst.name
        deficient += inst.rank < inst.d and len(rows) > 0
    assert deficient >= 5


def _span_directions_one_at_a_time(instance, count, seed):
    """The reference: each sample drawn, normed and lifted on its own."""
    basis = instance.basis
    dirs = [basis.basis[:, j] for j in range(basis.rank)] + [-basis.basis[:, j] for j in range(basis.rank)]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        z = rng.standard_normal(basis.rank)
        if (norm := np.linalg.norm(z)) != 0.0:
            dirs.append(basis.lift(z / norm))
    return np.array(dirs)


def test_ball_samples_and_residuals_match_one_sample_at_a_time():
    for inst, _ in mixed_instances(40, seed=42) + negative_instances(20):
        for seed in (0, 7, 1907):
            expected = _span_directions_one_at_a_time(inst, 32, seed)
            assert _span_directions(inst, 32, seed).tobytes() == expected.tobytes(), inst.name
        report = margin_report(inst)
        if report.rho_affine < -ZERO_BAND:
            verdict = gordan_decide(inst, 0.5 * abs(report.rho_minus), 3, sample_seed=7)
            residuals = [np.linalg.norm(combine(inst, p) - v) for v, p in verdict.ball_samples]
            assert verdict.residuals.tobytes() == np.array(residuals).tobytes(), inst.name
