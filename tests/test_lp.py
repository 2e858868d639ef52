import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batteries import mixed_instances, positive_instances
import oracles
from oracles import (
    enumerate_standard_form,
    halfspace_projection_enumeration,
    least_squares,
    nnls_fresh_factorization,
    simplex_frozen,
)

import linfeas.lp
import linfeas.margins
from linfeas.algorithms import AlgorithmConfig, perceptron_normalized
from linfeas.generators import GeneratorSpec, generate
from linfeas.instance import SimplexPoint, ingest
from linfeas.lp import (
    FEASIBILITY_TOL,
    PIVOT_TOL,
    REDUCED_COST_TOL,
    DegenerateFaceError,
    _nnls,
    dist_l1_to_polyhedron,
    dist_l2_to_halfspaces,
    solve,
)
from linfeas.margins import ZERO_BAND, _rank_frame, margin_report, representable
from linfeas.reporting import build_run_summary
from linfeas.theorems import certify_radius, gordan_decide, hoffman_dual, hoffman_simplex


def _no_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros((0, n)), np.zeros(0)


def test_min_with_lower_bound():
    # min x subject to x >= 3, written x - s = 3 with the surplus s >= 0
    sol = solve(np.array([1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([3.0]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_contradictory_equalities_infeasible():
    sol = solve(np.zeros(1), np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
    assert sol.status == "infeasible"


def test_unbounded_with_ray_certificate():
    assert solve(np.array([-1.0]), *_no_rows(1)).status == "unbounded"


def test_malformed_programs_rejected():
    with pytest.raises(ValueError, match="finite"):
        solve(np.array([1.0, np.inf]), *_no_rows(2))
    with pytest.raises(ValueError, match="finite"):
        solve(np.zeros((1, 2)), *_no_rows(2))
    with pytest.raises(ValueError, match="inconsistent"):
        solve(np.zeros(2), np.zeros((1, 3)), np.zeros(1))
    with pytest.raises(ValueError, match="inconsistent"):
        solve(np.zeros(2), np.zeros((1, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="inconsistent"):
        solve(np.zeros(2), np.zeros(2), np.zeros(1))



@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_equality_blocks_rejected(value):
    # unrefused, a nan right-hand side failed inside the ratio test, an inf one came out optimal
    # with x = [nan, 0], and a nan matrix entry broke the simplex down
    with pytest.raises(ValueError, match="^equality block must have finite entries$"):
        solve(np.zeros(2), np.array([[1.0, 1.0]]), np.array([value]))
    with pytest.raises(ValueError, match="^equality block must have finite entries$"):
        solve(np.zeros(2), np.array([[1.0, value]]), np.array([1.0]))

def test_degenerate_program_terminates():
    # Beale's cycling-prone program under naive pivoting, with a slack column per row
    rows = np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    objective = np.concatenate([[-0.75, 150.0, -0.02, 6.0], np.zeros(3)])
    sol = solve(objective, np.hstack([rows, np.eye(3)]), np.array([0.0, 0.0, 1.0]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)


def test_phase_one_finished_under_blands_rule_is_optimal(monkeypatch):
    # a zero degenerate-pivot threshold hands phase 1 to Bland's rule after its first degenerate pivot
    pivot_loop = linfeas.lp._pivot_loop
    monkeypatch.setattr(
        linfeas.lp, "_pivot_loop", lambda tableau, basis, crow, ncols, _threshold: pivot_loop(tableau, basis, crow, ncols, 0)
    )
    sol = solve(np.zeros(3), np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]), np.array([1.0, 0.0]))
    assert sol.status == "optimal"
    assert np.allclose(sol.x.sum(), 1.0) and sol.x[0] == pytest.approx(sol.x[1], abs=1e-12)


def test_a_column_enters_only_past_the_reduced_cost_tolerance():
    # min -eps x1 on x0 + x1 = 1: phase 1 ends at x0 = 1, where x1's reduced cost is -eps exactly
    assert REDUCED_COST_TOL == 1e-9
    inside = solve(np.array([0.0, -0.5e-9]), np.array([[1.0, 1.0]]), np.array([1.0]))
    outside = solve(np.array([0.0, -2e-9]), np.array([[1.0, 1.0]]), np.array([1.0]))
    assert (inside.status, inside.x.tolist(), inside.basis) == ("optimal", [1.0, 0.0], [0])
    assert (outside.status, outside.x.tolist(), outside.basis) == ("optimal", [0.0, 1.0], [1])


def test_a_pivot_entry_counts_only_past_the_pivot_tolerance():
    # min -x1 on x0 + delta x1 = 1: x1's one entry is delta, so at or below the tolerance nothing bounds x1
    assert PIVOT_TOL == 1e-11
    assert solve(np.array([0.0, -1.0]), np.array([[1.0, 0.5e-11]]), np.array([1.0])).status == "unbounded"
    outside = solve(np.array([0.0, -1.0]), np.array([[1.0, 2e-11]]), np.array([1.0]))
    assert (outside.status, outside.basis) == ("optimal", [1])
    assert outside.x[1] == 1.0 / 2e-11


def test_phase_one_infeasibility_is_real_only_past_the_feasibility_tolerance():
    # x0 + x1 = 1 and x0 + x1 = 1 + eta: phase 1 leaves an infeasibility of eta on the second row
    assert FEASIBILITY_TOL == 1e-9
    rows = np.array([[1.0, 1.0], [1.0, 1.0]])
    inside = solve(np.zeros(2), rows, np.array([1.0, 1.0 + 0.5e-9]))
    assert (inside.status, inside.x.tolist(), inside.basis) == ("optimal", [1.0, 0.0], [0])  # the row is redundant
    assert solve(np.zeros(2), rows, np.array([1.0, 1.0 + 2e-9])).status == "infeasible"


def test_ratios_within_the_tie_tolerance_leave_by_the_smallest_basis_label():
    # x0 + x1 = 1 + tau and x0 + x2 = 1: x0 enters first, with ratios 1 + tau on row 0 (basis label 3) and
    # 1 on row 1 (label 4); a tie, within 1e-12 (1 + 1), is broken by the label, else the smaller ratio leaves
    rows = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    inside = solve(np.zeros(3), rows, np.array([1.0 + 1e-12, 1.0]))
    outside = solve(np.zeros(3), rows, np.array([1.0 + 4e-12, 1.0]))
    assert (inside.status, inside.basis) == ("optimal", [0, 2])
    assert inside.x[0] == 1.0 + 1e-12 and inside.x[1] == 0.0
    assert (outside.status, outside.basis) == ("optimal", [1, 0])
    assert outside.x[0] == 1.0 and outside.x[2] == 0.0


def test_membership_and_l1_distance_run_at_fifty_by_two_hundred():
    # no size budget: a hull program of 51 rows, and a distance program of 251 rows and 600 variables
    rng = np.random.default_rng(200)
    inst = ingest(rng.standard_normal((200, 50)).tolist(), normalize=True, name="wide")
    weights = rng.dirichlet(np.ones(inst.n))
    inside = inst.columns @ weights
    outside = 3.0 * inst.columns[:, 0]  # unit columns: the hull lies in the unit ball
    found, missing = representable(inst, np.vstack([inside, outside]))
    assert found is not None and np.linalg.norm(inst.columns @ found.weights - inside) <= 1e-9
    assert missing is None
    eq, rhs = _rank_frame(inst, inside[None])
    x0 = np.eye(inst.n)[0]
    distance, nearest = dist_l1_to_polyhedron(x0, eq, rhs[0])
    assert np.abs(eq @ nearest - rhs[0]).max() <= 1e-9 and nearest.min() >= -1e-9
    assert distance == pytest.approx(np.abs(nearest - x0).sum(), abs=1e-9)


def _posed_programs(monkeypatch) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every (objective, matrix, rhs) that representable, hoffman_dual, hoffman_simplex and the run replay pose
    on the certify benchmark's shapes and on mixed_instances(60, seed=42)."""
    posed = []
    original = linfeas.lp.solve

    def recording(objective, eq_matrix, eq_rhs):
        posed.append(tuple(np.array(v, dtype=float) for v in (objective, eq_matrix, eq_rhs)))
        return original(objective, eq_matrix, eq_rhs)

    monkeypatch.setattr(linfeas.lp, "solve", recording)  # dist_l1_to_polyhedron's
    monkeypatch.setattr(linfeas.margins, "solve", recording)  # representable's
    shapes = [(d, n) for d in (2, 3, 4) for n in range(5, 10) if n > d + 1]
    instances = [
        generate(GeneratorSpec(kind=kind, d=d, n=n, target_margin=target, seed=2400 + idx))[0]
        for idx, (d, n) in enumerate(shapes)
        for kind, target in (("planted-negative", -0.5 / d), ("planted-positive", 0.2))
    ]
    instances += [inst for inst, _ in mixed_instances(60, seed=42)]
    for inst in instances:
        report = margin_report(inst)
        if report.rho_affine >= -ZERO_BAND:
            continue  # the l1 and membership statements below hold only on the negative side
        gordan_decide(inst, abs(report.rho_minus) / 2.0, 3)
        certify_radius(inst)
        hoffman_dual(inst, np.zeros(inst.d), np.eye(inst.n)[0])
        hoffman_simplex(inst, SimplexPoint.unit_mass(inst.n, 0))
        certificate, trace = perceptron_normalized(inst, AlgorithmConfig(max_iters=150, mode="dual-certificate"))
        build_run_summary(inst, certificate, trace)
    monkeypatch.undo()
    return posed


def _assert_matches_the_frozen_simplex(objective, eq_matrix, eq_rhs) -> str:
    sol = solve(objective, eq_matrix, eq_rhs)
    status, x, value, basis = simplex_frozen(objective, eq_matrix, eq_rhs)
    assert (sol.status, sol.basis) == (status, basis)
    assert (None if sol.x is None else sol.x.tobytes()) == (None if x is None else x.tobytes())
    assert sol.objective_value == value
    return status


def test_simplex_matches_its_frozen_reference_byte_for_byte(monkeypatch):
    posed = _posed_programs(monkeypatch)
    statuses = [_assert_matches_the_frozen_simplex(*program) for program in posed]
    zero = [not objective.any() for objective, _, _ in posed]
    assert len(posed) >= 500 and 0 < sum(zero) < len(posed)  # membership programs, and l1 distance programs
    assert {"optimal", "infeasible"} <= set(statuses)
    assert any((rhs < 0.0).any() for _, _, rhs in posed)
    rows = [  # b < 0 rows, a redundant row, an infeasible program and an unbounded one
        (np.array([1.0, 2.0, 0.0]), np.array([[1.0, -1.0, 0.0], [-1.0, 0.0, 1.0]]), np.array([-2.0, -1.0])),
        (np.array([1.0, 1.0, 0.5]), np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 0.0, -1.0]]),
         np.array([1.0, 2.0, 0.25])),
        (np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0])),
        (np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([1.0])),
    ]
    assert [_assert_matches_the_frozen_simplex(*program) for program in rows] == [
        "optimal", "optimal", "infeasible", "unbounded"
    ]
    assert len(solve(*rows[1]).basis) == 2  # the redundant row was dropped

    def bland_at_once(pivot_loop):
        return lambda tableau, basis, crow, ncols, _threshold: pivot_loop(tableau, basis, crow, ncols, 0)

    # Bland's rule from the first degenerate pivot on, in both simplexes, on Beale's program and the posed ones
    for module in (linfeas.lp, oracles):
        monkeypatch.setattr(module, "_pivot_loop", bland_at_once(module._pivot_loop))
    beale = np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]])
    objective = np.concatenate([[-0.75, 150.0, -0.02, 6.0], np.zeros(3)])
    status = _assert_matches_the_frozen_simplex(objective, np.hstack([beale, np.eye(3)]), np.array([0.0, 0.0, 1.0]))
    assert status == "optimal"
    for program in posed[::7]:
        _assert_matches_the_frozen_simplex(*program)


def test_optimal_solutions_satisfy_constraints():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        A = rng.standard_normal((m, n))
        x_feas = rng.uniform(0.0, 1.0, n)
        b = A @ x_feas
        c = rng.standard_normal(n)
        # the cap sum(x) <= 50 with its slack column keeps the program bounded
        A_ext = np.vstack([np.hstack([A, np.zeros((m, 1))]), np.ones(n + 1)])
        sol = solve(np.append(c, 0.0), A_ext, np.append(b, 50.0))
        assert sol.status == "optimal"
        assert np.max(np.abs(A @ sol.x[:n] - b)) <= FEASIBILITY_TOL * 10
        assert sol.x.min() >= -FEASIBILITY_TOL


def test_random_battery_matches_enumeration():
    # smaller sibling of the acceptance battery for fast iteration
    rng = np.random.default_rng(3)
    for trial in range(120):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 8))
        if trial % 3 == 0:
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
            b = rng.integers(-3, 4, size=m).astype(float)
            c = rng.integers(-3, 4, size=n).astype(float)
        else:
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            c = rng.standard_normal(n)
        # bounding row keeps the region a polytope so enumeration is conclusive
        A_ext = np.vstack([np.hstack([A, np.zeros((m, 1))]), np.ones(n + 1)])
        b_ext = np.concatenate([b, [100.0]])
        c_ext = np.concatenate([c, [0.0]])
        status, value = enumerate_standard_form(A_ext, b_ext, c_ext)
        sol = solve(c_ext, A_ext, b_ext)
        assert sol.status == status
        if status == "optimal":
            assert sol.objective_value == pytest.approx(value, abs=1e-8)


def test_dist_l1_already_inside(segment):
    dist, nearest = dist_l1_to_polyhedron(np.array([0.5, 0.5]), segment.columns, np.zeros(2))
    assert dist == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(nearest, [0.5, 0.5], atol=1e-9)


def test_dist_l1_segment_example(segment):
    dist, nearest = dist_l1_to_polyhedron(np.array([1.0, 0.0]), segment.columns, np.zeros(2))
    assert dist == pytest.approx(1.0, abs=1e-9)
    assert nearest[0] == pytest.approx(nearest[1], abs=1e-9)


def test_dist_l1_simplex_constrained(segment):
    rows = np.vstack([segment.columns, np.ones(2)])
    rhs = np.array([0.0, 0.0, 1.0])
    dist, nearest = dist_l1_to_polyhedron(np.array([1.0, 0.0]), rows, rhs)
    assert dist == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(nearest, [0.5, 0.5], atol=1e-9)


def test_dist_l1_output_point_lies_in_target():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        A = rng.standard_normal((m, n))
        b = A @ rng.uniform(0.0, 1.0, n)
        x0 = rng.uniform(-1.0, 2.0, n)
        dist, nearest = dist_l1_to_polyhedron(x0, A, b)
        assert np.max(np.abs(A @ nearest - b)) <= 1e-9
        assert nearest.min() >= -1e-9
        assert np.abs(nearest - x0).sum() == pytest.approx(dist, abs=1e-8)


def test_dist_l1_empty_target():
    with pytest.raises(ValueError, match="empty"):
        dist_l1_to_polyhedron(np.zeros(1), np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))


def test_least_squares_degenerate():
    with pytest.raises(DegenerateFaceError):
        least_squares(np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]), np.ones(3))  # duplicate columns


def test_nnls_returns_support_weights_and_residual():
    # the least-distance systems that dist_l2_to_halfspaces builds for its examples
    for point, normals, offsets in [
        (np.zeros(2), np.eye(2), np.ones(2)),
        (np.array([2.0, 3.0]), np.eye(2), np.ones(2)),
        (np.zeros(2), np.array([[3.0 / 5.0], [4.0 / 5.0]]), np.array([2.0])),
    ]:
        matrix = np.vstack([normals, offsets - normals.T @ point])
        target = np.zeros(3)
        target[2] = 1.0
        support, weights, residual = _nnls(matrix, target)
        assert len(weights) == len(support)
        assert np.all(weights > 0.0)
        assert np.max(np.abs(matrix[:, support] @ weights - target - residual)) <= 1e-12


def test_nnls_stops_once_the_target_is_met():
    # columns 0 and 5 are antipodal to double rounding, so the row of ones meets the
    # target at u = (1/2, 1/2); further columns would only trim a residual of 7e-17
    inst = generate(GeneratorSpec("rank-deficient", 3, 10, -0.2, seed=1))[0]
    system = np.vstack([inst.columns, np.ones((1, inst.n))]).astype(np.longdouble)
    target = np.array([0.0, 0.0, 0.0, 1.0], dtype=np.longdouble)
    support, weights, residual = _nnls(system, target)
    assert support == [0, 5]
    assert np.allclose(weights.astype(float), [0.5, 0.5], atol=1e-12)
    assert np.sqrt(residual @ residual) <= 1e-12


def _value_bytes(a: np.ndarray) -> bytes:
    """The bytes that hold a's values: x87 extended precision pads its 10 bytes to 12 or 16."""
    width = 10 if a.dtype == np.longdouble and np.finfo(np.longdouble).nmant == 63 else a.itemsize
    return np.ascontiguousarray(a).view(np.uint8).reshape(-1, a.itemsize)[:, :width].tobytes()


def test_nnls_reusing_its_factor_matches_a_fresh_factorization_byte_for_byte(monkeypatch):
    asked = []  # (factor, support) of every solve, to show that prefixes are kept and cut
    solve = linfeas.lp._HouseholderQR.solve
    monkeypatch.setattr(linfeas.lp._HouseholderQR, "solve", lambda qr, s: (asked.append((qr, list(s))), solve(qr, s))[1])
    systems = []
    for inst, _ in positive_instances(40, seed=1800, d_max=8, n_max=14) + mixed_instances(40, seed=1900):
        for dtype in (np.float64, np.longdouble):  # the ρ⁺ program, as margins builds it, in both precisions
            cols = inst.columns.astype(dtype)
            shift = np.frexp(np.sqrt((cols * cols).sum(axis=0)).max() * np.sqrt(2.0))[1] - 1
            system = np.vstack([np.ldexp(cols, -shift), np.ones((1, inst.n), dtype=dtype)])
            target = np.zeros(inst.d + 1, dtype=dtype)
            target[-1] = 1.0
            systems.append((system, target))
    rng = np.random.default_rng(1950)
    for _ in range(40):  # least-distance systems, as dist_l2_to_halfspaces builds them
        d, m = int(rng.integers(2, 7)), int(rng.integers(1, 12))
        normals = rng.standard_normal((d, m))
        target = np.zeros(d + 1)
        target[d] = 1.0
        systems.append((np.vstack([normals, rng.standard_normal(m)]), target))
    for system, target in systems:
        support, weights, residual = _nnls(system, target)
        want_support, want_weights, want_residual = nnls_fresh_factorization(system, target)
        assert support == want_support
        assert (weights.dtype, residual.dtype) == (want_weights.dtype, want_residual.dtype)
        assert _value_bytes(weights) == _value_bytes(want_weights)
        assert _value_bytes(residual) == _value_bytes(want_residual)
    pairs = [(a, b) for (qa, a), (qb, b) in zip(asked, asked[1:]) if qa is qb]  # consecutive solves on one factor
    extended = sum(b[: len(a)] == a for a, b in pairs)
    cut = sum(b[: len(a)] != a for a, b in pairs)
    assert extended >= 400 and cut >= 50  # factors were extended and cut back, not only built afresh


def test_dist_l2_to_halfspaces_examples():
    # quadrant corner: distance from the origin to {y >= (1, 1)}
    dist, point = dist_l2_to_halfspaces(np.zeros(2), np.eye(2), np.ones(2))
    assert dist == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert np.allclose(point, [1.0, 1.0], atol=1e-9)

    # already feasible
    dist, point = dist_l2_to_halfspaces(np.array([2.0, 3.0]), np.eye(2), np.ones(2))
    assert dist == 0.0

    # single halfplane: plain point-to-line distance
    normal = np.array([[3.0 / 5.0], [4.0 / 5.0]])
    dist, point = dist_l2_to_halfspaces(np.zeros(2), normal, np.array([2.0]))
    assert dist == pytest.approx(2.0, abs=1e-9)


def test_dist_l2_matches_grid_oracle():
    from oracles import halfplane_projection_grid

    rng = np.random.default_rng(21)
    for _ in range(10):
        normals = rng.standard_normal((2, 4))
        normals /= np.linalg.norm(normals, axis=0)
        offsets = rng.uniform(-1.0, 0.5, 4)
        point = rng.standard_normal(2)
        grid = halfplane_projection_grid(point, normals, offsets)
        if not np.isfinite(grid):
            continue
        exact, _ = dist_l2_to_halfspaces(point, normals, offsets)
        # grid pitch bounds the oracle error from above
        assert exact <= grid + 1e-9
        assert grid <= exact + 0.02


def _assert_projection_matches_enumeration(point, normals, offsets):
    """Same empty/non-empty status as the enumeration, and the distance to 1e-9 of max(1, dist)."""
    try:
        expected, _ = halfspace_projection_enumeration(point, normals, offsets)
    except ValueError:
        with pytest.raises(ValueError):
            dist_l2_to_halfspaces(point, normals, offsets)
        return False
    dist, nearest = dist_l2_to_halfspaces(point, normals, offsets)
    assert dist == pytest.approx(expected, abs=1e-9 * max(1.0, expected))
    assert dist == pytest.approx(np.linalg.norm(nearest - point), abs=1e-12 * max(1.0, dist))
    assert (normals.T @ nearest - offsets).min() >= -1e-9
    return True


def test_dist_l2_matches_the_enumeration_on_positive_instances():
    rng = np.random.default_rng(31)
    for inst, _ in positive_instances(30, seed=3100, d_max=6, n_max=12):
        for _ in range(3):
            c = rng.standard_normal(inst.n)
            w = rng.standard_normal(inst.d)
            _assert_projection_matches_enumeration(w, inst.columns, c)


def test_dist_l2_matches_the_enumeration_on_gaussian_systems():
    rng = np.random.default_rng(32)
    outcomes = []
    for _ in range(150):
        d, m = int(rng.integers(1, 9)), int(rng.integers(1, 15))
        normals = rng.standard_normal((d, m))
        outcomes.append(
            _assert_projection_matches_enumeration(rng.standard_normal(d), normals, rng.standard_normal(m))
        )
    assert 0 < sum(outcomes) < len(outcomes)  # both statuses occur


@st.composite
def integer_halfspace_systems(draw):
    """Small integer systems with zero normals, duplicates and parallel pairs that meet nowhere."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 7))
    entries = st.integers(-2, 2).map(float)
    normals = np.array(draw(st.lists(entries, min_size=d * m, max_size=d * m))).reshape(d, m)
    offsets = np.array(draw(st.lists(entries, min_size=m, max_size=m)))
    point = np.array(draw(st.lists(entries, min_size=d, max_size=d)))
    extra = draw(st.sampled_from(["none", "duplicate", "empty pair", "zero"]))
    j = draw(st.integers(0, m - 1))
    if extra == "duplicate":
        normals, offsets = np.column_stack([normals, normals[:, j]]), np.append(offsets, offsets[j])
    elif extra == "empty pair":  # a . y >= o_j and -a . y >= 1 - o_j cannot both hold
        normals, offsets = np.column_stack([normals, -normals[:, j]]), np.append(offsets, 1.0 - offsets[j])
    elif extra == "zero":
        normals, offsets = np.column_stack([normals, np.zeros(d)]), np.append(offsets, draw(entries))
    return point, normals, offsets


@given(system=integer_halfspace_systems())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_dist_l2_matches_the_enumeration_on_integer_grids(system):
    _assert_projection_matches_enumeration(*system)


def _near_ill_posed(rng, d: int, n: int, rho: float):
    """Unit columns rho u + sqrt(1 - rho^2) v_i with the origin in the hull of the unit v_i ⊥ u: rho+ = rho."""
    frame, _ = np.linalg.qr(rng.standard_normal((d, d)))
    spread = frame[:, 1:] @ rng.standard_normal((d - 1, n))
    spread[:, -1] = -spread[:, :-1].sum(axis=1)
    spread /= np.linalg.norm(spread, axis=0)
    return ingest((rho * frame[:, :1] + np.sqrt(1.0 - rho * rho) * spread).T.tolist(), normalize=True)


def test_dist_l2_from_the_origin_is_the_inverse_positive_margin():
    # w = 0, c = 1: the nearest y is x* / ||x*||^2 for the min-norm point x*, so ||y|| = 1 / rho+
    rng = np.random.default_rng(33)
    near_ill_posed = [_near_ill_posed(rng, int(rng.integers(2, 7)), int(rng.integers(3, 13)), rho)
                      for rho in (1e-4, 1e-3) for _ in range(10)]
    for inst in [inst for inst, _ in positive_instances(40, seed=3300)] + near_ill_posed:
        rho_plus = margin_report(inst).rho_plus
        dist, _ = dist_l2_to_halfspaces(np.zeros(inst.d), inst.columns, np.ones(inst.n))
        assert dist == pytest.approx(1.0 / rho_plus, rel=1e-9)


def test_lp_enumerates_no_subsets():
    source = inspect.getsource(linfeas.lp)
    assert "itertools" not in source and "combinations" not in source
