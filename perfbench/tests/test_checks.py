"""Each benchmark check accepts a right output and rejects a deliberately wrong one."""

import math

import numpy as np
import pytest

import checks


def _unit(cols):
    cols = np.asarray(cols, dtype=float)
    return cols / np.linalg.norm(cols, axis=0)


# unit vectors at 90, 210 and 330 degrees: inradius 1/2, nearest facet y = -1/2
TRIANGLE = np.array([[0.0, -math.sqrt(3) / 2, math.sqrt(3) / 2], [1.0, -0.5, -0.5]])
AXES = np.eye(2)  # min-norm point (1/2, 1/2), rho+ = 1/sqrt(2)


def _cap(seed=0, d=5, n=12, cap=0.3):
    rng = np.random.default_rng(seed)
    u = _unit(rng.standard_normal((d, 1)))[:, 0]
    cols = _unit(rng.standard_normal((d, 2000)))
    return cols[:, u @ cols >= cap][:, :n]


def _np_run(cols, steps):
    """Averaged perceptron, lowest index among the most violated columns."""
    w = cols[:, 0].copy()
    chosen, norms = [-1], [np.linalg.norm(w)]
    for t in range(1, steps + 1):
        i = int(np.argmin(w @ cols))
        w = (1.0 - 1.0 / t) * w + (1.0 / t) * cols[:, i]
        chosen.append(i)
        norms.append(np.linalg.norm(w))
    return np.array(chosen), np.array(norms)


# --- references -----------------------------------------------------------------


def test_min_norm_point_on_axes():
    ref = checks.min_norm_point(AXES)
    assert ref.rho_plus == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    np.testing.assert_allclose(ref.weights, [0.5, 0.5], atol=1e-12)


def test_min_norm_point_matches_a_dense_segment_search():
    a, b = _unit(np.array([[1.0, 0.2], [0.3, 1.0]])).T
    ref = checks.min_norm_point(np.column_stack([a, b]))
    ts = np.linspace(0.0, 1.0, 200_001)
    brute = np.linalg.norm(np.outer(ts, a) + np.outer(1 - ts, b), axis=1).min()
    assert ref.rho_plus == pytest.approx(brute, abs=1e-9)


def test_min_norm_point_is_zero_when_the_origin_is_in_the_hull():
    assert checks.min_norm_point(TRIANGLE).rho_plus < 1e-9


def test_inradius_of_known_hulls():
    assert checks.inradius(TRIANGLE) == pytest.approx(0.5, abs=1e-12)
    cross = np.hstack([np.eye(3), -np.eye(3)])
    assert checks.inradius(cross) == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    flat = np.vstack([TRIANGLE, np.zeros((1, 3))])  # rank 2 in R^3
    rotation, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    assert checks.inradius(rotation @ flat) == pytest.approx(0.5, abs=1e-12)


def test_l1_distance_to_the_zero_combination_set():
    eq = np.vstack([TRIANGLE, np.ones((1, 3))])
    # the only simplex point with A p = 0 is uniform; from e_0 that is 4/3 away in l1
    dist = checks.l1_distance(np.array([1.0, 0.0, 0.0]), eq, np.array([0.0, 0.0, 1.0]))
    assert dist == pytest.approx(4 / 3, abs=1e-9)


# --- checks reject wrong outputs ------------------------------------------------


def test_simplex_check():
    assert checks.check_simplex([0.25, 0.75], 2) == []
    assert checks.check_simplex([0.25, 0.76], 2)
    assert checks.check_simplex([-0.1, 1.1], 2)
    assert checks.check_simplex([1.0], 2)


def test_min_norm_witness_rejects_a_weight_moved_off_the_simplex():
    rho = 1 / math.sqrt(2)
    assert checks.check_min_norm_witness(AXES, [0.5, 0.5], rho, rho) == []
    assert checks.check_min_norm_witness(AXES, [0.51, 0.5], rho, rho)


def test_min_norm_witness_rejects_a_point_that_is_not_the_closest():
    cols = _cap()
    ref = checks.min_norm_point(cols)
    assert checks.check_min_norm_witness(cols, ref.weights, ref.rho_plus, ref.rho_plus) == []
    wrong = np.full(cols.shape[1], 1.0 / cols.shape[1])
    norm = float(np.linalg.norm(cols @ wrong))
    assert checks.check_min_norm_witness(cols, wrong, norm, ref.rho_plus)


def test_min_norm_witness_rejects_a_margin_off_the_reference():
    rho = 1 / math.sqrt(2)
    assert checks.check_min_norm_witness(AXES, [0.5, 0.5], rho, rho * 1.01)


def test_infeasible_witness_rejects_an_inradius_scaled_by_1_01():
    w = [0.0, 1.0]
    assert checks.check_infeasible_witness(TRIANGLE, w, -0.5, 0.5) == []
    assert checks.check_infeasible_witness(TRIANGLE, w, -0.5 * 1.01, 0.5)
    assert checks.check_infeasible_witness(TRIANGLE, w, -0.5 * 1.01, 0.5 * 1.01)


def test_infeasible_witness_rejects_a_bad_direction():
    assert checks.check_infeasible_witness(TRIANGLE, [0.0, 1.01], -0.5, 0.5)
    flat = np.vstack([TRIANGLE, np.zeros((1, 3))])
    assert checks.check_infeasible_witness(flat, [0.0, 1.0, 0.0], -0.5, 0.5) == []
    tilted = np.array([0.0, math.cos(0.01), math.sin(0.01)])
    assert checks.check_infeasible_witness(flat, tilted, -0.5 * math.cos(0.01), 0.5)


def test_ball_check_rejects_a_radius_beyond_the_hull():
    rng = np.random.default_rng(0)
    assert checks.check_ball_representable(TRIANGLE, 0.99 * 0.5, 8, rng) == []
    assert checks.check_ball_representable(TRIANGLE, 1.2, 1, rng)


def test_primal_certificate_check():
    rho = 1 / math.sqrt(2)
    assert checks.check_primal_certificate(AXES, [1.0, 1.0], 1, rho) == []
    assert checks.check_primal_certificate(AXES, [1.0, 0.0], None, rho)  # touches a column
    assert checks.check_primal_certificate(AXES, [1.0, 1.0], 4, rho)  # 1/rho^2 = 2, so at most 3


def test_dual_certificate_check():
    third = [1 / 3, 1 / 3, 1 / 3]
    assert checks.check_dual_certificate(TRIANGLE, third, 1e-9) == []
    assert checks.check_dual_certificate(TRIANGLE, [0.5, 0.5, 0.5], 1e-9)
    assert checks.check_dual_certificate(TRIANGLE, [0.4, 0.3, 0.3], 1e-3)


def test_feasible_norm_check():
    t = np.arange(0, 50)
    rho = 0.3
    good = rho + 1.0 / np.sqrt(np.maximum(t, 1))
    assert checks.check_feasible_norms(good, rho) == []
    low = good.copy()
    low[10] = rho - 1e-3
    assert checks.check_feasible_norms(low, rho)
    high = good.copy()
    high[10] = rho + 2.0 / math.sqrt(10) + 1e-3
    assert checks.check_feasible_norms(high, rho)
    assert checks.check_feasible_norms(high, rho, upper=False) == []


def test_np_infeasible_norm_check():
    t = np.arange(1, 30)
    good = np.concatenate([[1.0], 0.9 / np.sqrt(t)])
    assert checks.check_np_infeasible_norms(good) == []
    bad = good.copy()
    bad[5] = 1.0 / math.sqrt(5) + 1e-6
    assert checks.check_np_infeasible_norms(bad)


def test_vng_norm_check():
    norms = 0.5 ** np.arange(10)
    assert checks.check_vng_norms(norms, inradius_lower=0.5) == []
    rising = norms.copy()
    rising[4] = rising[3] * 1.01
    assert checks.check_vng_norms(rising)
    slow = 0.99 ** np.arange(10)  # sqrt(1 - 0.5^2) = 0.866 demands faster contraction
    assert checks.check_vng_norms(slow) == []
    assert checks.check_vng_norms(slow, inradius_lower=0.5)


def test_np_trace_check_rejects_a_flipped_chosen_index():
    cols = _cap(seed=1, cap=0.1)
    chosen, norms = _np_run(cols, 200)
    assert checks.check_np_trace(cols, chosen, norms) == []
    flipped = chosen.copy()
    flipped[37] = (flipped[37] + 1) % cols.shape[1]
    assert checks.check_np_trace(cols, flipped, norms)


def test_np_trace_check_rejects_norms_that_do_not_follow_the_indices():
    chosen, norms = _np_run(TRIANGLE, 100)
    assert checks.check_np_trace(TRIANGLE, chosen, norms) == []
    shifted = norms.copy()
    shifted[50] += 1e-6
    assert checks.check_np_trace(TRIANGLE, chosen, shifted)


def test_hoffman_check_rejects_a_bound_below_the_exact_distance():
    eq = np.vstack([TRIANGLE, np.ones((1, 3))])
    exact = checks.l1_distance(np.array([1.0, 0.0, 0.0]), eq, np.array([0.0, 0.0, 1.0]))
    assert checks.check_hoffman_bound(2.0 / (1.0 + 0.5), exact) == []
    assert checks.check_hoffman_bound(exact - 1e-6, exact)


def test_meb_check():
    rho = 1 / math.sqrt(2)
    center = [0.5, 0.5]
    assert checks.check_meb(AXES, center, rho, rho) == []
    assert checks.check_meb(AXES, center, 0.99 * rho, rho)
    assert checks.check_meb(AXES, [0.5, 0.4], rho, rho)


def test_trace_csv_roundtrip(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,norm_w,margin_t,loss,chosen_index\n0,1,0.5,0,-1\n1,0.25,0.1,0,2\n")
    t, norms, chosen = checks.read_trace_csv(path)
    assert t.tolist() == [0, 1] and norms.tolist() == [1.0, 0.25] and chosen.tolist() == [-1, 2]
