import math
import tracemalloc

import numpy as np
import pytest

from batteries import negative_instances, positive_instances
from oracles import loss, reference_averaged, reference_classic

from linfeas.algorithms import (
    MODES,
    AlgorithmConfig,
    margin_estimate_np,
    perceptron_classic,
    perceptron_normalized,
    vng,
)
from linfeas.instance import SimplexPoint, combine, ingest
from linfeas.margins import margin_report


def primal_cfg(iters=1000):
    return AlgorithmConfig(max_iters=iters, mode="primal-feasibility")


def test_classic_axes_one_update(axes):
    cert, trace = perceptron_classic(axes, primal_cfg())
    assert cert is not None and cert.kind == "primal-feasible"
    assert cert.iterations == 1
    assert np.allclose(trace.iterates[-1], [1.0, 1.0])
    assert trace.chosen[1] == 1  # the mistake was the second column


def test_classic_already_feasible():
    inst = ingest([[1.0, 0.0]], normalize=False)
    cert, trace = perceptron_classic(inst, primal_cfg())
    assert cert.iterations == 0
    assert trace.ts.size == 1


def test_classic_infeasible_exhausts(segment):
    cert, trace = perceptron_classic(segment, primal_cfg(iters=50))
    assert cert is None
    assert trace.termination == "exhausted"
    assert trace.ts[-1] == 50


@pytest.mark.parametrize("solver", [perceptron_classic, perceptron_normalized, vng], ids=["classic", "np", "vng"])
def test_every_solver_rejects_unnormalized(solver):
    inst = ingest([[2.0, 0.0]], normalize=False)
    with pytest.raises(ValueError, match="unit columns"):
        solver(inst, primal_cfg())


def test_np_axes_hand_stepped(axes):
    cert, trace = perceptron_normalized(axes, primal_cfg())
    assert np.allclose(trace.iterates[1], [0.0, 1.0])  # first averaging step keeps only the new column
    assert np.allclose(trace.iterates[2], [0.5, 0.5])
    assert cert is not None and cert.iterations == 2
    normalized_margin = (cert.direction / np.linalg.norm(cert.direction)) @ axes.columns
    assert normalized_margin.min() == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_np_immediately_feasible():
    inst = ingest([[1.0, 0.0]], normalize=False)
    cert, trace = perceptron_normalized(inst, primal_cfg())
    assert cert.iterations == 0


def test_np_dual_certificate_rate(segment):
    cfg = AlgorithmConfig(max_iters=200, mode="dual-certificate", target_eps=0.1)
    cert, trace = perceptron_normalized(segment, cfg)
    assert cert is not None and cert.kind == "dual-epsilon"
    assert cert.iterations <= 100  # guaranteed within 1/eps^2 steps
    assert cert.epsilon <= 0.1
    assert np.max(np.abs(cert.weights.weights - 0.5)) <= 0.05


def test_np_norm_shrinks_like_inverse_sqrt(segment):
    cfg = AlgorithmConfig(max_iters=64, mode="margin-maximization")
    _, trace = perceptron_normalized(segment, cfg)
    ts = trace.ts[1:]
    assert np.all(trace.norms[1:] <= 1.0 / np.sqrt(ts) + 1e-12)


def test_vng_antipodal_one_step(segment):
    cfg = AlgorithmConfig(max_iters=10, mode="dual-certificate", target_eps=1e-6)
    cert, trace = vng(segment, cfg)
    assert cert is not None and cert.iterations == 1
    assert trace.norms[1] == 0.0
    assert np.allclose(cert.weights.weights, [0.5, 0.5])


def test_vng_axes_feasible_then_stalls(axes):
    cert, trace = vng(axes, primal_cfg())
    assert cert is not None and cert.iterations == 1
    assert np.allclose(trace.iterates[1], [0.5, 0.5])

    cfg = AlgorithmConfig(max_iters=50, mode="margin-maximization")
    _, trace2 = vng(axes, cfg)
    assert trace2.termination == "stalled"  # line search clamps at the minimum-norm point
    assert np.allclose(trace2.iterates[-1], [0.5, 0.5])


def test_vng_triangle_contracts_per_step(triangle):
    cfg = AlgorithmConfig(max_iters=100, mode="dual-certificate", target_eps=1e-12)
    _, trace = vng(triangle, cfg)
    factor = np.sqrt(1.0 - 0.25)
    for t in range(1, trace.ts.size):
        assert trace.norms[t] <= trace.norms[t - 1] * factor + 1e-12


def test_vng_norms_never_increase():
    for inst, meta in negative_instances(6, seed=1200) + positive_instances(6, seed=1300):
        cfg = AlgorithmConfig(max_iters=300, mode="margin-maximization")
        _, trace = vng(inst, cfg)
        assert np.all(np.diff(trace.norms) <= 1e-12)


def test_loss_examples(axes):
    assert loss(axes, np.zeros(2)) == 0.0
    assert loss(axes, np.array([0.5, 0.5])) == pytest.approx(-0.25, abs=1e-15)
    single = ingest([[1.0, 0.0]], normalize=False)
    assert loss(single, np.array([1.0, 0.0])) == pytest.approx(-0.5, abs=1e-15)


def test_loss_minimum_matches_margin(axes):
    # the loss floor sits at minus half the squared margin
    report = margin_report(axes)
    floor = -0.5 * report.rho_plus**2
    best = report.rho_plus * report.witness_direction.vector
    assert loss(axes, best) == pytest.approx(floor, abs=1e-12)


def test_trace_losses_are_the_margin_loss_of_each_iterate():
    # the kernel derives the loss column from its running dots; each row must be the loss of its own iterate
    battery = positive_instances(4, seed=2500) + negative_instances(4, seed=2600)
    for inst, _ in battery:
        for runner in (perceptron_classic, perceptron_normalized, vng):
            _, trace = runner(inst, AlgorithmConfig(max_iters=200, mode="margin-maximization"))
            expected = np.array([loss(inst, w) for w in trace.iterates])
            scale = 1.0 + trace.norms * trace.norms
            assert np.all(np.abs(trace.losses - expected) <= 1e-12 * scale), (inst.name, runner.__name__)


def test_margin_estimate_axes(axes):
    lower, upper = margin_estimate_np(axes, 0.2)
    rho = 1.0 / np.sqrt(2.0)
    assert lower <= rho <= upper
    assert upper - lower == pytest.approx(0.2)


def test_margin_estimate_single_column():
    inst = ingest([[1.0, 0.0]], normalize=False)
    lower, upper = margin_estimate_np(inst, 0.5)
    assert lower <= 1.0 <= upper
    assert upper == pytest.approx(1.0, abs=1e-12)


def test_margin_estimate_coarse_eps(axes):
    lower, upper = margin_estimate_np(axes, 2.0)  # a single step still brackets
    assert lower <= 1.0 / np.sqrt(2.0) <= upper


def test_traces_stay_convex_combinations():
    for inst, meta in negative_instances(4, seed=1400) + positive_instances(4, seed=1500):
        for runner in (perceptron_normalized, vng):
            cfg = AlgorithmConfig(max_iters=200, mode="margin-maximization")
            _, trace = runner(inst, cfg)
            for t in range(trace.ts.size):
                alpha = trace.coefficients[t]
                assert alpha.min() >= -1e-12
                assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
                image = combine(inst, alpha)
                assert np.linalg.norm(image - trace.iterates[t]) <= 1e-9
            assert np.all(trace.norms <= 1.0 + 1e-12)


def test_mistake_bound_on_feasible_battery():
    for inst, meta in positive_instances(15, seed=1600):
        report = margin_report(inst)
        budget = math.ceil(1.0 / report.rho_plus**2)
        for runner in (perceptron_classic, perceptron_normalized):
            cert, _ = runner(inst, primal_cfg(iters=budget + 2))
            assert cert is not None, f"{inst.name} missed feasibility within {budget + 2}"
            assert cert.iterations <= budget


def test_trace_csv_round_trip(tmp_path, axes):
    cfg = AlgorithmConfig(max_iters=32, mode="margin-maximization")
    _, trace = perceptron_normalized(axes, cfg)
    path = trace.write_csv(tmp_path / "trace.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,norm_w,margin_t,loss,chosen_index"
    assert len(lines) == trace.ts.size + 1
    t, norm_w, margin_t, loss_v, chosen = lines[3].split(",")
    assert int(t) == 2
    # 17 significant digits round-trip doubles exactly
    assert float(norm_w) == trace.norms[2]
    assert float(margin_t) == trace.margins[2]
    assert float(loss_v) == trace.losses[2]
    assert int(chosen) == trace.chosen[2]


def test_trace_csv_round_trips_every_cell(tmp_path):
    # 17 significant digits give back each double; at 16, some of these hundreds of cells would not
    inst, _ = positive_instances(1, seed=2700)[0]
    _, trace = perceptron_normalized(inst, AlgorithmConfig(max_iters=300, mode="margin-maximization"))
    rows = np.loadtxt(trace.write_csv(tmp_path / "trace.csv"), delimiter=",", skiprows=1)
    for k, name in enumerate(("ts", "norms", "margins", "losses", "chosen")):
        assert rows[:, k].tobytes() == getattr(trace, name).astype(float).tobytes(), name


def test_trace_csv_bytes_match_row_format(tmp_path, segment):
    cfg = AlgorithmConfig(max_iters=32, mode="margin-maximization")
    _, trace = perceptron_normalized(segment, cfg)  # every even step lands on the origin
    assert np.isnan(trace.margins).any()
    expected = "t,norm_w,margin_t,loss,chosen_index\n" + "".join(
        f"{int(trace.ts[i])},{trace.norms[i]:.17g},{trace.margins[i]:.17g},"
        f"{trace.losses[i]:.17g},{int(trace.chosen[i])}\n"
        for i in range(trace.ts.size)
    )
    assert trace.write_csv(tmp_path / "trace.csv").read_bytes() == expected.encode()


def _check_trace_against_columns(inst, trace):
    """Recompute every recorded row and every choice directly from the columns."""
    cols = inst.columns
    for t in range(trace.ts.size):
        w = trace.iterates[t]
        assert abs(trace.norms[t] - np.linalg.norm(w)) <= 1e-12
        assert np.abs(cols @ trace.coefficients[t] - w).max() <= 1e-9
        if t == 0:
            continue
        previous = trace.iterates[t - 1]
        dots = previous @ cols
        i = trace.chosen[t]
        if trace.algorithm == "classic":  # the lowest-index mistake
            assert dots[i] <= 1e-12
            assert dots[:i].min(initial=np.inf) > -1e-12
        elif trace.algorithm == "np":  # a most violated column
            assert dots[i] <= dots.min() + 1e-12
        else:  # a furthest column
            dist_sq = np.sum((previous[:, None] - cols) ** 2, axis=0)
            assert dist_sq[i] >= dist_sq.max() - 1e-12


def test_kernel_cross_checked_against_direct_products():
    rng = np.random.default_rng(1900)
    large = ingest(rng.standard_normal((200, 50)).tolist(), name="d50n200")
    cases = negative_instances(6, seed=1700) + positive_instances(6, seed=1800)
    for inst, iters in [(inst, 200) for inst, _ in cases] + [(large, 300)]:
        cfg = AlgorithmConfig(max_iters=iters, mode="margin-maximization")
        for runner in (perceptron_classic, perceptron_normalized, vng):
            _, trace = runner(inst, cfg)
            _check_trace_against_columns(inst, trace)


def test_vng_stalls_on_reaching_the_optimum_in_one_step():
    # a0, a1 orthonormal, the other columns beyond the midpoint of the segment
    # [a0, a1]: the first step lands on the minimum-norm point (a0 + a1) / 2
    for seed in range(20):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
        a0, a1, a2, a3 = q.T
        inst = ingest([a0, a1, a0 + a1, a0 + a1 + 0.5 * a2, a0 + a1 - 0.5 * a2 + 0.2 * a3])
        _, trace = vng(inst, AlgorithmConfig(max_iters=1000, mode="margin-maximization"))
        assert trace.termination == "stalled"
        assert trace.steps == 1
        assert trace.norms[1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        AlgorithmConfig(max_iters=0)
    with pytest.raises(ValueError):
        AlgorithmConfig(target_eps=-1.0)
    with pytest.raises(ValueError):
        AlgorithmConfig(mode="warp")


def test_config_refuses_nan_target_eps():
    # nan >= 0 is false, so no stop test could ever meet it and the run would exhaust its budget
    with pytest.raises(ValueError, match="target_eps"):
        AlgorithmConfig(target_eps=float("nan"), mode="dual-certificate")


def _stall_instances():
    """The rotated instances of the one-step vng stall test above."""
    out = []
    for seed in range(20):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
        a0, a1, a2, a3 = q.T
        out.append(ingest([a0, a1, a0 + a1, a0 + a1 + 0.5 * a2, a0 + a1 - 0.5 * a2 + 0.2 * a3]))
    return out


def test_kernel_matches_the_per_array_reference_byte_for_byte():
    rng = np.random.default_rng(2200)
    large = ingest(rng.standard_normal((200, 50)).tolist(), name="d50n200")
    battery = [inst for inst, _ in positive_instances(8, seed=2000) + negative_instances(8, seed=2100)]
    cases = [(inst, 300) for inst in battery + _stall_instances()] + [(large, 400)]
    references = {
        perceptron_classic: reference_classic,
        perceptron_normalized: lambda inst, cfg: reference_averaged(inst, cfg, "np"),
        vng: lambda inst, cfg: reference_averaged(inst, cfg, "vng"),
    }
    for inst, iters in cases:
        for mode in MODES:
            cfg = AlgorithmConfig(max_iters=iters, target_eps=0.05, mode=mode)
            for runner, reference in references.items():
                (cert, trace), (ref_cert, ref_trace) = runner(inst, cfg), reference(inst, cfg)
                label = (inst.name, runner.__name__, mode)
                assert (trace.algorithm, trace.mode, trace.termination) == (
                    ref_trace.algorithm, ref_trace.mode, ref_trace.termination
                ), label
                for name in ("ts", "iterates", "coefficients", "norms", "margins", "losses", "chosen"):
                    got, want = getattr(trace, name), getattr(ref_trace, name)
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), (label, name)
                    assert got.tobytes() == want.tobytes(), (label, name)
                assert repr(None if cert is None else cert.as_dict()) == repr(
                    None if ref_cert is None else ref_cert.as_dict()
                ), label


def test_an_iterate_on_the_origin_has_norm_zero_and_no_margin():
    # np steps from a to -a, then averages them to exactly 0
    a = np.random.default_rng(2300).standard_normal(5)
    inst = ingest([a, -a], name="antipodes")
    cfg = AlgorithmConfig(max_iters=4, mode="margin-maximization")
    (_, trace), (_, ref_trace) = perceptron_normalized(inst, cfg), reference_averaged(inst, cfg, "np")
    assert not trace.iterates[2].any()
    assert trace.norms[2] == 0.0 and np.isnan(trace.margins[2])
    for name in ("norms", "margins", "losses"):
        assert getattr(trace, name).tobytes() == getattr(ref_trace, name).tobytes(), name


def test_trace_norms_are_the_per_row_dot_bit_for_bit():
    # the norms come from one row-wise reduction after the loop; it must round like w @ w
    rng = np.random.default_rng(2400)
    inst = ingest(rng.standard_normal((200, 50)).tolist(), name="d50n200")
    _, trace = perceptron_normalized(inst, AlgorithmConfig(max_iters=10_000, mode="margin-maximization"))
    assert trace.steps == 10_000
    expected = np.array([math.sqrt(float(w @ w)) for w in trace.iterates])
    assert trace.norms.tobytes() == expected.tobytes()


def test_a_run_keeps_no_coefficient_rows_until_they_are_read(triangle):
    for runner in (perceptron_classic, perceptron_normalized, vng):
        _, trace = runner(triangle, AlgorithmConfig(max_iters=50, mode="margin-maximization"))
        assert "coefficients" not in vars(trace), runner.__name__
        trace.coefficients
        assert "coefficients" in vars(trace), runner.__name__


def test_trace_memory_is_the_w_rows_and_not_the_coefficients():
    # a trace holds the d-wide w rows; the (T + 1) x n coefficient rows are replayed on read, not held
    rng = np.random.default_rng(2400)
    inst = ingest(rng.standard_normal((200, 50)).tolist(), name="d50n200")
    inst.gram  # cached on the instance before the measurement, as every later call finds it
    steps, d, n = 10_000, inst.d, inst.n
    table = n * (d + n) * 8  # the update table [A' | G]
    slack = 8 * (steps + 1) * 8 + 64 * 1024  # eight per-row scalar arrays (dots, columns, norms, ...) and small objects
    tracemalloc.start()
    try:
        _, trace = perceptron_normalized(inst, AlgorithmConfig(max_iters=steps, mode="margin-maximization"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.steps == steps
    assert peak < (steps + 1) * d * 8 + table + slack, peak
    assert "coefficients" not in vars(trace)


def test_alpha_rows_are_the_coefficient_rows_byte_for_byte():
    cases = [inst for inst, _ in positive_instances(3, seed=2500) + negative_instances(3, seed=2600)]
    picks = ([0], [7, 3, 7], [-1, 0], list(range(0, 120, 11)), [])
    for inst in cases:
        for mode in MODES:
            for runner in (perceptron_classic, perceptron_normalized, vng):
                _, trace = runner(inst, AlgorithmConfig(max_iters=120, target_eps=0.05, mode=mode))
                for rows in picks:
                    rows = [t for t in rows if -trace.ts.size <= t < trace.ts.size]
                    got, want = trace.alpha_rows(rows), trace.coefficients[rows]
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes(), (inst.name, mode, runner.__name__, rows)


def test_a_dual_certificate_weighs_the_columns_by_the_last_coefficient_row():
    # at eps 1e-3 np certifies after 400-1300 updates and vng after 3-375, so the replay covers long runs
    large = ingest(np.random.default_rng(2200).standard_normal((200, 50)).tolist(), name="d50n200")
    for inst in [inst for inst, _ in negative_instances(6, seed=2800)] + [large]:
        for runner in (perceptron_normalized, vng):
            cert, trace = runner(inst, AlgorithmConfig(max_iters=3000, target_eps=1e-3, mode="dual-certificate"))
            assert cert.kind == "dual-epsilon" and cert.iterations == trace.steps, (inst.name, runner.__name__)
            expected = SimplexPoint.from_approximate(trace.coefficients[-1]).weights
            assert cert.weights.weights.tobytes() == expected.tobytes(), (inst.name, runner.__name__)


def test_trace_arrays_are_read_only(triangle):
    _, trace = vng(triangle, AlgorithmConfig(max_iters=20, mode="margin-maximization"))
    with pytest.raises(ValueError):
        trace.iterates[0, 0] = 1.0
    for name in ("ts", "iterates", "norms", "margins", "losses", "chosen", "kept", "coefficients"):
        assert not getattr(trace, name).flags.writeable, name
    assert not trace.alpha_rows([1, 2]).flags.writeable
