import json
from pathlib import Path

import numpy as np
import pytest

import linfeas.generators
from linfeas.generators import GenerationError, GeneratorSpec, generate
from linfeas.instance import save_instance
from linfeas.margins import margin_report


def test_planted_positive_meets_target():
    spec = GeneratorSpec("planted-positive", d=2, n=3, target_margin=0.5, seed=7)
    inst, meta = generate(spec)
    assert meta["rho_plus"] >= 0.5 - 1e-9
    assert inst.has_unit_columns()
    assert margin_report(inst).rho_affine == pytest.approx(meta["rho_affine"])


def test_planted_negative_regular_triangle():
    spec = GeneratorSpec("planted-negative", d=2, n=3, target_margin=-0.5, seed=0, jitter=0.0)
    inst, meta = generate(spec)
    angles = np.sort(np.mod(np.degrees(np.arctan2(inst.columns[1], inst.columns[0])), 360.0))
    assert np.allclose(angles, [90.0, 210.0, 330.0], atol=1e-9)
    assert meta["rho_affine"] == pytest.approx(-0.5, abs=1e-9)


def test_planted_negative_with_jitter_keeps_containment():
    spec = GeneratorSpec("planted-negative", d=2, n=6, target_margin=-0.4, seed=3, jitter=0.05)
    inst, meta = generate(spec)
    assert meta["rho_affine"] <= -0.4 + 1e-9


def test_planted_negative_templates_higher_dim():
    cross, meta_cross = generate(
        GeneratorSpec("planted-negative", d=3, n=7, target_margin=-0.5, seed=5)
    )
    assert meta_cross["rho_affine"] <= -0.5 + 1e-9  # cross-polytope reaches 1/sqrt(3)
    simplex, meta_simplex = generate(
        GeneratorSpec("planted-negative", d=3, n=4, target_margin=-0.3, seed=5)
    )
    assert meta_simplex["rho_affine"] <= -0.3 + 1e-9  # regular simplex reaches 1/3


def test_planted_negative_antipodal_pair():
    inst, meta = generate(GeneratorSpec("planted-negative", d=4, n=2, target_margin=-0.9, seed=2))
    assert meta["rho_affine"] == pytest.approx(-1.0, abs=1e-9)
    assert meta["rank"] == 1


def test_planted_negative_template_limits():
    with pytest.raises(GenerationError, match="regular"):
        generate(GeneratorSpec("planted-negative", d=2, n=3, target_margin=-0.9, seed=0))
    with pytest.raises(GenerationError, match="template"):
        generate(GeneratorSpec("planted-negative", d=4, n=5, target_margin=-0.4, seed=0))


def test_rank_deficient_embedding():
    inst, meta = generate(GeneratorSpec("rank-deficient", d=3, n=2, target_margin=-0.9, seed=0))
    assert meta["rank"] == 1
    assert meta["rho_affine"] == pytest.approx(-1.0, abs=1e-9)
    assert meta["rho_classical"] == 0.0


def test_rank_deficient_measures_each_candidate_once_in_its_embedding(tmp_path, monkeypatch):
    # the expected bytes were written when the flat template was measured before its embedding
    measured = []

    def counted(instance, *args, **kwargs):
        measured.append(instance)
        return margin_report(instance, *args, **kwargs)

    monkeypatch.setattr(linfeas.generators, "margin_report", counted)
    cases = json.loads((Path(__file__).parent / "data" / "rank_deficient_generate_seed1.json").read_text())["cases"]
    assert len(cases) == 48 and {c["spec"]["jitter"] for c in cases} == {0.0, 0.04}
    for case in cases:
        measured.clear()
        spec = GeneratorSpec(**case["spec"])
        if "error" in case:
            with pytest.raises(GenerationError) as caught:
                generate(spec)
            assert str(caught.value) == case["error"]
            assert not measured
            continue
        inst, meta = generate(spec)
        assert save_instance(inst, tmp_path / "inst.json", metadata=meta).read_text() == case["file"], spec
        assert all(m.d == spec.d and m.rank == spec.d - 1 for m in measured), spec
        assert measured[-1] is inst
        # each candidate is measured once, and candidates differ in their jitter
        assert len({m.columns.tobytes() for m in measured}) == len(measured), spec
        if spec.jitter == 0.0:
            assert len(measured) == 1, spec


def test_near_ill_posed_uses_small_target():
    inst, meta = generate(GeneratorSpec("near-ill-posed", d=3, n=5, seed=11))
    assert meta["target_margin"] == 1e-4
    assert meta["rho_affine"] >= 1e-4 - 1e-9


def test_generation_reproducible_bytes(tmp_path):
    spec = GeneratorSpec("planted-positive", d=3, n=6, target_margin=0.3, seed=42)
    paths = []
    for run in range(2):
        inst, meta = generate(spec)
        paths.append(save_instance(inst, tmp_path / f"inst{run}.json", metadata=meta))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_rejection_budget_error():
    with pytest.raises(GenerationError, match="lower target_margin"):
        generate(GeneratorSpec("planted-positive", d=8, n=5, target_margin=0.999, seed=0))


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("planted-positive", d=2, n=2, target_margin=1.5)
    with pytest.raises(ValueError):
        GeneratorSpec("planted-negative", d=2, n=3, target_margin=0.5)
    with pytest.raises(ValueError):
        GeneratorSpec("mystery", d=2, n=2)
    with pytest.raises(ValueError):
        GeneratorSpec("planted-positive", d=0, n=2, target_margin=0.5)
