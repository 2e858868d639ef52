"""The exact oracle against references that share no code with it, past the enumeration budget.

The references are perfbench/checks.py's, loaded from that file as it stands: the min-norm point
from scipy's NNLS on the bordered system, confirmed by its optimality condition.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from linfeas.generators import GeneratorSpec, generate
from linfeas.margins import ENUMERATION_BUDGET, margin_report

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_checks", Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
)
checks = sys.modules.setdefault(_SPEC.name, importlib.util.module_from_spec(_SPEC))
_SPEC.loader.exec_module(checks)


@pytest.mark.parametrize("d, n", [(20, 100), (50, 200)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_positive_margin_past_the_budget_matches_scipy_nnls(d, n, seed):
    inst, _ = generate(GeneratorSpec("planted-positive", d, n, 0.1, seed=seed))
    assert n > ENUMERATION_BUDGET
    report = margin_report(inst)
    reference = checks.min_norm_point(inst.columns)
    assert report.method == "min-norm-point" and report.rank == d
    assert abs(report.rho_plus - reference.rho_plus) <= 1e-12
    weights = report.witness_weights.weights
    assert checks.check_min_norm_witness(inst.columns, weights, report.rho_plus, reference.rho_plus) == []
