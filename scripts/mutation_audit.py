#!/usr/bin/env python3
"""Mutation audit: for each listed mutant of the library, does a test fail?

A mutant is one textual edit of one file under src/linfeas, (file, old, new),
with the test files, or single tests, that should fail under it. For each
mutant the script copies src/, tests/ and scripts/ of this tree into a fresh
temporary directory, applies the edit there and runs the named tests with
``pytest -x``. It prints one line per mutant: killed, with the first test
that failed, or survived. The tree itself is never edited.

    python scripts/mutation_audit.py               # every mutant
    python scripts/mutation_audit.py NAME [NAME]   # the named mutants only

Before any run, each selected mutant's old text must occur exactly once in its
file, or the script stops: an edit that no longer applies is a stale entry,
not a survivor. Exits 1 when a mutant survives or its tests cannot run (a
collection error, say), 0 when every mutant is killed.

The list holds the verdict clauses of the certifiers (a clause dropped or
loosened), the one-ulp and one-digit moves that the byte contracts must catch
(the trace's replay of the coefficient rows among them),
the order of input checks and oracle call, the two shared judgements (the
side of the margin, ``margins._side``, and the per-update rule of the run
replay, ``reporting._check_each_update``), the mode a classic trace records
and the type of an instance file's ``normalize``, the CLI's one exit table,
in ``cli.main``, the one side the enumeration budget bounds (the rank >= 2
subset judge), the refusal ``margin_report`` keeps, the least sample
count ``certify_radius`` takes, the oracle's one unit (the negative
side measures in it and takes its band in it, and the crossover reads only
the shape), the certifiers' use of the same unit (the rank frame, the
membership residual, a Gordan residual and the primal projection), the
verdicts' residual tolerance and the simplex's four tolerances at ten times
their values, and the two in-place updates of the exact kernels that the byte
references must catch (the pivot's reduced-cost row and the reflected slice).
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the tree's root
    old: str
    new: str
    tests: tuple[str, ...]


THEOREMS, MARGINS, CLI = "src/linfeas/theorems.py", "src/linfeas/margins.py", "src/linfeas/cli.py"
LP = "src/linfeas/lp.py"

MUTANTS = (
    # the verdict clauses of the certifiers
    Mutant("radius-interior-at-half", THEOREMS, "inside = 0.99 * inradius", "inside = 0.5 * inradius",
           ("tests/test_theorems.py",)),
    Mutant("radius-beyond-at-1.1", THEOREMS, "beyond = -(1.0 + 1e-3) * inradius", "beyond = -(1.0 + 1e-1) * inradius",
           ("tests/test_theorems.py",)),
    Mutant("radius-ignores-beyond-point", THEOREMS, "    if outside is not None:\n", "    if False:\n",
           ("tests/test_cli.py",)),
    Mutant("hoffman-without-exact-distance", THEOREMS,
           "        ok &= self.exact_distance <= self.bound_value + RESIDUAL_TOL\n", "", ("tests/test_theorems.py",)),
    Mutant("hoffman-without-witness-distance", THEOREMS,
           "        ok &= self.witness_distance <= self.bound_value + RESIDUAL_TOL\n", "", ("tests/test_theorems.py",)),
    Mutant("gordan-first-within-tolerance", THEOREMS, "return self.min_slack > RESIDUAL_TOL",
           "return self.min_slack > -RESIDUAL_TOL", ("tests/test_theorems.py",)),
    Mutant("ball-without-center-gap", THEOREMS,
           "gaps = (self.radius_identity_gap, self.containment_overshoot, self.center_gap)",
           "gaps = (self.radius_identity_gap, self.containment_overshoot)", ("tests/test_theorems.py",)),
    Mutant("ball-without-radius-identity", THEOREMS,
           "gaps = (self.radius_identity_gap, self.containment_overshoot, self.center_gap)",
           "gaps = (self.containment_overshoot, self.center_gap)", ("tests/test_theorems.py",)),
    # moves the byte contracts and the order checks must catch
    Mutant("rho-minus-one-ulp", MARGINS, "    return float(np.ldexp(dists[first], shift)), direction, flagged\n",
           "    return float(np.ldexp(dists[first], shift)) * (1.0 + 2.0**-52), direction, flagged\n",
           ("tests/test_margins.py",)),
    Mutant("pivot-by-reciprocal", LP, "    pivot_row /= pivot_row[col]\n", "    pivot_row *= 1.0 / pivot_row[col]\n",
           ("tests/test_lp.py",)),
    Mutant("pivot-leaves-the-cost-row-out", LP, "    tableau -= column[:, None] * pivot_row",
           "    tableau[:-1] -= column[:-1, None] * pivot_row",
           ("tests/test_lp.py::test_simplex_matches_its_frozen_reference_byte_for_byte",)),
    Mutant("reflect-on-a-copy", LP, "        tail = vector[c:]  # one view", "        tail = vector[c:].copy()  # one view",
           ("tests/test_lp.py::test_nnls_reusing_its_factor_matches_a_fresh_factorization_byte_for_byte",)),
    Mutant("gordan-oracle-before-input-checks", THEOREMS,
           "    if not 0.0 <= gamma < np.inf:\n",
           "    report = margin_report(instance)\n    if not 0.0 <= gamma < np.inf:\n", ("tests/test_cli.py",)),
    Mutant("json-text-without-nonfinite-fallback", "src/linfeas/instance.py",
           '            if "n" in text:\n                raise TypeError\n', "", ("tests/test_instance.py",)),
    Mutant("one-non-simplicial-facet", MARGINS,
           "    for row in {tuple(np.flatnonzero(row)) for row in near[count > r]}:\n",
           "    for row in list({tuple(np.flatnonzero(row)) for row in near[count > r]})[:1]:\n",
           ("tests/test_margins.py",)),
    Mutant("trace-margin-at-16-digits", "src/linfeas/algorithms.py", '"%d,%.17g,%.17g,%.17g,%d\\n"',
           '"%d,%.17g,%.16g,%.17g,%d\\n"', ("tests/test_algorithms.py",)),
    Mutant("np-replay-weight-one-step-late", "src/linfeas/algorithms.py",
           "weights = 1.0 / self.ts[1 : last + 1]", "weights = 1.0 / (self.ts[1 : last + 1] + 1)",
           ("tests/test_algorithms.py::test_kernel_matches_the_per_array_reference_byte_for_byte",)),
    # the shared judgements
    Mutant("side-includes-the-band-edge", MARGINS, "return 1 if gap > ZERO_BAND else -1 if gap < -ZERO_BAND else 0",
           "return 1 if gap >= ZERO_BAND else -1 if gap <= -ZERO_BAND else 0", ("tests/test_margins.py",)),
    Mutant("empty-trace-fails-its-update-checks", "src/linfeas/reporting.py",
           '        return BoundCheck(name, True, 0.0, "no updates recorded")\n',
           '        return BoundCheck(name, False, 0.0, "no updates recorded")\n', ("tests/test_theorems.py",)),
    # what a run records and what an instance file may say
    Mutant("classic-trace-records-the-requested-mode", "src/linfeas/algorithms.py",
           "trace = _freeze(step_rule, mode, n, t + 1, reason, buffers)",
           "trace = _freeze(step_rule, config.mode, n, t + 1, reason, buffers)",
           ("tests/test_cli.py::test_classic_is_judged_by_the_one_mode_it_honours",)),
    Mutant("instance-normalize-by-truth-value", "src/linfeas/instance.py",
           "    if not isinstance(normalize, bool):", "    normalize = bool(normalize)\n    if False:",
           ("tests/test_instance.py::test_payload_refuses_a_mistyped_normalize_or_name",)),
    # the exit table: each error class reaches main, which alone picks its exit code
    Mutant("certificate-construction-exits-3", CLI,
           "        print(str(exc), file=sys.stderr)\n        return EXIT_VIOLATION\n",
           "        print(str(exc), file=sys.stderr)\n        return EXIT_INAPPLICABLE\n", ("tests/test_cli.py",)),
    Mutant("certify-without-oracle-pass-through", CLI, "    except OracleError:  # a ValueError, but main maps it\n        raise\n",
           "", ("tests/test_cli.py",)),
    # the one side the enumeration budget bounds, and the refusal kept like a report
    Mutant("positive-side-checks-the-budget", MARGINS, "    reach, shift = instance.unit\n",
           '    if instance.n > ENUMERATION_BUDGET:\n        raise BudgetExceededError("budget")\n'
           "    reach, shift = instance.unit\n",
           ("tests/test_margins.py::test_positive_margin_budget",)),
    Mutant("rank-one-checks-the-budget", MARGINS,
           "        # each column supports the segment in one orientation or both, + before -\n",
           '        if n > ENUMERATION_BUDGET:\n            raise BudgetExceededError("budget")\n',
           ("tests/test_cli.py::test_margin_of_a_rank_one_instance_past_the_budget",)),
    Mutant("refusal-not-kept", MARGINS, "            _KEPT[instance] = copy.copy(error)\n", "",
           ("tests/test_cli.py::test_batch_measures_each_instance_once",)),
    Mutant("refusal-kept-with-its-frames", MARGINS, "            _KEPT[instance] = copy.copy(error)\n",
           "            _KEPT[instance] = error\n", ("tests/test_margins.py::test_a_failed_measurement_is_kept",)),
    Mutant("kept-refusal-grows-its-traceback", MARGINS, "        raise copy.copy(kept)\n", "        raise kept\n",
           ("tests/test_margins.py::test_a_failed_measurement_is_kept",)),
    Mutant("radius-refuses-one-sample", THEOREMS, "    if samples < 1:\n", "    if samples <= 1:\n",
           ("tests/test_theorems.py::test_certify_radius_takes_a_single_sample",)),
    # the oracle's one unit: the negative side measures in it, its band is taken in it, and the shape alone
    # picks the crossover
    Mutant("negative-side-without-the-unit", MARGINS, "    shift = instance.unit[1]\n", "    shift = 0\n",
           ("tests/test_margins.py::test_the_margins_scale_with_the_columns",)),
    Mutant("near-facet-band-left-absolute", MARGINS, "np.ldexp(ZERO_BAND, -shift)", "ZERO_BAND",
           ("tests/test_margins.py::test_facets_feed_the_judge_every_subset_the_enumeration_keeps",)),
    Mutant("crossover-keeps-its-unit-scale-guard", MARGINS, "        if r * comb(n, r) < ENUMERATE_BELOW:\n",
           '        longest = np.sqrt(np.einsum("ij,ij->j", instance.columns, instance.columns)).max()\n'
           "        if r * comb(n, r) < ENUMERATE_BELOW and 1.0 <= longest * np.sqrt(2.0) < 2.0:\n",
           ("tests/test_margins.py::test_polar_runs_only_above_the_crossover",)),
    # the certifiers' one unit: every program and residual is in it, and the residual tolerance holds at its edge
    Mutant("rank-frame-without-the-unit", MARGINS,
           "frame, coords = np.ldexp(instance.columns, -instance.unit[1]), np.ldexp(points, -instance.unit[1])",
           "frame, coords = instance.columns, points",
           ("tests/test_theorems.py::test_the_statements_scale_with_the_columns",)),
    Mutant("accepted-on-the-raw-columns", MARGINS,
           "_accepted(columns, np.ldexp(points[rows], -instance.unit[1]), weights)",
           "_accepted(instance.columns, points[rows], weights)",
           ("tests/test_theorems.py::test_the_statements_scale_with_the_columns",)),
    Mutant("gordan-residual-in-the-columns-units", THEOREMS,
           "residuals = np.array([math.ldexp(max(norm - gamma, 0.0), -instance.unit[1])])",
           "residuals = np.array([max(norm - gamma, 0.0)])",
           ("tests/test_theorems.py::test_the_statements_scale_with_the_columns",)),
    Mutant("hoffman-primal-on-the-raw-columns", THEOREMS,
           "dist_l2_to_halfspaces(np.ldexp(w, shift), np.ldexp(instance.columns, -shift), c)[0], -shift)",
           "dist_l2_to_halfspaces(w, instance.columns, c)[0], 0)",
           ("tests/test_theorems.py::test_the_statements_scale_with_the_columns",)),
    Mutant("residual-tolerance-times-ten", THEOREMS, "RESIDUAL_TOL = 1e-9\n", "RESIDUAL_TOL = 1e-8\n",
           ("tests/test_theorems.py::test_the_residual_tolerance_holds_at_its_edge",)),
    # the simplex's tolerances at ten times their values
    Mutant("reduced-cost-tolerance-times-ten", LP, "REDUCED_COST_TOL = 1e-9 ", "REDUCED_COST_TOL = 1e-8 ",
           ("tests/test_lp.py::test_a_column_enters_only_past_the_reduced_cost_tolerance",)),
    Mutant("pivot-tolerance-times-ten", LP, "PIVOT_TOL = 1e-11 ", "PIVOT_TOL = 1e-10 ",
           ("tests/test_lp.py::test_a_pivot_entry_counts_only_past_the_pivot_tolerance",)),
    Mutant("feasibility-tolerance-times-ten", LP, "FEASIBILITY_TOL = 1e-9 ", "FEASIBILITY_TOL = 1e-8 ",
           ("tests/test_lp.py::test_phase_one_infeasibility_is_real_only_past_the_feasibility_tolerance",)),
    Mutant("ratio-tie-times-ten", LP, "best + 1e-12 * (1.0 + abs(best))", "best + 1e-11 * (1.0 + abs(best))",
           ("tests/test_lp.py::test_ratios_within_the_tie_tolerance_leave_by_the_smallest_basis_label",)),
)


def check_applies(mutants, root: Path = REPO) -> None:
    """Stop unless each mutant's old text occurs exactly once in its file under root."""
    stale = []
    for mutant in mutants:
        count = (root / mutant.path).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            stale.append(f"{mutant.name}: its old text occurs {count} times in {mutant.path}")
    if stale:
        sys.exit("stale mutants, nothing run:\n" + "\n".join(stale))


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """(outcome, first failing test) of one mutant, run in a fresh copy of the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            shutil.copytree(REPO / name, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(REPO / "pyproject.toml", tree)
        target = tree / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")}, capture_output=True, text=True,
        )
    if result.returncode == 0:
        return "survived", ""
    failed = re.search(r"^FAILED (\S+)", result.stdout, re.MULTILINE)
    if result.returncode == 1 and failed:
        return "killed", failed.group(1)
    return "error", f"pytest exit {result.returncode}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("names", nargs="*", help="mutants to run (default: every mutant)")
    args = parser.parse_args()
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants {unknown}; known: {', '.join(known)}")
    selected = [known[name] for name in args.names] or list(MUTANTS)
    check_applies(selected)
    outcomes = []
    for mutant in selected:
        outcome, detail = run_mutant(mutant)
        outcomes.append(outcome)
        print(f"{outcome:<8} {mutant.name:<40} {detail}", flush=True)
    print(f"{outcomes.count('killed')} of {len(outcomes)} killed")
    return 0 if all(outcome == "killed" for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
