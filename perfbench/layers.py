"""Per-layer metrics computed from the spans of a traced run.

Totals are per round (the rounds of a workload repeat the same operations),
times of single calls are medians or means over the spans. A metric whose
layer the workload never reaches reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS, Span, self_times

SIZES = ((4, 8), (20, 100), (50, 200))
SOLVERS = (("classic", "algorithms.perceptron_classic"), ("np", "algorithms.perceptron_normalized"),
           ("vng", "algorithms.vng"))
ORACLES = ("margins.margin_report", "margins.minimum_enclosing_ball", "margins.negative_margin_exact",
           "margins.positive_margin_exact")
HOFFMAN = ("theorems.hoffman_dual", "theorems.hoffman_simplex", "theorems.hoffman_primal")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], rounds: int, workers: int) -> dict[str, float]:
    by_name: dict[str, list[Span]] = defaultdict(list)
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        by_name[span.name].append(span)
    own = self_times(spans)

    def total(names, use_self=False) -> float:
        return sum(own[s.span_id] if use_self else s.duration for name in names for s in by_name[name])

    def under(span: Span, name: str) -> bool:
        """True when an ancestor of the span (following parents across processes) has this name."""
        parent = by_id.get(span.parent_id)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent_id)
        return False

    m: dict[str, float] = {}
    solver_spans = [s for _, name in SOLVERS for s in by_name[name]]
    for algo, name in SOLVERS:
        for d, n in SIZES:
            sel = [s for s in by_name[name] if s.attrs.get("d") == d and s.attrs.get("n") == n]
            steps = sum(s.attrs["steps"] for s in sel)
            m[f"algorithms.us_per_step.{algo}.d{d}n{n}"] = 1e6 * _ratio(sum(s.duration for s in sel), steps)
    m["algorithms.steps_per_round"] = _ratio(sum(s.attrs.get("steps", 0) for s in solver_spans), rounds)
    csv_spans = by_name["algorithms.IterateTrace.write_csv"]
    m["algorithms.trace_csv_us_per_row"] = 1e6 * _ratio(
        sum(s.duration for s in csv_spans), sum(s.attrs.get("rows", 0) for s in csv_spans))

    reports = by_name["margins.margin_report"]
    m["margins.report_calls_per_round"] = _ratio(len(reports), rounds)
    m["margins.report_ms_p50"] = 1e3 * _median([s.duration for s in reports])
    m["margins.positive_exact_calls_per_round"] = _ratio(len(by_name["margins.positive_margin_exact"]), rounds)
    rep = by_name["margins.representable"]
    m["margins.representable_us_per_call"] = 1e6 * _ratio(sum(s.duration for s in rep), len(rep))

    # an oracle call is an entry into the exact oracle from outside the margins layer
    oracle_calls = [s for name in ORACLES for s in by_name[name]
                    if by_id.get(s.parent_id) is None or by_id[s.parent_id].layer != "margins"]
    generates = by_name["generators.generate"]
    m["generators.oracle_calls_per_instance"] = _ratio(
        sum(under(s, "generators.generate") for s in oracle_calls), len(generates))

    runs = by_name["cli._run_one"]
    summaries = by_name["reporting.build_run_summary"]
    m["reporting.oracle_calls_per_run"] = _ratio(sum(under(s, "cli._run_one") for s in oracle_calls), len(runs))
    m["reporting.replay_self_ms_per_round"] = 1e3 * _ratio(total(["reporting.build_run_summary"], True), rounds)
    m["reporting.checks_per_run"] = _ratio(sum(s.attrs.get("checks", 0) for s in summaries), len(summaries))
    m["reporting.save_ms_per_round"] = 1e3 * _ratio(total(["reporting.RunSummary.save"]), rounds)

    solves = by_name["lp.solve"]
    m["lp.solve_calls_per_round"] = _ratio(len(solves), rounds)
    m["lp.solve_us_per_call"] = 1e6 * _ratio(sum(s.duration for s in solves), len(solves))
    m["lp.dist_l1_ms_per_round"] = 1e3 * _ratio(total(["lp.dist_l1_to_polyhedron"]), rounds)
    m["lp.dist_l2_ms_per_round"] = 1e3 * _ratio(total(["lp.dist_l2_to_halfspaces"]), rounds)

    m["theorems.gordan_self_ms_per_round"] = 1e3 * _ratio(total(["theorems.gordan_decide"], True), rounds)
    m["theorems.hoffman_self_ms_per_round"] = 1e3 * _ratio(total(HOFFMAN, True), rounds)
    m["instance.load_ms_per_round"] = 1e3 * _ratio(total(["instance.load_instance"]), rounds)

    # CLI self time per call (parse, dispatch, emit), batch excluded: its self time is pool waiting
    cli_self: dict[str, float] = defaultdict(float)
    requests = {s.request for s in by_name["cli.main"] if s.attrs.get("command") not in (None, "batch")}
    for span in spans:
        if span.layer == "cli" and span.request in requests:
            cli_self[span.request] += own[span.span_id]
    m["cli.self_ms_p50"] = 1e3 * _median(list(cli_self.values()))
    m["cli.parser_ms_p50"] = 1e3 * _median([s.duration for s in by_name["cli._build_parser"]])
    batch_wall = total(["cli.cmd_batch"])
    m["cli.batch_pool_busy_frac"] = _ratio(total(["cli._batch_worker"]), workers * batch_wall)

    for layer in LAYERS:
        m[f"{layer}.self_ms_per_round"] = 1e3 * _ratio(sum(own[s.span_id] for s in spans if s.layer == layer), rounds)
    return m
