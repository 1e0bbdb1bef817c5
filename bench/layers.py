"""Per-layer metrics of a traced run, computed from its spans and counts.

Set-up metrics come from the traced set-up interpreters (median over
them); the rest from the timed cells, over every process. Times of single
draws exclude the lazy table builds nested in them (BUILD_SPANS), which
are reported as set-up work. A metric with nothing to measure on a
workload reads 0.
"""

import statistics

import numpy as np

from spans import BUILD_SPANS, build_times, self_times


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _p90(values):
    return float(np.percentile(values, 90)) if values else 0.0


def _total(spans, name):
    return sum(end - start for _, _, n, start, end, _ in spans if n == name)


def per_layer(timed, counts, values, setup_traces, rounds, cells, main_pid):
    """timed: spans of the timed cells; counts: Counter keyed by
    (phase, name); setup_traces: one span list per set-up interpreter."""
    own = self_times(timed)
    builds = build_times(timed)
    by_name = {}
    for span in timed:
        by_name.setdefault(span[2], []).append(span)

    def durations(name, scale):
        return [(end - start - builds.get(sid, 0.0)) * scale
                for sid, _, _, start, end, _ in by_name.get(name, ())]

    def per_cell(n):
        return n / cells if cells else 0.0

    def n_spans(name):
        return len(by_name.get(name, ()))

    sampler_spans = [s for t in setup_traces for s in t] + timed
    dpp_ms = durations("samplers.sample_dpp", 1e3)
    design_ms = durations("samplers.draw_design", 1e3)
    cond = counts[("timed", "samplers.cond_designs")]
    cli_calls = n_spans("cli.main")
    m = {
        "measures.gauss_rule_s": _median(
            [_total(t, "measures.gauss_rule") for t in setup_traces]),
        "measures.density_sampler_builds": sum(
            1 for s in sampler_spans
            if s[2] == "measures.build_density_sampler") / rounds,
        "measures.density_sampler_build_s": _total(
            sampler_spans, "measures.build_density_sampler") / rounds,
        "measures.grid_sampler_builds": per_cell(
            n_spans("measures.grid_sampler")),
        "bases.feature_rows": per_cell(counts[("timed", "bases.feature_rows")]),
        "bases.degenerate_points": counts[("timed", "bases.degenerate_points")],
        "samplers.dpp_draw_ms": _median(dpp_ms),
        "samplers.dpp_draw_ms_p90": _p90(dpp_ms),
        "samplers.dpp_draws": per_cell(n_spans("samplers.sample_dpp")),
        "samplers.christoffel_point_us": _median(
            durations("samplers.sample_christoffel", 1e6)),
        "samplers.christoffel_points": per_cell(
            n_spans("samplers.sample_christoffel")),
        "samplers.draw_design_ms": _median(design_ms),
        "samplers.draw_design_ms_p90": _p90(design_ms),
        "samplers.cond_attempts_per_design": (
            counts[("timed", "samplers.cond_attempts")] / cond if cond else 0.0),
        "lsq.fit_ms": _median(durations("lsq.weighted_lsq_fit", 1e3)),
        "lsq.gram_ms": _median(durations("lsq.empirical_gram", 1e3)),
        "lsq.evaluator_build_s": _median(
            [_total(t, "lsq.ErrorEvaluator") for t in setup_traces]),
        "lsq.evaluator_order.m10": values.get("lsq.evaluator_order.m10", 0),
        "lsq.evaluator_order.m20": values.get("lsq.evaluator_order.m20", 0),
        "experiments.pools_started": counts[
            ("timed", "experiments.pools_started")] / rounds,
        "experiments.worker_setup_s": sum(
            end - start for (pid, _), _, name, start, end, _ in timed
            if pid != main_pid and name in BUILD_SPANS) / rounds,
        "experiments.self_s": sum(
            own[s[0]] for s in timed if s[2].startswith("experiments.")) / rounds,
        "cli.self_ms": (sum(own[s[0]] for s in timed if s[2].startswith("cli."))
                        * 1e3 / cli_calls if cli_calls else 0.0),
    }
    return {name: float(v) for name, v in m.items()}


UNITS = {
    "measures.gauss_rule_s": "s",
    "measures.density_sampler_builds": "count",
    "measures.density_sampler_build_s": "s",
    "measures.grid_sampler_builds": "count/cell",
    "bases.feature_rows": "rows/cell",
    "bases.degenerate_points": "count",
    "samplers.dpp_draw_ms": "ms",
    "samplers.dpp_draw_ms_p90": "ms",
    "samplers.dpp_draws": "count/cell",
    "samplers.christoffel_point_us": "us",
    "samplers.christoffel_points": "count/cell",
    "samplers.draw_design_ms": "ms",
    "samplers.draw_design_ms_p90": "ms",
    "samplers.cond_attempts_per_design": "count",
    "lsq.fit_ms": "ms",
    "lsq.gram_ms": "ms",
    "lsq.evaluator_build_s": "s",
    "lsq.evaluator_order.m10": "order",
    "lsq.evaluator_order.m20": "order",
    "experiments.pools_started": "count",
    "experiments.worker_setup_s": "s",
    "experiments.self_s": "s",
    "cli.self_ms": "ms",
    "trace.replicates_per_s": "1/s",
}
