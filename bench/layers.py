"""Per-layer metrics from a traced run.

Counts and self times are per traced batch (means over the run's traced
batches). The self_ms metrics, bench.self_ms included, add up to trace.wall_s;
trace.unaccounted_ms reports what, if anything, does not.
"""

from __future__ import annotations

import statistics

from spans import MC_PATHS

CALL_GROUPS = ("params.load_profile", "network.timings", "rates.cutoff", "rates.rate",
               "fidelity.end_to_end_report", "fidelity.router_pair_werner")
MC_MODES = ("micro-link", "micro-segment", "window-routed", "window-nv", "window-nobuffer")
CLI_COMMANDS = ("rate", "fidelity", "sweep", "simulate")
SELF_ONLY = ("experiments.run_study", "experiments.run_custom", "cli.import", "cli.process",
             "trace.classify")


def mc_groups() -> list[str]:
    return [f"montecarlo.{mode}.{path}"
            for mode in MC_MODES
            for path in (("draw",) if mode.startswith("micro") else MC_PATHS)]


def catalog() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for group in CALL_GROUPS:
        out += [(f"{group}.calls", "count", "lower"), (f"{group}.self_ms", "ms", "lower")]
    out.append(("rates.tau_clamped.ratio", "ratio", "lower"))
    for group in mc_groups():
        out += [(f"{group}.calls", "count", "lower"), (f"{group}.trials", "count", "higher"),
                (f"{group}.self_ms", "ms", "lower"), (f"{group}.trials_per_s", "1/s", "higher"),
                (f"{group}.draws_per_trial", "draws-computed", "lower")]
    out += [("montecarlo.k0.estimates", "count", "lower"),
            ("montecarlo.trials_per_s", "1/s", "higher"),
            ("montecarlo.pool.speedup", "x", "higher"),
            ("experiments.run_study.calls", "count", "lower")]
    out += [(f"{name}.self_ms", "ms", "lower") for name in SELF_ONLY]
    out += [("experiments.rate_row.calls", "count", "lower"),
            ("experiments.rate_row.self_ms", "ms", "lower"),
            ("experiments.rows_to_csv.calls", "count", "lower"),
            ("experiments.rows_to_csv.rows", "count", "higher"),
            ("experiments.rows_to_csv.bytes", "bytes", "lower"),
            ("experiments.rows_to_csv.self_ms", "ms", "lower"),
            ("cli.interp_ms", "ms", "lower"),
            ("cli.import_ms", "ms", "lower")]
    for command in CLI_COMMANDS:
        out += [(f"cli.main.{command}.ms", "ms", "lower"),
                (f"cli.main.{command}.self_ms", "ms", "lower")]
    out += [("bench.self_ms", "ms", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.untraced_wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.unaccounted_ms", "ms", "lower"),
            ("trace.spans", "count", "lower")]
    return out


def layer_metrics(tracer, traced_walls, untraced_walls, interp_s, import_s, mc) -> dict:
    per = 1.0 / len(traced_walls)
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    v: dict[str, float] = {}

    def self_ms(span: str) -> float:
        return self_s.get(span, 0.0) * 1e3 * per

    for group in CALL_GROUPS:
        v[f"{group}.calls"] = calls.get(group, 0) * per
        v[f"{group}.self_ms"] = self_ms(group)
    windowed = counts.get("rates.windowed", 0.0)
    v["rates.tau_clamped.ratio"] = counts.get("rates.clamped", 0.0) / windowed if windowed else 0.0

    work_trials = work_s = 0.0
    k0_calls = 0
    for group in mc_groups():
        trials = counts.get(f"{group}.trials", 0.0)
        seconds = self_s.get(group, 0.0)
        zero_work = group.endswith(".k0")
        v[f"{group}.calls"] = calls.get(group, 0) * per
        v[f"{group}.trials"] = trials * per
        v[f"{group}.self_ms"] = seconds * 1e3 * per
        # Zero-work estimates draw nothing; they are counted, not timed as throughput.
        v[f"{group}.trials_per_s"] = trials / seconds if seconds > 0 and not zero_work else 0.0
        v[f"{group}.draws_per_trial"] = counts.get(f"{group}.draws", 0.0) / trials if trials else 0.0
        if zero_work:
            k0_calls += calls.get(group, 0)
        else:
            work_trials += trials
            work_s += seconds
    v["montecarlo.k0.estimates"] = k0_calls * per
    v["montecarlo.trials_per_s"] = work_trials / work_s if work_s > 0 else 0.0
    v["montecarlo.pool.speedup"] = mc["pool_speedup"]
    v["experiments.run_study.calls"] = calls.get("experiments.run_study", 0) * per
    for name in SELF_ONLY:
        v[f"{name}.self_ms"] = self_ms(name)
    v["experiments.rate_row.calls"] = calls.get("experiments.rate_row", 0) * per
    v["experiments.rate_row.self_ms"] = self_ms("experiments.rate_row")
    v["experiments.rows_to_csv.calls"] = calls.get("experiments.rows_to_csv", 0) * per
    v["experiments.rows_to_csv.rows"] = counts.get("experiments.rows_to_csv.rows", 0.0) * per
    v["experiments.rows_to_csv.bytes"] = counts.get("experiments.rows_to_csv.bytes", 0.0) * per
    v["experiments.rows_to_csv.self_ms"] = self_ms("experiments.rows_to_csv")
    interp = statistics.median(interp_s)
    v["cli.interp_ms"] = interp * 1e3
    v["cli.import_ms"] = (statistics.median(import_s) - interp) * 1e3
    for command in CLI_COMMANDS:
        span = f"cli.main.{command}"
        n = calls.get(span, 0)
        v[f"{span}.ms"] = tracer.total_s.get(span, 0.0) / n * 1e3 if n else 0.0
        v[f"{span}.self_ms"] = self_ms(span)
    v["bench.self_ms"] = self_ms("bench.batch")

    traced = sum(traced_walls) * per
    untraced = statistics.fmean(untraced_walls)
    reported = sum(value for name, value in v.items() if name.endswith(".self_ms"))
    v["trace.wall_s"] = traced
    v["trace.untraced_wall_s"] = untraced
    v["trace.overhead_s"] = traced - untraced
    v["trace.unaccounted_ms"] = traced * 1e3 - reported
    v["trace.spans"] = sum(calls.values()) * per
    return {name: {"value": v[name], "unit": unit} for name, unit, _better in catalog()}
