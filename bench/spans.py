"""In-memory span tracer for calls into repchain's public functions.

Callers bind names at import (`from .rates import routed_rate`), so the
tracer replaces a function in every repchain module namespace that holds it,
which is where each caller looks it up, and restores them on uninstall.

Each span has a name, start, end, parent and trace id (one per benchmark
operation: a study, a design sweep, an estimate or a CLI invocation). Self
time, a span's duration minus the time covered by its children, is rolled up
per name as spans close; full span records are kept only while `keep` is set,
so memory stays bounded on long runs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

MODULES = ("params", "network", "rates", "fidelity", "montecarlo", "experiments", "cli")

RATE_FUNCTIONS = ("segment_rate", "nv_chain_rate", "routed_rate", "routed_rate_no_buffer")
CUTOFF_FUNCTIONS = ("nv_cutoff_time", "routed_cutoff_time", "no_buffer_cutoff_time")
MC_PATHS = ("per-attempt", "geometric", "k0")


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.records: list[dict] = []
        self.keep = False
        self.trace_id = 0
        self.top_s = 0.0                # summed duration of spans with no parent
        self._stack: list[list] = []   # [name, start, covered_s, span_id]
        self._next_id = 0
        self._suspended = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def push(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def pop(self) -> float:
        end = time.perf_counter()
        name, start, covered, span_id = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_s += duration
        if self.keep:
            self.records.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": self._stack[-1][3] if self._stack else None,
                "trace": self.trace_id,
            })
        return duration

    def cover(self, seconds: float) -> None:
        """Mark time of the open span as covered by spans recorded elsewhere."""
        self._stack[-1][2] += seconds

    def adopt(self, child: dict) -> None:
        """Merge a child process's rollup and spans under the open span."""
        for name, value in child["self_s"].items():
            self.self_s[name] += value
        for name, value in child["total_s"].items():
            self.total_s[name] += value
        for name, value in child["calls"].items():
            self.calls[name] += value
        for name, value in child["counts"].items():
            self.counts[name] += value
        self.cover(child["covered_s"])
        if self.keep:
            parent = self._stack[-1][3]
            offset = self._next_id
            for record in child["records"]:
                record = dict(record, id=record["id"] + offset, trace=self.trace_id)
                record["parent"] = parent if record["parent"] is None else record["parent"] + offset
                self.records.append(record)
            self._next_id += max((r["id"] for r in child["records"]), default=0)

    def export(self) -> dict:
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts), "records": self.records,
                "covered_s": self.top_s}

    # -- patching ----------------------------------------------------------
    def _wrap(self, fn, label, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            name = label(args, kwargs)
            tracer.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop()
            if after is not None:
                after(name, args, kwargs, result)
            return result

        return traced

    def _mc_label(self, mode, cfg_index):
        from checks import draw_path
        from repchain.montecarlo import McMode

        def label(args, kwargs):
            # simulate_link(profile, ell, cfg), simulate_segment(profile, design, cfg),
            # and the window simulators (profile, design, tau_s, cfg).
            cfg = args[cfg_index] if len(args) > cfg_index else kwargs["cfg"]
            design = None if mode is McMode.MICRO_LINK else args[1]
            tau_s = args[2] if cfg_index == 3 else None
            # Classifying costs library calls; keep them out of the layer spans.
            self.push("trace.classify")
            self._suspended += 1
            try:
                path, draws = draw_path(mode, args[0], design, tau_s)
            finally:
                self._suspended -= 1
                self.pop()
            name = f"montecarlo.{mode.value}.{path}"
            self.counts[name + ".trials"] += cfg.trials
            self.counts[name + ".draws"] += cfg.trials * draws
            return name
        return label

    def install(self) -> None:
        """Replace the traced functions in every repchain module namespace."""
        import repchain
        from repchain import cli, experiments, fidelity, montecarlo, network, params, rates
        from repchain.montecarlo import McMode

        def fixed(name):
            return lambda args, kwargs: name

        def rate_after(name, args, kwargs, report):
            if report.tau_s is not None:
                self.counts["rates.windowed"] += 1
                self.counts["rates.clamped"] += bool(report.tau_clamped)

        def csv_after(name, args, kwargs, text):
            rows = args[0] if args else kwargs["rows"]
            self.counts["experiments.rows_to_csv.rows"] += len(rows)
            self.counts["experiments.rows_to_csv.bytes"] += len(text.encode("utf-8"))

        def cli_label(args, kwargs):
            argv = args[0] if args else kwargs.get("argv")
            return f"cli.main.{argv[0] if argv else 'none'}"

        mc_modes = {
            "simulate_link": (McMode.MICRO_LINK, 2),
            "simulate_segment": (McMode.MICRO_SEGMENT, 2),
            "simulate_routed": (McMode.WINDOW_ROUTED, 3),
            "simulate_nv_chain": (McMode.WINDOW_NV, 3),
            "simulate_no_buffer": (McMode.WINDOW_NO_BUFFER, 3),
        }
        targets = {
            params.load_profile: self._wrap(params.load_profile, fixed("params.load_profile")),
            network.timings: self._wrap(network.timings, fixed("network.timings")),
            fidelity.end_to_end_report: self._wrap(
                fidelity.end_to_end_report, fixed("fidelity.end_to_end_report")),
            fidelity.router_pair_werner: self._wrap(
                fidelity.router_pair_werner, fixed("fidelity.router_pair_werner")),
            experiments.run_study: self._wrap(experiments.run_study, fixed("experiments.run_study")),
            experiments.run_custom: self._wrap(experiments.run_custom, fixed("experiments.run_custom")),
            experiments.rate_row: self._wrap(experiments.rate_row, fixed("experiments.rate_row")),
            experiments.rows_to_csv: self._wrap(
                experiments.rows_to_csv, fixed("experiments.rows_to_csv"), csv_after),
            cli.main: self._wrap(cli.main, cli_label),
        }
        for name in CUTOFF_FUNCTIONS:
            fn = getattr(rates, name)
            targets[fn] = self._wrap(fn, fixed("rates.cutoff"))
        for name in RATE_FUNCTIONS:
            fn = getattr(rates, name)
            targets[fn] = self._wrap(fn, fixed("rates.rate"), rate_after)
        for name, (mode, cfg_index) in mc_modes.items():
            fn = getattr(montecarlo, name)
            targets[fn] = self._wrap(fn, self._mc_label(mode, cfg_index))

        namespaces = [repchain] + [sys.modules[f"repchain.{m}"] for m in MODULES]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in targets:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, targets[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
