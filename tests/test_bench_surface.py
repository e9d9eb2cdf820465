"""The benchmark harness under bench/ imports and traces repchain names.

The harness has its own tests, outside this suite; this one only checks that
every name it imports or traces still exists, so a change that removes one
fails here and not first in a benchmark run.
"""

import importlib
from pathlib import Path

import repchain

BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_MODULES = ("catalog", "checks", "layers", "spans", "workloads", "run", "traced_cli")


def test_bench_imports_and_traces_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    modules = {name: importlib.import_module(name) for name in BENCH_MODULES}
    spans = modules["spans"]
    namespaces = [repchain] + [importlib.import_module(f"repchain.{name}")
                               for name in spans.MODULES]
    before = [dict(vars(module)) for module in namespaces]
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = {(module.__name__, attr) for module, attr, _ in tracer._restore}
        assert ("repchain.experiments", "run_study") in patched
        assert ("repchain.rates", "routed_rate_no_buffer") in patched
    finally:
        tracer.uninstall()
    assert [dict(vars(module)) for module in namespaces] == before


def test_library_calls_every_traced_name(monkeypatch):
    # A refactor that stops calling a traced function would only zero a
    # per-layer benchmark metric; here it fails instead.
    from repchain import experiments
    from repchain.experiments import McOptions, Study
    from repchain.montecarlo import McConfig, McMode
    from repchain.network import Config, NetworkDesign, max_link_length
    from repchain.rates import Scenario

    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    near = repchain.builtin_profile("near")
    design = NetworkDesign(Config.A, max_link_length(near), 2, 2)
    tracer = spans.Tracer()
    try:
        tracer.install()
        for scenario in Scenario:
            experiments.rate_row("near", near, design, scenario)
        experiments.fidelity_row("near", near, design)
        experiments.run_study(Study.FIDELITY, [("near", near)], McOptions())
        for mode in McMode:
            experiments.simulate_row("near", near, design, McConfig(1, 64, mode))
    finally:
        tracer.uninstall()
    calls = tracer.calls
    for name in ("rates.rate", "rates.cutoff", "fidelity.end_to_end_report",
                 "fidelity.router_pair_werner"):
        assert calls[name] > 0, name
    for mode in McMode:
        group = f"montecarlo.{mode.value}."
        assert sum(n for name, n in calls.items() if name.startswith(group)) > 0, group
