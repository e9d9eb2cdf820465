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
