"""The package's public names agree with each module's `__all__`.

A stale `__all__` entry otherwise fails only at `from repchain.<module>
import *`, and a top-level name missing from its module's `__all__` is
public in one place and private in the other. The package re-exports every
library module's `__all__`; only the command line stays out of it.
"""

import ast
import enum
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import pytest

import repchain
from repchain import Config, Era, McMode, Scenario, Study
from repchain.fidelity import profile_stage_fidelities

MODULES = sorted(info.name for info in pkgutil.iter_modules(repchain.__path__))
LIBRARY_MODULES = [name for name in MODULES if name not in ("__main__", "cli")]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(f"repchain.{name}")
    assert [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)] == []


def test_package_imports_only_public_names():
    modules = [importlib.import_module(f"repchain.{name}") for name in LIBRARY_MODULES]
    union = [name for module in modules for name in module.__all__]
    assert len(set(union)) == len(union)
    # The package binds its names on first use; reading __all__ binds them all.
    assert repchain.__all__ == union
    public = [name for name, value in vars(repchain).items()
              if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(public) == sorted(union)
    assert [(module.__name__, name) for module in modules for name in module.__all__
            if getattr(repchain, name) is not getattr(module, name)] == []


ROOT = Path(__file__).resolve().parents[1]


SOURCES = sorted((ROOT / "src" / "repchain").glob("*.py"))


def _used_names(path, strings):
    """Names a file reads as a Name or an Attribute, plus its string constants if asked.

    Only reads count: the target of an assignment does not use the name it binds.
    """
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _library_and_bench_reads():
    # bench/ reaches some functions by their name as a string, so its string
    # constants count too.
    used = set()
    for path in SOURCES:
        used |= _used_names(path, strings=False)
    for path in sorted((ROOT / "bench").glob("*.py")):
        used |= _used_names(path, strings=True)
    return used


def _private_module_names(path):
    """The _names a module binds at its top level: functions, classes and assignments."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_public_name_has_a_caller():
    # A public name that neither the library nor the benchmark reads is surface
    # nothing uses; tests alone do not keep it.
    used = _library_and_bench_reads()
    assert [name for name in repchain.__all__ if name not in used] == []


def test_every_private_module_name_has_a_reader():
    # A private helper or constant whose last reader went is dead code; tests
    # alone do not keep it.
    used = _library_and_bench_reads()
    defined = [(path.name, name) for path in SOURCES for name in _private_module_names(path)]
    assert defined
    assert [(module, name) for module, name in defined if name not in used] == []


NEAR = repchain.builtin_profile("near")
DESIGN = repchain.NetworkDesign(Config.A, 20.0, 2, 2)


# Valid keyword arguments for each public callable whose type hints name an enum.
VALID_ARGS = {
    "McConfig": dict(master_seed=1, trials=1, mode=McMode.MICRO_LINK),
    "NetworkDesign": dict(config=Config.A, ell_km=20.0, n=2, big_n=2),
    "SweepSpec": dict(scenario=Scenario.ROUTED, profiles=(("near", NEAR),), axis="n",
                      start=1, stop=1, step=1),
    "builtin_profile": dict(era=Era.NEAR_TERM),
    "compose_oracle": dict(stage_fidelities=profile_stage_fidelities(NEAR), tau_s=0.1, n=2,
                           big_n=2, config=Config.A),
    "rate_row": dict(era="near", profile=NEAR, design=DESIGN, scenario=Scenario.ROUTED),
    "router_pair_werner": dict(profile=NEAR, config=Config.A, n=2, tau_s=0.1),
    "run_study": dict(study=Study.FIDELITY, profiles=(("near", NEAR),)),
    "scenario_rate": dict(scenario=Scenario.ROUTED, profile=NEAR, design=DESIGN),
    "transfer_efficiency": dict(profile=NEAR, config=Config.A, n=2),
    "window_law": dict(scenario=Scenario.ROUTED, profile=NEAR, design=DESIGN),
}


def _call(name, **override):
    """Call the public name with its valid arguments, some overridden; a SweepSpec is run."""
    result = getattr(repchain, name)(**{**VALID_ARGS[name], **override})
    return repchain.run_custom(result) if name == "SweepSpec" else result


def _enum_parameters():
    """{name: {parameter: hint}} for every public callable with an enum-typed parameter."""
    found = {}
    for name in repchain.__all__:
        obj = getattr(repchain, name)
        if not callable(obj):
            continue
        # Names a module imports only to annotate resolve against the package namespace.
        hints = typing.get_type_hints(obj.__init__ if inspect.isclass(obj) else obj,
                                      localns=vars(repchain))
        params = {param: hint for param, hint in hints.items() if param != "return"
                  and any(isinstance(arg, type) and issubclass(arg, enum.Enum)
                          for arg in typing.get_args(hint) or (hint,))}
        if params:
            found[name] = params
    return found


def test_enum_parameters_reject_non_members():
    params = _enum_parameters()
    assert sorted(params) == sorted(VALID_ARGS)
    failures = []
    for name, hints in params.items():
        _call(name)
        for param, hint in hints.items():
            args = typing.get_args(hint) or (hint,)
            members = [arg for arg in args if isinstance(arg, type) and issubclass(arg, enum.Enum)]
            bad = [None, Era.NEAR_TERM if Era not in members else Config.A]
            if str not in args:
                bad.insert(0, next(iter(members[0])).value)
            for value in bad:
                try:
                    _call(name, **{param: value})
                except Exception as exc:
                    if not (isinstance(exc, ValueError) and param in str(exc)):
                        failures.append(f"{name}({param}={value!r}): {exc!r}")
                else:
                    failures.append(f"{name}({param}={value!r}) raised nothing")
    assert failures == []
