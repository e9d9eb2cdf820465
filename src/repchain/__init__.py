"""Capacity and fidelity engine for buffered-router repeater chains.

Closed-form pair rates and end-to-end fidelities for frequency-multiplexed
repeater segments joined by buffered routers. A seeded Monte Carlo simulator
validates every closed-form rate, and a 4x4 density-matrix replay
(fidelity.compose_oracle) every fidelity.

The package re-exports exactly the names in each module's `__all__`, which
is the one list of what that module makes public, and binds them on first
use (PEP 562): importing the package loads no submodule, and the first read
of a package attribute (a public name, `__all__` or `dir()`) imports the six
library modules and binds every name.
"""

import importlib

# The library modules, in the order their names are bound; cli stays out.
_MODULES = ("experiments", "fidelity", "montecarlo", "network", "params", "rates")

__version__ = "0.1.0"


def _bind() -> dict:
    if "__all__" not in globals():
        modules = [importlib.import_module(f".{name}", __name__) for name in _MODULES]
        globals().update({name: getattr(module, name) for module in modules
                          for name in module.__all__},
                         __all__=[name for module in modules for name in module.__all__])
    return globals()


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        # `from repchain import params` loads that module alone, as `import repchain.params` does.
        return importlib.import_module(f".{name}", __name__)
    if (not name.startswith("__") or name == "__all__") and name in _bind():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(_bind())
