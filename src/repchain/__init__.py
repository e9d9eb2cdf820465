"""Capacity and fidelity engine for buffered-router repeater chains.

Closed-form pair rates and end-to-end fidelities for frequency-multiplexed
repeater segments joined by buffered routers, with a seeded Monte Carlo
simulator that validates every closed form.

The package re-exports exactly the names in each module's `__all__`, which
is the one list of what that module makes public.
"""

from . import experiments, fidelity, montecarlo, network, params, rates
from .experiments import *  # noqa: F403
from .fidelity import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .network import *  # noqa: F403
from .params import *  # noqa: F403
from .rates import *  # noqa: F403

__all__ = [name for module in (experiments, fidelity, montecarlo, network, params, rates)
           for name in module.__all__]

__version__ = "0.1.0"
