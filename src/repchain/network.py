"""Network geometry: configurations, designs and timing quantities.

A design describes one routed chain: big_n multiplexed repeater segments in
series, each built from n elementary links of length ell_km, joined by
big_n - 1 quantum routers. Configuration A keeps full-length links and stores
the synchronism slack in extra edge memories; configuration B shortens links
by a factor xi and spends extra routers instead.

A design whose total length overflows is refused when it is built. Whether a
router's storage time covers its handoff is the window law's question
(rates.WindowLaw: t_max against floor_s).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .params import ParameterProfile, _is_integer

__all__ = [
    "Config",
    "DesignError",
    "NetworkDesign",
    "TimingReport",
    "max_link_length",
    "timings",
]

SIGNAL_VELOCITY_KM_PER_S = 2.0e5  # c over fiber refractive index 1.5


class DesignError(ValueError):
    """Raised when a network design violates its structural invariants."""


class Config(enum.Enum):
    A = "A"
    B = "B"


# Python 3.11 reads a member through its enum class (Config.A) by way of the
# metaclass's __getattr__ hook, several times slower than a module global;
# the per-row code compares against these names instead.
_CONFIG_A, _CONFIG_B = Config.A, Config.B


def _config_message(config) -> str:
    """The message for a config argument that is not a Config member."""
    return f"config = {config!r} must be a Config"


def _python_scalar(value):
    """The Python scalar a numpy scalar holds; any other value unchanged."""
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(value, numpy.generic):
        return value.item()
    return value


@dataclass(frozen=True, init=False)
class NetworkDesign:
    config: Config
    ell_km: float        # elementary link length
    n: int               # elementary links per segment
    big_n: int           # segments in the routed chain
    xi: int = 2          # link shortening factor, configuration B only
    epsilon: float = 0.05  # per-window failure budget, in (0, 1)

    # Checks the arguments as locals, then stores them straight into the
    # instance dict: a generated frozen __init__ pays one object.__setattr__
    # per field plus a __post_init__ call.
    def __init__(self, config: Config, ell_km: float, n: int, big_n: int,
                 xi: int = 2, epsilon: float = 0.05) -> None:
        if not (type(ell_km) is float and type(n) is int and type(big_n) is int
                and type(xi) is int and type(epsilon) is float):
            # numpy's power kernels may round a last bit differently from Python's,
            # so a numpy scalar field is stored as the Python scalar it holds.
            ell_km, n, big_n, xi, epsilon = map(_python_scalar, (ell_km, n, big_n, xi, epsilon))
            for name, value in (("n", n), ("big_n", big_n), ("xi", xi)):
                if not _is_integer(value):
                    raise DesignError(f"{name} = {value!r} must be an integer")
        if not isinstance(config, Config):
            raise DesignError(_config_message(config))
        if not (math.isfinite(ell_km) and ell_km > 0):
            raise DesignError(f"ell_km = {ell_km!r} must be finite and > 0")
        if n < 1:
            raise DesignError(f"n = {n!r} must be >= 1")
        if big_n < 1:
            raise DesignError(f"big_n = {big_n!r} must be >= 1")
        if not math.isfinite(big_n * n * ell_km):
            raise DesignError(
                f"ell_km = {ell_km!r} over big_n * n = {big_n * n} links "
                f"gives a non-finite total length"
            )
        if xi < 2:
            raise DesignError(f"xi = {xi!r} must be >= 2")
        if not 0.0 < epsilon < 1.0:
            raise DesignError(f"epsilon = {epsilon!r} must lie in (0, 1)")
        if config is _CONFIG_B and n > xi:
            raise DesignError(
                f"configuration B allows at most xi = {xi} links per segment, got n = {n}"
            )
        fields = self.__dict__
        fields["config"] = config
        fields["ell_km"] = ell_km
        fields["n"] = n
        fields["big_n"] = big_n
        fields["xi"] = xi
        fields["epsilon"] = epsilon


class TimingReport(NamedTuple):
    t_rt: float           # link traversal time, ell / signal velocity
    t_arc: float          # full segment traversal, n * t_rt
    t_trans: float        # router handoff including segment traversal
    t_trans_tilde: float  # router handoff alone


def max_link_length(profile: ParameterProfile) -> float:
    """Longest link the memory storage time can cover, km."""
    return profile.t_afc * SIGNAL_VELOCITY_KM_PER_S


def timings(design: NetworkDesign, profile: ParameterProfile) -> TimingReport:
    t_rt = design.ell_km / SIGNAL_VELOCITY_KM_PER_S
    t_arc = design.n * t_rt
    return TimingReport(t_rt, t_arc, profile.t_c13 + t_arc + profile.t_cnot,
                        profile.t_c13 + profile.t_cnot)
