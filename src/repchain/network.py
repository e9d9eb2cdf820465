"""Network geometry: configurations, timing quantities, resource counts.

A design describes one routed chain: big_n multiplexed repeater segments in
series, each built from n elementary links of length ell_km, joined by
big_n - 1 quantum routers. Configuration A keeps full-length links and stores
the synchronism slack in extra edge memories; configuration B shortens links
by a factor xi and spends extra routers instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .params import ParameterProfile

__all__ = [
    "Config",
    "DesignError",
    "NetworkDesign",
    "ResourceCount",
    "TimingReport",
    "Violation",
    "buffer_mode_capacity",
    "check_feasibility",
    "max_link_length",
    "resources",
    "timings",
]

SIGNAL_VELOCITY_KM_PER_S = 2.0e5  # c over fiber refractive index 1.5


class DesignError(ValueError):
    """Raised when a network design violates its structural invariants."""


class Config(enum.Enum):
    A = "A"
    B = "B"


@dataclass(frozen=True)
class NetworkDesign:
    config: Config
    ell_km: float        # elementary link length
    n: int               # elementary links per segment
    big_n: int           # segments in the routed chain
    xi: int = 2          # link shortening factor, configuration B only
    epsilon: float = 0.05  # per-window failure budget, in (0, 1)

    def __post_init__(self) -> None:
        if not isinstance(self.config, Config):
            raise DesignError(f"config must be Config.A or Config.B, got {self.config!r}")
        if not (math.isfinite(self.ell_km) and self.ell_km > 0):
            raise DesignError(f"ell_km = {self.ell_km!r} must be finite and > 0")
        if self.n < 1:
            raise DesignError(f"n = {self.n!r} must be >= 1")
        if self.big_n < 1:
            raise DesignError(f"big_n = {self.big_n!r} must be >= 1")
        if not math.isfinite(self.big_n * self.n * self.ell_km):
            raise DesignError(
                f"ell_km = {self.ell_km!r} over big_n * n = {self.big_n * self.n} links "
                f"gives a non-finite total length"
            )
        if self.xi < 2:
            raise DesignError(f"xi = {self.xi!r} must be >= 2")
        if not 0.0 < self.epsilon < 1.0:
            raise DesignError(f"epsilon = {self.epsilon!r} must lie in (0, 1)")
        if self.config is Config.B and self.n > self.xi:
            raise DesignError(
                f"configuration B allows at most xi = {self.xi} links per segment, got n = {self.n}"
            )


@dataclass(frozen=True)
class TimingReport:
    t_rt: float           # link traversal time, ell / signal velocity
    t_arc: float          # full segment traversal, n * t_rt
    t_trans: float        # router handoff including segment traversal
    t_trans_tilde: float  # router handoff alone


@dataclass(frozen=True)
class ResourceCount:
    qms: int       # quantum memories per reference span
    qrs: int       # extra quantum routers per reference span
    total_km: float


@dataclass(frozen=True)
class Violation:
    name: str
    message: str


def max_link_length(profile: ParameterProfile) -> float:
    """Longest link the memory storage time can cover, km."""
    return profile.t_afc * SIGNAL_VELOCITY_KM_PER_S


def timings(design: NetworkDesign, profile: ParameterProfile) -> TimingReport:
    t_rt = design.ell_km / SIGNAL_VELOCITY_KM_PER_S
    t_arc = design.n * t_rt
    return TimingReport(
        t_rt=t_rt,
        t_arc=t_arc,
        t_trans=profile.t_c13 + t_arc + profile.t_cnot,
        t_trans_tilde=profile.t_c13 + profile.t_cnot,
    )


def resources(design: NetworkDesign) -> ResourceCount:
    """Memory and router counts per reference span, plus total chain length."""
    if design.config is Config.A:
        qms = 4 * design.n - 2
        qrs = 0
    else:
        qms = 2 * design.xi * design.n
        qrs = design.xi * design.n - 1
    return ResourceCount(
        qms=qms,
        qrs=qrs,
        total_km=design.big_n * design.n * design.ell_km,
    )


def check_feasibility(design: NetworkDesign, profile: ParameterProfile) -> list[Violation]:
    """Return named constraint violations; an empty list means feasible.

    Violations are advisory. Rates and fidelities remain computable for an
    infeasible design.
    """
    violations: list[Violation] = []
    t = timings(design, profile)
    if profile.t_nv < t.t_trans:
        violations.append(Violation(
            name="cutoff-window",
            message=(
                f"router storage time t_nv = {profile.t_nv:g} s is below the "
                f"handoff time t_trans = {t.t_trans:g} s"
            ),
        ))
    required = (design.n - 1) * t.t_rt
    if profile.t_buff_spin < required:
        violations.append(Violation(
            name="buffer-spin-storage",
            message=(
                f"buffer spin storage t_buff_spin = {profile.t_buff_spin:g} s is below "
                f"(n-1) * t_rt = {required:g} s"
            ),
        ))
    return violations


def buffer_mode_capacity(profile: ParameterProfile) -> int:
    """Temporal modes a buffer holds, floor(t_buff_opt * r_epps).

    The epsilon guard keeps exact integer products from flooring down when the
    binary float product lands just below the integer.
    """
    return math.floor(profile.t_buff_opt * profile.r_epps + 1e-9)
