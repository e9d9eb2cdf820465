"""Closed-form entanglement-distribution rate lower bounds.

Four scenarios are modeled. A single multiplexed repeater segment delivers
pairs between its two end routers at the source attempt rate times the
per-attempt success probability. A homogeneous chain of spin-photon (nv)
nodes and a routed chain of segments both operate in fixed windows of
duration tau: every station accumulates entanglement attempts inside the
window and the routers swap at its end, so the window either yields one
end-to-end pair or nothing. The no-buffer variant loses simultaneous
two-sided generation and can only use half of each window. The three
windowed scenarios share one WindowLaw, built by window_law(); the Monte
Carlo simulators and the CLI read the same law.

Closed forms keep real-valued attempt exponents; only the Monte Carlo
module discretizes attempts.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .network import (
    _CONFIG_A, _CONFIG_B, SIGNAL_VELOCITY_KM_PER_S, Config, NetworkDesign, _config_message, timings)
from .params import ParameterProfile

__all__ = [
    "RateReport",
    "Scenario",
    "WindowLaw",
    "attempt_rate",
    "fiber_transmittance",
    "link_mode_prob",
    "link_success_prob",
    "no_buffer_cutoff_time",
    "nv_attempt_rate",
    "nv_chain_rate",
    "nv_cutoff_time",
    "nv_link_success_prob",
    "nv_mode_prob",
    "routed_cutoff_time",
    "routed_rate",
    "routed_rate_no_buffer",
    "scenario_rate",
    "segment_rate",
    "segment_success_prob",
    "transfer_efficiency",
    "window_law",
    "window_success_prob",
]


class Scenario(enum.Enum):
    SEGMENT = "segment"
    NV_CHAIN = "nv-chain"
    ROUTED = "routed"
    ROUTED_NO_BUFFER = "routed-nobuffer"


# The per-row code compares against module names, not Scenario.X (see network._CONFIG_A).
_SEGMENT, _NV_CHAIN, _ROUTED, _ROUTED_NO_BUFFER = (
    Scenario.SEGMENT, Scenario.NV_CHAIN, Scenario.ROUTED, Scenario.ROUTED_NO_BUFFER)


def _scenario_message(scenario) -> str:
    """The message for a scenario argument that is not a Scenario member."""
    return f"scenario = {scenario!r} must be a Scenario"


class RateReport(NamedTuple):
    scenario: Scenario
    tau_s: float | None      # window duration; None for the windowless segment scenario
    tau_clamped: bool
    p_segment: float         # per-attempt segment success, or per-window success
    rate_hz: float
    attempts_per_window: float | None


def _clip01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def fiber_transmittance(profile: ParameterProfile, ell_km: float) -> float:
    return 10.0 ** (-profile.alpha_db_per_km * ell_km / 10.0)


def link_mode_prob(profile: ParameterProfile, ell_km: float) -> float:
    """Probability that one spectral mode of an elementary link heralds."""
    return _clip01(fiber_transmittance(profile, ell_km) * profile.eta_bsm * profile.eta_det ** 2)


def nv_mode_prob(profile: ParameterProfile, ell_km: float) -> float:
    """Probability that one temporal mode of a spin-photon link heralds."""
    return _clip01(
        profile.eta_qfc_1588 ** 2 * fiber_transmittance(profile, ell_km) * profile.eta_bsm
    )


def link_success_prob(profile: ParameterProfile, ell_km: float) -> float:
    """Per-attempt success probability of one multiplexed elementary link.

    Any of the gamma_f spectral modes may herald at the midpoint measurement,
    then both stored halves must be retrieved and mode-mapped.
    """
    if not ell_km >= 0:
        raise ValueError(f"ell_km = {ell_km!r} must be >= 0")
    p_any = 1.0 - (1.0 - link_mode_prob(profile, ell_km)) ** profile.gamma_f
    return _clip01(p_any * (profile.eta_afc * profile.eta_shift) ** 2)


def nv_link_success_prob(profile: ParameterProfile, ell_km: float) -> float:
    """Per-attempt success probability of one spin-photon elementary link."""
    if not ell_km >= 0:
        raise ValueError(f"ell_km = {ell_km!r} must be >= 0")
    return _clip01(1.0 - (1.0 - nv_mode_prob(profile, ell_km)) ** profile.gamma_t)


def transfer_efficiency(
    profile: ParameterProfile,
    config: Config,
    n: int,
    include_buffer: bool = True,
) -> float:
    """End-of-segment state-transfer efficiency into a router memory.

    Configuration A pays an extra memory recall per additional link in the
    segment. include_buffer=False models the buffer-free handoff.
    """
    if n < 1:
        raise ValueError(f"n = {n!r} must be >= 1")
    eta = profile.eta_qfc_637 * profile.eta_pol * profile.eta_map * profile.eta_c13
    if include_buffer:
        eta *= profile.eta_buff
    if config is _CONFIG_A:
        eta *= profile.eta_afc ** (n - 1)
    elif config is not _CONFIG_B:
        raise ValueError(_config_message(config))
    return eta


def segment_success_prob(
    profile: ParameterProfile,
    design: NetworkDesign,
    include_buffer: bool = True,
) -> float:
    """Per-attempt probability that a whole segment delivers a router-router pair.

    All n links succeed, the n-1 in-segment swaps succeed, and both ends
    transfer into their routers.
    """
    p_link = link_success_prob(profile, design.ell_km)
    eta = transfer_efficiency(profile, design.config, design.n, include_buffer)
    return _clip01(eta ** 2 * p_link ** design.n * profile.eta_bsm ** (design.n - 1))


def attempt_rate(profile: ParameterProfile) -> float:
    """Segment attempt rate, Hz: useful source emissions per second."""
    return profile.eta_epps * profile.r_epps


def nv_attempt_rate(ell_km: float) -> float:
    """Spin-photon link attempt rate, Hz: one attempt per link traversal."""
    if not ell_km > 0:
        raise ValueError(f"ell_km = {ell_km!r} must be > 0")
    omega = SIGNAL_VELOCITY_KM_PER_S / ell_km
    if math.isinf(omega):
        raise ValueError(f"ell_km = {ell_km!r} gives an attempt rate a float cannot hold")
    return omega


def segment_rate(profile: ParameterProfile, design: NetworkDesign) -> RateReport:
    """Pair rate between the two routers of a single segment (no window)."""
    p_seg = segment_success_prob(profile, design)
    return RateReport(_SEGMENT, None, False, p_seg, attempt_rate(profile) * p_seg, None)


class WindowLaw(NamedTuple):
    """Fixed-window law: each station attempts at rate omega, with success
    p_attempt, during usable_fraction of the window less the handoff floor_s.
    """

    omega: float
    p_attempt: float
    stations: int
    usable_fraction: float
    floor_s: float
    t_max: float

    def clamp(self, tau_s: float) -> tuple[float, bool]:
        """The one window rule: above t_max, (t_max, True); any other window, (tau_s, False)."""
        # Only a value with __float__ compares with a float: not None, a str or a complex.
        if not (hasattr(tau_s, "__float__") and tau_s > 0):
            raise ValueError(f"tau_s = {tau_s!r} must be > 0")
        return (self.t_max, True) if tau_s > self.t_max else (tau_s, False)

    def cutoff(self, epsilon: float) -> tuple[float, bool]:
        """Smallest window such that all stations succeed w.p. 1 - epsilon, clamped.

        Degenerate probabilities resolve to the continuous limits: certain
        success needs no search time; impossible success, or no attempts at
        all, saturates the storage budget.
        """
        if not (hasattr(epsilon, "__float__") and 0.0 < epsilon < 1.0):
            raise ValueError(f"epsilon = {epsilon!r} must lie in (0, 1)")
        if not self.stations >= 1:
            raise ValueError(f"stations = {self.stations!r} must be >= 1")
        if not 0.0 < self.usable_fraction <= 1.0:
            raise ValueError(f"usable_fraction = {self.usable_fraction!r} must lie in (0, 1]")
        if self.omega <= 0.0 or self.p_attempt <= 0.0:
            return self.t_max, True
        if self.p_attempt >= 1.0:
            return self.floor_s, False
        per_station_failure = 1.0 - (1.0 - epsilon) ** (1.0 / self.stations)
        if per_station_failure <= 0.0:
            # epsilon too small to show in one station's share: no finite window meets it.
            return self.t_max, True
        return self.clamp(
            1.0 / self.usable_fraction / self.omega * math.log(per_station_failure)
            / math.log1p(-self.p_attempt) + self.floor_s
        )

    def usable_s(self, tau_s: float) -> float:
        """Attempt time inside a window of tau_s; negative when the window is too short."""
        return tau_s * self.usable_fraction - self.floor_s

    def attempts(self, tau_s: float) -> float:
        """Real-valued attempts per station in a window of tau_s."""
        return max(0.0, self.omega * self.usable_s(tau_s))


def window_success_prob(p_attempt: float, attempts: float) -> float:
    """Probability that a station succeeds at least once in `attempts` tries."""
    if attempts <= 0.0 or p_attempt <= 0.0:
        return 0.0
    if p_attempt >= 1.0:
        return 1.0
    return -math.expm1(attempts * math.log1p(-p_attempt))


def window_law(scenario: Scenario, profile: ParameterProfile, design: NetworkDesign) -> WindowLaw:
    """The one place that maps a windowed scenario to its window law."""
    t = timings(design, profile)
    if scenario is _NV_CHAIN:
        # The link law checks ell_km first, so a nan length gets its message.
        p_link = nv_link_success_prob(profile, design.ell_km)
        return WindowLaw(nv_attempt_rate(design.ell_km), p_link, design.n, 0.5,
                         t.t_trans_tilde, profile.t_nv)
    if scenario is _ROUTED or scenario is _ROUTED_NO_BUFFER:
        # Without buffers a segment only attempts during half of the window.
        buffered = scenario is _ROUTED
        return WindowLaw(attempt_rate(profile), segment_success_prob(profile, design, buffered),
                         design.big_n, 1.0 if buffered else 0.5, t.t_trans, profile.t_nv)
    if scenario is _SEGMENT:
        raise ValueError(f"scenario {scenario!r} has no window")
    raise ValueError(_scenario_message(scenario))


def _window_rate(
    scenario: Scenario,
    profile: ParameterProfile,
    design: NetworkDesign,
    tau_s: float | None,
) -> RateReport:
    """Rate report over the cutoff window, or over tau_s clamped into range."""
    law = window_law(scenario, profile, design)
    tau, clamped = law.cutoff(design.epsilon) if tau_s is None else law.clamp(tau_s)
    attempts = law.attempts(tau)
    p_window = window_success_prob(law.p_attempt, attempts)
    return RateReport(scenario, tau, clamped, p_window, p_window ** law.stations / tau, attempts)


def nv_cutoff_time(profile: ParameterProfile, design: NetworkDesign) -> tuple[float, bool]:
    """Window duration for the homogeneous spin-photon chain."""
    return window_law(Scenario.NV_CHAIN, profile, design).cutoff(design.epsilon)


def nv_chain_rate(
    profile: ParameterProfile,
    design: NetworkDesign,
    tau_s: float | None = None,
) -> RateReport:
    """Window-rate lower bound for a chain of n spin-photon links."""
    return _window_rate(_NV_CHAIN, profile, design, tau_s)


def routed_cutoff_time(profile: ParameterProfile, design: NetworkDesign) -> tuple[float, bool]:
    """Window duration for the buffered routed chain."""
    return window_law(Scenario.ROUTED, profile, design).cutoff(design.epsilon)


def routed_rate(
    profile: ParameterProfile,
    design: NetworkDesign,
    tau_s: float | None = None,
) -> RateReport:
    """Window-rate lower bound for the buffered routed chain of big_n segments."""
    return _window_rate(_ROUTED, profile, design, tau_s)


def no_buffer_cutoff_time(profile: ParameterProfile, design: NetworkDesign) -> tuple[float, bool]:
    """Window duration for the buffer-free routed chain (half-window attempts)."""
    return window_law(Scenario.ROUTED_NO_BUFFER, profile, design).cutoff(design.epsilon)


def routed_rate_no_buffer(
    profile: ParameterProfile,
    design: NetworkDesign,
    tau_s: float | None = None,
) -> RateReport:
    """Window-rate lower bound without buffers.

    The per-attempt segment probability sheds both buffer passes (it is
    computed directly from the buffer-free transfer efficiency, never by
    dividing the buffered value) and each segment only attempts during half
    of the window.
    """
    return _window_rate(_ROUTED_NO_BUFFER, profile, design, tau_s)


def scenario_rate(
    scenario: Scenario,
    profile: ParameterProfile,
    design: NetworkDesign,
    tau_s: float | None = None,
) -> RateReport:
    """Rate report of any scenario; tau_s applies to the windowed scenarios only."""
    if scenario is _SEGMENT:
        return segment_rate(profile, design)
    if scenario is _NV_CHAIN:
        return nv_chain_rate(profile, design, tau_s)
    if scenario is _ROUTED:
        return routed_rate(profile, design, tau_s)
    if scenario is _ROUTED_NO_BUFFER:
        return routed_rate_no_buffer(profile, design, tau_s)
    raise ValueError(_scenario_message(scenario))
