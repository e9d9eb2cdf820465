"""End-to-end fidelity of the distributed pairs, via Werner-state algebra.

Every imperfect stage acts as a depolarizing channel, so a chain of stages
multiplies Werner weights. The scalar pipeline here computes those products
in closed form; compose_oracle replays the same stages on an explicit 4x4
density matrix and must agree to 1e-12, giving an independent check of the
bookkeeping (stage multiplicities, storage decay, router swaps).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .network import _CONFIG_A, _CONFIG_B, Config, NetworkDesign, _config_message
from .params import (
    _FIDELITY_FIELDS, DEFAULT_DECOHERENCE_RATE_PER_S, ParameterProfile, _check_fidelity, _real)

# numpy is imported inside the oracle only, so the closed-form commands,
# which never call it, start without loading numpy.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "InternalCheckError",
    "WernerReport",
    "compose_oracle",
    "decohere",
    "end_to_end_report",
    "fidelity_to_werner",
    "profile_stage_fidelities",
    "qber",
    "router_pair_werner",
    "werner_to_fidelity",
]

_TRACE_TOL = 1e-10


class InternalCheckError(RuntimeError):
    """Raised when an internal consistency invariant fails; indicates a bug."""


class WernerReport(NamedTuple):
    w_link: float                 # one elementary pair
    w_segment: float              # n links swapped into one segment pair
    w_transfer: float             # state transfer into a router memory
    w_router_pair: float          # router-router pair before storage
    w_router_pair_stored: float   # after storing for tau_s
    w_end_to_end: float           # after all router swaps and readout
    fidelity: float
    qber: float
    tau_s: float


def fidelity_to_werner(f: float, name: str = "fidelity") -> float:
    """Werner weight of a state with Bell fidelity f, for f in [0.25, 1].

    An f outside that range raises a ValueError naming name (a profile field, say).
    """
    return (4.0 * _check_fidelity(name, f) - 1.0) / 3.0


def werner_to_fidelity(w: float) -> float:
    """Bell fidelity of a Werner state with weight w, for w in [0, 1]."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"Werner weight {w!r} outside [0, 1]")
    return (3.0 * w + 1.0) / 4.0


def qber(f: float) -> float:
    """Bit-error probability of measurements on a Werner pair of fidelity f."""
    return 2.0 / 3.0 * (1.0 - _check_fidelity("fidelity", f))


def decohere(
    w: float,
    tau_s: float,
    rate_per_s: float = DEFAULT_DECOHERENCE_RATE_PER_S,
) -> float:
    """Werner weight after storing one qubit of the pair for tau_s seconds."""
    tau = tau_s if type(tau_s) is float else _real(tau_s)
    if tau is None or not tau >= 0:
        raise ValueError(f"tau_s = {tau_s!r} must be >= 0")
    return w * math.exp(-rate_per_s * tau)


class _StageWeights(NamedTuple):
    """The Werner weights that depend on the profile alone."""

    bsm: float
    afc: float
    link: float      # one elementary pair: the midpoint swap of two stored halves
    transfer: float  # the four stages moving one segment end into a router memory
    c13: float
    cnot: float
    rout: float


def _profile_weights(profile: ParameterProfile) -> _StageWeights:
    """The profile's stage weights, each stage fidelity checked and converted once.

    A stage fidelity outside [0.25, 1] raises naming its field. Profiles
    memoize the result as ParameterProfile._werner_weights; read it there.
    """
    epps, afc, bsm, ffsmm, buff, qfc, tb_pol, map_, c13, cnot, rout = (
        fidelity_to_werner(getattr(profile, name), name) for name in _FIDELITY_FIELDS)
    return _StageWeights(bsm, afc, bsm * (epps * afc * ffsmm) ** 2,
                         buff * qfc * tb_pol * map_, c13, cnot, rout)


def _pair_weights(profile: ParameterProfile, config: Config, n: int) -> tuple[float, float, float]:
    """Werner weights (w_link, w_segment, w_transfer) before storage.

    n links are swapped into one segment pair; each segment end then
    transfers into a router memory, configuration A paying one memory recall
    per extra link.
    """
    if n < 1:
        raise ValueError(f"n = {n!r} must be >= 1")
    w_bsm, w_afc, w_link, w_transfer, _, _, _ = profile._werner_weights
    if config is _CONFIG_A:
        w_transfer *= w_afc ** (n - 1)
    elif config is not _CONFIG_B:
        raise ValueError(_config_message(config))
    return w_link, w_bsm ** (n - 1) * w_link ** n, w_transfer


def _storage_factor(w_c13: float, tau_s: float, rate_per_s: float) -> float:
    # Storage is a discrete event: a pair held for exactly zero time never
    # enters the memory, so the swap-fidelity penalty does not apply either.
    # Every other tau_s, nan included, is checked by decohere.
    if tau_s == 0.0:
        return 1.0
    return decohere(w_c13, tau_s, rate_per_s) ** 2


def router_pair_werner(
    profile: ParameterProfile,
    config: Config,
    n: int,
    tau_s: float,
) -> float:
    """Werner weight of a router-router pair after storage for tau_s."""
    _, w_segment, w_transfer = _pair_weights(profile, config, n)
    return w_segment * w_transfer ** 2 * _storage_factor(
        profile._werner_weights.c13, tau_s, profile.decoherence_rate_per_s
    )


def end_to_end_report(
    profile: ParameterProfile,
    design: NetworkDesign,
    tau_s: float,
) -> WernerReport:
    """Full pipeline report for a routed chain of big_n segments.

    The storage decay is a worst case: every router pair is stored for the
    whole window tau_s, where a segment that heralds before the window ends
    waits only for the rest of it.
    """
    w_link, w_segment, w_transfer = _pair_weights(profile, design.config, design.n)
    weights = profile._werner_weights
    w_pair = w_segment * w_transfer ** 2
    storage = _storage_factor(weights.c13, tau_s, profile.decoherence_rate_per_s)
    w_pair_stored = w_pair * storage
    # Left to right: grouping cnot * rout first moves the last bit of some fidelities.
    router_factor = storage * weights.cnot * weights.rout
    w_end = w_pair_stored ** design.big_n * router_factor ** (design.big_n - 1)
    f_end = werner_to_fidelity(w_end)
    return WernerReport(w_link, w_segment, w_transfer, w_pair, w_pair_stored, w_end,
                        f_end, qber(f_end), tau_s)


# Order of the stage-fidelity sequence consumed by compose_oracle: the profile's
# fidelity fields, in their declared order.
STAGE_ORDER = _FIDELITY_FIELDS


def profile_stage_fidelities(profile: ParameterProfile) -> tuple[float, ...]:
    """Stage fidelities of a profile in the STAGE_ORDER sequence."""
    return tuple(getattr(profile, name) for name in STAGE_ORDER)


def _check_state(rho: np.ndarray) -> None:
    import numpy as np

    if abs(np.trace(rho).real - 1.0) > _TRACE_TOL:
        raise InternalCheckError(f"density matrix trace drifted: {np.trace(rho)!r}")
    if np.abs(rho - rho.conj().T).max() > _TRACE_TOL:
        raise InternalCheckError("density matrix lost Hermiticity")


def _depolarize(rho: np.ndarray, alpha: float) -> np.ndarray:
    import numpy as np

    rho = alpha * rho + (1.0 - alpha) / 4.0 * np.eye(4)
    _check_state(rho)
    return rho


def compose_oracle(
    stage_fidelities: Sequence[float],
    tau_s: float,
    n: int,
    big_n: int,
    config: Config,
    decoherence_rate_per_s: float = DEFAULT_DECOHERENCE_RATE_PER_S,
) -> float:
    """Replay the whole pipeline as explicit depolarizing channels on a 4x4 state.

    stage_fidelities follows STAGE_ORDER: (epps, afc, bsm, ffsmm, buff, qfc,
    tb_pol, map, c13, cnot, rout). Returns the Bell fidelity of the final
    state; must match the scalar pipeline to 1e-12.
    """
    if len(stage_fidelities) != len(STAGE_ORDER):
        raise ValueError(
            f"expected {len(STAGE_ORDER)} stage fidelities, got {len(stage_fidelities)}"
        )
    if n < 1 or big_n < 1:
        raise ValueError("n and big_n must be >= 1")
    if not tau_s >= 0:
        raise ValueError(f"tau_s = {tau_s!r} must be >= 0")
    if config is not _CONFIG_A and config is not _CONFIG_B:
        raise ValueError(_config_message(config))
    w = {
        name: fidelity_to_werner(f, name)
        for name, f in zip(STAGE_ORDER, stage_fidelities)
    }
    decay = math.exp(-decoherence_rate_per_s * tau_s)

    import numpy as np

    # Bell state (|00> + |11>) / sqrt(2) in basis order 00, 01, 10, 11.
    phi_plus = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    rho = np.outer(phi_plus, phi_plus)
    _check_state(rho)
    for _segment in range(big_n):
        for _link in range(n):
            for alpha in (w["f_epps"], w["f_epps"], w["f_afc"], w["f_afc"],
                          w["f_ffsmm"], w["f_ffsmm"], w["f_bsm"]):
                rho = _depolarize(rho, alpha)
        for _swap in range(n - 1):
            rho = _depolarize(rho, w["f_bsm"])
        for alpha in (w["f_buff"], w["f_qfc"], w["f_tb_pol"], w["f_map"]):
            rho = _depolarize(rho, alpha)
            rho = _depolarize(rho, alpha)
        if config is _CONFIG_A:
            for _extra in range(2 * (n - 1)):
                rho = _depolarize(rho, w["f_afc"])
        if tau_s > 0.0:
            for _held_side in range(2):
                rho = _depolarize(rho, w["f_c13"])
                rho = _depolarize(rho, decay)
    for _router in range(big_n - 1):
        if tau_s > 0.0:
            for _held_side in range(2):
                rho = _depolarize(rho, w["f_c13"])
                rho = _depolarize(rho, decay)
        rho = _depolarize(rho, w["f_cnot"])
        rho = _depolarize(rho, w["f_rout"])
    return float(phi_plus @ rho @ phi_plus)
