"""Seeded Monte Carlo simulator providing statistical oracles for the closed forms.

Determinism contract: trials are processed in fixed-size chunks and chunk i of
a run draws from Generator(Philox(SeedSequence([master_seed, mode_salt, i]))).
Chunk contract: a mode's kernel takes a chunk's generator and trial count and
returns that chunk's per-trial boolean success vector; only _run_chunks seeds,
counts and pools. Chunk tallies are integers and their sum is associative, so
the estimate is bit-identical for any worker count and any execution order.
Within a chunk the draw order is fixed and documented on each simulate function.

Attempt counts are floored to integers here (attempts are physical events);
the closed forms keep real exponents. Comparisons between the two must use
the floored closed form.

Window modes draw one first-herald index per station and trial, Geometric(p_attempt)
or, for the mode-level spin-photon chain, Geometric(p_mode) over k * gamma_t mode
trials, and a station succeeds when its index is at most its k (or k * gamma_t)
trials: exactly the law of at least one herald among them. A window that no draw
can change (k = 0, p_attempt 0 or 1, or k * p_attempt so large that a station
fails with probability below the smallest positive double) is tallied exactly,
and seeds and loads nothing.

Chunks run inline unless each of at least two threads gets four chunks or more:
threads = min(workers, chunks // 4). A smaller pool costs more to start than it
saves, so an estimate of fewer than 8 chunks never imports concurrent.futures.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from .network import NetworkDesign
from .params import ParameterProfile, _check_mc_settings, _real
from .rates import (
    Scenario,
    WindowLaw,
    link_mode_prob,
    nv_mode_prob,
    transfer_efficiency,
    window_law,
    window_success_prob,
)

# numpy and the thread pool are imported by _run_chunks at first use, so the
# closed-form commands and the fixed-outcome windows, which never draw, start
# without loading either.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "McConfig",
    "McEstimate",
    "McMode",
    "floored_attempts",
    "floored_window_rate",
    "simulate_link",
    "simulate_no_buffer",
    "simulate_nv_chain",
    "simulate_routed",
    "simulate_scenario",
    "simulate_segment",
]

CHUNK_TRIALS = 4096
# The window kernel no longer branches on this draw budget; it only splits the
# bench's window spans into `per-attempt` (stations * k at most this) and `geometric`.
PER_ATTEMPT_DRAW_LIMIT = 512
# numpy's binomial count is an int64; a link draw takes at most 2^63 - 1 spectral modes.
_BINOMIAL_LIMIT = 2**63
# numpy's geometric index is an int64 that saturates at 2^63 - 1 for a tiny p, and a
# saturated draw must compare as a failure, so a station's herald trials stay below it.
_GEOMETRIC_LIMIT = 2**63 - 1
# First-herald indices in one chunk's (count, stations) block: 2^22 int64 are 32 MiB.
MAX_BLOCK_COUNTS = 2**22


class McMode(enum.Enum):
    MICRO_LINK = "micro-link"
    MICRO_SEGMENT = "micro-segment"
    WINDOW_ROUTED = "window-routed"
    WINDOW_NV = "window-nv"
    WINDOW_NO_BUFFER = "window-nobuffer"


# Frozen per-mode stream salts; changing one re-keys every estimate of that mode.
# Salts 3-8 keyed retired window kernels (3-5 per-attempt and log inversion, 6-8
# binomial counts); never reuse them.
_MODE_SALTS = {
    McMode.MICRO_LINK: 1,
    McMode.MICRO_SEGMENT: 2,
    McMode.WINDOW_ROUTED: 9,
    McMode.WINDOW_NV: 10,
    McMode.WINDOW_NO_BUFFER: 11,
}

# The simulator that checks each closed-form scenario.
_SCENARIO_MODES = {
    Scenario.SEGMENT: McMode.MICRO_SEGMENT,
    Scenario.NV_CHAIN: McMode.WINDOW_NV,
    Scenario.ROUTED: McMode.WINDOW_ROUTED,
    Scenario.ROUTED_NO_BUFFER: McMode.WINDOW_NO_BUFFER,
}


@dataclass(frozen=True)
class McConfig:
    master_seed: int
    trials: int
    mode: McMode
    workers: int = 1

    def __post_init__(self) -> None:
        _check_mc_settings(self.master_seed, self.trials, self.workers)
        if not isinstance(self.mode, McMode):
            raise ValueError(f"mode = {self.mode!r} must be an McMode")


class McEstimate(NamedTuple):
    mean: float        # probability for micro modes, rate in Hz for window modes
    std_error: float
    trials: int
    seed: int


def _chunk_rng(master_seed: int, salt: int, index: int) -> np.random.Generator:
    import numpy as np

    seq = np.random.SeedSequence([master_seed, salt, index])
    return np.random.Generator(np.random.Philox(seq))


def _run_chunks(cfg: McConfig, chunk_fn: Callable[[np.random.Generator, int], np.ndarray]) -> int:
    """Successes over cfg.trials; chunk_fn returns one chunk's per-trial success vector."""
    # Only estimates that draw get here; load the lazy numpy.random before any worker starts.
    import numpy.random

    salt = _MODE_SALTS[cfg.mode]
    chunks = range((cfg.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS)

    def run_chunk(index: int) -> int:
        count = min(CHUNK_TRIALS, cfg.trials - index * CHUNK_TRIALS)
        return int(numpy.count_nonzero(chunk_fn(_chunk_rng(cfg.master_seed, salt, index), count)))

    # Each thread gets four chunks or more; a smaller pool costs more than it saves.
    threads = min(cfg.workers, len(chunks) // 4)
    if threads <= 1:
        return sum(map(run_chunk, chunks))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(run_chunk, chunks))


def _estimate(successes: int, cfg: McConfig, tau_s: float = 1.0) -> McEstimate:
    """Success probability, or a rate over windows of tau_s (0 / subnormal tau_s is 0)."""
    p_hat = successes / cfg.trials
    std = math.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
    return McEstimate(
        mean=p_hat / tau_s,
        std_error=std / tau_s,
        trials=cfg.trials,
        seed=cfg.master_seed,
    )


def _require_mode(cfg: McConfig, mode: McMode) -> None:
    if cfg.mode is not mode:
        raise ValueError(f"config mode is {cfg.mode.value!r}, expected {mode.value!r}")


def floored_attempts(omega: float, usable_window_s: float) -> int:
    """Whole attempts that fit in the usable part of a window."""
    return max(0, math.floor(omega * usable_window_s))


def floored_window_rate(p_attempt: float, k: int, stations: int, tau_s: float) -> float:
    """Closed-form window rate evaluated with an integer attempt count.

    This is the comparison target for the window simulators: same success law,
    same discretization, so discrepancies are pure sampling error.
    """
    return window_success_prob(p_attempt, k) ** stations / tau_s


def _spectral_modes(profile: ParameterProfile) -> int:
    """gamma_f, checked to fit the trial count of one binomial draw."""
    if profile.gamma_f >= _BINOMIAL_LIMIT:
        raise ValueError(
            f"gamma_f = {profile.gamma_f!r} spectral modes exceed one binomial draw's "
            f"2^63 - 1 trials")
    return profile.gamma_f


def _link_draw(
    rng: np.random.Generator, count: int, gamma_f: int, p_mode: float, retrieval: float
) -> np.ndarray:
    """One attempt per trial on one link: any spectral mode heralds, both halves retrieved."""
    heralded = rng.binomial(gamma_f, p_mode, size=count) >= 1
    kept = rng.random(count) < retrieval
    kept &= rng.random(count) < retrieval
    return heralded & kept


def simulate_link(profile: ParameterProfile, ell_km: float, cfg: McConfig) -> McEstimate:
    """Estimate the per-attempt link success probability at the mode level.

    Draw order per chunk: spectral-mode binomial, then the two retrieval
    uniforms.
    """
    _require_mode(cfg, McMode.MICRO_LINK)
    p_mode = link_mode_prob(profile, ell_km)
    retrieval = profile.eta_afc * profile.eta_shift
    gamma_f = _spectral_modes(profile)
    return _estimate(_run_chunks(
        cfg, lambda rng, count: _link_draw(rng, count, gamma_f, p_mode, retrieval)), cfg)


def simulate_segment(profile: ParameterProfile, design: NetworkDesign, cfg: McConfig) -> McEstimate:
    """Estimate the per-attempt segment success probability.

    Draw order per chunk: for each link a spectral-mode binomial and two
    retrieval uniforms, then the n-1 swap uniforms, then the two transfer
    uniforms.
    """
    _require_mode(cfg, McMode.MICRO_SEGMENT)
    p_mode = link_mode_prob(profile, design.ell_km)
    retrieval = profile.eta_afc * profile.eta_shift
    transfer = transfer_efficiency(profile, design.config, design.n)
    gamma_f = _spectral_modes(profile)
    n = design.n
    eta_bsm = profile.eta_bsm

    def chunk(rng: np.random.Generator, count: int) -> np.ndarray:
        ok = _link_draw(rng, count, gamma_f, p_mode, retrieval)
        for _link in range(n - 1):
            ok &= _link_draw(rng, count, gamma_f, p_mode, retrieval)
        for _swap in range(n - 1):
            ok &= rng.random(count) < eta_bsm
        ok &= rng.random(count) < transfer
        ok &= rng.random(count) < transfer
        return ok

    return _estimate(_run_chunks(cfg, chunk), cfg)


def _window_outcome(law: WindowLaw, tau_s: float) -> tuple[float, int, bool | None]:
    """(tau, k, fixed): the window as the Python int or float it holds, floored attempts
    per station, and every window's outcome when no draw can change it, else None. False:
    k = 0 or p_attempt 0. True: p_attempt 1, or k * p_attempt >= 745, so a station fails
    with probability under e^-745 (0.0 in double).
    """
    tau = tau_s if type(tau_s) is float else _real(tau_s)
    if tau is None or not tau > 0:
        raise ValueError(f"tau_s = {tau_s!r} must be > 0")
    usable_s = law.usable_s(tau)
    if usable_s <= 0.0:
        return tau, 0, False
    if math.isinf(law.omega * usable_s):
        raise ValueError(f"tau_s = {tau_s!r} holds more attempts than a float can count")
    k = floored_attempts(law.omega, usable_s)
    if k <= 0 or law.p_attempt <= 0.0:
        return tau, k, False
    if law.p_attempt >= 1.0 or k * law.p_attempt >= 745.0:
        return tau, k, True
    return tau, k, None


def _simulate_window(
    law: WindowLaw,
    tau_s: float,
    cfg: McConfig,
    modes: int = 1,
    p_mode: float | None = None,
) -> McEstimate:
    """Estimate a window rate: windows where every station succeeds within k attempts.

    Each of a station's k attempts tries `modes` modes that herald with p_mode
    (one mode with law.p_attempt by default). Draw order per chunk: one
    (count, stations) block of Geometric(p) first-herald indices; a station
    succeeds when its index is at most k * modes. A window with a fixed outcome
    is tallied exactly, without seeding or drawing; one whose block would exceed
    MAX_BLOCK_COUNTS is rejected before any seeding.
    """
    tau_s, k, fixed = _window_outcome(law, tau_s)
    if fixed is not None:
        return _estimate(cfg.trials if fixed else 0, cfg, tau_s)
    block = min(CHUNK_TRIALS, cfg.trials) * law.stations
    if block > MAX_BLOCK_COUNTS:
        field = "n" if cfg.mode is McMode.WINDOW_NV else "big_n"
        raise ValueError(f"{field} = {law.stations!r} stations draw {block} herald indices per "
                         f"chunk, over the {MAX_BLOCK_COUNTS} limit")
    trials = k * modes
    if trials >= _GEOMETRIC_LIMIT:
        raise ValueError(f"tau_s = {tau_s!r} gives 2^63 - 1 or more herald trials per station")
    p = law.p_attempt if p_mode is None else p_mode

    def chunk(rng: np.random.Generator, count: int) -> np.ndarray:
        return (rng.geometric(p, size=(count, law.stations)) <= trials).all(axis=1)

    return _estimate(_run_chunks(cfg, chunk), cfg, tau_s)


def _window_reference(law: WindowLaw, tau_s: float) -> float:
    """floored_window_rate of a window law: the comparison target of _simulate_window."""
    return floored_window_rate(law.p_attempt, _window_outcome(law, tau_s)[1], law.stations, tau_s)


def simulate_routed(
    profile: ParameterProfile,
    design: NetworkDesign,
    tau_s: float,
    cfg: McConfig,
) -> McEstimate:
    """Estimate the buffered routed-chain rate over fixed windows of tau_s."""
    _require_mode(cfg, McMode.WINDOW_ROUTED)
    return _simulate_window(window_law(Scenario.ROUTED, profile, design), tau_s, cfg)


def simulate_nv_chain(
    profile: ParameterProfile,
    design: NetworkDesign,
    tau_s: float,
    cfg: McConfig,
) -> McEstimate:
    """Estimate the spin-photon chain rate over fixed windows of tau_s.

    Attempts are sampled at the temporal-mode level: a station heralds in k
    attempts of gamma_t modes each when its Geometric(p_mode) first-herald
    index is at most k * gamma_t.
    """
    _require_mode(cfg, McMode.WINDOW_NV)
    return _simulate_window(window_law(Scenario.NV_CHAIN, profile, design), tau_s, cfg,
                            profile.gamma_t, nv_mode_prob(profile, design.ell_km))


def simulate_no_buffer(
    profile: ParameterProfile,
    design: NetworkDesign,
    tau_s: float,
    cfg: McConfig,
) -> McEstimate:
    """Estimate the buffer-free routed-chain rate over windows of tau_s.

    Per-attempt segment success is sampled from the buffer-free pipeline law,
    and only half of each window is usable for attempts.
    """
    _require_mode(cfg, McMode.WINDOW_NO_BUFFER)
    return _simulate_window(window_law(Scenario.ROUTED_NO_BUFFER, profile, design), tau_s, cfg)


def simulate_scenario(
    profile: ParameterProfile,
    design: NetworkDesign,
    tau_s: float | None,
    cfg: McConfig,
) -> McEstimate:
    """One estimate for cfg.mode; micro modes ignore tau_s, micro-link reads only ell_km."""
    if cfg.mode is McMode.MICRO_LINK:
        return simulate_link(profile, design.ell_km, cfg)
    if cfg.mode is McMode.MICRO_SEGMENT:
        return simulate_segment(profile, design, cfg)
    if cfg.mode is McMode.WINDOW_NV:
        return simulate_nv_chain(profile, design, tau_s, cfg)
    if cfg.mode is McMode.WINDOW_ROUTED:
        return simulate_routed(profile, design, tau_s, cfg)
    return simulate_no_buffer(profile, design, tau_s, cfg)
