"""Seeded Monte Carlo simulator providing statistical oracles for the closed forms.

Determinism contract: trials are processed in fixed-size chunks and chunk i of
a run draws from Generator(Philox(SeedSequence([master_seed, mode_salt, i]))).
Chunk tallies are integers and their sum is associative, so the estimate is
bit-identical for any worker count and any execution order. Within a chunk the
draw order is fixed and documented on each simulate function.

Attempt counts are floored to integers here (attempts are physical events);
the closed forms keep real exponents. Comparisons between the two must use
the floored closed form.

Window modes sample each station's within-window success one of two ways,
chosen deterministically from the per-window draw budget: attempt-by-attempt
Bernoulli draws when stations * attempts <= 512, otherwise inversion of the
time-to-first-success geometric law. The two are identical in distribution.
The attempt-by-attempt block of a chunk is drawn in slices of BLOCK_TRIALS
trials, which continue one stream and so draw the numbers of the whole block;
a chunk holds at most 1 MiB of draws at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .network import NetworkDesign
from .params import ParameterProfile
from .rates import (
    Scenario,
    WindowLaw,
    link_mode_prob,
    nv_mode_prob,
    transfer_efficiency,
    window_law,
    window_success_prob,
)

# numpy and the thread pool are imported by the draw kernels and
# simulate_scenario at first use, so the closed-form commands, which never
# draw, start without loading either.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "McConfig",
    "McEstimate",
    "McMode",
    "SCENARIO_MODES",
    "floored_attempts",
    "floored_window_rate",
    "simulate_link",
    "simulate_no_buffer",
    "simulate_nv_chain",
    "simulate_routed",
    "simulate_scenario",
    "simulate_segment",
    "window_reference",
]

CHUNK_TRIALS = 4096
PER_ATTEMPT_DRAW_LIMIT = 512
# Trials per slice of a per-attempt block: at most 1 MiB of float64 uniforms
# at PER_ATTEMPT_DRAW_LIMIT draws per trial.
BLOCK_TRIALS = 256

MAX_SEED = 2**64 - 1


class McMode(enum.Enum):
    MICRO_LINK = "micro-link"
    MICRO_SEGMENT = "micro-segment"
    WINDOW_ROUTED = "window-routed"
    WINDOW_NV = "window-nv"
    WINDOW_NO_BUFFER = "window-nobuffer"


# Frozen per-mode stream salts; changing one re-keys every estimate of that mode.
_MODE_SALTS = {
    McMode.MICRO_LINK: 1,
    McMode.MICRO_SEGMENT: 2,
    McMode.WINDOW_ROUTED: 3,
    McMode.WINDOW_NV: 4,
    McMode.WINDOW_NO_BUFFER: 5,
}

# The simulator that checks each closed-form scenario.
SCENARIO_MODES = {
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
        for name in ("master_seed", "trials", "workers"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ValueError(f"{name} = {value!r} must be an integer")
        if not 0 <= self.master_seed <= MAX_SEED:
            raise ValueError(f"master_seed = {self.master_seed!r} outside [0, 2^64)")
        if self.trials < 1:
            raise ValueError(f"trials = {self.trials!r} must be >= 1")
        if self.workers < 1:
            raise ValueError(f"workers = {self.workers!r} must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    mean: float        # probability for micro modes, rate in Hz for window modes
    std_error: float
    trials: int
    seed: int


def _chunk_rng(master_seed: int, salt: int, index: int) -> np.random.Generator:
    import numpy as np

    seq = np.random.SeedSequence([master_seed, salt, index])
    return np.random.Generator(np.random.Philox(seq))


def _run_chunks(cfg: McConfig, chunk_fn: Callable[[np.random.Generator, int], int]) -> int:
    salt = _MODE_SALTS[cfg.mode]
    n_chunks = (cfg.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS

    def run_chunk(index: int) -> int:
        count = min(CHUNK_TRIALS, cfg.trials - index * CHUNK_TRIALS)
        return chunk_fn(_chunk_rng(cfg.master_seed, salt, index), count)

    if cfg.workers == 1:
        return sum(run_chunk(i) for i in range(n_chunks))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return sum(pool.map(run_chunk, range(n_chunks)))


def _estimate(successes: int, cfg: McConfig, scale: float) -> McEstimate:
    p_hat = successes / cfg.trials
    std = math.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
    return McEstimate(
        mean=p_hat * scale,
        std_error=std * scale,
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
    gamma_f = profile.gamma_f

    def chunk(rng: np.random.Generator, count: int) -> int:
        import numpy as np

        return int(np.count_nonzero(_link_draw(rng, count, gamma_f, p_mode, retrieval)))

    return _estimate(_run_chunks(cfg, chunk), cfg, scale=1.0)


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
    gamma_f = profile.gamma_f
    n = design.n
    eta_bsm = profile.eta_bsm

    def chunk(rng: np.random.Generator, count: int) -> int:
        import numpy as np

        ok = np.ones(count, dtype=bool)
        for _link in range(n):
            ok &= _link_draw(rng, count, gamma_f, p_mode, retrieval)
        for _swap in range(n - 1):
            ok &= rng.random(count) < eta_bsm
        ok &= rng.random(count) < transfer
        ok &= rng.random(count) < transfer
        return int(np.count_nonzero(ok))

    return _estimate(_run_chunks(cfg, chunk), cfg, scale=1.0)


def _simulate_window(
    law: WindowLaw,
    tau_s: float,
    cfg: McConfig,
    micro_draw: Callable[[np.random.Generator, tuple[int, ...]], np.ndarray] | None = None,
) -> McEstimate:
    """Estimate a window rate: windows where every station succeeds within k attempts.

    k is the law's attempt count floored. Per-attempt path draw order: one
    (count, stations, k) block (uniforms, or micro_draw for mode-level
    sampling), drawn as consecutive slices of BLOCK_TRIALS trials. numpy fills
    each slice in C order and carries the stream from one call to the next, so
    the slices hold exactly the numbers of the one-shot block. Geometric path:
    one (count, stations) uniform block.
    """
    k = floored_attempts(law.omega, law.usable_s(tau_s))
    p_attempt = law.p_attempt
    stations = law.stations

    def chunk(rng: np.random.Generator, count: int) -> int:
        import numpy as np

        if k <= 0 or p_attempt <= 0.0:
            return 0
        if p_attempt >= 1.0:
            return count
        if stations * k <= PER_ATTEMPT_DRAW_LIMIT:
            if micro_draw is None:
                u = np.empty((min(count, BLOCK_TRIALS), stations, k))
            windows = 0
            for start in range(0, count, BLOCK_TRIALS):
                rows = min(BLOCK_TRIALS, count - start)
                if micro_draw is not None:
                    station_ok = micro_draw(rng, (rows, stations, k)).any(axis=2)
                else:
                    # A station succeeds when any uniform, so its smallest, is < p_attempt.
                    station_ok = rng.random(out=u[:rows]).min(axis=2) < p_attempt
                windows += int(np.count_nonzero(station_ok.all(axis=1)))
            return windows
        u = rng.random((count, stations))
        with np.errstate(divide="ignore"):
            first_success = np.floor(np.log(u) / math.log1p(-p_attempt)) + 1.0
        return int(np.count_nonzero((first_success <= k).all(axis=1)))

    return _estimate(_run_chunks(cfg, chunk), cfg, scale=1.0 / tau_s)


def window_reference(law: WindowLaw, tau_s: float) -> float:
    """floored_window_rate of a window law: the comparison target of _simulate_window."""
    k = floored_attempts(law.omega, law.usable_s(tau_s))
    return floored_window_rate(law.p_attempt, k, law.stations, tau_s)


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

    Attempts are sampled at the temporal-mode level: each attempt draws a
    binomial over gamma_t modes and succeeds when any mode heralds.
    """
    _require_mode(cfg, McMode.WINDOW_NV)
    p_mode = nv_mode_prob(profile, design.ell_km)
    gamma_t = profile.gamma_t

    def micro_draw(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        return rng.binomial(gamma_t, p_mode, size=shape) >= 1

    return _simulate_window(window_law(Scenario.NV_CHAIN, profile, design), tau_s, cfg, micro_draw)


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
    # Load numpy, and the thread pool when one is used, here before dispatch, so
    # that the first estimate of a process does not book the imports as time
    # spent in its simulator.
    import numpy  # noqa: F401

    if cfg.workers > 1:
        import concurrent.futures  # noqa: F401

    if cfg.mode is McMode.MICRO_LINK:
        return simulate_link(profile, design.ell_km, cfg)
    if cfg.mode is McMode.MICRO_SEGMENT:
        return simulate_segment(profile, design, cfg)
    if cfg.mode is McMode.WINDOW_NV:
        return simulate_nv_chain(profile, design, tau_s, cfg)
    if cfg.mode is McMode.WINDOW_ROUTED:
        return simulate_routed(profile, design, tau_s, cfg)
    return simulate_no_buffer(profile, design, tau_s, cfg)
