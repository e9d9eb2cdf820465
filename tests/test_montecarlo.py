import concurrent.futures
import dataclasses
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from repchain import (
    Config,
    McConfig,
    McMode,
    NetworkDesign,
    attempt_rate,
    builtin_profile,
    floored_attempts,
    floored_window_rate,
    link_success_prob,
    nv_attempt_rate,
    nv_link_success_prob,
    segment_success_prob,
    simulate_link,
    simulate_no_buffer,
    simulate_nv_chain,
    simulate_routed,
    simulate_segment,
    timings,
)
from repchain import montecarlo
from repchain.montecarlo import (
    _MODE_SALTS,
    CHUNK_TRIALS,
    MAX_BLOCK_COUNTS,
    PER_ATTEMPT_DRAW_LIMIT,
    McEstimate,
    _chunk_rng,
    _run_chunks,
    _simulate_window,
)
from repchain.params import MAX_SEED, MAX_WORKERS
from repchain.rates import WindowLaw

LONG_ELL = 59.99999999999999
TAU_ROUTED_LONG = 0.0008043212020616748
TAU_NB_NEAR = 0.018644620977591415


def _design(ell, n, big_n):
    return NetworkDesign(Config.A, ell, n, big_n)


def test_mcconfig_validation():
    McConfig(MAX_SEED, 1, McMode.MICRO_LINK)
    with pytest.raises(ValueError):
        McConfig(0, 0, McMode.MICRO_LINK)
    with pytest.raises(ValueError):
        McConfig(-1, 10, McMode.MICRO_LINK)
    with pytest.raises(ValueError):
        McConfig(MAX_SEED + 1, 10, McMode.MICRO_LINK)
    with pytest.raises(ValueError):
        McConfig(0, 10, McMode.MICRO_LINK, workers=0)
    # A fixed ceiling on threads, checked by validation alone: no config here runs.
    # It never rejects workers = the host's CPU count.
    assert MAX_WORKERS >= (os.cpu_count() or 1)
    McConfig(0, 10, McMode.MICRO_LINK, workers=MAX_WORKERS)
    for workers in (MAX_WORKERS + 1, 10**6):
        with pytest.raises(ValueError, match="workers"):
            McConfig(0, 10, McMode.MICRO_LINK, workers=workers)


@pytest.mark.parametrize("field, value", [
    ("master_seed", 1.0),
    ("trials", math.inf),
    ("trials", 4096.0),
    ("workers", math.inf),
    ("workers", 2.0),
    # bool is an int subclass, but True is not a seed, a trial count or a worker count.
    ("master_seed", True),
    ("trials", True),
    ("workers", True),
])
def test_mcconfig_rejects_non_integers_naming_the_field(field, value):
    # Validation alone: a rejected config never reaches the worker pool.
    kwargs = dict(master_seed=0, trials=10, mode=McMode.MICRO_LINK, workers=1)
    kwargs[field] = value
    with pytest.raises(ValueError, match=re.escape(f"{field} = {value!r} must be an integer")):
        McConfig(**kwargs)


@pytest.mark.parametrize("mode", ["micro-link", None, 0], ids=repr)
def test_mcconfig_rejects_a_mode_that_is_not_a_member(mode):
    with pytest.raises(ValueError, match=re.escape(f"mode = {mode!r} must be an McMode")):
        McConfig(1, 100, mode)


def test_mode_salts_are_distinct_and_never_a_retired_one():
    # Salts 3-8 keyed retired window kernels; a reused one would replay an old stream.
    salts = list(_MODE_SALTS.values())
    assert set(_MODE_SALTS) == set(McMode)
    assert len(set(salts)) == len(salts)
    assert not set(salts) & set(range(3, 9))


def test_mode_mismatch_rejected(near):
    cfg = McConfig(0, 10, McMode.MICRO_SEGMENT)
    with pytest.raises(ValueError, match="expected"):
        simulate_link(near, 20.0, cfg)
    with pytest.raises(ValueError, match="expected"):
        simulate_routed(near, _design(20.0, 1, 1), 0.01, cfg)


def test_floored_attempts():
    assert floored_attempts(1e7, 0.0011) == 11000
    assert floored_attempts(1e7, 0.0) == 0
    assert floored_attempts(1e7, -1.0) == 0


def test_floored_window_rate():
    assert floored_window_rate(0.5, 0, 1, 0.1) == 0.0
    assert floored_window_rate(0.0, 10, 1, 0.1) == 0.0
    assert floored_window_rate(1.0, 5, 3, 0.5) == 2.0
    expected = (1.0 - 0.7 ** 7) ** 2 / 0.25
    assert floored_window_rate(0.3, 7, 2, 0.25) == pytest.approx(expected, rel=1e-12)


def test_deterministic_across_workers_and_repeats(long_term, ideal):
    design = _design(LONG_ELL, 2, 1)
    runs = [
        simulate_routed(long_term, design, TAU_ROUTED_LONG,
                        McConfig(99, 12289, McMode.WINDOW_ROUTED, workers=w))
        for w in (1, 4, 7)
    ]
    assert runs[0] == runs[1] == runs[2]
    again = simulate_routed(long_term, design, TAU_ROUTED_LONG,
                            McConfig(99, 12289, McMode.WINDOW_ROUTED, workers=1))
    assert again == runs[0]

    seg_design = _design(20.0, 1, 1)
    a = simulate_segment(ideal, seg_design, McConfig(99, 4097, McMode.MICRO_SEGMENT, workers=1))
    b = simulate_segment(ideal, seg_design, McConfig(99, 4097, McMode.MICRO_SEGMENT, workers=3))
    assert a == b


def test_chunk_boundaries_run(near):
    for trials in (1, CHUNK_TRIALS, CHUNK_TRIALS + 1, 3 * CHUNK_TRIALS):
        est = simulate_link(near, 20.0, McConfig(5, trials, McMode.MICRO_LINK))
        assert est.trials == trials
        assert 0.0 <= est.mean <= 1.0


def test_different_seeds_differ(near):
    a = simulate_link(near, 20.0, McConfig(1, 20000, McMode.MICRO_LINK))
    b = simulate_link(near, 20.0, McConfig(2, 20000, McMode.MICRO_LINK))
    assert a.mean != b.mean


def test_exact_zero_when_no_attempts_fit(near):
    design = _design(20.0, 1, 1)
    t = timings(design, near)
    est = simulate_routed(near, design, t.t_trans, McConfig(7, 5000, McMode.WINDOW_ROUTED))
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_exact_zero_when_bsm_blind(near):
    blind = dataclasses.replace(near, eta_bsm=0.0)
    est = simulate_link(blind, 20.0, McConfig(7, 5000, McMode.MICRO_LINK))
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_exact_saturation_with_perfect_hardware(near):
    # every per-window failure probability underflows, so all trials succeed
    ones = dataclasses.replace(
        near, eta_bsm=1.0, eta_det=1.0, eta_afc=1.0, eta_shift=1.0,
        eta_buff=1.0, eta_qfc_637=1.0, eta_pol=1.0, eta_map=1.0, eta_c13=1.0,
    )
    design = _design(20.0, 1, 1)
    tau = 2.0 * timings(design, ones).t_trans
    est = simulate_routed(ones, design, tau, McConfig(7, 5000, McMode.WINDOW_ROUTED))
    assert est.mean == 1.0 / tau
    assert est.std_error == 0.0


def test_micro_link_matches_closed_form(near):
    est = simulate_link(near, 20.0, McConfig(1234, 20000, McMode.MICRO_LINK))
    ref = link_success_prob(near, 20.0)
    assert abs(est.mean - ref) <= 3.0 * est.std_error
    assert est.std_error == pytest.approx(
        math.sqrt(est.mean * (1.0 - est.mean) / est.trials), rel=1e-12)


def test_micro_segment_matches_closed_form(ideal):
    design = _design(20.0, 1, 1)
    est = simulate_segment(ideal, design, McConfig(1234, 20000, McMode.MICRO_SEGMENT))
    ref = segment_success_prob(ideal, design)
    assert abs(est.mean - ref) <= 3.0 * est.std_error


def test_micro_segment_rare_event(near):
    # near-era segment success is ~3e-6, so resolving it needs 2e7 trials;
    # the 3 sigma band is wide here but the comparison stays honest
    design = _design(20.0, 1, 1)
    est = simulate_segment(
        near, design, McConfig(31337, 20_000_000, McMode.MICRO_SEGMENT, workers=4))
    ref = segment_success_prob(near, design)
    assert ref == pytest.approx(3.073435457433004e-06, rel=1e-12)
    assert est.mean > 0.0
    assert abs(est.mean - ref) <= 3.0 * est.std_error


def test_window_routed_matches_floored_closed_form(long_term):
    design = _design(LONG_ELL, 2, 1)
    t = timings(design, long_term)
    k = floored_attempts(attempt_rate(long_term), TAU_ROUTED_LONG - t.t_trans)
    assert k == 432
    ref = floored_window_rate(
        segment_success_prob(long_term, design), k, design.big_n, TAU_ROUTED_LONG)
    # Seed 1235: under salt 9, seed 1234's stream lands at z = 3.08, a tail
    # draw of an unbiased kernel (300 seeds give mean z 0.05, rms 1.02).
    est = simulate_routed(long_term, design, TAU_ROUTED_LONG,
                          McConfig(1235, 20000, McMode.WINDOW_ROUTED))
    assert abs(est.mean - ref) <= 3.0 * est.std_error
    p_hat = est.mean * TAU_ROUTED_LONG
    assert est.std_error == pytest.approx(
        math.sqrt(p_hat * (1.0 - p_hat) / est.trials) / TAU_ROUTED_LONG, rel=1e-12)


def test_window_nv_matches_floored_closed_form(long_term):
    design = _design(LONG_ELL, 1, 1)
    tau = 1.2e-3
    t = timings(design, long_term)
    k = floored_attempts(nv_attempt_rate(design.ell_km), tau / 2.0 - t.t_trans_tilde)
    assert k == 1
    ref = floored_window_rate(
        nv_link_success_prob(long_term, design.ell_km), k, design.n, tau)
    est = simulate_nv_chain(long_term, design, tau,
                            McConfig(1234, 20000, McMode.WINDOW_NV))
    assert abs(est.mean - ref) <= 3.0 * est.std_error


def test_window_no_buffer_matches_floored_closed_form(near):
    design = _design(20.0, 1, 1)
    t = timings(design, near)
    k = floored_attempts(attempt_rate(near), TAU_NB_NEAR / 2.0 - t.t_trans)
    assert k == 82223
    ref = floored_window_rate(
        segment_success_prob(near, design, include_buffer=False),
        k, design.big_n, TAU_NB_NEAR)
    est = simulate_no_buffer(near, design, TAU_NB_NEAR,
                             McConfig(1234, 20000, McMode.WINDOW_NO_BUFFER))
    assert abs(est.mean - ref) <= 3.0 * est.std_error


@pytest.mark.parametrize("k_target", [512, 513])
def test_draw_paths_agree_at_budget_boundary(long_term, k_target):
    # stations * k = 512 and 513 straddle PER_ATTEMPT_DRAW_LIMIT, where the
    # window kernel once switched from per-attempt sampling to geometric
    # inversion; the one geometric-index kernel must meet the floored reference
    # on both sides.
    design = _design(LONG_ELL, 2, 1)
    t = timings(design, long_term)
    omega = attempt_rate(long_term)
    tau = t.t_trans + (k_target + 0.5) / omega
    k = floored_attempts(omega, tau - t.t_trans)
    assert k == k_target
    assert (design.big_n * k <= PER_ATTEMPT_DRAW_LIMIT) is (k_target == 512)
    ref = floored_window_rate(
        segment_success_prob(long_term, design), k, design.big_n, tau)
    est = simulate_routed(long_term, design, tau,
                          McConfig(4242, 20000, McMode.WINDOW_ROUTED))
    assert abs(est.mean - ref) <= 3.0 * est.std_error


def _count_law(stations, p_attempt):
    """A window law whose floored attempt count is the window length in seconds."""
    return WindowLaw(omega=1.0, p_attempt=p_attempt, stations=stations, usable_fraction=1.0,
                     floor_s=0.0, t_max=1e9)


@pytest.mark.parametrize("mode, modes, p", [
    (McMode.WINDOW_ROUTED, 1, 0.01),
    # Mode-level draws: a Geometric(p_mode) index against k * gamma_t mode
    # trials, with k * gamma_t * p_mode = 1.28, on numpy's inversion sampler.
    (McMode.WINDOW_NV, 5, 0.002),
    # p of 1/3 or more: numpy searches the geometric's cumulative law instead.
    (McMode.WINDOW_NO_BUFFER, 1, 0.9),
], ids=["uniform", "nv", "uniform-high-p"])
def test_window_counts_draw_the_one_block_stream(mode, modes, p):
    # 5000 trials make chunks of 4096 and 904 trials; each chunk's tally must
    # be the one (count, stations) block of first-herald indices drawn from
    # its own stream, in one rng.geometric call.
    stations, k, trials = 4, (1 if p > 0.5 else 128), 5000
    law = _count_law(stations, 1.0 - (1.0 - p) ** modes)
    cfg = McConfig(2024, trials, mode)
    windows = 0
    for index, count in enumerate((CHUNK_TRIALS, trials - CHUNK_TRIALS)):
        rng = _chunk_rng(cfg.master_seed, _MODE_SALTS[mode], index)
        first_herald = rng.geometric(p, size=(count, stations))
        windows += int(np.count_nonzero((first_herald <= k * modes).all(axis=1)))
    assert 0.05 * trials < windows < 0.95 * trials
    est = _simulate_window(law, float(k), cfg, modes, None if modes == 1 else p)
    assert est.mean == windows / trials * (1.0 / k)


@pytest.mark.parametrize("k", [PER_ATTEMPT_DRAW_LIMIT // 4, 10**6])
def test_window_chunk_memory_stays_bounded(k):
    # One 4096-trial chunk holds one (4096, stations) block of int64 indices,
    # 128 KiB here, whatever k is. The retired per-attempt path drew 4 * 128
    # uniforms per trial: 18 MiB for the chunk in one block, 1 MiB in slices.
    law = _count_law(4, 0.01)
    cfg = McConfig(4242, CHUNK_TRIALS, McMode.WINDOW_ROUTED)
    # A one-trial estimate first, so numpy's one-off set-up stays out of the peak.
    _simulate_window(law, float(k), McConfig(4242, 1, McMode.WINDOW_ROUTED))
    tracemalloc.start()
    try:
        est = _simulate_window(law, float(k), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.mean > 0.0
    assert peak < 256 * 2**10


def _literal_windows(rng, trials, stations, k, modes, p_mode):
    """Windows won, simulated attempt by attempt: each of a station's k attempts
    tries `modes` modes, each of which heralds in its own Bernoulli draw."""
    heralded = rng.random((trials, stations, k, modes)) < p_mode
    return int(np.count_nonzero(heralded.any(axis=(2, 3)).all(axis=1)))


@pytest.mark.parametrize("mode, modes, p_mode", [
    (McMode.WINDOW_ROUTED, 1, 0.1),
    (McMode.WINDOW_NV, 4, 0.03),
], ids=["uniform", "nv"])
def test_window_kernel_matches_literal_attempts(mode, modes, p_mode):
    # An independent check of the physics: the first-herald indices (numpy's
    # geometric sampler on Philox) against literal Bernoulli attempts (uniforms
    # on PCG64), without the closed form's log1p law. Two-sample z-scores
    # over k = 1..8; their squares sum to a chi-square with 8 degrees of
    # freedom, whose upper 1e-4 quantile is 33.72.
    stations, trials = 2, 20000
    law = _count_law(stations, 1.0 - (1.0 - p_mode) ** modes)
    literal_rng = np.random.default_rng(77)
    chi2 = 0.0
    for k in range(1, 9):
        est = _simulate_window(law, float(k), McConfig(k, trials, mode), modes,
                               None if modes == 1 else p_mode)
        kernel_p = est.mean * k
        literal_p = _literal_windows(literal_rng, trials, stations, k, modes, p_mode) / trials
        pooled = (kernel_p + literal_p) / 2.0
        z = (kernel_p - literal_p) / math.sqrt(pooled * (1.0 - pooled) * 2.0 / trials)
        assert abs(z) < 4.0, (k, kernel_p, literal_p)
        chi2 += z * z
    assert chi2 < 33.72


@pytest.mark.parametrize("p_attempt, tau, windows", [
    (0.5, 0.5, 0),      # no whole attempt fits
    (0.0, 8.0, 0),
    (1.0, 8.0, 5000),
    # k * p_attempt = 1000: a station fails with probability below e^-1000.
    (0.5, 2000.0, 5000),
    (1e-290, 2.0**1000, 5000),
])
def test_fixed_outcome_windows_seed_nothing(monkeypatch, p_attempt, tau, windows):
    def no_stream(*args):
        raise AssertionError("a window with a fixed outcome seeded a stream")

    monkeypatch.setattr(montecarlo, "_chunk_rng", no_stream)
    est = _simulate_window(_count_law(3, p_attempt), tau,
                           McConfig(1, 5000, McMode.WINDOW_ROUTED, workers=4))
    assert est == McEstimate(windows / 5000 / tau, 0.0, 5000, 1)


def test_window_below_the_certainty_bound_still_draws(monkeypatch):
    # k * p_attempt = 744: a failure is astronomically rare but representable,
    # so the kernel seeds its one chunk and draws; every index is at most k.
    seeded = []

    def counting_rng(*args):
        seeded.append(args)
        return _chunk_rng(*args)

    monkeypatch.setattr(montecarlo, "_chunk_rng", counting_rng)
    law = _count_law(3, 0.5)
    assert _simulate_window(law, 1488.0, McConfig(1, 100, McMode.WINDOW_ROUTED)) == (
        McEstimate(1.0 / 1488.0, 0.0, 100, 1))
    assert seeded == [(1, _MODE_SALTS[McMode.WINDOW_ROUTED], 0)]


@pytest.mark.parametrize("tau, modes, p_attempt", [
    (2.0**64, 1, 1e-18),       # k alone exceeds an int64
    (2.0**61, 27, 2.7e-16),    # k * gamma_t does
    (1e300, 1, 1e-300),
])
def test_windows_beyond_one_binomial_draw_are_rejected(monkeypatch, tau, modes, p_attempt):
    # Too few expected heralds (k * p_attempt < 745) for a certain window, too
    # many herald trials for an int64 geometric index: a ValueError naming
    # tau_s, before any stream is seeded.
    def no_stream(*args):
        raise AssertionError("a rejected window seeded a stream")

    monkeypatch.setattr(montecarlo, "_chunk_rng", no_stream)
    with pytest.raises(ValueError, match="tau_s"):
        _simulate_window(_count_law(3, p_attempt), tau, McConfig(1, 10, McMode.WINDOW_NV),
                         modes, p_attempt / modes)


def test_saturated_geometric_index_is_a_failure_and_bounds_the_trials(monkeypatch):
    # numpy's int64 geometric index saturates at 2^63 - 1 for a tiny p: at
    # p = 1e-19 about 40% of draws do, where the true index is larger.
    top = 2**63 - 1
    drawn = np.random.Generator(np.random.Philox(5)).geometric(1e-19, size=4096)
    assert drawn.max() == top
    assert 0.3 < np.count_nonzero(drawn == top) / drawn.size < 0.5
    # So one mode trial under the saturation value is the most a station may
    # have: there a saturated index compares as the failure it is, and the
    # estimate meets the exact law 1 - (1 - p)^trials per station, not 1.
    p_mode, stations, trials = 1e-19, 3, 4096

    def law(modes):
        return _count_law(stations, -math.expm1(modes * math.log1p(-p_mode)))

    widest = law(top - 1)
    est = _simulate_window(widest, 1.0, McConfig(8, trials, McMode.WINDOW_NV), top - 1, p_mode)
    exact = widest.p_attempt ** stations
    assert 0.1 < exact < 0.5
    assert abs(est.mean - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / trials)
    # One more mode trial is named before any stream is seeded.
    monkeypatch.setattr(montecarlo, "_chunk_rng", _no_stream)
    with pytest.raises(ValueError, match=re.escape(
            "tau_s = 1.0 gives 2^63 - 1 or more herald trials per station")):
        _simulate_window(law(top), 1.0, McConfig(8, trials, McMode.WINDOW_NV), top, p_mode)


def test_window_with_infinitely_many_attempts_is_rejected():
    law = WindowLaw(omega=1e10, p_attempt=1e-320, stations=3, usable_fraction=1.0,
                    floor_s=0.0, t_max=1e9)
    with pytest.raises(ValueError, match="tau_s"):
        _simulate_window(law, 1e300, McConfig(1, 10, McMode.WINDOW_ROUTED))


def _no_stream(*args):
    raise AssertionError("a rejected estimate seeded a stream")


_WINDOW_SIMULATORS = [
    (McMode.WINDOW_ROUTED, simulate_routed),
    (McMode.WINDOW_NV, simulate_nv_chain),
    (McMode.WINDOW_NO_BUFFER, simulate_no_buffer),
]


@pytest.mark.parametrize("mode, simulate", _WINDOW_SIMULATORS,
                         ids=[mode.value for mode, _ in _WINDOW_SIMULATORS])
@pytest.mark.parametrize("tau", [math.nan, 0.0, -1.0, None])
def test_window_estimates_need_a_positive_tau(monkeypatch, long_term, mode, simulate, tau):
    monkeypatch.setattr(montecarlo, "_chunk_rng", _no_stream)
    with pytest.raises(ValueError, match=re.escape(f"tau_s = {tau!r} must be > 0")):
        simulate(long_term, _design(40.0, 2, 3), tau, McConfig(1, 10, mode))


@pytest.mark.parametrize("mode, field", [
    (McMode.WINDOW_ROUTED, "big_n"), (McMode.WINDOW_NO_BUFFER, "big_n"), (McMode.WINDOW_NV, "n"),
], ids=["window-routed", "window-nobuffer", "window-nv"])
def test_window_block_beyond_the_count_bound_is_rejected(monkeypatch, mode, field):
    # One more station than a full chunk's block allows: named before any stream is seeded.
    monkeypatch.setattr(montecarlo, "_chunk_rng", _no_stream)
    stations = MAX_BLOCK_COUNTS // CHUNK_TRIALS + 1
    with pytest.raises(ValueError, match=f"^{field} = {stations} stations"):
        _simulate_window(_count_law(stations, 0.01), 8.0, McConfig(1, 5000, mode))


def test_window_blocks_within_the_count_bound_run(monkeypatch):
    # A full chunk at the bound passes the check (the draw itself is stubbed) ...
    monkeypatch.setattr(montecarlo, "_run_chunks", lambda cfg, chunk_fn: 0)
    stations = MAX_BLOCK_COUNTS // CHUNK_TRIALS
    assert _simulate_window(_count_law(stations, 0.01), 8.0,
                            McConfig(1, 5000, McMode.WINDOW_ROUTED)).trials == 5000
    monkeypatch.undo()
    # ... and a one-trial estimate over a million stations draws its one row:
    # every station heralds within 64 attempts of p = 1/2 but with odds 2^-64.
    assert _simulate_window(_count_law(10**6, 0.5), 64.0,
                            McConfig(1, 1, McMode.WINDOW_ROUTED)) == McEstimate(1 / 64, 0.0, 1, 1)


def test_window_with_no_usable_time_is_an_exact_zero(monkeypatch):
    # An infinite attempt rate over negative usable time is no attempts, not inf * -0.5.
    def no_stream(*args):
        raise AssertionError("a window without usable time seeded a stream")

    monkeypatch.setattr(montecarlo, "_chunk_rng", no_stream)
    law = WindowLaw(omega=math.inf, p_attempt=0.5, stations=3, usable_fraction=0.5,
                    floor_s=1.0, t_max=2.0)
    assert _simulate_window(law, 1.0, McConfig(1, 10, McMode.WINDOW_NV)) == (
        McEstimate(0.0, 0.0, 10, 1))


@pytest.mark.parametrize("mode, simulate", [
    (McMode.MICRO_LINK, lambda profile, cfg: simulate_link(profile, 20.0, cfg)),
    (McMode.MICRO_SEGMENT,
     lambda profile, cfg: simulate_segment(profile, _design(20.0, 2, 1), cfg)),
], ids=["micro-link", "micro-segment"])
def test_spectral_modes_beyond_one_binomial_draw_are_rejected(monkeypatch, near, mode, simulate):
    # 2^63 - 1 modes still fit numpy's int64 count; one more is named, before any draw.
    widest = dataclasses.replace(near, gamma_f=2**63 - 1)
    assert simulate(widest, McConfig(1, 10, mode)).trials == 10

    def no_stream(*args):
        raise AssertionError("a rejected mode count seeded a stream")

    monkeypatch.setattr(montecarlo, "_chunk_rng", no_stream)
    with pytest.raises(ValueError, match=r"gamma_f = 9223372036854775808 "):
        simulate(dataclasses.replace(near, gamma_f=2**63), McConfig(1, 10, mode))


@pytest.mark.parametrize("trials, workers, pool_size", [
    # threads = min(workers, chunks // 4); one thread or none runs inline, no pool.
    (3 * CHUNK_TRIALS, MAX_WORKERS, None),
    (3 * CHUNK_TRIALS, 2, None),
    (CHUNK_TRIALS, MAX_WORKERS, None),
    (2 * CHUNK_TRIALS, 2, None),
    (4 * CHUNK_TRIALS, 2, None),
    (8 * CHUNK_TRIALS, 2, 2),
    (8 * CHUNK_TRIALS, MAX_WORKERS, 2),     # four chunks or more per thread
])
def test_run_chunks_starts_no_more_threads_than_chunks(monkeypatch, trials, workers, pool_size):
    # A stand-in pool records its size and maps inline, so no thread starts.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    cfg = McConfig(3, trials, McMode.MICRO_LINK, workers=workers)
    assert _run_chunks(cfg, lambda rng, count: np.ones(count, dtype=bool)) == trials
    assert sizes == ([] if pool_size is None else [pool_size])


# The profile fixture and one drawing estimate per mode. The windows hold
# k = 432, 1 and 82223 attempts per station, so none has a fixed outcome.
_DRAWING_ESTIMATES = {
    McMode.MICRO_LINK: ("near", lambda profile, cfg: simulate_link(profile, 20.0, cfg)),
    McMode.MICRO_SEGMENT:
        ("ideal", lambda profile, cfg: simulate_segment(profile, _design(20.0, 2, 1), cfg)),
    McMode.WINDOW_ROUTED: ("long_term", lambda profile, cfg: simulate_routed(
        profile, _design(LONG_ELL, 2, 1), TAU_ROUTED_LONG, cfg)),
    McMode.WINDOW_NV: ("long_term", lambda profile, cfg: simulate_nv_chain(
        profile, _design(LONG_ELL, 1, 1), 1.2e-3, cfg)),
    McMode.WINDOW_NO_BUFFER: ("near", lambda profile, cfg: simulate_no_buffer(
        profile, _design(20.0, 1, 1), TAU_NB_NEAR, cfg)),
}


@pytest.mark.parametrize("mode", list(McMode), ids=[mode.value for mode in McMode])
def test_pooled_estimate_equals_the_serial_one(monkeypatch, request, mode):
    # Nine chunks, the last of 5 trials: serial at one worker, pooled at two and
    # at the ceiling, where each thread must get four chunks (two threads).
    sizes = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    fixture, estimate = _DRAWING_ESTIMATES[mode]
    profile = request.getfixturevalue(fixture)
    serial, pooled, widest = (
        estimate(profile, McConfig(17, 8 * CHUNK_TRIALS + 5, mode, workers=workers))
        for workers in (1, 2, MAX_WORKERS))
    assert sizes == [2, 2]
    assert serial == pooled == widest
    assert 0.0 < serial.mean
