import dataclasses
import math

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
from repchain.montecarlo import CHUNK_TRIALS, MAX_SEED

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


@pytest.mark.parametrize("field, value", [
    ("master_seed", 1.0),
    ("trials", math.inf),
    ("trials", 4096.0),
    ("workers", math.inf),
    ("workers", 2.0),
])
def test_mcconfig_rejects_non_integers_naming_the_field(field, value):
    # Validation alone: a rejected config never reaches the worker pool.
    kwargs = dict(master_seed=0, trials=10, mode=McMode.MICRO_LINK, workers=1)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        McConfig(**kwargs)


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
    est = simulate_routed(long_term, design, TAU_ROUTED_LONG,
                          McConfig(1234, 20000, McMode.WINDOW_ROUTED))
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
    # stations * k crosses PER_ATTEMPT_DRAW_LIMIT between these two points,
    # switching from per-attempt sampling to geometric inversion
    design = _design(LONG_ELL, 2, 1)
    t = timings(design, long_term)
    omega = attempt_rate(long_term)
    tau = t.t_trans + (k_target + 0.5) / omega
    k = floored_attempts(omega, tau - t.t_trans)
    assert k == k_target
    ref = floored_window_rate(
        segment_success_prob(long_term, design), k, design.big_n, tau)
    est = simulate_routed(long_term, design, tau,
                          McConfig(4242, 20000, McMode.WINDOW_ROUTED))
    assert abs(est.mean - ref) <= 3.0 * est.std_error
