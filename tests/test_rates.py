import dataclasses
import math
import re

import pytest

from repchain import (
    Config,
    NetworkDesign,
    Scenario,
    attempt_rate,
    fiber_transmittance,
    link_success_prob,
    max_link_length,
    no_buffer_cutoff_time,
    nv_attempt_rate,
    nv_chain_rate,
    nv_cutoff_time,
    nv_link_success_prob,
    routed_cutoff_time,
    routed_rate,
    routed_rate_no_buffer,
    segment_rate,
    segment_success_prob,
    timings,
    transfer_efficiency,
)
from repchain.rates import RateReport, WindowLaw, scenario_rate, window_law

# Frozen values from an independent scratch oracle run before this module
# existed. Probabilities, efficiencies, and window durations agree to a few
# ulp (rel 1e-12); window rates pass through expm1/log1p trees amplified by
# attempt counts up to ~1e6, so those anchors use rel 1e-9.
P_LINK_NEAR_20 = 0.07819376741958271
P_LINK_LONG_60 = 0.5076562491656821
P_LINK_IDEAL_20 = 0.96059601
P_NV_NEAR_20 = 0.6366845811868869
P_NV_LONG_60 = 0.96362676779121
ETA_QR_NEAR_A1 = 0.0062694
ETA_QR_NEAR_A2 = 0.00250776
ETA_QR_NEAR_A1_NO_BUFFER = 0.020898
P_SEG_NEAR_A1 = 3.073435457433004e-06
P_SEG_LONG_A2 = 0.006908661119378718
P_SEG_IDEAL_A1 = 0.8846129883575684
P_SEG_NB_NEAR_A1 = 3.4149282860366716e-05
P_SEG_NB_LONG_A2 = 0.008529211258492242
RATE_SEG_NEAR = 30.73435457433004
RATE_SEG_LONG = 690866.1119378718
TAU_ROUTED_LONG_N1 = 0.0008043212020616748
RATE_ROUTED_LONG_N1 = 1181.120176323731
TAU_ROUTED_LONG_N2 = 0.0008053026556293527
RATE_ROUTED_LONG_N2 = 1179.680699373289
TAU_ROUTED_NEAR_N1 = 0.09857163106066426
RATE_ROUTED_NEAR_N1 = 9.637661361381372
TAU_ROUTED_NEAR_N10 = 0.17274296686393958
RATE_ROUTED_NEAR_N10 = 5.499500311067339
TAU_NB_NEAR_N1 = 0.018644620977591415
RATE_NB_NEAR_N1 = 50.39892893014383
RATE_NB_NEAR_N10 = 29.377915968850854
TAU_NV_NEAR_1 = 0.00159175899479592
TAU_NV_LONG_1 = 0.0007423903401298932
RATE_NV_LONG_1 = 1143.7285193287964
RATE_NV_LONG_2 = 985.4633294792823
RATE_NV_LONG_OVERRIDE = 823.2903837880307


def _design(profile, n=1, big_n=1, **kwargs):
    return NetworkDesign(Config.A, max_link_length(profile), n, big_n, **kwargs)


def test_fiber_transmittance(near):
    assert fiber_transmittance(near, 0.0) == 1.0
    assert fiber_transmittance(near, 20.0) == pytest.approx(0.3981071705534972, rel=1e-12)
    assert fiber_transmittance(near, 40.0) < fiber_transmittance(near, 20.0)


def test_link_success_prob(near, long_term, ideal):
    assert link_success_prob(near, 20.0) == pytest.approx(P_LINK_NEAR_20, rel=1e-12)
    assert link_success_prob(long_term, 60.0) == pytest.approx(P_LINK_LONG_60, rel=1e-12)
    assert link_success_prob(ideal, 20.0) == pytest.approx(P_LINK_IDEAL_20, rel=1e-12)
    with pytest.raises(ValueError):
        link_success_prob(near, -1.0)


def test_nv_link_success_prob(near, long_term):
    assert nv_link_success_prob(near, 20.0) == pytest.approx(P_NV_NEAR_20, rel=1e-12)
    assert nv_link_success_prob(long_term, 60.0) == pytest.approx(P_NV_LONG_60, rel=1e-12)


def test_transfer_efficiency(near):
    assert transfer_efficiency(near, Config.A, 1) == pytest.approx(ETA_QR_NEAR_A1, rel=1e-12)
    assert transfer_efficiency(near, Config.A, 2) == pytest.approx(ETA_QR_NEAR_A2, rel=1e-12)
    assert transfer_efficiency(near, Config.A, 1, include_buffer=False) == pytest.approx(
        ETA_QR_NEAR_A1_NO_BUFFER, rel=1e-12)
    # config B never pays the extra edge-memory recalls
    assert transfer_efficiency(near, Config.B, 1) == pytest.approx(ETA_QR_NEAR_A1, rel=1e-12)
    assert transfer_efficiency(near, Config.B, 2) == transfer_efficiency(near, Config.B, 1)


def test_segment_success_prob(near, long_term, ideal):
    assert segment_success_prob(near, _design(near)) == pytest.approx(P_SEG_NEAR_A1, rel=1e-12)
    assert segment_success_prob(long_term, _design(long_term, n=2)) == pytest.approx(
        P_SEG_LONG_A2, rel=1e-12)
    assert segment_success_prob(ideal, NetworkDesign(Config.A, 20.0, 1, 1)) == pytest.approx(
        P_SEG_IDEAL_A1, rel=1e-12)
    assert segment_success_prob(near, _design(near), include_buffer=False) == pytest.approx(
        P_SEG_NB_NEAR_A1, rel=1e-12)
    assert segment_success_prob(
        long_term, _design(long_term, n=2), include_buffer=False
    ) == pytest.approx(P_SEG_NB_LONG_A2, rel=1e-12)


def test_segment_rate(near, long_term):
    rep = segment_rate(near, _design(near))
    assert rep.scenario is Scenario.SEGMENT
    assert rep.tau_s is None
    assert rep.attempts_per_window is None
    assert rep.rate_hz == pytest.approx(RATE_SEG_NEAR, rel=1e-12)
    assert rep.p_segment == segment_success_prob(near, _design(near))
    rep2 = segment_rate(long_term, _design(long_term, n=2))
    assert rep2.rate_hz == pytest.approx(RATE_SEG_LONG, rel=1e-12)
    assert rep2.p_segment == segment_success_prob(long_term, _design(long_term, n=2))


def test_rate_report_fields():
    assert RateReport._fields == (
        "scenario", "tau_s", "tau_clamped", "p_segment", "rate_hz", "attempts_per_window")


@pytest.mark.parametrize("scenario", [Scenario.ROUTED, Scenario.ROUTED_NO_BUFFER,
                                      Scenario.NV_CHAIN], ids=lambda s: s.value)
def test_window_law_reads_the_link_and_segment_laws(near, long_term, scenario):
    # The one window law takes its per-attempt success from the one link or
    # segment law, bit for bit, on both configurations.
    for profile in (near, long_term):
        ell = max_link_length(profile)
        for design in (NetworkDesign(Config.A, ell, 2, 3), NetworkDesign(Config.B, ell / 2, 2, 6)):
            if scenario is Scenario.NV_CHAIN:
                expected = nv_link_success_prob(profile, design.ell_km)
            else:
                expected = segment_success_prob(profile, design, scenario is Scenario.ROUTED)
            assert window_law(scenario, profile, design).p_attempt == expected


@pytest.mark.parametrize("scenario, message", [
    ("routed", "scenario = 'routed' must be a Scenario"),
    (None, "scenario = None must be a Scenario"),
    (Scenario.SEGMENT, "scenario <Scenario.SEGMENT: 'segment'> has no window"),
], ids=["str", "None", "segment"])
def test_window_law_names_a_scenario_without_a_window(near, scenario, message):
    with pytest.raises(ValueError) as info:
        window_law(scenario, near, _design(near))
    assert str(info.value) == message


@pytest.mark.parametrize("scenario", ["routed", None, "routed-nobuffer"], ids=repr)
def test_scenario_rate_rejects_a_non_member(near, scenario):
    with pytest.raises(ValueError, match=re.escape(f"scenario = {scenario!r} must be a Scenario")):
        scenario_rate(scenario, near, _design(near))


def _bisect_routed_tau(profile, design):
    """Independent window-duration oracle: solve window success = 1 - epsilon
    by bisection instead of the logarithmic closed form."""
    t = timings(design, profile)
    omega = attempt_rate(profile)
    p = segment_success_prob(profile, design)
    target = 1.0 - design.epsilon

    def success(tau):
        attempts = omega * (tau - t.t_trans)
        if attempts <= 0.0:
            return 0.0
        return (1.0 - (1.0 - p) ** attempts) ** design.big_n

    lo, hi = t.t_trans, t.t_trans + 1.0
    while success(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if success(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("era_fixture,n,big_n", [
    ("long_term", 2, 1),
    ("long_term", 2, 2),
    ("long_term", 2, 5),
    ("near", 1, 1),
    ("near", 1, 5),
])
def test_routed_cutoff_matches_bisection(request, era_fixture, n, big_n):
    profile = request.getfixturevalue(era_fixture)
    design = _design(profile, n=n, big_n=big_n)
    tau, clamped = routed_cutoff_time(profile, design)
    assert not clamped
    assert tau == pytest.approx(_bisect_routed_tau(profile, design), rel=1e-9)


def test_routed_rate_anchors(near, long_term):
    rep = routed_rate(long_term, _design(long_term, n=2))
    assert rep.scenario is Scenario.ROUTED
    assert rep.tau_s == pytest.approx(TAU_ROUTED_LONG_N1, rel=1e-12)
    assert not rep.tau_clamped
    assert rep.rate_hz == pytest.approx(RATE_ROUTED_LONG_N1, rel=1e-9)
    rep2 = routed_rate(long_term, _design(long_term, n=2, big_n=2))
    assert rep2.tau_s == pytest.approx(TAU_ROUTED_LONG_N2, rel=1e-12)
    assert rep2.rate_hz == pytest.approx(RATE_ROUTED_LONG_N2, rel=1e-9)
    rep3 = routed_rate(near, _design(near))
    assert rep3.tau_s == pytest.approx(TAU_ROUTED_NEAR_N1, rel=1e-12)
    assert rep3.rate_hz == pytest.approx(RATE_ROUTED_NEAR_N1, rel=1e-9)
    rep4 = routed_rate(near, _design(near, big_n=10))
    assert rep4.tau_s == pytest.approx(TAU_ROUTED_NEAR_N10, rel=1e-12)
    assert rep4.rate_hz == pytest.approx(RATE_ROUTED_NEAR_N10, rel=1e-9)


@pytest.mark.parametrize("era_fixture,n,big_n", [
    ("long_term", 2, 1),
    ("long_term", 2, 4),
    ("near", 1, 1),
    ("near", 1, 7),
])
def test_routed_window_self_consistency(request, era_fixture, n, big_n):
    # unclamped window: all segments succeed with probability exactly 1 - epsilon
    profile = request.getfixturevalue(era_fixture)
    rep = routed_rate(profile, _design(profile, n=n, big_n=big_n))
    assert not rep.tau_clamped
    assert rep.p_segment ** big_n == pytest.approx(0.95, rel=1e-9)


def test_no_buffer_anchors(near, long_term):
    rep = routed_rate_no_buffer(near, _design(near))
    assert rep.scenario is Scenario.ROUTED_NO_BUFFER
    assert rep.tau_s == pytest.approx(TAU_NB_NEAR_N1, rel=1e-12)
    assert rep.rate_hz == pytest.approx(RATE_NB_NEAR_N1, rel=1e-9)
    rep10 = routed_rate_no_buffer(near, _design(near, big_n=10))
    assert rep10.rate_hz == pytest.approx(RATE_NB_NEAR_N10, rel=1e-9)
    # long-term window closes before the first usable half-window attempt
    repl = routed_rate_no_buffer(long_term, _design(long_term, n=2))
    assert repl.rate_hz == 0.0
    assert repl.attempts_per_window == 0.0


def test_nv_chain_anchors(near, long_term):
    rep = nv_chain_rate(near, _design(near))
    assert rep.scenario is Scenario.NV_CHAIN
    assert rep.tau_s == pytest.approx(TAU_NV_NEAR_1, rel=1e-12)
    assert rep.rate_hz == 0.0
    rep1 = nv_chain_rate(long_term, _design(long_term))
    assert rep1.tau_s == pytest.approx(TAU_NV_LONG_1, rel=1e-12)
    assert rep1.rate_hz == pytest.approx(RATE_NV_LONG_1, rel=1e-9)
    rep2 = nv_chain_rate(long_term, _design(long_term, n=2))
    assert rep2.rate_hz == pytest.approx(RATE_NV_LONG_2, rel=1e-9)


def test_nv_chain_tau_override(long_term):
    rep = nv_chain_rate(long_term, _design(long_term), tau_s=1.2e-3)
    assert rep.tau_s == 1.2e-3
    assert not rep.tau_clamped
    assert rep.attempts_per_window == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert rep.rate_hz == pytest.approx(RATE_NV_LONG_OVERRIDE, rel=1e-9)


def test_routed_tau_override_clamps(long_term):
    design = _design(long_term, n=2)
    t = timings(design, long_term)
    # above the storage budget: clamped with the flag set
    high = routed_rate(long_term, design, tau_s=long_term.t_nv * 2.0)
    assert high.tau_s == long_term.t_nv
    assert high.tau_clamped
    # below the handoff floor: used as given, with zero usable attempts
    low = routed_rate(long_term, design, tau_s=t.t_trans / 2.0)
    assert low.tau_s == t.t_trans / 2.0
    assert not low.tau_clamped
    assert low.rate_hz == 0.0


def test_cutoff_upper_clamp_flag(long_term):
    tight = dataclasses.replace(long_term, t_nv=1e-4)
    design = _design(long_term, n=2)
    tau, clamped = routed_cutoff_time(tight, design)
    assert tau == 1e-4
    assert clamped


def test_cutoff_epsilon_limit(near, long_term):
    # accepting any failure probability shrinks the window to the handoff floor
    for profile in (near, long_term):
        n = 1 if profile is near else 2
        design = _design(profile, n=n, epsilon=1.0 - 1e-15)
        tau, clamped = routed_cutoff_time(profile, design)
        t = timings(design, profile)
        assert tau == pytest.approx(t.t_trans, rel=1e-9)
        assert not clamped


def test_cutoff_subnormal_epsilon_saturates_storage(long_term):
    # 1 - (1 - epsilon) ** (1 / N) rounds to 0: no finite window meets the budget.
    design = _design(long_term, n=2, big_n=2, epsilon=5e-324)
    assert routed_cutoff_time(long_term, design) == (long_term.t_nv, True)


def test_impossible_segment_saturates_storage(near):
    dead = dataclasses.replace(near, eta_bsm=0.0)
    design = _design(near)
    tau, clamped = routed_cutoff_time(dead, design)
    assert tau == near.t_nv
    assert clamped
    rep = routed_rate(dead, design)
    assert rep.rate_hz == 0.0


@pytest.mark.parametrize("p_attempt", [0.5, 1.0])
def test_no_attempts_saturate_storage(p_attempt):
    # A station that never attempts cannot succeed, even when each attempt would.
    law = WindowLaw(omega=0.0, p_attempt=p_attempt, stations=2, usable_fraction=1.0,
                    floor_s=1e-3, t_max=1.0)
    assert law.cutoff(0.05) == (1.0, True)


@pytest.mark.parametrize("stations", [1, 2])
@pytest.mark.parametrize("omega", [1e3, 0.0], ids=["drawing", "no-attempts"])
@pytest.mark.parametrize("epsilon", [1.5, 1.0, 0.0, -0.1, math.nan, None, "0.05"])
def test_cutoff_rejects_an_epsilon_outside_the_unit_interval(stations, omega, epsilon):
    # Checked before a degenerate law resolves, so a law with no attempts names
    # a bad epsilon too, and nan names epsilon rather than the window.
    law = WindowLaw(omega=omega, p_attempt=0.01, stations=stations, usable_fraction=1.0,
                    floor_s=1e-3, t_max=1.0)
    with pytest.raises(ValueError, match=re.escape(f"epsilon = {epsilon!r} must lie in (0, 1)")):
        law.cutoff(epsilon)


@pytest.mark.parametrize("stations", [1, 2])
def test_cutoff_largest_epsilon_solves_above_the_floor(stations):
    # The largest double below 1 still leaves each station a failure share below 1,
    # so even this epsilon solves by the formula, to just above the floor.
    law = WindowLaw(omega=1e3, p_attempt=0.01, stations=stations, usable_fraction=1.0,
                    floor_s=1e-3, t_max=1.0)
    tau, clamped = law.cutoff(1.0 - 2.0**-53)
    assert 1e-3 < tau < 1.01e-3
    assert not clamped


_BAD_WINDOW_LAW_CALLS = [
    ({"stations": 0}, "cutoff", 0.05, "stations = 0 must be >= 1"),
    ({"stations": 0, "omega": 0.0}, "cutoff", 0.05, "stations = 0 must be >= 1"),
    ({"stations": math.nan}, "cutoff", 0.05, "stations = nan must be >= 1"),
    ({"usable_fraction": 0.0}, "cutoff", 0.05, "usable_fraction = 0.0 must lie in (0, 1]"),
    ({"usable_fraction": 1.5}, "cutoff", 0.05, "usable_fraction = 1.5 must lie in (0, 1]"),
    ({"usable_fraction": math.nan}, "cutoff", 0.05, "usable_fraction = nan must lie in (0, 1]"),
    ({}, "clamp", None, "tau_s = None must be > 0"),
]


@pytest.mark.parametrize("fields, method, value, message", _BAD_WINDOW_LAW_CALLS,
                         ids=[f"{m}-{i}" for i, (_, m, _, _) in enumerate(_BAD_WINDOW_LAW_CALLS)])
def test_window_law_names_what_is_wrong(fields, method, value, message):
    # A bad field or argument is named, never a ZeroDivisionError or a bare TypeError.
    law = WindowLaw(**{**dict(omega=1e3, p_attempt=0.01, stations=2, usable_fraction=1.0,
                              floor_s=1e-3, t_max=1.0), **fields})
    with pytest.raises(ValueError) as info:
        getattr(law, method)(value)
    assert str(info.value) == message


def test_certain_segment_needs_no_search_time(near):
    sure = dataclasses.replace(
        near, alpha_db_per_km=0.0, eta_afc=1.0, eta_shift=1.0, eta_bsm=1.0,
        eta_det=1.0, eta_buff=1.0, eta_qfc_637=1.0, eta_pol=1.0, eta_map=1.0,
        eta_c13=1.0,
    )
    design = _design(near)
    t = timings(design, sure)
    tau, clamped = routed_cutoff_time(sure, design)
    assert tau == t.t_trans
    assert not clamped
    # zero usable attempts at the floor; a wider window succeeds every time
    assert routed_rate(sure, design).rate_hz == 0.0
    wide = routed_rate(sure, design, tau_s=2.0 * t.t_trans)
    assert wide.rate_hz == pytest.approx(1.0 / (2.0 * t.t_trans), rel=1e-12)


def test_buffer_free_bracket_identity(near):
    # with a perfect buffer the two pipelines share the per-attempt law, and
    # the half-window bracket equals the full-window bracket at half duration
    perfect = dataclasses.replace(near, eta_buff=1.0)
    design = _design(near)
    for big_n in (1, 2, 5):
        d = dataclasses.replace(design, big_n=big_n)
        nb = routed_rate_no_buffer(perfect, d)
        b = routed_rate(perfect, d, tau_s=nb.tau_s / 2.0)
        assert nb.p_segment == pytest.approx(b.p_segment, rel=1e-12)
        assert nb.rate_hz == pytest.approx(b.rate_hz / 2.0, rel=1e-12)


def test_no_buffer_probability_not_derived_by_division(near):
    # eta_buff = 0 kills the buffered pipeline but leaves the buffer-free one intact
    blocked = dataclasses.replace(near, eta_buff=0.0)
    design = _design(near)
    assert segment_success_prob(blocked, design) == 0.0
    assert segment_success_prob(blocked, design, include_buffer=False) == pytest.approx(
        P_SEG_NB_NEAR_A1, rel=1e-12)
    assert routed_rate_no_buffer(blocked, design).rate_hz == pytest.approx(
        RATE_NB_NEAR_N1, rel=1e-12)


def test_attempt_rates(near, long_term):
    assert attempt_rate(near) == 1e7
    assert attempt_rate(long_term) == 1e8
    assert nv_attempt_rate(20.0) == pytest.approx(1e4, rel=1e-12)


def test_nv_cutoff_within_bounds(near, long_term):
    for profile in (near, long_term):
        for n in (1, 2, 4):
            design = _design(profile, n=n)
            tau, _ = nv_cutoff_time(profile, design)
            t = timings(design, profile)
            assert t.t_trans_tilde <= tau <= profile.t_nv


def test_no_buffer_cutoff_within_bounds(near, long_term):
    for profile in (near, long_term):
        design = _design(profile, n=1, big_n=3)
        tau, _ = no_buffer_cutoff_time(profile, design)
        t = timings(design, profile)
        assert t.t_trans <= tau <= profile.t_nv


@pytest.mark.parametrize("rate", [routed_rate, nv_chain_rate, routed_rate_no_buffer],
                         ids=lambda rate: rate.__name__)
@pytest.mark.parametrize("tau", [math.nan, -1.0, 0.0, -math.inf, "5", 1j])
def test_explicit_window_must_be_positive(long_term, rate, tau):
    # A bad explicit window is named, never carried as nan or left to a bare TypeError.
    design = NetworkDesign(Config.A, 40.0, 2, 3)
    with pytest.raises(ValueError, match=re.escape(f"tau_s = {tau!r} must be > 0")):
        rate(long_term, design, tau_s=tau)


@pytest.mark.parametrize("ell", [0.0, -5.0, math.nan])
def test_nv_attempt_rate_needs_a_positive_length(ell):
    with pytest.raises(ValueError, match=re.escape(f"ell_km = {ell!r} must be > 0")):
        nv_attempt_rate(ell)


@pytest.mark.parametrize("law", [link_success_prob, nv_link_success_prob],
                         ids=lambda law: law.__name__)
def test_link_laws_reject_a_nan_length(near, law):
    with pytest.raises(ValueError, match="ell_km = nan must be >= 0"):
        law(near, math.nan)
    assert 0.0 < law(near, 0.0) <= 1.0
