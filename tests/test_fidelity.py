import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repchain import (
    Config,
    NetworkDesign,
    builtin_profile,
    compose_oracle,
    decohere,
    end_to_end_report,
    fidelity_to_werner,
    max_link_length,
    qber,
    router_pair_werner,
    routed_cutoff_time,
    werner_to_fidelity,
)
from repchain.fidelity import STAGE_ORDER, profile_stage_fidelities

# Frozen values from the independent scratch oracle.
W_LINK_NEAR = 0.6743162762341693
W_LINK_LONG = 0.9103181343997498
W_SEG_LONG_2 = 0.8176300510728138
W_SEG_NEAR_3 = 0.2841468173331332
W_TRANSFER_NEAR_A1 = 0.8861217742949135
W_TRANSFER_LONG_A2 = 0.9579712546723294
W_PAIR_NEAR_A1 = 0.5294810962756021
F_PAIR_NEAR_A1 = 0.6471108222067016
W_PAIR_LONG_A2 = 0.7503463950366032
TAU_LONG_A2_N1 = 0.0008043212020616748
W_END_LONG_A2_N1 = 0.7479456386962101
F_END_LONG_A2_N1 = 0.8109592290221576
F_END_NEAR_A1_N2_TAU1 = 0.2747815647085429


def test_werner_fidelity_conversions():
    assert fidelity_to_werner(1.0) == 1.0
    assert fidelity_to_werner(0.25) == 0.0
    assert werner_to_fidelity(0.0) == 0.25
    assert werner_to_fidelity(1.0) == 1.0
    for f in np.linspace(0.25, 1.0, 41):
        assert werner_to_fidelity(fidelity_to_werner(float(f))) == pytest.approx(
            float(f), rel=1e-15, abs=1e-15)
    with pytest.raises(ValueError, match=r"^fidelity = 0.2 outside \[0.25, 1\]$"):
        fidelity_to_werner(0.2)
    with pytest.raises(ValueError, match=r"^f_bsm = nan outside \[0.25, 1\]$"):
        fidelity_to_werner(math.nan, "f_bsm")
    with pytest.raises(ValueError):
        werner_to_fidelity(1.1)


def test_qber():
    assert qber(1.0) == 0.0
    assert qber(0.8) == pytest.approx(2.0 / 15.0, rel=1e-12)
    assert abs(qber(0.8) - 0.1333) <= 1e-4
    with pytest.raises(ValueError):
        qber(0.1)


def test_decohere():
    assert decohere(0.9, 0.0) == 0.9
    assert decohere(1.0, 3.0) == pytest.approx(0.36787944117144233, rel=1e-12)
    assert decohere(0.9, 2.0, rate_per_s=0.5) == pytest.approx(
        0.9 * 0.36787944117144233, rel=1e-12)


def _report(profile, config=Config.B, n=1):
    """The pipeline report of one segment of n links, stored for no time."""
    return end_to_end_report(profile, NetworkDesign(config, 10.0, n, 1, xi=max(2, n)), 0.0)


def test_link_werner(near, long_term):
    assert _report(near).w_link == pytest.approx(W_LINK_NEAR, rel=1e-12)
    assert _report(long_term).w_link == pytest.approx(W_LINK_LONG, rel=1e-12)


def test_segment_werner(near, long_term):
    assert _report(long_term, n=2).w_segment == pytest.approx(W_SEG_LONG_2, rel=1e-12)
    assert _report(near, n=3).w_segment == pytest.approx(W_SEG_NEAR_3, rel=1e-12)
    assert _report(near).w_segment == _report(near).w_link


def test_transfer_werner(near, long_term):
    assert _report(near, Config.A).w_transfer == pytest.approx(W_TRANSFER_NEAR_A1, rel=1e-12)
    assert _report(long_term, Config.A, 2).w_transfer == pytest.approx(
        W_TRANSFER_LONG_A2, rel=1e-12)
    # edge-memory recall penalty applies only to config A beyond one link
    assert _report(near, Config.B, 3).w_transfer == _report(near, Config.B, 1).w_transfer
    assert _report(near, Config.A, 2).w_transfer < _report(near, Config.A, 1).w_transfer


def test_router_pair_werner(near, long_term):
    assert router_pair_werner(near, Config.A, 1, 0.0) == pytest.approx(
        W_PAIR_NEAR_A1, rel=1e-12)
    assert router_pair_werner(long_term, Config.A, 2, 0.0) == pytest.approx(
        W_PAIR_LONG_A2, rel=1e-12)
    assert werner_to_fidelity(router_pair_werner(near, Config.A, 1, 0.0)) == pytest.approx(
        F_PAIR_NEAR_A1, rel=1e-12)
    with pytest.raises(ValueError):
        router_pair_werner(near, Config.A, 1, -1.0)


@pytest.mark.parametrize("tau", [-1.0, math.nan, -math.inf])
def test_every_pipeline_entry_names_a_bad_storage_time(near, tau):
    # decohere holds the one tau_s >= 0 check; the pipeline entries reach it unchanged.
    design = NetworkDesign(Config.A, 20.0, 1, 2)
    for call in (lambda: decohere(0.9, tau),
                 lambda: router_pair_werner(near, Config.A, 1, tau),
                 lambda: end_to_end_report(near, design, tau)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"tau_s = {tau!r} must be >= 0"


def test_storage_factor_is_piecewise(near):
    # tau = 0 skips storage entirely; any positive tau pays the memory-write
    # fidelity twice even as the decay factor approaches one
    at_zero = router_pair_werner(near, Config.A, 1, 0.0)
    just_after = router_pair_werner(near, Config.A, 1, 1e-300)
    w_c13 = fidelity_to_werner(near.f_c13)
    assert just_after == pytest.approx(at_zero * w_c13 ** 2, rel=1e-12)
    assert just_after < at_zero


def test_end_to_end_report(near, long_term):
    ell = max_link_length(long_term)
    design = NetworkDesign(Config.A, ell, 2, 1)
    rep = end_to_end_report(long_term, design, TAU_LONG_A2_N1)
    assert rep.tau_s == TAU_LONG_A2_N1
    assert rep.w_end_to_end == pytest.approx(W_END_LONG_A2_N1, rel=1e-12)
    assert rep.fidelity == pytest.approx(F_END_LONG_A2_N1, rel=1e-12)
    assert rep.qber == pytest.approx(2.0 / 3.0 * (1.0 - rep.fidelity), rel=1e-12)
    near_design = NetworkDesign(Config.A, 20.0, 1, 2)
    rep2 = end_to_end_report(near, near_design, 1.0)
    assert rep2.fidelity == pytest.approx(F_END_NEAR_A1_N2_TAU1, rel=1e-12)


def test_report_chain_is_monotone(near, long_term):
    for profile, n, big_n in ((near, 1, 3), (long_term, 2, 4)):
        design = NetworkDesign(Config.A, max_link_length(profile), n, big_n)
        tau, _ = routed_cutoff_time(profile, design)
        rep = end_to_end_report(profile, design, tau)
        assert 0.0 <= rep.w_end_to_end <= rep.w_router_pair_stored
        assert rep.w_router_pair_stored <= rep.w_router_pair <= rep.w_segment
        assert rep.w_segment <= rep.w_link <= 1.0


def test_compose_oracle_matches_scalar_pipeline(near, long_term, ideal):
    cases = [
        (near, Config.A, 1, 1, 0.0),
        (near, Config.A, 1, 2, 1.0),
        (near, Config.A, 3, 2, 0.01),
        (long_term, Config.A, 2, 1, TAU_LONG_A2_N1),
        (long_term, Config.B, 2, 3, 0.002),
        (ideal, Config.A, 2, 2, 0.0),
    ]
    for profile, config, n, big_n, tau in cases:
        design = NetworkDesign(config, 10.0, n, big_n, xi=2)
        scalar = end_to_end_report(profile, design, tau).fidelity
        matrix = compose_oracle(
            profile_stage_fidelities(profile), tau, n, big_n, config,
            decoherence_rate_per_s=profile.decoherence_rate_per_s,
        )
        assert abs(scalar - matrix) < 1e-12, (config, n, big_n, tau)


def test_compose_oracle_random_profiles(near):
    rng = np.random.default_rng(20240817)
    for _ in range(25):
        stage = {name: float(rng.uniform(0.9, 1.0)) for name in STAGE_ORDER}
        profile = dataclasses.replace(near, **stage)
        n = int(rng.integers(1, 4))
        big_n = int(rng.integers(1, 4))
        config = Config.A if rng.random() < 0.5 else Config.B
        tau = float(rng.choice([0.0, 1e-4, 0.05]))
        xi = max(2, n)
        design = NetworkDesign(config, 5.0, n, big_n, xi=xi)
        scalar = end_to_end_report(profile, design, tau).fidelity
        matrix = compose_oracle(
            profile_stage_fidelities(profile), tau, n, big_n, config,
            decoherence_rate_per_s=profile.decoherence_rate_per_s,
        )
        assert abs(scalar - matrix) < 1e-12


def test_profile_stage_fidelities_covers_all_stages(near):
    assert set(STAGE_ORDER) == {
        "f_epps", "f_afc", "f_bsm", "f_ffsmm", "f_buff", "f_qfc",
        "f_tb_pol", "f_map", "f_c13", "f_cnot", "f_rout",
    }
    stages = profile_stage_fidelities(near)
    assert stages == tuple(getattr(near, name) for name in STAGE_ORDER)


def test_compose_oracle_rejects_bad_inputs(near):
    stages = profile_stage_fidelities(near)
    with pytest.raises(ValueError):
        compose_oracle(stages[:-1], 0.0, 1, 1, Config.A)
    with pytest.raises(ValueError):
        compose_oracle(stages, -0.5, 1, 1, Config.A)
    with pytest.raises(ValueError, match="tau_s = nan must be >= 0"):
        compose_oracle(stages, math.nan, 1, 2, Config.A)
    with pytest.raises(ValueError):
        compose_oracle(stages, 0.0, 0, 1, Config.A)
    bad_stage = stages[:8] + (1.5,) + stages[9:]
    with pytest.raises(ValueError, match=r"^f_c13 = 1.5 outside \[0.25, 1\]$"):
        compose_oracle(bad_stage, 0.0, 1, 1, Config.A)


def _oracle(profile, design, tau):
    return compose_oracle(profile_stage_fidelities(profile), tau, design.n, design.big_n,
                          design.config, decoherence_rate_per_s=profile.decoherence_rate_per_s)


def test_replaced_profile_gets_fresh_stage_weights(near):
    used = dataclasses.replace(near)
    design = NetworkDesign(Config.A, 20.0, 2, 3)
    before = end_to_end_report(used, design, 0.05)
    router_pair_werner(used, Config.A, 2, 0.05)
    changed = dataclasses.replace(used, f_bsm=0.9)
    after = end_to_end_report(changed, design, 0.05)
    assert after.fidelity != before.fidelity
    assert abs(after.fidelity - _oracle(changed, design, 0.05)) < 1e-12
    w_src = (fidelity_to_werner(near.f_epps) * fidelity_to_werner(near.f_afc)
             * fidelity_to_werner(near.f_ffsmm))
    assert after.w_link == fidelity_to_werner(0.9) * w_src ** 2
    # The first profile still reads its own weights.
    assert end_to_end_report(used, design, 0.05) == before


def test_used_profile_keeps_its_dataclass_surface(near):
    used = dataclasses.replace(near)
    end_to_end_report(used, NetworkDesign(Config.B, 10.0, 2, 2), 0.01)
    assert used == near and hash(used) == hash(near) and repr(used) == repr(near)
    assert list(dataclasses.asdict(used)) == [f.name for f in dataclasses.fields(used)]
    assert dataclasses.replace(used, f_rout=0.9) == dataclasses.replace(near, f_rout=0.9)


_stage = st.floats(0.25, 1.0)


@settings(max_examples=150, deadline=None)
@given(stages=st.tuples(*[_stage] * len(STAGE_ORDER)), rate=st.floats(0.0, 10.0),
       n=st.integers(1, 4), big_n=st.integers(1, 4), config=st.sampled_from(list(Config)),
       tau=st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
def test_end_to_end_report_matches_oracle_on_random_profiles(stages, rate, n, big_n, config,
                                                            tau):
    profile = dataclasses.replace(builtin_profile("near"), decoherence_rate_per_s=rate,
                                  **dict(zip(STAGE_ORDER, stages)))
    design = NetworkDesign(config, 5.0, n, big_n, xi=max(2, n))
    first = end_to_end_report(profile, design, tau)
    assert abs(first.fidelity - _oracle(profile, design, tau)) < 1e-12
    assert end_to_end_report(profile, design, tau) == first


@pytest.mark.parametrize("value", [1.5, 0.2, math.nan])
@pytest.mark.parametrize("field", STAGE_ORDER)
def test_unvalidated_stage_fidelity_raises_from_every_werner_entry(near, field, value):
    bad = dataclasses.replace(near, **{field: value})
    design = NetworkDesign(Config.A, 20.0, 2, 2)
    entries = (
        lambda: router_pair_werner(bad, Config.A, 2, 0.0),
        lambda: end_to_end_report(bad, design, 0.1),
    )
    for _attempt in range(2):  # a failed computation leaves nothing behind
        for call in entries:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"{field} = {value!r} outside [0.25, 1]"
