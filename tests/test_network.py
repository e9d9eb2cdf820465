import dataclasses
import math

import pytest

from repchain import (
    Config,
    DesignError,
    NetworkDesign,
    buffer_mode_capacity,
    check_feasibility,
    max_link_length,
    resources,
    timings,
)


def test_max_link_length(near, long_term, ideal):
    assert max_link_length(near) == pytest.approx(20.0, rel=1e-12)
    assert max_link_length(long_term) == pytest.approx(60.0, rel=1e-12)
    assert max_link_length(ideal) == pytest.approx(100.0, rel=1e-12)


def test_timings_near_single_link(near):
    t = timings(NetworkDesign(Config.A, 20.0, 1, 1), near)
    assert t.t_rt == pytest.approx(1e-4, rel=1e-12)
    assert t.t_arc == pytest.approx(1e-4, rel=1e-12)
    assert t.t_trans == pytest.approx(0.0011, rel=1e-12)
    assert t.t_trans_tilde == pytest.approx(0.001, rel=1e-12)


def test_timings_long_two_links(long_term):
    ell = max_link_length(long_term)
    t = timings(NetworkDesign(Config.A, ell, 2, 1), long_term)
    assert t.t_rt == pytest.approx(3e-4, rel=1e-12)
    assert t.t_arc == pytest.approx(6e-4, rel=1e-12)
    assert t.t_trans == pytest.approx(8e-4, rel=1e-12)
    assert t.t_trans_tilde == pytest.approx(2e-4, rel=1e-12)


def test_timings_scale_with_length(near):
    short = timings(NetworkDesign(Config.A, 10.0, 2, 1), near)
    longer = timings(NetworkDesign(Config.A, 30.0, 2, 1), near)
    assert longer.t_rt > short.t_rt
    assert longer.t_arc > short.t_arc
    assert longer.t_trans > short.t_trans


def test_resources_config_a():
    r1 = resources(NetworkDesign(Config.A, 20.0, 1, 1))
    assert (r1.qms, r1.qrs) == (2, 0)
    r3 = resources(NetworkDesign(Config.A, 20.0, 3, 2))
    assert (r3.qms, r3.qrs) == (10, 0)
    assert r3.total_km == pytest.approx(120.0, rel=1e-12)


def test_resources_config_b():
    r = resources(NetworkDesign(Config.B, 10.0, 1, 2, xi=2))
    assert (r.qms, r.qrs) == (4, 1)
    r2 = resources(NetworkDesign(Config.B, 10.0, 2, 4, xi=3))
    assert (r2.qms, r2.qrs) == (12, 5)
    assert r2.total_km == pytest.approx(80.0, rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(ell_km=0.0),
    dict(ell_km=-3.0),
    dict(n=0),
    dict(big_n=0),
    dict(xi=1),
    dict(epsilon=0.0),
    dict(epsilon=1.0),
    dict(ell_km=1e308, n=2),    # total length big_n * n * ell_km overflows
])
def test_design_validation(kwargs):
    base = dict(config=Config.A, ell_km=20.0, n=1, big_n=1)
    base.update(kwargs)
    with pytest.raises(DesignError):
        NetworkDesign(**base)


def test_design_config_b_requires_short_segments():
    with pytest.raises(DesignError):
        NetworkDesign(Config.B, 10.0, 3, 1, xi=2)
    NetworkDesign(Config.B, 10.0, 2, 1, xi=2)


def test_feasibility_clean(near):
    assert check_feasibility(NetworkDesign(Config.A, 20.0, 1, 1), near) == []


def test_feasibility_cutoff_window(near):
    # storage budget shorter than the handoff makes the window unusable
    tight = dataclasses.replace(near, t_nv=1e-6)
    violations = check_feasibility(NetworkDesign(Config.A, 20.0, 1, 1), tight)
    assert [v.name for v in violations] == ["cutoff-window"]


def test_feasibility_degenerate_zero_storage(near):
    dead = dataclasses.replace(near, t_nv=0.0)
    violations = check_feasibility(NetworkDesign(Config.A, 20.0, 1, 1), dead)
    assert "cutoff-window" in [v.name for v in violations]


def test_feasibility_buffer_spin(near):
    slow = dataclasses.replace(near, t_buff_spin=1e-5)
    violations = check_feasibility(NetworkDesign(Config.A, 20.0, 3, 1), slow)
    assert "buffer-spin-storage" in [v.name for v in violations]


def test_feasibility_boundary_is_satisfied(near):
    t = timings(NetworkDesign(Config.A, 20.0, 1, 1), near)
    boundary = dataclasses.replace(near, t_nv=t.t_trans)
    assert check_feasibility(NetworkDesign(Config.A, 20.0, 1, 1), boundary) == []


def test_buffer_mode_capacity(near, long_term):
    # 30 ns * 100 MHz = 3 exactly in reals; the float product lands just below
    assert buffer_mode_capacity(near) == 3
    assert buffer_mode_capacity(long_term) == 100
    partial = dataclasses.replace(near, t_buff_opt=2.5e-8)
    assert buffer_mode_capacity(partial) == 2
