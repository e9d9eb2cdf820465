import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repchain
from repchain import (
    Config,
    NetworkDesign,
    Scenario,
    attempt_rate,
    builtin_profile,
    floored_attempts,
    floored_window_rate,
    max_link_length,
    no_buffer_cutoff_time,
    nv_attempt_rate,
    nv_cutoff_time,
    nv_link_success_prob,
    routed_cutoff_time,
    segment_success_prob,
    timings,
    window_law,
)
from repchain import cli
from repchain.cli import main

HEADER = (
    "scenario,era,config,n,N,ell_km,total_km,tau_s,tau_clamped,"
    "rate_hz,fidelity,qber,mc_rate_hz,mc_std_error,seed"
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_row(out):
    lines = out.splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 2
    return lines[1].split(",")


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys, [])
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ["rate", "--scenario", "bogus"],
    ["simulate", "--mode", "bogus"],
    ["reproduce", "--study", "bogus", "--out", "x.csv"],
    ["rate"],
    # The buffer-free chain is --scenario routed-nobuffer; no subcommand takes --no-buffer.
    ["fidelity", "--no-buffer"],
    ["simulate", "--mode", "window-routed", "--no-buffer"],
    ["sweep", "--scenario", "routed", "--axis", "n", "--start", "1", "--stop", "3",
     "--step", "1", "--no-buffer"],
    ["rate", "--scenario", "routed", "--no-buffer"],
])
def test_bad_choices_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "usage error" in err


def test_rate_segment_near_exact_row(capsys):
    code, out, err = run(capsys, ["rate", "--scenario", "segment"])
    assert code == 0
    assert err == ""
    assert out == HEADER + "\nsegment,near,A,1,,20.0,20.0,,,30.73435457433004,,,,,\n"


def test_rate_routed_long(capsys):
    code, out, _ = run(capsys, ["rate", "--scenario", "routed",
                                "--profile", "long", "--n", "2"])
    assert code == 0
    fields = parse_row(out)
    assert fields[0] == "routed"
    assert fields[1] == "long"
    assert fields[2] == "A"
    assert fields[3] == "2"
    assert fields[4] == "1"
    assert float(fields[5]) == pytest.approx(60.0, rel=1e-12)
    assert float(fields[6]) == pytest.approx(120.0, rel=1e-12)
    assert float(fields[7]) == pytest.approx(0.0008043212020616748, rel=1e-12)
    assert fields[8] == "false"
    assert float(fields[9]) == pytest.approx(1181.120176323731, rel=1e-9)
    assert fields[10] == "" and fields[11] == ""


# The windows of `rate --scenario routed --profile long --n 2 --big-n 3` at two failure
# budgets too small for 1 - (1 - epsilon) ** (1 / N) to hold in a float, from a
# 50-digit decimal reference of the cutoff.
@pytest.mark.parametrize("epsilon, window", [("1e-16", "0.00085472661704469125340"),
                                             ("5e-324", "0.00187540427684639091791")])
def test_rate_routed_long_tiny_epsilon_gets_its_exact_window(capsys, epsilon, window):
    code, out, err = run(capsys, ["rate", "--scenario", "routed", "--profile", "long",
                                  "--n", "2", "--big-n", "3", "--epsilon", epsilon])
    assert (code, err) == (0, "")
    fields = parse_row(out)
    assert fields[8] == "false"
    assert abs(Decimal(fields[7]) - Decimal(window)) < Decimal("1e-15") * Decimal(window)


def test_rate_routed_nobuffer_scenario(capsys):
    code, out, _ = run(capsys, ["rate", "--scenario", "routed-nobuffer"])
    assert code == 0
    fields = parse_row(out)
    assert fields[0] == "routed-nobuffer"
    assert float(fields[9]) == pytest.approx(50.39892893014383, rel=1e-9)


def test_rate_routed_nobuffer_uses_tau_s(capsys):
    code, out, err = run(capsys, ["rate", "--scenario", "routed-nobuffer", "--profile", "near",
                                  "--big-n", "2", "--tau-s", "0.01"])
    assert code == 0
    assert err == ""
    fields = parse_row(out)
    assert fields[7] == "0.01"
    assert 0.0 < float(fields[9]) < 1.0 / 0.01


@pytest.mark.parametrize("scenario, profile", [("segment", "near"), ("nv-chain", "long")])
def test_sweep_and_rate_agree_on_routerless_rows(capsys, scenario, profile):
    # Segment and nv-chain run on one segment: a template --big-n must not
    # reach total_km in a sweep any more than in a rate call.
    design = ["--scenario", scenario, "--profile", profile, "--n", "2", "--big-n", "3"]
    code, swept, _ = run(capsys, ["sweep", "--axis", "n", "--start", "2", "--stop", "2",
                                  "--step", "1", *design])
    assert code == 0
    _, rated, _ = run(capsys, ["rate", *design])
    assert swept == rated
    fields = parse_row(rated)
    assert float(fields[6]) == 2 * float(fields[5])


def test_rate_nv_chain_hides_config_and_big_n(capsys):
    code, out, _ = run(capsys, ["rate", "--scenario", "nv-chain", "--profile", "long"])
    assert code == 0
    fields = parse_row(out)
    assert fields[0] == "nv-chain"
    assert fields[2] == "" and fields[4] == ""
    assert float(fields[9]) == pytest.approx(1143.7285193287964, rel=1e-9)


@pytest.mark.parametrize("head, config, n, big_n", [
    (["simulate", "--mode", "micro-link"], "A", 1, None),
    (["simulate", "--mode", "micro-segment"], "A", 2, None),
    (["simulate", "--mode", "window-nv"], "", 2, None),
    (["simulate", "--mode", "window-routed"], "A", 2, 3),
    (["simulate", "--mode", "window-nobuffer"], "A", 2, 3),
    (["rate", "--scenario", "segment"], "A", 2, None),
    (["rate", "--scenario", "nv-chain"], "", 2, None),
    (["rate", "--scenario", "routed"], "A", 2, 3),
    (["rate", "--scenario", "routed-nobuffer"], "A", 2, 3),
])
def test_rows_show_n_only_for_routed_chains_and_count_it_in_total_km(
        capsys, head, config, n, big_n):
    # micro-link is one link (n = 1); only routed chains show N and count it in
    # total_km; the nv chain hides config.
    argv = [*head, "--profile", "long", "--n", "2", "--big-n", "3"]
    if head[0] == "simulate":
        argv += ["--trials", "64"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    fields = parse_row(out)
    assert fields[2:5] == [config, str(n), "" if big_n is None else str(big_n)]
    assert float(fields[6]) == (big_n or 1) * n * float(fields[5])


def test_fidelity_long(capsys):
    code, out, _ = run(capsys, ["fidelity", "--profile", "long", "--n", "2"])
    assert code == 0
    fields = parse_row(out)
    assert fields[0] == "fidelity-end-to-end"
    assert float(fields[7]) == pytest.approx(0.0008043212020616748, rel=1e-12)
    assert fields[8] == "false"
    assert fields[9] == ""
    assert float(fields[10]) == pytest.approx(0.8109592290221576, rel=1e-12)
    assert float(fields[11]) == pytest.approx(0.12602718065189494, rel=1e-12)


def test_fidelity_explicit_zero_tau_is_not_clamped(capsys):
    # Storing for no time is a meaningful window, below the handoff floor and never clamped.
    code, out, _ = run(capsys, ["fidelity", "--profile", "long", "--n", "2",
                                "--tau-s", "0.0"])
    assert code == 0
    fields = parse_row(out)
    assert fields[7] == "0.0"
    assert fields[8] == "false"
    assert float(fields[10]) > 0.8109592290221576


def test_simulate_micro_link(capsys):
    argv = ["simulate", "--mode", "micro-link",
            "--seed", "1234", "--trials", "20000"]
    code, out, err = run(capsys, argv)
    assert code == 0
    assert err == ""
    fields = parse_row(out)
    assert fields[0] == "micro-link"
    assert fields[4] == ""       # no router column for a single link
    assert fields[7] == ""       # no window
    assert fields[9] == ""       # no closed-form rate column for micro modes
    p_hat = float(fields[12])
    std = float(fields[13])
    assert abs(p_hat - 0.07819376741958271) <= 3.0 * std
    assert fields[14] == "1234"
    rerun_code, rerun_out, _ = run(capsys, argv)
    assert rerun_code == 0
    assert rerun_out == out


def test_simulate_window_nv_with_explicit_tau(capsys):
    code, out, _ = run(capsys, [
        "simulate", "--mode", "window-nv", "--profile", "long",
        "--tau-s", "1.2e-3", "--seed", "1234", "--trials", "20000",
    ])
    assert code == 0
    fields = parse_row(out)
    assert fields[0] == "window-nv"
    assert fields[2] == "" and fields[4] == ""
    assert float(fields[7]) == pytest.approx(1.2e-3, rel=1e-15)
    assert fields[8] == "false"    # explicit window inside the storage time
    assert float(fields[9]) == pytest.approx(803.022306492675, rel=1e-12)
    mc = float(fields[12])
    std = float(fields[13])
    assert abs(mc - float(fields[9])) <= 3.0 * std


def test_simulate_window_routed_defaults_to_cutoff(capsys):
    code, out, _ = run(capsys, [
        "simulate", "--mode", "window-routed", "--profile", "long",
        "--n", "2", "--seed", "1234", "--trials", "20000",
    ])
    assert code == 0
    fields = parse_row(out)
    assert float(fields[7]) == pytest.approx(0.0008043212020616748, rel=1e-12)
    assert fields[8] == "false"
    assert float(fields[9]) == pytest.approx(1181.068350449949, rel=1e-9)


# Stands for a near-era profile file whose routers store for t_nv = 1e14 s.
_LONG_STORAGE = "LONG_STORAGE_PROFILE"


def _long_storage_profile(directory: Path) -> str:
    path = directory / "storage.profile"
    path.write_text("base = near\nt_nv = 1e14\n", encoding="utf-8")
    return str(path)


VALIDATION_ERRORS = [
    (["rate", "--scenario", "segment", "--ell-km", "-5"], "ell_km"),
    (["rate", "--scenario", "segment", "--profile", "/nonexistent/profile.txt"],
     "/nonexistent/profile.txt"),
    (["rate", "--scenario", "routed", "--epsilon", "1.5"], "epsilon"),
    (["simulate", "--mode", "micro-link", "--trials", "0"], "trials"),
    (["simulate", "--mode", "window-routed", "--tau-s", "-1"], "--tau-s"),
    (["fidelity", "--tau-s", "-2"], "--tau-s"),
    (["sweep", "--scenario", "routed", "--axis", "n",
      "--start", "5", "--stop", "1", "--step", "1"], "sweep"),
    # Non-finite values: each is named, none yields a nan row.
    (["rate", "--scenario", "routed", "--ell-km", "nan"], "ell_km"),
    (["rate", "--scenario", "routed", "--tau-s", "nan"], "--tau-s"),
    (["fidelity", "--tau-s", "inf"], "--tau-s"),
    (["simulate", "--mode", "window-routed", "--tau-s", "nan"], "--tau-s"),
    (["sweep", "--scenario", "routed", "--axis", "n",
      "--start", "1", "--stop", "inf", "--step", "1"], "stop"),
    # rate takes a window duration > 0, as simulate does.
    (["rate", "--scenario", "routed", "--tau-s", "-1"], "--tau-s"),
    (["rate", "--scenario", "routed", "--tau-s", "0"], "--tau-s"),
    # Segment and nv-chain have no routers to sweep.
    (["sweep", "--scenario", "segment", "--axis", "big-n",
      "--start", "1", "--stop", "3", "--step", "1"], "big_n"),
    (["sweep", "--scenario", "nv-chain", "--axis", "big-n",
      "--start", "1", "--stop", "3", "--step", "1"], "big_n"),
    (["sweep", "--scenario", "segment", "--axis", "n",
      "--start", "1", "--stop", "3", "--step", "1", "--big-n", "0"], "big_n"),
    # Finite inputs whose total length big_n * n * ell_km overflows.
    (["rate", "--scenario", "routed", "--profile", "near", "--ell-km", "1e308", "--n", "2"],
     "ell_km"),
    (["fidelity", "--profile", "near", "--ell-km", "1e308", "--big-n", "2"], "ell_km"),
    # A worker count above params.MAX_WORKERS fails validation before any thread starts.
    (["simulate", "--mode", "micro-link", "--workers", "1000000"], "workers"),
    (["sweep", "--scenario", "routed", "--axis", "n", "--start", "1", "--stop", "2",
      "--step", "1", "--with-mc", "--workers", "1000000"], "workers"),
    # 1e20 attempts of p_attempt 4e-19 each: too many herald trials for an
    # int64 geometric index, and too few expected heralds for a certain window.
    # A router storage time of 1e14 s keeps the window from its clamp.
    (["simulate", "--mode", "window-routed", "--profile", _LONG_STORAGE, "--ell-km", "700",
      "--tau-s", "1e13"], "tau_s"),
    # A link so short that its attempt rate overflows: the length is at fault, not the window.
    (["simulate", "--mode", "window-nv", "--ell-km", "1e-320", "--tau-s", "1"], "ell_km"),
    (["rate", "--scenario", "nv-chain", "--ell-km", "1e-320", "--tau-s", "1"], "ell_km"),
    # 4096 trials over 1025 stations: one chunk's herald-index block exceeds
    # montecarlo.MAX_BLOCK_COUNTS, so the estimate is refused before it draws.
    (["simulate", "--mode", "window-routed", "--profile", "long", "--n", "2",
      "--big-n", "1025", "--trials", "4096"], "big_n"),
]


@pytest.mark.parametrize("argv, field", VALIDATION_ERRORS,
                         ids=[f"argv{i}" for i in range(len(VALIDATION_ERRORS))])
def test_validation_errors_exit_2(capsys, tmp_path, argv, field):
    if _LONG_STORAGE in argv:
        argv = [_long_storage_profile(tmp_path) if arg == _LONG_STORAGE else arg for arg in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert field in err


# Non-finite, zero, negative, subnormal and huge values for one float flag.
_EXTREME_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308]),
    st.floats(max_value=-1e-300, allow_infinity=False),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
)
_FLAG_FIELDS = {
    "--ell-km": "ell_km", "--tau-s": "--tau-s", "--epsilon": "epsilon",
    "--start": "start", "--stop": "stop", "--step": "step",
}
_SPAN = {"--start": "1", "--stop": "3", "--step": "1"}
_NUMERIC_COLUMNS = {"n", "N", "ell_km", "total_km", "tau_s", "rate_hz", "fidelity", "qber",
                    "mc_rate_hz", "mc_std_error", "seed"}


@st.composite
def _extreme_calls(draw):
    """A rate, fidelity, sweep or one-trial window simulate argv with one float
    flag set to an extreme value, and the field names an error about that flag may give."""
    command = draw(st.sampled_from(["rate", "fidelity", "sweep", "simulate"]))
    argv = [command]
    flags = ["--ell-km", "--epsilon"]
    fields = set()
    if command == "simulate":
        mode = draw(st.sampled_from(["window-routed", "window-nv", "window-nobuffer"]))
        argv += ["--mode", mode, "--trials", "1"]
        fields.add("tau_s")       # the window's herald trials may exceed an int64 index
    elif command != "fidelity":
        scenario = draw(st.sampled_from([s.value for s in Scenario]))
        argv += ["--scenario", scenario]
    if command == "sweep":
        routed = scenario.startswith("routed")
        axis = draw(st.sampled_from(["n", "ell-km", "big-n"] if routed else ["n", "ell-km"]))
        argv += ["--axis", axis]
        flags += list(_SPAN)
        if axis == "ell-km":
            fields.add("ell_km")      # a swept value reaches the design as ell_km
    else:
        flags.append("--tau-s")
    argv += ["--profile", draw(st.sampled_from(["near", "long"])),
             "--n", str(draw(st.integers(1, 3))), "--big-n", str(draw(st.integers(1, 3)))]
    flag = draw(st.sampled_from(flags))
    if command == "sweep":
        argv += [f"{name}={value}" for name, value in _SPAN.items() if name != flag]
    # Both spellings: `--flag -1e308` must not be read as two options.
    value = repr(draw(_EXTREME_FLOATS))
    argv += draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))
    return argv, fields | {_FLAG_FIELDS[flag]}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=_extreme_calls())
@example(call=(["rate", "--scenario", "routed", "--profile", "near", "--ell-km", "1e308",
                "--n", "2"], {"ell_km"}))
@example(call=(["fidelity", "--profile", "near", "--ell-km", "1e308", "--big-n", "2"],
               {"ell_km"}))
# Negative floats in exponent and word form, space-separated from their flag.
@example(call=(["rate", "--scenario", "routed", "--ell-km", "-1e308"], {"ell_km"}))
@example(call=(["rate", "--scenario", "routed", "--tau-s", "-inf"], {"--tau-s"}))
@example(call=(["sweep", "--scenario", "routed", "--axis", "n", "--start", "-5e-324",
                "--stop", "3", "--step", "1"], {"start"}))
@example(call=(["simulate", "--mode", "window-routed", "--trials", "1", "--profile", "near",
                "--tau-s", "1e308"], {"tau_s", "--tau-s"}))
# No attempt fits a subnormal window: a rate of 0, not 0 * (1 / tau) = nan.
@example(call=(["simulate", "--mode", "window-routed", "--trials", "1", "--profile", "near",
                "--tau-s=4.605980807055523e-309"], {"tau_s", "--tau-s"}))
# The attempt rate overflows: an error about ell_km, not about tau_s.
@example(call=(["simulate", "--mode", "window-nv", "--trials", "1", "--ell-km", "1e-320"],
               {"ell_km"}))
def test_extreme_floats_exit_2_naming_the_field_or_give_finite_rows(capsys, call):
    # No --with-mc and no --workers: at most one one-trial estimate runs, in this thread.
    argv, fields = call
    code, out, err = run(capsys, argv)
    if code == 2:
        assert out == ""
        assert err.startswith("error:")
        assert any(field in err for field in fields), err
        return
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == HEADER
    for line in lines[1:]:
        for column, cell in zip(HEADER.split(","), line.split(",")):
            if column in _NUMERIC_COLUMNS and cell:
                assert math.isfinite(float(cell)), (column, line)


@pytest.mark.parametrize("explicit_tau", [None, 3e-3])
@pytest.mark.parametrize("mode", ["window-routed", "window-nv", "window-nobuffer"])
def test_simulate_reference_is_floored_window_law(capsys, mode, explicit_tau):
    # rate_hz is the closed form with the simulator's floored attempt count,
    # assembled here from the public pieces of each scenario's window law.
    profile = builtin_profile("long")
    design = NetworkDesign(Config.A, max_link_length(profile), 2, 3)
    t = timings(design, profile)
    if mode == "window-routed":
        tau, _ = routed_cutoff_time(profile, design)
        tau = explicit_tau or tau
        k = floored_attempts(attempt_rate(profile), tau - t.t_trans)
        ref = floored_window_rate(segment_success_prob(profile, design), k, design.big_n, tau)
    elif mode == "window-nv":
        tau, _ = nv_cutoff_time(profile, design)
        tau = explicit_tau or tau
        k = floored_attempts(nv_attempt_rate(design.ell_km), tau / 2.0 - t.t_trans_tilde)
        ref = floored_window_rate(
            nv_link_success_prob(profile, design.ell_km), k, design.n, tau)
    else:
        tau, _ = no_buffer_cutoff_time(profile, design)
        tau = explicit_tau or tau
        k = floored_attempts(attempt_rate(profile), tau / 2.0 - t.t_trans)
        ref = floored_window_rate(
            segment_success_prob(profile, design, include_buffer=False), k, design.big_n, tau)
    argv = ["simulate", "--mode", mode, "--profile", "long", "--n", "2", "--big-n", "3",
            "--trials", "1000"]
    if explicit_tau is not None:
        assert k > 0 and ref > 0.0
        argv += ["--tau-s", repr(explicit_tau)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    fields = parse_row(out)
    assert float(fields[7]) == pytest.approx(tau, rel=1e-12)
    assert float(fields[9]) == pytest.approx(ref, rel=1e-12)


def test_profile_file_sets_era_column(capsys, tmp_path):
    path = tmp_path / "lab-upgrade.profile"
    path.write_text("base = long\neta_bsm = 0.6\n", encoding="utf-8")
    code, out, _ = run(capsys, ["rate", "--scenario", "segment",
                                "--profile", str(path), "--n", "2"])
    assert code == 0
    fields = parse_row(out)
    assert fields[1] == "lab-upgrade"
    assert float(fields[9]) > 690866.1119378718  # better swap than built-in long


@pytest.mark.parametrize("stem", ["a,b", 'q"x'])
@pytest.mark.parametrize("command", [
    ["rate", "--scenario", "segment"],
    ["fidelity"],
    ["sweep", "--scenario", "routed", "--axis", "n", "--start", "1", "--stop", "2", "--step", "1"],
])
def test_profile_stem_a_csv_cell_cannot_carry_exits_2(capsys, tmp_path, stem, command):
    # The era label is the profile file's stem; a comma or a quote in it would
    # shift or open a CSV field, so the row is refused, naming the label.
    path = tmp_path / f"{stem}.txt"
    path.write_text("base = near\n", encoding="utf-8")
    code, out, err = run(capsys, command + ["--profile", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: era label ")
    assert repr(stem) in err


@pytest.mark.parametrize("command", [
    ["simulate", "--mode", "micro-link"],
    ["simulate", "--mode", "window-routed"],
    ["sweep", "--scenario", "routed", "--axis", "n", "--start", "1", "--stop", "2",
     "--step", "1", "--with-mc"],
])
def test_bad_era_label_is_refused_before_any_estimate(capsys, tmp_path, monkeypatch, command):
    def no_estimate(*args, **kwargs):
        raise AssertionError("an estimate ran before the era label was checked")

    # experiments imports simulate_scenario when it runs, so the patch goes where it is defined.
    monkeypatch.setattr("repchain.montecarlo.simulate_scenario", no_estimate)
    path = tmp_path / "a,b.txt"
    path.write_text("base = near\n", encoding="utf-8")
    code, out, err = run(capsys, command + ["--profile", str(path), "--trials", "4000000"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: era label 'a,b' ")


def test_profile_file_with_utf8_bom_is_read(capsys, tmp_path):
    plain = tmp_path / "plain" / "lab.profile"
    bom = tmp_path / "bom" / "lab.profile"
    for path, prefix in ((plain, b""), (bom, b"\xef\xbb\xbf")):
        path.parent.mkdir()
        path.write_bytes(prefix + b"base = long\r\neta_bsm = 0.6\r\n")
    rows = []
    for path in (plain, bom):
        code, out, err = run(capsys, ["rate", "--scenario", "segment", "--profile", str(path)])
        assert (code, err) == (0, "")
        rows.append(out)
    assert rows[0] == rows[1]
    assert parse_row(rows[1])[1] == "lab"


@pytest.mark.parametrize("lines, field", [
    ("t_nv = inf\nalpha_db_per_km = nan\n", "t_nv"),
    ("alpha_db_per_km = nan\n", "alpha_db_per_km"),
    # Count fields are parsed as integers; a non-finite one is named too.
    ("gamma_t = inf\n", "gamma_t"),
    ("gamma_f = nan\n", "gamma_f"),
])
def test_non_finite_profile_field_exits_2(capsys, tmp_path, lines, field):
    path = tmp_path / "broken.profile"
    path.write_text("base = near\n" + lines, encoding="utf-8")
    code, out, err = run(capsys, ["rate", "--scenario", "nv-chain", "--profile", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"{field} = " in err


@pytest.mark.parametrize("gamma_f", ["1e30", "9223372036854775808"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--mode", "micro-link"],
    ["simulate", "--mode", "micro-segment"],
    ["sweep", "--scenario", "segment", "--axis", "n", "--start", "1", "--stop", "1",
     "--step", "1", "--with-mc"],
])
def test_mode_count_beyond_one_binomial_draw_exits_2(capsys, tmp_path, argv, gamma_f):
    path = tmp_path / "wide.profile"
    path.write_text(f"base = near\ngamma_f = {gamma_f}\n", encoding="utf-8")
    code, out, err = run(capsys, [*argv, "--profile", str(path), "--trials", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: gamma_f = ")


def test_reproduce_fidelity_near(capsys, tmp_path):
    out_path = tmp_path / "fid.csv"
    code, out, err = run(capsys, ["reproduce", "--study", "fidelity",
                                  "--era", "near", "--out", str(out_path)])
    assert code == 0
    assert out == ""
    assert err == ""
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 19
    assert lines[0] == HEADER


# sha256 of `reproduce --study S --era both` without Monte Carlo. A change that
# moves any byte of these CSVs must say so; re-record only for an intended change.
_GOLDEN_CSV_SHA256 = {
    "rate-vs-links": "a48c1cef98ca3ec0314a91c317b517ac7ce35bc6352c6a51a51a89ede88c1d36",
    "rate-vs-routers": "e0f107f821d76cf2020e5d4bb1dc60e0bf9106d43ee670d6369ba1a3ca56efc0",
    "config-compare": "7ab9f028b76e8de579f76e77374ed12d6057cfd9d89363aaf7487d9e819b5346",
    "cutoff-window": "0cee0f35c3d8803aca9d2d41e221c3ffefdc81d47b3cc332d4ba411083637813",
    "fidelity": "ef9adc1a98fa8d245f4e7a7db12501e9cb05a258fda6b6165067c9c696202967",
}


@pytest.mark.parametrize("study", sorted(_GOLDEN_CSV_SHA256))
def test_reproduce_csv_bytes_are_golden(capsys, tmp_path, study):
    out_path = tmp_path / f"{study}.csv"
    code, out, _ = run(capsys, ["reproduce", "--study", study, "--era", "both",
                                "--out", str(out_path)])
    assert (code, out) == (0, "")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == _GOLDEN_CSV_SHA256[study]


# `--with-mc --seed 3 --trials 10000`: two full chunks and a last one of 1 808
# trials per estimate, so a dropped or mis-sized tail moves the bytes. A
# deliberate stream re-key updates these hashes and names its new salt in
# CHANGES.md.
_GOLDEN_MC_CSV_SHA256 = {
    "rate-vs-links": "80c5050d8fbfaee4dd6e0d40b59ad12b25f23827e00bb0f679a41660a216991e",
    "rate-vs-routers": "24efd7b8f386e4fc41b2b3f95d47299a3498457511ae5bab6a5b8f7c786fc336",
    "config-compare": "1e8da52d8f46b8e929b23eabdd699d432efb0a2d8dbe653b8c4925fffb628460",
    "cutoff-window": "dcdb67b81cd4db7e9a8df1ffdc3c845b8a1efca0b189e7a2403947b54ca8546d",
    # The fidelity study draws nothing: its MC bytes are its closed-form bytes.
    "fidelity": _GOLDEN_CSV_SHA256["fidelity"],
}


@pytest.mark.parametrize("study", sorted(_GOLDEN_MC_CSV_SHA256))
def test_reproduce_mc_csv_bytes_are_golden(capsys, tmp_path, study):
    out_path = tmp_path / f"{study}.csv"
    code, out, _ = run(capsys, ["reproduce", "--study", study, "--era", "both", "--with-mc",
                                "--seed", "3", "--trials", "10000", "--out", str(out_path)])
    assert (code, out) == (0, "")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == _GOLDEN_MC_CSV_SHA256[study]


def test_reproduce_reports_failed_checks_but_exits_zero(capsys, tmp_path):
    out_path = tmp_path / "links.csv"
    code, _, err = run(capsys, ["reproduce", "--study", "rate-vs-links",
                                "--era", "near", "--out", str(out_path)])
    assert code == 0
    assert "check failed: near-crossover-rest" in err
    assert "passed" in err
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == 17


def test_reproduce_both_eras_row_count(capsys, tmp_path):
    out_path = tmp_path / "routers.csv"
    code, _, _ = run(capsys, ["reproduce", "--study", "rate-vs-routers",
                              "--out", str(out_path)])
    assert code == 0
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == 61


def test_out_file_gets_lf_bytes_and_stdout_stays_quiet(capsys, tmp_path):
    out_path = tmp_path / "row.csv"
    code, out, _ = run(capsys, ["rate", "--scenario", "segment",
                                "--out", str(out_path)])
    assert code == 0
    assert out == ""
    data = out_path.read_bytes()
    assert b"\r" not in data
    assert data.decode("utf-8").splitlines()[1].startswith("segment,near")


def test_sweep_routed_rate_decreases_with_routers(capsys):
    code, out, err = run(capsys, [
        "sweep", "--scenario", "routed", "--axis", "big-n",
        "--start", "1", "--stop", "5", "--step", "1",
        "--profile", "long", "--n", "2",
    ])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 6
    rates = [float(line.split(",")[9]) for line in lines[1:]]
    assert all(hi <= lo for lo, hi in zip(rates, rates[1:]))
    assert not any(math.isnan(r) for r in rates)


@pytest.mark.parametrize("profile", ["near", "long", "ideal"])
def test_sweep_without_ell_km_uses_the_longest_link(capsys, profile):
    # sweep and the single-design commands share one --ell-km default.
    ell = max_link_length(builtin_profile(profile))
    sweep = ["sweep", "--scenario", "routed", "--axis", "big-n", "--start", "1", "--stop", "3",
             "--step", "1", "--profile", profile, "--n", "2"]
    code, out, err = run(capsys, sweep)
    assert (code, err) == (0, "")
    assert [line.split(",")[5] for line in out.splitlines()[1:]] == [repr(ell)] * 3
    assert run(capsys, sweep + ["--ell-km", repr(ell)]) == (0, out, "")
    _, rated, _ = run(capsys, ["rate", "--scenario", "routed", "--profile", profile, "--n", "2",
                               "--big-n", "3"])
    assert rated.splitlines()[1] == out.splitlines()[3]


def test_tau_note_for_segment_goes_to_stderr(capsys):
    code, out, err = run(capsys, ["rate", "--scenario", "segment",
                                  "--tau-s", "0.1"])
    assert code == 0
    assert "--tau-s" in err
    assert out.splitlines()[1].startswith("segment,")


@pytest.mark.parametrize("scenario", ["routed", "routed-nobuffer", "nv-chain"])
def test_window_below_the_floor_is_written_as_given(capsys, scenario):
    # Only the storage-time clamp moves a window: one at or below the handoff
    # floor is written as given, with no attempt time and a rate of 0.0, and
    # no window prints a note.
    profile = builtin_profile("near")
    law = window_law(Scenario(scenario), profile,
                     NetworkDesign(Config.A, max_link_length(profile), 1, 1))
    argv = ["rate", "--scenario", scenario, "--tau-s"]
    for tau, clamped in ((law.floor_s / 2, "false"), (law.floor_s, "false"),
                         ((law.floor_s + law.t_max) / 2, "false"), (2 * law.t_max, "true")):
        code, out, err = run(capsys, [*argv, repr(tau)])
        assert (code, err) == (0, "")
        fields = parse_row(out)
        assert fields[7:9] == [repr(min(tau, law.t_max)), clamped]
        assert (fields[9] == "0.0") is (tau <= law.floor_s)


_WINDOW_MODES = {"routed": "window-routed", "nv-chain": "window-nv",
                 "routed-nobuffer": "window-nobuffer"}
_WINDOW_CASES = [(scenario, where) for scenario in _WINDOW_MODES
                 for where in ("below-floor", "inside", "above-t-max", "default")]


@pytest.mark.parametrize("scenario, where", _WINDOW_CASES, ids=[
    where if scenario == "routed" else f"{scenario}-{where}" for scenario, where in _WINDOW_CASES])
def test_every_command_takes_an_explicit_window_by_one_rule(capsys, scenario, where):
    # rate, simulate and (for the routed chain) fidelity write the same tau_s,tau_clamped
    # cells for one design and one --tau-s: below the handoff floor, inside the range,
    # above t_max; with no --tau-s, each writes the cutoff window.
    profile = builtin_profile("near")
    design = NetworkDesign(Config.A, max_link_length(profile), 1, 2)
    law = window_law(Scenario(scenario), profile, design)
    inside = (law.floor_s + law.t_max) / 2
    cutoff, clamped = law.cutoff(design.epsilon)
    tau, expected = {"below-floor": (law.floor_s / 2, [repr(law.floor_s / 2), "false"]),
                     "inside": (inside, [repr(inside), "false"]),
                     "above-t-max": (2 * law.t_max, [repr(law.t_max), "true"]),
                     "default": (None, [repr(cutoff), "true" if clamped else "false"])}[where]
    argv_design = ["--profile", "near", "--big-n", "2"]
    if tau is not None:
        argv_design += ["--tau-s", repr(tau)]
    commands = [["rate", "--scenario", scenario],
                ["simulate", "--mode", _WINDOW_MODES[scenario], "--trials", "64"]]
    if scenario == "routed":
        commands.append(["fidelity"])
    cells = []
    for argv in commands:
        code, out, err = run(capsys, argv + argv_design)
        assert (code, err) == (0, "")
        cells.append(parse_row(out)[7:9])
    assert cells == [expected] * len(commands)


@pytest.mark.parametrize("mode, note", [
    ("micro-link", "note: --tau-s does not apply to the micro-link mode\n"),
    ("micro-segment", "note: --tau-s does not apply to the micro-segment mode\n"),
    ("window-nv", ""),
])
def test_tau_note_for_micro_modes_goes_to_stderr(capsys, mode, note):
    argv = ["simulate", "--mode", mode, "--n", "2", "--trials", "2000", "--seed", "3"]
    code, plain, plain_err = run(capsys, argv)
    assert (code, plain_err) == (0, "")
    code, out, err = run(capsys, argv + ["--tau-s", "1"])
    assert (code, err) == (0, note)
    if note:
        assert out == plain  # the window is dropped, so the row is the same bytes


# Exit code and the first 16 hex digits of the sha256 of stdout and of stderr
# ("" when empty) of each help and usage call, at COLUMNS=80 under Python 3.11,
# recorded from the parser that always held every command's arguments.
# argparse's wording differs between Python versions.
_HELP_CALLS = {
    "--help": (0, "306da7f06dbabc7a", ""),
    "": (1, "", "0b77829de844267a"),
    "bogus": (1, "", "c19be01e37a04a86"),
    "rate --help": (0, "768a4551974229f5", ""),
    "fidelity --help": (0, "164d5d3e29f475c6", ""),
    "simulate --help": (0, "9ae0cdeb52851d2f", ""),
    "reproduce --help": (0, "6866b529771a5940", ""),
    "sweep --help": (0, "50a8da60d7be126b", ""),
}


@pytest.mark.parametrize("call", sorted(_HELP_CALLS))
def test_help_and_usage_output_is_pinned(capsys, monkeypatch, call):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(call.split())
    except SystemExit as exc:       # argparse exits after printing help
        code = exc.code
    out, err = capsys.readouterr()

    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] if text else ""

    assert (code, digest(out), digest(err)) == _HELP_CALLS[call]


@pytest.mark.parametrize("command", ["rate", "fidelity", "simulate", "reproduce", "sweep"])
def test_one_command_parser_reads_as_the_full_parser(capsys, command):
    # main builds the parser for the command it runs: its help, the command's
    # help and its usage errors must read as the parser with every command's.
    outputs = []
    for parser in (cli.build_parser(command), cli.build_parser()):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        with pytest.raises(cli._UsageError) as exc:
            parser.parse_args([command, "--bogus"])
        outputs.append((parser.format_help(), capsys.readouterr().out, str(exc.value)))
    assert outputs[0] == outputs[1]
    assert f"usage: repchain {command} [-h]" in outputs[0][1]


_MC_COMMANDS = {
    "reproduce": ["reproduce", "--study", "fidelity", "--era", "near"],
    "sweep": ["sweep", "--scenario", "routed", "--axis", "n",
              "--start", "1", "--stop", "2", "--step", "1"],
}


@pytest.mark.parametrize("with_mc", [False, True], ids=["no-mc", "with-mc"])
@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--trials", "-5"),
                                         ("--trials", "0"), ("--workers", "0")])
@pytest.mark.parametrize("command", sorted(_MC_COMMANDS))
def test_bad_mc_flag_exits_2_before_any_work(capsys, tmp_path, monkeypatch, command, flag,
                                             value, with_mc):
    _, _, expected = run(capsys, ["simulate", "--mode", "micro-link", flag, value])
    assert expected.startswith("error: ")

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the MC flags were checked")

    # cli imports the runners when a command runs, so they are patched where they are defined.
    for target in ("repchain.experiments.run_study", "repchain.experiments.run_custom",
                   "repchain.cli._resolve_profile"):
        monkeypatch.setattr(target, no_work)
    out_path = tmp_path / "rows.csv"
    argv = _MC_COMMANDS[command] + ["--out", str(out_path), flag, value]
    code, out, err = run(capsys, argv + ["--with-mc"] * with_mc)
    assert (code, out, err) == (2, "", expected)
    assert not out_path.exists()


# Runs main() on each argv in a new interpreter, then reports which of the
# heavy modules the closed-form commands avoid were loaded.
_FRESH_CLI = """
import json, sys
from repchain.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
heavy = [name for name in ("numpy", "concurrent.futures") if name in sys.modules]
print(json.dumps({"codes": codes, "loaded": heavy}))
"""


def _fresh_cli(argvs, script=_FRESH_CLI, **env):
    src = str(Path(repchain.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # An in-process main() earlier in the session sets OPENBLAS_NUM_THREADS here, so the
    # child starts without it, as a user's shell would, unless env gives it.
    inherited = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, check=True, env={**inherited, "PYTHONPATH": path, **env},
    )
    return json.loads(proc.stdout)


# Runs the code in a new interpreter, then reports the repchain modules it loaded
# and whether dataclasses (which imports inspect) was loaded.
_FRESH_IMPORT = """
import json, sys
exec(json.loads(sys.argv[1]))
print(json.dumps({"loaded": sorted(name for name in sys.modules if name.startswith("repchain.")),
                  "dataclasses": "dataclasses" in sys.modules}))
"""
_ROW_MODULES = ("cli", "experiments", "network", "params", "rates")
_SWEEP = ["sweep", "--scenario", "routed", "--axis", "n", "--start", "1", "--stop", "2",
          "--step", "1"]
# A statement, or a CLI argv that main runs, and the repchain submodules it may load.
_ENTRY_POINTS = [
    ("import repchain", ()),
    ("import repchain.params", ("params",)),
    ("import repchain.cli", ("cli",)),
    (["rate", "--scenario", "routed"], _ROW_MODULES),
    (["rate", "--scenario", "segment"], _ROW_MODULES),
    (_SWEEP, _ROW_MODULES),
    (["fidelity"], ("fidelity", *_ROW_MODULES)),
    (["simulate", "--mode", "window-routed", "--trials", "64"], ("montecarlo", *_ROW_MODULES)),
    (["reproduce", "--study", "fidelity", "--era", "near"], ("fidelity", *_ROW_MODULES)),
    ([*_SWEEP, "--with-mc", "--trials", "64"], ("montecarlo", *_ROW_MODULES)),
]


@pytest.mark.parametrize("code, loaded", _ENTRY_POINTS, ids=[
    "-".join(code) if isinstance(code, list) else code for code, _ in _ENTRY_POINTS])
def test_each_entry_point_loads_only_its_modules(tmp_path, code, loaded):
    if isinstance(code, list):
        argv = [*code, "--out", str(tmp_path / "rows.csv")]
        code = f"from repchain.cli import main\nassert main({argv!r}) == 0"
    result = _fresh_cli(code, _FRESH_IMPORT)
    assert result["loaded"] == sorted(f"repchain.{name}" for name in loaded)
    # params is the first engine module any entry point loads, and it uses dataclasses.
    assert result["dataclasses"] == ("params" in loaded)


# Star-imports the package in a new interpreter and reports whether every name
# of the library modules' __all__ lists is bound, as the module's own object.
_FRESH_STAR = """
import importlib, json
from repchain import *
import repchain
modules = [importlib.import_module(f"repchain.{name}") for name in
           ("experiments", "fidelity", "montecarlo", "network", "params", "rates")]
union = [name for module in modules for name in module.__all__]
print(json.dumps({"all": bool(union) and repchain.__all__ == union,
                  "unbound": [name for module in modules for name in module.__all__
                              if globals().get(name) is not getattr(module, name)]}))
"""


def test_star_import_binds_every_public_name():
    assert _fresh_cli(None, _FRESH_STAR) == {"all": True, "unbound": []}


def test_closed_form_commands_do_not_load_numpy(tmp_path):
    out = [str(tmp_path / f"{i}.csv") for i in range(4)]
    result = _fresh_cli([
        ["rate", "--scenario", "routed", "--out", out[0]],
        ["fidelity", "--out", out[1]],
        ["sweep", "--scenario", "routed", "--axis", "n",
         "--start", "1", "--stop", "3", "--step", "1", "--out", out[2]],
        ["reproduce", "--study", "fidelity", "--era", "near", "--out", out[3]],
    ])
    assert result == {"codes": [0, 0, 0, 0], "loaded": []}
    assert all(Path(path).read_text(encoding="utf-8").startswith(HEADER) for path in out)


def test_monte_carlo_loads_numpy_on_first_draw(tmp_path):
    out = tmp_path / "mc.csv"
    result = _fresh_cli([["simulate", "--mode", "micro-link", "--trials", "4096",
                          "--out", str(out)]])
    assert result["codes"] == [0]
    assert "numpy" in result["loaded"]
    assert out.read_text(encoding="utf-8") == (
        HEADER + "\nmicro-link,near,A,1,,20.0,20.0,,,,,,0.078125,0.0041932529387982585,0\n"
    )


def test_window_that_draws_nothing_loads_no_numpy(tmp_path):
    # No whole attempt fits a near-era nv-chain window, so the estimate is an
    # exact 0: it loads neither numpy nor the thread pool, even with --workers 2.
    out = tmp_path / "k0.csv"
    result = _fresh_cli([["simulate", "--mode", "window-nv", "--profile", "near",
                          "--workers", "2", "--out", str(out)]])
    assert result == {"codes": [0], "loaded": []}
    assert out.read_text(encoding="utf-8") == (
        HEADER + "\nwindow-nv,near,,1,,20.0,20.0,0.0015917589947959205,false,0.0,,,0.0,0.0,0\n"
    )


def test_certain_window_loads_no_numpy(tmp_path):
    # 1e19 attempts of p_attempt near 1e-3 each: every station heralds with
    # certainty in double precision, so the estimate is exact and draws nothing.
    # The routers store for 1e14 s, so the window is not clamped.
    out = tmp_path / "certain.csv"
    result = _fresh_cli([["simulate", "--mode", "window-routed",
                          "--profile", _long_storage_profile(tmp_path),
                          "--tau-s", "1e12", "--workers", "2", "--out", str(out)]])
    assert result == {"codes": [0], "loaded": []}
    assert out.read_text(encoding="utf-8") == (
        HEADER + "\nwindow-routed,storage,A,1,1,20.0,20.0,1000000000000.0,false,"
        "1e-12,,,1e-12,0.0,0\n"
    )


def test_source_that_never_fires_saturates_the_window(tmp_path):
    # eta_epps = 0 makes no segment attempts: every routed window takes the
    # storage clamp t_nv = 1.0 s and yields no pair. The estimates draw nothing.
    profile = tmp_path / "dark.profile"
    profile.write_text("base = near\neta_epps = 0\n", encoding="utf-8")
    argvs = [["rate", "--scenario", "routed"], ["rate", "--scenario", "routed-nobuffer"],
             ["fidelity"], ["simulate", "--mode", "window-routed"],
             ["simulate", "--mode", "window-nobuffer"]]
    out = [tmp_path / f"{i}.csv" for i in range(len(argvs))]
    result = _fresh_cli([[*argv, "--profile", str(profile), "--out", str(path)]
                         for argv, path in zip(argvs, out)])
    assert result == {"codes": [0] * len(argvs), "loaded": []}
    assert [path.read_text(encoding="utf-8").splitlines()[1] for path in out] == [
        "routed,dark,A,1,1,20.0,20.0,1.0,true,0.0,,,,,",
        "routed-nobuffer,dark,A,1,1,20.0,20.0,1.0,true,0.0,,,,,",
        "fidelity-end-to-end,dark,A,1,1,20.0,20.0,1.0,true,,"
        "0.45225568845574476,0.36516287436283684,,,",
        "window-routed,dark,A,1,1,20.0,20.0,1.0,true,0.0,,,0.0,0.0,0",
        "window-nobuffer,dark,A,1,1,20.0,20.0,1.0,true,0.0,,,0.0,0.0,0",
    ]


# As _FRESH_CLI, but reports, per chunk stream, whether it was seeded on the
# main thread and which heavy modules were loaded by then.
_FRESH_CLI_AT_CHUNK = """
import json, sys, threading
from repchain import montecarlo
from repchain.cli import main
chunk_rng = montecarlo._chunk_rng
seen = []
def spy(*args):
    loaded = [name for name in ("numpy.random", "concurrent.futures") if name in sys.modules]
    seen.append([threading.current_thread() is threading.main_thread(), loaded])
    return chunk_rng(*args)
montecarlo._chunk_rng = spy
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "chunks": seen}))
"""


def test_estimate_that_draws_loads_numpy_random_before_its_first_chunk(tmp_path):
    # Eight chunks on two workers, four per thread: all are seeded in pool threads,
    # and both imports ran on the main thread before any chunk started.
    result = _fresh_cli([["simulate", "--mode", "window-routed", "--profile", "long",
                          "--trials", "32768", "--workers", "2",
                          "--out", str(tmp_path / "mc.csv")]], _FRESH_CLI_AT_CHUNK)
    assert result == {"codes": [0],
                      "chunks": [[False, ["numpy.random", "concurrent.futures"]]] * 8}


def test_two_chunks_run_inline_whatever_the_workers(tmp_path):
    # Two chunks cannot give two threads four chunks each, so --workers 2 starts
    # no pool and never imports concurrent.futures; the bytes are --workers 1's.
    out = [tmp_path / f"w{workers}.csv" for workers in (1, 2)]
    result = _fresh_cli([["simulate", "--mode", "micro-link", "--trials", "8192",
                          "--workers", "2", "--out", str(out[1])]])
    assert result == {"codes": [0], "loaded": ["numpy"]}
    assert _fresh_cli([["simulate", "--mode", "micro-link", "--trials", "8192",
                        "--workers", "1", "--out", str(out[0])]])["codes"] == [0]
    assert out[1].read_bytes() == out[0].read_bytes()


# Runs `python -m repchain` with the argv in a new interpreter, then reports the exit
# code, OPENBLAS_NUM_THREADS as numpy or the first engine module was imported and as
# main left it, and the process's threads.
_FRESH_MODULE = """
import json, os, runpy, sys
at_import = []
class FirstEngineImport:
    def find_spec(self, name, path=None, target=None):
        engine = name.startswith("repchain.") and name not in ("repchain.cli", "repchain.__main__")
        if not at_import and (engine or name == "numpy"):
            at_import.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, FirstEngineImport())
sys.argv = ["repchain", *json.loads(sys.argv[1])]
code = None
try:
    runpy.run_module("repchain", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
tasks = "/proc/self/task"
print(json.dumps({"code": code, "blas": [*at_import, os.environ.get("OPENBLAS_NUM_THREADS")],
                  "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None}))
"""


def test_numpy_loads_with_one_blas_thread_unless_the_user_sets_more(tmp_path):
    # No command calls BLAS, so the CLI loads numpy without OpenBLAS helper threads;
    # a value the user set wins. Two draw chunks run inline, so no pool thread starts.
    counts_threads = sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2
    csv = {}
    for value in (None, "1", "2"):
        out = tmp_path / f"{value}.csv"
        result = _fresh_cli(["simulate", "--mode", "micro-link", "--trials", "8192",
                             "--out", str(out)], _FRESH_MODULE,
                            **({} if value is None else {"OPENBLAS_NUM_THREADS": value}))
        threads = int(value or 1) if counts_threads else result["threads"]
        assert result == {"code": 0, "blas": [value or "1"] * 2, "threads": threads}
        csv[value] = out.read_bytes()
    assert csv[None] == csv["1"] == csv["2"]


def test_cli_only_parses():
    # Rates, estimates and fidelities are solved behind one experiments call per
    # subcommand: cli takes only the choice enums and the estimate config.
    source = Path(cli.__file__).read_text(encoding="utf-8")
    imported: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
    assert imported["rates"] == {"Scenario"}
    assert imported["montecarlo"] == {"McConfig", "McMode"}
    assert "fidelity" not in imported
    assert "InternalCheckError" not in source
    assert "scenario_rate" not in source
