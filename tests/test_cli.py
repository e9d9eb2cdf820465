import json
import math
import os
import subprocess
import sys
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
)
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
    # --no-buffer selects the buffer-free rate, so only rate takes it.
    ["fidelity", "--no-buffer"],
    ["simulate", "--mode", "window-routed", "--no-buffer"],
    ["sweep", "--scenario", "routed", "--axis", "n", "--start", "1", "--stop", "3",
     "--step", "1", "--no-buffer"],
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


def test_no_buffer_flag_switches_scenario(capsys):
    code, out, _ = run(capsys, ["rate", "--scenario", "routed", "--no-buffer"])
    assert code == 0
    fields = parse_row(out)
    assert fields[0] == "routed-nobuffer"
    assert float(fields[9]) == pytest.approx(50.39892893014383, rel=1e-9)


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


def test_fidelity_explicit_tau_leaves_clamp_empty(capsys):
    code, out, _ = run(capsys, ["fidelity", "--profile", "long", "--n", "2",
                                "--tau-s", "0.0"])
    assert code == 0
    fields = parse_row(out)
    assert fields[7] == "0.0"
    assert fields[8] == ""
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
    assert fields[8] == ""    # explicit window, clamping not evaluated
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
]


@pytest.mark.parametrize("argv, field", VALIDATION_ERRORS,
                         ids=[f"argv{i}" for i in range(len(VALIDATION_ERRORS))])
def test_validation_errors_exit_2(capsys, argv, field):
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
    """A rate, fidelity or sweep argv with one float flag set to an extreme value,
    and the field names an error about that flag may give."""
    command = draw(st.sampled_from(["rate", "fidelity", "sweep"]))
    argv = [command]
    flags = ["--ell-km", "--epsilon"]
    fields = set()
    if command != "fidelity":
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
    # The = form keeps argparse from reading a value such as -1e308 as an option.
    argv.append(f"{flag}={draw(_EXTREME_FLOATS)!r}")
    return argv, fields | {_FLAG_FIELDS[flag]}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=_extreme_calls())
@example(call=(["rate", "--scenario", "routed", "--profile", "near", "--ell-km", "1e308",
                "--n", "2"], {"ell_km"}))
@example(call=(["fidelity", "--profile", "near", "--ell-km", "1e308", "--big-n", "2"],
               {"ell_km"}))
def test_extreme_floats_exit_2_naming_the_field_or_give_finite_rows(capsys, call):
    # No --with-mc and no --workers: no estimate runs and no thread starts.
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


def test_tau_note_for_segment_goes_to_stderr(capsys):
    code, out, err = run(capsys, ["rate", "--scenario", "segment",
                                  "--tau-s", "0.1"])
    assert code == 0
    assert "--tau-s" in err
    assert out.splitlines()[1].startswith("segment,")


@pytest.mark.parametrize("scenario", ["segment", "nv-chain"])
def test_no_buffer_note_for_routerless_scenarios_goes_to_stderr(capsys, scenario):
    argv = ["rate", "--scenario", scenario, "--profile", "long", "--n", "2"]
    _, plain, _ = run(capsys, argv)
    code, out, err = run(capsys, [*argv, "--no-buffer"])
    assert code == 0
    assert err == f"note: --no-buffer does not apply to the {scenario} scenario\n"
    assert out == plain


# Runs main() on each argv in a new interpreter, then reports which of the
# heavy modules the closed-form commands avoid were loaded.
_FRESH_CLI = """
import json, sys
from repchain.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
heavy = [name for name in ("numpy", "concurrent.futures") if name in sys.modules]
print(json.dumps({"codes": codes, "loaded": heavy}))
"""


def _fresh_cli(argvs):
    src = str(Path(repchain.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CLI, json.dumps(argvs)],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    return json.loads(proc.stdout)


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
