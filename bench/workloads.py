"""Seeded inputs and batch operations of the four benchmark workloads.

A workload is a fixed list of operations generated from the seed. One batch
runs every operation once; a run repeats the batch for the measured time.
Operations are plain data (`generate` is deterministic), `execute` runs one
and returns its CSV output, and `verify` checks an output. The benchmark calls
library functions through their module attributes, where the tracer patches
them.

closed-form      the five studies with MC off and every catalog sweep through
                 run_custom, each design followed by its end_to_end_report;
                 rates, fidelity, network, params and CSV emission do all the
                 work, montecarlo none.
reproduce-mc     run_study with MC on for the four rate studies, per era,
                 workers = 1; dominated by the per-attempt window path.
simulate-pooled  single-design estimates as `repchain simulate` makes them,
                 workers = nproc; micro modes and window modes on the geometric
                 path only.
cli-cold         one `python -m repchain` child per operation, run one at a time;
                 its micro, geometric and k0 simulate children use
                 workers = nproc.

closed-form and cli-cold are listed in BENCHMARK.json; reproduce-mc and
simulate-pooled run by hand (see UNGATED).
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import catalog
import checks
from repchain import experiments, fidelity, montecarlo, params, rates
from repchain.experiments import McOptions, Study, SweepRow
from repchain.montecarlo import PER_ATTEMPT_DRAW_LIMIT, McConfig, McMode
from repchain.network import Config, NetworkDesign, max_link_length, timings

WORKLOADS = ("closed-form", "reproduce-mc", "simulate-pooled", "cli-cold")
# Run by hand only, not listed in BENCHMARK.json. On a 2-vCPU shared host their
# run-to-run spread (IQR over median of ten runs) reached 0.29 and 0.28, above
# the largest bound a gated metric may have. The memory-bound per-attempt path
# and the two-thread pool follow the host's speed swings most.
UNGATED = ("reproduce-mc", "simulate-pooled")
NPROC = len(os.sched_getaffinity(0))

MC_STUDIES = catalog.STUDIES[:4]
# A sixth of the CLI default keeps a batch near two seconds; per-estimate
# cost is linear in trials, so the split between draw paths is unchanged.
REPRODUCE_TRIALS = 16384
MICRO_LINK_TRIALS = 1 << 19
MICRO_SEGMENT_TRIALS = 1 << 16
WINDOW_TRIALS = 1 << 18
CLI_TRIALS = 8192

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class Context:
    """What operations need besides their own descriptor."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.tracer = None                  # set while cli-cold children run traced
        self.catalog = catalog.build_catalog()
        self.reference = None

    def profile_path(self, era: str) -> Path:
        return self.workdir / f"{era}.profile"


# -- generation ---------------------------------------------------------------

def generate(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def _gen_closed_form(rng: random.Random) -> list[dict]:
    """Every study and every catalog sweep, so each seed does the same work.

    The seed sets the order and which sweep of each (scenario, era) reads its
    profile back from a file.
    """
    cat = catalog.build_catalog()
    by_pair: dict[tuple[str, str], list[str]] = {}
    for key, entry in cat.items():
        by_pair.setdefault((entry["scenario"], entry["era"]), []).append(key)
    from_file = {rng.choice(keys) for keys in by_pair.values()}
    ops = [{"kind": "study", "study": name} for name in catalog.STUDIES]
    ops += [{"kind": "sweep", "entry": key, "profile": "file" if key in from_file else "builtin"}
            for key in cat]
    rng.shuffle(ops)
    return ops


def _gen_reproduce_mc(rng: random.Random) -> list[dict]:
    ops = [{"kind": "study-mc", "study": study, "era": era,
            "seed": rng.getrandbits(32), "trials": REPRODUCE_TRIALS}
           for study in MC_STUDIES for era in catalog.STUDY_ERAS]
    rng.shuffle(ops)
    return ops


def _window_tau(mode: McMode, era: str, design: NetworkDesign, k: int) -> float:
    """Window duration that gives the simulator exactly k attempts per station."""
    profile = params.builtin_profile(era)
    t = timings(design, profile)
    if mode is McMode.WINDOW_ROUTED:
        return t.t_trans + (k + 0.5) / rates.attempt_rate(profile)
    if mode is McMode.WINDOW_NO_BUFFER:
        return 2.0 * (t.t_trans + (k + 0.5) / rates.attempt_rate(profile))
    return 2.0 * (t.t_trans_tilde + (k + 0.5) / rates.nv_attempt_rate(design.ell_km))


def _sim_op(rng, mode, era, ell_km, config="A", n=1, big_n=1, trials=WINDOW_TRIALS) -> dict:
    return dict(kind="simulate", mode=mode.value, era=era, config=config, n=n,
                big_n=big_n, ell_km=ell_km, xi=max(2, n), tau_s=None, trials=trials,
                seed=rng.getrandbits(32))


def _operating_ell(era: str) -> float:
    return max_link_length(params.builtin_profile(era))


def _gen_simulate_pooled(rng: random.Random) -> list[dict]:
    """A fixed mix of estimates; the seed sets values that leave the work unchanged.

    Micro draws cost more as the expected heralded modes grow, so micro
    estimates stay at each era's operating link length. Window estimates sit
    on the geometric path, whose cost does not depend on k or the link length.
    """
    ops = [_sim_op(rng, McMode.MICRO_LINK, era, _operating_ell(era), trials=MICRO_LINK_TRIALS)
           for era in ("near", "long")]
    for n in range(1, 9):
        era = ("near", "long")[n % 2]
        ops.append(_sim_op(rng, McMode.MICRO_SEGMENT, era, _operating_ell(era),
                           config=rng.choice("AB"), n=n, trials=MICRO_SEGMENT_TRIALS))
    for mode in (McMode.WINDOW_ROUTED, McMode.WINDOW_NO_BUFFER, McMode.WINDOW_NV):
        for era in ("near", "long"):
            ell = _operating_ell(era) * rng.uniform(0.5, 1.0)
            config = rng.choice("AB")
            if mode is McMode.WINDOW_NV:
                op = _sim_op(rng, mode, era, ell, n=4)
            else:
                op = _sim_op(rng, mode, era, ell, config, n=catalog.OPERATING_N[era], big_n=3)
            op["tau_s"] = _window_tau(mode, era, _design(op), _geometric_k(rng, mode, era, op))
            ops.append(op)
    rng.shuffle(ops)
    return ops


def _geometric_k(rng: random.Random, mode: McMode, era: str, op: dict) -> int:
    """Attempts per station that put the window on the geometric path.

    Aims at a per-station success probability in [0.5, 0.95] so the estimate
    is informative, and never at or below the per-attempt draw budget.
    """
    profile = params.builtin_profile(era)
    design = _design(op)
    p, _k, stations = checks.window_law(mode, profile, design, 1.0)
    target = rng.uniform(0.5, 0.95)
    k = math.ceil(math.log1p(-target) / math.log1p(-p))
    return max(k, PER_ATTEMPT_DRAW_LIMIT // stations + 1)


def _gen_cli_cold(rng: random.Random) -> list[dict]:
    """Eleven invocations of fixed size: two each of rate, fidelity and sweep,
    and one simulate per draw path. The simulate children off the per-attempt
    path run the worker pool, with workers = nproc.

    Sweeps come from the ten-point catalog variants. The simulate children
    cover micro-link, micro-segment, the per-attempt path at its full draw
    budget, the geometric path and a zero-work (k0) near-era nv-chain window,
    so every seed makes the same rows and the same largest child.
    """
    cat = catalog.build_catalog()
    keys = sorted(cat)
    routed_keys = [k for k in keys if cat[k]["scenario"] in catalog.ROUTED_SCENARIOS]
    ten_point = [k for k in keys if _sweep_length(cat[k]) == 10]
    ops = []
    for source in ("builtin", "file"):
        key = rng.choice(keys)
        ops.append({"kind": "cli", "command": "rate", "entry": key,
                    "row": rng.randrange(_sweep_length(cat[key])), "profile": source})
        key = rng.choice(routed_keys)
        ops.append({"kind": "cli", "command": "fidelity", "entry": key,
                    "row": rng.randrange(_sweep_length(cat[key])), "profile": source,
                    "tau_s": rng.choice((None, rng.uniform(1e-4, 0.5)))})
        ops.append({"kind": "cli", "command": "sweep", "entry": rng.choice(ten_point),
                    "profile": source})

    def simulate_op(op: dict, source: str, workers: int = NPROC) -> dict:
        return dict(op, kind="cli", command="simulate", profile=source, workers=workers)

    era = rng.choice(catalog.ERAS)
    ops.append(simulate_op(_sim_op(rng, McMode.MICRO_LINK, era, _operating_ell(era),
                                   trials=CLI_TRIALS), "builtin"))
    era = rng.choice(("near", "long"))
    ops.append(simulate_op(_sim_op(rng, McMode.MICRO_SEGMENT, era, _operating_ell(era),
                                   config=rng.choice("AB"), n=2, trials=CLI_TRIALS), "file"))
    for path in ("per-attempt", "geometric"):
        mode = rng.choice((McMode.WINDOW_ROUTED, McMode.WINDOW_NO_BUFFER))
        era = rng.choice(("near", "long"))
        stations = rng.choice((1, 2, 4, 8)) if path == "per-attempt" else 3
        op = _sim_op(rng, mode, era, _operating_ell(era), n=catalog.OPERATING_N[era],
                     big_n=stations, trials=CLI_TRIALS)
        k = (PER_ATTEMPT_DRAW_LIMIT // stations if path == "per-attempt"
             else _geometric_k(rng, mode, era, op))
        op["tau_s"] = _window_tau(mode, era, _design(op), k)
        # The per-attempt child runs one worker, as the reproduce-mc workload
        # does; with two, its peak memory depends on how the threads overlap.
        ops.append(simulate_op(op, "file", 1) if path == "per-attempt"
                   else simulate_op(op, "builtin"))
    # Near-era nv-chain windows leave no attempts, so this estimate draws nothing.
    ops.append(simulate_op(_sim_op(rng, McMode.WINDOW_NV, "near", _operating_ell("near"),
                                   n=rng.randint(1, 4), trials=CLI_TRIALS), "file"))
    rng.shuffle(ops)
    for op in ops:
        op["argv"] = _argv(op, cat)
    return ops


def _sweep_length(entry: dict) -> int:
    return int(round((entry["stop"] - entry["start"]) / entry["step"])) + 1


_GENERATORS = {
    "closed-form": _gen_closed_form,
    "reproduce-mc": _gen_reproduce_mc,
    "simulate-pooled": _gen_simulate_pooled,
    "cli-cold": _gen_cli_cold,
}


# -- set-up -------------------------------------------------------------------

def write_profiles(ctx: Context) -> None:
    """Profile files that some operations load instead of built-in eras."""
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    for era in catalog.ERAS:
        text = params.serialize_profile(params.builtin_profile(era))
        ctx.profile_path(era).write_text(text, encoding="utf-8")


def _profile_token(op: dict, era: str, ctx: Context) -> str:
    return str(ctx.profile_path(era)) if op["profile"] == "file" else era


def _design_args(entry: dict, n: int, big_n: int, ell_km: float) -> list[str]:
    return ["--config", entry["config"], "--ell-km", repr(ell_km), "--n", str(n),
            "--big-n", str(big_n), "--xi", str(entry["xi"]), "--epsilon", repr(entry["epsilon"])]


def _entry_point(entry: dict, row: int) -> tuple[int, int, float]:
    """(n, big_n, ell_km) of one design of a catalog sweep."""
    point = {"n": entry["n"], "big_n": entry["big_n"], "ell_km": entry["ell_km"]}
    value = entry["start"]
    for _ in range(row):
        value += entry["step"]
    point[entry["axis"]] = int(value) if entry["axis"] != "ell_km" else value
    return point["n"], point["big_n"], point["ell_km"]


def _argv(op: dict, cat: dict) -> list[str]:
    """The argv list, with the token PROFILE standing for the profile argument."""
    command = op["command"]
    if command == "simulate":
        argv = ["simulate", "--mode", op["mode"], "--profile", "PROFILE",
                "--config", op["config"], "--ell-km", repr(op["ell_km"]), "--n", str(op["n"]),
                "--big-n", str(op["big_n"]), "--xi", str(op["xi"]),
                "--seed", str(op["seed"]), "--trials", str(op["trials"]),
                "--workers", str(op["workers"])]
        if op["tau_s"] is not None:
            argv += ["--tau-s", repr(op["tau_s"])]
        return argv
    entry = cat[op["entry"]]
    if command == "sweep":
        return ["sweep", "--scenario", entry["scenario"], "--axis", entry["axis"].replace("_", "-"),
                "--start", repr(entry["start"]), "--stop", repr(entry["stop"]),
                "--step", repr(entry["step"]), "--profile", "PROFILE",
                *_design_args(entry, entry["n"], entry["big_n"], entry["ell_km"])]
    n, big_n, ell = _entry_point(entry, op["row"])
    if command == "rate":
        return ["rate", "--scenario", entry["scenario"], "--profile", "PROFILE",
                *_design_args(entry, n, big_n, ell)]
    argv = ["fidelity", "--profile", "PROFILE", *_design_args(entry, n, big_n, ell)]
    if op["tau_s"] is not None:
        argv += ["--tau-s", repr(op["tau_s"])]
    return argv


# -- execution ----------------------------------------------------------------

def _design(op: dict) -> NetworkDesign:
    return NetworkDesign(Config(op["config"]), op["ell_km"], op["n"], op["big_n"], xi=op["xi"])


def execute(op: dict, ctx: Context):
    return _EXECUTORS[op["kind"]](op, ctx)


def _exec_study(op: dict, ctx: Context) -> str:
    profiles = [(era, params.builtin_profile(era)) for era in catalog.STUDY_ERAS]
    rows, _checks = experiments.run_study(Study(op["study"]), profiles)
    return experiments.rows_to_csv(rows)


def _exec_sweep(op: dict, ctx: Context) -> str:
    entry = ctx.catalog[op["entry"]]
    era = entry["era"]
    if op["profile"] == "file":
        profile = params.load_profile(ctx.profile_path(era))
    else:
        profile = params.builtin_profile(era)
    rows, sweep_checks = experiments.run_custom(catalog.sweep_spec(entry, profile))
    failed = [c.name for c in sweep_checks if not c.passed]
    if failed:
        raise RuntimeError(f"sweep checks failed: {failed}")
    fid_rows = []
    for row in rows:
        big_n = row.big_n if row.big_n is not None else entry["big_n"]
        design = NetworkDesign(Config(entry["config"]), row.ell_km, row.n, big_n,
                               xi=entry["xi"], epsilon=entry["epsilon"])
        tau = row.tau_s if row.tau_s is not None else 0.0
        report = fidelity.end_to_end_report(profile, design, tau)
        fid_rows.append(SweepRow(
            scenario="fidelity-end-to-end", era=era, config=design.config.value,
            n=design.n, big_n=design.big_n, ell_km=design.ell_km,
            total_km=design.big_n * design.n * design.ell_km,
            tau_s=tau, tau_clamped=row.tau_clamped,
            rate_hz=None, fidelity=report.fidelity, qber=report.qber,
            mc_rate_hz=None, mc_std_error=None, seed=None,
        ))
    return experiments.rows_to_csv(rows + fid_rows)


def _exec_study_mc(op: dict, ctx: Context) -> str:
    era = op["era"]
    mc = McOptions(True, op["seed"], op["trials"], 1)
    rows, _checks = experiments.run_study(
        Study(op["study"]), [(era, params.builtin_profile(era))], mc)
    return experiments.rows_to_csv(rows)


_SIMULATORS = {
    McMode.MICRO_SEGMENT: "simulate_segment",
    McMode.WINDOW_ROUTED: "simulate_routed",
    McMode.WINDOW_NV: "simulate_nv_chain",
    McMode.WINDOW_NO_BUFFER: "simulate_no_buffer",
}


def simulate(mode: McMode, profile, design: NetworkDesign, tau_s, cfg: McConfig):
    """One estimate through the public simulate_* function for `mode`.

    The function is looked up on the module at call time, where the tracer
    patches it.
    """
    if mode is McMode.MICRO_LINK:
        return montecarlo.simulate_link(profile, design.ell_km, cfg)
    fn = getattr(montecarlo, _SIMULATORS[mode])
    if mode is McMode.MICRO_SEGMENT:
        return fn(profile, design, cfg)
    return fn(profile, design, tau_s, cfg)


def _exec_simulate(op: dict, ctx: Context) -> str:
    mode = McMode(op["mode"])
    profile = params.builtin_profile(op["era"])
    design = _design(op)
    est = simulate(mode, profile, design, op["tau_s"],
                   McConfig(op["seed"], op["trials"], mode, NPROC))
    rate_ref = None
    if op["tau_s"] is not None:
        p, k, stations = checks.window_law(mode, profile, design, op["tau_s"])
        rate_ref = montecarlo.floored_window_rate(p, k, stations, op["tau_s"])
    row = SweepRow(
        scenario=mode.value, era=op["era"], config=design.config.value, n=design.n,
        big_n=design.big_n, ell_km=design.ell_km,
        total_km=design.big_n * design.n * design.ell_km,
        tau_s=op["tau_s"], tau_clamped=None, rate_hz=rate_ref, fidelity=None, qber=None,
        mc_rate_hz=est.mean, mc_std_error=est.std_error, seed=est.seed,
    )
    return experiments.rows_to_csv([row])


def child_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _exec_cli(op: dict, ctx: Context) -> tuple[int, str, str]:
    era = op["era"] if op["command"] == "simulate" else ctx.catalog[op["entry"]]["era"]
    token = _profile_token(op, era, ctx)
    argv = [token if a == "PROFILE" else a for a in op["argv"]]
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "repchain", *argv]
    else:
        spans_file = ctx.workdir / "child-spans.json"
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_file), *argv]
        ctx.tracer.push("cli.process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=60)
    finally:
        if ctx.tracer is not None:
            if spans_file.exists():
                ctx.tracer.adopt(json.loads(spans_file.read_text(encoding="utf-8")))
                spans_file.unlink()
            ctx.tracer.pop()
    return proc.returncode, proc.stdout, proc.stderr


_EXECUTORS = {
    "study": _exec_study,
    "sweep": _exec_sweep,
    "study-mc": _exec_study_mc,
    "simulate": _exec_simulate,
    "cli": _exec_cli,
}


def output_rows(output) -> int:
    text = output[1] if isinstance(output, tuple) else output
    return max(0, text.count("\n") - 1)


# -- verification -------------------------------------------------------------

def verify(op: dict, output, ctx: Context) -> list[str]:
    if ctx.reference is None:
        ctx.reference = catalog.load_reference()
    if isinstance(output, tuple):
        code, stdout, stderr = output
        if code != 0:
            return [f"exit {code}: {stderr.strip()[-300:]}"]
        output = stdout
    rows = checks.parse_csv(output)
    problems = checks.finite_problems(rows)
    return problems + _VERIFIERS[op["kind"]](op, rows, ctx)


def _oracle_all(rows, problems):
    for row in rows:
        if row["scenario"].startswith("fidelity-"):
            problems += checks.oracle_problems(row, params.builtin_profile(row["era"]))
    return problems


def _verify_study(op, rows, ctx):
    problems = checks.reference_problems(rows, ctx.reference["studies"][op["study"]])
    return _oracle_all(rows, problems)


def _verify_sweep(op, rows, ctx):
    reference = ctx.reference["sweeps"][op["entry"]]
    rate_rows, fid_rows = rows[:len(reference)], rows[len(reference):]
    problems = checks.reference_problems(rate_rows, reference)
    if len(fid_rows) != len(rate_rows):
        problems.append(f"{len(fid_rows)} fidelity rows for {len(rate_rows)} designs")
    era = ctx.catalog[op["entry"]]["era"]
    for row in fid_rows:
        problems += checks.oracle_problems(row, params.builtin_profile(era))
    return problems


def design_from_row(row: dict) -> NetworkDesign:
    """The design a study row describes; hidden columns take the study defaults."""
    return NetworkDesign(Config(row["config"] or "A"), float(row["ell_km"]), int(row["n"]),
                         int(row["N"] or 1))


def row_estimate(row: dict, profile) -> tuple[McMode, float]:
    """(mode, scale from simulator mean to the reported column) of a study row."""
    mode = checks.SCENARIO_MODE[row["scenario"]]
    scale = rates.attempt_rate(profile) if mode is McMode.MICRO_SEGMENT else 1.0
    return mode, scale


def _verify_study_mc(op, rows, ctx):
    reference = [line for line in ctx.reference["studies"][op["study"]]
                 if line.split(",")[1] == op["era"]]
    problems = checks.reference_problems(rows, reference)
    profile = params.builtin_profile(op["era"])
    for i, row in enumerate(rows):
        if row["seed"] != str(op["seed"]):
            problems.append(f"row {i}: seed {row['seed']!r}")
            continue
        mode, scale = row_estimate(row, profile)
        problems += checks.mc_problems(mode, profile, design_from_row(row), checks.num(row, "tau_s"),
                                       float(row["mc_rate_hz"]) / scale, op["trials"])
    return problems


def _simulated_design(op: dict) -> NetworkDesign:
    """The design an estimate ran on; outside the routed modes N is 1, as
    `repchain simulate` sets it."""
    design = _design(op)
    if McMode(op["mode"]) not in (McMode.WINDOW_ROUTED, McMode.WINDOW_NO_BUFFER):
        design = replace(design, big_n=1)
    return design


def _verify_simulate(op, rows, ctx):
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    row = rows[0]
    mode = McMode(op["mode"])
    profile = params.builtin_profile(op["era"])
    design = _simulated_design(op)
    tau = checks.num(row, "tau_s")
    problems = []
    if tau is not None:
        p, k, stations = checks.window_law(mode, profile, design, tau)
        want = montecarlo.floored_window_rate(p, k, stations, tau)
        got = checks.num(row, "rate_hz")
        if got is None or not math.isclose(got, want, rel_tol=checks.REL_TOL, abs_tol=0.0):
            problems.append(f"rate_hz {got!r} vs floored reference {want!r}")
    if row["seed"] != str(op["seed"]):
        problems.append(f"seed {row['seed']!r}")
    problems += checks.mc_problems(mode, profile, design, tau, float(row["mc_rate_hz"]),
                                   op["trials"])
    return problems


def _verify_cli(op, rows, ctx):
    command = op["command"]
    if command == "simulate":
        return _verify_simulate(op, rows, ctx)
    entry = ctx.catalog[op["entry"]]
    reference = ctx.reference["sweeps"][op["entry"]]
    if command == "sweep":
        return checks.reference_problems(rows, reference)
    if command == "rate":
        return checks.reference_problems(rows, [reference[op["row"]]])
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    return checks.oracle_problems(rows[0], params.builtin_profile(entry["era"]))


_VERIFIERS = {
    "study": _verify_study,
    "sweep": _verify_sweep,
    "study-mc": _verify_study_mc,
    "simulate": _verify_simulate,
    "cli": _verify_cli,
}


# -- MC bookkeeping -----------------------------------------------------------

def mc_estimates(op: dict, output) -> list[tuple]:
    """(mode, profile, design, tau, trials, seed, reported mean, scale) per estimate.

    The reported mean is the simulator's mean times scale, as the CSV holds it.
    """
    if op.get("command", op["kind"]) == "simulate":
        text = output[1] if isinstance(output, tuple) else output
        row = checks.parse_csv(text)[0]
        return [(McMode(op["mode"]), params.builtin_profile(op["era"]), _simulated_design(op),
                 checks.num(row, "tau_s"), op["trials"], op["seed"],
                 float(row["mc_rate_hz"]), 1.0)]
    if op["kind"] == "study-mc":
        profile = params.builtin_profile(op["era"])
        out = []
        for row in checks.parse_csv(output):
            mode, scale = row_estimate(row, profile)
            out.append((mode, profile, design_from_row(row), checks.num(row, "tau_s"),
                        op["trials"], op["seed"], float(row["mc_rate_hz"]), scale))
        return out
    return []
