"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 validation error (bad parameter
values, malformed profile files, unusable designs), 3 internal invariant
failure. Runner check failures are reported on stderr but exit 0: the rows
are valid output and the checks are part of it.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .experiments import (
    CheckResult,
    McOptions,
    Study,
    SweepRow,
    SweepSpec,
    fidelity_row,
    rate_row,
    rows_to_csv,
    run_custom,
    run_study,
)
from .fidelity import InternalCheckError
from .montecarlo import SCENARIO_MODES, McConfig, McMode, simulate_scenario, window_reference
from .network import Config, NetworkDesign, max_link_length
from .params import Era, ParameterProfile, builtin_profile, load_profile
from .rates import Scenario, routed_cutoff_time, scenario_rate, window_law

_ERA_TOKENS = tuple(era.value for era in Era)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for validation.
    def error(self, message: str) -> None:
        raise _UsageError(f"{self.prog}: {message}")


def _resolve_profile(token: str) -> tuple[str, ParameterProfile]:
    if token in _ERA_TOKENS:
        return token, builtin_profile(token)
    return Path(token).stem, load_profile(token)


def _add_profile_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", default="near", metavar="PATH|near|long|ideal",
        help="built-in era name or profile file (default: near)",
    )


def _add_design_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", choices=("A", "B"), default="A",
                        help="memory placement configuration (default: A)")
    parser.add_argument("--ell-km", type=float, default=None, metavar="F",
                        help="elementary link length in km "
                             "(default: the profile's maximum link length)")
    parser.add_argument("--n", type=int, default=1, metavar="I",
                        help="elementary links per segment (default: 1)")
    parser.add_argument("--big-n", type=int, default=1, metavar="I",
                        help="segments in the routed chain (default: 1); "
                             "segment and nv-chain scenarios use 1")
    parser.add_argument("--xi", type=int, default=2, metavar="I",
                        help="link shortening factor for config B (default: 2)")
    parser.add_argument("--epsilon", type=float, default=0.05, metavar="F",
                        help="accepted window failure probability (default: 0.05)")


def _add_mc_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--with-mc", action="store_true",
                        help="attach Monte Carlo estimates to each row")
    parser.add_argument("--seed", type=int, default=0, metavar="U64",
                        help="master seed (default: 0)")
    parser.add_argument("--trials", type=int, default=100_000, metavar="N",
                        help="trials per estimate (default: 100000)")
    parser.add_argument("--workers", type=int, default=1, metavar="I",
                        help="worker threads; results do not depend on this (default: 1)")


def _design_from_args(args: argparse.Namespace, profile: ParameterProfile) -> NetworkDesign:
    ell = args.ell_km if args.ell_km is not None else max_link_length(profile)
    return NetworkDesign(
        config=Config(args.config),
        ell_km=ell,
        n=args.n,
        big_n=args.big_n,
        xi=args.xi,
        epsilon=args.epsilon,
    )


def _tau_arg(args: argparse.Namespace, allow_zero: bool = False) -> float | None:
    """The --tau-s value: finite and > 0, or >= 0 where storing for no time is meaningful."""
    tau = args.tau_s
    if tau is None:
        return None
    if not math.isfinite(tau):
        raise ValueError(f"--tau-s {tau!r} must be finite")
    if tau < 0 or (tau == 0 and not allow_zero):
        raise ValueError(f"--tau-s {tau!r} must be {'>= 0' if allow_zero else '> 0'}")
    return tau


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _emit_checked(rows: Sequence[SweepRow], checks: Sequence[CheckResult], out: str | None) -> int:
    """Write the rows, then report failed checks on stderr; the exit code stays 0."""
    _emit(rows_to_csv(rows), out)
    failed = [c for c in checks if not c.passed]
    for c in failed:
        print(f"check failed: {c.name}: {c.detail}", file=sys.stderr)
    if failed:
        print(f"checks: {len(checks) - len(failed)}/{len(checks)} passed", file=sys.stderr)
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    era, profile = _resolve_profile(args.profile)
    tau_s = _tau_arg(args)
    scenario = Scenario(args.scenario)
    if args.no_buffer and scenario in (Scenario.SEGMENT, Scenario.NV_CHAIN):
        print(f"note: --no-buffer does not apply to the {scenario.value} scenario",
              file=sys.stderr)
    if scenario is Scenario.ROUTED and args.no_buffer:
        scenario = Scenario.ROUTED_NO_BUFFER
    design = _design_from_args(args, profile)
    if tau_s is not None and scenario in (Scenario.SEGMENT, Scenario.ROUTED_NO_BUFFER):
        label = "segment" if scenario is Scenario.SEGMENT else "buffer-free"
        print(f"note: --tau-s does not apply to the {label} scenario", file=sys.stderr)
    report = scenario_rate(scenario, profile, design, tau_s)
    _emit(rows_to_csv([rate_row(era, profile, design, report)]), args.out)
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    era, profile = _resolve_profile(args.profile)
    design = _design_from_args(args, profile)
    tau = _tau_arg(args, allow_zero=True)
    tau, clamped = routed_cutoff_time(profile, design) if tau is None else (tau, None)
    _emit(rows_to_csv([fidelity_row(era, profile, design, tau, clamped)]), args.out)
    return 0


_MODE_SCENARIOS = {mode: scenario for scenario, mode in SCENARIO_MODES.items()}


def _cmd_simulate(args: argparse.Namespace) -> int:
    era, profile = _resolve_profile(args.profile)
    mode = McMode(args.mode)
    design = _design_from_args(args, profile)
    cfg = McConfig(args.seed, args.trials, mode, args.workers)
    tau_s = _tau_arg(args)
    if mode is McMode.MICRO_LINK:
        design = replace(design, n=1, big_n=1)
    elif mode in (McMode.MICRO_SEGMENT, McMode.WINDOW_NV):
        design = replace(design, big_n=1)
    tau = clamped = rate_ref = None
    if mode not in (McMode.MICRO_LINK, McMode.MICRO_SEGMENT):
        # The window rows carry the closed form with the simulator's floored attempts.
        law = window_law(_MODE_SCENARIOS[mode], profile, design)
        tau, clamped = law.cutoff(design.epsilon) if tau_s is None else (tau_s, None)
        rate_ref = window_reference(law, tau)
    est = simulate_scenario(profile, design, tau, cfg)
    row = SweepRow(
        scenario=mode.value, era=era,
        config=None if mode is McMode.WINDOW_NV else design.config.value,
        n=design.n,
        big_n=design.big_n if mode in (McMode.WINDOW_ROUTED, McMode.WINDOW_NO_BUFFER) else None,
        ell_km=design.ell_km,
        total_km=design.big_n * design.n * design.ell_km,
        tau_s=tau, tau_clamped=clamped,
        rate_hz=rate_ref, fidelity=None, qber=None,
        mc_rate_hz=est.mean, mc_std_error=est.std_error, seed=est.seed,
    )
    _emit(rows_to_csv([row]), args.out)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    study = Study(args.study)
    labels = ("near", "long") if args.era == "both" else (args.era,)
    profiles = [(label, builtin_profile(label)) for label in labels]
    mc = McOptions(args.with_mc, args.seed, args.trials, args.workers)
    return _emit_checked(*run_study(study, profiles, mc), args.out)


def _cmd_sweep(args: argparse.Namespace) -> int:
    era, profile = _resolve_profile(args.profile)
    ell = args.ell_km if args.ell_km is not None else max_link_length(profile)
    spec = SweepSpec(
        scenario=Scenario(args.scenario),
        profiles=((era, profile),),
        axis=args.axis.replace("-", "_"),
        start=args.start, stop=args.stop, step=args.step,
        config=Config(args.config), ell_km=ell, n=args.n, big_n=args.big_n,
        xi=args.xi, epsilon=args.epsilon,
        mc=McOptions(args.with_mc, args.seed, args.trials, args.workers),
    )
    return _emit_checked(*run_custom(spec), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repchain",
        description="Capacity and fidelity engine for buffered-router repeater chains.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="COMMAND", parser_class=_Parser,
    )

    p_rate = sub.add_parser(
        "rate",
        help="closed-form pair rate for one design",
    )
    p_rate.add_argument("--scenario", required=True,
                        choices=[s.value for s in Scenario])
    _add_profile_arg(p_rate)
    _add_design_args(p_rate)
    p_rate.add_argument("--no-buffer", action="store_true",
                        help="drop the buffer stage; with --scenario routed this "
                             "selects the buffer-free rate")
    p_rate.add_argument("--tau-s", type=float, default=None, metavar="F",
                        help="explicit window duration for nv-chain and routed")
    p_rate.add_argument("--out", default=None, metavar="PATH",
                        help="output CSV path (default: stdout)")
    p_rate.set_defaults(func=_cmd_rate)

    p_fid = sub.add_parser(
        "fidelity",
        help="end-to-end fidelity and QBER for one design",
    )
    _add_profile_arg(p_fid)
    _add_design_args(p_fid)
    p_fid.add_argument("--tau-s", type=float, default=None, metavar="F",
                       help="storage duration (default: the design's window duration)")
    p_fid.add_argument("--out", default=None, metavar="PATH")
    p_fid.set_defaults(func=_cmd_fidelity)

    p_sim = sub.add_parser(
        "simulate",
        help="seeded Monte Carlo estimate for one design",
    )
    p_sim.add_argument("--mode", required=True,
                       choices=[m.value for m in McMode])
    _add_profile_arg(p_sim)
    _add_design_args(p_sim)
    p_sim.add_argument("--tau-s", type=float, default=None, metavar="F",
                       help="window duration for window modes "
                            "(default: the closed-form duration)")
    p_sim.add_argument("--seed", type=int, default=0, metavar="U64")
    p_sim.add_argument("--trials", type=int, default=100_000, metavar="N")
    p_sim.add_argument("--workers", type=int, default=1, metavar="I")
    p_sim.add_argument("--out", default=None, metavar="PATH")
    p_sim.set_defaults(func=_cmd_simulate)

    p_rep = sub.add_parser(
        "reproduce",
        help="run a standard study and write its CSV",
    )
    p_rep.add_argument("--study", required=True,
                       choices=[s.value for s in Study])
    p_rep.add_argument("--era", choices=("near", "long", "both"), default="both")
    p_rep.add_argument("--out", required=True, metavar="PATH")
    _add_mc_args(p_rep)
    p_rep.set_defaults(func=_cmd_reproduce)

    p_sweep = sub.add_parser(
        "sweep",
        help="sweep one design axis for one scenario",
    )
    p_sweep.add_argument("--scenario", required=True,
                         choices=[s.value for s in Scenario])
    p_sweep.add_argument("--axis", required=True, choices=("n", "big-n", "ell-km"))
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    _add_profile_arg(p_sweep)
    _add_design_args(p_sweep)
    p_sweep.add_argument("--out", default=None, metavar="PATH")
    _add_mc_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
