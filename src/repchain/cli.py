"""Command-line interface. It only parses: each subcommand makes one
experiments call and writes the rows that call returns.

Exit codes: 0 success, 1 usage error, 2 validation error (bad parameter
values, malformed profile files, unusable designs). Runner check failures
are reported on stderr but exit 0: the rows are valid output and the checks
are part of it.

Each call starts a new interpreter, so the module top imports only the standard
library: the parser holds the invoked command's arguments alone, and each command
imports the engine names it calls.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .experiments import CheckResult, McOptions
    from .network import NetworkDesign
    from .params import ParameterProfile


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse reads only -digits and -digits.digits as negative numbers; take
        # exponent and word forms such as -1e308 and -inf as values too.
        self._negative_number_matcher = re.compile(
            r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)\Z", re.IGNORECASE)

    # argparse exits 2 on usage errors; the contract reserves 2 for validation.
    def error(self, message: str) -> None:
        raise _UsageError(f"{self.prog}: {message}")


def _resolve_profile(token: str) -> tuple[str, ParameterProfile]:
    from .params import Era, builtin_profile, load_profile

    if token in {era.value for era in Era}:
        return token, builtin_profile(token)
    return Path(token).stem, load_profile(token)


def _add_design_args(parser: argparse.ArgumentParser) -> None:
    """The profile, the design and the optional output path."""
    parser.add_argument("--profile", default="near", metavar="PATH|near|long|ideal",
                        help="built-in era name or profile file (default: near)")
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
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output CSV path (default: stdout)")


def _add_mc_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, metavar="U64",
                        help="master seed (default: 0)")
    parser.add_argument("--trials", type=int, default=100_000, metavar="N",
                        help="trials per estimate (default: 100000)")
    parser.add_argument("--workers", type=int, default=1, metavar="I",
                        help="worker threads; results do not depend on this (default: 1)")


def _ell_km(args: argparse.Namespace, profile: ParameterProfile) -> float:
    """--ell-km, by default the longest link the profile's memory storage covers."""
    from .network import max_link_length

    return args.ell_km if args.ell_km is not None else max_link_length(profile)


def _design_from_args(args: argparse.Namespace, profile: ParameterProfile) -> NetworkDesign:
    from .network import Config, NetworkDesign

    return NetworkDesign(
        config=Config(args.config),
        ell_km=_ell_km(args, profile),
        n=args.n,
        big_n=args.big_n,
        xi=args.xi,
        epsilon=args.epsilon,
    )


def _mc_options(args: argparse.Namespace) -> McOptions:
    """The MC flags; McOptions checks them as simulate does, whether or not anything draws."""
    from .experiments import McOptions

    return McOptions(args.with_mc, args.seed, args.trials, args.workers)


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


def _emit(out: str | None, rows: Sequence, checks: Sequence[CheckResult] = ()) -> int:
    """Write the rows, then report failed checks on stderr; the exit code stays 0."""
    from .experiments import rows_to_csv, write_csv

    if out is None:
        sys.stdout.write(rows_to_csv(rows))
    else:
        write_csv(rows, out)
    failed = [c for c in checks if not c.passed]
    for c in failed:
        print(f"check failed: {c.name}: {c.detail}", file=sys.stderr)
    if failed:
        print(f"checks: {len(checks) - len(failed)}/{len(checks)} passed", file=sys.stderr)
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    from .experiments import rate_row
    from .rates import Scenario

    era, profile = _resolve_profile(args.profile)
    tau_s = _tau_arg(args)
    scenario = Scenario(args.scenario)
    design = _design_from_args(args, profile)
    if tau_s is not None and scenario is Scenario.SEGMENT:
        print("note: --tau-s does not apply to the segment scenario", file=sys.stderr)
    return _emit(args.out, [rate_row(era, profile, design, scenario, tau_s)])


def _cmd_fidelity(args: argparse.Namespace) -> int:
    from .experiments import fidelity_row

    era, profile = _resolve_profile(args.profile)
    design = _design_from_args(args, profile)
    row = fidelity_row(era, profile, design, _tau_arg(args, allow_zero=True))
    return _emit(args.out, [row])


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .experiments import simulate_row
    from .montecarlo import McConfig, McMode

    era, profile = _resolve_profile(args.profile)
    design = _design_from_args(args, profile)
    cfg = McConfig(args.seed, args.trials, McMode(args.mode), args.workers)
    tau_s = _tau_arg(args)
    if tau_s is not None and cfg.mode in (McMode.MICRO_LINK, McMode.MICRO_SEGMENT):
        print(f"note: --tau-s does not apply to the {cfg.mode.value} mode", file=sys.stderr)
    return _emit(args.out, [simulate_row(era, profile, design, cfg, tau_s)])


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments import Study, run_study
    from .params import builtin_profile

    mc = _mc_options(args)
    study = Study(args.study)
    labels = ("near", "long") if args.era == "both" else (args.era,)
    profiles = [(label, builtin_profile(label)) for label in labels]
    return _emit(args.out, *run_study(study, profiles, mc))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import SweepSpec, run_custom
    from .network import Config
    from .rates import Scenario

    mc = _mc_options(args)
    era, profile = _resolve_profile(args.profile)
    spec = SweepSpec(
        scenario=Scenario(args.scenario),
        profiles=((era, profile),),
        axis=args.axis.replace("-", "_"),
        start=args.start, stop=args.stop, step=args.step,
        config=Config(args.config), ell_km=_ell_km(args, profile), n=args.n, big_n=args.big_n,
        xi=args.xi, epsilon=args.epsilon,
        mc=mc,
    )
    return _emit(args.out, *run_custom(spec))


# Each subcommand's help line and handler, in --help order.
_COMMANDS = {
    "rate": ("closed-form pair rate for one design", _cmd_rate),
    "fidelity": ("end-to-end fidelity and QBER for one design", _cmd_fidelity),
    "simulate": ("seeded Monte Carlo estimate for one design", _cmd_simulate),
    "reproduce": ("run a standard study and write its CSV", _cmd_reproduce),
    "sweep": ("sweep one design axis for one scenario", _cmd_sweep),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand with its help line, and the arguments of `command`, or of all for None."""
    parser = _Parser(
        prog="repchain",
        description="Capacity and fidelity engine for buffered-router repeater chains.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="COMMAND", parser_class=_Parser,
    )
    p = {name: sub.add_parser(name, help=help_line) for name, (help_line, _) in _COMMANDS.items()}
    wanted = set(_COMMANDS) if command is None else {command}
    if wanted & {"rate", "sweep"}:
        from .rates import Scenario
    if "rate" in wanted:
        p["rate"].add_argument("--scenario", required=True, choices=[s.value for s in Scenario])
        _add_design_args(p["rate"])
        p["rate"].add_argument("--tau-s", type=float, default=None, metavar="F",
                               help="explicit window duration for the windowed scenarios "
                                    "(nv-chain, routed, routed-nobuffer)")
    if "fidelity" in wanted:
        _add_design_args(p["fidelity"])
        p["fidelity"].add_argument("--tau-s", type=float, default=None, metavar="F",
                                   help="storage duration (default: the design's window duration)")
    if "simulate" in wanted:
        from .montecarlo import McMode
        p["simulate"].add_argument("--mode", required=True, choices=[m.value for m in McMode])
        _add_design_args(p["simulate"])
        p["simulate"].add_argument("--tau-s", type=float, default=None, metavar="F",
                                   help="window duration for window modes "
                                        "(default: the closed-form duration)")
        _add_mc_args(p["simulate"])
    if "reproduce" in wanted:
        from .experiments import Study
        p["reproduce"].add_argument("--study", required=True, choices=[s.value for s in Study])
        p["reproduce"].add_argument("--era", choices=("near", "long", "both"), default="both")
        p["reproduce"].add_argument("--out", required=True, metavar="PATH")
    if "sweep" in wanted:
        p["sweep"].add_argument("--scenario", required=True, choices=[s.value for s in Scenario])
        p["sweep"].add_argument("--axis", required=True, choices=("n", "big-n", "ell-km"))
        for bound in ("--start", "--stop", "--step"):
            p["sweep"].add_argument(bound, type=float, required=True)
        _add_design_args(p["sweep"])
    # simulate always draws; reproduce and sweep draw on request.
    for name in wanted & {"reproduce", "sweep"}:
        p[name].add_argument("--with-mc", action="store_true",
                             help="attach Monte Carlo estimates to each row")
        _add_mc_args(p[name])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command][1](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
