"""Study runners, custom sweeps, and CSV emission.

Each runner reproduces one standard study over the built-in eras and returns
(rows, checks). Rows follow the fixed CSV column contract; checks are the
runner's documented qualitative postconditions (orderings, crossovers,
clamping, anchors) evaluated on the produced data and returned as data, never
raised: a failed check marks a disagreement between the implemented model and
the documented expectation while the rows remain valid output.

Column semantics: micro Monte Carlo scenarios report a probability in the
mc_rate_hz / mc_std_error columns; all other scenarios report rates in Hz.
Rows of window scenarios carry the window duration tau_s; rows without a
window leave it empty. total_km is always N * n * ell_km over the columns
present in the row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Callable, Sequence

from .fidelity import end_to_end_report, qber, router_pair_werner, werner_to_fidelity
from .montecarlo import SCENARIO_MODES, McConfig, McEstimate, McMode, simulate_scenario
from .network import Config, NetworkDesign, max_link_length
from .params import ParameterProfile
from .rates import RateReport, Scenario, attempt_rate, routed_cutoff_time, scenario_rate, window_law

__all__ = [
    "CSV_HEADER",
    "CheckResult",
    "McOptions",
    "Study",
    "SweepError",
    "SweepRow",
    "SweepSpec",
    "fidelity_row",
    "rate_row",
    "rows_to_csv",
    "run_config_compare",
    "run_custom",
    "run_cutoff_window",
    "run_fidelity",
    "run_rate_vs_links",
    "run_rate_vs_routers",
    "run_study",
    "write_csv",
]

CSV_HEADER = (
    "scenario,era,config,n,N,ell_km,total_km,tau_s,tau_clamped,"
    "rate_hz,fidelity,qber,mc_rate_hz,mc_std_error,seed"
)

LINK_SWEEP = range(1, 9)
ROUTER_SWEEP = range(1, 11)
LENGTH_SWEEP_KM = range(10, 101, 10)

# Links per segment at each era's standard operating point.
OPERATING_N = {"near": 1, "long": 2}

# Upper bound on the points of one custom sweep; the standard studies use at most 10.
MAX_SWEEP_POINTS = 10_000

# Scenarios with routers; the others run on one segment and hide the N column.
_ROUTED_SCENARIOS = (Scenario.ROUTED, Scenario.ROUTED_NO_BUFFER)


class SweepError(ValueError):
    """Raised when a sweep specification is unusable."""


class Study(enum.Enum):
    RATE_VS_LINKS = "rate-vs-links"
    RATE_VS_ROUTERS = "rate-vs-routers"
    CONFIG_COMPARE = "config-compare"
    CUTOFF_WINDOW = "cutoff-window"
    FIDELITY = "fidelity"


@dataclass(frozen=True)
class SweepRow:
    scenario: str
    era: str
    config: str | None
    n: int | None
    big_n: int | None
    ell_km: float | None
    total_km: float | None
    tau_s: float | None
    tau_clamped: bool | None
    rate_hz: float | None
    fidelity: float | None
    qber: float | None
    mc_rate_hz: float | None
    mc_std_error: float | None
    seed: int | None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class McOptions:
    enabled: bool = False
    seed: int = 0
    trials: int = 100_000
    workers: int = 1


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_ROW_FIELDS = tuple(field.name for field in dataclass_fields(SweepRow))


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, name)) for name in _ROW_FIELDS))
    return "\n".join(lines) + "\n"


def write_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    Path(path).write_text(rows_to_csv(rows), encoding="utf-8", newline="\n")


def rate_row(
    era: str,
    profile: ParameterProfile,
    design: NetworkDesign,
    report: RateReport,
    mc: McOptions = McOptions(),
) -> SweepRow:
    """One CSV row for a rate report; nv-chain hides config, only routed rows show N.

    With MC on, segment probabilities are scaled to rates by the attempt rate.
    """
    scenario = report.scenario
    routed = scenario in _ROUTED_SCENARIOS
    est = None
    if mc.enabled:
        mode = SCENARIO_MODES[scenario]
        est = simulate_scenario(
            profile, design, report.tau_s, McConfig(mc.seed, mc.trials, mode, mc.workers))
        if mode is McMode.MICRO_SEGMENT:
            omega = attempt_rate(profile)
            est = McEstimate(est.mean * omega, est.std_error * omega, est.trials, est.seed)
    return SweepRow(
        scenario=scenario.value,
        era=era,
        config=None if scenario is Scenario.NV_CHAIN else design.config.value,
        n=design.n,
        big_n=design.big_n if routed else None,
        ell_km=design.ell_km,
        total_km=(design.big_n if routed else 1) * design.n * design.ell_km,
        tau_s=report.tau_s,
        tau_clamped=report.tau_clamped if report.tau_s is not None else None,
        rate_hz=report.rate_hz,
        fidelity=None,
        qber=None,
        mc_rate_hz=est.mean if est else None,
        mc_std_error=est.std_error if est else None,
        seed=est.seed if est else None,
    )


def fidelity_row(
    era: str,
    profile: ParameterProfile,
    design: NetworkDesign,
    tau_s: float,
    tau_clamped: bool | None,
) -> SweepRow:
    """One end-to-end fidelity row for pairs stored over tau_s."""
    report = end_to_end_report(profile, design, tau_s)
    return SweepRow(
        scenario="fidelity-end-to-end", era=era, config=design.config.value,
        n=design.n, big_n=design.big_n, ell_km=design.ell_km,
        total_km=design.big_n * design.n * design.ell_km,
        tau_s=tau_s, tau_clamped=tau_clamped,
        rate_hz=None, fidelity=report.fidelity, qber=report.qber,
        mc_rate_hz=None, mc_std_error=None, seed=None,
    )


def _add_rate_row(
    rows: list[SweepRow],
    era: str,
    profile: ParameterProfile,
    design: NetworkDesign,
    scenario: Scenario,
    mc: McOptions,
) -> RateReport:
    """Append the rate row of one scenario and design; return its report."""
    report = scenario_rate(scenario, profile, design)
    rows.append(rate_row(era, profile, design, report, mc))
    return report


def _require_known_eras(profiles: Sequence[tuple[str, ParameterProfile]]) -> None:
    for label, _profile in profiles:
        if label not in OPERATING_N:
            raise SweepError(
                f"study runners support eras {sorted(OPERATING_N)}, got {label!r}"
            )


def run_rate_vs_links(
    profiles: Sequence[tuple[str, ParameterProfile]],
    mc: McOptions = McOptions(),
) -> tuple[list[SweepRow], list[CheckResult]]:
    """Single-segment rate against the homogeneous spin-photon chain, n = 1..8."""
    _require_known_eras(profiles)
    rows: list[SweepRow] = []
    checks: list[CheckResult] = []
    for era, profile in profiles:
        ell = max_link_length(profile)
        seg: dict[int, float] = {}
        nv: dict[int, float] = {}
        for n in LINK_SWEEP:
            design = NetworkDesign(Config.A, ell, n, 1)
            seg[n] = _add_rate_row(rows, era, profile, design, Scenario.SEGMENT, mc).rate_hz
            nv[n] = _add_rate_row(rows, era, profile, design, Scenario.NV_CHAIN, mc).rate_hz
        if era == "near":
            checks.append(CheckResult(
                "near-crossover-first-link", seg[1] > nv[1],
                f"segment {seg[1]:.4g} Hz vs nv-chain {nv[1]:.4g} Hz at n=1",
            ))
            bad = [n for n in LINK_SWEEP if n >= 2 and not seg[n] < nv[n]]
            checks.append(CheckResult(
                "near-crossover-rest",
                not bad,
                f"expected nv-chain ahead for n in [2,8]; segment still ahead at n={bad}",
            ))
            checks.append(CheckResult(
                "near-single-segment-rate",
                abs(seg[1] - 30.7) / 30.7 < 0.01,
                f"rate {seg[1]:.6g} Hz vs expected 30.7 Hz",
            ))
        if era == "long":
            bad_low = [n for n in (1, 2, 3) if not seg[n] > nv[n]]
            checks.append(CheckResult(
                "long-crossover-low", not bad_low,
                f"expected segment ahead for n<=3; behind at n={bad_low}",
            ))
            bad_high = [n for n in LINK_SWEEP if n >= 4 and not seg[n] < nv[n]]
            checks.append(CheckResult(
                "long-crossover-high", not bad_high,
                f"expected nv-chain ahead for n in [4,8]; behind at n={bad_high}",
            ))
    return rows, checks


def run_rate_vs_routers(
    profiles: Sequence[tuple[str, ParameterProfile]],
    mc: McOptions = McOptions(),
) -> tuple[list[SweepRow], list[CheckResult]]:
    """Buffered vs buffer-free routed chain vs spin-photon chain, N = 1..10."""
    _require_known_eras(profiles)
    rows: list[SweepRow] = []
    checks: list[CheckResult] = []
    for era, profile in profiles:
        n_seg = OPERATING_N[era]
        ell = max_link_length(profile)
        buffered: dict[int, float] = {}
        no_buffer: dict[int, float] = {}
        nv: dict[int, float] = {}
        for big_n in ROUTER_SWEEP:
            design = NetworkDesign(Config.A, ell, n_seg, big_n)
            buffered[big_n] = _add_rate_row(
                rows, era, profile, design, Scenario.ROUTED, mc).rate_hz
            no_buffer[big_n] = _add_rate_row(
                rows, era, profile, design, Scenario.ROUTED_NO_BUFFER, mc).rate_hz
            nv_design = NetworkDesign(Config.A, ell, n_seg * big_n, 1)
            nv[big_n] = _add_rate_row(
                rows, era, profile, nv_design, Scenario.NV_CHAIN, mc).rate_hz
        if era == "near":
            bad = [N for N in ROUTER_SWEEP if not no_buffer[N] > buffered[N]]
            checks.append(CheckResult(
                "near-no-buffer-advantage", not bad,
                f"expected buffer-free ahead for all N; behind at N={bad}",
            ))
        if era == "long":
            bad = [N for N in ROUTER_SWEEP if not buffered[N] > no_buffer[N]]
            checks.append(CheckResult(
                "long-buffer-advantage", not bad,
                f"expected buffered ahead for all N; behind at N={bad}",
            ))
        bad_nv = [N for N in ROUTER_SWEEP if not buffered[N] > nv[N]]
        checks.append(CheckResult(
            f"{era}-routed-beats-nv-chain", not bad_nv,
            f"expected routed chain ahead of nv-chain at matched length; behind at N={bad_nv}",
        ))
    return rows, checks


def run_config_compare(
    profiles: Sequence[tuple[str, ParameterProfile]],
    mc: McOptions = McOptions(),
) -> tuple[list[SweepRow], list[CheckResult]]:
    """Configuration A vs B at matched total lengths, shortening factor 2."""
    _require_known_eras(profiles)
    xi = 2
    rows: list[SweepRow] = []
    checks: list[CheckResult] = []
    for era, profile in profiles:
        n_a = OPERATING_N[era]
        ell = max_link_length(profile)
        rate_a: dict[int, float] = {}
        rate_b: dict[int, float] = {}
        for big_n in ROUTER_SWEEP:
            design_a = NetworkDesign(Config.A, ell, n_a, big_n)
            rate_a[big_n] = _add_rate_row(
                rows, era, profile, design_a, Scenario.ROUTED, mc).rate_hz
            design_b = NetworkDesign(Config.B, ell / xi, 1, big_n * n_a * xi, xi=xi)
            rate_b[big_n] = _add_rate_row(
                rows, era, profile, design_b, Scenario.ROUTED, mc).rate_hz
            total_a, total_b = rows[-2].total_km, rows[-1].total_km
            if not math.isclose(total_a, total_b, rel_tol=1e-12):
                checks.append(CheckResult(
                    f"{era}-matched-length-N{big_n}", False,
                    f"total lengths diverge: {total_a} vs {total_b} km",
                ))
        if era == "near":
            bad = [N for N in ROUTER_SWEEP if not rate_a[N] > rate_b[N]]
            checks.append(CheckResult(
                "near-config-a-advantage", not bad,
                f"expected A ahead at all matched lengths; behind at N={bad}",
            ))
        if era == "long":
            bad = [N for N in ROUTER_SWEEP if not rate_b[N] > rate_a[N]]
            checks.append(CheckResult(
                "long-config-b-advantage", not bad,
                f"expected B ahead at all matched lengths; behind at N={bad}",
            ))
    return rows, checks


def run_cutoff_window(
    profiles: Sequence[tuple[str, ParameterProfile]],
    mc: McOptions = McOptions(),
) -> tuple[list[SweepRow], list[CheckResult]]:
    """Window duration behavior: vs segment count, and vs link length at N=1."""
    _require_known_eras(profiles)
    rows: list[SweepRow] = []
    checks: list[CheckResult] = []
    for era, profile in profiles:
        n_seg = OPERATING_N[era]
        ell = max_link_length(profile)
        left: dict[int, tuple[float, bool]] = {}
        for big_n in ROUTER_SWEEP:
            design = NetworkDesign(Config.A, ell, n_seg, big_n)
            report = _add_rate_row(rows, era, profile, design, Scenario.ROUTED, mc)
            left[big_n] = (report.tau_s, report.tau_clamped)
        for n in (1, 2):
            taus: list[float] = []
            for ell_x in LENGTH_SWEEP_KM:
                design = NetworkDesign(Config.A, float(ell_x), n, 1)
                taus.append(_add_rate_row(rows, era, profile, design, Scenario.ROUTED, mc).tau_s)
            bad = [
                (lo, hi) for lo, hi in zip(taus, taus[1:]) if not hi >= lo
            ]
            checks.append(CheckResult(
                f"{era}-window-monotone-in-length-n{n}", not bad,
                f"window duration decreased across {len(bad)} step(s)",
            ))
        if era == "near":
            bad = [
                N for N, (tau, clamped) in left.items()
                if not (clamped and math.isclose(tau, profile.t_nv, rel_tol=1e-12))
            ]
            checks.append(CheckResult(
                "near-window-clamped", not bad,
                "expected the storage-time clamp at every N; unclamped at N="
                f"{bad} with tau {[round(left[N][0], 6) for N in bad]} s",
            ))
        eps_design = NetworkDesign(Config.A, ell, n_seg, 1, epsilon=1.0 - 1e-15)
        tau_limit, _ = routed_cutoff_time(profile, eps_design)
        floor = window_law(Scenario.ROUTED, profile, eps_design).floor_s
        checks.append(CheckResult(
            f"{era}-window-epsilon-limit",
            math.isclose(tau_limit, floor, rel_tol=1e-9),
            f"tau {tau_limit!r} s vs handoff floor {floor!r} s",
        ))
    return rows, checks


def run_fidelity(
    profiles: Sequence[tuple[str, ParameterProfile]],
    mc: McOptions = McOptions(),
) -> tuple[list[SweepRow], list[CheckResult]]:
    """Pre-storage pair fidelity vs n, and end-to-end fidelity vs N."""
    _require_known_eras(profiles)
    rows: list[SweepRow] = []
    checks: list[CheckResult] = []
    for era, profile in profiles:
        ell = max_link_length(profile)
        for n in LINK_SWEEP:
            w = router_pair_werner(profile, Config.A, n, 0.0)
            f = werner_to_fidelity(w)
            rows.append(SweepRow(
                scenario="fidelity-router-pair", era=era, config=Config.A.value,
                n=n, big_n=1, ell_km=ell, total_km=n * ell,
                tau_s=0.0, tau_clamped=False,
                rate_hz=None, fidelity=f, qber=qber(f),
                mc_rate_hz=None, mc_std_error=None, seed=None,
            ))
        n_seg = OPERATING_N[era]
        end_to_end: dict[int, float] = {}
        for big_n in ROUTER_SWEEP:
            design = NetworkDesign(Config.A, ell, n_seg, big_n)
            row = fidelity_row(era, profile, design, *routed_cutoff_time(profile, design))
            end_to_end[big_n] = row.fidelity
            rows.append(row)
        if era == "long":
            checks.append(CheckResult(
                "long-minimum-fidelity", end_to_end[1] >= 0.80,
                f"end-to-end fidelity {end_to_end[1]:.4f} at N=1",
            ))
        if era == "near":
            bad = [N for N in ROUTER_SWEEP if N >= 2 and not end_to_end[N] < 0.5]
            checks.append(CheckResult(
                "near-useful-range", not bad,
                f"expected sub-0.5 fidelity for N >= 2; above at N={bad}",
            ))
    checks.append(CheckResult(
        "qber-anchor", abs(qber(0.8) - 0.1333) <= 1e-4,
        f"qber(0.8) = {qber(0.8)!r}",
    ))
    return rows, checks


_STUDY_RUNNERS: dict[Study, Callable] = {
    Study.RATE_VS_LINKS: run_rate_vs_links,
    Study.RATE_VS_ROUTERS: run_rate_vs_routers,
    Study.CONFIG_COMPARE: run_config_compare,
    Study.CUTOFF_WINDOW: run_cutoff_window,
    Study.FIDELITY: run_fidelity,
}


def run_study(
    study: Study,
    profiles: Sequence[tuple[str, ParameterProfile]],
    mc: McOptions = McOptions(),
) -> tuple[list[SweepRow], list[CheckResult]]:
    return _STUDY_RUNNERS[study](profiles, mc)


@dataclass(frozen=True)
class SweepSpec:
    """Generic one-axis sweep over a design template."""

    scenario: Scenario
    profiles: tuple[tuple[str, ParameterProfile], ...]
    axis: str               # one of n, big_n, ell_km
    start: float
    stop: float
    step: float
    config: Config = Config.A
    ell_km: float = 20.0
    n: int = 1
    big_n: int = 1
    xi: int = 2
    epsilon: float = 0.05
    mc: McOptions = McOptions()


_INT_AXES = {"n", "big_n"}
_AXES = _INT_AXES | {"ell_km"}


def _axis_values(spec: SweepSpec) -> list[float]:
    if spec.axis not in _AXES:
        raise SweepError(f"unknown sweep axis {spec.axis!r}; expected one of {sorted(_AXES)}")
    if spec.axis == "big_n" and spec.scenario not in _ROUTED_SCENARIOS:
        raise SweepError(
            f"sweep axis big_n does not apply to the {spec.scenario.value} scenario, "
            f"which has no routers"
        )
    for name in ("start", "stop", "step"):
        if not math.isfinite(getattr(spec, name)):
            raise SweepError(f"sweep {name} {getattr(spec, name)!r} must be finite")
    if spec.step <= 0:
        raise SweepError(f"sweep step {spec.step!r} must be > 0")
    if (spec.stop - spec.start) / spec.step >= MAX_SWEEP_POINTS:
        raise SweepError(
            f"sweep from start {spec.start!r} to stop {spec.stop!r} by step {spec.step!r} "
            f"exceeds {MAX_SWEEP_POINTS} points"
        )
    values: list[float] = []
    value = spec.start
    # Half-step slack keeps the inclusive endpoint from falling to float error.
    while value <= spec.stop + spec.step * 1e-9:
        values.append(value)
        value += spec.step
    if not values:
        raise SweepError(
            f"empty sweep range: start {spec.start!r}, stop {spec.stop!r}, step {spec.step!r}"
        )
    if spec.axis in _INT_AXES:
        for v in values:
            if v != int(v) or v < 1:
                raise SweepError(
                    f"sweep axis {spec.axis} requires positive integers, got {v!r} "
                    f"from start {spec.start!r} by step {spec.step!r}"
                )
        return [int(v) for v in values]
    return values


def run_custom(spec: SweepSpec) -> tuple[list[SweepRow], list[CheckResult]]:
    """Sweep one axis for one scenario; returns rows plus a row-count check."""
    values = _axis_values(spec)
    rows: list[SweepRow] = []
    for era, profile in spec.profiles:
        for value in values:
            fields = dict(
                config=spec.config, ell_km=spec.ell_km, n=spec.n,
                big_n=spec.big_n, xi=spec.xi, epsilon=spec.epsilon,
            )
            fields[spec.axis] = value
            _add_rate_row(rows, era, profile, NetworkDesign(**fields), spec.scenario, spec.mc)
    expected = len(spec.profiles) * len(values)
    checks = [CheckResult(
        "row-count", len(rows) == expected,
        f"{len(rows)} rows for {expected} sweep points",
    )]
    return rows, checks
