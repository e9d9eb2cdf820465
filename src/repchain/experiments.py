"""Standard studies, custom sweeps, and CSV emission.

run_study is the one study loop: it rejects a non-Study and unknown eras,
then runs the study's private per-era body for each built-in era and returns
(rows, checks).
Rows follow the fixed CSV column contract; checks are the study's documented
qualitative postconditions (orderings, crossovers, clamping, anchors)
evaluated on the produced data and returned as data, never raised: a failed
check marks a disagreement between the implemented model and the documented
expectation while the rows remain valid output. Every "X ahead of Y at every
point" ordering goes through one helper, _ahead.

Every row comes from one builder, _row, behind rate_row, simulate_row and
fidelity_row. Each solves its own report, so a caller passes a scenario or
mode and an optional tau_s, never a report. _row applies the column rules
once: only routed chains show N (fidelity rows describe one); the nv
chain hides config; micro-link shows config and n = 1; total_km is
N * n * ell_km over the columns present in the row; rows without a window
leave tau_s and tau_clamped empty; callers with a fidelity pass its qber.
Micro Monte Carlo scenarios report a probability in the mc_rate_hz /
mc_std_error columns; all other scenarios report rates in Hz. fidelity and
montecarlo are imported inside the functions that call them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .network import Config, NetworkDesign, max_link_length
from .params import ParameterProfile, _check_mc_settings, _python_scalar, _real
from .rates import (
    _NV_CHAIN, Scenario, _scenario_message, _window_rate, attempt_rate, routed_cutoff_time,
    scenario_rate, window_law)

if TYPE_CHECKING:
    from .montecarlo import McConfig, McEstimate

__all__ = [
    "CSV_HEADER",
    "CheckResult",
    "McOptions",
    "ROUTED_SCENARIOS",
    "Study",
    "SweepError",
    "SweepRow",
    "SweepSpec",
    "fidelity_row",
    "rate_row",
    "rows_to_csv",
    "run_custom",
    "run_study",
    "simulate_row",
    "write_csv",
]

LINK_SWEEP = range(1, 9)
ROUTER_SWEEP = range(1, 11)
LENGTH_SWEEP_KM = range(10, 101, 10)

# Links per segment at each era's standard operating point.
OPERATING_N = {"near": 1, "long": 2}

# Upper bound on the points of one custom sweep; the standard studies use at most 10.
MAX_SWEEP_POINTS = 10_000

# Scenarios with routers; the others run on one segment and hide the N column.
ROUTED_SCENARIOS = (Scenario.ROUTED, Scenario.ROUTED_NO_BUFFER)


class SweepError(ValueError):
    """Raised when a sweep specification is unusable."""


class Study(enum.Enum):
    RATE_VS_LINKS = "rate-vs-links"
    RATE_VS_ROUTERS = "rate-vs-routers"
    CONFIG_COMPARE = "config-compare"
    CUTOFF_WINDOW = "cutoff-window"
    FIDELITY = "fidelity"


class SweepRow(NamedTuple):
    # rows_to_csv writes the fields in this order: it is the CSV column order.
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


# The header names each SweepRow field, with big_n written as N.
CSV_HEADER = ",".join("N" if name == "big_n" else name for name in SweepRow._fields)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class McOptions:
    enabled: bool = False
    seed: int = 0
    trials: int = 100_000
    workers: int = 1

    def __post_init__(self) -> None:
        _check_mc_settings(self.seed, self.trials, self.workers)


def _cell(value) -> str:
    """A cell whose type is not an exact Python scalar type.

    A numpy scalar prints as the Python scalar it holds and a float subclass
    as its float digits, so such inputs write the same bytes as plain ones.
    """
    value = _python_scalar(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    # Cells of an exact type format inline; any other type goes through _cell.
    lines = [CSV_HEADER]
    lines += [",".join(["" if v is None else repr(v) if (t := type(v)) is float
                        else ("true" if v else "false") if t is bool
                        else v if t is str else str(v) if t is int else _cell(v)
                        for v in row])
              for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    Path(path).write_text(rows_to_csv(rows), encoding="utf-8", newline="\n")


def _check_era_label(era: str) -> None:
    """Reject an era label holding a comma, a double quote or a line break.

    The label is written unquoted, so each row entry point checks it before
    any work; the study eras are fixed names.
    """
    if "," in era or '"' in era or "\n" in era or "\r" in era:
        raise ValueError(
            f"era label {era!r} holds a comma, a double quote or a line break, "
            f"which a CSV cell cannot carry unquoted")


def _row(label: str, era: str, design: NetworkDesign, scenario: Scenario | None,
         tau_s: float | None = None, tau_clamped: bool | None = None,
         rate_hz: float | None = None, fidelity: float | None = None,
         qber: float | None = None, est: McEstimate | None = None) -> SweepRow:
    """The one row constructor; scenario None is a single link (micro-link)."""
    routed = scenario in ROUTED_SCENARIOS
    n = design.n if scenario is not None else 1
    # Enum members keep their value in _value_; reading it skips the .value descriptor.
    return SweepRow(
        label, era, None if scenario is _NV_CHAIN else design.config._value_,
        n, design.big_n if routed else None, design.ell_km,
        (design.big_n if routed else 1) * n * design.ell_km,
        tau_s, tau_clamped if tau_s is not None else None, rate_hz, fidelity, qber,
        est.mean if est else None, est.std_error if est else None,
        est.seed if est else None,
    )


def rate_row(
    era: str,
    profile: ParameterProfile,
    design: NetworkDesign,
    scenario: Scenario,
    tau_s: float | None = None,
    mc: McOptions = McOptions(),
) -> SweepRow:
    """One CSV row for a scenario's rate; a windowed one takes tau_s through WindowLaw.clamp.

    With MC on, segment probabilities are scaled to rates by the attempt rate.
    """
    _check_era_label(era)
    report = scenario_rate(scenario, profile, design, tau_s)
    est = None
    if mc.enabled:
        from .montecarlo import _SCENARIO_MODES, McConfig, McEstimate, McMode, simulate_scenario

        mode = _SCENARIO_MODES[scenario]
        est = simulate_scenario(
            profile, design, report.tau_s, McConfig(mc.seed, mc.trials, mode, mc.workers))
        if mode is McMode.MICRO_SEGMENT:
            omega = attempt_rate(profile)
            est = McEstimate(est.mean * omega, est.std_error * omega, est.trials, est.seed)
    return _row(scenario._value_, era, design, scenario, report.tau_s, report.tau_clamped,
                report.rate_hz, est=est)


def simulate_row(
    era: str,
    profile: ParameterProfile,
    design: NetworkDesign,
    cfg: McConfig,
    tau_s: float | None = None,
) -> SweepRow:
    """One CSV row for a seeded estimate of cfg.mode.

    Window rows carry the closed form with the simulator's floored attempts over rate_row's window.
    """
    from .montecarlo import _SCENARIO_MODES, _window_reference, simulate_scenario

    _check_era_label(era)
    # The closed-form scenario each simulator checks; micro-link checks none.
    scenario = {mode: s for s, mode in _SCENARIO_MODES.items()}.get(cfg.mode)
    tau = clamped = rate_ref = None
    if scenario not in (None, Scenario.SEGMENT):
        _, tau, clamped, _, law = _window_rate(scenario, profile, design, tau_s)
        rate_ref = _window_reference(law, tau)
    est = simulate_scenario(profile, design, tau, cfg)
    return _row(cfg.mode.value, era, design, scenario, tau_s=tau, tau_clamped=clamped,
                rate_hz=rate_ref, est=est)


def fidelity_row(
    era: str,
    profile: ParameterProfile,
    design: NetworkDesign,
    tau_s: float | None = None,
) -> SweepRow:
    """One end-to-end fidelity row for pairs stored over tau_s.

    The window is rate_row's routed one, save an explicit 0: no storage, never clamped.
    """
    from .fidelity import end_to_end_report

    _check_era_label(era)
    tau_clamped = False  # for 0, or a negative or nan tau_s, which end_to_end_report names
    if tau_s is None:
        tau_s, tau_clamped = routed_cutoff_time(profile, design)
    elif _real(tau_s) is None:
        raise ValueError(f"tau_s = {tau_s!r} must be >= 0")
    elif tau_s > 0:
        tau_s, tau_clamped = window_law(Scenario.ROUTED, profile, design).clamp(tau_s)
    report = end_to_end_report(profile, design, tau_s)
    return _row("fidelity-end-to-end", era, design, Scenario.ROUTED, tau_s=tau_s,
                tau_clamped=tau_clamped, fidelity=report.fidelity, qber=report.qber)


def _add_rate_row(
    rows: list[SweepRow],
    era: str,
    profile: ParameterProfile,
    design: NetworkDesign,
    scenario: Scenario,
    mc: McOptions,
) -> SweepRow:
    """Append the rate row of one scenario and design; return the row."""
    row = rate_row(era, profile, design, scenario, mc=mc)
    rows.append(row)
    return row


def _ahead(name: str, lead: dict[int, float], trail: dict[int, float], points: Sequence[int],
           expected: str, axis: str, behind: str = "behind") -> CheckResult:
    """Check that lead is strictly above trail at every point; a nan counts as behind."""
    bad = [x for x in points if not lead[x] > trail[x]]
    return CheckResult(name, not bad, f"expected {expected}; {behind} at {axis}={bad}")


def _rate_vs_links(rows: list[SweepRow], era: str, profile: ParameterProfile, ell: float,
                   mc: McOptions) -> list[CheckResult]:
    """Single-segment rate against the homogeneous spin-photon chain, n = 1..8."""
    seg: dict[int, float] = {}
    nv: dict[int, float] = {}
    for n in LINK_SWEEP:
        design = NetworkDesign(Config.A, ell, n, 1)
        seg[n] = _add_rate_row(rows, era, profile, design, Scenario.SEGMENT, mc).rate_hz
        nv[n] = _add_rate_row(rows, era, profile, design, Scenario.NV_CHAIN, mc).rate_hz
    if era == "near":
        return [
            CheckResult(
                "near-crossover-first-link", seg[1] > nv[1],
                f"segment {seg[1]:.4g} Hz vs nv-chain {nv[1]:.4g} Hz at n=1",
            ),
            _ahead("near-crossover-rest", nv, seg, LINK_SWEEP[1:],
                   "nv-chain ahead for n in [2,8]", "n", behind="segment still ahead"),
            CheckResult(
                "near-single-segment-rate",
                abs(seg[1] - 30.7) / 30.7 < 0.01,
                f"rate {seg[1]:.6g} Hz vs expected 30.7 Hz",
            ),
        ]
    return [
        _ahead("long-crossover-low", seg, nv, (1, 2, 3), "segment ahead for n<=3", "n"),
        _ahead("long-crossover-high", nv, seg, LINK_SWEEP[3:],
               "nv-chain ahead for n in [4,8]", "n"),
    ]


def _rate_vs_routers(rows: list[SweepRow], era: str, profile: ParameterProfile, ell: float,
                     mc: McOptions) -> list[CheckResult]:
    """Buffered vs buffer-free routed chain vs spin-photon chain, N = 1..10."""
    n_seg = OPERATING_N[era]
    buffered: dict[int, float] = {}
    no_buffer: dict[int, float] = {}
    nv: dict[int, float] = {}
    for big_n in ROUTER_SWEEP:
        design = NetworkDesign(Config.A, ell, n_seg, big_n)
        buffered[big_n] = _add_rate_row(rows, era, profile, design, Scenario.ROUTED, mc).rate_hz
        no_buffer[big_n] = _add_rate_row(
            rows, era, profile, design, Scenario.ROUTED_NO_BUFFER, mc).rate_hz
        nv_design = NetworkDesign(Config.A, ell, n_seg * big_n, 1)
        nv[big_n] = _add_rate_row(rows, era, profile, nv_design, Scenario.NV_CHAIN, mc).rate_hz
    if era == "near":
        buffer_check = _ahead("near-no-buffer-advantage", no_buffer, buffered, ROUTER_SWEEP,
                              "buffer-free ahead for all N", "N")
    else:
        buffer_check = _ahead("long-buffer-advantage", buffered, no_buffer, ROUTER_SWEEP,
                              "buffered ahead for all N", "N")
    return [buffer_check, _ahead(
        f"{era}-routed-beats-nv-chain", buffered, nv, ROUTER_SWEEP,
        "routed chain ahead of nv-chain at matched length", "N")]


def _config_compare(rows: list[SweepRow], era: str, profile: ParameterProfile, ell: float,
                    mc: McOptions) -> list[CheckResult]:
    """Configuration A vs B at matched total lengths, shortening factor 2."""
    xi = 2
    n_a = OPERATING_N[era]
    rate_a: dict[int, float] = {}
    rate_b: dict[int, float] = {}
    for big_n in ROUTER_SWEEP:
        design_a = NetworkDesign(Config.A, ell, n_a, big_n)
        rate_a[big_n] = _add_rate_row(rows, era, profile, design_a, Scenario.ROUTED, mc).rate_hz
        design_b = NetworkDesign(Config.B, ell / xi, 1, big_n * n_a * xi, xi=xi)
        rate_b[big_n] = _add_rate_row(rows, era, profile, design_b, Scenario.ROUTED, mc).rate_hz
    if era == "near":
        return [_ahead("near-config-a-advantage", rate_a, rate_b, ROUTER_SWEEP,
                       "A ahead at all matched lengths", "N")]
    return [_ahead("long-config-b-advantage", rate_b, rate_a, ROUTER_SWEEP,
                   "B ahead at all matched lengths", "N")]


def _cutoff_window(rows: list[SweepRow], era: str, profile: ParameterProfile, ell: float,
                   mc: McOptions) -> list[CheckResult]:
    """Window duration behavior: vs segment count, and vs link length at N=1."""
    n_seg = OPERATING_N[era]
    checks: list[CheckResult] = []
    left: dict[int, tuple[float, bool]] = {}
    for big_n in ROUTER_SWEEP:
        design = NetworkDesign(Config.A, ell, n_seg, big_n)
        row = _add_rate_row(rows, era, profile, design, Scenario.ROUTED, mc)
        left[big_n] = (row.tau_s, row.tau_clamped)
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
    return checks


def _fidelity(rows: list[SweepRow], era: str, profile: ParameterProfile, ell: float,
              mc: McOptions) -> list[CheckResult]:
    """Pre-storage pair fidelity vs n, and end-to-end fidelity vs N."""
    from .fidelity import qber, router_pair_werner, werner_to_fidelity

    for n in LINK_SWEEP:
        f = werner_to_fidelity(router_pair_werner(profile, Config.A, n, 0.0))
        rows.append(_row("fidelity-router-pair", era, NetworkDesign(Config.A, ell, n, 1),
                         Scenario.ROUTED, tau_s=0.0, tau_clamped=False, fidelity=f,
                         qber=qber(f)))
    n_seg = OPERATING_N[era]
    end_to_end: dict[int, float] = {}
    for big_n in ROUTER_SWEEP:
        design = NetworkDesign(Config.A, ell, n_seg, big_n)
        row = fidelity_row(era, profile, design)
        end_to_end[big_n] = row.fidelity
        rows.append(row)
    if era == "long":
        return [CheckResult(
            "long-minimum-fidelity", end_to_end[1] >= 0.80,
            f"end-to-end fidelity {end_to_end[1]:.4f} at N=1",
        )]
    bad = [N for N in ROUTER_SWEEP if N >= 2 and not end_to_end[N] < 0.5]
    return [CheckResult(
        "near-useful-range", not bad,
        f"expected sub-0.5 fidelity for N >= 2; above at N={bad}",
    )]


# Each study body appends one era's rows and returns that era's checks.
_STUDY_RUNNERS: dict[Study, Callable[..., list[CheckResult]]] = {
    Study.RATE_VS_LINKS: _rate_vs_links,
    Study.RATE_VS_ROUTERS: _rate_vs_routers,
    Study.CONFIG_COMPARE: _config_compare,
    Study.CUTOFF_WINDOW: _cutoff_window,
    Study.FIDELITY: _fidelity,
}


def run_study(
    study: Study,
    profiles: Sequence[tuple[str, ParameterProfile]],
    mc: McOptions = McOptions(),
) -> tuple[list[SweepRow], list[CheckResult]]:
    """Run one standard study over the given eras, in order; returns (rows, checks).

    Each era's body gets the era's maximum link length; the fidelity study
    closes with the era-independent qber anchor.
    """
    if not isinstance(study, Study):
        raise ValueError(f"study = {study!r} must be a Study")
    for label, _profile in profiles:
        if label not in OPERATING_N:
            raise SweepError(
                f"study runners support eras {sorted(OPERATING_N)}, got {label!r}"
            )
    rows: list[SweepRow] = []
    checks: list[CheckResult] = []
    for era, profile in profiles:
        checks += _STUDY_RUNNERS[study](rows, era, profile, max_link_length(profile), mc)
    if study is Study.FIDELITY:
        from .fidelity import qber

        checks.append(CheckResult(
            "qber-anchor", abs(qber(0.8) - 0.1333) <= 1e-4,
            f"qber(0.8) = {qber(0.8)!r}",
        ))
    return rows, checks


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
    if not isinstance(spec.scenario, Scenario):
        raise SweepError(_scenario_message(spec.scenario))
    if spec.axis not in _AXES:
        raise SweepError(f"unknown sweep axis {spec.axis!r}; expected one of {sorted(_AXES)}")
    if spec.axis == "big_n" and spec.scenario not in ROUTED_SCENARIOS:
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
    """Sweep one axis for one scenario; returns (rows, checks).

    A sweep states no qualitative expectation, so its check list is always
    empty; the pair keeps run_study's shape.
    """
    values = _axis_values(spec)
    axis = spec.axis
    designs = [
        NetworkDesign(
            spec.config,
            value if axis == "ell_km" else spec.ell_km,
            value if axis == "n" else spec.n,
            value if axis == "big_n" else spec.big_n,
            spec.xi,
            spec.epsilon,
        )
        for value in values
    ]
    rows = [rate_row(era, profile, design, spec.scenario, mc=spec.mc)
            for era, profile in spec.profiles for design in designs]
    return rows, []
