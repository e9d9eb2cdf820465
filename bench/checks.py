"""Output checks: recorded reference, finiteness, fidelity oracle, MC agreement.

Every check returns a list of problem strings; an operation whose output has
any problem counts as failed in the benchmark's error rate.
"""

from __future__ import annotations

import math

from repchain import fidelity, montecarlo, network, rates
from repchain.experiments import CSV_HEADER
from repchain.montecarlo import McMode
from repchain.network import Config, NetworkDesign

COLUMNS = tuple(CSV_HEADER.split(","))
NUMERIC = frozenset(("ell_km", "total_km", "tau_s", "rate_hz", "fidelity", "qber",
                     "mc_rate_hz", "mc_std_error"))
MC_COLUMNS = frozenset(("mc_rate_hz", "mc_std_error", "seed"))

REL_TOL = 1e-12
ORACLE_TOL = 1e-12
# An MC estimate fails when its two-sided p-value under the floored closed
# form is below P_FLOOR; with many expected successes and failures this is
# |z| > Z_BOUND under the null variance, otherwise an exact binomial tail.
Z_BOUND = 6.0
P_FLOOR = 2e-9
NORMAL_MIN_VARIANCE = 30.0

SCENARIO_MODE = {
    "segment": McMode.MICRO_SEGMENT,
    "nv-chain": McMode.WINDOW_NV,
    "routed": McMode.WINDOW_ROUTED,
    "routed-nobuffer": McMode.WINDOW_NO_BUFFER,
}


def parse_csv(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("CSV header missing or changed")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            raise ValueError(f"row has {len(cells)} cells, expected {len(COLUMNS)}: {line!r}")
        rows.append(dict(zip(COLUMNS, cells)))
    return rows


def num(row: dict[str, str], column: str) -> float | None:
    cell = row[column]
    return None if cell == "" else float(cell)


def finite_problems(rows: list[dict[str, str]]) -> list[str]:
    problems = []
    for i, row in enumerate(rows):
        for column in NUMERIC:
            value = num(row, column)
            if value is not None and not math.isfinite(value):
                problems.append(f"row {i}: {column} = {row[column]}")
    return problems


def reference_problems(
    rows: list[dict[str, str]], reference: list[str], skip=frozenset(("era",)) | MC_COLUMNS,
) -> list[str]:
    """Compare rows with recorded CSV lines: numbers at rel 1e-12, text exactly."""
    if len(rows) != len(reference):
        return [f"{len(rows)} rows, reference has {len(reference)}"]
    problems = []
    for i, (row, line) in enumerate(zip(rows, reference)):
        expected = dict(zip(COLUMNS, line.split(",")))
        for column in COLUMNS:
            if column in skip:
                continue
            got, want = row[column], expected[column]
            if column in NUMERIC and got and want:
                if not math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=0.0):
                    problems.append(f"row {i}: {column} {got} != reference {want}")
            elif got != want:
                problems.append(f"row {i}: {column} {got!r} != reference {want!r}")
    return problems


def oracle_problems(row: dict[str, str], profile) -> list[str]:
    """A fidelity row against the explicit density-matrix replay."""
    tau = num(row, "tau_s") or 0.0
    n = int(row["n"])
    big_n = int(row["N"]) if row["N"] else 1
    matrix = fidelity.compose_oracle(
        fidelity.profile_stage_fidelities(profile), tau, n, big_n, Config(row["config"]),
        decoherence_rate_per_s=profile.decoherence_rate_per_s,
    )
    scalar = num(row, "fidelity")
    if abs(scalar - matrix) > ORACLE_TOL:
        return [f"fidelity {scalar!r} vs oracle {matrix!r} (n={n}, N={big_n}, tau={tau!r})"]
    return []


def window_law(mode: McMode, profile, design: NetworkDesign, tau_s: float) -> tuple[float, int, int]:
    """(per-attempt probability, floored attempts, stations) of a window simulator."""
    t = network.timings(design, profile)
    if mode is McMode.WINDOW_ROUTED:
        k = montecarlo.floored_attempts(rates.attempt_rate(profile), tau_s - t.t_trans)
        return rates.segment_success_prob(profile, design), k, design.big_n
    if mode is McMode.WINDOW_NV:
        k = montecarlo.floored_attempts(
            rates.nv_attempt_rate(design.ell_km), tau_s / 2.0 - t.t_trans_tilde)
        return rates.nv_link_success_prob(profile, design.ell_km), k, design.n
    if mode is McMode.WINDOW_NO_BUFFER:
        k = montecarlo.floored_attempts(rates.attempt_rate(profile), tau_s / 2.0 - t.t_trans)
        return rates.segment_success_prob(profile, design, include_buffer=False), k, design.big_n
    raise ValueError(f"{mode.value} has no window")


def draw_path(mode: McMode, profile, design: NetworkDesign | None, tau_s) -> tuple[str, float]:
    """(draw path, draws per trial) a simulator takes, computed from stations * k.

    micro-link needs no design and micro modes no window.
    """
    if mode is McMode.MICRO_LINK:
        return "draw", 3.0                       # mode binomial + two retrieval uniforms
    if mode is McMode.MICRO_SEGMENT:
        return "draw", 4.0 * design.n + 1.0      # 3 per link, n-1 swaps, 2 transfers
    p, k, stations = window_law(mode, profile, design, tau_s)
    if k <= 0 or p <= 0.0 or p >= 1.0:
        return "k0", 0.0                         # the chunk kernel returns before drawing
    if stations * k <= montecarlo.PER_ATTEMPT_DRAW_LIMIT:
        return "per-attempt", float(stations * k)
    return "geometric", float(stations)


def mc_reference(mode: McMode, profile, design: NetworkDesign, tau_s: float | None) -> tuple[float, float]:
    """(per-trial success probability, scale from probability to reported mean).

    Window modes use floored_window_rate, the simulators' own discretization.
    """
    if mode is McMode.MICRO_LINK:
        return rates.link_success_prob(profile, design.ell_km), 1.0
    if mode is McMode.MICRO_SEGMENT:
        return rates.segment_success_prob(profile, design), 1.0
    p, k, stations = window_law(mode, profile, design, tau_s)
    return montecarlo.floored_window_rate(p, k, stations, tau_s) * tau_s, 1.0 / tau_s


def _log_pmf(j: int, n: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(p) + (n - j) * math.log1p(-p))


def _tail(x: int, n: int, p: float, upper: bool) -> float:
    """P(X >= x) if upper else P(X <= x), X ~ Binomial(n, p), summed outward."""
    total = 0.0
    j = x
    while 0 <= j <= n:
        term = math.exp(_log_pmf(j, n, p))
        total += term
        if term < 1e-300 or (total > 0 and term < total * 1e-17):
            break
        j = j + 1 if upper else j - 1
    return min(total, 1.0)


def binomial_problem(successes: int, trials: int, p: float) -> str | None:
    """None when `successes` of `trials` is plausible under probability p."""
    if p <= 0.0 or p >= 1.0:
        expected = 0 if p <= 0.0 else trials
        return None if successes == expected else f"{successes}/{trials} with p = {p!r}"
    variance = trials * p * (1.0 - p)
    if variance >= NORMAL_MIN_VARIANCE:
        z = (successes - trials * p) / math.sqrt(variance)
        return None if abs(z) <= Z_BOUND else f"|z| = {abs(z):.2f} > {Z_BOUND}"
    mean = trials * p
    tail = _tail(successes, trials, p, upper=successes >= mean)
    if 2.0 * tail < P_FLOOR:
        return f"{successes}/{trials} has two-sided p-value {2.0 * tail:.3g} (p = {p!r})"
    return None


def mc_problems(mode: McMode, profile, design, tau_s, mean: float, trials: int) -> list[str]:
    """An MC estimate against its closed-form reference."""
    p, scale = mc_reference(mode, profile, design, tau_s)
    successes = round(mean / scale * trials)
    problem = binomial_problem(successes, trials, p)
    return [f"{mode.value}: {problem}"] if problem else []
