"""Capacity and fidelity engine for buffered-router repeater chains.

Closed-form pair rates and end-to-end fidelities for frequency-multiplexed
repeater segments joined by buffered routers, with a seeded Monte Carlo
simulator that validates every closed form.
"""

from .experiments import (
    CSV_HEADER,
    CheckResult,
    McOptions,
    Study,
    SweepError,
    SweepRow,
    SweepSpec,
    rows_to_csv,
    run_custom,
    run_study,
    write_csv,
)
from .fidelity import (
    InternalCheckError,
    WernerReport,
    compose_oracle,
    decohere,
    end_to_end_report,
    fidelity_to_werner,
    qber,
    router_pair_werner,
    werner_to_fidelity,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    McMode,
    floored_attempts,
    floored_window_rate,
    simulate_link,
    simulate_no_buffer,
    simulate_nv_chain,
    simulate_routed,
    simulate_segment,
)
from .network import (
    Config,
    DesignError,
    NetworkDesign,
    ResourceCount,
    TimingReport,
    Violation,
    check_feasibility,
    max_link_length,
    resources,
    timings,
)
from .params import (
    Era,
    ParameterProfile,
    ParameterValidationError,
    ProfileParseError,
    builtin_profile,
    load_profile,
    serialize_profile,
    validate_profile,
)
from .rates import (
    RateReport,
    Scenario,
    attempt_rate,
    fiber_transmittance,
    link_success_prob,
    no_buffer_cutoff_time,
    nv_attempt_rate,
    nv_chain_rate,
    nv_cutoff_time,
    nv_link_success_prob,
    routed_cutoff_time,
    routed_rate,
    routed_rate_no_buffer,
    segment_rate,
    segment_success_prob,
    transfer_efficiency,
)

__version__ = "0.1.0"
