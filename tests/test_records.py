"""Computed result records are named tuples: immutable, hashable, equal by value."""

import pytest

from repchain import (
    CheckResult,
    Config,
    McEstimate,
    NetworkDesign,
    Scenario,
    builtin_profile,
    end_to_end_report,
    max_link_length,
    routed_rate,
    timings,
)
from repchain.experiments import rate_row
from repchain.rates import window_law

NEAR = builtin_profile("near")
DESIGN = NetworkDesign(Config.A, max_link_length(NEAR), 1, 2)

# (record, a field, a value that differs from the record's own)
RECORDS = [
    (rate_row("near", NEAR, DESIGN, Scenario.ROUTED), "era", "long"),
    (CheckResult("qber-anchor", True), "passed", False),
    (routed_rate(NEAR, DESIGN), "rate_hz", -1.0),
    (window_law(Scenario.ROUTED, NEAR, DESIGN), "stations", 7),
    (timings(DESIGN, NEAR), "t_rt", -1.0),
    (end_to_end_report(NEAR, DESIGN, 0.01), "tau_s", 0.5),
    (McEstimate(0.25, 0.01, 100, 3), "seed", 4),
]


@pytest.mark.parametrize("record, field, value", RECORDS,
                         ids=[type(record).__name__ for record, _, _ in RECORDS])
def test_result_record_contract(record, field, value):
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert hash(record) == hash(type(record)(*record))
    assert record == type(record)(**record._asdict())
    changed = record._replace(**{field: value})
    assert getattr(changed, field) == value
    assert changed != record
    assert changed._replace(**{field: getattr(record, field)}) == record
