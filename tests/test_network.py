import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from repchain import (
    Config,
    DesignError,
    NetworkDesign,
    max_link_length,
    timings,
)


def test_max_link_length(near, long_term, ideal):
    assert max_link_length(near) == pytest.approx(20.0, rel=1e-12)
    assert max_link_length(long_term) == pytest.approx(60.0, rel=1e-12)
    assert max_link_length(ideal) == pytest.approx(100.0, rel=1e-12)


def test_timings_near_single_link(near):
    t = timings(NetworkDesign(Config.A, 20.0, 1, 1), near)
    assert t.t_rt == pytest.approx(1e-4, rel=1e-12)
    assert t.t_arc == pytest.approx(1e-4, rel=1e-12)
    assert t.t_trans == pytest.approx(0.0011, rel=1e-12)
    assert t.t_trans_tilde == pytest.approx(0.001, rel=1e-12)


def test_timings_long_two_links(long_term):
    ell = max_link_length(long_term)
    t = timings(NetworkDesign(Config.A, ell, 2, 1), long_term)
    assert t.t_rt == pytest.approx(3e-4, rel=1e-12)
    assert t.t_arc == pytest.approx(6e-4, rel=1e-12)
    assert t.t_trans == pytest.approx(8e-4, rel=1e-12)
    assert t.t_trans_tilde == pytest.approx(2e-4, rel=1e-12)


def test_timings_scale_with_length(near):
    short = timings(NetworkDesign(Config.A, 10.0, 2, 1), near)
    longer = timings(NetworkDesign(Config.A, 30.0, 2, 1), near)
    assert longer.t_rt > short.t_rt
    assert longer.t_arc > short.t_arc
    assert longer.t_trans > short.t_trans


@pytest.mark.parametrize("kwargs", [
    dict(ell_km=0.0),
    dict(ell_km=-3.0),
    dict(n=0),
    dict(big_n=0),
    dict(xi=1),
    dict(epsilon=0.0),
    dict(epsilon=1.0),
    dict(ell_km=1e308, n=2),    # total length big_n * n * ell_km overflows
])
def test_design_validation(kwargs):
    base = dict(config=Config.A, ell_km=20.0, n=1, big_n=1)
    base.update(kwargs)
    with pytest.raises(DesignError):
        NetworkDesign(**base)


def test_design_config_b_requires_short_segments():
    with pytest.raises(DesignError):
        NetworkDesign(Config.B, 10.0, 3, 1, xi=2)
    NetworkDesign(Config.B, 10.0, 2, 1, xi=2)


# The construction contract of NetworkDesign: every check with its exact
# message, the frozen-dataclass surface, and numpy scalars stored as Python ones.
_DESIGN_ERRORS = [
    (dict(ell_km=math.nan), "ell_km = nan must be finite and > 0"),
    (dict(ell_km=math.inf), "ell_km = inf must be finite and > 0"),
    (dict(ell_km=0.0), "ell_km = 0.0 must be finite and > 0"),
    (dict(ell_km=-3.0), "ell_km = -3.0 must be finite and > 0"),
    (dict(n=0), "n = 0 must be >= 1"),
    (dict(big_n=0), "big_n = 0 must be >= 1"),
    (dict(xi=1), "xi = 1 must be >= 2"),
    (dict(epsilon=0.0), "epsilon = 0.0 must lie in (0, 1)"),
    (dict(epsilon=1.0), "epsilon = 1.0 must lie in (0, 1)"),
    (dict(epsilon=math.nan), "epsilon = nan must lie in (0, 1)"),
    (dict(config="A"), "config = 'A' must be a Config"),
    (dict(config=Config.B, n=3),
     "configuration B allows at most xi = 2 links per segment, got n = 3"),
    (dict(ell_km=1e308, n=2),
     "ell_km = 1e+308 over big_n * n = 2 links gives a non-finite total length"),
    # Integer fields take an int (or a numpy integer), never a float or a bool.
    (dict(n=2.5), "n = 2.5 must be an integer"),
    (dict(n=True, big_n=True), "n = True must be an integer"),
    (dict(big_n=2.0), "big_n = 2.0 must be an integer"),
    (dict(big_n=True), "big_n = True must be an integer"),
    (dict(xi=3.0), "xi = 3.0 must be an integer"),
    (dict(xi=False), "xi = False must be an integer"),
    # Float fields take an int or a float (or a numpy one), never a bool, a Fraction or a Decimal.
    (dict(ell_km=True), "ell_km = True must be an int or a float"),
    (dict(ell_km=Fraction(41, 2)), "ell_km = Fraction(41, 2) must be an int or a float"),
    (dict(ell_km=Decimal("20.5")), "ell_km = Decimal('20.5') must be an int or a float"),
    (dict(epsilon=True), "epsilon = True must be an int or a float"),
    (dict(epsilon=Fraction(1, 20)), "epsilon = Fraction(1, 20) must be an int or a float"),
    (dict(epsilon=Decimal("0.05")), "epsilon = Decimal('0.05') must be an int or a float"),
]


@pytest.mark.parametrize("kwargs, message", _DESIGN_ERRORS,
                         ids=[message.split(" ")[0] + f"-{i}"
                              for i, (_, message) in enumerate(_DESIGN_ERRORS)])
def test_design_error_names_the_field(kwargs, message):
    base = dict(config=Config.A, ell_km=20.0, n=1, big_n=1)
    base.update(kwargs)
    with pytest.raises(DesignError) as info:
        NetworkDesign(**base)
    assert str(info.value) == message


def test_design_is_frozen():
    design = NetworkDesign(Config.A, 20.0, 1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        design.n = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        del design.ell_km
    assert design.n == 1 and design.ell_km == 20.0


def test_design_dataclass_surface():
    design = NetworkDesign(Config.A, 20.0, 2, 3)
    assert [(f.name, f.default) for f in dataclasses.fields(NetworkDesign)] == [
        ("config", dataclasses.MISSING), ("ell_km", dataclasses.MISSING),
        ("n", dataclasses.MISSING), ("big_n", dataclasses.MISSING),
        ("xi", 2), ("epsilon", 0.05),
    ]
    assert repr(design) == (
        "NetworkDesign(config=<Config.A: 'A'>, ell_km=20.0, n=2, big_n=3, xi=2, epsilon=0.05)")
    moved = dataclasses.replace(design, big_n=5, epsilon=0.1)
    assert moved == NetworkDesign(Config.A, 20.0, 2, 5, 2, 0.1)
    assert dataclasses.replace(design) == design
    with pytest.raises(DesignError, match="n = 0 must be >= 1"):
        dataclasses.replace(design, n=0)
    twin = NetworkDesign(Config.A, 20.0, 2, 3)
    assert design == twin and hash(design) == hash(twin)
    assert design != moved
    assert design != NetworkDesign(Config.B, 20.0, 2, 3)
    assert len({design, twin, moved}) == 2
    assert dataclasses.astuple(design) == (Config.A, 20.0, 2, 3, 2, 0.05)


def test_design_positional_keyword_and_default_forms_agree():
    forms = [
        NetworkDesign(Config.B, 10.0, 2, 4),
        NetworkDesign(Config.B, 10.0, 2, 4, 2, 0.05),
        NetworkDesign(Config.B, 10.0, 2, 4, xi=2, epsilon=0.05),
        NetworkDesign(config=Config.B, ell_km=10.0, n=2, big_n=4),
        NetworkDesign(epsilon=0.05, xi=2, big_n=4, n=2, ell_km=10.0, config=Config.B),
    ]
    assert all(form == forms[0] for form in forms)
    assert len({hash(form) for form in forms}) == 1
    with pytest.raises(TypeError):
        NetworkDesign(Config.A, 20.0, 1)
    with pytest.raises(TypeError):
        NetworkDesign(Config.A, 20.0, 1, 1, 2, 0.05, 7)


def test_design_stores_numpy_scalars_as_python_scalars():
    np = pytest.importorskip("numpy")
    design = NetworkDesign(Config.A, np.float64(20.0), np.int64(2), np.int32(3),
                           np.int64(4), np.float64(0.05))
    assert design == NetworkDesign(Config.A, 20.0, 2, 3, 4, 0.05)
    assert [type(getattr(design, name)) for name in ("ell_km", "n", "big_n", "xi", "epsilon")] \
        == [float, int, int, int, float]
    with pytest.raises(DesignError, match="n = 0 must be >= 1"):
        NetworkDesign(Config.A, 20.0, np.int64(0), 1)
    with pytest.raises(DesignError, match="big_n = True must be an integer"):
        NetworkDesign(Config.A, 20.0, 1, np.bool_(True))
    with pytest.raises(DesignError, match="ell_km = True must be an int or a float"):
        NetworkDesign(Config.A, np.bool_(True), 1, 2)
