import dataclasses
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repchain import (
    Config,
    Era,
    NetworkDesign,
    ParameterValidationError,
    ProfileParseError,
    builtin_profile,
    end_to_end_report,
    load_profile,
    serialize_profile,
    validate_profile,
)
from repchain.params import ParameterProfile


def test_builtin_near_values(near):
    assert near.eta_nv == 0.05
    assert near.t_nv == 1.0
    assert near.gamma_t == 27
    assert near.gamma_f == 30
    assert near.r_epps == 1e8
    assert near.t_afc == 100e-6
    assert near.alpha_db_per_km == 0.2
    assert near.eta_det == 0.95
    assert near.eta_buff == 0.3
    assert near.t_buff_opt == 30e-9
    assert near.f_epps == 0.933
    assert near.f_rout == 0.945


def test_builtin_long_values(long_term):
    assert long_term.eta_nv == 0.40
    assert long_term.t_nv == 10.0
    assert long_term.gamma_t == 100
    assert long_term.gamma_f == 300
    assert long_term.r_epps == 1e9
    assert long_term.t_afc == 300e-6
    assert long_term.alpha_db_per_km == 0.146
    assert long_term.eta_qfc_1588 == 0.70
    assert long_term.f_epps == 0.99
    assert long_term.f_c13 == 0.999


def test_builtin_ideal_values(ideal, long_term):
    assert ideal.eta_nv == 1.0
    assert ideal.t_nv == 20.0
    assert ideal.gamma_t == 1000
    assert ideal.gamma_f == 3000
    assert ideal.r_epps == 2e9
    assert ideal.eta_bsm == 0.75
    assert ideal.eta_afc == 0.99
    assert ideal.alpha_db_per_km == 0.146
    # fidelity budget identical to the long-term era
    for name in ("f_epps", "f_afc", "f_bsm", "f_buff", "f_c13", "f_rout"):
        assert getattr(ideal, name) == getattr(long_term, name)


def test_default_decoherence_rate(near):
    assert near.decoherence_rate_per_s == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_builtin_profile_accepts_era_enum():
    assert builtin_profile(Era.NEAR_TERM) == builtin_profile("near")
    with pytest.raises(ValueError):
        builtin_profile("someday")


def test_builtins_pass_validation():
    for era in ("near", "long", "ideal"):
        validate_profile(builtin_profile(era))


_OUT_OF_RANGE = [
    ("eta_bsm", 1.5, "eta_bsm = 1.5 outside [0, 1]"),
    ("eta_det", -0.1, "eta_det = -0.1 outside [0, 1]"),
    ("f_epps", 0.2, "f_epps = 0.2 outside [0.25, 1]"),
    ("f_rout", 1.01, "f_rout = 1.01 outside [0.25, 1]"),
    ("t_afc", 0.0, "t_afc = 0.0 must be > 0"),
    ("t_nv", -1.0, "t_nv = -1.0 must be > 0"),
    ("r_epps", 0.0, "r_epps = 0.0 must be > 0"),
    ("alpha_db_per_km", -0.2, "alpha_db_per_km = -0.2 must be >= 0"),
    ("decoherence_rate_per_s", -1.0, "decoherence_rate_per_s = -1.0 must be >= 0"),
]


@pytest.mark.parametrize("field,value,message", _OUT_OF_RANGE,
                         ids=[f"{field}-{value}" for field, value, _ in _OUT_OF_RANGE])
def test_validate_rejects_out_of_range(near, field, value, message):
    bad = dataclasses.replace(near, **{field: value})
    with pytest.raises(ParameterValidationError) as info:
        validate_profile(bad)
    assert str(info.value) == message


def test_validate_rejects_non_finite_floats(near):
    float_fields = [f.name for f in dataclasses.fields(ParameterProfile) if f.type == "float"]
    assert "t_nv" in float_fields and "gamma_t" not in float_fields
    for field in float_fields:
        for value in (math.nan, math.inf, -math.inf):
            bad = dataclasses.replace(near, **{field: value})
            with pytest.raises(ParameterValidationError, match=f"{field} = .* must be finite"):
                validate_profile(bad)


def test_load_profile_rejects_non_finite_value(tmp_path):
    path = tmp_path / "inf.profile"
    path.write_text("base = near\nt_nv = inf\n", encoding="utf-8")
    with pytest.raises(ParameterValidationError, match="t_nv"):
        load_profile(path)


@pytest.mark.parametrize("field, value", [("gamma_f", 2.5), ("gamma_t", True), ("gamma_f", False)])
def test_validate_rejects_fractional_count(near, field, value):
    # A bool is an int to isinstance, but no mode count: the one integer rule refuses it.
    bad = dataclasses.replace(near, **{field: value})
    with pytest.raises(ParameterValidationError,
                       match=re.escape(f"{field} = {value!r} must be a nonnegative integer")):
        validate_profile(bad)


_NOT_A_NUMBER = [True, False, np.True_, Decimal("0.4"), Fraction(2, 5), "0.4", None, 0.4j]


@pytest.mark.parametrize("value", _NOT_A_NUMBER, ids=[repr(v) for v in _NOT_A_NUMBER])
@pytest.mark.parametrize("field", ["eta_afc", "t_nv", "f_rout", "decoherence_rate_per_s"])
def test_validate_names_a_float_field_that_is_not_an_int_or_a_float(near, field, value):
    # The window type rule: a bool, a Decimal, a Fraction or a str is no field value,
    # so serialize_profile never writes a value that load_profile cannot read back.
    bad = dataclasses.replace(near, **{field: value})
    with pytest.raises(ParameterValidationError) as info:
        validate_profile(bad)
    assert str(info.value) == f"{field} = {value!r} must be an int or a float"


_NOT_A_FLOAT = [10**20 + 1, 10**400, -(10**400), 2**1024 - 1, np.int64(2**53 + 1)]


@pytest.mark.parametrize("value", _NOT_A_FLOAT, ids=["1e20+1", "1e400", "-1e400", "2^1024-1",
                                                     "int64-2^53+1"])
@pytest.mark.parametrize("field", ["r_epps", "eta_afc", "t_nv", "decoherence_rate_per_s"])
def test_validate_names_a_float_field_that_a_float_does_not_hold(near, field, value):
    # serialize_profile writes an int field value as it is, and load_profile reads a
    # float back: an int a float does not hold would come back as another profile,
    # and one past float's range would raise a bare OverflowError.
    bad = dataclasses.replace(near, **{field: value})
    with pytest.raises(ParameterValidationError) as info:
        validate_profile(bad)
    assert str(info.value) == f"{field} = {value!r} must be a value a float holds exactly"


@pytest.mark.parametrize("value", [10**8, 2**53, 2**1024 - 2**971, np.int64(10**8)],
                         ids=["1e8", "2^53", "float-max", "int64-1e8"])
def test_an_int_float_field_that_a_float_holds_round_trips(tmp_path, near, value):
    profile = validate_profile(dataclasses.replace(near, r_epps=value))
    path = tmp_path / "int.profile"
    path.write_text(serialize_profile(profile), encoding="utf-8")
    assert load_profile(path) == profile


@pytest.mark.parametrize("scalar", [np.float64, np.float32])
def test_serialize_writes_the_python_scalar_a_numpy_field_holds(tmp_path, near, scalar):
    profile = validate_profile(dataclasses.replace(near, eta_afc=scalar(0.4), t_nv=scalar(2.5)))
    held = dataclasses.replace(near, eta_afc=scalar(0.4).item(), t_nv=2.5)
    text = serialize_profile(profile)
    assert text == serialize_profile(held)
    path = tmp_path / "numpy.profile"
    path.write_text(text, encoding="utf-8")
    loaded = load_profile(path)
    assert loaded == held == profile
    assert type(loaded.eta_afc) is float and type(loaded.t_nv) is float


def test_validate_accepts_boundary_values(near):
    ok = dataclasses.replace(near, eta_bsm=0.0, eta_det=1.0, f_epps=0.25, f_rout=1.0)
    validate_profile(ok)


def test_serialize_round_trip(tmp_path, long_term):
    path = tmp_path / "long_copy.profile"
    path.write_text(serialize_profile(long_term), encoding="utf-8")
    loaded = load_profile(path)
    for field in dataclasses.fields(ParameterProfile):
        assert getattr(loaded, field.name) == getattr(long_term, field.name), field.name


def test_serialize_emits_every_field(near):
    text = serialize_profile(near)
    keys = {line.split("=")[0].strip() for line in text.splitlines() if line.strip()}
    expected = {f.name for f in dataclasses.fields(ParameterProfile)} | {"base"}
    assert keys == expected


def test_load_profile_overrides(tmp_path, long_term):
    path = tmp_path / "custom.profile"
    path.write_text(
        "# tweaked swap success\n"
        "base = long\n"
        "\n"
        "eta_bsm = 0.6\n"
        "gamma_f = 400   # more spectral modes\n",
        encoding="utf-8",
    )
    prof = load_profile(path)
    assert prof.eta_bsm == 0.6
    assert prof.gamma_f == 400
    assert prof.eta_afc == long_term.eta_afc
    assert prof.t_nv == long_term.t_nv


def test_load_profile_requires_base(tmp_path):
    path = tmp_path / "nobase.profile"
    path.write_text("eta_bsm = 0.6\n", encoding="utf-8")
    with pytest.raises(ProfileParseError, match="base"):
        load_profile(path)


def test_load_profile_rejects_unknown_key(tmp_path):
    path = tmp_path / "unknown.profile"
    path.write_text("base = near\neta_warp = 0.9\n", encoding="utf-8")
    with pytest.raises(ProfileParseError, match="eta_warp"):
        load_profile(path)


def test_load_profile_rejects_duplicate_key(tmp_path):
    path = tmp_path / "dup.profile"
    path.write_text("base = near\neta_bsm = 0.5\neta_bsm = 0.6\n", encoding="utf-8")
    with pytest.raises(ProfileParseError, match="eta_bsm"):
        load_profile(path)


def test_load_profile_reports_line_number(tmp_path):
    path = tmp_path / "broken.profile"
    path.write_text("base = near\nnot a key value line\n", encoding="utf-8")
    with pytest.raises(ProfileParseError, match="line 2"):
        load_profile(path)


def test_load_profile_validates_result(tmp_path):
    path = tmp_path / "bad.profile"
    path.write_text("base = near\neta_bsm = 1.7\n", encoding="utf-8")
    with pytest.raises(ParameterValidationError, match="eta_bsm"):
        load_profile(path)


def test_load_profile_rejects_fractional_count(tmp_path):
    path = tmp_path / "frac.profile"
    path.write_text("base = near\ngamma_t = 27.5\n", encoding="utf-8")
    with pytest.raises(ParameterValidationError, match="gamma_t"):
        load_profile(path)


# Each malformed file and the exception it gives, message and line number included.
_MALFORMED = [
    ("base = near\nnot a key value line\n", ProfileParseError,
     "line 2: expected 'key = value', got 'not a key value line'"),
    ("base = near\n= 0.5\n", ProfileParseError, "line 2: expected 'key = value', got '= 0.5'"),
    ("base = near\n=\n", ProfileParseError, "line 2: expected 'key = value', got '='"),
    ("base = near\neta_bsm =\n", ProfileParseError,
     "line 2: expected 'key = value', got 'eta_bsm ='"),
    ("base = near\neta_bsm = # only a comment\n", ProfileParseError,
     "line 2: expected 'key = value', got 'eta_bsm = # only a comment'"),
    ("base = near\nbase = long\n", ProfileParseError, "line 2: duplicate 'base' line"),
    ("base = near\nbase = someday\n", ProfileParseError, "line 2: duplicate 'base' line"),
    ("base = someday\n", ProfileParseError,
     "line 1: base must be near, long, or ideal, got 'someday'"),
    ("eta_bsm = 0.6\n", ProfileParseError, "missing mandatory 'base = near|long|ideal' line"),
    ("", ProfileParseError, "missing mandatory 'base = near|long|ideal' line"),
    ("# only = a comment\n\n", ProfileParseError,
     "missing mandatory 'base = near|long|ideal' line"),
    ("base = near\neta_warp = 0.9\n", ProfileParseError, "line 2: unknown key 'eta_warp'"),
    ("base = near\neta_bsm = 0.6\nBASE = long\n", ProfileParseError,
     "line 3: unknown key 'BASE'"),
    ("base = near\neta_bsm = 0.5\neta_bsm = 0.6\n", ProfileParseError,
     "line 3: duplicate key 'eta_bsm'"),
    ("base = near\neta_bsm = 0.5\neta_bsm = bad\n", ProfileParseError,
     "line 3: duplicate key 'eta_bsm'"),
    ("base = near\neta_bsm = high\n", ProfileParseError,
     "line 2: value for eta_bsm is not a number: 'high'"),
    ("base = near\neta_bsm = 0.5 = 3\n", ProfileParseError,
     "line 2: value for eta_bsm is not a number: '0.5 = 3'"),
    ("base = near\ngamma_t = many\n", ProfileParseError,
     "line 2: value for gamma_t is not a number: 'many'"),
    ("base = near\ngamma_t = 27.5\n", ParameterValidationError,
     "gamma_t = 27.5 must be a nonnegative integer"),
    ("base = near\ngamma_t = -3\n", ParameterValidationError,
     "gamma_t = -3 must be a nonnegative integer"),
    ("base = near\ngamma_f = inf\n", ParameterValidationError,
     "gamma_f = inf must be a nonnegative integer"),
    ("base = near\neta_bsm = 1.7\n", ParameterValidationError, "eta_bsm = 1.7 outside [0, 1]"),
    ("\n# c\nbase = near\n\nbogus\n", ProfileParseError,
     "line 5: expected 'key = value', got 'bogus'"),
    ("base = near\r\nbroken line\r\n", ProfileParseError,
     "line 2: expected 'key = value', got 'broken line'"),
    # A form feed ends a line, as str.splitlines has it.
    ("base = near\x0ceta_bsm = x\n", ProfileParseError,
     "line 2: value for eta_bsm is not a number: 'x'"),
]


@pytest.mark.parametrize("text, error, message", _MALFORMED,
                         ids=[f"case{i}" for i in range(len(_MALFORMED))])
def test_load_profile_rejects_malformed_file(tmp_path, text, error, message):
    path = tmp_path / "bad.profile"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(error) as info:
        load_profile(path)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("text", [
    "# lab tweak = none\nbase = long   # inherit the long era\n\n  \t\neta_bsm=0.6#x\n"
    "  gamma_f =   400  \n",
    "base = long\r\neta_bsm = 0.6\r\n\r\ngamma_f = 4e2\r\n",
    "﻿base = long\neta_bsm = 0.6\ngamma_f = 400\n",
], ids=["comments-and-blank-lines", "crlf", "bom"])
def test_load_profile_reads_comments_blank_lines_crlf_and_bom(tmp_path, long_term, text):
    path = tmp_path / "tweak.profile"
    path.write_bytes(text.encode("utf-8"))
    prof = load_profile(path)
    assert prof == dataclasses.replace(long_term, eta_bsm=0.6, gamma_f=400)
    assert type(prof.gamma_f) is int


def test_load_profile_accepts_utf8_bom(tmp_path, near):
    path = tmp_path / "bom.profile"
    path.write_bytes(b"\xef\xbb\xbfbase = near\neta_bsm = 0.4\n")
    assert load_profile(path) == dataclasses.replace(near, eta_bsm=0.4)


def test_load_profile_starts_from_an_unused_builtin(tmp_path, near):
    # The built-in era may carry memoized weights; a loaded profile is built from fields only.
    end_to_end_report(near, NetworkDesign(Config.A, 20.0, 1, 2), 0.1)
    path = tmp_path / "plain.profile"
    path.write_text("base = near\n", encoding="utf-8")
    assert load_profile(path) == near


_positive = st.floats(1e-9, 1e9, allow_nan=False)


@st.composite
def _any_valid_profile(draw):
    values = {}
    for field in dataclasses.fields(ParameterProfile):
        name = field.name
        if name.startswith("eta_"):
            values[name] = draw(st.floats(0.0, 1.0))
        elif name.startswith("f_"):
            values[name] = draw(st.floats(0.25, 1.0))
        elif name.startswith("gamma_"):
            values[name] = draw(st.integers(0, 10**6))
        elif name in ("alpha_db_per_km", "decoherence_rate_per_s"):
            values[name] = draw(st.floats(0.0, 10.0))
        else:
            values[name] = draw(_positive)
    return ParameterProfile(**values)


@settings(max_examples=100, deadline=None)
@given(profile=_any_valid_profile())
def test_serialize_then_load_is_identity(tmp_path_factory, profile):
    path = tmp_path_factory.mktemp("round") / "profile.txt"
    path.write_text(serialize_profile(profile), encoding="utf-8")
    loaded = load_profile(path)
    assert loaded == profile
    assert [type(getattr(loaded, f.name)) for f in dataclasses.fields(ParameterProfile)] \
        == [type(getattr(profile, f.name)) for f in dataclasses.fields(ParameterProfile)]
