"""Hardware parameter profiles for the repeater-chain capacity engine.

A profile bundles every scalar the rate and fidelity models consume: device
efficiencies, storage and gate times, source rates, multiplexed mode counts,
fiber attenuation, and per-stage fidelities. Three built-in eras are shipped
(near, long, ideal); user profiles are plain-text files that override fields
on top of a named base era.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import operator
import os
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Era",
    "ParameterProfile",
    "ParameterValidationError",
    "ProfileParseError",
    "builtin_profile",
    "load_profile",
    "serialize_profile",
    "validate_profile",
]

DEFAULT_DECOHERENCE_RATE_PER_S = 1.0 / 3.0


class ProfileParseError(ValueError):
    """Raised when a profile file does not follow the key = value schema."""


class ParameterValidationError(ValueError):
    """Raised when a parameter value is outside its allowed range."""


class Era(enum.Enum):
    NEAR_TERM = "near"
    LONG_TERM = "long"
    IDEAL = "ideal"


@dataclass(frozen=True)
class ParameterProfile:
    """Immutable set of device parameters for one hardware era.

    Efficiencies (eta_*) are dimensionless in [0, 1], fidelities (f_*) in
    [0.25, 1] so the derived Werner weight is nonnegative, times (t_*) in
    seconds, r_epps in hertz, gamma_* are nonnegative integer mode counts,
    alpha_db_per_km in dB/km.
    """

    eta_nv: float            # spin-photon emission efficiency (stored, unused by the rate model)
    t_nv: float              # router internal memory storage time, s
    t_c13: float             # electron to carbon-13 swap time, s
    eta_c13: float           # electron to carbon-13 swap efficiency
    t_cnot: float            # router CNOT time, s
    eta_qfc_1588: float      # router-to-telecom frequency conversion efficiency
    gamma_t: int             # temporal mode count
    eta_epps: float          # entangled-pair source efficiency
    eta_afc: float           # multimode memory efficiency
    t_afc: float             # multimode memory storage time, s
    r_epps: float            # source repetition rate, Hz
    gamma_f: int             # spectral mode count
    eta_shift: float         # mode-mapping shift and filter efficiency
    eta_bsm: float           # linear-optic Bell measurement efficiency
    eta_det: float           # single-photon detector efficiency
    alpha_db_per_km: float   # fiber attenuation, dB/km
    eta_buff: float          # buffer memory efficiency
    t_buff_opt: float        # buffer optical coherence time, s (stored, unused by the rate model)
    t_buff_spin: float       # buffer spin storage time, s (stored, unused by the rate model)
    eta_map: float           # photon-to-electron mapping efficiency
    eta_pol: float           # time-bin to polarization conversion efficiency
    eta_qfc_637: float       # buffer-to-router wavelength conversion efficiency
    f_epps: float
    f_afc: float
    f_bsm: float
    f_ffsmm: float
    f_buff: float
    f_qfc: float
    f_tb_pol: float
    f_map: float
    f_c13: float
    f_cnot: float
    f_rout: float
    decoherence_rate_per_s: float = DEFAULT_DECOHERENCE_RATE_PER_S

    @functools.cached_property
    def _werner_weights(self):
        """Profile-only Werner stage weights, computed on first use and kept.

        Not a field: equality, hashing, repr and dataclasses.replace ignore it,
        so a replaced profile computes its own.
        """
        from .fidelity import _profile_weights  # fidelity imports this module

        return _profile_weights(self)


_EFFICIENCY_FIELDS = (
    "eta_nv", "eta_c13", "eta_qfc_1588", "eta_epps", "eta_afc", "eta_shift",
    "eta_bsm", "eta_det", "eta_buff", "eta_map", "eta_pol", "eta_qfc_637",
)
_FIDELITY_FIELDS = (
    "f_epps", "f_afc", "f_bsm", "f_ffsmm", "f_buff", "f_qfc", "f_tb_pol",
    "f_map", "f_c13", "f_cnot", "f_rout",
)
_POSITIVE_FIELDS = ("t_nv", "t_c13", "t_cnot", "t_afc", "t_buff_opt", "t_buff_spin", "r_epps")
_NONNEGATIVE_FIELDS = ("alpha_db_per_km", "decoherence_rate_per_s")
_COUNT_FIELDS = ("gamma_t", "gamma_f")

_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(ParameterProfile))
_FIELD_SET = frozenset(_FIELD_NAMES)
# The field values of a profile, in declaration order.
_FIELD_VALUES = operator.attrgetter(*_FIELD_NAMES)

# Long-term fidelities double as the ideal column, which has no published values.
_FID_NEAR = dict(
    f_epps=0.933, f_afc=0.968, f_bsm=0.972, f_ffsmm=0.970, f_buff=0.996,
    f_qfc=0.998, f_tb_pol=0.974, f_map=0.944, f_c13=0.997, f_cnot=0.972,
    f_rout=0.945,
)
_FID_LONG = dict(
    f_epps=0.99, f_afc=0.99, f_bsm=0.99, f_ffsmm=0.99, f_buff=0.999,
    f_qfc=0.999, f_tb_pol=0.99, f_map=0.99, f_c13=0.999, f_cnot=0.99,
    f_rout=0.99,
)

_NEAR = ParameterProfile(
    eta_nv=0.05,  t_nv=1.0,   t_c13=500e-6, eta_c13=0.90,  t_cnot=500e-6,
    eta_qfc_1588=0.43, gamma_t=27,   eta_epps=0.10, eta_afc=0.40, t_afc=100e-6,
    r_epps=1e8,   gamma_f=30,  eta_shift=0.70, eta_bsm=0.50, eta_det=0.95,
    alpha_db_per_km=0.2, eta_buff=0.30, t_buff_opt=30e-9, t_buff_spin=1e-3,
    eta_map=0.06, eta_pol=0.90, eta_qfc_637=0.43,
    **_FID_NEAR,
)
_LONG = ParameterProfile(
    eta_nv=0.40,  t_nv=10.0,  t_c13=100e-6, eta_c13=0.99,  t_cnot=100e-6,
    eta_qfc_1588=0.70, gamma_t=100,  eta_epps=0.10, eta_afc=0.75, t_afc=300e-6,
    r_epps=1e9,   gamma_f=300, eta_shift=0.95, eta_bsm=0.50, eta_det=0.99,
    alpha_db_per_km=0.146, eta_buff=0.90, t_buff_opt=100e-9, t_buff_spin=100e-3,
    eta_map=0.50, eta_pol=0.99, eta_qfc_637=0.70,
    **_FID_LONG,
)
_IDEAL = ParameterProfile(
    eta_nv=1.00,  t_nv=20.0,  t_c13=10e-6,  eta_c13=0.999, t_cnot=10e-6,
    eta_qfc_1588=0.99, gamma_t=1000, eta_epps=0.10, eta_afc=0.99, t_afc=500e-6,
    r_epps=2e9,   gamma_f=3000, eta_shift=0.99, eta_bsm=0.75, eta_det=0.999,
    alpha_db_per_km=0.146, eta_buff=0.99, t_buff_opt=500e-6, t_buff_spin=500e-3,
    eta_map=0.99, eta_pol=0.99, eta_qfc_637=0.99,
    **_FID_LONG,
)

_BUILTIN = {Era.NEAR_TERM: _NEAR, Era.LONG_TERM: _LONG, Era.IDEAL: _IDEAL}


def builtin_profile(era: Era | str) -> ParameterProfile:
    """Return the built-in profile for an era ("near", "long", or "ideal")."""
    try:
        return _BUILTIN[Era(era)]
    except ValueError:
        raise ParameterValidationError(
            f"unknown era {era!r}; expected one of "
            + ", ".join(e.value for e in Era)
        ) from None


def _is_integer(value) -> bool:
    """An int that is not a bool: the test of every integer field's type."""
    return isinstance(value, int) and not isinstance(value, bool)


def _python_scalar(value):
    """The Python scalar a numpy scalar holds; any other value unchanged."""
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(value, numpy.generic):
        return value.item()
    return value


def _real(value):
    """The type rule of a window and of a float design field: the Python scalar a
    numpy scalar holds, then an int or a float but not a bool; None for any other value.
    """
    value = _python_scalar(value)
    return None if isinstance(value, bool) or not isinstance(value, (int, float)) else value


def _window(tau_s, zero_ok: bool = False):
    """A window held to _real's type rule and to > 0, or >= 0 if zero_ok: its Python scalar."""
    tau = tau_s if type(tau_s) is float else _real(tau_s)
    if tau is None or not (tau >= 0 if zero_ok else tau > 0):
        raise ValueError(f"tau_s = {tau_s!r} must be {'>=' if zero_ok else '>'} 0")
    return tau


# Monte Carlo settings are checked here, so McOptions defaults need no montecarlo import.
MAX_SEED = 2**64 - 1
# Never below the host's CPU count, so workers = nproc is always accepted.
MAX_WORKERS = max(256, os.cpu_count() or 1)


def _check_mc_settings(master_seed: int, trials: int, workers: int) -> None:
    """Check the numeric MC settings; raise a ValueError naming the first one out of range."""
    for name, value in (("master_seed", master_seed), ("trials", trials), ("workers", workers)):
        if not _is_integer(value):
            raise ValueError(f"{name} = {value!r} must be an integer")
    if not 0 <= master_seed <= MAX_SEED:
        raise ValueError(f"master_seed = {master_seed!r} outside [0, 2^64)")
    if trials < 1:
        raise ValueError(f"trials = {trials!r} must be >= 1")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers = {workers!r} must be in [1, {MAX_WORKERS}]")


def _check_fidelity(name: str, value: float) -> float:
    """Return value if it is a Bell fidelity in [0.25, 1]; else raise naming the field."""
    if not 0.25 <= value <= 1.0:
        raise ParameterValidationError(f"{name} = {value!r} outside [0.25, 1]")
    return value


def validate_profile(profile: ParameterProfile) -> ParameterProfile:
    """Check every field range; raise ParameterValidationError naming the field."""
    for name in _FIELD_NAMES:
        value = getattr(profile, name)
        if name in _COUNT_FIELDS:
            continue
        if type(value) is not float:
            real = _real(value)
            if real is None:
                raise ParameterValidationError(f"{name} = {value!r} must be an int or a float")
            # load_profile reads back as a float the int that serialize_profile writes
            # (int and float compare exactly, so only an int a float holds comes back equal).
            if isinstance(real, int) and (abs(real) > sys.float_info.max or float(real) != real):
                raise ParameterValidationError(
                    f"{name} = {value!r} must be a value a float holds exactly")
        if not math.isfinite(value):
            raise ParameterValidationError(f"{name} = {value!r} must be finite")
    for name in _EFFICIENCY_FIELDS:
        value = getattr(profile, name)
        if not 0.0 <= value <= 1.0:
            raise ParameterValidationError(f"{name} = {value!r} outside [0, 1]")
    for name in _FIDELITY_FIELDS:
        _check_fidelity(name, getattr(profile, name))
    for name in _POSITIVE_FIELDS:
        value = getattr(profile, name)
        if not value > 0.0:
            raise ParameterValidationError(f"{name} = {value!r} must be > 0")
    for name in _COUNT_FIELDS:
        value = getattr(profile, name)
        if not _is_integer(value) or value < 0:
            raise ParameterValidationError(
                f"{name} = {value!r} must be a nonnegative integer"
            )
    for name in _NONNEGATIVE_FIELDS:
        value = getattr(profile, name)
        if not value >= 0.0:
            raise ParameterValidationError(f"{name} = {value!r} must be >= 0")
    return profile


def _parse_value(key: str, text: str, lineno: int):
    try:
        value = float(text)
    except ValueError:
        raise ProfileParseError(
            f"line {lineno}: value for {key} is not a number: {text!r}"
        ) from None
    if key not in _COUNT_FIELDS:
        return value
    if not math.isfinite(value) or value != int(value):
        raise ParameterValidationError(f"{key} = {text} must be a nonnegative integer")
    return int(value)


def load_profile(path: str | Path) -> ParameterProfile:
    """Load a profile file: `key = value` lines over a mandatory base era.

    Missing keys inherit from the base era profile; unknown keys are rejected;
    the resulting profile is validated before being returned. A UTF-8 byte
    order mark at the start of the file is skipped.
    """
    # splitlines ends a line at \r\n, \r or \n alike, so the bytes need no
    # newline translation; utf-8-sig drops a leading byte order mark. One
    # unbuffered read of the whole file skips the buffer and its tty probe.
    with open(path, "rb", buffering=0) as handle:
        lines = handle.read().decode("utf-8-sig").splitlines()
    base: Era | None = None
    overrides: dict[str, float | int] = {}
    for lineno, raw in enumerate(lines, start=1):
        key, sep, value = raw.partition("#")[0].partition("=")
        key = key.strip()
        value = value.strip()
        if not (key and value):
            if not (sep or key or value):
                continue  # a blank or comment-only line
            raise ProfileParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key == "base":
            if base is not None:
                raise ProfileParseError(f"line {lineno}: duplicate 'base' line")
            try:
                base = Era(value)
            except ValueError:
                raise ProfileParseError(
                    f"line {lineno}: base must be near, long, or ideal, got {value!r}"
                ) from None
            continue
        if key not in _FIELD_SET:
            raise ProfileParseError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ProfileParseError(f"line {lineno}: duplicate key {key!r}")
        overrides[key] = _parse_value(key, value, lineno)
    if base is None:
        raise ProfileParseError("missing mandatory 'base = near|long|ideal' line")
    values = _FIELD_VALUES(_BUILTIN[base])
    if overrides:
        values = [overrides.get(name, value) for name, value in zip(_FIELD_NAMES, values)]
    return validate_profile(ParameterProfile(*values))


def serialize_profile(profile: ParameterProfile) -> str:
    """Render a profile as file text; load_profile inverts it exactly."""
    lines = ["base = near"]
    for name in _FIELD_NAMES:
        lines.append(f"{name} = {_python_scalar(getattr(profile, name))!r}")
    return "\n".join(lines) + "\n"
