"""Run configuration files.

Plain `key = value` text, one pair per line, `#` starts a comment.  Every
key must be known: a misspelled key is a hard error, never a silent default.
The same schema describes single runs (dissipative or inviscid) and
parameter sweeps: each key names the kinds of run that read it, and
`check_keys` refuses any other key.  A key's default is written once, in
its row of KNOWN_KEYS: the getters fall back to it, and a key without
one is required where it is read.  `render` writes a mapping back in
canonical order so that a resolved configuration can be stored next to its
outputs and re-parsed.
"""

from __future__ import annotations

import math

from . import euler_reference as er
from . import grid_fields as gf
from . import nsf_solver as ns
from . import scenarios
from . import thermo
from .errors import ConfigError

# the kinds of run that read a key, and the two closure commands
_READER = {"nsf": "a dissipative run", "euler": "the inviscid solver", "sweep": "a sweep",
           "thermo-check": "nsflab thermo-check", "coercivity": "nsflab coercivity"}
_RUNS, _DISSIPATIVE, _EVERY_RUN = ("nsf", "euler"), ("nsf", "sweep"), ("nsf", "euler", "sweep")
_GAS, _TRANSPORT = (*_EVERY_RUN, "thermo-check", "coercivity"), (*_DISSIPATIVE, "thermo-check")

# canonical key order for render(); each key, the kinds that read it, its
# default (None: required where it is read) and its meaning
KNOWN_KEYS = (
    ("solver",                 _RUNS,         "nsf",         "nsf or euler"),
    ("gas.name",               _GAS,          "ideal",
     "ideal, or a label for a custom pressure law"),
    ("gas.law",                _GAS,          None,
     "P(Z) expression, needed unless gas.name is ideal"),
    ("gas.S0",                 _GAS,          "0.0",         "entropy normalization constant"),
    ("gas.P_inf",              _GAS,          "0.0",
     "limit of P(Z)/Z^{5/3}, read by the custom law"),
    ("transport.name",         _TRANSPORT,    "default",     "default or sublinear"),
    ("transport.b",            _TRANSPORT,    "0.75",
     "growth exponent for the sublinear family"),
    ("scaling.a",              ("nsf", "coercivity"), None,  "radiation scale"),
    ("scaling.nu",             ("nsf",),      None,          "viscosity scale"),
    ("scaling.omega",          ("nsf",),      None,          "heat-conduction scale"),
    ("scaling.lambda",         ("nsf",),      None,          "velocity damping scale"),
    ("grid.extent",            _EVERY_RUN,    None,
     "box side lengths, one or two floats"),
    ("grid.cells",             _EVERY_RUN,    None,          "cells per axis, one or two ints"),
    ("grid.bc",                _EVERY_RUN,    "slip-wall",   "slip-wall or periodic"),
    ("cfl",                    _EVERY_RUN,    "0.4",         "time-step safety factor"),
    ("t_end",                  _EVERY_RUN,    None,          "final time"),
    ("output.stride",          _EVERY_RUN,    "10",          "steps between stored snapshots"),
    ("floors",                 _DISSIPATIVE,  "1e-12 1e-12",
     "positivity floors for rho and theta, two floats"),
    ("init.name",              _EVERY_RUN,    "acoustic-entropy",
     "uniform, acoustic-entropy, or compressive-pulse"),
    ("init.amplitude",         _EVERY_RUN,    "0.01",        "perturbation amplitude"),
    ("init.gap",               _EVERY_RUN,    "0.0",
     "ill-preparedness offset, of a sweep's runs only"),
    ("sweep.a-values",         ("sweep",),    "1e-2 1e-3 1e-4",
     "radiation scales for the sweep, strictly decreasing"),
    ("sweep.alpha",            ("sweep",),    "0.55",        "nu = a^alpha along the path"),
    ("sweep.beta",             ("sweep",),    "1.2",         "omega = a^beta along the path"),
    ("sweep.gamma",            ("sweep",),    "0.1",         "lambda = a^gamma along the path"),
    ("sweep.reference-factor", ("sweep",),    "4",
     "reference grid refinement over grid.cells"),
    ("sweep.reference-stride", ("sweep",),    "4",           "output stride of the reference run"),
)
_KEY_ORDER = tuple(k for k, _, _, _ in KNOWN_KEYS)
DEFAULTS = {k: default for k, _, default, _ in KNOWN_KEYS}
_KEY_SET = frozenset(_KEY_ORDER)


def parse_text(text: str) -> dict:
    """Parse configuration text into a {key: raw string} mapping."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    unknown = sorted(set(out) - _KEY_SET)
    if unknown:
        raise ConfigError("unknown configuration keys: " + ", ".join(unknown))
    return out


def load_file(path) -> dict:
    """Parse a configuration file; ConfigError when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read configuration file {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"configuration file {path} is not UTF-8 text: {err.reason}") from err
    return parse_text(text)


def keys_read_by(kind: str) -> tuple:
    """The keys, in canonical order, that a run of this kind ("nsf", "euler"
    or "sweep") or the command "thermo-check" or "coercivity" reads."""
    return tuple(key for key, kinds, _, _ in KNOWN_KEYS if kind in kinds)


def check_keys(cfg: dict, kind: str) -> None:
    """ConfigError naming the first key of cfg, in canonical order, that
    a run or command of this kind (see `keys_read_by`) does not read."""
    for key, kinds, _, _ in KNOWN_KEYS:
        if key in cfg and kind not in kinds:
            raise ConfigError(f"{key} does not apply to {_READER[kind]}")


def render(mapping: dict) -> str:
    """Write a mapping back as configuration text in canonical key order."""
    unknown = sorted(set(mapping) - _KEY_SET)
    if unknown:
        raise ConfigError("unknown configuration keys: " + ", ".join(unknown))
    lines = [f"{key} = {mapping[key]}" for key in _KEY_ORDER if key in mapping]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# typed getters


def _get(cfg, key):
    """cfg's value of key, or the key's default in KNOWN_KEYS."""
    raw = cfg.get(key, DEFAULTS[key])
    if raw is None:
        raise ConfigError(f"missing required key {key!r}")
    return raw


def get_float(cfg, key) -> float:
    raw = _get(cfg, key)
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(val):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return val


def get_int(cfg, key) -> int:
    raw = _get(cfg, key)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def get_floats(cfg, key) -> tuple:
    raw = _get(cfg, key)
    try:
        vals = tuple(float(tok) for tok in str(raw).split())
    except ValueError:
        raise ConfigError(f"{key}: expected numbers, got {raw!r}") from None
    if not vals:
        raise ConfigError(f"{key}: expected at least one number")
    return vals


def get_choice(cfg, key, allowed) -> str:
    raw = str(_get(cfg, key))
    if raw not in allowed:
        raise ConfigError(
            f"{key}: expected one of {', '.join(allowed)}; got {raw!r}")
    return raw


# ---------------------------------------------------------------------------
# model builders


def build_gas(cfg: dict) -> thermo.GasModel:
    name = str(_get(cfg, "gas.name"))
    S0 = get_float(cfg, "gas.S0")
    if name == "ideal":
        for key in ("gas.law", "gas.P_inf"):
            if key in cfg:
                raise ConfigError(f"{key} must be omitted when gas.name is ideal")
        return thermo.ideal_gas(S0=S0)
    if "gas.law" not in cfg:
        raise ConfigError(f"gas.name = {name}: a custom gas needs gas.law")
    return thermo.gas_from_expression(
        name, cfg["gas.law"], S0=S0, P_inf=get_float(cfg, "gas.P_inf"))


def build_transport(cfg: dict) -> thermo.TransportModel:
    name = get_choice(cfg, "transport.name", ("default", "sublinear"))
    if name == "default":
        if "transport.b" in cfg:
            raise ConfigError(
                "transport.b applies only to the sublinear family")
        return thermo.default_transport()
    return thermo.sublinear_transport(b=get_float(cfg, "transport.b"))


def build_grid(cfg: dict) -> gf.Grid:
    extents = get_floats(cfg, "grid.extent")
    cells_raw = _get(cfg, "grid.cells")
    try:
        cells = tuple(int(tok) for tok in str(cells_raw).split())
    except ValueError:
        raise ConfigError(
            f"grid.cells: expected integers, got {cells_raw!r}") from None
    if len(extents) != len(cells):
        raise ConfigError(
            f"grid.extent has {len(extents)} entries, grid.cells has {len(cells)}")
    bc = get_choice(cfg, "grid.bc", ("slip-wall", "periodic"))
    return gf.Grid(extents=extents, cells=cells, bc=(bc,) * len(cells))


def build_scaling(cfg: dict) -> thermo.ScalingParams:
    return thermo.ScalingParams(
        a=get_float(cfg, "scaling.a"),
        nu=get_float(cfg, "scaling.nu"),
        omega=get_float(cfg, "scaling.omega"),
        lam=get_float(cfg, "scaling.lambda"),
    )


def build_scenario(cfg: dict, grid: gf.Grid) -> scenarios.Scenario:
    return scenarios.build(
        str(_get(cfg, "init.name")), grid,
        amplitude=get_float(cfg, "init.amplitude"), gap=get_float(cfg, "init.gap"))


def build_floors(cfg: dict) -> tuple:
    """Positivity floors of dissipative runs."""
    floors = get_floats(cfg, "floors")
    if len(floors) != 2:
        raise ConfigError(f"floors: expected two numbers, got {cfg['floors']!r}")
    return floors


def build_run(cfg: dict):
    """Assemble a single run -> (kind, run config, scenario).

    kind is "nsf" or "euler"; the run config is the matching solver's
    configuration object, the scenario supplies the initial data.
    """
    kind = get_choice(cfg, "solver", _RUNS)
    check_keys(cfg, kind)
    gas = build_gas(cfg)
    grid = build_grid(cfg)
    scenario = build_scenario(cfg, grid)
    t_end = get_float(cfg, "t_end")
    cfl = get_float(cfg, "cfl")
    stride = get_int(cfg, "output.stride")
    if kind == "euler":
        run = er.EulerRunConfig(gas=gas, grid=grid, t_end=t_end, cfl=cfl,
                                output_stride=stride)
        return kind, run, scenario
    run = ns.NsfRunConfig(
        gas=gas,
        transport=build_transport(cfg),
        scaling=build_scaling(cfg),
        grid=grid,
        t_end=t_end,
        cfl=cfl,
        output_stride=stride,
        positivity_floor=build_floors(cfg),
    )
    return kind, run, scenario


def describe_keys() -> str:
    """Documentation block for --help and the README: each key's meaning,
    default and readers, then the defaults a sweep lays over the table's
    (`sweep._DEFAULTS`)."""
    from . import sweep  # sweep imports this module

    width = max(len(k) for k in _KEY_ORDER)
    lines = [f"{k.ljust(width)}  {doc}" + ("" if default is None else f" (default {default})")
             + f" [{', '.join(kinds)}]" for k, kinds, default, doc in KNOWN_KEYS]
    return "\n".join(lines + ["a sweep's own defaults: "
                              + ", ".join(f"{k} = {v}" for k, v in sweep._DEFAULTS.items())])
