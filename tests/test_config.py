import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nsflab import config as cfgmod
from nsflab import sweep as sweepmod
from nsflab.errors import ConfigError

NSF_TEXT = """\
# a complete dissipative run
solver = nsf
gas.name = ideal
scaling.a = 0.01          # radiation
scaling.nu = 0.005
scaling.omega = 0.001
scaling.lambda = 0.2

grid.extent = 1.0
grid.cells = 24
grid.bc = slip-wall
t_end = 0.05
init.name = acoustic-entropy
"""


def test_parse_comments_and_blanks():
    cfg = cfgmod.parse_text(NSF_TEXT)
    assert cfg["scaling.a"] == "0.01"
    assert cfg["grid.bc"] == "slip-wall"
    assert "cfl" not in cfg


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown configuration keys: aa.x, zz.y"):
        cfgmod.parse_text("zz.y = 1\naa.x = 2\nsolver = nsf\n")


def test_parse_rejects_duplicates_and_malformed():
    with pytest.raises(ConfigError, match="duplicate key"):
        cfgmod.parse_text("cfl = 0.4\ncfl = 0.3\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        cfgmod.parse_text("just words\n")
    with pytest.raises(ConfigError, match="empty key or value"):
        cfgmod.parse_text("cfl =\n")


def test_render_round_trip_and_order():
    cfg = cfgmod.parse_text(NSF_TEXT)
    text = cfgmod.render(cfg)
    assert cfgmod.parse_text(text) == cfg
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    order = [k for k, _, _, _ in cfgmod.KNOWN_KEYS if k in cfg]
    assert keys == order
    with pytest.raises(ConfigError, match="unknown configuration keys"):
        cfgmod.render({"nope": "1"})


def test_typed_getters():
    cfg = {"cfl": "0.4x", "grid.bc": "weird", "floors": "1e-12 2e-12"}
    with pytest.raises(ConfigError, match="expected a number"):
        cfgmod.get_float(cfg, "cfl")
    with pytest.raises(ConfigError, match="expected one of"):
        cfgmod.get_choice(cfg, "grid.bc", ("slip-wall", "periodic"))
    assert cfgmod.get_floats(cfg, "floors") == (1e-12, 2e-12)
    with pytest.raises(ConfigError, match="missing required key"):
        cfgmod.get_float(cfg, "t_end")
    assert cfgmod.get_int(cfg, "output.stride") == 10


def test_build_gas_variants():
    gas = cfgmod.build_gas({"gas.name": "ideal", "gas.S0": "0.5"})
    assert gas.name == "ideal" and gas.S0 == 0.5
    with pytest.raises(ConfigError, match="gas.law must be omitted"):
        cfgmod.build_gas({"gas.name": "ideal", "gas.law": "Z"})
    with pytest.raises(ConfigError, match="needs gas.law"):
        cfgmod.build_gas({"gas.name": "lawA"})
    gas = cfgmod.build_gas({"gas.name": "lawA", "gas.law": "Z + Z^2/(1+Z)",
                            "gas.P_inf": "1.0"})
    assert gas.law_text == "Z + Z^2/(1+Z)" and gas.P_inf == 1.0


def test_build_transport_variants():
    assert cfgmod.build_transport({}).name == "default"
    tr = cfgmod.build_transport({"transport.name": "sublinear",
                                 "transport.b": "0.5"})
    assert tr.b == 0.5
    with pytest.raises(ConfigError, match="sublinear family"):
        cfgmod.build_transport({"transport.name": "default", "transport.b": "0.5"})


def test_build_grid_variants():
    grid = cfgmod.build_grid({"grid.extent": "2.0 1.0", "grid.cells": "16 8",
                              "grid.bc": "periodic"})
    assert grid.cells == (16, 8) and grid.bc == ("periodic", "periodic")
    with pytest.raises(ConfigError, match="entries"):
        cfgmod.build_grid({"grid.extent": "1.0", "grid.cells": "16 8"})
    with pytest.raises(ConfigError, match="expected integers"):
        cfgmod.build_grid({"grid.extent": "1.0", "grid.cells": "16.5"})


def test_build_run_nsf_defaults():
    kind, run, scenario = cfgmod.build_run(cfgmod.parse_text(NSF_TEXT))
    assert kind == "nsf"
    assert run.scaling.a == 0.01 and run.scaling.lam == 0.2
    assert run.cfl == 0.4 and run.output_stride == 10
    assert run.positivity_floor == (1e-12, 1e-12)
    assert scenario.name == "acoustic-entropy"
    rho, theta, u = scenario.fields(run.grid)
    assert rho.shape == run.grid.cells


SWEEP_TEXT = """\
grid.extent = 1.0
grid.cells = 16
grid.bc = slip-wall
t_end = 0.05
output.stride = 2
init.name = acoustic-entropy
sweep.a-values = 1e-2 1e-3
sweep.reference-factor = 2
sweep.reference-stride = 2
"""


def _run_fresh(code: str):
    """Run Python code in a fresh interpreter that imports nsflab from this tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(cfgmod.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_ideal_gas_run_leaves_sympy_unimported(tmp_path):
    # scipy and sympy were most of CLI cold start: sympy is needed only by a
    # custom gas.law, and scipy only by custom-law entropy quadrature and
    # the coercivity sampler, so an ideal-gas sweep, diag, rate-fit and
    # simulate load neither
    (tmp_path / "sweep.cfg").write_text(SWEEP_TEXT)
    (tmp_path / "run.cfg").write_text(NSF_TEXT)
    code = (
        "import os, sys\n"
        f"os.chdir({str(tmp_path)!r})\n"
        "import nsflab.cli\n"
        "from nsflab import config\n"
        "def neither(what):\n"
        "    loaded = [m for m in ('scipy', 'sympy') if m in sys.modules]\n"
        "    assert not loaded, (what, loaded)\n"
        "neither('import nsflab.cli')\n"
        f"config.build_run(config.parse_text({NSF_TEXT!r}))\n"
        "neither('ideal-gas build_run')\n"
        "for argv in (['sweep', '--config', 'sweep.cfg', '--out', 'sw'],\n"
        "             ['diag', '--out', 'sw'], ['rate-fit', '--out', 'sw'],\n"
        "             ['simulate', '--config', 'run.cfg', '--out', 'sim']):\n"
        "    assert nsflab.cli.main(argv) == 0, argv\n"
        "    neither(argv[0])\n"
        "config.build_gas({'gas.name': 'lawA', 'gas.law': 'Z + Z^2/(1+Z)'})\n"
        "assert 'sympy' in sys.modules, 'custom law'\n"
    )
    _run_fresh(code)


def test_coercivity_and_custom_law_entropy_load_scipy(tmp_path):
    (tmp_path / "gas.cfg").write_text("gas.name = ideal\nscaling.a = 0.5\n")
    code = (
        "import sys\n"
        "import nsflab.cli\n"
        "from nsflab import thermo\n"
        "assert 'scipy' not in sys.modules\n"
        "gas = thermo.gas_from_expression('lawA', 'Z + Z^2/(1+Z)', S0=0.0, P_inf=0.0)\n"
        "assert gas.S_closed is None\n"
        "s = thermo.entropy_S(gas, [0.5, 1.0, 2.0])\n"
        "assert s[1] == gas.S0 and s[0] > s[1] > s[2], s\n"
        "assert 'scipy.integrate' in sys.modules, 'custom-law entropy'\n"
        "assert 'scipy.stats' not in sys.modules\n"
        f"assert nsflab.cli.main(['coercivity', '--config', {str(tmp_path / 'gas.cfg')!r}]) == 0\n"
        "assert 'scipy.stats' in sys.modules, 'coercivity'\n"
    )
    _run_fresh(code)


# a value of each key that every kind of run reading it accepts
KEY_VALUES = {
    "solver": "nsf", "gas.name": "lawA", "gas.law": "Z + Z^2/(1+Z)", "gas.S0": "0.0",
    "gas.P_inf": "0.0", "transport.name": "sublinear", "transport.b": "0.75",
    "scaling.a": "0.01", "scaling.nu": "0.005", "scaling.omega": "0.001",
    "scaling.lambda": "0.2", "grid.extent": "1.0", "grid.cells": "16",
    "grid.bc": "slip-wall", "cfl": "0.35", "t_end": "0.05", "output.stride": "4",
    "floors": "1e-12 1e-12", "init.name": "acoustic-entropy", "init.amplitude": "0.01",
    "init.gap": "0.02", "sweep.a-values": "1e-2 1e-3", "sweep.alpha": "0.55",
    "sweep.beta": "1.2", "sweep.gamma": "0.1", "sweep.reference-factor": "2",
    "sweep.reference-stride": "4",
}


@pytest.mark.parametrize("kind, reader", [("nsf", "a dissipative run"),
                                          ("euler", "the inviscid solver"),
                                          ("sweep", "a sweep")])
def test_each_key_applies_to_the_runs_its_table_entry_lists(kind, reader):
    assert [k for k, _, _, _ in cfgmod.KNOWN_KEYS] == list(KEY_VALUES)

    def build(cfg):
        if kind == "sweep":
            return sweepmod.sweep_runs(cfg)
        return cfgmod.build_run(cfg)

    # every key the table lists for this kind, accepted together
    full = {k: KEY_VALUES[k] for k, kinds, _, _ in cfgmod.KNOWN_KEYS if kind in kinds}
    if kind != "sweep":
        full["solver"] = kind
    built = build(full)
    if kind == "sweep":
        _, (ref_mapping, _, _), (run_mapping, _, _) = built
        assert run_mapping["init.gap"] == "0.02" and ref_mapping["init.gap"] == "0.0"
    else:
        assert built[0] == kind
    # and every other key refused, by name
    for key, kinds, _, _ in cfgmod.KNOWN_KEYS:
        if kind not in kinds:
            with pytest.raises(ConfigError, match=f"^{key} does not apply to {reader}$"):
                build({**full, key: KEY_VALUES[key]})


@pytest.mark.parametrize("command, reads", [
    ("thermo-check", ("gas.", "transport.")),
    ("coercivity", ("gas.", "scaling.a")),
])
def test_closure_commands_read_the_gas_and_their_own_keys(command, reads):
    # the closure commands build the gas (and thermo-check the transport,
    # coercivity the radiation scale) and refuse every other key by name
    own = {k: KEY_VALUES[k] for k in KEY_VALUES if k.startswith(reads)}
    cfgmod.check_keys(own, command)
    for key in KEY_VALUES.keys() - own.keys():
        with pytest.raises(ConfigError, match=f"^{key} does not apply to nsflab {command}$"):
            cfgmod.check_keys({**own, key: KEY_VALUES[key]}, command)


def test_build_run_euler_rejects_dissipative_keys():
    text = ("solver = euler\ngrid.extent = 1.0\ngrid.cells = 16\n"
            "grid.bc = slip-wall\nt_end = 0.1\n")
    kind, run, _ = cfgmod.build_run(cfgmod.parse_text(text))
    assert kind == "euler" and run.t_end == 0.1
    with pytest.raises(ConfigError, match="does not apply to the inviscid"):
        cfgmod.build_run(cfgmod.parse_text(text + "scaling.a = 0.1\n"))


def test_build_run_requires_scaling():
    text = NSF_TEXT.replace("scaling.a = 0.01          # radiation\n", "")
    with pytest.raises(ConfigError, match="scaling.a"):
        cfgmod.build_run(cfgmod.parse_text(text))


def _values(run):
    """A run config's fields, its gas and transport (closures) named by their parameters."""
    out = {f.name: getattr(run, f.name) for f in dataclasses.fields(run)}
    out["gas"] = (run.gas.name, run.gas.S0, run.gas.P_inf, run.gas.law_text)
    if "transport" in out:
        out["transport"] = (run.transport.name, run.transport.b)
    return out


@pytest.mark.parametrize("kind", ["nsf", "euler", "sweep"])
def test_a_run_without_its_defaults_is_the_run_that_writes_them_out(kind):
    required = {"grid.extent": "1.0", "grid.cells": "16"}
    if kind != "sweep":
        required["t_end"] = "0.05"
    if kind == "nsf":
        required.update({"scaling.a": "0.01", "scaling.nu": "0.005",
                         "scaling.omega": "0.001", "scaling.lambda": "0.2"})
    if kind == "euler":
        required["solver"] = "euler"
    # every table default this kind reads; gas.P_inf and transport.b are
    # refused with the default gas and transport, and a sweep lays its own
    # defaults over the table's
    written = {k: default for k, kinds, default, _ in cfgmod.KNOWN_KEYS
               if kind in kinds and default is not None
               and k not in ("gas.P_inf", "transport.b")}
    if kind == "sweep":
        written.update(sweepmod._DEFAULTS)
    written.update(required)
    assert written.keys() > required.keys()

    if kind == "sweep":
        path, *runs = sweepmod.sweep_runs(required)
        path_w, *runs_w = sweepmod.sweep_runs(written)
        assert path == path_w
    else:
        runs, runs_w = [cfgmod.build_run(required)], [cfgmod.build_run(written)]
        assert runs[0][0] == runs_w[0][0] == kind
    for (mapping, run, scenario), (mapping_w, run_w, scenario_w) in zip(runs, runs_w):
        if kind == "sweep":
            assert mapping == mapping_w
        assert _values(run) == _values(run_w)
        for field, field_w in zip(scenario.fields(run.grid), scenario_w.fields(run_w.grid)):
            assert np.array_equal(field, field_w)


def test_custom_law_and_sublinear_transport_take_the_table_defaults():
    law = {"gas.name": "lawA", "gas.law": "Z + Z^2/(1+Z)"}
    assert (cfgmod.build_gas(law).P_inf
            == cfgmod.build_gas({**law, "gas.P_inf": cfgmod.DEFAULTS["gas.P_inf"]}).P_inf == 0.0)
    sub = {"transport.name": "sublinear"}
    assert (cfgmod.build_transport(sub).b
            == cfgmod.build_transport({**sub, "transport.b": cfgmod.DEFAULTS["transport.b"]}).b
            == 0.75)


def test_describe_keys_lists_everything():
    doc = cfgmod.describe_keys()
    for key, kinds, default, _ in cfgmod.KNOWN_KEYS:
        line = next(line for line in doc.splitlines() if line.startswith(key + " "))
        assert line.endswith(f"[{', '.join(kinds)}]")
        assert (f"(default {default})" in line) == (default is not None)
    assert doc.splitlines()[-1] == ("a sweep's own defaults: cfl = 0.35, output.stride = 16, "
                                    "t_end = 1.0")


def _readme_config_blocks():
    # the fenced blocks without a language tag are the README's run files
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks, lang, body = [], None, []
    for line in text.splitlines():
        if not line.startswith("```"):
            body.append(line)
        elif lang is None:
            lang, body = line[3:], []
        else:
            if lang == "":
                blocks.append("\n".join(body) + "\n")
            lang = None
    return blocks


def test_readme_config_blocks_parse_and_build():
    blocks = _readme_config_blocks()
    kinds = []
    for text in blocks:
        cfg = cfgmod.parse_text(text)
        if any(key.startswith("sweep.") for key in cfg):
            sweepmod.sweep_runs(cfg)
            kinds.append("sweep")
        else:
            kind, run, scenario = cfgmod.build_run(cfg)
            scenario.fields(run.grid)
            kinds.append(kind)
    assert kinds == ["nsf", "sweep"]
