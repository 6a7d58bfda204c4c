"""What each read-side process loads: the CLI registers the numerical
modules lazily, so a command executes only the modules it touches."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nsflab import cli
from nsflab import manifest as mf

ROOT = Path(__file__).resolve().parents[1]

SWEEP_CFG = """\
grid.extent = 1.0
grid.cells = 16
grid.bc = slip-wall
cfl = 0.35
t_end = 0.1
output.stride = 4
init.name = acoustic-entropy
init.amplitude = 0.01
sweep.a-values = 1e-2 1e-3
sweep.reference-factor = 2
sweep.reference-stride = 4
"""


@pytest.fixture(scope="module")
def stored_sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("stored")
    (root / "sweep.cfg").write_text(SWEEP_CFG)
    assert cli.main(["sweep", "--config", str(root / "sweep.cfg"),
                     "--out", str(root / "out")]) == 0
    return root / "out"


def _run_fresh(code: str) -> str:
    """Run Python code in a fresh interpreter that imports nsflab from this
    tree and the benchmark's tracer from perfbench/; its stdout."""
    path = os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench")))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_rate_fit_loads_no_numpy(stored_sweep):
    code = (
        "import sys\n"
        "import nsflab.cli\n"
        f"assert nsflab.cli.main(['rate-fit', '--out', {str(stored_sweep)!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'rate-fit'\n"
    )
    printed = _run_fresh(code)
    manifest = mf.read_manifest(stored_sweep / "manifest.json")
    assert printed == mf.fit_rate(manifest).to_text()
    assert printed.splitlines()[-2] == f"fitted_constant {manifest.fitted_constant!r}"


def test_tracer_installs_after_the_cli_import(stored_sweep, tmp_path):
    # the benchmark's tracer looks each layer module up in sys.modules right
    # after `import nsflab.cli` and wraps its public functions
    code = (
        "import sys\n"
        "import nsflab.cli\n"
        "import tracer\n"
        "tr = tracer.Tracer()\n"
        "tracer.install(tr)\n"
        f"assert nsflab.cli.main(['diag', '--out', {str(stored_sweep)!r}]) == 0\n"
        "for name in sorted(tr.summary()['spans']):\n"
        "    print('span', name)\n"
    )
    spans = {line.split()[1] for line in _run_fresh(code).splitlines()
             if line.startswith("span ")}
    assert "sweep.load_run" in spans
    assert "euler_reference.sample_reference" in spans
    assert any(name.startswith("thermo.") for name in spans)


def test_package_import_loads_no_numpy():
    # the gas models have one import path, nsflab.thermo
    code = (
        "import sys\n"
        "import nsflab\n"
        "assert 'numpy' not in sys.modules and 'nsflab.thermo' not in sys.modules\n"
        "assert not hasattr(nsflab, 'ideal_gas') and not hasattr(nsflab, 'GasModel')\n"
        "from nsflab import thermo\n"
        "assert isinstance(thermo.ideal_gas(), thermo.GasModel)\n"
    )
    _run_fresh(code)
