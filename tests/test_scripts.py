"""The experiment scripts under scripts/ run end to end at tiny sizes, each
in a fresh process, so that a change to the API they call shows here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def _run_script(name, *args, cwd):
    proc = _script(name, *args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_default_sweep_writes_both_families(tmp_path):
    out = tmp_path / "default"
    text = _run_script("run_default_sweep.py", "--cells", "8", "--t-end", "0.05",
                       "--out", str(out), cwd=tmp_path)
    assert text.startswith("[well] t_safe=0.05") and "[ill] t_safe=0.05" in text
    for name, gap in (("well", "0.0"), ("ill", "0.02")):
        run_cfg = (out / name / "runs" / "a1.000e-02" / "run.cfg").read_text()
        assert f"init.gap = {gap}\n" in run_cfg
        assert "init.gap = 0.0\n" in (out / name / "reference.cfg").read_text()


@pytest.fixture(scope="module")
def appendix(tmp_path_factory):
    """The refinement appendix at 8 and 16 cells to t_end = 0.3 -> (stdout, --out)."""
    tmp = tmp_path_factory.mktemp("appendix")
    (tmp / "sweep.cfg").write_text("grid.extent = 1.0\nt_end = 0.3\n")
    text = _run_script("refinement_appendix.py", "--config", "sweep.cfg", "--grids", "8", "16",
                       "--out", "out", cwd=tmp)
    return text, tmp / "out"


def test_refinement_appendix_skips_a_point_with_too_few_instants(appendix):
    text, _ = appendix
    assert "N=8: too few stored instants for diagnostics; skipped" in text
    assert "nan  N=16" not in text  # a skipped point is printed once, by its reason
    assert "E_sup spread across the path on the finest grid" in text


def test_refinement_appendix_sweeps_each_grid_against_one_reference(appendix):
    text, out = appendix
    assert text.startswith("reference: 64 cells, usable horizon 0.3\n")
    keys = {json.loads((out / f"N{n}" / "manifest.json").read_text())["reference_key"]
            for n in (8, 16)}
    assert len(keys) == 1
    proc = subprocess.run([sys.executable, "-m", "nsflab", "diag", "--out", str(out / "N16")],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_refinement_appendix_refuses_grids_that_do_not_divide_the_reference(tmp_path):
    proc = _script("refinement_appendix.py", "--grids", "48", "100", "--out", "out",
                   cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "the reference's 400 cells are not a multiple of grids [48]" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_layer_bench_times_each_layer(tmp_path):
    report = json.loads(_run_script("layer_bench.py", "--cells", "48", "--repeats", "1",
                                    "--number", "1", cwd=tmp_path))
    assert report["unit"] == "us_per_call" and list(report["layers"]) == ["48"]
    layers = report["layers"]["48"]
    assert "rhs_nsf" in layers and all(v > 0.0 for v in layers.values())
