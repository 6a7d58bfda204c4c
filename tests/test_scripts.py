"""The experiment scripts under scripts/ run end to end at tiny sizes, each
in a fresh process, so that a change to the API they call shows here; one
test runs the sweep scripts in this process, to count the workers they start."""

import json
import multiprocessing
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from nsflab import cli

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
    # one reference serves both families: the ill-prepared cache links the well-prepared one's
    well, ill = (next((out / name / "reference-cache").glob("euler-*/manifest.txt"))
                 for name in ("well", "ill"))
    assert os.path.samefile(well, ill)


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


def test_refinement_appendix_computes_its_reference_once(appendix):
    # the later grid's cache entry is the first grid's, hard-linked: its
    # sweep loaded the reference and started no worker
    _, out = appendix
    entries = [next((out / f"N{n}" / "reference-cache").glob("euler-*/manifest.txt"))
               for n in (8, 16)]
    assert os.path.samefile(*entries)


@pytest.mark.parametrize("name, args, dirs", [
    ("refinement_appendix.py", ("--config", "sweep.cfg", "--grids", "8", "16"), ("N8", "N16")),
    ("run_default_sweep.py", ("--cells", "8", "--t-end", "0.05"), ("well", "ill")),
])
def test_script_computes_one_reference_that_diag_leaves_linked(tmp_path, monkeypatch, count_calls,
                                                               capsys, name, args, dirs):
    # in this process, so that the worker processes it starts can be counted
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text("grid.extent = 1.0\nt_end = 0.3\n")
    main = runpy.run_path(str(ROOT / "scripts" / name))["main"]
    starts = count_calls(multiprocessing.Process, "start")
    assert main([*args, "--out", "out"]) == 0
    assert len(starts) == 1
    for d in dirs:
        assert cli.main(["diag", "--out", str(tmp_path / "out" / d)]) == 0
    entries = [list((tmp_path / "out" / d / "reference-cache").iterdir()) for d in dirs]
    assert [len(e) for e in entries] == [1] * len(dirs)
    first, *later = (e[0] for e in entries)
    for entry in later:
        assert sorted(p.name for p in entry.iterdir()) == sorted(p.name for p in first.iterdir())
        assert all(os.path.samefile(p, entry / p.name) for p in first.iterdir())


def test_refinement_appendix_refuses_grids_that_do_not_divide_the_reference(tmp_path):
    proc = _script("refinement_appendix.py", "--grids", "48", "100", "--out", "out",
                   cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "the reference's 400 cells are not a multiple of grids [48]" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, args, message", [
    ("refinement_appendix.py", ("--config", "nope.cfg", "--out", "out"),
     "cannot read configuration file nope.cfg: No such file or directory"),
    ("run_default_sweep.py", ("--cells", "3", "--out", "out"),
     "need at least 8 cells per axis, got (3,)"),
    ("layer_bench.py", ("--cells", "3"), "need at least 8 cells per axis, got (3,)"),
])
def test_script_reports_an_error_as_nsflab_does(tmp_path, name, args, message):
    proc = _script(name, *args, cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_layer_bench_times_each_layer(tmp_path):
    report = json.loads(_run_script("layer_bench.py", "--cells", "48", "--repeats", "1",
                                    "--number", "1", cwd=tmp_path))
    assert report["unit"] == "us_per_call" and list(report["layers"]) == ["48"]
    layers = report["layers"]["48"]
    assert "rhs_nsf" in layers and all(v > 0.0 for v in layers.values())
