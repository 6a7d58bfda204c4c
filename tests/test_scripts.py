"""The experiment scripts under scripts/ run end to end at tiny sizes, each
in a fresh process, so that a change to the API they call shows here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
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


def test_refinement_appendix_skips_a_point_with_too_few_instants(tmp_path):
    text = _run_script("refinement_appendix.py", "--grids", "8", "16", "--t-end", "0.3",
                       cwd=tmp_path)
    assert "N=8: fewer than three stored instants; skipped" in text
    assert "E_sup spread across the path on the finest grid" in text


def test_layer_bench_times_each_layer(tmp_path):
    report = json.loads(_run_script("layer_bench.py", "--cells", "48", "--repeats", "1",
                                    "--number", "1", cwd=tmp_path))
    assert report["unit"] == "us_per_call" and list(report["layers"]) == ["48"]
    layers = report["layers"]["48"]
    assert "rhs_nsf" in layers and all(v > 0.0 for v in layers.values())
