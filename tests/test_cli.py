import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nsflab import cli
from nsflab import config as cfgmod
from nsflab import diagnostics as diag
from nsflab import euler_reference as er
from nsflab import grid_fields as gf
from nsflab import manifest as mf
from nsflab import nsf_solver as ns
from nsflab import relative_energy as renergy
from nsflab import sweep as sweepmod
from nsflab import thermo
from nsflab.nsf_solver import DIAG_HEADER

RUN_CFG = """\
solver = nsf
scaling.a = 0.01
scaling.nu = 0.005
scaling.omega = 0.001
scaling.lambda = 0.2
grid.extent = 1.0
grid.cells = 24
grid.bc = slip-wall
cfl = 0.35
t_end = 0.05
output.stride = 4
init.name = acoustic-entropy
init.amplitude = 0.01
"""

EULER_CFG = """\
solver = euler
grid.extent = 1.0
grid.cells = 48
grid.bc = slip-wall
cfl = 0.35
t_end = 0.1
output.stride = 8
init.name = acoustic-entropy
init.amplitude = 0.01
"""

SWEEP_CFG = """\
grid.extent = 1.0
grid.cells = 24
grid.bc = slip-wall
cfl = 0.35
t_end = 0.25
output.stride = 8
init.name = acoustic-entropy
init.amplitude = 0.01
sweep.a-values = 1e-2 1e-3
sweep.reference-factor = 2
sweep.reference-stride = 4
"""


@pytest.fixture(scope="module")
def cli_sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-sweep")
    cfg = root / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = root / "out"
    rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return cfg, out


def test_thermo_check_reports_h7_failure(capsys):
    assert cli.main(["thermo-check"]) == 0
    out = capsys.readouterr().out
    assert "H7 FAIL" in out
    for label in ("H2", "H3", "H6", "H8", "H9"):
        assert f"{label} PASS" in out
    gibbs = [line for line in out.splitlines() if line.startswith("gibbs")]
    assert len(gibbs) == 2
    assert all(float(line.split()[-1]) < 1e-7 for line in gibbs)


def test_coercivity_repeatable(capsys):
    assert cli.main(["coercivity", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    c = float(first.splitlines()[-1].split()[-1])
    assert c > 0.0
    assert cli.main(["coercivity", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_simulate_nsf_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "healthy True" in text
    solver = (out / "solver.csv").read_text()
    assert solver.splitlines()[0] == DIAG_HEADER
    assert (out / "run.cfg").is_file()
    assert any(p.suffix == ".snap" for p in out.iterdir())
    # rerun into a fresh directory: identical bytes
    out2 = tmp_path / "out2"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out2 / "solver.csv").read_bytes() == (out / "solver.csv").read_bytes()
    for p in sorted(out.glob("*.snap")):
        assert (out2 / p.name).read_bytes() == p.read_bytes()


def test_simulate_euler_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EULER_CFG)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "smooth_through_end True" in text and "usable_until" in text
    header = (out / "solver.csv").read_text().splitlines()[0]
    assert header == "t,mass,etot,grad_u_max,grad_rho_max"


def test_simulate_refuses_a_sweep_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG + "sweep.alpha = 0.6\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: sweep.alpha does not apply to a dissipative run\n"
    assert not out.exists()


def test_simulate_refuses_a_directory_where_a_run_file_goes(tmp_path, capsys, count_calls):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    out = tmp_path / "out"
    (out / "run.cfg").mkdir(parents=True)
    batches = count_calls(ns, "simulate")
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {out / 'run.cfg'} is a directory, where a "
                                       "run keeps a file; remove it\n")
    assert batches == [] and [p.name for p in out.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("command, text", [("simulate", RUN_CFG), ("sweep", SWEEP_CFG)],
                         ids=["simulate", "sweep"])
def test_ideal_gas_refuses_p_inf(tmp_path, capsys, command, text):
    # P_inf belongs to a custom law; the ideal gas would drop it unread
    cfg = tmp_path / "in.cfg"
    cfg.write_text(text + "gas.P_inf = 1.0\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: gas.P_inf must be omitted when gas.name is ideal\n"
    assert not out.exists()


def test_simulate_euler_over_a_dissipative_run_drops_its_reports(tmp_path, capsys):
    # the Euler run takes the same writer as a dissipative one, which
    # drops the reports of the run that was there before
    run_cfg, euler_cfg = tmp_path / "run.cfg", tmp_path / "euler.cfg"
    run_cfg.write_text(RUN_CFG)
    euler_cfg.write_text(EULER_CFG)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(run_cfg), "--out", str(out)]) == 0
    for name in ("relenergy.csv", "bounds.txt", "summary.txt"):  # as `diag` leaves them
        (out / name).write_text("a report of the dissipative run\n")
    assert cli.main(["simulate", "--config", str(euler_cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    fresh = tmp_path / "fresh"
    assert cli.main(["simulate", "--config", str(euler_cfg), "--out", str(fresh)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir())
    for p in fresh.iterdir():
        assert (out / p.name).read_bytes() == p.read_bytes()


@pytest.mark.parametrize("argv", [["diag", "--seed", "1"],
                                  ["diag", "--config", "x.cfg"],
                                  ["rate-fit", "--threads", "2"],
                                  ["thermo-check", "--out", "x"],
                                  ["coercivity", "--out", "x"],
                                  ["simulate", "--seed", "1"]])
def test_subcommand_refuses_a_flag_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: nsflab {argv[0]} [-h]")
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


def test_coercivity_refuses_a_negative_seed(capsys):
    assert cli.main(["coercivity", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("command, text", [("simulate", RUN_CFG), ("sweep", SWEEP_CFG)],
                         ids=["simulate", "sweep"])
def test_out_naming_a_regular_file_is_refused(tmp_path, capsys, command, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    for target in (out, out / "below"):
        assert cli.main([command, "--config", str(cfg), "--out", str(target)]) == 2
        assert capsys.readouterr().err == \
            f"error: output directory {target}: {out} is not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("taken", ["runs", "reference-cache", "runs/a1.000e-02"])
def test_sweep_refuses_a_file_where_it_writes_a_directory(tmp_path, capsys, taken):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "out"
    (out / taken).parent.mkdir(parents=True, exist_ok=True)
    (out / taken).write_text("not a directory\n")
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {out / taken} is not a directory; remove it "
                                       "or sweep into another directory\n")
    # nothing written but what the test put there
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == \
        sorted({taken, Path(taken).parent.as_posix()} - {"."})


@pytest.mark.parametrize("taken", ["reference.cfg", "manifest.json", "plot_rate.dat"])
def test_sweep_refuses_a_directory_where_it_writes_a_file(tmp_path, capsys, taken):
    # refused before the reference and the batch run, not after them
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {out / taken} is a directory; remove it "
                                       "or sweep into another directory\n")
    assert [p.relative_to(out).as_posix() for p in out.rglob("*")] == [taken]


def test_sweep_refuses_a_values_that_share_a_run_id(tmp_path, capsys):
    # both points would write runs/a1.000e-02/, the second over the first
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG.replace("sweep.a-values = 1e-2 1e-3",
                                     "sweep.a-values = 1.00001e-2 1e-2"))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: sweep.a-values 0.0100001 and 0.01 share the "
                                       "run id a1.000e-02; each path point needs a run "
                                       "directory of its own\n")
    assert not out.exists()


@pytest.mark.parametrize("a_values, bad", [("1e-3 1e-200", "1e-200"), ("1e308", "1e+308")])
def test_sweep_refuses_a_values_whose_envelope_is_not_finite(tmp_path, capsys, a_values, bad):
    # at 1e-200, nu^3 lambda underflows to 0; at 1e308, omega = a^beta overflows
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG.replace("sweep.a-values = 1e-2 1e-3", f"sweep.a-values = {a_values}"))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: sweep.a-values {bad} gives scalings or a rate "
                                       "envelope that are not positive and finite\n")
    assert not out.exists()


def test_sweep_refuses_a_directory_where_a_run_file_goes(tmp_path, capsys, count_calls):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "out"
    taken = out / "runs" / "a1.000e-02" / "summary.txt"
    taken.mkdir(parents=True)
    runs = count_calls(er, "run_euler")
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {taken} is a directory, where a run "
                                       "keeps a file; remove it\n")
    assert runs == [] and [p for p in out.rglob("*") if not p.is_dir()] == []


def _cache_entry(cfg_path):
    """The reference cache entry that a sweep of the configuration file cfg_path uses."""
    _, (_, ref_cfg, ref_scenario), _ = sweepmod.sweep_runs(cfgmod.load_file(cfg_path))
    state = ns.state_from_primitives(ref_cfg.gas, 0.0, ref_scenario.fields(ref_cfg.grid))
    return Path("reference-cache") / f"euler-{er.reference_key(ref_cfg, state)[:16]}"


def _take_cache_entry(out, entry, taken):
    """Put what the cache can neither read nor write at entry (below out):
    a directory at its manifest.txt, or a regular file at the entry itself
    or at the cache directory; (the path named in the refusal, its text)."""
    shutil.rmtree(out / entry.parent, ignore_errors=True)
    if taken == "manifest-directory":
        path = out / entry / "manifest.txt"
        path.mkdir(parents=True)
        return path, "is a directory, where the reference cache keeps a file; remove it"
    path = out / (entry.parent if taken == "cache-file" else entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("not a directory\n")
    return path, "is not a directory, where the reference cache needs one; remove it"


@pytest.mark.parametrize("taken", ["manifest-directory", "entry-file"])
def test_sweep_refuses_a_reference_cache_entry_it_cannot_use(tmp_path, capsys, count_calls,
                                                            taken):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "out"
    path, text = _take_cache_entry(out, _cache_entry(cfg), taken)
    before = sorted(p.relative_to(out) for p in out.rglob("*"))
    runs = count_calls(er, "run_euler")
    batches = count_calls(ns, "simulate_batch")
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {path} {text}\n")
    assert runs == [] and batches == []
    assert sorted(p.relative_to(out) for p in out.rglob("*")) == before


@pytest.mark.parametrize("command", ["thermo-check", "coercivity"])
@pytest.mark.parametrize("key, value", [("grid.cells", "8"), ("sweep.alpha", "0.6")])
def test_closure_commands_refuse_keys_they_do_not_read(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "closure.cfg"
    cfg.write_text(f"gas.name = ideal\n{key} = {value}\n")
    assert cli.main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key} does not apply to nsflab {command}\n"


def test_simulate_requires_config(capsys):
    assert cli.main(["simulate"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert cli.main(["simulate", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read configuration file {missing}")
    assert err.count("\n") == 1


def test_simulate_undecodable_config_file(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(RUN_CFG.encode("ascii") + b"# caf\xe9\n")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: configuration file {cfg} is not UTF-8 text")


def test_unknown_config_key_is_hard_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(RUN_CFG + "scaling.nuu = 0.1\n")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown configuration keys: scaling.nuu" in err


def test_sweep_manifest_on_disk(cli_sweep):
    cfg, out = cli_sweep
    manifest = mf.read_manifest(out / "manifest.json")
    assert [r.a for r in manifest.records] == [1e-2, 1e-3]
    assert all(r.healthy for r in manifest.records)
    assert math.isfinite(manifest.fitted_constant)


def test_rate_fit_matches_sweep(cli_sweep, capsys):
    cfg, out = cli_sweep
    assert cli.main(["rate-fit", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    manifest = mf.read_manifest(out / "manifest.json")
    assert printed == mf.fit_rate(manifest).to_text()
    fitted = float(printed.splitlines()[-2].split()[-1])
    assert fitted == manifest.fitted_constant


def test_rate_fit_needs_manifest(tmp_path, capsys):
    assert cli.main(["rate-fit", "--out", str(tmp_path)]) == 2
    assert "no manifest" in capsys.readouterr().err


_RECORD = {"run_id": "a1.000e-02", "a": 0.01, "healthy": True, "reason": "",
           "e_init": 1e-12, "e_sup": 4e-05, "envelope": 0.8, "max_excess": 6e-09}
_MANIFEST = {"alpha": 0.55, "beta": 1.2, "gamma": 0.1, "a_values": [0.01, 0.001],
             "config_hash": "0", "grid_hash": "0", "reference_key": "0", "t_safe": 1.0,
             "records": [_RECORD, dict(_RECORD, run_id="a1.000e-03", a=0.001)],
             "fitted_constant": 1.0, "flagged": False}


@pytest.mark.parametrize("text, why", [
    ('{"alpha": 0.55', "JSONDecodeError"),
    ('{"alpha": 0.55}', "KeyError: 'a_values'"),
    pytest.param(json.dumps(dict(_MANIFEST, records=[_RECORD, dict(_RECORD, e_sup="x")])),
                 "TypeError: RunRecord.e_sup is 'x', not a float", id="string-e_sup"),
    pytest.param(json.dumps(dict(_MANIFEST, flagged="no")),
                 "TypeError: SweepManifest.flagged is 'no', not a bool", id="string-flagged"),
    pytest.param(json.dumps(dict(_MANIFEST, a_values=[0.01, None])),
                 "TypeError: a_values is [0.01, None], not a list of numbers", id="null-a"),
    pytest.param(json.dumps(dict(_MANIFEST, records=[
        _RECORD, dict(_RECORD, run_id="a1.000e-03", e_init=0.0, envelope=0.0)])),
        "ValueError: healthy record a1.000e-03 has e_init + envelope 0.0, not positive",
        id="zero-denominator"),
    pytest.param(json.dumps(dict(_MANIFEST, records=[
        dict(_RECORD, e_sup=math.nan), dict(_RECORD, run_id="a1.000e-03")])),
        "ValueError: healthy record a1.000e-02 has e_sup nan", id="nan-e_sup"),
    pytest.param(json.dumps(dict(_MANIFEST, records=[
        _RECORD, dict(_RECORD, run_id="a1.000e-03", envelope=-math.inf)])),
        "ValueError: healthy record a1.000e-03 has envelope -inf", id="infinite-envelope"),
])
def test_rate_fit_damaged_manifest(tmp_path, capsys, text, why):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    assert cli.main(["rate-fit", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not a readable sweep manifest")
    assert why in err and err.count("\n") == 1


def test_rate_fit_leaves_unhealthy_nan_records_out(tmp_path, capsys):
    # a sweep writes NaN numbers for an unhealthy point; only healthy ones are fitted
    unhealthy = dict(_RECORD, run_id="a1.000e-04", a=1e-4, healthy=False,
                     reason="stalled", e_init=math.nan, e_sup=math.nan, max_excess=math.nan)
    records = [_RECORD, dict(_RECORD, run_id="a1.000e-03", a=0.001), unhealthy]
    (tmp_path / "manifest.json").write_text(json.dumps(dict(_MANIFEST, records=records)))
    assert cli.main(["rate-fit", "--out", str(tmp_path)]) == 0
    ratio = _RECORD["e_sup"] / (_RECORD["e_init"] + _RECORD["envelope"])
    assert capsys.readouterr().out == (f"a=0.01 ratio={ratio!r}\na=0.001 ratio={ratio!r}\n"
                                       f"fitted_constant {ratio!r}\nflagged False\n")


def test_diag_reproduces_stored_csvs(cli_sweep, capsys):
    cfg, out = cli_sweep
    manifest = mf.read_manifest(out / "manifest.json")
    originals = {}
    for rec in manifest.records:
        rdir = out / "runs" / rec.run_id
        for name in ("relenergy.csv", "bounds.txt", "summary.txt"):
            path = rdir / name
            originals[path] = path.read_bytes()
            path.unlink()
    assert cli.main(["diag", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert all(rec.run_id in text for rec in manifest.records)
    for path, blob in originals.items():
        assert path.read_bytes() == blob


def test_diag_needs_sweep_layout(tmp_path, capsys):
    assert cli.main(["diag", "--out", str(tmp_path)]) == 2
    assert "reference configuration" in capsys.readouterr().err


def _sweep_copy(cli_sweep, tmp_path):
    _, out = cli_sweep
    copy = tmp_path / "sweep"
    shutil.copytree(out, copy)
    return copy


def test_diag_run_without_config(cli_sweep, tmp_path, capsys):
    out = _sweep_copy(cli_sweep, tmp_path)
    (out / "runs" / "a0-empty").mkdir()
    assert cli.main(["diag", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read configuration file")
    assert str(out / "runs" / "a0-empty" / "run.cfg") in err


@pytest.mark.parametrize("damage", ["empty-last-run", "missing-snapshot"])
def test_diag_loads_every_run_before_it_writes_a_report(cli_sweep, tmp_path, capsys, damage):
    # the last run cannot load: the runs before it get no report either
    out = _sweep_copy(cli_sweep, tmp_path)
    reports = [rdir / name for rdir in sorted((out / "runs").iterdir())
               for name in ("relenergy.csv", "bounds.txt", "summary.txt")]
    for path in reports:
        path.unlink()
    if damage == "empty-last-run":
        (out / "runs" / "zzz").mkdir()
        want = f"error: cannot read configuration file {out / 'runs' / 'zzz' / 'run.cfg'}"
    else:
        snaps = sorted(reports[-1].parent.glob("*.snap"))
        snaps[3].unlink()
        want = f"error: snapshot {snaps[3]} is missing from a series of {len(snaps) - 1} files\n"
    assert cli.main(["diag", "--out", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err.startswith(want)
    assert not any(path.exists() for path in reports)


def test_diag_refuses_a_directory_where_a_run_file_goes(cli_sweep, tmp_path, capsys,
                                                        count_calls):
    out = _sweep_copy(cli_sweep, tmp_path)
    rdirs = sorted((out / "runs").iterdir())
    taken = rdirs[-1] / "bounds.txt"
    taken.unlink()
    taken.mkdir()
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    runs = count_calls(er, "run_euler")
    assert cli.main(["diag", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {taken} is a directory, where a run "
                                       "keeps a file; remove it\n")
    assert runs == [] and {p: p.read_bytes() for p in before} == before


@pytest.mark.parametrize("taken", ["manifest-directory", "entry-file", "cache-file"])
def test_diag_refuses_a_reference_cache_entry_it_cannot_use(cli_sweep, tmp_path, capsys,
                                                           count_calls, taken):
    cfg, _ = cli_sweep
    out = _sweep_copy(cli_sweep, tmp_path)
    path, text = _take_cache_entry(out, _cache_entry(cfg), taken)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    steps = count_calls(er, "rhs_euler")
    assert cli.main(["diag", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {path} {text}\n")
    assert steps == []
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_diag_truncated_snapshot(cli_sweep, tmp_path, capsys):
    out = _sweep_copy(cli_sweep, tmp_path)
    snap = sorted((out / "runs").glob("*/00001.snap"))[0]
    snap.write_bytes(snap.read_bytes()[:-100])
    assert cli.main(["diag", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {snap} holds") and "payload bytes" in err


@pytest.mark.parametrize("damage", ["without-mom", "two-component-mom"])
def test_diag_snapshot_without_a_state_field(cli_sweep, tmp_path, capsys, damage):
    out = _sweep_copy(cli_sweep, tmp_path)
    snap = sorted((out / "runs").glob("*/00001.snap"))[0]
    cells = gf.read_snapshot(snap)[0].cells[0]
    header, end, payload = snap.read_bytes().partition(b"\nend\n")
    if damage == "without-mom":
        # rho and etot only: the header and the payload both drop mom
        header = header.replace(b" mom=1 ", b" ")
        payload = payload[:8 * cells] + payload[16 * cells:]
        want = "fields 'rho=1 etot=1'"
    else:
        # a 1-D snapshot whose header declares two momentum components
        header = header.replace(b" mom=1 ", b" mom=2 ")
        payload += bytes(8 * cells)
        want = "fields 'rho=1 mom=2 etot=1'"
    snap.write_bytes(header + end + payload)
    assert cli.main(["diag", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {snap} has a malformed header") and want in err


def test_diag_names_the_first_snapshot_without_internal_energy(cli_sweep, tmp_path, capsys):
    # a later snapshot without density is not the one reported
    out = _sweep_copy(cli_sweep, tmp_path)
    snaps = sorted(sorted((out / "runs").iterdir())[0].glob("*.snap"))
    for snap, cell, row in ((snaps[1], 3, -1), (snaps[2], 1, 0)):  # etot, rho
        grid, t, W = gf.read_snapshot(snap)
        W = W.copy()
        W[1:-1, cell] = 0.0
        W[row, cell] = 0.0
        gf.write_snapshot(snap, grid, t, W)
    assert cli.main(["diag", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: snapshot {snaps[1]}: "
                                       "non-positive internal energy at cell (3,)\n")


@pytest.mark.parametrize("damage", ["negative-density", "no-internal-energy"])
def test_diag_names_the_snapshot_a_load_error_comes_from(cli_sweep, tmp_path, capsys, damage):
    # the first fails the stored series' state check, the second passes it
    # and fails the run's temperature recovery
    out = _sweep_copy(cli_sweep, tmp_path)
    snap = sorted(out.glob("runs/*/00003.snap"))[0]
    grid, t, W = gf.read_snapshot(snap)
    W = W.copy()
    if damage == "negative-density":
        W[0, 5] = -W[0, 5]
        want = "negative density"
    else:
        W[-1, 5] = 0.5 * W[1, 5] ** 2 / W[0, 5]  # etot = |mom|^2 / (2 rho)
        want = "non-positive internal energy at cell (5,)"
    gf.write_snapshot(snap, grid, t, W)
    assert cli.main(["diag", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: snapshot {snap}: {want}\n")


def test_diag_names_the_reference_cache_snapshot_a_load_error_comes_from(cli_sweep, tmp_path,
                                                                        capsys):
    out = _sweep_copy(cli_sweep, tmp_path)
    (snap,) = out.glob("reference-cache/euler-*/00003.snap")
    grid, t, W = gf.read_snapshot(snap)
    W = W.copy()
    W[0, 5] = -W[0, 5]
    gf.write_snapshot(snap, grid, t, W)
    assert cli.main(["diag", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: snapshot {snap}: negative density\n")


@pytest.mark.parametrize("damage, why", [
    ("key-line-only", "KeyError"),
    ("garbled-dt", "ValueError"),
    ("aborted-without-reason", "KeyError"),
    ("garbled-aborted", "ValueError"),
])
def test_diag_damaged_reference_manifest(cli_sweep, tmp_path, capsys, damage, why):
    out = _sweep_copy(cli_sweep, tmp_path)
    (manifest,) = (out / "reference-cache").glob("euler-*/manifest.txt")
    lines = manifest.read_text().splitlines()
    if damage == "key-line-only":
        lines = [line for line in lines if line.startswith("key ")]
    elif damage == "garbled-dt":
        lines = ["dt x" if line.startswith("dt ") else line for line in lines]
    else:
        lines.append("aborted 1" if damage == "aborted-without-reason" else "aborted yes")
    manifest.write_text("\n".join(lines) + "\n")
    assert cli.main(["diag", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest} is damaged") and why in err
    assert err.count("\n") == 1


def test_diag_calls_each_traced_layer(cli_sweep, count_calls, capsys):
    # the stored-replay benchmark's per-layer metrics are named after these
    _, out = cli_sweep
    calls = {name: count_calls(mod, name) for mod, name in (
        (renergy, "relative_energy"), (diag, "rel_energy_inequality_residual"),
        (diag, "uniform_bounds"), (er, "sample_reference"))}
    assert cli.main(["diag", "--out", str(out)]) == 0
    assert all(calls.values()), [name for name, c in calls.items() if not c]


def test_diag_recovers_two_temperatures_per_instant(cli_sweep, count_calls, capsys):
    # one when each run is loaded, every run before the first report, and
    # one for the reference sample, each recovery one call of the one
    # inversion entry per run with one a per stored instant; both reports
    # read the loaded temperatures
    _, out = cli_sweep
    instants = [len(list(rdir.glob("*.snap"))) for rdir in sorted((out / "runs").iterdir())]
    calls = count_calls(thermo, "admissible_temperature")
    assert cli.main(["diag", "--out", str(out)]) == 0
    assert min(instants) > 0
    assert [np.size(args[1]) for args in calls] == instants + instants


def test_sweep_thread_flag_changes_nothing(cli_sweep, tmp_path, capsys):
    cfg, out = cli_sweep
    out2 = tmp_path / "threaded"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out2),
                     "--threads", "3"]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "advance as one batch" in err
    assert (out2 / "manifest.json").read_bytes() == \
        (out / "manifest.json").read_bytes()
    manifest = mf.read_manifest(out / "manifest.json")
    for rec in manifest.records:
        for name in ("solver.csv", "relenergy.csv"):
            assert (out2 / "runs" / rec.run_id / name).read_bytes() == \
                (out / "runs" / rec.run_id / name).read_bytes()


def test_sweep_rejects_fewer_than_one_thread(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "out"
    for threads in ("0", "-2"):
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--threads", threads]) == 2
        assert capsys.readouterr().err.startswith("error: threads must be at least 1")
    assert not out.exists()  # refused before any work


SWEEP16_CFG = SWEEP_CFG.replace("grid.cells = 24", "grid.cells = 16").replace(
    "sweep.a-values = 1e-2 1e-3", "sweep.a-values = 1e-2 1e-3 1e-4")


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def sweep16(tmp_path_factory):
    """A 16-cell, three-point sweep run in this process: (config, its tree)."""
    root = tmp_path_factory.mktemp("sweep16")
    cfg = root / "sweep.cfg"
    cfg.write_text(SWEEP16_CFG)
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(root / "out")]) == 0
    return cfg, _tree(root / "out")


def _nsflab_into_closed_pipe(argv, unbuffered):
    """Run nsflab in a fresh process whose stdout is a pipe with its read end
    already closed: (exit status, stderr bytes)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "nsflab", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write)
    return done.returncode, done.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_stops_no_command(sweep16, tmp_path, unbuffered):
    cfg, want = sweep16
    out = tmp_path / "out"
    assert _nsflab_into_closed_pipe(["sweep", "--config", str(cfg), "--out", str(out)],
                                    unbuffered) == (0, b"")
    assert _tree(out) == want
    runs = sorted((out / "runs").iterdir())
    assert len(runs) == 3
    for rdir in runs:
        for name in ("relenergy.csv", "bounds.txt", "summary.txt"):
            (rdir / name).unlink()
    assert _nsflab_into_closed_pipe(["diag", "--out", str(out)], unbuffered) == (0, b"")
    assert _tree(out) == want
