import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsflab import config as cfgmod
from nsflab import diagnostics as diag
from nsflab import euler_reference as er
from nsflab import grid_fields as gf
from nsflab import manifest as mf
from nsflab import nsf_solver as ns
from nsflab import sweep as sweepmod
from nsflab import thermo
from nsflab.errors import ConfigError, DomainError, UsageError

# ---------------------------------------------------------------------------
# path admissibility


def test_validate_path_examples():
    assert sweepmod.validate_path(0.55, 1.2, 0.1) == []
    bad_alpha = sweepmod.validate_path(0.7, 1.2, 0.1)
    assert any("alpha" in msg for msg in bad_alpha)
    bad_beta = sweepmod.validate_path(0.55, 0.9, 0.1)
    assert bad_beta and all("beta" in msg for msg in bad_beta)
    bad_gamma = sweepmod.validate_path(0.55, 1.2, 0.2)
    assert any("gamma" in msg for msg in bad_gamma)
    assert sweepmod.validate_path(float("nan"), 1.2, 0.1)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=0.3, max_value=0.8),
    beta=st.floats(min_value=0.7, max_value=1.5),
    gamma=st.floats(min_value=-0.1, max_value=0.5),
)
def test_validate_path_matches_inequalities(alpha, beta, gamma):
    # stay clear of the boundaries, where powers of a collapse to equal floats
    edges = (abs(alpha - 0.5), abs(alpha - 2.0 / 3.0), abs(beta - 1.0),
             abs(gamma), abs(gamma - (1.0 - 1.5 * alpha)))
    assume(min(edges) > 1e-9)
    admissible = (0.5 < alpha < 2.0 / 3.0) and beta > 1.0 \
        and 0.0 < gamma < 1.0 - 1.5 * alpha
    assert (sweepmod.validate_path(alpha, beta, gamma) == []) == admissible


def test_scaling_path_points():
    path = sweepmod.ScalingPath(a_values=(1e-2, 1e-4))
    sc = path.scaling_for(1e-2)
    assert sc.nu == pytest.approx(10.0 ** -1.1, rel=1e-12)
    assert sc.omega == pytest.approx(10.0 ** -2.4, rel=1e-12)
    assert sc.lam == pytest.approx(10.0 ** -0.2, rel=1e-12)
    assert [path.scaling_for(a).a for a in path.a_values] == [1e-2, 1e-4]
    # a single point is a degenerate but allowed path
    assert sweepmod.ScalingPath(a_values=(1e-2,)).a_values == (0.01,)


def test_scaling_path_rejects_bad_values():
    with pytest.raises(DomainError, match="strictly decreasing"):
        sweepmod.ScalingPath(a_values=(1e-3, 1e-2))
    with pytest.raises(DomainError, match="positive"):
        sweepmod.ScalingPath(a_values=(1e-2, 0.0))
    with pytest.raises(DomainError, match="at least one"):
        sweepmod.ScalingPath(a_values=())
    with pytest.raises(DomainError, match="alpha"):
        sweepmod.ScalingPath(a_values=(1e-2, 1e-3), alpha=0.7)


# ---------------------------------------------------------------------------
# rate fitting on synthetic manifests


def _manifest(records):
    return mf.SweepManifest(
        alpha=0.55, beta=1.2, gamma=0.1,
        a_values=tuple(r.a for r in records),
        config_hash="cfg", grid_hash="grid", reference_key="ref",
        t_safe=1.0, records=tuple(records),
        fitted_constant=float("nan"), flagged=False,
    )


def _record(a, e_sup, envelope, e_init=0.0, healthy=True, reason=""):
    return mf.RunRecord(
        run_id=sweepmod.run_id_for(a), a=a, healthy=healthy, reason=reason,
        e_init=e_init, e_sup=e_sup, envelope=envelope, max_excess=0.0)


def test_fit_constant_ratio_no_flag():
    envs = (0.8, 0.7, 0.6)
    man = _manifest([_record(a, 2.0 * e, e)
                     for a, e in zip((1e-2, 1e-3, 1e-4), envs)])
    fit = mf.fit_rate(man)
    assert fit.ratios == (2.0, 2.0, 2.0)
    assert fit.fitted_constant == 2.0
    assert not fit.flagged


def test_fit_flags_growing_ratios():
    envs = (1e-2, 1e-4, 1e-6)
    man = _manifest([_record(a, math.sqrt(e), e)
                     for a, e in zip((1e-2, 1e-3, 1e-4), envs)])
    fit = mf.fit_rate(man)
    assert fit.ratios[-1] > 100.0 * fit.ratios[0]
    assert fit.flagged


def test_fit_zero_handling():
    man = _manifest([_record(a, 0.0, 0.5) for a in (1e-2, 1e-3)])
    fit = mf.fit_rate(man)
    assert fit.ratios == (0.0, 0.0) and fit.fitted_constant == 0.0
    assert not fit.flagged
    # a ratio that appears out of nothing is unbounded growth
    man = _manifest([_record(1e-2, 0.0, 0.5), _record(1e-3, 0.1, 0.5)])
    assert mf.fit_rate(man).flagged


def test_fit_excludes_unhealthy_and_needs_two():
    records = [
        _record(1e-2, 1.0, 0.5),
        _record(1e-3, float("nan"), 0.45, healthy=False, reason="aborted"),
        _record(1e-4, 0.9, 0.4),
    ]
    fit = mf.fit_rate(_manifest(records))
    assert fit.a_values == (1e-2, 1e-4) and len(fit.ratios) == 2
    with pytest.raises(UsageError, match="at least two healthy"):
        mf.fit_rate(_manifest(records[:2]))


def test_fit_report_text():
    man = _manifest([_record(a, 2.0 * e, e) for a, e in zip((1e-2, 1e-3), (0.8, 0.7))])
    text = mf.fit_rate(man).to_text()
    assert "fitted_constant 2.0" in text and "flagged False" in text


def test_manifest_round_trip(tmp_path):
    man = _manifest([_record(1e-2, 1.0, 0.5),
                     _record(1e-3, float("nan"), 0.4, healthy=False, reason="x")])
    path = tmp_path / "manifest.json"
    mf.write_manifest(man, path)
    back = mf.read_manifest(path)
    assert back.a_values == man.a_values
    assert back.records[0] == man.records[0]
    assert not back.records[1].healthy and back.records[1].reason == "x"
    assert math.isnan(back.records[1].e_sup)
    assert math.isnan(back.fitted_constant)
    assert json.loads(path.read_text())["grid_hash"] == "grid"


# ---------------------------------------------------------------------------
# end-to-end sweeps (small grids, short horizons)


TINY = {"grid.extent": "1.0", "grid.cells": "24", "grid.bc": "slip-wall",
        "init.amplitude": "0.01", "t_end": "0.25", "cfl": "0.35", "output.stride": "8",
        "sweep.a-values": "1e-2 1e-3", "sweep.reference-factor": "2",
        "sweep.reference-stride": "4"}
TINY_PATH = sweepmod.ScalingPath(a_values=(1e-2, 1e-3))
# a strong pulse exhausts the reference early: t_safe < t_end
PULSE = {**TINY, "init.name": "compressive-pulse", "init.amplitude": "5.0",
         "t_end": "0.5", "output.stride": "16"}


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    manifest = sweepmod.run_sweep(TINY, out)
    return TINY, out, manifest


def test_sweep_records_and_fit(tiny_sweep):
    _, out, manifest = tiny_sweep
    assert manifest.t_safe == 0.25
    assert [r.a for r in manifest.records] == [1e-2, 1e-3]
    for rec in manifest.records:
        assert rec.healthy and rec.reason == ""
        assert rec.envelope == diag.rate_envelope(TINY_PATH.scaling_for(rec.a))
        assert 0.0 <= rec.e_init < 1e-9      # shared closed-form data
        assert 1e-7 < rec.e_sup < 1e-3
        assert rec.max_excess < 1e-6
    e_sups = [r.e_sup for r in manifest.records]
    assert e_sups[0] > e_sups[1]
    ratios = [r.e_sup / (r.e_init + r.envelope) for r in manifest.records]
    assert manifest.fitted_constant == max(ratios)
    assert not manifest.flagged


def test_sweep_outputs_on_disk(tiny_sweep):
    _, out, manifest = tiny_sweep
    assert mf.read_manifest(out / "manifest.json") == manifest
    plot = (out / "plot_rate.dat").read_text().splitlines()
    assert plot[0] == "# a envelope e_sup e_sup_over_envelope"
    assert len(plot) == 3
    a, env, e_sup, ratio = (float(tok) for tok in plot[1].split())
    assert (a, env, e_sup) == (1e-2, manifest.records[0].envelope,
                               manifest.records[0].e_sup)
    ref_map = cfgmod.load_file(out / "reference.cfg")
    assert ref_map["solver"] == "euler" and ref_map["grid.cells"] == "48"
    for rec in manifest.records:
        rdir = out / "runs" / rec.run_id
        names = {p.name for p in rdir.iterdir()}
        assert {"run.cfg", "solver.csv", "relenergy.csv", "bounds.txt",
                "summary.txt"} <= names
        assert sum(n.endswith(".snap") for n in names) >= 3


def test_sweep_run_config_reproduces_scalings(tiny_sweep):
    _, out, manifest = tiny_sweep
    rec = manifest.records[0]
    mapping = cfgmod.load_file(out / "runs" / rec.run_id / "run.cfg")
    kind, run_cfg, _ = cfgmod.build_run(mapping)
    assert kind == "nsf"
    sc = TINY_PATH.scaling_for(rec.a)
    assert run_cfg.scaling.a == sc.a and run_cfg.scaling.nu == sc.nu
    assert run_cfg.scaling.omega == sc.omega and run_cfg.scaling.lam == sc.lam
    assert run_cfg.t_end == manifest.t_safe


def test_load_run_reproduces_diagnostics(tiny_sweep):
    _, out, manifest = tiny_sweep
    from nsflab import euler_reference as er

    ref_map = cfgmod.load_file(out / "reference.cfg")
    _, ref_cfg, ref_scenario = cfgmod.build_run(ref_map)
    reference = er.run_euler(ref_cfg, ref_scenario.fields(ref_cfg.grid),
                             cache_dir=out / "reference-cache")
    for rec in manifest.records:
        rdir = out / "runs" / rec.run_id
        _, _, traj = sweepmod.load_run(rdir)
        report = diag.rel_energy_inequality_residual(traj, reference)
        assert report.csv() == (rdir / "relenergy.csv").read_text()
        assert diag.uniform_bounds(traj).to_text() == (rdir / "bounds.txt").read_text()
        assert report.summary() == (rdir / "summary.txt").read_text()


def test_run_diagnostics_invert_only_the_reference_sample(tiny_sweep, count_calls, tmp_path):
    # a fresh trajectory carries each stored state's temperature, so the
    # reports invert nothing and the reference sample is the one inversion:
    # one call with one a per stored instant
    _, out, manifest = tiny_sweep
    ref_map = cfgmod.load_file(out / "reference.cfg")
    _, ref_cfg, ref_scenario = cfgmod.build_run(ref_map)
    reference = er.run_euler(ref_cfg, ref_scenario.fields(ref_cfg.grid),
                             cache_dir=out / "reference-cache")
    rdir = out / "runs" / manifest.records[0].run_id
    mapping = cfgmod.load_file(rdir / "run.cfg")
    _, run_cfg, scenario = cfgmod.build_run(mapping)
    traj = ns.simulate(run_cfg, scenario.fields(run_cfg.grid))
    for state, theta in zip(traj.states, traj.thetas, strict=True):
        assert theta.tobytes() == ns.recover_temperature(
            state.rho, state.mom, state.etot, run_cfg.gas, run_cfg.scaling.a).tobytes()
    calls = count_calls(thermo, "admissible_temperature")
    sweepmod.write_run_diagnostics(tmp_path, traj, reference)
    assert len(traj.times) >= 3
    assert [np.size(args[1]) for args in calls] == [len(traj.times)]
    for name in ("relenergy.csv", "bounds.txt", "summary.txt"):
        assert (tmp_path / name).read_bytes() == (rdir / name).read_bytes()


def test_run_diagnostics_stack_the_run_once(tiny_sweep, count_calls, tmp_path):
    # both reports share one stack of the loaded run: the run's velocity and
    # temperature gradients are taken once each, beside the residual's three
    # of the reference sample, and the files keep their bytes
    _, out, manifest = tiny_sweep
    ref_map = cfgmod.load_file(out / "reference.cfg")
    _, ref_cfg, ref_scenario = cfgmod.build_run(ref_map)
    reference = er.run_euler(ref_cfg, ref_scenario.fields(ref_cfg.grid),
                             cache_dir=out / "reference-cache")
    rdir = out / "runs" / manifest.records[0].run_id
    _, _, traj = sweepmod.load_run(rdir)
    stacks = count_calls(diag, "stack_run")
    gradients = count_calls(gf, "interior_gradient")
    sweepmod.write_run_diagnostics(tmp_path, traj, reference)
    assert len(stacks) == 1 and len(gradients) == 5
    for name in ("relenergy.csv", "bounds.txt", "summary.txt"):
        assert (tmp_path / name).read_bytes() == (rdir / name).read_bytes()


def _loop_thetas(states, run_cfg):
    """load_run's temperatures recovered one snapshot at a time, as it did
    before it stacked them: the oracle of the stacked recovery."""
    return [ns.recover_temperature(s.rho, s.mom, s.etot, run_cfg.gas, run_cfg.scaling.a)
            for s in states]


def test_load_run_thetas_match_the_per_snapshot_loop_bitwise(tiny_sweep):
    _, out, manifest = tiny_sweep
    for rec in manifest.records:
        _, run_cfg, traj = sweepmod.load_run(out / "runs" / rec.run_id)
        assert run_cfg.scaling.a > 0.0 and len(traj.states) >= 3
        want = _loop_thetas(traj.states, run_cfg)
        assert [th.tobytes() for th in traj.thetas] == [th.tobytes() for th in want]


def test_load_run_raises_what_the_first_bad_snapshot_raises(tiny_sweep, tmp_path):
    # snapshot 1 has no internal energy in cell 3 and snapshot 2 no density
    # in cell 1: stacked, the density check would name snapshot 2 first;
    # the error is snapshot 1's own, prefixed by its path
    _, out, manifest = tiny_sweep
    rdir = tmp_path / "run"
    shutil.copytree(out / "runs" / manifest.records[0].run_id, rdir)
    snaps = sorted(rdir.glob("*.snap"))
    for snap, cell, row in ((snaps[1], 3, -1), (snaps[2], 1, 0)):  # etot, rho
        grid, t, W = gf.read_snapshot(snap)
        W = W.copy()
        W[1:-1, cell] = 0.0
        W[row, cell] = 0.0
        gf.write_snapshot(snap, grid, t, W)
    mapping = cfgmod.load_file(rdir / "run.cfg")
    _, run_cfg, _ = cfgmod.build_run(mapping)
    times, W = gf.read_series(rdir, run_cfg.grid)
    with pytest.raises(Exception) as want:
        _loop_thetas(ns.Trajectory(config=run_cfg, times=times, W=W).states, run_cfg)
    with pytest.raises(type(want.value)) as got:
        sweepmod.load_run(rdir)
    assert str(want.value) == "non-positive internal energy at cell (3,)"
    assert str(got.value) == f"snapshot {snaps[1]}: {want.value}"


def test_load_run_checks_a_healthy_run_once(tiny_sweep, count_calls):
    # one check of the stored stack, not one per snapshot
    _, out, manifest = tiny_sweep
    checks = count_calls(gf.FluidState, "_check_fields")
    _, _, traj = sweepmod.load_run(out / "runs" / manifest.records[0].run_id)
    assert len(traj.times) >= 3 and len(checks) == 1


def test_load_run_rejects_missing_and_foreign_snapshots(tiny_sweep, tmp_path):
    _, out, manifest = tiny_sweep
    rdir = tmp_path / "run"
    rdir.mkdir()
    shutil.copy(out / "runs" / manifest.records[0].run_id / "run.cfg", rdir)
    with pytest.raises(UsageError, match="no snapshots"):
        sweepmod.load_run(rdir)
    other = gf.Grid.line(1.0, 12, "slip-wall")
    gf.write_snapshot(rdir / "00000.snap", other, 0.0,
                      np.stack([np.ones(12), np.zeros(12), np.full(12, 2.0)]))
    with pytest.raises(UsageError, match="does not match"):
        sweepmod.load_run(rdir)


def test_load_run_reads_the_last_run_written_to_a_directory(tmp_path):
    text = ("solver = nsf\nscaling.a = 0.01\nscaling.nu = 0.005\n"
            "scaling.omega = 0.001\nscaling.lambda = 0.2\ngrid.extent = 1.0\n"
            "grid.cells = 16\ngrid.bc = slip-wall\ncfl = 0.35\n"
            "output.stride = 1\ninit.name = acoustic-entropy\n")
    for t_end in ("0.2", "0.05"):
        mapping = cfgmod.parse_text(text + f"t_end = {t_end}\n")
        _, run_cfg, scenario = cfgmod.build_run(mapping)
        traj = ns.simulate(run_cfg, scenario.fields(run_cfg.grid))
        sweepmod.write_nsf_run(tmp_path, mapping, traj)
    _, _, loaded = sweepmod.load_run(tmp_path)
    assert loaded.times == traj.times
    assert loaded.times[-1] == pytest.approx(0.05)


def test_rewritten_run_keeps_no_stale_reports(tiny_sweep, tmp_path):
    # the same sweep again, storing too few instants for diagnostics: the
    # first sweep's reports must not stay beside the new snapshots
    cfg, out, manifest = tiny_sweep
    out2 = tmp_path / "again"
    shutil.copytree(out, out2)
    manifest2 = sweepmod.run_sweep({**cfg, "output.stride": "100000"}, out2)
    for rec in manifest2.records:
        assert not rec.healthy and "too few stored instants" in rec.reason
        rdir = out2 / "runs" / rec.run_id
        assert len(list(rdir.glob("*.snap"))) == 2
        for name in ("relenergy.csv", "bounds.txt", "summary.txt"):
            assert (out / "runs" / rec.run_id / name).is_file()
            assert not (rdir / name).exists()


def test_sweep_thread_count_is_invisible(tiny_sweep, tmp_path):
    cfg, out, manifest = tiny_sweep
    out2 = tmp_path / "threaded"
    manifest2 = sweepmod.run_sweep(cfg, out2)
    assert (out2 / "manifest.json").read_bytes() == (out / "manifest.json").read_bytes()
    assert (out2 / "plot_rate.dat").read_bytes() == (out / "plot_rate.dat").read_bytes()
    for rec in manifest.records:
        for name in ("run.cfg", "solver.csv", "relenergy.csv", "bounds.txt",
                     "summary.txt"):
            assert (out2 / "runs" / rec.run_id / name).read_bytes() == \
                (out / "runs" / rec.run_id / name).read_bytes()
    assert manifest2 == manifest


def test_single_point_sweep(tmp_path):
    cfg = {**TINY, "sweep.a-values": "1e-2", "t_end": "0.1"}
    manifest = sweepmod.run_sweep(cfg, tmp_path / "single")
    assert len(manifest.records) == 1
    rec = manifest.records[0]
    assert rec.healthy and math.isfinite(rec.e_sup)
    assert math.isnan(manifest.fitted_constant) and not manifest.flagged


def test_sweep_keeps_unhealthy_runs_out_of_fit(tmp_path):
    # a strong pulse exhausts the reference early; the safe horizon is then
    # too short for the low-dissipation run to store three instants
    out = tmp_path / "pulse"
    manifest = sweepmod.run_sweep(PULSE, out)
    assert 0.0 < manifest.t_safe < 0.05
    assert manifest.records[0].healthy
    assert not manifest.records[1].healthy
    assert "too few stored instants" in manifest.records[1].reason
    assert math.isnan(manifest.records[1].e_sup)
    assert math.isnan(manifest.fitted_constant)
    # the unhealthy run still left its outputs behind
    rdir = out / "runs" / manifest.records[1].run_id
    assert (rdir / "solver.csv").is_file()
    assert not (rdir / "relenergy.csv").exists()
    assert len((out / "plot_rate.dat").read_text().splitlines()) == 2
    with pytest.raises(UsageError, match="at least two healthy"):
        mf.fit_rate(manifest)


# ---------------------------------------------------------------------------
# the reference in a worker process


def _sequential_sweep(cfg, out_dir):
    """`run_sweep` as it ran before the reference moved to a worker process:
    the reference first, then the batch to its horizon.  Kept as the oracle
    of every byte the sweep writes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path, (ref_mapping, ref_cfg, ref_scenario), (run_mapping, _, _) = sweepmod.sweep_runs(cfg)
    (out / "reference.cfg").write_text(cfgmod.render(ref_mapping), encoding="ascii")
    if "slip-wall" in ref_cfg.grid.bc:
        er.compatibility_check(ref_scenario.rho, ref_scenario.theta,
                               ref_scenario.u, ref_cfg.grid, ref_cfg.gas)
    ref_state = ns.state_from_primitives(ref_cfg.gas, 0.0, ref_scenario.fields(ref_cfg.grid))
    ref_key = er.reference_key(ref_cfg, ref_state)
    reference = er.run_euler(ref_cfg, ref_state, cache_dir=out / "reference-cache")
    t_safe = er.lifespan_monitor(reference).usable_until
    assert t_safe > 0.0
    a_values = path.a_values
    scalings = [path.scaling_for(a) for a in a_values]
    mappings = [sweepmod._point_mapping(run_mapping, sc, t_safe) for sc in scalings]
    _, run_cfg, scenario = cfgmod.build_run(mappings[0])
    trajs = ns.simulate_batch([replace(run_cfg, scaling=sc) for sc in scalings],
                              scenario.fields(run_cfg.grid))
    records = tuple(sweepmod._point_record(reference, a, mapping, traj, out)
                    for a, mapping, traj in zip(a_values, mappings, trajs))
    healthy = [r for r in records if r.healthy]
    manifest = mf.SweepManifest(
        alpha=path.alpha, beta=path.beta, gamma=path.gamma,
        a_values=a_values,
        config_hash=sweepmod._hash16(cfgmod.render(ref_mapping)),
        grid_hash=sweepmod._hash16(repr((run_cfg.grid.extents, run_cfg.grid.cells,
                                         run_cfg.grid.bc))),
        reference_key=ref_key, t_safe=float(t_safe), records=records,
        fitted_constant=float("nan"), flagged=False)
    if len(healthy) >= 2:
        fit = mf.fit_rate(manifest)
        manifest = replace(manifest, fitted_constant=fit.fitted_constant,
                           flagged=fit.flagged)
    mf.write_manifest(manifest, out / "manifest.json")
    lines = ["# a envelope e_sup e_sup_over_envelope"]
    for r in healthy:
        lines.append(f"{r.a!r} {r.envelope!r} {r.e_sup!r} {r.e_sup / r.envelope!r}")
    (out / "plot_rate.dat").write_text("\n".join(lines) + "\n", encoding="ascii")
    return manifest


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}




@pytest.mark.parametrize("name", ["tiny", "pulse"])
def test_sweep_writes_the_bytes_of_the_sequential_sweep(name, tiny_sweep, tmp_path):
    if name == "tiny":
        cfg, out, manifest = tiny_sweep
        assert manifest.t_safe == 0.25
    else:
        cfg, out = PULSE, tmp_path / "pulse"
        manifest = sweepmod.run_sweep(cfg, out)
        assert manifest.t_safe < 0.5
    want = _sequential_sweep(cfg, tmp_path / "sequential")
    assert manifest.json() == want.json()
    got, expected = _files(out), _files(tmp_path / "sequential")
    assert sorted(got) == sorted(expected) and len(got) > 10
    for rel, blob in expected.items():
        assert got[rel] == blob, rel
    assert multiprocessing.active_children() == []


def test_sweep_reruns_a_batch_that_outran_a_shorter_horizon(tmp_path, monkeypatch):
    # the worker reports a horizon half the requested t_end only after the
    # speculative batch has already reached t_end: the batch runs again
    def half_horizon(traj):
        return er.LifespanReport(smooth_through_end=False, t_star=traj.t_end,
                                 usable_until=0.5 * traj.t_end, trigger="gradient-growth")

    real_worker = sweepmod._reference_worker

    def late_worker(*args):
        time.sleep(1.0)
        real_worker(*args)

    cfg = {**TINY, "t_end": "0.1"}
    monkeypatch.setattr(er, "lifespan_monitor", half_horizon)
    monkeypatch.setattr(sweepmod, "_reference_worker", late_worker)
    manifest = sweepmod.run_sweep(cfg, tmp_path / "late")
    assert manifest.t_safe == 0.05
    want = _sequential_sweep(cfg, tmp_path / "sequential")
    assert manifest.json() == want.json()
    assert _files(tmp_path / "late") == _files(tmp_path / "sequential")


def test_sweep_leaves_no_worker_behind(tmp_path, monkeypatch):
    # after a sweep that fails for want of a horizon ...
    def no_horizon(traj):
        return er.LifespanReport(smooth_through_end=False, t_star=0.0,
                                 usable_until=0.0, trigger="aborted")

    with monkeypatch.context() as m:
        m.setattr(er, "lifespan_monitor", no_horizon)
        with pytest.raises(UsageError, match="no usable smooth horizon"):
            sweepmod.run_sweep(TINY, tmp_path / "no-horizon")
    assert multiprocessing.active_children() == []
    # ... and after one whose batch raises
    with pytest.raises(ConfigError, match="positivity floors"):
        sweepmod.run_sweep({**TINY, "floors": "0.5 1e-12"}, tmp_path / "floors")
    assert multiprocessing.active_children() == []


def test_sweep_refuses_its_run_config_before_the_reference(tmp_path, count_calls):
    # the path points' config is built before the worker starts: a stride
    # of 0 ends the sweep with no reference stepped and no cache written
    runs = count_calls(er, "run_euler")
    out = tmp_path / "stride-0"
    with pytest.raises(ConfigError, match="output_stride must be at least 1"):
        sweepmod.run_sweep({**TINY, "output.stride": "0"}, out)
    assert runs == [] and not (out / "reference-cache").exists()
    assert multiprocessing.active_children() == []


def test_sweep_worker_writes_nothing(tmp_path, capfd):
    sweepmod.run_sweep({**TINY, "t_end": "0.1"}, tmp_path / "quiet")
    assert capfd.readouterr() == ("", "")


def test_sweep_runs_as_before_without_its_worker(tiny_sweep, tmp_path, monkeypatch,
                                                 count_calls):
    cfg, out, _ = tiny_sweep

    def cannot_start(self):
        raise OSError("no process for the worker")

    def dies(ref_mapping, cache_dir):
        os._exit(3)

    with monkeypatch.context() as m:
        m.setattr(multiprocessing.Process, "start", cannot_start)
        sweepmod.run_sweep(cfg, tmp_path / "no-worker")
    # a forked worker runs the patched body; a spawned one imports the real
    # one, and the bytes are the same either way; the batch that outlives
    # the worker computes the reference and its run to t_end stands
    batches = count_calls(ns, "simulate_batch")
    with monkeypatch.context() as m:
        m.setattr(sweepmod, "_reference_worker", dies)
        sweepmod.run_sweep(cfg, tmp_path / "dead-worker")
    assert len(batches) == 1
    assert multiprocessing.active_children() == []
    want = _files(out)
    for name in ("no-worker", "dead-worker"):
        assert _files(tmp_path / name) == want


def test_sweep_builds_each_point_once(tiny_sweep, tmp_path, count_calls):
    # t_safe = t_end: the speculative batch stands, and its entry checks
    # are the only ones
    cfg, out, manifest = tiny_sweep
    checks = count_calls(ns, "_check_initial_data")
    sweepmod.run_sweep(cfg, tmp_path / "once")
    assert manifest.t_safe == 0.25
    assert len(checks) == len(TINY_PATH.a_values)
    assert _files(tmp_path / "once") == _files(out)


def test_sweep_reads_a_cached_reference_before_any_work(tiny_sweep, tmp_path, count_calls):
    # a damaged cache snapshot fails the sweep with the read's own message
    # before it writes anything, starts a worker or steps its batch
    cfg, out, _ = tiny_sweep
    again = tmp_path / "damaged"
    shutil.copytree(out / "reference-cache", again / "reference-cache")
    snap = sorted((again / "reference-cache").glob("euler-*/*.snap"))[2]
    snap.write_bytes(snap.read_bytes()[:100])
    rhs = count_calls(ns, "rhs_nsf")
    starts = count_calls(multiprocessing.Process, "start")
    with pytest.raises(UsageError, match=f"{snap} is not a field snapshot"):
        sweepmod.run_sweep(cfg, again)
    assert rhs == [] and starts == []
    assert sorted(p.name for p in again.iterdir()) == ["reference-cache"]
    assert multiprocessing.active_children() == []


def test_sweep_with_a_cached_reference_starts_no_worker(tiny_sweep, tmp_path, count_calls):
    # an intact cache entry is loaded first: one batch runs straight to the
    # horizon, with no worker, and writes the bytes of a fresh sweep
    cfg, out, _ = tiny_sweep
    again = tmp_path / "cached"
    shutil.copytree(out / "reference-cache", again / "reference-cache")
    starts = count_calls(multiprocessing.Process, "start")
    batches = count_calls(ns, "simulate_batch")
    sweepmod.run_sweep(cfg, again)
    assert starts == [] and len(batches) == 1
    assert _files(again) == _files(out)


def test_sweep_refuses_an_out_holding_runs_of_another_path(tiny_sweep, tmp_path):
    # the runs a sweep does not write would stay beside its manifest, and
    # `nsflab diag` would rate them against the new reference
    cfg, out, manifest = tiny_sweep
    shared = tmp_path / "shared"
    shutil.copytree(out, shared)
    before = _files(shared)
    one_point = {**cfg, "sweep.a-values": "1e-2"}
    with pytest.raises(UsageError, match=r"runs/a1\.000e-03 is not a run of this sweep's path"):
        sweepmod.run_sweep(one_point, shared)
    assert _files(shared) == before
    assert multiprocessing.active_children() == []


def test_stored_replay_paths_leave_multiprocessing_unimported():
    code = ("import sys; import nsflab.cli, nsflab.sweep; "
            "sys.exit('multiprocessing' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(sweepmod.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# ---------------------------------------------------------------------------
# configuration


def test_run_id_format():
    assert sweepmod.run_id_for(1e-2) == "a1.000e-02"
    assert sweepmod.run_id_for(3.5e-4) == "a3.500e-04"


def test_reference_grid():
    _, (_, fine, _), (_, run_cfg, _) = sweepmod.sweep_runs(
        {**TINY, "sweep.reference-factor": "4"})
    assert fine.grid.cells == (96,) and fine.grid.extents == (1.0,)
    assert fine.grid.bc == ("slip-wall",) and run_cfg.grid.cells == (24,)
    for key in ("sweep.reference-factor", "sweep.reference-stride"):
        with pytest.raises(ConfigError, match=f"^{key} must be at least 1, got 0$"):
            sweepmod.sweep_runs({**TINY, key: "0"})


def test_sweep_runs_defaults_and_rejections():
    text = ("grid.extent = 1\ngrid.cells = 24\ngrid.bc = slip-wall\n"
            "init.gap = 0.02\n")
    path, (ref_mapping, ref_cfg, _), (run_mapping, run_cfg, _) = \
        sweepmod.sweep_runs(cfgmod.parse_text(text))
    assert path.a_values == (1e-2, 1e-3, 1e-4)
    assert path.alpha == 0.55 and path.beta == 1.2 and path.gamma == 0.1
    assert run_mapping["init.gap"] == "0.02" and ref_mapping["init.gap"] == "0.0"
    assert run_cfg.t_end == ref_cfg.t_end == 1.0 and run_cfg.cfl == ref_cfg.cfl == 0.35
    assert run_cfg.output_stride == 16 and ref_cfg.output_stride == 4
    assert ref_cfg.grid.cells == (96,)
    # values are copied as written
    assert run_mapping["grid.extent"] == ref_mapping["grid.extent"] == "1"
    for extra in ("solver = nsf", "scaling.a = 0.1"):
        with pytest.raises(ConfigError, match="does not apply to a sweep"):
            sweepmod.sweep_runs(cfgmod.parse_text(text + extra + "\n"))
    for removed in ("sweep.gap = 0.02", "convective.order = auto"):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            cfgmod.parse_text(text + removed + "\n")


def test_sweep_writes_the_pinned_configuration(tiny_sweep):
    # the bytes the sweep wrote before its runs' files derived from the key
    # table; _sequential_sweep shares that code, so this is the oracle
    _, out, manifest = tiny_sweep
    assert (out / "reference.cfg").read_text() == (
        "solver = euler\ngas.name = ideal\ngas.S0 = 0.0\ngrid.extent = 1.0\n"
        "grid.cells = 48\ngrid.bc = slip-wall\ncfl = 0.35\nt_end = 0.25\n"
        "output.stride = 4\ninit.name = acoustic-entropy\ninit.amplitude = 0.01\n"
        "init.gap = 0.0\n")
    assert (out / "runs" / "a1.000e-03" / "run.cfg").read_text() == (
        "solver = nsf\ngas.name = ideal\ngas.S0 = 0.0\ntransport.name = default\n"
        "scaling.a = 0.001\nscaling.nu = 0.02238721138568339\n"
        "scaling.omega = 0.0002511886431509581\nscaling.lambda = 0.5011872336272722\n"
        "grid.extent = 1.0\ngrid.cells = 24\ngrid.bc = slip-wall\ncfl = 0.35\n"
        "t_end = 0.25\noutput.stride = 8\nfloors = 1e-12 1e-12\n"
        "init.name = acoustic-entropy\ninit.amplitude = 0.01\ninit.gap = 0.0\n")
    assert manifest.config_hash == "37641992b3da2942"


def test_sweep_run_config_of_a_custom_gas_holds_the_keys_written():
    # gas.P_inf and transport.b are left to the builders' defaults, as the
    # configuration leaves them
    cfg = {**TINY, "gas.name": "lawA", "gas.law": "Z + Z^2/(1+Z)",
           "transport.name": "sublinear", "t_end": "0.1"}
    _, (ref_mapping, _, _), (run_mapping, run_cfg, _) = sweepmod.sweep_runs(cfg)
    assert cfgmod.render(run_mapping) == (
        "solver = nsf\ngas.name = lawA\ngas.law = Z + Z^2/(1+Z)\ngas.S0 = 0.0\n"
        "transport.name = sublinear\nscaling.a = 0.01\nscaling.nu = 0.07943282347242814\n"
        "scaling.omega = 0.003981071705534973\nscaling.lambda = 0.6309573444801932\n"
        "grid.extent = 1.0\ngrid.cells = 24\ngrid.bc = slip-wall\ncfl = 0.35\n"
        "t_end = 0.1\noutput.stride = 8\nfloors = 1e-12 1e-12\n"
        "init.name = acoustic-entropy\ninit.amplitude = 0.01\ninit.gap = 0.0\n")
    assert "gas.P_inf" not in ref_mapping
    assert run_cfg.gas.P_inf == 0.0 and run_cfg.transport.b == 0.75


@pytest.mark.parametrize("key, value, error", [
    ("solver", "nsf", "solver does not apply to a sweep"),
    ("sweep.alpha", "0.7", "alpha must lie in"),
    ("output.stride", "0", "output_stride must be at least 1"),
    ("sweep.reference-factor", "0", "sweep.reference-factor must be at least 1"),
])
def test_sweep_refuses_a_bad_configuration_before_any_work(tmp_path, count_calls, key,
                                                           value, error):
    runs = count_calls(er, "run_euler")
    batches = count_calls(ns, "simulate_batch")
    out = tmp_path / "out"
    with pytest.raises((ConfigError, DomainError), match=error):
        sweepmod.run_sweep({**TINY, key: value}, out)
    assert runs == [] and batches == [] and not out.exists()
    assert multiprocessing.active_children() == []
