"""The nsflab benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 30 --trace 0

Every measured process is a fresh child (``perfbench/child.py``) that
imports nsflab from ``src/`` and calls only public entry points.  One load
generator drives one child at a time (closed loop); a unit of work is
repeated while the next one is predicted to end within ``--seconds``, and
at least one unit always runs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of a
separate traced pass, next to one untraced unit that sets the overhead base.
Outputs are checked by the gates below; an operation that fails one counts
in ``failed``.  See ``perfbench/NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUPS = 3            # set-up is repeated and its median reported
DEADLINE_S = 170.0    # children still alive then are killed; the run fails
SWEEP_THREADS = 2

# the README's default well-prepared sweep at the sizes of workloads.json
SWEEP_CFG = """\
grid.extent = 1.0
grid.cells = {cells}
grid.bc = slip-wall
cfl = 0.35
t_end = {t_end!r}
output.stride = 16
init.name = acoustic-entropy
init.amplitude = 0.01
sweep.a-values = 1e-2 1e-3 1e-4
sweep.reference-factor = 4
sweep.reference-stride = 4
"""

# the stored sweep that stored-replay reads back: a coarse grid keeps its
# repeated set-up cheap, while storing every step gives diag about as many
# instants to read and evaluate as the default sweep's output holds
STORED_CFG = """\
grid.extent = 1.0
grid.cells = {cells}
grid.bc = slip-wall
cfl = 0.35
t_end = {t_end!r}
output.stride = 1
init.name = acoustic-entropy
init.amplitude = {amplitude!r}
sweep.a-values = 1e-2 1e-3 1e-4
sweep.reference-factor = 4
sweep.reference-stride = 1
"""

BOX_MODES = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))
DIAG_FILES = ("relenergy.csv", "bounds.txt", "summary.txt")


class SetupError(RuntimeError):
    """The workload could not be prepared; no result is printed."""


# ---------------------------------------------------------------------------
# correctness gates (pure functions of program outputs, so that the
# self-test can feed them corrupted inputs)


def _rel(x, y):
    return abs(x - y) / abs(y) if y != 0.0 else abs(x)


def sweep_gate(manifest: dict, expected: dict) -> dict:
    """Failure messages per run id of one sweep.

    Every point must be healthy and match the frozen e_init, e_sup and
    max_excess within the stated relative tolerances; E_sup must strictly
    decrease along the path and the fit must not be flagged (a failure of
    those fails every point).
    """
    rtol = expected["rtol"]
    frozen = expected["points"]
    fails = {run_id: [] for run_id in frozen}
    records = {r["run_id"]: r for r in manifest.get("records", [])}
    for run_id, want in frozen.items():
        rec = records.get(run_id)
        if rec is None:
            fails[run_id].append("missing from manifest")
            continue
        if not rec["healthy"]:
            fails[run_id].append(f"unhealthy: {rec['reason']}")
            continue
        for key, value in want.items():
            got = rec[key]
            if not (math.isfinite(got) and _rel(got, value) <= rtol[key]):
                fails[run_id].append(
                    f"{key}={got!r} differs from {value!r} by more than {rtol[key]}")
    e_sup = [records[r]["e_sup"] for r in frozen if r in records]
    shared = []
    if any(not later < earlier for earlier, later in zip(e_sup, e_sup[1:])):
        shared.append(f"E_sup not strictly decreasing: {e_sup}")
    if manifest.get("flagged", True):
        shared.append("rate fit flagged")
    for msgs in fails.values():
        msgs.extend(shared)
    return fails


def box_gate(result: dict, limits: dict) -> list:
    fails = []
    if result["aborted"] or not result["healthy"]:
        fails.append(f"unhealthy run: {result['reason']}")
    if not result["mass_drift"] <= limits["mass_drift"]:
        fails.append(f"relative mass drift {result['mass_drift']!r} "
                     f"above {limits['mass_drift']}")
    if not result["energy_balance"] <= limits["energy_balance"]:
        fails.append(f"relative energy-balance error {result['energy_balance']!r} "
                     f"above {limits['energy_balance']}")
    if not _rel(result["final_time"], limits["t_end"]) <= 1e-12:
        fails.append(f"stopped at t={result['final_time']!r}")
    return fails


def read_diag_files(stored: Path) -> dict:
    return {str(p.relative_to(stored)): p.read_bytes()
            for name in DIAG_FILES for p in sorted(stored.glob(f"runs/*/{name}"))}


def remove_diag_files(stored: Path) -> None:
    for name in DIAG_FILES:
        for p in stored.glob(f"runs/*/{name}"):
            p.unlink()


def diag_gate(stored: Path, expected: dict) -> list:
    """diag must regenerate the set-up sweep's diagnostic files bit for bit.

    The caller removes them before each diag, so a file diag did not write
    is missing here rather than left over from the set-up sweep.
    """
    got = read_diag_files(stored)
    fails = [f"{name} differs from the set-up sweep's copy"
             for name, blob in expected.items() if got.get(name) != blob]
    if set(got) != set(expected):
        fails.append(f"diagnostic file set changed: {sorted(set(got) ^ set(expected))}")
    return fails


def ratefit_gate(stdout: str, sweep_stdout: str) -> list:
    """rate-fit on the stored manifest must print the sweep's own fit."""
    fit = [ln for ln in sweep_stdout.splitlines()
           if ln.startswith(("a=", "fitted_constant", "flagged"))]
    if stdout.splitlines() != fit:
        return [f"rate-fit printed {stdout!r}, the sweep printed {fit!r}"]
    return []


# ---------------------------------------------------------------------------
# program processes


class Child:
    """One program process, reaped with its resource usage."""

    def __init__(self, run: "Run", argv, serve: bool):
        self.run = run
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), *argv], cwd=run.root,
            env=run.env, stdin=subprocess.PIPE if serve else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=run.log, text=True)
        run.live.add(self)
        self.maxrss_kb = 0
        self.cpu_s = 0.0

    def expect(self, word: str) -> dict:
        line = self.proc.stdout.readline()
        head, _, body = line.partition(" ")
        if head != word:
            raise ChildError(f"expected {word!r} from the program, got {line!r}")
        return json.loads(body)

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def reap(self) -> tuple:
        """Close pipes, wait; returns (exit code, remaining stdout)."""
        if self.proc.stdin is not None:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.run.live.discard(self)
        self.run.peak_rss_kb = max(self.run.peak_rss_kb, self.maxrss_kb)
        return self.proc.returncode, out


class ChildError(RuntimeError):
    """A program process died or broke the line protocol."""


class Run:
    """Per-invocation state: work directory, child environment, counters."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src, PERFBENCH_SRC=src)
        self.log = open(work / "children.log", "w")
        self.live = set()
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.watchdog = threading.Timer(DEADLINE_S, self.kill_all)
        self.watchdog.daemon = True
        self.watchdog.start()

    def kill_all(self) -> None:
        for child in list(self.live):
            child.proc.kill()

    def close(self) -> None:
        self.watchdog.cancel()
        self.kill_all()
        for child in list(self.live):
            child.reap()
        self.log.close()

    def count(self, ops: int, fails: list, what: str) -> None:
        self.attempted += ops
        if fails:
            self.failed += ops
        self.failures.extend(f"{what}: {msg}" for msg in fails)

    def spec(self, name: str, spec: dict) -> str:
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def serve(self, spec_path: str, trace_out: str = None) -> tuple:
        """Start a serving child and wait until it is ready."""
        child = Child(self, ["serve", spec_path] + ([trace_out] if trace_out else []),
                      serve=True)
        try:
            ready = child.expect("ready")
        except (ChildError, ValueError) as err:
            child.reap()
            raise SetupError(f"program set-up failed: {err}") from err
        return child, time.perf_counter() - child.t0, ready

    def cli(self, argv, trace_out: str = None) -> tuple:
        """One fresh-process CLI invocation: (exit code, stdout, latency, cpu)."""
        child = Child(self, ["cli", trace_out or "-", *argv], serve=False)
        code, out = child.reap()
        return code, out, time.perf_counter() - child.t0, child.cpu_s


# ---------------------------------------------------------------------------
# workloads


def _closed_loop(seconds: float, unit) -> list:
    """Run unit() until the next one is predicted to overrun; its walls."""
    walls = []
    start = time.perf_counter()
    while True:
        wall = unit()
        if wall is None:
            break
        walls.append(wall)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return walls


class ServedWorkload:
    """A workload whose unit of work runs inside one long-lived child."""

    def __init__(self, run: Run, spec_path: str, expected: dict):
        self.run = run
        self.spec_path = spec_path
        self.expected = expected
        self.units = 0
        self.details = []

    def units_in(self, child: Child, seconds: float) -> list:
        cpu_walls = []

        def unit():
            self.units += 1
            name = str(self.run.work / f"op{self.units}")
            try:
                child.send(f"op {name}")
                result = child.expect("done")
            except (ChildError, BrokenPipeError, ValueError) as err:
                self.run.count(self.ops, [f"program died: {err}"], self.name)
                return None
            self.check(result, Path(name))
            cpu_walls.append(result["cpu"] / result["wall"])
            return result["wall"]

        walls = _closed_loop(seconds, unit)
        self.cpu_per_wall = statistics.median(cpu_walls) if cpu_walls else 0.0
        return walls

    def setups(self, count: int, trace_out: str = None) -> tuple:
        """Start `count` children in turn, keep the last; set-up seconds."""
        times = []
        for i in range(count):
            child, setup, ready = self.run.serve(
                self.spec_path, trace_out if i == count - 1 else None)
            times.append(setup)
            self.versions = ready["versions"]
            if i < count - 1:
                child.send("exit")
                child.reap()
        return child, times

    def finish(self, child: Child) -> None:
        try:
            child.send("exit")
        except BrokenPipeError:
            pass
        child.reap()


class SweepDefault(ServedWorkload):
    name = "sweep-default"
    ops = 3  # path points

    def __init__(self, run: Run, seed: int, expected: dict):
        cfg = run.work / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.format(cells=expected["cells"], t_end=expected["t_end"]))
        spec = {"kind": "sweep", "config": str(cfg), "threads": SWEEP_THREADS}
        super().__init__(run, run.spec(self.name, spec), expected)

    def check(self, result: dict, out: Path) -> None:
        if result["code"] != 0:
            fails = {k: [f"nsflab sweep exited {result['code']}"]
                     for k in self.expected["points"]}
        else:
            blob = (out / "manifest.json").read_bytes()
            sha = hashlib.sha256(blob).hexdigest()
            self.details.append(f"manifest sha256 {sha} byte-identical-to-frozen "
                                f"{sha == self.expected['manifest_sha256']}")
            fails = sweep_gate(json.loads(blob), self.expected)
        for run_id, msgs in fails.items():
            self.run.count(1, msgs[:1], f"{self.name} {run_id}")
        shutil.rmtree(out, ignore_errors=True)


class Box2d(ServedWorkload):
    name = "box2d-acoustic"
    ops = 1  # one simulate

    def __init__(self, run: Run, seed: int, expected: dict):
        rng = random.Random(seed)
        spec = {"kind": "box", "cells": expected["cells"], "a": 1e-6,
                "t_end": expected["t_end"], "cfl": 0.35, "output_stride": 6,
                "modes": BOX_MODES,
                "amplitudes": [[rng.uniform(-4e-3, 4e-3) for _ in range(4)]
                               for _ in BOX_MODES]}
        super().__init__(run, run.spec(self.name, spec), expected)

    def check(self, result: dict, out: Path) -> None:
        self.details.append(f"relative mass drift {result['mass_drift']!r} "
                            f"relative energy-balance error {result['energy_balance']!r}")
        self.run.count(1, box_gate(result, self.expected), self.name)


class StoredReplay:
    """Set-up writes a stored sweep; a unit is one diag plus one rate-fit."""

    name = "stored-replay"

    def __init__(self, run: Run, seed: int, expected: dict):
        self.run = run
        rng = random.Random(seed)
        cfg = run.work / "stored.cfg"
        cfg.write_text(STORED_CFG.format(
            cells=expected["cells"], t_end=expected["t_end"],
            amplitude=round(rng.uniform(0.008, 0.012), 6)))
        self.cfg = str(cfg)
        self.diag_lat, self.ratefit_lat = [], []
        self.cpu_walls = []
        self.units = 0

    def setups(self, count: int) -> list:
        times = []
        for i in range(count):
            out = self.run.work / f"stored{i}"
            spec = self.run.spec(f"stored{i}", {"kind": "stored", "config": self.cfg,
                                                "out": str(out)})
            child, setup, ready = self.run.serve(spec)
            child.send("exit")
            child.reap()
            if ready.get("code") != 0:
                raise SetupError(f"stored sweep exited {ready.get('code')}")
            times.append(setup)
            self.versions = ready["versions"]
        self.stored = out
        self.expected = read_diag_files(out)
        self.sweep_stdout = Path(str(out) + ".stdout").read_text()
        if not self.expected:
            raise SetupError("the stored sweep wrote no diagnostic files")
        return times

    def units_in(self, seconds: float, traced: bool) -> list:
        def trace_out(kind):
            return str(self.run.work / f"trace-{kind}{self.units}.json") if traced else None

        def unit():
            self.units += 1
            remove_diag_files(self.stored)
            code, _, diag_lat, diag_cpu = self.run.cli(
                ["diag", "--out", str(self.stored)], trace_out("diag"))
            fails = [f"diag exited {code}"] if code != 0 else diag_gate(
                self.stored, self.expected)
            self.run.count(1, fails[:1], f"{self.name} diag")
            self.diag_lat.append(diag_lat)
            code, out, fit_lat, fit_cpu = self.run.cli(
                ["rate-fit", "--out", str(self.stored)], trace_out("ratefit"))
            fails = [f"rate-fit exited {code}"] if code != 0 else ratefit_gate(
                out, self.sweep_stdout)
            self.run.count(1, fails[:1], f"{self.name} rate-fit")
            self.ratefit_lat.append(fit_lat)
            wall = diag_lat + fit_lat
            self.cpu_walls.append((diag_cpu + fit_cpu) / wall)
            return wall

        return _closed_loop(seconds, unit)


WORKLOADS = {"sweep-default": SweepDefault, "box2d-acoustic": Box2d,
             "stored-replay": StoredReplay}


# ---------------------------------------------------------------------------
# measurement passes


def end_to_end(run: Run, wl, seconds: float) -> tuple:
    """Untraced pass: set-up SETUPS times, then the closed loop."""
    if isinstance(wl, StoredReplay):
        setup = wl.setups(SETUPS)
        run.peak_rss_kb = 0  # peak_rss_mb covers diag and rate-fit, not the stored sweep
        walls = wl.units_in(seconds, traced=False)
        extra = {"diag_p50_s": (statistics.median(wl.diag_lat), "s"),
                 "ratefit_p50_s": (statistics.median(wl.ratefit_lat), "s")}
        notes = [f"diag invocations {len(wl.diag_lat)}",
                 f"rate-fit invocations {len(wl.ratefit_lat)}"]
    else:
        child, setup = wl.setups(SETUPS)
        walls = wl.units_in(child, seconds)
        wl.finish(child)
        extra, notes = {}, wl.details
    if not walls:
        raise SetupError("no unit of work completed")
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (run.peak_rss_kb * 1024 / 1e6, "MB")}
    notes = [f"units {len(walls)} wall_s samples {walls}",
             f"setup_s samples {setup}"] + notes
    return metrics, extra, notes


def _merge(into: dict, summary: dict) -> None:
    for name, s in summary["spans"].items():
        t = into["spans"].setdefault(name, dict.fromkeys(s, 0.0))
        for k, v in s.items():
            t[k] += v
    into["run_euler_calls"] += summary["run_euler_calls"]
    into["run_euler_hits"] += summary["run_euler_hits"]


def import_times(run: Run) -> dict:
    """Cumulative import seconds per nsflab module from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nsflab.cli"],
                          cwd=run.root, env=run.env, capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise SetupError(f"import nsflab.cli failed: {proc.stderr[-500:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative[parts[2]] = int(parts[1]) * 1e-6
    return cumulative


def layer_metric(name: str, spans: dict, units: int):
    """Value of one per-layer metric named <module>.<function>[.a0|.arad].<stat>."""
    span, _, stat = name.rpartition(".")
    s = spans.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
    calls = s["calls"]
    return {
        "calls": calls / units,
        "self_s": s["self_s"] / units,
        "s": s["total_s"] / units,
        "us_per_call": s["total_s"] / calls * 1e6 if calls else 0.0,
        "ns_per_cell": s["total_s"] / s["work"] * 1e9 if s["work"] else 0.0,
        "bytes": s["work"] / units,
    }[stat]


def per_layer(run: Run, wl, seconds: float, wanted: list) -> tuple:
    """Traced pass after one untraced unit; per-layer metrics per unit of work."""
    if isinstance(wl, StoredReplay):
        wl.setups(1)
        base = wl.units_in(0.0, traced=False)
        cpu_per_wall = wl.cpu_walls[0]
        start = wl.units
        traced = wl.units_in(seconds, traced=True)
        trace_files = [run.work / f"trace-{k}{i}.json" for i in range(start + 1, wl.units + 1)
                       for k in ("diag", "ratefit")]
    else:
        child, _ = wl.setups(1)
        base = wl.units_in(child, 0.0)
        wl.finish(child)
        cpu_per_wall = wl.cpu_per_wall
        trace_files = [run.work / "trace-serve.json"]
        child, _ = wl.setups(1, str(trace_files[0]))
        traced = wl.units_in(child, seconds)
        wl.finish(child)
    if not base or not traced:
        raise SetupError("no unit of work completed")
    merged = {"spans": {}, "run_euler_calls": 0, "run_euler_hits": 0}
    for path in trace_files:
        if path.exists():
            _merge(merged, json.loads(path.read_text()))
    spans, units = merged["spans"], len(traced)
    imports = import_times(run)
    step = spans.get("nsf_solver.step", {"total_s": 0.0, "work": 0.0})
    special = {
        "nsf_solver.cell_steps_per_s":
            step["work"] / step["total_s"] if step["total_s"] else 0.0,
        "euler_reference.cache_hit_ratio":
            merged["run_euler_hits"] / merged["run_euler_calls"]
            if merged["run_euler_calls"] else 0.0,
        "import.cli_s": imports.get("nsflab.cli", 0.0),
        "import.expr_s": imports.get("nsflab.expr", 0.0),
        "import.relative_energy_s": imports.get("nsflab.relative_energy", 0.0),
        "import.thermo_s": imports.get("nsflab.thermo", 0.0),
        "process.cpu_per_wall": cpu_per_wall,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(base),
    }
    metrics = {}
    for m in wanted:
        value = special[m["name"]] if m["name"] in special else layer_metric(
            m["name"], spans, units)
        metrics[m["name"]] = (value, m["unit"])
    notes = [f"traced units {units} wall_s {traced}; untraced base {base}"]
    return metrics, notes


# ---------------------------------------------------------------------------


def environment(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), **versions}


def measure(root: Path, workload: str, seed: int, seconds: float, trace: int,
            expected: dict) -> int:
    """One benchmark run of `workload` with the sizes and limits in `expected`."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    results = root / ".perfbench-work"
    work = results / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(root, work)
    try:
        wl = WORKLOADS[workload](run, seed, expected)
        if trace:
            metrics, notes = per_layer(run, wl, seconds, wanted)
            extra = {}
        else:
            metrics, extra, notes = end_to_end(run, wl, seconds)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        run.close()
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2

    env = environment(wl.versions)
    print(f"workload {workload} seed {seed} seconds {seconds} trace {trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in notes:
        print(line)
    for msg in run.failures:
        print(f"FAIL {msg}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric ops {run.attempted} count")
    print(f"metric ops_failed {run.failed} count")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    record = dict(result, env=env, notes=notes, failures=run.failures,
                  extra={k: v[0] for k, v in extra.items()},
                  workload=workload, seed=seed, trace=trace)
    (results / f"result-{workload}-s{seed}-t{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nsflab" / "__init__.py").is_file():
        print(f"perfbench: no nsflab sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "workloads.json").read_text())[args.workload]
    return measure(root, args.workload, args.seed, args.seconds, args.trace, expected)

if __name__ == "__main__":
    sys.exit(main())
