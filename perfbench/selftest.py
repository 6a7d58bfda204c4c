"""Quick self-test of the benchmark on tiny inputs (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload at tiny sizes in both modes and checks that each
metric of BENCHMARK.json is printed with its unit and no operation fails.
It then corrupts a frozen sweep fingerprint and a stored diagnostic file,
and makes diag skip every stored run so that it writes nothing; it checks
that the affected operations are counted as failed, not passed.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

TINY = {
    "sweep-default": {"cells": 16, "t_end": 1.0,
                      "rtol": {"e_init": 1e-3, "e_sup": 1e-6, "max_excess": 1e-4},
                      "manifest_sha256": ""},
    "box2d-acoustic": {"cells": 12, "t_end": 0.05, "mass_drift": 1e-12,
                       "energy_balance": 1e-9},
    "stored-replay": {"cells": 8, "t_end": 0.1},
}


def _measure_quiet(root: Path, workload: str, trace: int, expected: dict) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bench.measure(root, workload, 3, 0.1, trace, expected)
    return code, buf.getvalue()


def replay_once(root: Path, work: Path, spoil) -> "bench.Run":
    """One stored-replay unit after spoil(workload) has altered its inputs."""
    work.mkdir()
    run = bench.Run(root, work)
    try:
        wl = bench.StoredReplay(run, 3, TINY["stored-replay"])
        wl.setups(1)
        spoil(wl)
        wl.units_in(0.0, traced=False)
    finally:
        run.close()
    return run


def corrupt_bounds(wl) -> None:
    name = next(n for n in wl.expected if n.endswith("bounds.txt"))
    wl.expected[name] += b"corrupted\n"


def keep_two_snapshots(wl) -> None:
    """diag skips a run with fewer than three instants and still exits 0."""
    for rdir in wl.stored.glob("runs/*"):
        for snap in sorted(rdir.glob("*.snap"))[2:]:
            snap.unlink()


def freeze_tiny_sweep(root: Path, work: Path) -> dict:
    """Per-point fingerprint of the tiny sweep, as the program computes it."""
    cfg = work / "tiny-sweep.cfg"
    cfg.write_text(bench.SWEEP_CFG.format(**{k: TINY["sweep-default"][k]
                                             for k in ("cells", "t_end")}))
    run = bench.Run(root, work)
    try:
        code, _, _, _ = run.cli(["sweep", "--config", str(cfg),
                                 "--out", str(work / "tiny-sweep")])
    finally:
        run.close()
    if code != 0:
        raise SystemExit(f"tiny sweep exited {code}")
    manifest = json.loads((work / "tiny-sweep" / "manifest.json").read_text())
    return {r["run_id"]: {k: r[k] for k in ("e_init", "e_sup", "max_excess")}
            for r in manifest["records"]}


def main() -> int:
    root = Path.cwd()
    bench_json = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".perfbench-work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems = []

    TINY["sweep-default"]["points"] = freeze_tiny_sweep(root, work)

    for wl in bench.WORKLOADS:
        for trace in (0, 1):
            code, out = _measure_quiet(root, wl, trace, TINY[wl])
            label = f"{wl} trace {trace}"
            (root / ".perfbench-work" / f"result-{wl}-s3-t{trace}.json").unlink(missing_ok=True)
            if code != 0:
                problems.append(f"{label}: exit {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            printed = {ln.split()[1]: ln.split()[3] for ln in out.splitlines()
                       if ln.startswith("metric ")}
            for m in bench_json["per_layer" if trace else "end_to_end"]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or printed.get(m["name"]) != m["unit"]:
                    problems.append(f"{label}: metric {m['name']} missing or without "
                                    f"unit {m['unit']}")
            for name in ("ops", "ops_failed"):
                if printed.get(name) != "count":
                    problems.append(f"{label}: {name} not printed")
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} operation(s) failed")
            print(f"ok {label}: attempted {result['attempted']}")

    # a corrupted fingerprint must fail every point it touches
    wrong = json.loads(json.dumps(TINY))
    first = next(iter(wrong["sweep-default"]["points"].values()))
    first["e_sup"] *= 1.001
    code, out = _measure_quiet(root, "sweep-default", 0, wrong["sweep-default"])
    result = json.loads(out.strip().splitlines()[-1]) if code == 0 else {}
    if result.get("failed") != 1 or result.get("correct") is not False:
        problems.append(f"corrupted fingerprint not counted: {result}")
    else:
        print("ok corrupted fingerprint counted in ops_failed")

    # a diagnostic file that diag no longer reproduces, or a diag that writes
    # nothing, must fail that diag and leave rate-fit passing
    for label, spoil in (("corrupted diag file", corrupt_bounds),
                         ("diag that writes nothing", keep_two_snapshots)):
        run = replay_once(root, work / spoil.__name__, spoil)
        if run.failed != 1 or run.attempted != 2:
            problems.append(f"{label} not counted: failed {run.failed} "
                            f"of {run.attempted}")
        else:
            print(f"ok {label} counted in ops_failed")

    for p in problems:
        print(f"FAIL {p}")
    shutil.rmtree(work, ignore_errors=True)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
