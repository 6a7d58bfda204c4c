"""Grid-contamination appendix for the dissipation sweep.

The sweep holds the solver grid fixed so that the scaling parameters, not
resolution, drive the differences in E_sup.  This script quantifies the
residual grid contamination: it runs the sweep once per grid of --grids,
each against the same fine reference, and reports at each path point the
relative shift of E_sup per refinement next to the relative spread across
the path.  The sweep's conclusion stands when the former is small against
the latter.

Grid n is the sweep configuration with grid.cells = n, stored into
<out>/N<n>, which `nsflab diag` and `nsflab rate-fit` read back.  Its
sweep.reference-factor counts reference cells per cell of the finest grid;
every grid must divide the reference's cells.  The reference is computed
once, beside the coarsest grid's batch, and every grid is stored against it.
"""

import argparse
import sys
from pathlib import Path

from nsflab import cli
from nsflab import config as cfgmod
from nsflab import sweep

README_SWEEP = {"grid.extent": "1.0"}  # the README's sweep, all other keys at their defaults


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", help="sweep configuration file (default: the README sweep)")
    ap.add_argument("--grids", type=int, nargs="+", default=[48, 96],
                    help="solver cell counts, coarse to fine")
    ap.add_argument("--out", default="out/refinement", help="output directory")
    args = ap.parse_args(argv)
    grids = args.grids
    if grids[0] < 1 or sorted(set(grids)) != grids:
        ap.error(f"grids must be positive and strictly increasing, got {grids}")
    cfg = cfgmod.load_file(args.config) if args.config else README_SWEEP
    ref_cells = cfgmod.get_int(cfg, "sweep.reference-factor") * grids[-1]
    uneven = [n for n in grids if ref_cells % n]
    if uneven:
        ap.error(f"the reference's {ref_cells} cells are not a multiple of grids {uneven}")

    runs = [sweep.sweep_runs({**cfg, "grid.cells": str(n),
                              "sweep.reference-factor": str(ref_cells // n)}) for n in grids]
    dirs = [Path(args.out) / f"N{n}" for n in grids]
    for r, d in zip(runs, dirs):
        sweep.check_out_dir(r, d)
    reference, first = sweep.obtain_reference(runs[0], dirs[0])
    manifests = [sweep.store_batch(runs[0], dirs[0], reference, first)]
    manifests += [sweep.store_batch(r, d, reference) for r, d in zip(runs[1:], dirs[1:])]
    print(f"reference: {ref_cells} cells, usable horizon {manifests[0].t_safe!r}")

    path_sups = []
    for k, a in enumerate(manifests[0].a_values):
        records = [m.records[k] for m in manifests]
        cols = "  ".join(f"N={n}: {r.e_sup!r}" if r.healthy else f"N={n}: {r.reason}; skipped"
                         for n, r in zip(grids, records))
        sups = [r.e_sup for r in records]  # nan where skipped
        shifts = [abs(b - c) / c for c, b in zip(sups, sups[1:]) if c == c and b == b]
        worst = max(shifts) if shifts else float("nan")
        print(f"a={a:g}  {cols}  max_refinement_shift={worst:.3f}")
        path_sups.append(sups[-1])

    finite = [s for s in path_sups if s == s]
    if len(finite) >= 2:
        spread = max(finite) / min(finite)
        print(f"E_sup spread across the path on the finest grid: {spread:.2f}x")
        print("grid contamination is negligible when every max_refinement_shift "
              "is small against that spread")
    return 0


if __name__ == "__main__":
    sys.exit(cli.exit_status(main))
