"""Run the default dissipation sweep and its ill-prepared companion.

The well-prepared family starts from the reference's own initial data, so
the sup of the relative energy tracks the rate envelope along the path.
The ill-prepared family adds a fixed-size offset whose initial relative
energy dominates every envelope on the path; its E_sup must plateau near
that initial value instead of decaying.  Both families are stored against
one reference (init.gap is 0.0 in both reference.cfg), computed beside the
well-prepared batch.
"""

import argparse
import pathlib
import sys

from nsflab import cli
from nsflab import sweep
from nsflab.manifest import fit_rate


def report(name, manifest):
    print(f"[{name}] t_safe={manifest.t_safe!r}")
    for r in manifest.records:
        if r.healthy:
            print(f"  {r.run_id}  e_init={r.e_init!r}  e_sup={r.e_sup!r}  "
                  f"envelope={r.envelope!r}  max_excess={r.max_excess!r}")
        else:
            print(f"  {r.run_id}  unhealthy: {r.reason}")
    healthy = [r for r in manifest.records if r.healthy]
    if len(healthy) >= 2:
        for line in fit_rate(manifest).to_text().splitlines():
            print(f"  {line}")
    else:
        print(f"  rate fit skipped: {len(healthy)} healthy run(s)")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default="out/default-sweep", help="output directory")
    ap.add_argument("--cells", type=int, default=48, help="solver cells (fixed across the path)")
    ap.add_argument("--t-end", type=float, help="requested horizon (default: the sweep's)")
    ap.add_argument("--gap", type=float, default=0.02, help="ill-prepared offset amplitude")
    ap.add_argument("--skip-ill", action="store_true", help="run only the well-prepared family")
    args = ap.parse_args(argv)

    base = {"grid.extent": "1.0", "grid.cells": str(args.cells)}
    if args.t_end is not None:
        base["t_end"] = repr(args.t_end)
    out = pathlib.Path(args.out)

    families = [("well", 0.0)] if args.skip_ill else [("well", 0.0), ("ill", args.gap)]
    runs = [sweep.sweep_runs({**base, "init.gap": repr(gap)}) for _, gap in families]
    for r, (name, _) in zip(runs, families):
        sweep.check_out_dir(r, out / name)
    reference, batch = sweep.obtain_reference(runs[0], out / "well")
    for r, (name, _) in zip(runs, families):
        report(name, sweep.store_batch(r, out / name, reference, batch))
        batch = None  # the ill-prepared batch runs against the reference
        print(f"  manifest: {out / name / 'manifest.json'}")
        print(f"  plot data: {out / name / 'plot_rate.dat'}")
    return 0


if __name__ == "__main__":
    sys.exit(cli.exit_status(main))
