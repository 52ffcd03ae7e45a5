#!/usr/bin/env python3
"""Extended convergence study past the pinned desk-scale acceptance levels.

The manufactured field is built from sin^3 = (3 sin pi x - sin 3 pi x)/4
and sin^2 cos = (cos pi x - cos 3 pi x)/4, so it carries 3 pi waves of
wavelength 2/3 (2.7 cells at N=4, 5.3 at N=8); those terms set the
resolution.  The lowest-order families are pre-asymptotic on coarse
meshes: the consecutive-level rates lie under their asymptotic values even
though the grad-curl error already equals the best approximation in the
discrete space.  This script documents the climb of the observed rates as
the mesh is refined beyond the acceptance levels (for (r,k)=(1,1),
N=(8,16) gives about 0.96 / 1.00 / 0.55 in the L2 / curl / grad-curl
norms).

The factor dominates the runtime from N=16 on.  On a 2-core box with BLAS
on one thread, --levels 8,16,24 takes about a minute and 2.5 GB for
(1,1) (N=(16,24) gives about 1.31 / 1.42 / 0.75), and --levels 8,16 about
20 s and 1.1 GB for (2,1), whose N=24 factor does not fit in 6 GB.
"""

import argparse
import sys

from tetcomplex.problems import run_convergence


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", default="8,12,16")
    parser.add_argument("--r", type=int, default=1)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--out", help="CSV path")
    args = parser.parse_args()
    levels = [int(t) for t in args.levels.split(",") if t]
    report = run_convergence("quadcurl", levels, args.r, args.k)
    if args.out:
        report.to_csv(args.out)
    print(f"family (r,k)=({args.r},{args.k})")
    for row in report.rows:
        rates = [row.get(f"{key}_rate") for key in ("l2", "hcurl", "gradcurl")]
        rate_txt = "  ".join("  --  " if r is None else f"{r:6.3f}" for r in rates)
        print(
            f"N={row['N']:>3}  l2={row['l2']:.4e}  hcurl={row['hcurl']:.4e}  "
            f"gradcurl={row['gradcurl']:.4e}  rates: {rate_txt}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
