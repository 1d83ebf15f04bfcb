#!/usr/bin/env python3
"""Regenerate the two phase-diagram tables (m=2 and m=0.5) as CSV.

Each cell of the (alpha, beta) grid is classified and written as one row;
the region boundaries land on the Boundary kind, everything else gets a
propagation regime plus its rate/exponent when one is predicted.
"""
import argparse
import sys
from pathlib import Path

from frontlab.cli import main as frontlab_main


def run(out_dir: str, steps: int) -> int:
    """Write both sheets; return the first nonzero sweep exit code, or 0."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sheets = (
        # porous-medium sheet: the only boundary is beta = 1 + 1/alpha
        ("2", "pme_sheet"),
        # fast-diffusion sheet: boundaries at 1+1/gamma, m+2/gamma, 2-m and
        # the critical alpha values 1/(1-m), 2/(1-m)
        ("0.5", "fde_sheet"),
    )
    for m, name in sheets:
        rc = frontlab_main([
            "sweep", "--m", m, "--alpha-min", "0.2", "--alpha-max", "5",
            "--alpha-steps", str(steps), "--beta-min", "1", "--beta-max", "3",
            "--beta-steps", str(steps), "--out", str(out / name),
        ])
        if rc != 0:
            return rc
    print(f"wrote {out}/pme_sheet and {out}/fde_sheet")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/phase_diagram")
    ap.add_argument("--steps", type=int, default=60)
    a = ap.parse_args()
    sys.exit(run(a.out, a.steps))
