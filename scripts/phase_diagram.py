#!/usr/bin/env python3
"""Regenerate the two phase-diagram tables (m=2 and m=0.5) as CSV.

Each cell of the (alpha, beta) grid is classified and written as one row;
the region boundaries land on the Boundary kind, everything else gets a
propagation regime plus its rate/exponent when one is predicted.
"""
import argparse
from pathlib import Path

from frontlab.cli import main as frontlab_main


def run(out_dir: str, steps: int) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # porous-medium sheet: the only boundary is beta = 1 + 1/alpha
    frontlab_main([
        "sweep", "--m", "2", "--alpha-min", "0.2", "--alpha-max", "5",
        "--alpha-steps", str(steps), "--beta-min", "1", "--beta-max", "3",
        "--beta-steps", str(steps), "--out", str(out / "pme_sheet"),
    ])
    # fast-diffusion sheet: boundaries at 1+1/gamma, m+2/gamma, 2-m and the
    # critical alpha values 1/(1-m), 2/(1-m)
    frontlab_main([
        "sweep", "--m", "0.5", "--alpha-min", "0.2", "--alpha-max", "5",
        "--alpha-steps", str(steps), "--beta-min", "1", "--beta-max", "3",
        "--beta-steps", str(steps), "--out", str(out / "fde_sheet"),
    ])
    print(f"wrote {out}/pme_sheet and {out}/fde_sheet")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/phase_diagram")
    ap.add_argument("--steps", type=int, default=60)
    a = ap.parse_args()
    run(a.out, a.steps)
