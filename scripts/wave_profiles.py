#!/usr/bin/env python3
"""Shoot traveling-wave profiles over a few speeds and tabulate them.

For each (m, c) the phase-plane shot is classified; case-iii shots are
pushed through the mass-coordinate transform and written as x,U columns.
Run from the repo root; output goes to runs/waves/.
"""
from pathlib import Path

import numpy as np

from frontlab.model import ModelParams, default_reaction
from frontlab.waves import engler_transform, g_fn, shoot

OUT = Path("runs/waves")
CASES = [(0.5, 1.0), (0.5, 5.0), (1.0, 2.0), (2.0, 0.5), (2.0, 1.0)]
DELTA = 0.5
# m > 1 orbits above the minimal speed decay like c/(2y); give those shots
# a window long enough for the origin event to fire.
LONG_Y_MAX = 1e10


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for m, c in CASES:
        params = ModelParams(m=m, alpha=2.0, beta=1.0, r=1.0, r_bar=1.0,
                             C=1.0, C_bar=1.0, s0=0.5, x0=2.0)
        g = g_fn(m, default_reaction(params))
        res = shoot(c, DELTA, g, LONG_Y_MAX if m > 1.0 else None)
        print(f"m={m} c={c}: {res.outcome} y_c={res.y_c} "
              f"slope={res.terminal_slope}")
        if res.outcome != "case-iii":
            continue
        prof = engler_transform(res, m)
        xs = np.linspace(prof.x[0], prof.x_c, 400)
        us = prof.u_of_x(xs)
        path = OUT / f"wave_m{m}_c{c}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,U\n")
            for xv, uv in zip(xs, us):
                fh.write(f"{xv:.17g},{uv:.17g}\n")
        print(f"  wrote {path} (x_c={prof.x_c:.4f})")


if __name__ == "__main__":
    main()
