"""frontlab benchmark: time to a verdict on four pinned workloads.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark imports frontlab from ./src in this one process, sets the
workload up several times (set-up time is the median), then repeats full
passes until the next one would end past --seconds, at least one. Every
pass checks its outputs. Lines starting with '#' record the environment,
workload figures and any failed check; the last line is one JSON object.
With --trace 0 it holds the end-to-end metrics of untraced passes. With
--trace 1 untraced and traced passes alternate: the metrics are the
per-layer figures of the traced passes and the tracing overhead.

Noise is uncontrolled: nothing is pinned or tuned, and the load averages
at the start and the end are printed so a reader can judge the machine.
End-to-end times are scaled to a reference machine speed by a calibration
kernel timed between passes; perfbench/README.md says why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 21
# Time metrics are reported at a reference machine speed: raw seconds times
# CAL_REF_S over the median time of a calibration kernel sampled in the
# same run (perfbench/README.md says why).
CAL_REF_S = 0.1


def calibration_kernel():
    """Fixed numpy and interpreter work that does not use frontlab: stencil
    arithmetic on 20,001 nodes, like the solver's, and a Python loop."""
    x = np.linspace(1.0, 2.0, 20001)
    acc = 0.0
    for _ in range(400):
        h = np.diff(x)
        w = 2.0 / (h[:-1] + h[1:])
        v = x ** 0.5
        lap = w * ((v[2:] - v[1:-1]) / h[1:] - (v[1:-1] - v[:-2]) / h[:-1])
        acc += float(lap.sum())
        for i in range(1500):
            acc += i * 1e-12
    return acc


class Calibration:
    """Timings of the calibration kernel: one sample per second of work,
    taken at the next pause, so that they cover the same stretch of time
    as the work."""

    def __init__(self):
        self.samples = []
        self.last = time.perf_counter()

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            calibration_kernel()
            self.samples.append(time.perf_counter() - t0)
        self.last = time.perf_counter()

    def due(self):
        self.sample(int(time.perf_counter() - self.last))


def revision():
    """Git revision if this is a git checkout, else a hash of the sources."""
    head = ROOT / ".git" / "HEAD"
    rev = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            rev = ref_path.read_text().strip() if ref_path.is_file() else ref
        else:
            rev = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "frontlab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return rev, digest.hexdigest()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "frontlab" / "__init__.py").is_file():
        print(f"perfbench: no frontlab sources under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import frontlab.cli  # noqa: F401  (imports every frontlab module)
    import_s = time.perf_counter() - t0
    import scipy
    import frontlab
    if Path(frontlab.__file__).resolve().parent != SRC / "frontlab":
        print(f"perfbench: imported frontlab from {frontlab.__file__}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = spans.Tracer() if args.trace else None
    off = spans.NoTrace()

    # Set-ups take milliseconds, so each follows a calibration sample rather
    # than all running back to back at one moment's machine speed.
    cal_setup, cal_pass = Calibration(), Calibration()
    setup_times, state = [], None
    for k in range(SETUP_REPS):
        cal_setup.sample()
        if tracer:
            tracer.epoch = ("setup", k)
            tracer.install()
        t0 = time.perf_counter()
        try:
            state = wl.setup(args.seed)
        finally:
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.remove()

    results, walls, traced = [], [], []
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        began = time.perf_counter()
        while True:
            i = len(results)
            on = bool(tracer) and i % 2 == 1
            out = scratch / f"pass-{i}"
            out.mkdir()
            cal_pass.sample()
            res = workloads.Pass(pause=cal_pass.due)
            if on:
                tracer.epoch = ("pass", i)
                tracer.install()
            t0 = time.perf_counter()
            try:
                wl.run(state, out, tracer if on else off, res)
            finally:
                wall = time.perf_counter() - t0 - res.paused
                if on:
                    tracer.remove()
            res.artifact_bytes = sum(
                p.stat().st_size for p in out.rglob("*")
                if p.is_file() and not p.name.endswith("_manifest.json"))
            shutil.rmtree(out)
            results.append(res)
            walls.append(wall)
            traced.append(on)
            elapsed = time.perf_counter() - began
            enough = len(results) >= (2 if tracer else 1)
            if enough and elapsed + wall > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    rev, src_sha = revision()
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "git_revision": rev or "unavailable (not a git checkout)",
           "source_sha256": src_sha, "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "loadavg_start": load_start,
           "loadavg_end": os.getloadavg(), "import_s": round(import_s, 6),
           "noise": "uncontrolled: nothing is pinned or tuned"}
    print("# env " + json.dumps(env))

    scale = CAL_REF_S / median(cal_pass.samples)
    setup_scale = CAL_REF_S / median(cal_setup.samples)
    plain = [i for i, on in enumerate(traced) if not on]
    pass_s = median(walls[i] for i in plain)
    print("# raw " + json.dumps({
        "wall_s": pass_s, "setup_s": median(setup_times),
        "calibration_kernel_s": median(cal_pass.samples),
        "setup_calibration_kernel_s": median(cal_setup.samples),
        "calibration_samples": len(cal_pass.samples)}))
    parts = {k: median(results[i].parts[k] for i in plain)
             for k in results[0].parts}
    figures = {k: {"value": v * scale if u == "s" else v / scale, "unit": u}
               for k, (v, u) in wl.figures(state, parts).items()}
    figures["failed_share"] = {"value": failed / attempted,
                               "unit": "share"}
    print(f"# passes {len(results)} (traced {sum(traced)}), attempted "
          f"{attempted}, failed {failed}")
    print("# figures " + json.dumps(figures))
    observed = {}
    for r in results:
        observed.update(r.observed)
    if observed:
        print("# observed " + json.dumps(observed))
    for r in results:
        for problem in r.problems:
            print("# problem " + problem)

    if tracer:
        pass_epochs = [("pass", i) for i, on in enumerate(traced) if on]
        setup_epochs = [("setup", k) for k in range(SETUP_REPS)]
        values, unsteady, absent = spans.layer_metrics(
            tracer, setup_epochs, pass_epochs)
        traced_res = [r for r, on in zip(results, traced) if on]
        values["cli.artifact_bytes"] = (traced_res[0].artifact_bytes,
                                        "count")
        if len({r.artifact_bytes for r in traced_res}) > 1:
            unsteady.append("cli.artifact_bytes")
        values["trace_overhead_s"] = (
            median(w for w, on in zip(walls, traced) if on) - pass_s, "s")
        print("# spans " + json.dumps(spans.span_table(tracer,
                                                          pass_epochs)))
        print("# absent " + json.dumps(absent))
        if unsteady:
            print("# counts that differed between passes "
                  + json.dumps(unsteady))
    else:
        values = {
            "wall_s": (pass_s * scale, "s"),
            "setup_s": (median(setup_times) * setup_scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss * 1024 / 1e6, "MB"),
        }
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
