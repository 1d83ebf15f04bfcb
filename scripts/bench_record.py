#!/usr/bin/env python3
"""Record one benchmark run per workload into BENCH_<label>.json.

Run from anywhere; the benchmark is found next to this script:

    python3 scripts/bench_record.py --label after-dptsv

Each workload BENCHMARK.json lists, plus kpp_front and ordering_batch, runs
once untraced (the end-to-end metrics) and once traced (the per-layer
metrics) through perfbench/run.py, each in its own process. The file keeps,
for every run, the `# env`, `# raw`, `# figures` and `# problem` lines, the
final JSON line and `wall_over_calibration`, the raw `wall_s` divided by the
run's calibration kernel time, which varies less between sessions than
`wall_s` itself. `tree_dirty` records whether src, scripts or perfbench held
uncommitted changes (null where git cannot tell), since `git_revision` then
names a commit that is not what ran. Timings on a shared machine are noisy,
so the record backs no gate; a claim needs alternated pairs of runs.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXTRA_WORKLOADS = ("kpp_front", "ordering_batch")
KEPT = ("env", "raw", "figures")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"bench_record: {workload} (trace {trace}) exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    record = {"problems": []}
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        key, _, rest = line.removeprefix("# ").partition(" ")
        if key in KEPT:
            record[key] = json.loads(rest)
        elif key == "problem":
            record["problems"].append(rest)
    record["result"] = json.loads(lines[-1])
    raw = record["raw"]
    record["wall_over_calibration"] = (raw["wall_s"]
                                       / raw["calibration_kernel_s"])
    return record


def tree_dirty():
    """Whether src, scripts or perfbench differ from the commit; None when
    git cannot tell."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--", "src", "scripts",
             "perfbench"], cwd=ROOT, capture_output=True, text=True,
            check=False)
    except OSError:  # no git executable
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True,
                    help="names the output file BENCH_<label>.json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    names += [w for w in EXTRA_WORKLOADS if w not in names]
    doc = {"label": args.label, "seed": args.seed, "seconds": seconds,
           "tree_dirty": tree_dirty(), "workloads": {}}
    for name in names:
        doc["workloads"][name] = {
            mode: run_once(name, args.seed, seconds, trace)
            for mode, trace in (("untraced", 0), ("traced", 1))}
        print(f"bench_record: {name} done", file=sys.stderr)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
