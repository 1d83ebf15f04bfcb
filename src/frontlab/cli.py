"""Batch front-end.

Subcommands: classify, construct, shoot, wave, simulate, analyze,
experiment, sweep. Outputs are JSON documents and CSV tables under --out.
Each is streamed chunk by chunk (one CSV row at a time) into a temp file
beside its target and renamed over it after the last chunk, so a reader
never sees a partial artifact and memory is bounded by one row. Each
command also writes a run manifest: the subcommand, the input config and
the sha256 of its canonical JSON, the output paths and the wall-clock
time. It holds no hash of the outputs, so it records what ran, not which
bytes came out.

Exit codes: 0 ok, 2 usage or domain error, 3 numerical failure,
4 infeasible constant selection.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from . import analysis, closedform, waves
from .errors import (DomainError, FrontlabError, InfeasibleSelection,
                     RegimeMismatch)
from .model import (Grid, ModelParams, bundle_from_dict, default_reaction,
                    field_build, params_from_dict, params_to_dict,
                    read_config)
from .regimes import Regime, classify, envelopes, linear_speed_bound
from .solver import SolutionTrajectory, SolverConfig, simulate

__all__ = ["main", "RunManifest"]


@dataclass(frozen=True)
class RunManifest:
    """What ran, on what input, producing which files, in how long."""

    subcommand: str
    config: dict
    outputs: tuple
    wall_clock_s: float
    input_sha256: str


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sha256(doc: dict) -> str:
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Stream the chunks into a temp file beside ``path`` and rename it over
    ``path``; on any error the temp file goes and ``path`` is untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return format(float(v), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    _atomic_write(path, (",".join(_fmt(v) for v in row) + "\n"
                         for row in itertools.chain([header], rows)))


def _dump_json(doc: dict, compact: bool) -> str:
    if compact:
        return json.dumps(doc, sort_keys=True)
    return json.dumps(doc, indent=2, sort_keys=True)


def _write_json(path: Path, doc: dict) -> None:
    _atomic_write(path, [_dump_json(doc, compact=False) + "\n"])


def _emit_manifest(args, config_doc: dict, outputs, t0: float) -> None:
    man = RunManifest(subcommand=args.command, config=config_doc,
                      outputs=tuple(str(p) for p in outputs),
                      wall_clock_s=time.perf_counter() - t0,
                      input_sha256=_sha256(config_doc))
    _write_json(Path(args.out) / f"{args.command}_manifest.json", asdict(man))


def _parse_alpha(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def _params_from_args(args) -> ModelParams:
    if args.config is not None:
        return params_from_dict(read_config(args.config))
    if args.m is None or args.alpha is None or args.beta is None:
        raise DomainError("need --m, --alpha and --beta (or --config)")
    return ModelParams(m=args.m, alpha=_parse_alpha(args.alpha),
                       beta=args.beta, r=args.r, r_bar=args.r_bar,
                       C=args.C, C_bar=args.C_bar, s0=args.s0, x0=args.x0)


def _add_param_flags(sp, required: bool = False) -> None:
    sp.add_argument("--m", type=float, required=required)
    sp.add_argument("--alpha", type=str, required=required)
    sp.add_argument("--beta", type=float, required=required)
    sp.add_argument("--r", type=float, default=1.0)
    sp.add_argument("--r-bar", dest="r_bar", type=float, default=1.0)
    sp.add_argument("--C", type=float, default=1.0)
    sp.add_argument("--C-bar", dest="C_bar", type=float, default=1.0)
    sp.add_argument("--s0", type=float, default=0.5)
    sp.add_argument("--x0", type=float, default=2.0)


# ---------------------------------------------------------------------------
# trajectory CSV round-trip (shared by simulate / analyze / experiment)

# The reader checks this line exactly. It starts with "#" so that tools
# which skip comment lines, np.loadtxt among them, read the table directly.
_TRAJECTORY_HEADER = ("# frontlab trajectory: grid row nan x_0..x_n; "
                     "then one row t u(x_0)..u(x_n) per snapshot")


def write_trajectory_csv(path: Path, traj: SolutionTrajectory) -> None:
    """Write the header, the grid row, then one `t,u(x)...` row per snapshot."""
    row = ",".join(["%.17g"] * (traj.grid.x.size + 1)) + "\n"

    def lines():
        yield _TRAJECTORY_HEADER + "\n"
        yield row % (math.nan, *traj.grid.x.tolist())
        for t, fld in zip(traj.times, traj.fields):
            yield row % (t, *fld.values.tolist())

    _atomic_write(path, lines())


def read_trajectory_csv(path: Path) -> SolutionTrajectory:
    """Rebuild a trajectory written by `write_trajectory_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != _TRAJECTORY_HEADER:
            raise DomainError(f"unexpected trajectory header {header!r}")
        grid_row = fh.readline()
        if not grid_row.strip():
            raise DomainError("trajectory file holds no grid row")
        try:
            table = np.loadtxt(itertools.chain([grid_row], fh),
                               delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DomainError(f"malformed trajectory table: {exc}") from None
    if table.shape[0] < 2:
        raise DomainError("trajectory file holds no snapshots")
    if not np.isnan(table[0, 0]):
        raise DomainError("trajectory grid row must start with nan")
    if not np.all(np.isfinite(table.ravel()[1:])):
        raise DomainError("trajectory grid, times or values are not finite")
    grid = Grid(x=table[0, 1:].copy(), kind="loaded")
    times = tuple(table[1:, 0].tolist())
    fields = tuple(field_build(u, t) for t, u in zip(times, table[1:, 1:]))
    return SolutionTrajectory(grid=grid, times=times, fields=fields,
                              dt_history=np.asarray([]),
                              max_residual=math.nan)


def _solver_config_from(doc: dict) -> SolverConfig:
    sdoc = doc.get("solver")
    if sdoc is None:
        raise DomainError('config missing the "solver" section')
    t_end = float(sdoc["t_end"])
    snaps = sdoc.get("snapshots", ())
    if isinstance(snaps, dict):
        count = int(snaps["count"])
        snaps = np.linspace(0.0, t_end, count + 1)[1:].tolist()
    return SolverConfig(
        scheme=sdoc.get("scheme", "semi-implicit"),
        dt=float(sdoc["dt"]),
        dt_control=sdoc.get("dt_control", "fixed"),
        safety=float(sdoc.get("safety", 0.5)),
        t_end=t_end,
        snapshots=tuple(float(s) for s in snaps),
        right=sdoc.get("right", "analytic-clamp"),
        u_min=float(sdoc.get("u_min", 1e-12)),
        reaction_on=bool(sdoc.get("reaction_on", True)),
    )


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classify(args) -> int:
    kind = classify(args.m, _parse_alpha(args.alpha), args.beta)
    doc = {"regime": kind.regime.value}
    if kind.gamma is not None:
        doc["gamma"] = kind.gamma
    if kind.exponent is not None:
        doc["exponent"] = kind.exponent
    if kind.label is not None:
        doc["label"] = kind.label
    print(_dump_json(doc, compact=True))
    return 0


_CONSTRUCT_KINDS = ("pme-bump", "fde-sub", "appendix-sub", "growth-super",
                    "const-super", "right-tail")


def _cmd_construct(args) -> int:
    t0 = time.perf_counter()
    params = _params_from_args(args)
    eps = args.epsilon
    if args.kind == "pme-bump":
        spec = closedform.pme_bump_params(params, eps)
    elif args.kind == "fde-sub":
        spec = closedform.fde_sub_params(params, eps)
    elif args.kind == "appendix-sub":
        spec = closedform.appendix_sub_params(params, eps)
    elif args.kind == "growth-super":
        spec = closedform.growth_super(params, eps)
    elif args.kind == "const-super":
        spec = closedform.constant_speed_super(params)
    else:
        spec = closedform.right_tail_spec(params, eps=min(eps, 0.5))
    doc = closedform.describe(spec)
    print(_dump_json(doc, compact=args.as_json))
    if args.out is not None:
        out = Path(args.out) / f"construct_{args.kind}.json"
        _write_json(out, doc)
        _emit_manifest(args, {"kind": args.kind,
                              "params": params_to_dict(params),
                              "epsilon": eps}, [out], t0)
    return 0


def _shoot_setup(args):
    params = _params_from_args(args)
    g = waves.g_fn(params.m, default_reaction(params))
    if args.truncate:
        g = waves.ignition_truncate(g, args.delta)
    controls = None
    if args.y_max is not None:
        controls = waves.ShootControls(y_max=args.y_max)
    return params, g, controls


def _cmd_shoot(args) -> int:
    params, g, controls = _shoot_setup(args)
    res = waves.shoot(args.c, args.delta, g, controls)
    doc = {"outcome": res.outcome, "c": res.c, "delta": res.delta,
           "y_c": res.y_c, "terminal_slope": res.terminal_slope}
    print(_dump_json(doc, compact=True))
    return 0


def _cmd_wave(args) -> int:
    t0 = time.perf_counter()
    params, g, controls = _shoot_setup(args)
    res = waves.shoot(args.c, args.delta, g, controls)
    prof = waves.engler_transform(res, params.m)
    outputs = []
    if args.out is not None:
        path = Path(args.out) / "wave_profile.csv"
        _write_csv(path, ("x", "U"), zip(prof.x, prof.U))
        outputs.append(path)
        _emit_manifest(args, {"m": params.m, "c": args.c,
                              "delta": args.delta,
                              "truncate": args.truncate}, outputs, t0)
    doc = {"c": prof.c, "x_c": prof.x_c, "n": int(prof.x.size),
           "outcome": res.outcome}
    print(_dump_json(doc, compact=True))
    return 0


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    if args.config is None:
        raise DomainError("simulate needs --config")
    doc = read_config(args.config)
    bundle = bundle_from_dict(doc)
    cfg = _solver_config_from(doc)
    traj = simulate(bundle.data, bundle.grid, cfg, bundle.params)
    path = Path(args.out) / "trajectory.csv"
    write_trajectory_csv(path, traj)
    _emit_manifest(args, doc, [path], t0)
    print(_dump_json({"snapshots": len(traj.times),
                      "nodes": int(traj.grid.x.size),
                      "steps": int(traj.dt_history.size),
                      "max_residual": traj.max_residual,
                      "trajectory": str(path)}, compact=True))
    return 0


def _linear_report(traj: SolutionTrajectory, params: ModelParams,
                   trace: analysis.LevelSetTrace) -> dict:
    c_up = linear_speed_bound(params)
    g = waves.g_fn(params.m, default_reaction(params))
    cert = waves.find_compact_support_speed(g, 0.5)
    half = trace.t >= 0.5 * (trace.t[0] + trace.t[-1])
    speeds = trace.x[half] / trace.t[half]
    return {"speed_max": float(speeds.max()),
            "speed_min": float(speeds.min()),
            "c_upper": c_up, "c0_floor": cert.c0,
            "pass": bool(speeds.max() <= c_up and speeds.min() >= cert.c0)}


def _analyze_traj(traj: SolutionTrajectory, params: ModelParams,
                  level: float, eps: Optional[float], out_dir: Path,
                  compact: bool):
    kind = classify(params.m, params.alpha, params.beta)
    trace = analysis.track_level(traj, level)
    fit = None
    sandwich = None
    extra = {}
    if kind.regime is Regime.EXPONENTIAL:
        fit = analysis.fit_exponential_rate(
            trace, reference=params.r * kind.gamma)
        sandwich = analysis.sandwich_check(trace, envelopes(params, eps))
    elif kind.regime in (Regime.POLYNOMIAL, Regime.POLY_LOWER_ONLY):
        fit = analysis.fit_polynomial_exponent(trace, reference=kind.exponent)
        sandwich = analysis.sandwich_check(trace, envelopes(params, eps))
    elif kind.regime is Regime.NO_ACCELERATION:
        extra["linear"] = _linear_report(traj, params, trace)
    elif kind.regime is Regime.INFINITE_SPEED:
        sandwich = analysis.sandwich_check(trace, envelopes(params, eps))
    report = analysis.report_json(trace, fit, sandwich)
    report["regime"] = kind.regime.value
    report.update(extra)

    trace_path = out_dir / "trace.csv"
    _write_csv(trace_path, ("t", "x_lambda"), zip(trace.t, trace.x))
    report_path = out_dir / "report.json"
    _write_json(report_path, report)
    print(_dump_json(report, compact=compact))
    return [trace_path, report_path]


def _cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    if args.config is None:
        raise DomainError("analyze needs --config")
    doc = read_config(args.config)
    params = params_from_dict(doc)
    traj = read_trajectory_csv(args.traj)
    eps = doc.get("experiment", {}).get("epsilon")
    outputs = _analyze_traj(traj, params, args.level, eps, Path(args.out),
                            args.as_json)
    _emit_manifest(args, doc, outputs, t0)
    return 0


def _cmd_experiment(args) -> int:
    t0 = time.perf_counter()
    if args.config is None:
        raise DomainError("experiment needs --config")
    doc = read_config(args.config)
    bundle = bundle_from_dict(doc)
    cfg = _solver_config_from(doc)
    exp = doc.get("experiment", {})
    traj = simulate(bundle.data, bundle.grid, cfg, bundle.params)
    out_dir = Path(args.out)
    traj_path = out_dir / "trajectory.csv"
    write_trajectory_csv(traj_path, traj)
    outputs = [traj_path]
    outputs.extend(_analyze_traj(traj, bundle.params,
                                 float(exp.get("level", 0.5)),
                                 exp.get("epsilon"), out_dir, args.as_json))
    _emit_manifest(args, doc, outputs, t0)
    return 0


def _sweep_cell(m: float, a: float, b: float) -> tuple:
    try:
        kind = classify(m, a, b)
        return (m, a, b, kind.regime.value, kind.gamma, kind.exponent,
                kind.label or "", "ok")
    except FrontlabError as exc:
        return (m, a, b, "", None, None, "", f"error:{type(exc).__name__}")


def _cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    betas = np.linspace(args.beta_min, args.beta_max, args.beta_steps)
    cells = [(args.m, float(a), float(b)) for a in alphas for b in betas]
    rows = [_sweep_cell(*c) for c in cells]
    path = Path(args.out) / "sweep.csv"
    _write_csv(path, ("m", "alpha", "beta", "regime", "gamma", "exponent",
                      "label", "status"), rows)
    _emit_manifest(args, {"m": args.m,
                          "alpha": [args.alpha_min, args.alpha_max,
                                    args.alpha_steps],
                          "beta": [args.beta_min, args.beta_max,
                                   args.beta_steps]}, [path], t0)
    print(_dump_json({"rows": len(rows), "sweep": str(path)}, compact=True))
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontlab",
        description="Front propagation lab for du/dt = (u^m)_xx + f(u)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON config document")
    common.add_argument("--out", type=Path, default=Path("."),
                        help="output directory for artifacts")
    common.add_argument("--json", dest="as_json", action="store_true",
                        help="compact single-line JSON on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", parents=[common],
                        help="locate (m, alpha, beta) in the phase diagram")
    _add_param_flags(sp, required=True)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("construct", parents=[common],
                        help="build a certified sub/supersolution")
    sp.add_argument("--kind", choices=_CONSTRUCT_KINDS, required=True)
    sp.add_argument("--epsilon", type=float, default=0.1)
    _add_param_flags(sp)
    sp.set_defaults(func=_cmd_construct)

    for name, fn in (("shoot", _cmd_shoot), ("wave", _cmd_wave)):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--c", type=float, required=True)
        sp.add_argument("--delta", type=float, default=0.5)
        sp.add_argument("--truncate", action="store_true",
                        help="ignition-truncate the reaction below delta/2")
        sp.add_argument("--y-max", dest="y_max", type=float, default=None)
        _add_param_flags(sp)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("simulate", parents=[common],
                        help="run the PDE and write the trajectory CSV")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("analyze", parents=[common],
                        help="track a level set in a saved trajectory")
    sp.add_argument("--traj", type=Path, required=True)
    sp.add_argument("--level", type=float, default=0.5)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("experiment", parents=[common],
                        help="simulate, track, fit, and check envelopes")
    sp.set_defaults(func=_cmd_experiment)

    sp = sub.add_parser("sweep", parents=[common],
                        help="classify a grid of (alpha, beta) cells")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--alpha-min", type=float, required=True)
    sp.add_argument("--alpha-max", type=float, required=True)
    sp.add_argument("--alpha-steps", type=int, required=True)
    sp.add_argument("--beta-min", type=float, required=True)
    sp.add_argument("--beta-max", type=float, required=True)
    sp.add_argument("--beta-steps", type=int, required=True)
    sp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, RegimeMismatch) as exc:
        print(f"frontlab: {exc}", file=sys.stderr)
        return 2
    except InfeasibleSelection as exc:
        print(f"frontlab: {exc}", file=sys.stderr)
        return 4
    except FrontlabError as exc:
        print(f"frontlab: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
