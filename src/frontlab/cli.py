"""Batch front-end.

Subcommands: classify, construct, shoot, wave, simulate, analyze,
experiment, sweep. Each takes only the flags it reads; any other flag exits
2. --config, the JSON config document, is required by simulate, analyze and
experiment and taken by no other command; all three parse it in one place,
so analyze tracks experiment.level as experiment does. Every trajectory
header ends with the sha256 of the config its run was made under, without
the config's "experiment" section; the reader refuses a header without one.
analyze refuses a trajectory whose grid nodes are not the config's grid,
bit for bit, or whose header names another run.
--json, compact single-line JSON on stdout, is taken only by construct,
analyze and experiment, which pretty-print without it. classify and shoot
write no files. The other commands write JSON documents and CSV tables
under --out, the working directory by default; construct and wave write
files only when given --out.
trajectory.csv holds each number as the 16 hex digits of its big-endian
binary64 bits, so analyze reads back exactly what experiment computed.
Each file is streamed chunk by chunk (one CSV row at a time) into a temp
file beside its target, created with the mode open() would give it (0666
less the umask), and renamed over it after the last chunk, so a reader
never sees a partial artifact and memory is bounded by one row.
Every command ends the same way, in main: its files, then, if it wrote
any, <command>_manifest.json (the subcommand, the input config and the
sha256 of its canonical JSON, the output paths and the wall-clock time;
no hash of the outputs, so it records what ran, not which bytes came out),
then one JSON document on stdout. A refused command prints only its
"frontlab:" line. experiment builds the bounds its level set is held to
before it simulates, so a run they refuse makes no trajectory.

Exit codes: 0 ok, 2 a usage error (from argparse); otherwise the exit_code
of the FrontlabError raised, after a "frontlab: <message>" line on stderr:
2 for DomainError and RegimeMismatch (a malformed config included), 4 for
InfeasibleSelection, 3 for every other class (a numerical failure).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import secrets
import sys
import time
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from . import analysis, closedform, waves
from .errors import DomainError, FrontlabError
from .model import (Grid, ModelParams, bundle_from_dict, config_keys,
                    config_number, config_section, default_reaction,
                    field_build, params_to_dict, read_config)
from .regimes import (KINDS, NUMBER_FIELD, Regime, certified_floor, classify,
                      classify_row, envelopes)
from .solver import (SolutionTrajectory, SolverConfig, discrete_residual,
                     simulate)

__all__ = ["main"]


def _sha256(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _run_sha256(doc: dict) -> str:
    # the run a trajectory holds: every section but the analysis settings
    return _sha256({k: v for k, v in doc.items() if k != "experiment"})


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Stream the chunks into a temp file beside ``path`` and rename it over
    ``path``; on any error the temp file goes and ``path`` is untouched."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"cannot make the output directory {path.parent}: "
                          f"{exc.strerror}") from None
    tmp = path.parent / f".tmp-{secrets.token_hex(8)}"
    # O_EXCL never opens an existing file, and mode 0o666 leaves the
    # permissions to the umask, as open(path, "w") would (mkstemp would
    # force 0o600 on every artifact)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v) -> str:
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


def _params_from_args(args) -> ModelParams:
    return ModelParams(m=args.m, alpha=args.alpha, beta=args.beta, r=args.r,
                       r_bar=args.r_bar, C=args.C, C_bar=args.C_bar,
                       s0=args.s0, x0=args.x0)


def _add_param_flags(sp, constants: bool = True) -> None:
    # float reads "inf" for --alpha, and argparse turns a word into exit 2
    for flag in ("--m", "--alpha", "--beta"):
        sp.add_argument(flag, type=float, required=True)
    if constants:
        sp.add_argument("--r", type=float, default=1.0)
        sp.add_argument("--r-bar", dest="r_bar", type=float, default=1.0)
        sp.add_argument("--C", type=float, default=1.0)
        sp.add_argument("--C-bar", dest="C_bar", type=float, default=1.0)
        sp.add_argument("--s0", type=float, default=0.5)
        sp.add_argument("--x0", type=float, default=2.0)


def _add_io_flags(sp, out: Optional[Path], config: bool = False,
                  as_json: bool = False) -> None:
    if config:
        sp.add_argument("--config", type=Path, required=True,
                        help="JSON config document")
    sp.add_argument("--out", type=Path, default=out,
                    help="output directory for artifacts")
    if as_json:
        sp.add_argument("--json", dest="compact", action="store_true",
                        help="compact single-line JSON on stdout")


# ---------------------------------------------------------------------------
# trajectory CSV round-trip (shared by simulate / analyze / experiment)

# The reader checks this line exactly, so a file in any other format (the
# older decimal table among them) is refused before its rows are read. The
# line ends with _RUN_TAG and the sha256 of the run the file holds.
_TRAJECTORY_HEADER = ("# frontlab trajectory: binary64 big-endian hex cells; "
                      "grid row nan x_0..x_n; "
                      "then one row t u(x_0)..u(x_n) per snapshot")
_RUN_TAG = "; run sha256 "

# hex digit byte -> its value; every other byte (uppercase included) -> 16
_NIBBLE = np.full(256, 16, dtype=np.uint8)
_NIBBLE[np.frombuffer(b"0123456789abcdef", np.uint8)] = np.arange(16)


def write_trajectory_csv(path: Path, traj: SolutionTrajectory,
                         run_sha256: str) -> None:
    """Write the header, ended by the run's digest, the grid row, then one
    `t,u(x)...` row per snapshot; each cell is the 16 hex digits of a
    number's big-endian binary64 bits."""
    header = _TRAJECTORY_HEADER + _RUN_TAG + run_sha256
    row = np.empty(traj.grid.x.size + 1, dtype=">f8")

    def encode(head, values):
        row[0] = head
        row[1:] = values
        return memoryview(row).hex(",", 8) + "\n"

    def lines():
        yield header + "\n"
        yield encode(math.nan, traj.grid.x)
        for t, fld in zip(traj.times, traj.fields):
            yield encode(t, fld.values)

    _atomic_write(path, lines())


def _decode_row(line: bytes, seps: bytes) -> np.ndarray:
    # each cell is 16 digits and its separator. A line from readline ends at
    # its one "\n", so separators that match also fix the row's length
    if line[16::17] != seps:
        raise DomainError(f"trajectory row is not {len(seps)} cells, each "
                          "ended by a comma or, the last, a newline")
    nib = _NIBBLE[np.frombuffer(line, np.uint8).reshape(-1, 17)[:, :16]]
    if nib.max() > 15:
        raise DomainError("trajectory cells must be lowercase hex digits")
    octets = (nib[:, 0::2] << 4) | nib[:, 1::2]
    return octets.view(">f8").ravel().astype(float)


def read_trajectory_csv(path: Path) -> tuple:
    """(trajectory, run sha256): rebuild, row by row, a trajectory written
    by `write_trajectory_csv`, and read the run digest its header ends with.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DomainError(f"cannot read trajectory {path}: "
                          f"{exc.strerror}") from None
    with fh:
        header = fh.readline().rstrip(b"\n").decode("utf-8", "replace")
        head, tag, run = header.partition(_RUN_TAG)
        if (head != _TRAJECTORY_HEADER
                or (tag and not re.fullmatch("[0-9a-f]{64}", run))):
            raise DomainError(f"unexpected trajectory header {header!r}")
        if not tag:
            raise DomainError("trajectory header ends without a run sha256 "
                              "(none recorded)")
        grid_row = fh.readline()
        if not grid_row:
            raise DomainError("trajectory file holds no grid row")
        seps = b"," * grid_row.count(b",") + b"\n"
        head = _decode_row(grid_row, seps)
        if not np.isnan(head[0]):
            raise DomainError("trajectory grid row must start with nan")
        grid = Grid(x=head[1:])  # checks the nodes finite and increasing
        fields = []
        for line in fh:
            row = _decode_row(line, seps)
            if not np.isfinite(row).all():
                raise DomainError("trajectory times or values are not finite")
            fields.append(field_build(row[1:], row[0]))
    if not fields:
        raise DomainError("trajectory file holds no snapshots")
    return SolutionTrajectory(grid=grid, times=tuple(f.t for f in fields),
                              fields=tuple(fields),
                              dt_history=np.asarray([]),
                              max_residual=math.nan), run


def _run_config(doc: dict):
    """The ConfigBundle, SolverConfig, level (default 0.5) and epsilon
    (default None) of a run config: the one parser of simulate, analyze and
    experiment, so they accept and refuse the same documents."""
    bundle = bundle_from_dict(doc)
    sdoc = config_section(doc, "solver")
    config_keys(sdoc, ("dt", "t_end", "snapshots", "scheme", "right"),
                "solver")
    t_end = config_number(sdoc, "t_end", where="solver")
    snaps = sdoc.get("snapshots", ())
    if isinstance(snaps, dict):
        config_keys(snaps, ("count",), "solver.snapshots")
        count = config_number(snaps, "count", where="solver.snapshots")
        if not (1 <= count < math.inf and count == int(count)):
            raise DomainError(f"snapshot count must be a finite whole "
                              f"number >= 1, got {count}")
        snaps = np.linspace(0.0, t_end, int(count) + 1)[1:].tolist()
    # one scheme; shipped configs still name it
    scheme = sdoc.get("scheme", "semi-implicit")
    if scheme != "semi-implicit":
        raise DomainError(f"unknown scheme {scheme!r}; the solver steps "
                          "semi-implicitly")
    cfg = SolverConfig(
        dt=config_number(sdoc, "dt", where="solver"),
        t_end=t_end,
        snapshots=snaps,
        right=sdoc.get("right", "analytic-clamp"),
    )
    exp = config_section(doc, "experiment") if "experiment" in doc else {}
    config_keys(exp, ("level", "epsilon"), "experiment")
    level = config_number(exp, "level", 0.5, where="experiment")
    eps = config_number(exp, "epsilon", None, where="experiment")
    # for every regime: only those with envelopes would check it later
    if eps is not None and not 0.0 < eps < bundle.params.r:
        raise DomainError("need 0 < epsilon < r")
    return bundle, cfg, level, eps


# ---------------------------------------------------------------------------
# subcommands: each returns its stdout document, its manifest config (None
# for a command that writes no files) and the paths it wrote; main writes
# the manifest and prints the document

def _cmd_classify(args):
    kind = classify(args.m, args.alpha, args.beta)
    doc = {k: v for k, v in dataclasses.asdict(kind).items() if v is not None}
    doc["regime"] = kind.regime.value
    return doc, None, []


# the kinds built from (params, epsilon) as given
_CONSTRUCTORS = {"pme-bump": closedform.pme_bump_params,
                 "fde-sub": closedform.fde_sub_params,
                 "appendix-sub": closedform.appendix_sub_params,
                 "growth-super": closedform.growth_super}
_CONSTRUCT_KINDS = (*_CONSTRUCTORS, "const-super", "right-tail")


def _cmd_construct(args):
    params = _params_from_args(args)
    eps = args.epsilon
    if not 0.0 < eps < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {eps}")
    # the manifest records the epsilon each kind used
    if args.kind == "const-super":
        spec = closedform.constant_speed_super(params)
        eps = None
    elif args.kind == "right-tail":
        eps = min(eps, 0.5)
        spec = closedform.right_tail_spec(params, eps=eps)
    else:
        spec = _CONSTRUCTORS[args.kind](params, eps)
    doc = closedform.describe(spec)
    rep = discrete_residual(None, spec, params, samples=spec.sampler())
    # the AC6 sign rule: a subsolution's residual is <= 0, a supersolution's
    # >= 0, each up to the refinement tolerance
    sign_ok = (rep.max_residual <= rep.tolerance if spec.sign < 0
               else rep.min_residual >= -rep.tolerance)
    doc["residual"] = {"max": rep.max_residual, "min": rep.min_residual,
                       "mean": rep.mean_residual, "tolerance": rep.tolerance,
                       "n": rep.n, "sign_ok": sign_ok}
    outputs = []
    if args.out is not None:
        outputs.append(Path(args.out) / f"construct_{args.kind}.json")
        _write_json(outputs[0], doc)
    return doc, {"kind": args.kind, "params": params_to_dict(params),
                 "epsilon": eps}, outputs


def _shoot_setup(args):
    # a shot reads only m, beta and r; the fields it does not read take
    # values that pass their checks, so m, beta and r keep ModelParams'
    # messages
    params = ModelParams(m=args.m, alpha=math.inf, beta=args.beta, r=args.r,
                         r_bar=args.r, C=1.0, C_bar=1.0, s0=0.5, x0=2.0)
    g = waves.g_fn(params.m, default_reaction(params))
    if args.truncate:
        g = waves.ignition_truncate(g, args.delta)
    return params, g


def _cmd_shoot(args):
    _, g = _shoot_setup(args)
    res = waves.shoot(args.c, args.delta, g, args.y_max)
    return {"outcome": res.outcome, "c": res.c, "delta": res.delta,
            "y_c": res.y_c, "terminal_slope": res.terminal_slope}, None, []


def _cmd_wave(args):
    params, g = _shoot_setup(args)
    res = waves.shoot(args.c, args.delta, g, args.y_max)
    prof = waves.engler_transform(res, params.m)
    outputs = []
    if args.out is not None:
        outputs.append(Path(args.out) / "wave_profile.csv")
        _write_csv(outputs[0], ("x", "U"), zip(prof.x, prof.U))
    return ({"c": prof.c, "x_c": prof.x_c, "n": int(prof.x.size),
             "outcome": res.outcome},
            {"m": params.m, "beta": params.beta, "r": params.r, "c": args.c,
             "delta": args.delta, "truncate": args.truncate,
             "y_max": args.y_max}, outputs)


def _cmd_simulate(args):
    doc = read_config(args.config)
    bundle, cfg, _, _ = _run_config(doc)
    traj = simulate(bundle.data, bundle.grid, cfg, bundle.params)
    path = Path(args.out) / "trajectory.csv"
    write_trajectory_csv(path, traj, _run_sha256(doc))
    return ({"snapshots": len(traj.times), "nodes": int(traj.grid.x.size),
             "steps": int(traj.dt_history.size),
             "max_residual": traj.max_residual, "trajectory": str(path)},
            doc, [path])


def _held_to(params: ModelParams, eps: Optional[float]) -> tuple:
    """(kind, bounds): the regime of ``params`` and what its level set is
    held to, from the parameters alone: the envelopes, NoAcceleration's
    (c_upper, c0_floor) linear-speed bracket, or None on a Boundary."""
    kind = classify(params.m, params.alpha, params.beta)
    if kind.regime is Regime.BOUNDARY:
        return kind, None
    if kind.regime is Regime.NO_ACCELERATION:
        return kind, (closedform.constant_speed_super(params).constants["c"],
                      certified_floor(params))
    return kind, envelopes(params, eps)


def _analyze_traj(traj: SolutionTrajectory, params: ModelParams, held,
                  level: float, out_dir: Path) -> tuple:
    """Track the level set, fit it, check it against the bounds ``held``
    from `_held_to`, and write trace.csv and report.json; returns the
    report and the two paths."""
    kind, bounds = held
    trace = analysis.track_level(traj, level)
    # the kind's number (regimes.NUMBER_FIELD) names the law to fit
    fit = sandwich = None
    if kind.gamma is not None:
        fit = analysis.fit_exponential_rate(
            trace, reference=params.r * kind.gamma)
    elif kind.exponent is not None:
        fit = analysis.fit_polynomial_exponent(trace, reference=kind.exponent)
    extra = {"regime": kind.regime.value}
    if kind.regime is Regime.NO_ACCELERATION:
        c_up, c0 = bounds
        half = trace.t >= 0.5 * (trace.t[0] + trace.t[-1])
        speeds = trace.x[half] / trace.t[half]
        extra["linear"] = {
            "speed_max": float(speeds.max()),
            "speed_min": float(speeds.min()),
            "c_upper": c_up, "c0_floor": c0,
            "pass": bool(speeds.max() <= c_up and speeds.min() >= c0)}
    elif bounds is not None:
        sandwich = analysis.sandwich_check(trace, bounds)
    report = analysis.report_json(trace, fit, sandwich)
    report.update(extra)

    trace_path = out_dir / "trace.csv"
    _write_csv(trace_path, ("t", "x_lambda"), zip(trace.t, trace.x))
    report_path = out_dir / "report.json"
    _write_json(report_path, report)
    return report, [trace_path, report_path]


def _cmd_analyze(args):
    doc = read_config(args.config)
    bundle, _, level, eps = _run_config(doc)
    traj, run = read_trajectory_csv(args.traj)
    # the hex cells are exact, so a trajectory of this config's run holds
    # its grid to the bit; any other is refused, not analysed as this model
    x, x_cfg = traj.grid.x, bundle.grid.x
    if x.tobytes() != x_cfg.tobytes():
        raise DomainError(
            f"trajectory grid ({x.size} nodes on [{x[0]:g}, {x[-1]:g}]) is "
            f"not the config's grid ({x_cfg.size} nodes on "
            f"[{x_cfg[0]:g}, {x_cfg[-1]:g}])")
    # the same grid under other parameters or settings is another run
    want = _run_sha256(doc)
    if run != want:
        raise DomainError(f"trajectory was run under config sha256 {run}, "
                          f"not this config's {want}")
    held = _held_to(bundle.params, eps)
    report, outputs = _analyze_traj(traj, bundle.params, held, level,
                                    Path(args.out))
    return report, doc, outputs


def _cmd_experiment(args):
    doc = read_config(args.config)
    bundle, cfg, level, eps = _run_config(doc)
    # bounds first, so a run they refuse makes no trajectory
    held = _held_to(bundle.params, eps)
    traj = simulate(bundle.data, bundle.grid, cfg, bundle.params)
    path = Path(args.out) / "trajectory.csv"
    write_trajectory_csv(path, traj, _run_sha256(doc))
    report, outputs = _analyze_traj(traj, bundle.params, held, level,
                                    path.parent)
    return report, doc, [path, *outputs]


def _sweep_tails() -> list:
    """Per kind code, the end of a sweep.csv line after its beta; a ``{}``
    stands where the cell's gamma or exponent goes."""
    tails = []
    for kind in KINDS:
        if kind is None:
            tails.append(f",,,,,error:{DomainError.__name__}\n")
            continue
        field = NUMBER_FIELD.get(kind.regime)
        gamma = "{}" if field == "gamma" else ""
        exponent = "{}" if field == "exponent" else ""
        tails.append(f",{kind.regime.value},{gamma},{exponent},"
                     f"{kind.label or ''},ok\n")
    return tails


def _sweep_lines(m: float, alphas: list, betas: np.ndarray):
    """Chunks of sweep.csv, alpha-major: the header, then one chunk per
    alpha row from one classify_row call; each axis value is formatted
    once, and per cell only its gamma or exponent."""
    yield "m,alpha,beta,regime,gamma,exponent,label,status\n"
    if not (alphas and betas.size):
        return
    m_text = _fmt(m)
    b_texts = [_fmt(b) for b in betas.tolist()]
    tails = _sweep_tails()
    numbered = ["{}" in tail for tail in tails]
    for a in alphas:
        codes, values = classify_row(m, a, betas)
        head = f"{m_text},{_fmt(a)},"
        yield "".join(
            head + b_text + (tails[c].format(format(v, ".17g"))
                             if numbered[c] else tails[c])
            for b_text, c, v in zip(b_texts, codes.tolist(), values.tolist()))


def _cmd_sweep(args):
    if min(args.alpha_steps, args.beta_steps) < 0:
        raise DomainError("--alpha-steps and --beta-steps must be >= 0")
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    betas = np.linspace(args.beta_min, args.beta_max, args.beta_steps)
    path = Path(args.out) / "sweep.csv"
    _atomic_write(path, _sweep_lines(args.m, alphas.tolist(), betas))
    return ({"rows": alphas.size * betas.size, "sweep": str(path)},
            {"m": args.m,
             "alpha": [args.alpha_min, args.alpha_max, args.alpha_steps],
             "beta": [args.beta_min, args.beta_max, args.beta_steps]},
            [path])


# ---------------------------------------------------------------------------
# parser assembly

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontlab",
        description="Front propagation lab for du/dt = (u^m)_xx + f(u)")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify",
                        help="locate (m, alpha, beta) in the phase diagram")
    _add_param_flags(sp, constants=False)
    sp.set_defaults(func=_cmd_classify, compact=True)

    # construct and wave write files only when given --out; simulate,
    # analyze, experiment and sweep write into the working directory by
    # default
    sp = sub.add_parser("construct",
                        help="build a certified sub/supersolution")
    sp.add_argument("--kind", choices=_CONSTRUCT_KINDS, required=True)
    sp.add_argument("--epsilon", type=float, default=0.1)
    _add_param_flags(sp)
    _add_io_flags(sp, None, as_json=True)
    sp.set_defaults(func=_cmd_construct)

    for name, fn, text in (
            ("shoot", _cmd_shoot, "classify one phase-plane shot at speed c"),
            ("wave", _cmd_wave,
             "shoot, then map a case-iii shot to a front profile")):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--c", type=float, required=True)
        sp.add_argument("--delta", type=float, default=0.5)
        sp.add_argument("--truncate", action="store_true",
                        help="ignition-truncate the reaction below delta/2")
        sp.add_argument("--y-max", dest="y_max", type=float, default=None)
        sp.add_argument("--m", type=float, required=True)
        sp.add_argument("--beta", type=float, required=True)
        sp.add_argument("--r", type=float, default=1.0)
        if name == "wave":
            _add_io_flags(sp, None)
        sp.set_defaults(func=fn, compact=True)

    sp = sub.add_parser("simulate",
                        help="run the PDE and write the trajectory CSV")
    _add_io_flags(sp, Path("."), config=True)
    sp.set_defaults(func=_cmd_simulate, compact=True)

    sp = sub.add_parser("analyze",
                        help="track a level set in a saved trajectory")
    sp.add_argument("--traj", type=Path, required=True)
    _add_io_flags(sp, Path("."), config=True, as_json=True)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("experiment",
                        help="simulate, track, fit, and check envelopes")
    _add_io_flags(sp, Path("."), config=True, as_json=True)
    sp.set_defaults(func=_cmd_experiment)

    sp = sub.add_parser("sweep",
                        help="classify a grid of (alpha, beta) cells")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--alpha-min", type=float, required=True)
    sp.add_argument("--alpha-max", type=float, required=True)
    sp.add_argument("--alpha-steps", type=int, required=True)
    sp.add_argument("--beta-min", type=float, required=True)
    sp.add_argument("--beta-max", type=float, required=True)
    sp.add_argument("--beta-steps", type=int, required=True)
    _add_io_flags(sp, Path("."))
    sp.set_defaults(func=_cmd_sweep, compact=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        doc, config_doc, outputs = args.func(args)
        if outputs:
            # what ran, on what input, producing which files, in how long
            _write_json(Path(args.out) / f"{args.command}_manifest.json",
                        {"subcommand": args.command, "config": config_doc,
                         "outputs": [str(p) for p in outputs],
                         "wall_clock_s": time.perf_counter() - t0,
                         "input_sha256": _sha256(config_doc)})
    except FrontlabError as exc:
        print(f"frontlab: {exc}", file=sys.stderr)
        return exc.exit_code
    print(_dump_json(doc, compact=args.compact))
    return 0


if __name__ == "__main__":
    sys.exit(main())
