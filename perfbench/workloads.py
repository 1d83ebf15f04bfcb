"""The four pinned workloads and the checks that make their results count.

Every input lives in perfbench/inputs, so later edits to the package's
configs or tests do not move a workload. Each workload has a set-up, which
turns the pinned inputs into program objects, and a pass, which does the
work once, checks every output and records the seconds of its parts.
Operations go through the public CLI and library calls and always through
module attributes, so the traced run's swapped names see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from frontlab import analysis, cli, closedform, model, solver, waves

INPUTS = Path(__file__).resolve().parent / "inputs"


def load(name):
    with open(INPUTS / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


class CheckFailed(Exception):
    """An output that the program produced without error is wrong."""


def expect(ok, what):
    if not ok:
        raise CheckFailed(what)


@dataclass
class Pass:
    """Outcome of one pass: operation counts, problems and timed parts.

    ``pause`` runs before each operation and its time is not the pass's:
    the benchmark samples its calibration kernel there.
    """

    pause: object = None
    paused: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    parts: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)

    def op(self, what, fn, *args):
        """Run one operation with its checks; a raise counts it failed."""
        if self.pause is not None:
            t0 = time.perf_counter()
            self.pause()
            self.paused += time.perf_counter() - t0
        self.attempted += 1
        try:
            return fn(*args)
        # Any error from the program under test is a failed operation, not
        # a crash of the benchmark; the message is reported.
        except Exception as exc:
            self.failed += 1
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    @contextlib.contextmanager
    def timed(self, part):
        t0, paused0 = time.perf_counter(), self.paused
        try:
            yield
        finally:
            self.parts[part] = (self.parts.get(part, 0.0)
                                + time.perf_counter() - t0
                                - (self.paused - paused0))


def run_cli(argv):
    """Call the CLI in this process; its stdout JSON is not the result."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    expect(code == 0, f"frontlab {argv[0]} exited {code}")


def snapshot_times(spec):
    return tuple(float(t) for t in
                 np.linspace(spec["first"], spec["last"], spec["count"]))


def params_of(doc):
    return model.ModelParams(**doc)


# ---------------------------------------------------------------------------
# bundled_experiments

def bundled_setup(seed):
    spec = load("bundled_experiments.json")
    for cfg in spec["configs"]:
        model.bundle_from_dict(load(cfg["file"]))
    return spec


def _check_report(cfg, report):
    expect(report["regime"] == cfg["regime"],
           f"{cfg['name']} regime {report['regime']}")
    if "linear_pass" in cfg:
        expect(report["linear"]["pass"] is cfg["linear_pass"],
               f"{cfg['name']} linear.pass {report['linear']['pass']}")
    if "fit_range" in cfg:
        lo, hi = cfg["fit_range"]
        value = report["fit"]["value"]
        expect(lo <= value <= hi, f"{cfg['name']} fit {value} not in "
               f"[{lo}, {hi}]")
    verdict = (report.get("sandwich") or {}).get("pass")
    if cfg.get("sandwich_pass") is not None:
        expect(verdict is cfg["sandwich_pass"],
               f"{cfg['name']} sandwich.pass {verdict}")
    return verdict


def bundled_pass(spec, out, tracer, res):
    for cfg in spec["configs"]:
        name, path = cfg["name"], INPUTS / cfg["file"]
        exp_dir, ana_dir = out / name / "experiment", out / name / "analyze"

        def experiment():
            run_cli(["experiment", "--config", path, "--out", exp_dir])
            with open(exp_dir / "report.json", "r", encoding="utf-8") as fh:
                res.observed[f"{name}_sandwich_pass"] = _check_report(
                    cfg, json.load(fh))
            return True

        def analyze():
            run_cli(["analyze", "--config", path, "--traj",
                     exp_dir / "trajectory.csv", "--out", ana_dir])
            expect((ana_dir / "report.json").read_bytes()
                   == (exp_dir / "report.json").read_bytes(),
                   f"{name} report.json from analyze differs from "
                   "the one from experiment")

        with res.timed(f"{name}_s"):
            if res.op(f"{name} experiment", experiment):
                res.op(f"{name} analyze", analyze)
            else:
                res.attempted += 1
                res.failed += 1


# ---------------------------------------------------------------------------
# kpp_front

@dataclass(frozen=True)
class KppState:
    spec: dict
    params: model.ModelParams
    data: model.InitialData
    grid: model.Grid
    config: solver.SolverConfig


def kpp_setup(seed):
    spec = load("kpp_front.json")
    g, d, s = spec["grid"], spec["datum"], spec["solver"]
    return KppState(
        spec=spec, params=params_of(spec["params"]),
        data=model.initial_data_build(d["C"], d["alpha"], d["x0"],
                                      d["plateau"]),
        grid=model.grid_build(g["kind"], g["x_left"], g["x_right"], g["n"],
                              ratio=g["ratio"]),
        config=solver.SolverConfig(dt=s["dt"], t_end=s["t_end"],
                                   snapshots=snapshot_times(s["snapshots"])))


def kpp_pass(st, out, tracer, res):
    want = st.spec["expected"]

    def run():
        traj = solver.simulate(st.data, st.grid, st.config, st.params)
        trace = analysis.track_level(traj, st.spec["level"])
        lo = min(float(f.values.min()) for f in traj.fields)
        hi = max(float(f.values.max()) for f in traj.fields)
        expect(0.0 <= lo and hi <= 1.0, f"u left [0, 1]: [{lo}, {hi}]")
        steps = int(traj.dt_history.size)
        expect(steps == want["steps"], f"{steps} steps")
        expect(bool(np.all(np.diff(trace.x) >= 0.0)), "front moved back")
        front = float(trace.x[-1])
        expect(abs(front - want["final_front"])
               <= want["rel_tol"] * want["final_front"],
               f"final front {front}")
        res.observed["final_front"] = front

    with res.timed("simulate_track_s"):
        res.op("kpp_front", run)


# ---------------------------------------------------------------------------
# analytic

@dataclass(frozen=True)
class AnalyticState:
    spec: dict
    sweep_argv: tuple
    cells: int
    alphas: np.ndarray
    betas: np.ndarray
    expected: list
    params: dict
    wave_g: object
    search_g: object


def logistic(s):
    return s * (1.0 - s)


def analytic_setup(seed):
    spec = load("analytic.json")
    sw = spec["sweep"]
    table = load(spec["expected_regimes_file"])
    (a0, a1, na), (b0, b1, nb) = sw["alpha"], sw["beta"]
    # Cell (i, j) of the alpha-major table sits at index i * nb + j.
    expected = [table["codes"][i] for i, n in table["runs"] for _ in range(n)]
    params = {k: params_of(dict(spec["base_params"], **v))
              for k, v in spec["param_sets"].items()}
    search = spec["speed_search"]
    return AnalyticState(
        spec=spec,
        sweep_argv=("sweep", "--m", sw["m"], "--alpha-min", a0,
                    "--alpha-max", a1, "--alpha-steps", na,
                    "--beta-min", b0, "--beta-max", b1,
                    "--beta-steps", nb),
        cells=na * nb, alphas=np.linspace(a0, a1, na),
        betas=np.linspace(b0, b1, nb), expected=expected, params=params,
        wave_g=waves.g_fn(spec["shots"]["m"], logistic),
        search_g=waves.g_fn(params[search["param_set"]].m,
                            model.default_reaction(
                                params[search["param_set"]])))


def _check_sweep(st, path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expect(len(rows) == st.cells, f"sweep has {len(rows)} rows")
    da = st.alphas[1] - st.alphas[0]
    db = st.betas[1] - st.betas[0]
    seen = set()
    for row in rows:
        a, b = float(row["alpha"]), float(row["beta"])
        ia = int(round((a - st.alphas[0]) / da))
        ib = int(round((b - st.betas[0]) / db))
        expect(0 <= ia < st.alphas.size and 0 <= ib < st.betas.size
               and math.isclose(a, st.alphas[ia], abs_tol=1e-12)
               and math.isclose(b, st.betas[ib], abs_tol=1e-12),
               f"sweep cell ({a}, {b}) is off the grid")
        got = row["regime"] + ("|" + row["label"] if row["label"] else "")
        want = st.expected[ia * st.betas.size + ib]
        expect(got == want, f"cell ({a}, {b}): {got}, expected {want}")
        seen.add(ia * st.betas.size + ib)
    expect(len(seen) == st.cells, "sweep repeats cells")


def analytic_pass(st, out, tracer, res):
    spec = st.spec

    def sweep():
        with tracer.span("cli.sweep"):
            run_cli(list(st.sweep_argv) + ["--out", out])
        _check_sweep(st, out / "sweep.csv")

    with res.timed("sweep_s"):
        res.op("sweep", sweep)

    def certificate(fn_name, set_name, eps, sign):
        p = st.params[set_name]
        args = (p,) if eps is None else (p, eps)
        cand = getattr(closedform, fn_name)(*args)
        expect(cand.sign == sign, f"{fn_name} on {set_name} has sign "
               f"{cand.sign}")
        rep = solver.discrete_residual(None, cand, p,
                                       samples=cand.sampler())
        ok = (rep.max_residual <= rep.tolerance if sign < 0
              else rep.min_residual >= -rep.tolerance)
        expect(ok, f"{fn_name} on {set_name}: residual "
               f"[{rep.min_residual}, {rep.max_residual}] against "
               f"tolerance {rep.tolerance}")

    with res.timed("certificates_s"):
        for case in spec["certificates"]:
            res.op(f"certificate {case[0]} {case[1]}", certificate, *case)

    shots = spec["shots"]
    m, h = shots["m"], shots["probe_h"]

    def shot(c):
        r = waves.shoot(c, shots["delta"], st.wave_g)
        expect(r.outcome == waves.CASE_III, f"shot c={c}: {r.outcome}")
        prof = waves.engler_transform(r, m)
        lo, hi = shots["probe_window"]
        worst = 0.0
        for x in np.linspace(lo * prof.x_c, hi * prof.x_c, shots["probes"]):
            u0, ul, ur = (prof.u_of_x(x), prof.u_of_x(x - h),
                          prof.u_of_x(x + h))
            d2 = (ur ** m - 2.0 * u0 ** m + ul ** m) / h ** 2
            d1 = (ur - ul) / (2.0 * h)
            worst = max(worst, abs(d2 + c * d1 + logistic(u0)))
        expect(worst <= shots["max_residual"],
               f"shot c={c}: ODE residual {worst}")

    with res.timed("shots_s"):
        for c in shots["speeds"]:
            res.op(f"shot c={c}", shot, c)

    def speed_search():
        cert = waves.find_compact_support_speed(
            st.search_g, spec["speed_search"]["delta"])
        expect(cert.full.outcome == waves.CASE_III,
               "speed certificate is not case iii")
        res.observed["speed_search_c0"] = cert.c0

    with res.timed("speed_search_s"):
        res.op("speed search", speed_search)


# ---------------------------------------------------------------------------
# ordering_batch

def _scaled(datum, lam):
    def u0(x):
        return lam * datum(x)
    return u0


@dataclass(frozen=True)
class OrderingState:
    grid: model.Grid
    config: solver.SolverConfig
    pairs: tuple
    tolerance: float


def ordering_setup(seed):
    spec = load("ordering_batch.json")
    rng = np.random.default_rng(seed)
    g, s, d = spec["grid"], spec["solver"], spec["draw"]
    pairs = []
    for k in range(spec["pairs"]):
        m = spec["m_cycle"][k % len(spec["m_cycle"])]
        alpha, beta, C, x0, plate, lam = (
            float(rng.uniform(*d[key]))
            for key in ("alpha", "beta", "C", "x0", "plateau", "lam"))
        p = model.ModelParams(m=m, alpha=alpha, beta=beta, r=1.0, r_bar=1.0,
                              C=C, C_bar=C, s0=0.5, x0=x0)
        datum = model.initial_data_build(C, alpha, x0, plate)
        pairs.append((f"pair {k} (m={m}, alpha={alpha:.4g}, "
                      f"beta={beta:.4g}, lam={lam:.4g})",
                      p, datum, _scaled(datum, lam)))
    return OrderingState(
        grid=model.grid_build(g["kind"], g["x_left"], g["x_right"], g["n"]),
        config=solver.SolverConfig(dt=s["dt"], t_end=s["t_end"],
                                   snapshots=snapshot_times(s["snapshots"]),
                                   right=s["right"]),
        pairs=tuple(pairs), tolerance=spec["tolerance"])


def ordering_pass(st, out, tracer, res):
    def pair(p, hi_datum, lo_datum):
        hi = solver.simulate(hi_datum, st.grid, st.config, p)
        lo = solver.simulate(lo_datum, st.grid, st.config, p)
        rep = analysis.ordering_check(lo, hi, tolerance=st.tolerance)
        expect(rep.passed, f"ordering violated by {rep.max_violation} "
               f"at t={rep.t_worst}")

    with res.timed("runs_s"):
        for what, p, hi_datum, lo_datum in st.pairs:
            res.op(what, pair, p, hi_datum, lo_datum)


@dataclass(frozen=True)
class Workload:
    setup: object    # seed -> state
    run: object      # (state, out dir, tracer, Pass) -> None
    figures: object  # (state, median seconds of each part) -> figures


def _analytic_figures(st, parts):
    return {"sweep_cells_per_s": (st.cells / parts["sweep_s"], "1/s"),
            "certificates_per_s": (len(st.spec["certificates"])
                                   / parts["certificates_s"], "1/s"),
            "shots_per_s": (len(st.spec["shots"]["speeds"])
                            / parts["shots_s"], "1/s"),
            "speed_search_s": (parts["speed_search_s"], "s")}


WORKLOADS = {
    "bundled_experiments": Workload(
        bundled_setup, bundled_pass,
        lambda st, parts: {k: (v, "s") for k, v in parts.items()}),
    "kpp_front": Workload(
        kpp_setup, kpp_pass,
        lambda st, parts: {"simulate_track_s":
                           (parts["simulate_track_s"], "s")}),
    "analytic": Workload(analytic_setup, analytic_pass, _analytic_figures),
    "ordering_batch": Workload(
        ordering_setup, ordering_pass,
        lambda st, parts: {"runs_per_s":
                           (2 * len(st.pairs) / parts["runs_s"], "1/s")}),
}
