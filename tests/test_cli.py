import csv
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from frontlab.cli import (_atomic_write, main, read_trajectory_csv,
                          write_trajectory_csv)
from frontlab.errors import DomainError
from frontlab.model import (
    ModelParams,
    field_build,
    grid_build,
    initial_data_build,
)
from frontlab.regimes import classify
from frontlab.solver import SolutionTrajectory, SolverConfig, simulate


def tiny_config(tmp_path, **solver_over):
    solver = {"scheme": "semi-implicit", "dt": 0.01, "t_end": 2.0,
              "snapshots": {"count": 40}, "right": "zero-value"}
    solver.update(solver_over)
    doc = {
        "m": 2.0, "alpha": 2.0, "beta": 1.25,
        "r": 1.0, "r_bar": 1.0, "C": 2.0, "C_bar": 2.0,
        "s0": 0.5, "x0": 1.5, "plateau": 1.0,
        "grid": {"kind": "uniform", "x_left": -5.0, "x_right": 40.0,
                 "n": 300},
        "solver": solver,
        "experiment": {"level": 0.5, "epsilon": 0.3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def last_json(capsys):
    return json.loads(capsys.readouterr().out)


# --- classify ------------------------------------------------------------------

def test_classify_reports_the_regime(capsys):
    assert main(["classify", "--m", "0.5", "--alpha", "8", "--beta", "1"]) == 0
    doc = last_json(capsys)
    assert doc["regime"] == "ExponentialAcceleration"
    assert doc["gamma"] == pytest.approx(0.25)

    assert main(["classify", "--m", "2", "--alpha", "2",
                 "--beta", "1.25"]) == 0
    doc = last_json(capsys)
    assert doc["regime"] == "PolynomialAcceleration"
    assert doc["exponent"] == pytest.approx(2.0)

    assert main(["classify", "--m", "2", "--alpha", "inf",
                 "--beta", "1.1"]) == 0
    assert last_json(capsys)["regime"] == "NoAcceleration"

    assert main(["classify", "--m", "0.5", "--alpha", "3",
                 "--beta", "1.4"]) == 0
    assert last_json(capsys)["regime"] == "InfiniteSpeedUnlocalized"


def test_classify_demands_its_flags():
    with pytest.raises(SystemExit) as ei:
        main(["classify", "--m", "2"])
    assert ei.value.code == 2


# --- exit code mapping -----------------------------------------------------------

def test_domain_errors_exit_2(capsys):
    assert main(["classify", "--m", "-1", "--alpha", "2", "--beta", "2"]) == 2
    assert main(["simulate"]) == 2  # simulate needs --config


def test_numerical_failure_exits_3():
    # g ~ s^2.25 decays too slowly for the origin event inside the default
    # integration window
    assert main(["shoot", "--c", "10", "--m", "2", "--alpha", "2",
                 "--beta", "1.25"]) == 3


def test_infinite_diffusivity_exits_3(tmp_path):
    # m < 1 with u_min = 0: the diffusivity is infinite at the zero node
    path = tiny_config(tmp_path, t_end=0.05, dt=0.01, u_min=0.0)
    doc = json.loads(path.read_text())
    doc.update(m=0.5, alpha=8.0, beta=1.0, C=1.0, C_bar=1.0, x0=2.0)
    path.write_text(json.dumps(doc))
    rc = main(["experiment", "--config", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 3


def test_infeasible_selection_exits_4(tmp_path):
    assert main(["construct", "--kind", "growth-super", "--m", "0.5",
                 "--alpha", "3", "--beta", "1.2", "--epsilon", "1.5",
                 "--out", str(tmp_path)]) == 4


# --- construct -------------------------------------------------------------------

def test_construct_prints_and_saves_the_description(tmp_path, capsys):
    rc = main(["construct", "--kind", "pme-bump", "--m", "2", "--alpha", "2",
               "--beta", "1.25", "--epsilon", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    doc = last_json(capsys)
    assert doc["kind"] == "pme-bump"
    assert doc["sign"] == -1
    saved = json.loads((tmp_path / "construct_pme-bump.json").read_text())
    assert saved == doc
    man = json.loads((tmp_path / "construct_manifest.json").read_text())
    assert man["subcommand"] == "construct"
    assert len(man["input_sha256"]) == 64
    assert any(p.endswith("construct_pme-bump.json") for p in man["outputs"])


# --- shoot / wave ----------------------------------------------------------------

def test_shoot_reports_the_outcome(capsys):
    rc = main(["shoot", "--c", "1", "--m", "0.5", "--alpha", "8",
               "--beta", "1"])
    assert rc == 0
    doc = last_json(capsys)
    assert doc["outcome"] == "case-iii"
    assert doc["y_c"] > 0.0
    assert doc["terminal_slope"] < 0.0


def test_wave_emits_the_profile_table(tmp_path, capsys):
    rc = main(["wave", "--c", "1", "--m", "0.5", "--alpha", "8",
               "--beta", "1", "--out", str(tmp_path)])
    assert rc == 0
    doc = last_json(capsys)
    assert doc["outcome"] == "case-iii"
    assert doc["x_c"] > 0.0
    rows = (tmp_path / "wave_profile.csv").read_text().splitlines()
    assert rows[0] == "x,U"
    first = rows[1].split(",")
    last = rows[-1].split(",")
    assert float(first[1]) == pytest.approx(0.5)  # starts at delta
    assert float(last[1]) == 0.0                  # compact support
    assert float(last[0]) == pytest.approx(doc["x_c"])
    assert (tmp_path / "wave_manifest.json").exists()


# --- simulate / analyze ------------------------------------------------------------

def test_simulate_then_analyze_round_trip(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    d1 = tmp_path / "sim"
    rc = main(["simulate", "--config", str(cfg), "--out", str(d1)])
    assert rc == 0
    doc = last_json(capsys)
    assert doc["snapshots"] == 41  # the datum plus 40 scheduled frames
    assert doc["nodes"] == 301
    traj_csv = d1 / "trajectory.csv"
    assert traj_csv.exists()
    assert (d1 / "simulate_manifest.json").exists()

    d2 = tmp_path / "ana"
    rc = main(["analyze", "--config", str(cfg), "--traj", str(traj_csv),
               "--out", str(d2)])
    assert rc == 0
    report = json.loads((d2 / "report.json").read_text())
    assert set(report) >= {"lambda", "fit", "sandwich", "violations",
                           "regime"}
    assert report["regime"] == "PolynomialAcceleration"
    assert report["lambda"] == 0.5
    assert report["fit"]["value"] is not None
    trace_lines = (d2 / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "t,x_lambda"
    assert len(trace_lines) == 1 + 41  # every frame crosses the 0.5 level


def test_trajectory_csv_round_trips_exactly(tmp_path):
    p = ModelParams(m=2.0, alpha=2.0, beta=1.25, r=1.0, r_bar=1.0,
                    C=1.0, C_bar=1.0, s0=0.5, x0=2.0)
    grid = grid_build("uniform", -5.0, 40.0, 60)
    traj = simulate(initial_data_build(1.0, 2.0, 2.0, 1.0), grid,
                    SolverConfig(dt=0.01, t_end=0.5, snapshots=(0.25, 0.5),
                                 right="zero-value"), p)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj)
    back = read_trajectory_csv(path)
    assert back.times == traj.times
    assert np.array_equal(back.grid.x, traj.grid.x)
    for fa, fb in zip(traj.fields, back.fields):
        assert np.array_equal(fa.values, fb.values)
    # the layout the README documents: header, grid row, one row per snapshot
    header, grid_row, *snapshot_rows = path.read_text().splitlines()
    assert (header == "# frontlab trajectory: grid row nan x_0..x_n; "
                      "then one row t u(x_0)..u(x_n) per snapshot"
            and grid_row.startswith("nan,")
            and len(snapshot_rows) == len(traj.times))


def test_trajectory_reader_guards_the_format(tmp_path):
    traj = SolutionTrajectory(
        grid=grid_build("uniform", 0.0, 1.0, 2), times=(0.0, 0.5),
        fields=(field_build([1.0, 0.5, 0.0], 0.0),
                field_build([1.0, 0.6, 0.1], 0.5)),
        dt_history=np.asarray([]), max_residual=float("nan"))
    good = tmp_path / "good.csv"
    write_trajectory_csv(good, traj)
    assert read_trajectory_csv(good).times == traj.times
    header, grid_row, row0, row1 = good.read_text().splitlines()

    def with_cell(row, i, text):
        cells = row.split(",")
        cells[i] = text
        return ",".join(cells)

    malformed = (
        ["t,x,u", "0,0,0"],                                  # wrong header
        [header],                                            # no rows
        [header, grid_row],                                  # no snapshots
        [header, row0, row1],                                # no grid row
        [header, grid_row, row0 + ",0.5", row1],             # ragged row
        [header, with_cell(grid_row, 1, "nan"), row0, row1],
        [header, grid_row, with_cell(row0, 0, "inf"), row1],
        [header, grid_row, row0, with_cell(row1, 2, "nan")],
    )
    bad = tmp_path / "bad.csv"
    for lines in malformed:
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError):
            read_trajectory_csv(bad)


def random_trajectory(n_nodes, n_snapshots, seed=3):
    rng = np.random.default_rng(seed)
    fields = tuple(field_build(rng.uniform(size=n_nodes), 0.1 * k)
                   for k in range(n_snapshots))
    return SolutionTrajectory(
        grid=grid_build("geometric", -2.0, 50.0, n_nodes - 1, ratio=1.0001),
        times=tuple(f.t for f in fields), fields=fields,
        dt_history=np.asarray([]), max_residual=float("nan"))


def test_trajectory_csv_bytes_match_a_savetxt_table(tmp_path):
    traj = random_trajectory(9, 5)
    edge = SolutionTrajectory(
        grid=traj.grid, times=traj.times + (1e3,),
        fields=traj.fields + (field_build(
            [0.0, 1.0, 1e-300, 5e-324, 0.1, 1 / 3, 2 / 3, 1 - 1e-16, 0.5],
            1e3),), dt_history=traj.dt_history, max_residual=math.nan)
    table = np.vstack(
        [np.concatenate([[np.nan], edge.grid.x])]
        + [np.concatenate([[t], f.values])
           for t, f in zip(edge.times, edge.fields)])
    ref = io.StringIO()
    np.savetxt(ref, table, fmt="%.17g", delimiter=",",
               header="# frontlab trajectory: grid row nan x_0..x_n; "
                      "then one row t u(x_0)..u(x_n) per snapshot",
               comments="")
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, edge)
    assert path.read_bytes() == ref.getvalue().encode("utf-8")


def test_trajectory_write_memory_is_bounded_by_one_row(tmp_path):
    # 60 snapshots of 20,001 nodes make about 23 MB of text; streaming row
    # by row keeps the traced peak near the size of one row
    traj = random_trajectory(20_001, 60)
    tracemalloc.start()
    try:
        write_trajectory_csv(tmp_path / "big.csv", traj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").stat().st_size > 20_000_000
    assert peak < 2_000_000


class ChunkSourceFailed(Exception):
    pass


def test_atomic_write_leaves_the_target_when_a_chunk_fails(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old\n")

    def chunks():
        yield "new first half\n"
        raise ChunkSourceFailed

    with pytest.raises(ChunkSourceFailed):
        _atomic_write(target, chunks())
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


# --- experiment ---------------------------------------------------------------------

def test_experiment_is_deterministic(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    d1, d2 = tmp_path / "e1", tmp_path / "e2"
    assert main(["experiment", "--config", str(cfg), "--out", str(d1)]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(d2)]) == 0
    m1 = json.loads((d1 / "experiment_manifest.json").read_text())
    m2 = json.loads((d2 / "experiment_manifest.json").read_text())
    assert m1["input_sha256"] == m2["input_sha256"]
    for name in ("trajectory.csv", "trace.csv", "report.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert len(m1["outputs"]) == 3


def test_experiment_report_carries_the_envelope_verdict(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["sandwich"] is not None
    assert set(report["sandwich"]) == {"pass", "T"}
    assert isinstance(report["violations"], list)


# --- sweep ---------------------------------------------------------------------------

def test_sweep_rows_agree_with_classify(tmp_path, capsys):
    rc = main(["sweep", "--m", "2", "--alpha-min", "0.5", "--alpha-max", "3",
               "--alpha-steps", "3", "--beta-min", "1", "--beta-max", "2",
               "--beta-steps", "3", "--out", str(tmp_path)])
    assert rc == 0
    assert last_json(capsys)["rows"] == 9
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    for row in rows:
        m, a, b = (float(row["m"]), float(row["alpha"]), float(row["beta"]))
        if row["status"] == "ok":
            kind = classify(m, a, b)
            assert row["regime"] == kind.regime.value
            if kind.exponent is not None:
                assert float(row["exponent"]) == pytest.approx(kind.exponent)
            if kind.label:
                assert row["label"] == kind.label
        else:
            assert row["status"].startswith("error:")
    assert (tmp_path / "sweep_manifest.json").exists()


def test_sweep_with_no_cells_writes_a_header(tmp_path, capsys):
    rc = main(["sweep", "--m", "2", "--alpha-min", "1", "--alpha-max", "2",
               "--alpha-steps", "0", "--beta-min", "1", "--beta-max", "2",
               "--beta-steps", "3", "--out", str(tmp_path)])
    assert rc == 0
    assert last_json(capsys)["rows"] == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines == ["m,alpha,beta,regime,gamma,exponent,label,status"]
