import csv
import hashlib
import itertools
import json
import math
import os
import re
import stat
import struct
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import frontlab
from frontlab import errors, waves
from frontlab.cli import (_atomic_write, main, read_trajectory_csv,
                          write_trajectory_csv)
from frontlab.errors import DomainError, FrontlabError
from frontlab.model import (
    ModelParams,
    default_reaction,
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

    # a boundary cell names the curve it sits on
    assert main(["classify", "--m", "2", "--alpha", "2",
                 "--beta", "1.5"]) == 0
    assert last_json(capsys) == {"label": "beta=1+1/alpha",
                                 "regime": "Boundary"}


def test_classify_demands_its_flags():
    with pytest.raises(SystemExit) as ei:
        main(["classify", "--m", "2"])
    assert ei.value.code == 2


@pytest.mark.parametrize("argv", [
    ["classify", "--m", "2", "--alpha", "abc", "--beta", "1.25"],
    ["construct", "--kind", "right-tail", "--m", "2", "--alpha", "abc",
     "--beta", "1.25"],
], ids=["classify", "construct"])
def test_a_word_for_alpha_is_a_usage_error(argv):
    src = Path(frontlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "frontlab.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "invalid float value: 'abc'" in proc.stderr
    assert "Traceback" not in proc.stderr


# each command takes only the flags it reads; CFG, TRAJ and OUT stand for
# a config file, a trajectory and an output directory
_BASE_ARGV = {
    "classify": ["classify", "--m", "2", "--alpha", "2", "--beta", "1.25"],
    "construct": ["construct", "--kind", "pme-bump", "--m", "2", "--alpha",
                  "2", "--beta", "1.25"],
    "shoot": ["shoot", "--c", "1", "--m", "0.5", "--beta", "1"],
    "wave": ["wave", "--c", "1", "--m", "0.5", "--beta", "1"],
    "simulate": ["simulate", "--config", "CFG", "--out", "OUT"],
    "analyze": ["analyze", "--config", "CFG", "--traj", "TRAJ", "--out",
                "OUT"],
    "sweep": ["sweep", "--m", "2", "--alpha-min", "1", "--alpha-max", "2",
              "--alpha-steps", "2", "--beta-min", "1", "--beta-max", "2",
              "--beta-steps", "2", "--out", "OUT"],
}
_FOREIGN_FLAGS = [
    ("classify", ["--config", "CFG"]), ("classify", ["--out", "OUT"]),
    ("classify", ["--json"]), ("classify", ["--r", "5"]),
    ("classify", ["--r-bar", "5"]), ("classify", ["--C", "2"]),
    ("classify", ["--C-bar", "2"]), ("classify", ["--s0", "0.7"]),
    ("classify", ["--x0", "3"]),
    ("construct", ["--config", "CFG"]),
    ("shoot", ["--config", "CFG"]), ("shoot", ["--out", "OUT"]),
    ("shoot", ["--json"]),
    ("wave", ["--config", "CFG"]), ("wave", ["--json"]),
    # a shot reads m, beta and r of the model, none of these
    *((cmd, flag) for cmd in ("shoot", "wave")
      for flag in (["--alpha", "8"], ["--r-bar", "2"], ["--C", "2"],
                   ["--C-bar", "2"], ["--s0", "0.7"], ["--x0", "3"])),
    ("simulate", ["--json"]),
    # analyze tracks the level the config names
    ("analyze", ["--level", "0.3"]),
    ("sweep", ["--config", "CFG"]), ("sweep", ["--json"]),
]


@pytest.mark.parametrize("command,flag", _FOREIGN_FLAGS,
                         ids=[f"{c}{f[0]}" for c, f in _FOREIGN_FLAGS])
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command,
                                                   flag):
    where = {"CFG": str(tiny_config(tmp_path)), "OUT": str(tmp_path / "out")}
    argv = [where.get(a, a) for a in _BASE_ARGV[command] + flag]
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


# --- one ending for every command -----------------------------------------------

# per command, a call that succeeds, and one that is refused with its exit
# code; CFG stands for a config, TRAJ for its trajectory, BAD for a config
# that is not a JSON object and OUT for an output directory; of a repeated
# flag the last value counts
_ENDINGS = {
    "classify": (_BASE_ARGV["classify"],
                 ["classify", "--m", "-1", "--alpha", "2", "--beta", "2"], 2),
    "construct": (_BASE_ARGV["construct"] + ["--out", "OUT"],
                  _BASE_ARGV["construct"] + ["--out", "OUT",
                                             "--epsilon", "1.5"], 2),
    "shoot": (_BASE_ARGV["shoot"],
              ["shoot", "--c", "-1", "--m", "0.5", "--beta", "1"], 2),
    "wave": (_BASE_ARGV["wave"] + ["--out", "OUT"],
             ["wave", "--c", "3", "--m", "1", "--beta", "1", "--out", "OUT"],
             3),
    "simulate": (_BASE_ARGV["simulate"],
                 ["simulate", "--config", "BAD", "--out", "OUT"], 2),
    "analyze": (_BASE_ARGV["analyze"],
                ["analyze", "--config", "CFG", "--traj", "CFG", "--out",
                 "OUT"], 2),
    "experiment": (["experiment", "--config", "CFG", "--out", "OUT"],
                   ["experiment", "--config", "BAD", "--out", "OUT"], 2),
    "sweep": (_BASE_ARGV["sweep"],
              _BASE_ARGV["sweep"] + ["--alpha-steps", "-1"], 2),
}


@pytest.mark.parametrize("command", sorted(_ENDINGS))
def test_every_command_ends_with_its_files_a_manifest_and_one_document(
        tmp_path, capsys, monkeypatch, command):
    ok_argv, refused_argv, code = _ENDINGS[command]
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    out = tmp_path / "out"
    where = {"CFG": str(tiny_config(tmp_path)), "BAD": str(bad),
             "OUT": str(out), "TRAJ": str(tmp_path / "run" / "trajectory.csv")}
    if "TRAJ" in ok_argv:
        assert main(["simulate", "--config", where["CFG"],
                     "--out", str(tmp_path / "run")]) == 0
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    capsys.readouterr()

    # a refused command prints only its frontlab: line and writes nothing
    assert main([where.get(a, a) for a in refused_argv]) == code
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert re.fullmatch(r"frontlab: [^\n]*\n", stderr)
    assert not out.exists()

    # one that succeeds prints exactly one JSON document
    assert main([where.get(a, a) for a in ok_argv]) == 0
    stdout, stderr = capsys.readouterr()
    doc, end = json.JSONDecoder().raw_decode(stdout)
    assert isinstance(doc, dict)
    assert stdout[end:] == "\n"
    assert stderr == ""
    assert list(cwd.iterdir()) == []
    if "OUT" not in ok_argv:
        assert not out.exists()
        return
    # and its manifest lists exactly the files it wrote
    manifest = out / f"{command}_manifest.json"
    outputs = json.loads(manifest.read_text())["outputs"]
    written = [str(p) for p in out.iterdir() if p != manifest]
    assert sorted(outputs) == sorted(written)


# --- exit code mapping -----------------------------------------------------------

def test_the_help_describes_every_command(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--help"])
    assert ei.value.code == 0
    out = capsys.readouterr().out
    for command in ("classify", "construct", "shoot", "wave", "simulate",
                    "analyze", "experiment", "sweep"):
        assert re.search(rf"^ +{command} +\S", out, re.M), command


def test_domain_errors_exit_2(tmp_path, capsys):
    assert main(["classify", "--m", "-1", "--alpha", "2", "--beta", "2"]) == 2
    with pytest.raises(SystemExit) as ei:
        main(["simulate"])  # simulate requires --config
    assert ei.value.code == 2
    capsys.readouterr()
    for alpha_steps, beta_steps in (("-1", "3"), ("3", "-1")):
        assert main(["sweep", "--m", "2", "--alpha-min", "1",
                     "--alpha-max", "2", "--alpha-steps", alpha_steps,
                     "--beta-min", "1", "--beta-max", "2",
                     "--beta-steps", beta_steps, "--out", str(tmp_path)]) == 2
        assert "-steps must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_numerical_failure_exits_3():
    # g ~ s^2.25 decays too slowly for the origin event inside the default
    # integration window
    assert main(["shoot", "--c", "10", "--m", "2", "--beta", "1.25"]) == 3


def test_a_stalled_shot_exits_3(capsys):
    # at r 1e200 the shot stalls near V = 0.5; the call cap ends it
    assert main(["shoot", "--c", "1", "--m", "2", "--beta", "1",
                 "--r", "1e200"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("frontlab: shot stalled") and "50000" in err
    assert "Traceback" not in err


def test_an_experiment_whose_floor_shot_stalls_exits_3(tmp_path, capsys):
    # noacc's certified floor c0 shoots at the config's reaction; at r 1e200
    # that shot stalls, and the bounds fail before anything is written
    doc = json.loads((resources.files("frontlab") / "configs"
                      / "noacc.json").read_text())
    doc.update(r=1e200, r_bar=1e200)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(["experiment", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("frontlab: shot stalled")
    assert not out.exists()


def test_wave_at_a_speed_with_no_case_iii_shot_exits_3(capsys):
    # at c = 3 the m = 1 shot never reaches V = 0, so there is no profile to
    # transform: the transform does not apply to the outcome
    assert main(["wave", "--c", "3", "--m", "1", "--beta", "1"]) == 3
    assert "needs a case-iii shot" in capsys.readouterr().err


def test_a_zero_node_under_fast_diffusion_exits_0(tmp_path):
    # m < 1 at the zero right node: the diffusivity floor of 1e-300 keeps
    # every step finite, and every snapshot in [0, 1]
    path = tiny_config(tmp_path, t_end=0.05, dt=0.01)
    doc = json.loads(path.read_text())
    doc.update(m=0.5, alpha=8.0, beta=1.0, C=1.0, C_bar=1.0, x0=2.0)
    path.write_text(json.dumps(doc))
    rc = main(["simulate", "--config", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    traj, _ = read_trajectory_csv(tmp_path / "out" / "trajectory.csv")
    assert all(np.all((f.values >= 0.0) & (f.values <= 1.0))
               for f in traj.fields)


def test_an_edge_value_out_of_float_range_exits_2(tmp_path, capsys):
    # m = 0.999999 with a light tail: the clamp's tail exponent is
    # 2/(1-m) = 2e6, and fde_kpp's x_right of 1.6e8 to that power overflows
    doc = json.loads((resources.files("frontlab") / "configs"
                      / "fde_kpp.json").read_text())
    doc.update(m=0.999999, alpha="inf")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("frontlab: ") and "tail exponent a 2e+06" in err
    assert "Traceback" not in err


def test_a_front_envelope_past_the_float_range_exits_2(tmp_path, capsys):
    # exp(hi_rate t) at alpha 1e-9 overflows by t = 40; the grid-edge check
    # names the float range instead of leaking numpy's overflow warning
    doc = json.loads((resources.files("frontlab") / "configs"
                      / "noacc.json").read_text())
    doc.update(m=1.0, alpha=1e-9, beta=2.0)
    doc["grid"] = {"kind": "uniform", "x_left": -10.0, "x_right": 1e6,
                   "n": 200}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("frontlab: ") and "out of float range" in err
    assert not out.exists()


def test_a_tail_onset_out_of_float_range_exits_2(tmp_path, capsys):
    # 10^400 is past the float range, so the datum's onset C/x0^alpha is
    # refused instead of raising a bare OverflowError
    doc = json.loads((resources.files("frontlab") / "configs"
                      / "noacc.json").read_text())
    doc.update(alpha=400.0, x0=10.0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("frontlab: ") and "alpha 400 and x0 10" in err
    assert "Traceback" not in err


def test_a_tail_past_the_float_range_beyond_the_onset_is_zero(tmp_path):
    # 1.05^300 is in range, but x^300 overflows down the grid: the tail
    # C/inf = 0 is right there, and no numpy warning (which the test config
    # makes an error) may leak
    doc = json.loads((resources.files("frontlab") / "configs"
                      / "noacc.json").read_text())
    doc.update(alpha=300.0, x0=1.05)
    doc["solver"]["t_end"] = 1.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out",
                 str(tmp_path)]) == 0


def readme_exit_codes():
    """{error class name: exit code} from the README's exit-code table."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    codes = {}
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) == 5 and cells[1].strip().isdigit():
            for name in re.findall(r"`(\w+)`", cells[3]):
                codes[name] = int(cells[1])
    return codes


def test_every_error_class_exits_with_the_code_the_readme_gives():
    classes = [FrontlabError]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    assert {cls.__name__ for cls in classes} == {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, FrontlabError)}
    assert {cls.__name__: cls.exit_code for cls in classes} == \
        readme_exit_codes()


def test_infeasible_selection_exits_4(tmp_path):
    # epsilon lies in (0, 1) but not below r, which growth-super needs
    assert main(["construct", "--kind", "growth-super", "--m", "0.5",
                 "--alpha", "3", "--beta", "1.2", "--epsilon", "0.5",
                 "--r", "0.4", "--out", str(tmp_path)]) == 4


# closed-form constructions whose arithmetic leaves the float range, each
# an InfeasibleSelection naming the quantity; each once raised a bare
# OverflowError or ZeroDivisionError, or warned of an overflow (an error
# under pytest and CI)
FLOAT_RANGE_CONSTRUCTS = [
    ("const-super --m 2 --alpha 1 --beta 1026", "z1 = (K/s0)^(beta-1)"),
    ("pme-bump --m 1.001 --alpha 0.001 --beta 1",
     "abscissa (C/(0.45 cut))^(1/alpha)"),
    ("fde-sub --m 0.05 --alpha 0.001 --beta 1", "level curve"),
    ("fde-sub --m 0.999 --alpha 100 --beta 1", "A at kappa"),
    ("growth-super --m 0.05 --alpha 0.001 --beta 1 --C 1000 --C-bar 1000 "
     "--s0 0.99 --x0 1e6", "tail onset C^(1/a)"),
    ("growth-super --m 0.05 --alpha 0.001 --beta 1.0001", "level curve"),
]


@pytest.mark.parametrize("flags,quantity", FLOAT_RANGE_CONSTRUCTS,
                         ids=["const-super-z1", "pme-bump-abscissa",
                              "fde-sub-level-curve", "fde-sub-A",
                              "growth-super-onset",
                              "growth-super-level-curve"])
def test_a_construction_past_the_float_range_is_refused_by_name(
        capsys, flags, quantity):
    assert main(["construct", "--kind", *flags.split()]) == 4
    err = capsys.readouterr().err
    assert err.startswith("frontlab: ") and quantity in err
    assert "out of float range" in err


def test_a_right_tail_factor_past_the_float_range_is_refused_by_name(capsys):
    # m (m-1) overflows at every mu the search tries; the factor's NaN once
    # leaked as a numpy warning (an error under pytest and CI)
    assert main(["construct", "--kind", "right-tail", "--m", "1e300",
                 "--alpha", "300", "--beta", "1", "--epsilon", "1e-9"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("frontlab: ") and "positivity factor" in err
    assert "out of float range" in err


@pytest.mark.parametrize("kind", ["pme-bump", "fde-sub", "appendix-sub",
                                  "growth-super", "const-super",
                                  "right-tail"])
def test_constructions_at_extreme_exponents_fail_only_with_typed_errors(
        capsys, kind):
    # each cell certifies or exits with a FrontlabError's code; any other
    # exception, a numpy warning among them, escapes main
    for m, alpha, beta in itertools.product(
            ("0.05", "0.999", "1.001", "2", "30"),
            ("1e-3", "100", "1e4", "inf"), ("1", "1.0001", "2000")):
        rc = main(["construct", "--kind", kind, "--m", m, "--alpha", alpha,
                   "--beta", beta])
        err = capsys.readouterr().err
        assert rc == 0 or (rc in (2, 3, 4) and err.startswith("frontlab: ")
                           and "Traceback" not in err), (m, alpha, beta)


@pytest.mark.parametrize("spoil", [
    lambda d: d["grid"].pop("x_left"),
    lambda d: d["grid"].update(n=float("nan")),
    lambda d: d["solver"].pop("dt"),
    lambda d: d.update(m="two"),
    lambda d: d["solver"].update(snapshots=[1.0, float("nan")]),
    lambda d: d["solver"].update(snapshots={"count": "ten"}),
    lambda d: d["solver"].update(snapshots={"count": 0}),
    lambda d: d.update(solver=None),
    lambda d: d["solver"].update(reaction_on="false"),
    lambda d: d["experiment"].update(level="half"),
    lambda d: d["grid"].update(n=300.9),
    lambda d: d["solver"].update(snapshots={"count": 2.9}),
    lambda d: d["solver"].update(scheme="explicit"),
    lambda d: d["solver"].update(dt_control="cfl"),
    lambda d: d["solver"].update(u_min=1e-12),
    lambda d: d["solver"].update(rigth="zero-flux"),
    lambda d: d["solver"].update(right="zero-flux"),
    lambda d: d["solver"]["snapshots"].update(last=1.0),
    lambda d: d["grid"].update(ration=1.02),
    lambda d: d["experiment"].update(levle=0.5),
    lambda d: d.update(plateu=0.3),
    lambda d: d.update(r=True),
    lambda d: d["solver"].update(t_end=True),
    lambda d: d["solver"].update(snapshots=[True, 2.0]),
], ids=["no-x-left", "nan-n", "no-dt", "word-m", "nan-snapshot",
        "word-count", "zero-count", "null-solver", "string-reaction-on",
        "word-level", "fractional-n", "fractional-count", "explicit-scheme",
        "cfl-dt-control", "u-min", "unknown-solver-key", "zero-flux-right",
        "unknown-snapshots-key",
        "unknown-grid-key", "unknown-experiment-key",
        "unknown-top-level-key", "bool-r", "bool-t-end", "bool-snapshot"])
def test_malformed_config_exits_2(tmp_path, capsys, spoil):
    path = tiny_config(tmp_path)
    # a trajectory that analyze accepts with the unspoiled config
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "good")]) == 0
    traj = tmp_path / "good" / "trajectory.csv"
    doc = json.loads(path.read_text())
    spoil(doc)
    path.write_text(json.dumps(doc))
    # the three commands that take a config refuse the same documents
    for argv in (["simulate"], ["analyze", "--traj", str(traj)],
                 ["experiment"]):
        out = tmp_path / argv[0]
        rc = main([*argv, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, argv[0]
        assert err.startswith("frontlab: ")
        if "unknown key" in err:  # the message names the misspelled key
            assert any(f"'{k}'" in err
                       for k in ("rigth", "last", "ration", "levle", "plateu",
                                 "dt_control", "reaction_on", "u_min"))
        if "policy" in err:  # and the right-edge policy it does not know
            assert "'zero-flux'" in err
        assert not out.exists(), argv[0]


def test_whole_valued_float_counts_are_accepted(tmp_path):
    path = tiny_config(tmp_path, snapshots={"count": 40.0})
    doc = json.loads(path.read_text())
    doc["grid"]["n"] = 300.0
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
    traj, _ = read_trajectory_csv(out / "trajectory.csv")
    assert traj.grid.x.size == 301
    assert len(traj.times) == 41


@pytest.mark.parametrize("text", ["{\"m\": 2.0,", "[1, 2]"],
                         ids=["truncated", "list"])
def test_config_that_is_not_a_json_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["experiment", "--config", str(path),
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("frontlab: config ")


# --- construct -------------------------------------------------------------------

def test_construct_prints_and_saves_the_description(tmp_path, capsys):
    rc = main(["construct", "--kind", "pme-bump", "--m", "2", "--alpha", "2",
               "--beta", "1.25", "--epsilon", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    doc = last_json(capsys)
    assert doc["kind"] == "pme-bump"
    assert doc["sign"] == -1
    # the residual sign check ran on the sampler's 256 points
    res = doc["residual"]
    assert set(res) == {"max", "min", "mean", "tolerance", "n", "sign_ok"}
    assert res["n"] == 256
    assert res["min"] <= res["mean"] <= res["max"] <= res["tolerance"]
    assert res["sign_ok"] is True
    saved = json.loads((tmp_path / "construct_pme-bump.json").read_text())
    assert saved == doc
    man = json.loads((tmp_path / "construct_manifest.json").read_text())
    assert man["subcommand"] == "construct"
    assert len(man["input_sha256"]) == 64
    assert any(p.endswith("construct_pme-bump.json") for p in man["outputs"])


CONSTRUCT_HOMES = [
    ("pme-bump", "2", "2", "1.25"),
    # at beta = 1 the sampler times the growth to the cut exponentially
    ("pme-bump", "2", "2", "1"),
    ("fde-sub", "0.5", "8", "1"),
    ("appendix-sub", "0.5", "3", "1.2"),
    ("growth-super", "0.5", "3", "1.2"),
    ("const-super", "2", "1", "2.5"),
    ("right-tail", "0.5", "8", "1"),
]


@pytest.mark.parametrize("kind,m,alpha,beta", CONSTRUCT_HOMES)
def test_construct_certifies_each_kind_at_its_home_parameters(
        tmp_path, capsys, kind, m, alpha, beta):
    rc = main(["construct", "--kind", kind, "--m", m, "--alpha", alpha,
               "--beta", beta, "--json", "--out", str(tmp_path)])
    assert rc == 0
    doc = last_json(capsys)
    assert doc["residual"]["sign_ok"] is True
    assert json.loads((tmp_path / f"construct_{kind}.json").read_text()) == doc


@pytest.mark.parametrize("kind,m,alpha,beta", CONSTRUCT_HOMES)
def test_construct_validates_epsilon_once_and_records_the_value_used(
        tmp_path, capsys, kind, m, alpha, beta):
    args = ["construct", "--kind", kind, "--m", m, "--alpha", alpha,
            "--beta", beta, "--json", "--out", str(tmp_path)]
    for bad in ("-0.5", "0", "1", "1.5", "-7", "nan"):
        assert main(args + ["--epsilon", bad]) == 2, bad
    assert main(args + ["--epsilon", "0.7"]) == 0
    man = json.loads((tmp_path / "construct_manifest.json").read_text())
    # right-tail caps epsilon at 0.5; const-super uses none
    used = {"right-tail": 0.5, "const-super": None}.get(kind, 0.7)
    assert man["config"]["epsilon"] == used


def test_construct_signs_a_supersolution_residual_from_below(tmp_path,
                                                             capsys):
    rc = main(["construct", "--kind", "right-tail", "--m", "2", "--alpha",
               "2", "--beta", "1.25", "--json", "--out", str(tmp_path)])
    assert rc == 0
    doc = last_json(capsys)
    assert doc["sign"] == 1
    res = doc["residual"]
    # a supersolution needs min >= -tolerance; its maximum is unbounded
    assert res["max"] > res["tolerance"]
    assert res["min"] >= -res["tolerance"]
    assert res["sign_ok"] is True


# --- shoot / wave ----------------------------------------------------------------

def test_shoot_reports_the_outcome(capsys):
    rc = main(["shoot", "--c", "1", "--m", "0.5", "--beta", "1"])
    assert rc == 0
    doc = last_json(capsys)
    assert doc["outcome"] == "case-iii"
    assert doc["y_c"] > 0.0
    assert doc["terminal_slope"] < 0.0


@pytest.mark.parametrize("flags", [
    ["--c", "nan"], ["--c", "inf"], ["--c", "1", "--y-max", "nan"],
    ["--c", "1", "--y-max", "0"], ["--c", "1", "--y-max", "-1"],
], ids=["c-nan", "c-inf", "y-max-nan", "y-max-0", "y-max-negative"])
def test_shoot_rejects_a_speed_or_window_that_cannot_work(capsys, flags):
    # NaN used to integrate without end, the rest to exit 3
    assert main(["shoot", *flags, "--m", "0.5", "--beta", "1"]) == 2
    assert capsys.readouterr().err.startswith("frontlab: ")


def test_shoot_accepts_an_unbounded_window(capsys):
    assert main(["shoot", "--c", "10", "--m", "2", "--beta", "1",
                 "--y-max", "inf"]) == 0
    assert last_json(capsys)["outcome"] == "case-i"


def test_a_truncated_shot_is_the_compact_support_certificate(capsys):
    # c = 0.25 is where find_compact_support_speed's halving from 1 stops
    # for m = 2, beta = 2.5, so --truncate must give its ignition shot
    assert main(["shoot", "--c", "0.25", "--m", "2", "--beta", "2.5",
                 "--truncate"]) == 0
    doc = last_json(capsys)
    params = ModelParams(m=2.0, alpha=math.inf, beta=2.5, r=1.0, r_bar=1.0,
                         C=1.0, C_bar=1.0, s0=0.5, x0=2.0)
    cert = waves.find_compact_support_speed(
        waves.g_fn(2.0, default_reaction(params)), 0.5)
    assert cert.c0 == 0.25
    shot = cert.ignition
    assert doc == {"outcome": "case-iii", "c": 0.25, "delta": 0.5,
                   "y_c": shot.y_c, "terminal_slope": shot.terminal_slope}


def test_construct_and_wave_write_files_only_with_out(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    construct = ["construct", "--kind", "pme-bump", "--m", "2", "--alpha",
                 "2", "--beta", "1.25"]
    wave = ["wave", "--c", "1", "--m", "0.5", "--beta", "1"]
    assert main(construct) == 0
    assert main(wave) == 0
    assert list(tmp_path.iterdir()) == []
    assert main(construct + ["--out", "."]) == 0
    assert main(wave + ["--out", "."]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "construct_manifest.json", "construct_pme-bump.json",
        "wave_manifest.json", "wave_profile.csv"]


def test_wave_emits_the_profile_table(tmp_path, capsys):
    rc = main(["wave", "--c", "1", "--m", "0.5", "--beta", "1",
               "--out", str(tmp_path)])
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


def test_wave_manifest_records_every_input_of_the_shot(tmp_path, capsys):
    # the profile depends on beta (and r, y_max): runs that write different
    # profiles must not share an input hash
    manifests = {}
    for beta in ("1", "1.2"):
        out = tmp_path / beta
        assert main(["wave", "--c", "1", "--m", "0.5", "--beta", beta,
                     "--out", str(out)]) == 0
        manifests[beta] = json.loads(
            (out / "wave_manifest.json").read_text())
    assert ((tmp_path / "1" / "wave_profile.csv").read_bytes()
            != (tmp_path / "1.2" / "wave_profile.csv").read_bytes())
    assert (manifests["1"]["input_sha256"]
            != manifests["1.2"]["input_sha256"])
    assert manifests["1.2"]["config"] == {
        "m": 0.5, "beta": 1.2, "r": 1.0, "c": 1.0, "delta": 0.5,
        "truncate": False, "y_max": None}


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


def test_analyze_tracks_the_level_the_config_names(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    doc = json.loads(cfg.read_text())
    doc["experiment"]["level"] = 0.3
    cfg.write_text(json.dumps(doc))
    exp, ana = tmp_path / "exp", tmp_path / "ana"
    assert main(["experiment", "--config", str(cfg), "--out", str(exp)]) == 0
    assert main(["analyze", "--config", str(cfg), "--traj",
                 str(exp / "trajectory.csv"), "--out", str(ana)]) == 0
    assert json.loads((ana / "report.json").read_text())["lambda"] == 0.3
    for name in ("report.json", "trace.csv"):
        assert (ana / name).read_bytes() == (exp / name).read_bytes(), name


def test_analyze_repeats_experiment_in_the_infinite_speed_regime(tmp_path,
                                                                 capsys):
    # m 0.5, alpha 8, beta 1.4 has infinite speed without localization:
    # analyze fits no rate there and reports only the envelope verdict
    cfg = tiny_config(tmp_path, t_end=10.0, snapshots={"count": 20},
                      right="analytic-clamp")
    doc = json.loads(cfg.read_text())
    doc.update(m=0.5, alpha=8.0, beta=1.4, C=1.0, C_bar=1.0, x0=1.05)
    doc["grid"].update(x_left=-10.0, x_right=60.0, n=700)
    cfg.write_text(json.dumps(doc))
    exp, ana = tmp_path / "exp", tmp_path / "ana"
    assert main(["experiment", "--config", str(cfg), "--out", str(exp)]) == 0
    assert main(["analyze", "--config", str(cfg), "--traj",
                 str(exp / "trajectory.csv"), "--out", str(ana)]) == 0
    report = json.loads((ana / "report.json").read_text())
    assert report["regime"] == "InfiniteSpeedUnlocalized"
    assert report["fit"] is None and report["sandwich"] is not None
    for name in ("report.json", "trace.csv"):
        assert (ana / name).read_bytes() == (exp / name).read_bytes(), name


@pytest.mark.parametrize("grid", [
    {"x_right": float(np.nextafter(40.0, math.inf))}, {"n": 301},
], ids=["edge-one-ulp-out", "one-node-more"])
def test_analyze_refuses_a_trajectory_of_another_grid(tmp_path, capsys,
                                                      grid):
    cfg = tiny_config(tmp_path)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "sim")]) == 0
    doc = json.loads(cfg.read_text())
    doc["grid"].update(grid)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    out = tmp_path / "ana"
    capsys.readouterr()
    assert main(["analyze", "--config", str(other), "--traj",
                 str(tmp_path / "sim" / "trajectory.csv"),
                 "--out", str(out)]) == 2
    assert "not the config's grid" in capsys.readouterr().err
    assert not out.exists()


def run_sha256(doc):
    # the sha256 of the config's canonical JSON without its "experiment"
    run = {k: v for k, v in doc.items() if k != "experiment"}
    text = json.dumps(run, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_analyze_refuses_a_trajectory_of_another_run(tmp_path, capsys):
    # noacc's trajectory on noacc's grid, read under other reaction rates:
    # the grids agree to the bit, but the run digests in the header do not
    doc = json.loads((resources.files("frontlab") / "configs"
                      / "noacc.json").read_text())
    doc["solver"]["t_end"] = 1.0
    cfg = tmp_path / "noacc.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "sim")]) == 0
    traj = tmp_path / "sim" / "trajectory.csv"
    header = traj.read_text().split("\n", 1)[0]
    assert header == TRAJECTORY_HEADER + "; run sha256 " + run_sha256(doc)
    other_doc = dict(doc, r=0.5, r_bar=0.5)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(other_doc))
    capsys.readouterr()
    out = tmp_path / "ana"
    assert main(["analyze", "--config", str(other), "--traj", str(traj),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert run_sha256(doc) in err and run_sha256(other_doc) in err
    assert not out.exists()
    # a trajectory with no run digest, the format before it, is refused too
    old = tmp_path / "old.csv"
    old.write_text(traj.read_text().replace(header, TRAJECTORY_HEADER, 1))
    assert main(["analyze", "--config", str(cfg), "--traj", str(old),
                 "--out", str(out)]) == 2
    assert "none recorded" in capsys.readouterr().err
    assert not out.exists()


TRAJECTORY_HEADER = ("# frontlab trajectory: binary64 big-endian hex cells; "
                     "grid row nan x_0..x_n; "
                     "then one row t u(x_0)..u(x_n) per snapshot")
NAN_CELL = "7ff8000000000000"
# the run digest the library trajectories below are written with
RUN = hashlib.sha256(b"a library trajectory").hexdigest()
RUN_HEADER = TRAJECTORY_HEADER + "; run sha256 " + RUN


def cell(v):
    return struct.pack(">d", v).hex()


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64),
                          np.asarray(b).view(np.uint64))


def test_trajectory_csv_round_trips_exactly(tmp_path):
    p = ModelParams(m=2.0, alpha=2.0, beta=1.25, r=1.0, r_bar=1.0,
                    C=1.0, C_bar=1.0, s0=0.5, x0=2.0)
    grid = grid_build("uniform", -5.0, 40.0, 60)
    traj = simulate(initial_data_build(1.0, 2.0, 2.0, 1.0), grid,
                    SolverConfig(dt=0.01, t_end=0.5, snapshots=(0.25, 0.5),
                                 right="zero-value"), p)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj, RUN)
    back, run = read_trajectory_csv(path)
    assert run == RUN
    assert back.times == traj.times
    assert np.array_equal(back.grid.x, traj.grid.x)
    for fa, fb in zip(traj.fields, back.fields):
        assert np.array_equal(fa.values, fb.values)
    # the layout the README documents: header, grid row, one row per snapshot
    header, grid_row, *snapshot_rows = path.read_text().splitlines()
    assert (header == RUN_HEADER
            and grid_row.startswith(NAN_CELL + ",")
            and len(snapshot_rows) == len(traj.times))


def test_trajectory_reader_guards_the_format(tmp_path):
    traj = SolutionTrajectory(
        grid=grid_build("uniform", 0.0, 1.0, 2), times=(0.0, 0.5),
        fields=(field_build([1.0, 0.5, 0.0], 0.0),
                field_build([1.0, 0.6, 0.1], 0.5)),
        dt_history=np.asarray([]), max_residual=float("nan"))
    good = tmp_path / "good.csv"
    write_trajectory_csv(good, traj, RUN)
    assert read_trajectory_csv(good)[0].times == traj.times
    header, grid_row, row0, row1 = good.read_text().splitlines()

    def with_cell(row, i, text):
        cells = row.split(",")
        cells[i] = text
        return ",".join(cells)

    old_decimal = [
        "# frontlab trajectory: grid row nan x_0..x_n; "
        "then one row t u(x_0)..u(x_n) per snapshot",
        "nan,0,0.5,1", "0,1,0.5,0", "0.5,1,0.59999999999999998,0.1"]
    malformed = (
        (["t,x,u", "0,0,0"], "header"),
        (old_decimal, "header"),
        ([TRAJECTORY_HEADER, grid_row, row0, row1], "none recorded"),
        ([header[:-1], grid_row, row0, row1], "header"),  # a short digest
        ([header], "no grid row"),
        ([header, grid_row], "no snapshots"),
        ([header, row0, row1], "start with nan"),
        ([header, grid_row, row0 + "," + cell(0.5), row1], "cells"),
        ([header, grid_row, row0[:-1], row1], "cells"),
        ([header, with_cell(grid_row, 1, NAN_CELL), row0, row1],
         "grid nodes must be finite"),
        ([header, grid_row, with_cell(row0, 0, "7ff0000000000000"), row1],
         "not finite"),
        ([header, grid_row, row0, with_cell(row1, 2, NAN_CELL)],
         "not finite"),
        ([header, grid_row, with_cell(row0, 1, "3ff000000000000g"), row1],
         "lowercase hex"),
        ([header, grid_row, with_cell(row0, 1, "3FF0000000000000"), row1],
         "lowercase hex"),
        # two bytes of UTF-8 in place of two digits keep the row's length
        ([header, grid_row, with_cell(row0, 1, "3ff00000000000\u00e9"), row1],
         "lowercase hex"),
        ([header, grid_row, row0.replace(",", ";", 1), row1], "comma"),
        ([header, grid_row, row1, row0], "must increase"),   # out of order
        ([header, grid_row, row0, row1, row1], "must increase"),  # repeated
    )
    bad = tmp_path / "bad.csv"
    for lines, match in malformed:
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DomainError, match=match):
            read_trajectory_csv(bad)


def random_trajectory(n_nodes, n_snapshots, seed=3):
    rng = np.random.default_rng(seed)
    fields = tuple(field_build(rng.uniform(size=n_nodes), 0.1 * k)
                   for k in range(n_snapshots))
    return SolutionTrajectory(
        grid=grid_build("geometric", -2.0, 50.0, n_nodes - 1, ratio=1.0001),
        times=tuple(f.t for f in fields), fields=fields,
        dt_history=np.asarray([]), max_residual=float("nan"))


def test_trajectory_csv_bytes_are_the_hex_of_each_float(tmp_path):
    traj = random_trajectory(9, 5)
    edge = SolutionTrajectory(
        grid=traj.grid, times=traj.times + (1e3,),
        fields=traj.fields + (field_build(
            [0.0, 1.0, 1e-300, 5e-324, 0.1, 1 / 3, 2 / 3, 1 - 1e-16, 0.5],
            1e3),), dt_history=traj.dt_history, max_residual=math.nan)
    rows = [[math.nan, *edge.grid.x.tolist()]] + [
        [t, *f.values.tolist()] for t, f in zip(edge.times, edge.fields)]
    ref = "".join(",".join(cell(v) for v in row) + "\n" for row in rows)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, edge, RUN)
    assert path.read_bytes() == (RUN_HEADER + "\n" + ref).encode()
    back, _ = read_trajectory_csv(path)
    assert same_bits(back.grid.x, edge.grid.x)
    assert back.times == edge.times
    for fa, fb in zip(back.fields, edge.fields):
        assert same_bits(fa.values, fb.values)


def test_trajectory_write_memory_is_bounded_by_one_row(tmp_path):
    # 60 snapshots of 20,001 nodes make about 23 MB of text; streaming row
    # by row keeps the traced peak near the size of one row
    traj = random_trajectory(20_001, 60)
    tracemalloc.start()
    try:
        write_trajectory_csv(tmp_path / "big.csv", traj, RUN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").stat().st_size > 20_000_000
    assert peak < 2_000_000


def test_trajectory_read_memory_is_bounded_by_the_fields(tmp_path):
    # the fields hold 60 x 20,001 values (9.6 MB); decoding row by row adds
    # about one row, where a whole-file table would double the peak
    traj = random_trajectory(20_001, 60)
    path = tmp_path / "big.csv"
    write_trajectory_csv(path, traj, RUN)
    tracemalloc.start()
    try:
        back, _ = read_trajectory_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back.fields) == 60
    assert peak < 1.5 * 60 * 20_001 * 8


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

@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_atomic_write_honours_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        _atomic_write(tmp_path / "atomic.txt", ["x\n"])
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "atomic.txt").st_mode)
    assert mode == 0o666 & ~umask
    assert mode == stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode)


def test_experiment_artifacts_honour_the_umask(tmp_path, capsys):
    path = tiny_config(tmp_path)
    out = tmp_path / "out"
    old = os.umask(0o027)
    try:
        assert main(["experiment", "--config", str(path),
                     "--out", str(out)]) == 0
    finally:
        os.umask(old)
    names = sorted(p.name for p in out.iterdir())
    assert names == ["experiment_manifest.json", "report.json", "trace.csv",
                     "trajectory.csv"]
    for p in out.iterdir():
        assert stat.S_IMODE(p.stat().st_mode) == 0o640, p.name


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


@pytest.mark.parametrize("change,code,message", [
    # no acceleration: the constant-speed supersolution overflows
    ({"alpha": 1.0, "beta": 1026.0, "C": 1.0, "C_bar": 1.0, "x0": 2.0}, 4,
     "z1 = (K/s0)^(beta-1)"),
    # polynomial: the envelopes need 0 < epsilon < r
    ({"experiment": {"level": 0.5, "epsilon": 1.5}}, 2, "epsilon"),
], ids=["noacc-beta-1026", "epsilon-1.5"])
def test_experiment_refuses_bounds_it_cannot_build_before_simulating(
        tmp_path, capsys, change, code, message):
    path = tiny_config(tmp_path)
    doc = json.loads(path.read_text())
    doc.update(change)
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path),
                 "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    # no trajectory.csv, no manifest: nothing at all
    assert not out.exists()


def test_an_epsilon_outside_0_r_is_refused_in_every_regime(tmp_path, capsys):
    # noacc has no envelopes, so nothing read its epsilon before _run_config
    # checked it for every regime
    doc = json.loads((resources.files("frontlab") / "configs"
                      / "noacc.json").read_text())
    doc["experiment"]["epsilon"] = 1.5
    doc["solver"]["t_end"] = 4.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path),
                 "--out", str(out)]) == 2
    assert "need 0 < epsilon < r" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()
    assert not (out / "experiment_manifest.json").exists()


@pytest.mark.parametrize("case", ["missing-config", "config-is-a-directory",
                                  "config-not-utf8", "missing-trajectory",
                                  "out-is-a-file"])
def test_a_path_that_cannot_be_read_or_made_exits_2(tmp_path, capsys, case):
    # each once escaped main as an OSError or UnicodeDecodeError traceback.
    # Paths that are missing or the wrong kind of file, not unreadable ones:
    # a file's permissions do not stop a process that runs as root
    cfgs = resources.files("frontlab") / "configs"
    path = tmp_path / "missing.json"
    argv = ["simulate", "--config", str(path)]
    if case == "config-is-a-directory":
        path = tmp_path
        argv = ["simulate", "--config", str(path)]
    elif case == "config-not-utf8":
        path.write_bytes(b"\xff\xfe{}")
    elif case == "missing-trajectory":
        path = tmp_path / "missing.csv"
        argv = ["analyze", "--config", str(cfgs / "noacc.json"),
                "--traj", str(path), "--out", str(tmp_path / "out")]
    elif case == "out-is-a-file":
        path.write_text("")
        argv = ["sweep", "--m", "2", "--alpha-min", "1", "--alpha-max", "2",
                "--alpha-steps", "2", "--beta-min", "1", "--beta-max", "2",
                "--beta-steps", "2", "--out", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("frontlab: ") and err.count("\n") == 1
    if case != "config-not-utf8":
        assert str(path) in err


# pme-bump, fde-sub and appendix-sub at epsilon 1e-17 (r - epsilon rounds to
# r = 1) and 1.1e-16 (the midpoint rounds onto r); then fde-sub at a beta
# near 1e15, where rho (1+eta) rounds onto r beta inside the interval
RHO_EDGES = [
    (kind + " --r 1 --epsilon " + eps, name)
    for kind, name in (("pme-bump --m 2 --alpha 1 --beta 1", "bump"),
                       ("fde-sub --m 0.5 --alpha 8 --beta 1", "plateau-cut"),
                       ("appendix-sub --m 0.5 --alpha 3 --beta 1.2",
                        "generalized"))
    for eps in ("1e-17", "1.1e-16")
] + [("fde-sub --m 0.5 --alpha 1e-16 --beta 1753262345350927.5 "
      "--r 2.234731694926842e-10 --r-bar 1 --epsilon 1.5878723722031239e-24",
      "plateau-cut")]


@pytest.mark.parametrize("flags,name", RHO_EDGES,
                         ids=[f"{f.split()[0]}-{f.split()[-1]}"
                              for f, _ in RHO_EDGES])
def test_a_rho_interval_too_narrow_for_floats_is_one_refusal(
        capsys, flags, name):
    assert main(["construct", "--kind", *flags.split()]) == 4
    assert capsys.readouterr().err == (
        f"frontlab: {name} subsolution: the rho interval "
        f"(max(r beta/(1+eta), r-epsilon), r) is too narrow for floats\n")


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


# (m, (alpha min, max, steps), (beta min, max, steps), DomainError rows,
# Boundary rows, sha256 of sweep.csv)
GOLDEN_SWEEPS = [
    # m = 0.5: the 24 cells with beta < 1 are errors, 17 sit on a curve
    ("0.5", ("0.5", "6", "12"), ("0.5", "3", "11"), 24, 17,
     "4edd7d98b8f98f3d9be91d0436810f171bebef39c7a903e39406b0328be147b1"),
    # m = 2: 16 cells with beta < 1, and 4 on beta = 1+1/alpha (alpha =
    # 0.5, 1, 2, 4)
    ("2", ("0.5", "4", "8"), ("0.5", "3", "11"), 16, 4,
     "b171964496cddcede0369610b99e3f75d8cfeb519f5ebe14f42b1b963f37c038"),
    # m = 0 lies outside the domain, so every cell is an error
    ("0", ("-1", "4", "6"), ("0.5", "3", "6"), 36, 0,
     "84cc6c8434247e8250d09ed7d145331b5c47c270e8cd35c546f97e4ec59ae18f"),
]


def test_sweep_bytes_match_the_golden_table(tmp_path, capsys):
    # each hash pins every byte of its table
    for m, alpha, beta, errors, boundaries, digest in GOLDEN_SWEEPS:
        out = tmp_path / f"m{m}"
        rc = main(["sweep", "--m", m, "--alpha-min", alpha[0],
                   "--alpha-max", alpha[1], "--alpha-steps", alpha[2],
                   "--beta-min", beta[0], "--beta-max", beta[1],
                   "--beta-steps", beta[2], "--out", str(out)])
        assert rc == 0
        cells = int(alpha[2]) * int(beta[2])
        assert last_json(capsys)["rows"] == cells
        data = (out / "sweep.csv").read_bytes()
        rows = data.decode("utf-8").splitlines()[1:]
        assert len(rows) == cells
        assert sum(r.endswith(",error:DomainError") for r in rows) == errors
        assert sum(",Boundary," in r for r in rows) == boundaries
        assert hashlib.sha256(data).hexdigest() == digest, m


def test_sweep_with_no_cells_writes_a_header(tmp_path, capsys):
    rc = main(["sweep", "--m", "2", "--alpha-min", "1", "--alpha-max", "2",
               "--alpha-steps", "0", "--beta-min", "1", "--beta-max", "2",
               "--beta-steps", "3", "--out", str(tmp_path)])
    assert rc == 0
    assert last_json(capsys)["rows"] == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines == ["m,alpha,beta,regime,gamma,exponent,label,status"]


@pytest.mark.parametrize("alpha_steps,beta_steps",
                         [("1000000", "0"), ("0", "1000000")])
def test_an_empty_sweep_returns_after_its_header(tmp_path, capsys,
                                                 alpha_steps, beta_steps):
    # the long axis is neither classified nor formatted: 1e6 alphas took
    # 14.6 s when each row was classified against no betas
    t0 = time.perf_counter()
    rc = main(["sweep", "--m", "2", "--alpha-min", "1", "--alpha-max", "2",
               "--alpha-steps", alpha_steps, "--beta-min", "1",
               "--beta-max", "2", "--beta-steps", beta_steps,
               "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert last_json(capsys)["rows"] == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines == ["m,alpha,beta,regime,gamma,exponent,label,status"]
    assert elapsed < 1.0


# sha256 of trajectory.csv, report.json and trace.csv from `experiment` on a
# shipped config; the trajectory pins the bits of every step. One set per
# pow numpy can take: its AVX-512 loop rounds about 5 % of elements
# differently from libm's pow, which it uses on other CPUs, and the steps
# raise to powers. This set is the AVX-512 one
GOLDEN_EXPERIMENTS = {
    "fde_kpp": (
        "0fc3501b281faafd9f80fb4a69dc468c747d88e54eab448c56f8276c57191131",
        "ab97f3bdf74f5adcebb80a4736f1a8f43df898df4589e7601bd20e2e2dbe1f53",
        "fa3dac70668e63387ec99035719531e1f9505bf505fcb9777bd449c12fb87702"),
    "noacc": (
        "fe8dd620cb3e800d6b5bcdbf8a87d1695b2f7622418bd053ea2d40d42cd57ee6",
        "b8eee0b36ed1bcde7b3f598a12fc5f165adc52cb5e630df53488eacf68c5d8f3",
        "ed5c772485bd273ca027dbca7c64679065996426f7c8b7c82c27ad9af7e65c5b"),
    "pme_poly": (
        "f3655a5efab123699078efa5f04d12860dfdd1a6ebde72ba6c831c391350ff53",
        "db558457f2bbacec8e1bc27e25db0689e56473ac3fc8b11171af41f8d3e9c221",
        "ed2d65cc2930f34e544e1d7f196e0cab0a10e6e3ad7d6c68d31d6fa938ed4d70"),
}


# the same where numpy's pow is libm's (no AVX-512 dispatch, as under
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" with numpy 2.4)
GOLDEN_EXPERIMENTS_LIBM_POW = {
    "fde_kpp": (
        "005ab6c17082e74b74da39eabc8697973b4824a4493c6fbb7e213a71722ff05c",
        "49a0c79c31bb354c5560d2855d04434d64e813f0cf6ae3c7393c63acc141a22c",
        "64932790591b56d93b8fbf3a51993a13ed3773776ae153d97693131733e2d158"),
    "noacc": (
        "82a9237fed889275433512bb348738227b082c3a374f045c4f170fa2648793d9",
        "b8eee0b36ed1bcde7b3f598a12fc5f165adc52cb5e630df53488eacf68c5d8f3",
        "ed5c772485bd273ca027dbca7c64679065996426f7c8b7c82c27ad9af7e65c5b"),
    "pme_poly": (
        "a39c39d39a00abe9138a7bfa397a9d0c68ec0c567a972500cc78e721016a57e1",
        "db558457f2bbacec8e1bc27e25db0689e56473ac3fc8b11171af41f8d3e9c221",
        "e4833dea0b21619fd66b93093e20fc55ef95e6e7fc2bf35dbbee370d7e3c532b"),
}
# sha256 of the pow probe's bytes on numpy's AVX-512 path
AVX512_POW_PROBE = (
    "938661f4da9b729c378381de4973da31d1261e73913b72da051c00d34a65198a")


def golden_experiments():
    """The digest set of the pow numpy takes here: libm's when np.power
    equals math.pow on a fixed array, else the AVX-512 one if the probe
    matches it. Any other path fails, naming its probe."""
    x = np.linspace(0.5, 2.0, 1001)
    probe = np.power(x, 2.5)
    if probe.tolist() == [math.pow(v, 2.5) for v in x.tolist()]:
        return GOLDEN_EXPERIMENTS_LIBM_POW
    digest = hashlib.sha256(probe.tobytes()).hexdigest()
    if digest != AVX512_POW_PROBE:
        pytest.fail(f"numpy's pow takes a path with no pinned digests: "
                    f"np.power(linspace(0.5, 2, 1001), 2.5) has sha256 "
                    f"{digest}, neither math.pow's nor AVX-512's")
    return GOLDEN_EXPERIMENTS


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPERIMENTS))
def test_experiment_on_a_shipped_config_matches_the_golden_hashes(
        tmp_path, capsys, name):
    golden = golden_experiments()[name]
    config = resources.files("frontlab") / "configs" / f"{name}.json"
    exp, ana = tmp_path / "exp", tmp_path / "ana"
    assert main(["experiment", "--config", str(config),
                 "--out", str(exp)]) == 0
    # analyze reads the trajectory back and must write the same bytes
    assert main(["analyze", "--config", str(config), "--traj",
                 str(exp / "trajectory.csv"), "--out", str(ana)]) == 0

    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert sha256(exp / "trajectory.csv") == golden[0]
    for out in (exp, ana):
        digests = tuple(sha256(out / f) for f in ("report.json", "trace.csv"))
        assert digests == golden[1:], out.name


# --- start-up ------------------------------------------------------------------------

# each SciPy module a command may load, bound where it runs; see the waves
# and solver docstrings
_SCIPY_PARTS = ("scipy.integrate", "scipy.interpolate", "scipy.linalg")


def scipy_loaded(code, cwd):
    """The SciPy modules loaded after running ``code`` in a fresh
    interpreter, as a sorted list of names."""
    src = Path(frontlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (code + "\nimport json, sys\nprint(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, cwd=cwd, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert scipy_loaded("import frontlab.cli", tmp_path) == []


@pytest.mark.parametrize("argv", [
    _BASE_ARGV["classify"],
    ["construct", "--kind", "growth-super", "--m", "2", "--alpha", "2",
     "--beta", "1.25"],
    ["sweep", "--m", "2", "--alpha-min", "0.5", "--alpha-max", "3",
     "--alpha-steps", "3", "--beta-min", "1", "--beta-max", "2",
     "--beta-steps", "3", "--out", "sweep"],
], ids=["classify", "construct", "sweep"])
def test_the_quick_commands_load_no_scipy_part(tmp_path, argv):
    loaded = scipy_loaded("from frontlab.cli import main\n"
                          f"assert main({argv!r}) == 0", tmp_path)
    assert not set(loaded) & set(_SCIPY_PARTS), loaded


def test_shoot_loads_the_integrator_but_not_the_interpolator(tmp_path):
    loaded = scipy_loaded("from frontlab.cli import main\n"
                          f"assert main({_BASE_ARGV['shoot']!r}) == 0",
                          tmp_path)
    assert "scipy.integrate" in loaded
    assert "scipy.interpolate" not in loaded
