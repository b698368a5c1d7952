from __future__ import annotations

import csv
import json
import logging
import math
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

import fluidq
from fluidq.cli import MAX_GRID_POINTS, CliError, _time_grid, build_parser, main
from fluidq.distributions import Exponential
from fluidq.fluid import (FluidClass, FluidModelInput, equilibrium_band,
                          invariant_state)
from fluidq.measures import Box

LN2 = math.log(2.0)

MARKOV_CLASS = {
    "arrival": {"family": "exponential", "rate": 2.0},
    "service": {"family": "exponential", "rate": 1.0},
    "deadline": {"family": "exponential", "rate": 1.0},
}

# Two classes whose workload path from empty crosses the deadline knots at
# 0.5 and 1 on its way up to the band {1.5}.
KINK_FLUID_CONFIG = {
    "model": {"classes": [
        {"arrival": {"family": "exponential", "rate": 1.5},
         "service": {"family": "exponential", "rate": 1.0},
         "deadline": {"family": "uniform_mixture", "components": [
             {"weight": 0.5, "lo": 0.0, "hi": 1.0},
             {"weight": 0.5, "lo": 2.0, "hi": 3.0}]}},
        {"arrival": {"family": "exponential", "rate": 1.0},
         "service": {"family": "exponential", "rate": 2.0},
         "deadline": {"family": "uniform", "lo": 0.5, "hi": 2.5}},
    ]},
    "fluid": {"w0": 0.0, "horizon": 3.0, "grid_step": 0.1},
}

HAND_TRACE_CLASS = {
    "arrival": {"family": "replay", "samples": [1.0, 1.0, 1.0]},
    "service": {"family": "replay", "samples": [5.0, 5.0, 5.0]},
    "deadline": {"family": "replay", "samples": [10.0, 2.0, 3.0]},
}


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("FLUIDQ_SEED", raising=False)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fluid_command_happy_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "fluid": {"horizon": 2.0, "grid_step": 0.5},
    })
    out = tmp_path / "artifacts"
    code, stdout, _ = run_cli(capsys, "fluid", "--config", cfg, "--out", str(out))
    assert code == 0
    printed = stdout.strip().splitlines()
    assert [p.rsplit("/", 1)[-1] for p in printed] == [
        "workload.csv", "functionals.csv", "band.json"]

    rows = read_csv(out / "workload.csv")
    assert rows[0] == ["t", "w", "tau"]
    assert [float(r[0]) for r in rows[1:]] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert float(rows[1][1]) == 0.0
    # closed form ln(2 - e^{-t}) for this model
    assert float(rows[3][1]) == pytest.approx(math.log(2 - math.exp(-1)), abs=1e-8)

    funcs = read_csv(out / "functionals.csv")
    assert funcs[0] == ["t", "class", "z", "n", "a"]
    assert len(funcs) == 6
    by_t = {float(r[0]): r for r in funcs[1:]}
    assert float(by_t[1.0][2]) == pytest.approx(0.6321205588285576784, abs=1e-8)
    assert float(by_t[1.0][3]) == pytest.approx(0.48988012564474997671, abs=1e-8)
    assert float(by_t[1.0][4]) == pytest.approx(0.14224043318380770169, abs=1e-8)

    band = json.loads((out / "band.json").read_text())
    assert band["w_l"] == pytest.approx(LN2, abs=1e-9)
    assert band["w_u"] == pytest.approx(LN2, abs=1e-9)
    assert band["d_max"] == math.inf
    assert band["at_w_l"]["queue_length"][0] == pytest.approx(1.0, abs=1e-9)
    assert band["at_w_l"]["nonabandoning"][0] == pytest.approx(LN2, abs=1e-9)


def test_time_grid_does_not_depend_on_the_time_unit():
    """The written grid, divided by c, is the same at c = 1e-6, 1 and 1e6:
    its end check is relative to the horizon, so the horizon row is never
    dropped. fluid_kink's horizons 3 and 0.6 at step 0.02 keep their grids."""
    base = _time_grid(1.0, 0.3333333)
    assert len(base) == 5 and base[-1] == 1.0
    for c in (1e-6, 1e6):
        assert [t / c for t in _time_grid(c * 1.0, c * 0.3333333)] == pytest.approx(
            base, rel=1e-15)
    for horizon, count in ((3.0, 151), (0.6, 31)):
        grid = _time_grid(horizon, 0.02)
        assert len(grid) == count and grid[-1] == horizon
        assert grid == [min(i * 0.02, horizon) for i in range(count)]
    assert _time_grid(0.0, 1.0) == [0.0]


def test_fluid_command_invariant_start(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "fluid": {"horizon": 1.0, "w0": LN2, "grid_step": 0.25},
    })
    code, _, _ = run_cli(capsys, "fluid", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    rows = read_csv(tmp_path / "o" / "workload.csv")
    for row in rows[1:]:
        assert float(row[1]) == pytest.approx(LN2, abs=1e-8)


def test_fluid_command_box_initial(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "fluid": {
            "horizon": 1.0,
            "grid_step": 0.5,
            "initial": {"kind": "boxes", "pieces": [
                {"class": 0, "box": [0.0, 1.0, 0.0, 2.0], "mass": 1.0}]},
        },
    })
    code, _, _ = run_cli(capsys, "fluid", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    funcs = read_csv(tmp_path / "o" / "functionals.csv")
    by_t = {float(r[0]): r for r in funcs[1:]}
    assert float(by_t[0.5][2]) == pytest.approx(1.1619386805747331528, abs=1e-8)


def test_fluid_rejects_w0_outside_band(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "fluid": {"horizon": 1.0, "w0": 0.3},
    })
    code, _, err = run_cli(capsys, "fluid", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 3
    assert "equilibrium band" in err


def test_fluid_rejects_w0_above_deadlines(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [{
            "arrival": {"family": "exponential", "rate": 2.0},
            "service": {"family": "exponential", "rate": 1.0},
            "deadline": {"family": "uniform", "lo": 0.0, "hi": 2.0},
        }]},
        "fluid": {"horizon": 1.0, "w0": 3.0},
    })
    code, _, err = run_cli(capsys, "fluid", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 3
    assert "largest deadline" in err


def test_fluid_rejects_w0_initial_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "fluid": {
            "horizon": 1.0,
            "w0": 0.5,
            "initial": {"kind": "boxes", "pieces": [
                {"class": 0, "box": [0.0, 1.0, 0.0, 2.0], "mass": 1.0}]},
        },
    })
    code, _, err = run_cli(capsys, "fluid", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 3
    assert "support edge" in err


def test_fluid_rejects_replay_model(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [HAND_TRACE_CLASS]},
        "fluid": {"horizon": 1.0},
    })
    code, _, err = run_cli(capsys, "fluid", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 2
    assert "replay" in err


def test_simulate_hand_trace(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [HAND_TRACE_CLASS]},
        "sim": {"horizon": 7.0},
    })
    out = tmp_path / "o"
    code, stdout, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert code == 0
    assert len(stdout.strip().splitlines()) == 3

    jobs = read_csv(out / "jobs.csv")
    assert jobs[0] == ["class", "j", "arrival", "v", "d", "workload_before",
                       "w", "p", "served", "exit_time", "exit_cause"]
    assert len(jobs) == 4
    assert [float(r[2]) for r in jobs[1:]] == [1.0, 2.0, 3.0]
    assert [r[8] for r in jobs[1:]] == ["1", "0", "0"]
    assert [float(r[9]) for r in jobs[1:]] == [6.0, 4.0, 6.0]
    assert [r[10] for r in jobs[1:]] == ["service", "abandonment", "abandonment"]

    workload = read_csv(out / "workload.csv")
    assert workload[0] == ["t", "W"]
    assert [(float(r[0]), float(r[1])) for r in workload[1:]] == [
        (0.0, 0.0), (1.0, 5.0), (2.0, 4.0), (3.0, 3.0), (7.0, 0.0)]

    snapshot = read_csv(out / "snapshot.csv")
    assert snapshot == [["class", "w", "p", "mass"]]  # everyone is gone by 7


def test_simulate_snapshot_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [HAND_TRACE_CLASS]},
        "sim": {"horizon": 3.5},
    })
    out = tmp_path / "o"
    code, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert code == 0
    snapshot = read_csv(out / "snapshot.csv")
    atoms = sorted((float(r[1]), float(r[2])) for r in snapshot[1:])
    assert atoms == [(2.5, 0.5), (2.5, 2.5), (2.5, 12.5)]


def test_seed_precedence(tmp_path, capsys, monkeypatch):
    def simulate(seed_flag=None, env=None, cfg_seed=None, tag=""):
        sim = {"horizon": 5.0}
        if cfg_seed is not None:
            sim["seed"] = cfg_seed
        cfg = write_config(tmp_path, {
            "model": {"classes": [MARKOV_CLASS]}, "sim": sim,
        }, name=f"cfg{tag}.json")
        out = tmp_path / f"out{tag}"
        argv = ["simulate", "--config", cfg, "--out", str(out)]
        if seed_flag is not None:
            argv += ["--seed", str(seed_flag)]
        if env is None:
            monkeypatch.delenv("FLUIDQ_SEED", raising=False)
        else:
            monkeypatch.setenv("FLUIDQ_SEED", str(env))
        assert main(argv) == 0
        capsys.readouterr()
        return (out / "jobs.csv").read_bytes()

    flag_wins = simulate(seed_flag=7, env=5, cfg_seed=3, tag="a")
    plain_7 = simulate(cfg_seed=7, tag="b")
    assert flag_wins == plain_7

    env_wins = simulate(env=5, cfg_seed=3, tag="c")
    plain_5 = simulate(cfg_seed=5, tag="d")
    assert env_wins == plain_5
    assert env_wins != plain_7

    default_zero = simulate(tag="e")
    plain_0 = simulate(cfg_seed=0, tag="f")
    assert default_zero == plain_0


def test_bad_seed_env_rejected(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]}, "sim": {"horizon": 1.0},
    })
    monkeypatch.setenv("FLUIDQ_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "simulate", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert "FLUIDQ_SEED" in err


@pytest.mark.parametrize("command", ("simulate", "converge"))
@pytest.mark.parametrize("source", ("flag", "env", "config"))
def test_negative_seed_is_a_config_error(tmp_path, capsys, monkeypatch, command, source):
    """A negative seed from --seed or FLUIDQ_SEED reached numpy's
    SeedSequence and died with a ValueError traceback (exit 1)."""
    cfg = {"model": {"classes": [MARKOV_CLASS]}, "sim": {"horizon": 1.0}}
    if source == "config":
        cfg["sim"]["seed"] = -2
    if command == "converge":
        cfg["converge"] = {"scales": [2], "reps": 1}
    argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "env":
        monkeypatch.setenv("FLUIDQ_SEED", "-3")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "config error at sim" in err and ">= 0" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("step", ("5e-324", "1e-9", "2.9999e-6"))
def test_fluid_grid_with_too_many_points_is_a_config_error(tmp_path, capsys, step):
    """A subnormal step overflowed _time_grid's point count (OverflowError,
    exit 1), and a step of 1e-9 would have built 3e9 floats; both are
    refused before the grid or the solve is built."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"classes": [MARKOV_CLASS]}, "fluid": {"horizon": 3.0, "grid_step": "STEP"},
    }).replace('"STEP"', step))
    code, _, err = run_cli(capsys, "fluid", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "config error at fluid.grid_step" in err
    assert not (tmp_path / "o").exists()


def test_time_grid_point_limit():
    """MAX_GRID_POINTS multiples of the step fit; one more is refused."""
    grid = _time_grid(MAX_GRID_POINTS - 1.0, 1.0)
    assert len(grid) == MAX_GRID_POINTS and grid[-1] == MAX_GRID_POINTS - 1
    with pytest.raises(CliError, match="fluid.grid_step"):
        _time_grid(float(MAX_GRID_POINTS), 1.0)


def test_converge_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "sim": {"horizon": 2.0, "seed": 1},
        "converge": {"scales": [2, 4], "reps": 1, "time_grid": [0.0, 1.0, 2.0]},
    })
    out = tmp_path / "o"
    code, stdout, _ = run_cli(capsys, "converge", "--config", cfg, "--out", str(out))
    assert code == 0
    report = read_csv(out / "report.csv")
    assert report[0] == ["n", "rep", "t", "metric", "class", "sim_value",
                         "fluid_value", "abs_err"]
    assert {r[0] for r in report[1:]} == {"2", "4"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["summary"] and summary["footer"]

    # the whole pipeline is deterministic: rerunning gives identical bytes
    out2 = tmp_path / "o2"
    code, _, _ = run_cli(capsys, "converge", "--config", cfg, "--out", str(out2))
    assert code == 0
    assert (out / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_warm_converge_across_deadline_knots_is_quick(tmp_path, capsys):
    """The warm-start fluid solve runs from empty across the knots at 0.5
    and 1; splitting the ODE there keeps it well under a second."""
    cfg = write_config(tmp_path, {
        "model": {"classes": [
            {"arrival": {"family": "exponential", "rate": 1.5},
             "service": {"family": "exponential", "rate": 1.0},
             "deadline": {"family": "uniform_mixture", "components": [
                 {"weight": 0.5, "lo": 0.0, "hi": 1.0},
                 {"weight": 0.5, "lo": 2.0, "hi": 3.0}]}},
            {"arrival": {"family": "exponential", "rate": 1.0},
             "service": {"family": "exponential", "rate": 2.0},
             "deadline": {"family": "uniform", "lo": 0.5, "hi": 2.5}},
        ]},
        "sim": {"horizon": 1.0, "seed": 3, "initial": {"kind": "warm"}},
        "converge": {"scales": [5, 25], "reps": 2},
    })

    def stop(signum, frame):
        raise TimeoutError("converge did not finish within 5 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        code, _, _ = run_cli(capsys, "converge", "--config", cfg,
                             "--out", str(tmp_path / "o"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0


def test_fluid_command_work_is_bounded(tmp_path, capsys, monkeypatch):
    """`fluidq fluid` across two kinks: as many bisections on a ten times
    finer time grid, each of at most 64 passes, and no adaptive quadrature:
    the workload solve times its level nodes with fixed Gauss-Legendre
    panels."""
    from fluidq import numerics

    bisect, integrate = numerics.bisect_leftmost, numerics.integrate
    calls = {"integrate": 0, "bisect_leftmost": 0}
    passes = []

    def counting_bisect(holds, lo, hi):
        calls["bisect_leftmost"] += 1
        passes.append(0)

        def counted(s):
            passes[-1] += 1
            return holds(s)
        return bisect(counted, lo, hi)

    def counting_integrate(*args, **kwargs):
        calls["integrate"] += 1
        return integrate(*args, **kwargs)

    monkeypatch.setattr(numerics, "bisect_leftmost", counting_bisect)
    monkeypatch.setattr(numerics, "integrate", counting_integrate)

    def work(grid_step):
        cfg = write_config(tmp_path, {
            **KINK_FLUID_CONFIG,
            "fluid": {"w0": 0.0, "horizon": 3.0, "grid_step": grid_step},
        })
        code, _, _ = run_cli(capsys, "fluid", "--config", cfg,
                             "--out", str(tmp_path / str(grid_step)))
        assert code == 0
        used = dict(calls)
        calls.update(dict.fromkeys(calls, 0))
        return used

    coarse, fine = work(0.02), work(0.002)
    assert 0 < coarse["bisect_leftmost"] == fine["bisect_leftmost"]
    assert max(passes) <= 64
    assert coarse["integrate"] == fine["integrate"] == 0


def test_fluid_command_bisects_the_band_once(tmp_path, capsys, monkeypatch):
    """One `fluidq fluid` run computes the equilibrium band once: the
    command, the workload solve and both band-edge invariant states read
    the model's cached band."""
    from fluidq import fluid

    band = fluid.equilibrium_band
    calls = []

    def counting(model):
        calls.append(model)
        return band(model)

    monkeypatch.setattr(fluid, "equilibrium_band", counting)
    cfg = write_config(tmp_path, KINK_FLUID_CONFIG)
    code, _, _ = run_cli(capsys, "fluid", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    assert len(calls) == 1


def test_fluid_command_inverts_the_frontier_once(tmp_path, capsys, monkeypatch):
    """One `fluidq fluid` run bisects twice: the band, and tau on the time
    grid in its one grid pass, which gives workload.csv's tau column and
    every class's z, n and a."""
    from fluidq import numerics

    bisect = numerics.bisect_leftmost
    lanes = []

    def counting(holds, lo, hi):
        out = bisect(holds, lo, hi)
        lanes.append(np.size(out))
        return out

    monkeypatch.setattr(numerics, "bisect_leftmost", counting)
    cfg = write_config(tmp_path, KINK_FLUID_CONFIG)
    code, _, _ = run_cli(capsys, "fluid", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    # the band's two levels, then the grid's 31 times but t = 0, which needs none
    assert lanes == [2, 30]


def test_fluid_debug_log_shows_two_bisections(tmp_path, capsys, caplog):
    """At DEBUG each bisection logs its lanes and passes: on the kink
    config, the band and the grid pass. tau keeps no answers, so it logs
    nothing."""
    cfg = write_config(tmp_path, KINK_FLUID_CONFIG)
    with caplog.at_level(logging.DEBUG, logger="fluidq"):
        code, _, _ = run_cli(capsys, "fluid", "--config", cfg, "--out", str(tmp_path / "o"),
                             "--log-level", "DEBUG")
    assert code == 0
    bisections = [r.getMessage() for r in caplog.records if r.name == "fluidq.numerics"]
    assert len(bisections) == 2
    for line, lanes in zip(bisections, (2, 30)):
        passes = int(re.fullmatch(rf"bisect_leftmost: {lanes} lanes, (\d+) passes", line)[1])
        assert 0 < passes <= 64
    assert not [r for r in caplog.records if r.getMessage().startswith("tau:")]


def run_fresh(tmp_path, runs, packages):
    """Run each CLI argv (--out added) in one fresh Python that imports
    fluidq first; the exit codes and the loaded modules that are one of
    `packages` (a dotted module name) or inside one."""
    runs = [argv + ["--out", str(tmp_path / argv[0])] for argv in runs]
    script = ("import json, sys\n"
              "import fluidq, fluidq.cli\n"
              "codes = [fluidq.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, sorted(\n"
              "    m for m in sys.modules\n"
              "    if any(m == p or m.startswith(p + '.') for p in sys.argv[2:]))]))\n")
    src = os.path.dirname(os.path.dirname(fluidq.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs), *packages],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fluid_and_simulate_runs(tmp_path):
    return [
        ["fluid", "--config", write_config(tmp_path, KINK_FLUID_CONFIG, "fluid.json")],
        ["simulate", "--config", write_config(tmp_path, {
            "model": {"classes": [MARKOV_CLASS]},
            "sim": {"horizon": 2.0, "n": 5, "seed": 1}}, "simulate.json")],
    ]


def test_commands_load_no_scipy(tmp_path):
    """fluidq runs on numpy alone: importing it and running `fluid`,
    `simulate` and `converge` once each loads no scipy module, nor
    numpy.ma (which np.unique loads, about 15 ms), nor numpy.polynomial
    (3-5 ms; the Gauss-Legendre nodes are written out). The check runs in
    a child process, since the tests' oracles load scipy here."""
    runs = fluid_and_simulate_runs(tmp_path) + [
        ["converge", "--config", write_config(tmp_path, {
            "model": {"classes": [MARKOV_CLASS]},
            "sim": {"horizon": 2.0, "seed": 1},
            "converge": {"scales": [2, 4], "reps": 1, "time_grid": [0.0, 1.0, 2.0]},
        }, "converge.json")],
    ]
    assert run_fresh(tmp_path, runs, ["scipy", "numpy.ma", "numpy.polynomial"]) == [
        [0, 0, 0], []]


def test_fluid_and_simulate_load_no_process_pool(tmp_path):
    """Only converge starts processes, and it imports multiprocessing when
    it does: importing fluidq and running `fluid` and `simulate` once each
    loads neither multiprocessing nor concurrent.futures, so they add
    nothing to the import time or the resident size. Checked in a child
    process, since the test process may have loaded them."""
    runs = fluid_and_simulate_runs(tmp_path)
    assert run_fresh(tmp_path, runs, ["multiprocessing", "concurrent"]) == [[0, 0], []]


def test_converge_rejects_scaled_base(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "sim": {"horizon": 1.0, "n": 2},
        "converge": {"scales": [4], "reps": 1},
    })
    code, _, err = run_cli(capsys, "converge", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert "sim.n" in err


def test_converge_rejects_replay_laws(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [HAND_TRACE_CLASS]},
        "sim": {"horizon": 2.0},
        "converge": {"scales": [2], "reps": 1},
    })
    code, _, err = run_cli(capsys, "converge", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert "replay" in err


@pytest.mark.parametrize("kappa", ("0", "-0.1", "1e400"))
def test_converge_rejects_bad_corner_radii_before_simulating(tmp_path, capsys, monkeypatch,
                                                             kappa):
    """A corner radius is positive and finite; json reads 1e400 as inf."""
    import fluidq.scaling

    def no_run(*args):
        raise AssertionError("converge simulated before checking its kappas")

    monkeypatch.setattr(fluidq.scaling, "readings", no_run)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"classes": [MARKOV_CLASS]},
        "sim": {"horizon": 1.0},
        "converge": {"scales": [2], "reps": 1, "kappas": [0.1, "KAPPA"]},
    }).replace('"KAPPA"', kappa))
    code, _, err = run_cli(capsys, "converge", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert "config error at converge.kappas[1]: must be positive and finite" in err


@pytest.mark.parametrize("command, block", (("simulate", "sim"), ("fluid", "fluid")))
def test_infinite_horizon_is_a_config_error(tmp_path, capsys, command, block):
    """json reads 1e400 as inf: `simulate` died with an OverflowError (exit
    1) and `fluid` exited 3, for what is a config error."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"classes": [MARKOV_CLASS]}, block: {"horizon": "HORIZON"},
    }).replace('"HORIZON"', "1e400"))
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 2
    assert f"config error at {block}.horizon: must be finite, got inf" in err


def test_rect_grid_boxes_may_be_unbounded_right_and_up(tmp_path, capsys):
    """A box's right and top edges b and d may be infinite; a and c may not."""
    def converge(box):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "model": {"classes": [MARKOV_CLASS]}, "sim": {"horizon": 1.0},
            "converge": {"scales": [2], "reps": 1, "rect_grid": ["BOX"]},
        }).replace('"BOX"', box))
        return run_cli(capsys, "converge", "--config", str(cfg), "--out", str(tmp_path / "o"))

    code, _, _ = converge("[0.5, 1e400, 0.25, 1e400]")
    assert code == 0
    rows = read_csv(tmp_path / "o" / "report.csv")
    assert any(r[3] == "rect_measure" for r in rows[1:])
    code, _, err = converge("[1e400, 1e400, 0.25, 1e400]")
    assert code == 2
    assert "config error at converge.rect_grid[0][0]: must be finite, got inf" in err


def test_invariant_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"classes": [MARKOV_CLASS]}})
    out = tmp_path / "o"
    code, stdout, _ = run_cli(capsys, "invariant", "--config", cfg, "--out", str(out))
    assert code == 0
    rows = read_csv(out / "invariant.csv")
    assert rows[0] == ["class", "metric", "a", "b", "c", "d", "value"]
    box_rows = [r for r in rows[1:] if r[1] == "box"]
    assert len(box_rows) == 25
    scalars = {r[1]: float(r[6]) for r in rows[1:] if r[1] != "box"}
    assert scalars["queue_length"] == pytest.approx(1.0, abs=1e-8)
    assert scalars["nonabandoning"] == pytest.approx(LN2, abs=1e-8)
    assert scalars["abandoning"] == pytest.approx(1.0 - LN2, abs=1e-8)
    # the box rows partition the probe window [0, w) x [0, w + 3)
    model = FluidModelInput((FluidClass(2.0, 1.0, Exponential(1.0)),))
    w_l, _ = equilibrium_band(model)
    window = invariant_state(model, w_l).measure(0, Box(0.0, w_l, 0.0, w_l + 3.0))
    assert sum(float(r[6]) for r in box_rows) == pytest.approx(window, abs=1e-8)
    assert window < scalars["queue_length"]  # the patience tail is unbounded


def test_invariant_rejects_level_outside_band(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"classes": [MARKOV_CLASS]}})
    code, _, err = run_cli(capsys, "invariant", "--config", cfg,
                           "--out", str(tmp_path / "o"), "--w", "0.2")
    assert code == 3
    assert "band" in err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "sim": {"horizon": 1.0, "extra": True},
    })
    code, _, err = run_cli(capsys, "simulate", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert "sim.extra" in err and "unknown key" in err

    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "sim": {"horizon": 1.0},
        "output": {"dir": str(tmp_path / "o"), "formats": ["csv"]},
    })
    for flags in ((), ("--out", str(tmp_path / "o"))):
        code, _, err = run_cli(capsys, "simulate", "--config", cfg, *flags)
        assert code == 2
        assert "output.formats" in err and "unknown key" in err

    # each mixture family accepts only its own component fields
    for field, law in (
            ("deadline", {"family": "uniform_mixture", "components": [
                {"weight": 1.0, "lo": 0.0, "hi": 1.0}, {"weight": 1.0, "rate": 1.0}]}),
            ("arrival", {"family": "hyperexponential", "components": [
                {"weight": 1.0, "rate": 1.0}, {"weight": 1.0, "hi": 1.0}]})):
        cfg = write_config(tmp_path, {
            "model": {"classes": [dict(MARKOV_CLASS, **{field: law})]},
            "sim": {"horizon": 1.0},
        })
        code, _, err = run_cli(capsys, "simulate", "--config", cfg,
                               "--out", str(tmp_path / "o"))
        assert code == 2
        bad = "rate" if field == "deadline" else "hi"
        assert f"model.classes[0].{field}.components[1].{bad}: unknown key" in err


def test_output_block_checked_before_the_work(tmp_path, capsys, monkeypatch):
    import fluidq.cli

    def no_work(*args, **kwargs):
        raise AssertionError("converge ran before the output block was checked")

    monkeypatch.setattr(fluidq.cli, "run_plan", no_work)
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "sim": {"horizon": 1.0},
        "converge": {"scales": [10], "reps": 1},
        "output": {"formats": ["csv"]},
    })
    code, _, err = run_cli(capsys, "converge", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert "output.formats" in err


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "sim": {"horizon": 1.0},
        "simulation": {},
    })
    code, _, err = run_cli(capsys, "simulate", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert "simulation" in err


def test_unknown_distribution_family_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [{
            "arrival": {"family": "pareto", "alpha": 2.0},
            "service": {"family": "exponential", "rate": 1.0},
            "deadline": {"family": "exponential", "rate": 1.0},
        }]},
        "sim": {"horizon": 1.0},
    })
    code, _, err = run_cli(capsys, "simulate", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert "model.classes[0].arrival.family" in err


def test_discontinuous_deadline_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"classes": [{
            "arrival": {"family": "exponential", "rate": 2.0},
            "service": {"family": "exponential", "rate": 1.0},
            "deadline": {"family": "deterministic", "value": 1.0},
        }]},
        "sim": {"horizon": 1.0},
    })
    code, _, err = run_cli(capsys, "simulate", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert "deadline" in err


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--config",
                           str(tmp_path / "nope.json"))
    assert code == 4
    assert "cannot read config" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"model": \n  oops}')
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert ":2:" in err  # line of the syntax error


def test_output_dir_from_config(tmp_path, capsys):
    out = tmp_path / "from-config"
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "sim": {"horizon": 1.0},
        "output": {"dir": str(out)},
    })
    code, _, _ = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 0
    assert (out / "jobs.csv").exists()


def run_module(*argv):
    """`python -m fluidq.cli` with the fluidq under test, installed or not."""
    src = os.path.dirname(os.path.dirname(fluidq.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("FLUIDQ_SEED", None)
    return subprocess.run([sys.executable, "-m", "fluidq.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_log_level_shows_debug_lines_and_leaves_artifacts_alone(tmp_path):
    """`converge --log-level DEBUG` writes its run_plan and simulate lines to
    stderr, and the same report.csv and summary.json bytes as a run without
    the flag, which logs nothing."""
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "sim": {"horizon": 2.0, "seed": 42},
        "converge": {"scales": [5, 25], "reps": 2, "time_grid": [0.0, 1.0, 2.0]},
    })
    quiet = run_module("converge", "--config", cfg, "--out", str(tmp_path / "q"))
    loud = run_module("converge", "--config", cfg, "--out", str(tmp_path / "d"),
                      "--log-level", "DEBUG")
    assert quiet.returncode == 0 and loud.returncode == 0, loud.stderr
    assert quiet.stderr == ""
    lines = loud.stderr.splitlines()
    for n, rep in ((5, 0), (5, 1), (25, 0), (25, 1)):
        assert sum(f"run_plan n={n} rep={rep}:" in line for line in lines) == 1
    assert sum("fluidq.simulate" in line and "simulate:" in line for line in lines) == 4
    for name in ("report.csv", "summary.json"):
        assert (tmp_path / "d" / name).read_bytes() == (tmp_path / "q" / name).read_bytes()


@pytest.mark.parametrize("command", ["fluid", "simulate", "converge", "invariant"])
def test_every_command_takes_a_log_level(command):
    args = build_parser().parse_args([command, "--config", "c.json", "--log-level", "debug"])
    assert args.log_level == "DEBUG"
    assert build_parser().parse_args([command, "--config", "c.json"]).log_level == "WARNING"
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--config", "c.json", "--log-level", "LOUD"])


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"classes": [MARKOV_CLASS]},
        "fluid": {"horizon": 1.0},
    })
    proc = run_module("fluid", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 0
    assert "band.json" in proc.stdout
