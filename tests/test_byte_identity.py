"""The artifacts of `fluidq converge`, `fluidq simulate` and `fluidq fluid`
pinned by hash.

A change meant to keep these outputs (a refactor, a speed-up) must leave
the hashes alone; a change meant to alter them updates the goldens and
says why.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from fluidq.cli import main


def _exp(rate):
    return {"family": "exponential", "rate": rate}


CONFIGS = {
    # the empty-start M/M/1+M config of acceptance criterion 12
    "markov_empty": {
        "model": {"classes": [{"arrival": _exp(2.0), "service": _exp(1.0),
                               "deadline": _exp(1.0)}]},
        "sim": {"horizon": 2.0, "seed": 42},
        "converge": {"scales": [5, 25], "reps": 2, "time_grid": [0.0, 1.0, 2.0]},
    },
    # markov_empty at a scale whose snapshots (about 6,300 and 8,800 atoms
    # at t = 1 and 2) exceed BUCKET_MIN_ATOMS: their unsorted p go through
    # the bucket binning, and the corner probe's strips hold thousands of
    # atoms, which the small scales above never reach
    "markov_empty_large": {
        "model": {"classes": [{"arrival": _exp(2.0), "service": _exp(1.0),
                               "deadline": _exp(1.0)}]},
        "sim": {"horizon": 2.0, "seed": 42},
        "converge": {"scales": [10000], "reps": 1, "time_grid": [0.0, 1.0, 2.0]},
    },
    # two classes from a warm start; the workload band (6/11) sits
    # below every deadline knot, so the fluid solve crosses no kink
    "two_class_warm": {
        "model": {"classes": [
            {"arrival": _exp(1.0), "service": _exp(1.0),
             "deadline": {"family": "uniform_mixture", "components": [
                 {"weight": 0.5, "lo": 0.0, "hi": 1.0},
                 {"weight": 0.5, "lo": 0.0, "hi": 3.0}]}},
            {"arrival": _exp(1.0), "service": _exp(2.0),
             "deadline": {"family": "uniform", "lo": 0.0, "hi": 2.0}},
        ]},
        "sim": {"horizon": 1.0, "seed": 3, "initial": {"kind": "warm"}},
        "converge": {"scales": [5, 25], "reps": 2, "time_grid": [0.0, 0.5, 1.0]},
    },
}

# Re-pinned when the workload path took exact-slope cubic Hermite dense
# output in place of PCHIP: fluid values moved by at most 1.6e-10. Re-pinned
# when tau became the exact leftmost root and the waiting integrals a
# cumulative antiderivative: fluid values moved by at most 5.1e-11.
# two_class_warm re-pinned when the equilibrium band became exact to the
# float: w_u moved from 0.5454545454543904 to 0.5454545454545455 (6/11 is
# between it and w_l), so the 4 * w_u warm-up and every time after it moved
# by at most 6.2e-13 and fluid values by at most 4.5e-14. Re-pinned when
# the workload path became the time-to-level integral in place of RK4: 92
# cells of markov_empty and 238 of two_class_warm moved, fluid values by at
# most 2.0e-12 and rect_measure's sim_value (its distance to the fluid
# boxes) by at most 1.9e-12; markov_empty's workload moved towards the
# closed form ln(2 - e^-t), its error from -1.14e-12 to 8.7e-13 at t = 1
# and from -5.6e-13 to 5.4e-13 at t = 2.
GOLDEN = {
    "markov_empty": {
        "report.csv": "49c030d40daecccd53858c66e574fa723db3f811d6e864343af1fc49d8d891d9",
        "summary.json": "6351fe54b5c2fd485008e63ce9175209b1c9e4c8972b553c3a3726f87c8d52c2",
    },
    # Pinned when snapshots became counting measures with a kept quadrant
    # table; the hashes are those of the weighted measures before it.
    "markov_empty_large": {
        "report.csv": "8eadfa1f23d2c7fec7911c5bc8ba3b08066a05f9ff8e8a3f9c58792fea885710",
        "summary.json": "e6c30837f4dccfe97148097f05c83190a74b6031aa5b09179f8c9a6eab604c44",
    },
    "two_class_warm": {
        "report.csv": "36f18408831d3d629cabba97f8a48b8eedbb52b87f01694fd34fe7046731ab1c",
        "summary.json": "93c01b105efb0331d02cb46c1e8157c9e96f7de5264c6350327477e4ff42658a",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_converge_outputs_match_golden_hashes(tmp_path, capsys, monkeypatch, name):
    monkeypatch.delenv("FLUIDQ_SEED", raising=False)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIGS[name]))
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    for artifact, digest in GOLDEN[name].items():
        assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest, artifact


def _hyperexp(*components):
    return {"family": "hyperexponential",
            "components": [{"weight": w, "rate": r} for w, r in components]}


# Two warm-started classes with hyperexponential arrivals at scale 50: the
# job log's per-class index, virtual sojourn, patience and exit time, the
# workload after each arrival and the final snapshot are all on record.
SIMULATE_CONFIG = {
    "model": {"classes": [
        {"arrival": _hyperexp((0.5, 2.0), (0.5, 2.0 / 3.0)), "service": _exp(1.0),
         "deadline": {"family": "uniform_mixture", "components": [
             {"weight": 0.5, "lo": 0.0, "hi": 1.0},
             {"weight": 0.5, "lo": 0.0, "hi": 3.0}]}},
        {"arrival": _hyperexp((0.25, 0.5), (0.75, 3.0)), "service": _exp(2.0),
         "deadline": {"family": "uniform", "lo": 0.0, "hi": 2.0}},
    ]},
    "sim": {"horizon": 1.0, "n": 50, "seed": 8, "initial": {"kind": "warm"}},
}

# Re-pinned when HyperExponential moved from numerical inversion of the
# mixture CDF to composition: the same uniforms map to different (equally
# distributed) interarrival times, so every artifact moved. Re-pinned when
# the equilibrium band became exact to the float: w_u moved from
# 0.6666666666668561 to 0.6666666666666666, so the 4 * w_u warm-up and
# every time moved by at most 7.6e-13, and no count or exit cause moved.
SIMULATE_GOLDEN = {
    "jobs.csv": "3311fc71ccf6eddd40daee1e972de7b562ed40d7bc692eb661ddd8fd97f77f5b",
    "workload.csv": "c950ecd327cd9996d9260aab1fab73d22bb6f1d95db89ddba20ea6b4a64bb898",
    "snapshot.csv": "47089295595a631c5f23383b72ec4861dc2881a9875ac15cb78187b299febd11",
}


def test_simulate_outputs_match_golden_hashes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FLUIDQ_SEED", raising=False)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SIMULATE_CONFIG))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    for artifact, digest in SIMULATE_GOLDEN.items():
        assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest, artifact


# The fluid_kink model (two classes whose laws have knots at 0.5, 1, 2, 2.5
# and 3; band {1.5}) from two initial states that hold mass: the functionals
# at the times before w0 carry the initial state's share. The box mixture
# starts at w0 = 0.8, so its path crosses the knot at 1.
FLUID_MODEL = {"classes": [
    {"arrival": _exp(1.5), "service": _exp(1.0),
     "deadline": {"family": "uniform_mixture", "components": [
         {"weight": 0.5, "lo": 0.0, "hi": 1.0}, {"weight": 0.5, "lo": 2.0, "hi": 3.0}]}},
    {"arrival": _exp(1.0), "service": _exp(2.0),
     "deadline": {"family": "uniform", "lo": 0.5, "hi": 2.5}},
]}
FLUID_CONFIGS = {
    "invariant": {"kind": "invariant", "w": 1.5},
    "boxes": {"kind": "boxes", "pieces": [
        {"class": 0, "box": [0.0, 0.8, 0.3, 2.0], "mass": 0.7},
        {"class": 1, "box": [0.4, 0.7, 0.0, 1.0], "mass": 0.2}]},
}

# Pinned when each functional's early times (t < w0) still went through a
# scalar evaluation of their own, and kept when they joined the array path.
FLUID_GOLDEN = {
    "invariant": {
        "functionals.csv": "5b60e8eed8f7dc6730f4d08789daabdc7aa85f4352a60d69e29b8a4620b2dfd7",
        "workload.csv": "ebb3eaf5d215e2b26e5880c3af38bc4c4c92110d615052006d7e8cd1ce0671dd",
    },
    "boxes": {
        "functionals.csv": "7e0e00217bf8c228c4294fdccaf43e32f74b47f2713a701add4c61554b5a1a66",
        "workload.csv": "56b846a81e0458522e9f25a1e0e789f893beb857646e619dcc43a8c626d208f4",
    },
}


@pytest.mark.parametrize("name", sorted(FLUID_CONFIGS))
def test_fluid_outputs_match_golden_hashes(tmp_path, capsys, name):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": FLUID_MODEL, "fluid": {
        "horizon": 3.0, "grid_step": 0.05, "initial": FLUID_CONFIGS[name]}}))
    out = tmp_path / "out"
    assert main(["fluid", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    for artifact, digest in FLUID_GOLDEN[name].items():
        assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest, artifact
