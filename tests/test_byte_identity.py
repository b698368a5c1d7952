"""The artifacts of `fluidq converge` and `fluidq simulate` pinned by hash.

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
# by at most 6.2e-13 and fluid values by at most 4.5e-14.
GOLDEN = {
    "markov_empty": {
        "report.csv": "f59a091b83443bd47d016c8ed9c7ec82196a76621b559b9de047404a9ef66228",
        "summary.json": "d3cff32dae1c8fe8c1ecb421c776dd560c8b6032b88364e1152925a9843dafcf",
    },
    "two_class_warm": {
        "report.csv": "457e4f82f2ff62534e4aa20d56c76eeb89dad70cb04167027dd2e5dfb4b1538a",
        "summary.json": "bb4b93b3a5bd1719b02d051509a76986e09253a7fefac7457ddacb76976abe16",
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
