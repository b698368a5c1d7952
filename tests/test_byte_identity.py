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
    # two classes from a warm start; the workload band (0.5454...) sits
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
GOLDEN = {
    "markov_empty": {
        "report.csv": "f59a091b83443bd47d016c8ed9c7ec82196a76621b559b9de047404a9ef66228",
        "summary.json": "d3cff32dae1c8fe8c1ecb421c776dd560c8b6032b88364e1152925a9843dafcf",
    },
    "two_class_warm": {
        "report.csv": "bbe991de1802b80c5adfd41e3fb9c132321e4b94c60d7d5c5b8d4ca22bd10ccd",
        "summary.json": "248a243c8b67240bde90c2121178ea9be6b74dbe5ccd2ce0751012ad981bfd24",
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
# distributed) interarrival times, so every artifact moved.
SIMULATE_GOLDEN = {
    "jobs.csv": "d8f5dcbd182e76bcbb09a8c1035a6e78c29d6d0e480920a85bd5f9b2d0ebf3dc",
    "workload.csv": "85512eb3e24eae864dfcd5966c2e7abc122bfc67fe3e5c13ad1d84cf6b9f03ec",
    "snapshot.csv": "0890157f1cf4ddac51444402ffdc7cb176cc0fa0f49c8bde35e9142c512296ae",
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
