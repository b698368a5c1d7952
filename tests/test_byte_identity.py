"""report.csv and summary.json of `fluidq converge` pinned by hash.

A change meant to keep the harness's outputs (a refactor, a speed-up) must
leave these hashes alone; a change meant to alter them updates the goldens
and says why.
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

GOLDEN = {
    "markov_empty": {
        "report.csv": "8a2a32f1fffd967aadf60033cdea6c8d90fa57117bc0f66c5904a0ed12bae276",
        "summary.json": "e7488763ab7cc29672f14560b0252a893e78ed0c68803c1076fd74feb15cc211",
    },
    "two_class_warm": {
        "report.csv": "7a9a34fd28e8f822617f6cf3fb742dca8b1c2a5e33e559687e1685ac3a82eea4",
        "summary.json": "71add419cfbe18f3c9b5edf753b5a31a7e4d3cf27512520657ec980b6a403d0f",
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
