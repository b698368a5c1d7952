"""Every JSON config block in the README runs through the CLI."""
from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from fluidq.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)


def test_readme_documents_every_family():
    families = {dist["family"] for block in BLOCKS
                for cls in json.loads(block)["model"]["classes"]
                for dist in cls.values()}
    # replay is simulator-only, so no fluid-ready block can carry it
    assert families == {"exponential", "uniform", "deterministic",
                        "uniform_mixture", "hyperexponential"}


# Every block runs through fluid and invariant; a block with a sim block
# runs through simulate too, and one with a converge block through converge.
RUNS = [(command, index) for index, block in enumerate(BLOCKS)
        for command, key in (("fluid", "model"), ("invariant", "model"),
                             ("simulate", "sim"), ("converge", "converge"))
        if key in json.loads(block)]


def test_readme_has_simulate_and_converge_blocks():
    assert {command for command, _ in RUNS} == {"fluid", "invariant", "simulate", "converge"}


@pytest.mark.parametrize("command,index", RUNS)
def test_readme_config_runs(tmp_path, capsys, monkeypatch, command, index):
    monkeypatch.delenv("FLUIDQ_SEED", raising=False)
    path = tmp_path / "config.json"
    path.write_text(BLOCKS[index])
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
