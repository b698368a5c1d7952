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


@pytest.mark.parametrize("index", range(len(BLOCKS)))
@pytest.mark.parametrize("command", ["fluid", "invariant"])
def test_readme_config_runs(tmp_path, capsys, monkeypatch, index, command):
    monkeypatch.delenv("FLUIDQ_SEED", raising=False)
    path = tmp_path / "config.json"
    path.write_text(BLOCKS[index])
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
