"""Every JSON config block in the README runs through the CLI, and its
Python example runs as written."""
from __future__ import annotations

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fluidq
from fluidq.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
PYTHON = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


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


def test_readme_python_example_runs(capsys):
    """The library example runs and prints the M/M/1+M band (ln 2, ln 2) first."""
    assert len(PYTHON) == 1
    exec(compile(PYTHON[0], str(README), "exec"), {})
    band = ast.literal_eval(capsys.readouterr().out.splitlines()[0])
    assert band == pytest.approx((math.log(2.0), math.log(2.0)))


def test_the_package_imports_numpy_and_nothing_else():
    """"The package needs Python 3.10+ and numpy, nothing else": importing
    fluidq and its command line in a fresh interpreter loads no top-level
    module outside the standard library but fluidq and numpy (what site
    loads before the import does not count)."""
    src = str(Path(fluidq.__file__).resolve().parents[1])
    code = ("import sys; before = set(sys.modules); import fluidq, fluidq.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} "
            "- set(sys.stdlib_module_names)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert ast.literal_eval(out) == ["fluidq", "numpy"]
