"""The documented entry points: the README's library sketch and the shipped
config through the command line."""

import re
from pathlib import Path

import numpy as np

from picardcert.cli import main
from picardcert.paths import read_csv

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_sketch_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md:library-sketch", "exec"), scope)
    assert scope["cert"].passed
    y = scope["y"]
    expect = (72.0 * np.sin(y.grid) - 4.0 * np.cos(y.grid)) / 65.0
    assert np.max(np.abs(y.values[:, 0] - expect)) < 1e-6


def test_shipped_oracle_config_solves(tmp_path):
    config = ROOT / "configs" / "sinusoid_oracle.ini"
    code = main(["solve", "--config", str(config), "--out", str(tmp_path)])
    assert code == 0
    sol = read_csv(tmp_path / "solution.csv")
    expect = (72.0 * np.sin(sol.grid) - 4.0 * np.cos(sol.grid)) / 65.0
    assert np.max(np.abs(sol.values[:, 0] - expect)) < 1e-6
