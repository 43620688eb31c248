import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import picardcert

MODULES = sorted(p for p in Path(picardcert.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_catches_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .quadrature import DecayEnvelope, adaptive_integral\n"
              "x = np.zeros(1)\n"
              "def f(e: DecayEnvelope): return e\n")
    assert _unused_imports(source) == [(3, "adaptive_integral")]


def _loaded_after(statement, prefixes):
    """The modules under prefixes that a fresh process has loaded after
    running statement; its last line of output."""
    src = str(Path(picardcert.__file__).parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; "
         f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"],
        capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip().splitlines()[-1]


def _loaded_after_import(module, prefixes):
    """The modules under prefixes that a fresh `import module` loads."""
    return _loaded_after(f"import {module}", prefixes)


def test_import_does_not_load_scipy_signal():
    # scipy.signal about doubles the import time of the package, which every
    # command pays; the solver's FFTs come from scipy.fft
    assert _loaded_after_import("picardcert", ("scipy.signal",)) == "[]"


def test_cli_import_loads_no_interpolate_integrate_or_optimize():
    # the spline is in-house; solve_ivp and minimize_scalar are imported on
    # first use, which a command that needs neither never reaches
    assert _loaded_after_import("picardcert.cli", (
        "scipy.interpolate", "scipy.integrate", "scipy.optimize")) == "[]"


def test_demo_delay_loads_no_integrate_or_optimize(tmp_path):
    # the demo's family is scalar, so its propagators are exp(int a) in
    # closed form and no ODE solve imports scipy.integrate
    assert _loaded_after(
        "from picardcert.cli import main; "
        f"assert main(['demo', 'delay', '--out', {str(tmp_path)!r}]) == 0",
        ("scipy.integrate", "scipy.optimize")) == "[]"
