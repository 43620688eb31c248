import ast
import os
import re
import subprocess
import sys
from collections import Counter
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


ROOT = Path(__file__).resolve().parent.parent


def _dead_names(sources, corpus):
    """(file, line, name) of every function, class and method defined in
    sources, a {file: text} map, whose name occurs in corpus no more often
    than it is defined.  Dunder methods are called by Python itself."""
    words = Counter(re.findall(r"\w+", corpus))
    defs = []
    for file, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.append((file, node.lineno, node.name))
    defined = Counter(name for _, _, name in defs)
    return sorted(d for d in defs if not d[2].startswith("__")
                  and words[d[2]] <= defined[d[2]])


def test_every_definition_is_named_elsewhere():
    # a name nothing else mentions (no library module, test, benchmark file,
    # README example or entry point) is dead code
    files = [p for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    files += [ROOT / "README.md", ROOT / "pyproject.toml"]
    corpus = "\n".join(p.read_text(encoding="utf-8") for p in files)
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert _dead_names(sources, corpus) == []


def test_guard_catches_a_dead_name():
    source = ("class PlantedReport:\n"
              "    def __post_init__(self): pass\n"
              "    def planted_method(self): pass\n"
              "    def called_method(self): pass\n"
              "def planted_function(): pass\n")
    corpus = source + "PlantedReport().called_method()\n"
    assert _dead_names({"m.py": source}, corpus) == [
        ("m.py", 3, "planted_method"), ("m.py", 5, "planted_function")]


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


CONFIG = ROOT / "configs" / "sinusoid_oracle.ini"


def test_import_does_not_load_scipy_signal():
    # scipy.signal about doubles the import time of scipy's base; the
    # solver's FFTs are numpy's
    assert _loaded_after_import("picardcert", ("scipy.signal",)) == "[]"


def test_cli_import_loads_no_scipy():
    # the FFTs are numpy's, erfc is math's, the spline's tridiagonal solve,
    # expm and the bounded minimiser are in-house, and solve_ivp is imported
    # on first use
    assert _loaded_after_import("picardcert.cli", ("scipy",)) == "[]"


def _commands(out):
    return {"certify": ["certify", "--config", str(CONFIG), "--out", str(out)],
            "solve": ["solve", "--config", str(CONFIG), "--out", str(out)],
            "diagnose": ["diagnose", str(out / "solution.csv"), "--config",
                         str(CONFIG), "--out", str(out / "diag")],
            "demo-delay": ["demo", "delay", "--out", str(out)],
            "demo-heat": ["demo", "heat", "--out", str(out)]}


def _argv(name, out):
    """The command's argv; diagnose reads the solution a solve writes first,
    in this process, so the fresh process runs diagnose alone."""
    commands = _commands(out)
    if name == "diagnose":
        from picardcert.cli import main
        assert main(commands["solve"]) == 0
    return commands[name]


@pytest.mark.parametrize("name", ["certify", "solve", "diagnose",
                                  "demo-delay", "demo-heat"])
def test_command_loads_no_scipy(name, tmp_path):
    # the sinusoid-oracle config and the delay demo are scalar, and the heat
    # demo's resolvent is a matrix exponential, so nothing they run reaches
    # solve_ivp, the one first-use scipy import
    argv = _argv(name, tmp_path)
    assert _loaded_after(
        f"from picardcert.cli import main; assert main({argv!r}) == 0",
        ("scipy",)) == "[]"


@pytest.mark.parametrize("name", ["solve", "diagnose", "demo-delay",
                                  "demo-heat"])
def test_command_runs_with_scipy_blocked(name, tmp_path):
    # with scipy unimportable, as on an install of numpy alone
    argv = _argv(name, tmp_path)
    assert _loaded_after(
        "sys.modules['scipy'] = None; from picardcert.cli import main; "
        f"assert main({argv!r}) == 0", ("scipy.",)) == "[]"
