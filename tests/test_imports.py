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



def _settable_values(sources):
    """module.owner.name of every settable value in sources, a {module: text}
    map: each parameter with a default of every def, nested defs and methods
    included (a lambda is not a def), and each field with a value in the
    body of a @dataclass class."""
    found = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a, inner = child.args, f"{owner}{child.name}."
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):] + [
                    k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found.extend(f"{module}.{inner}{p.arg}" for p in defaulted)
            elif isinstance(child, ast.ClassDef):
                inner = f"{owner}{child.name}."
                if any("dataclass" in ast.unparse(d) for d in child.decorator_list):
                    found.extend(f"{module}.{inner}{s.target.id}" for s in child.body
                                 if isinstance(s, ast.AnnAssign) and s.value is not None)
            visit(child, module, inner)

    for module, text in sources.items():
        visit(ast.parse(text), module, "")
    return found


def test_guard_counts_settable_values():
    source = ("from dataclasses import dataclass, field\n"
              "def f(a, b=1, *args, c, d=2, **kw):\n"
              "    def inner(x, y=lambda z=3: z): pass\n"
              "@dataclass(frozen=True)\n"
              "class Record:\n"
              "    x: int\n"
              "    y: int = 0\n"
              "    z: list = field(default_factory=list)\n"
              "    w = 5\n"
              "    def method(self, v=None): pass\n"
              "class Plain:\n"
              "    u: int = 1\n")
    assert _settable_values({"m": source}) == [
        "m.f.b", "m.f.d", "m.f.inner.y", "m.Record.y", "m.Record.z",
        "m.Record.method.v"]


# the settable values of src/picardcert at the cap, by module
SETTABLE_CAP = {
    "certify": """
        ContractionCertificate.rho ContractionCertificate.theta
        ContractionCertificate.xi0 ContractionCertificate.witness_radius
        ContractionCertificate.base_point ContractionCertificate.base_sup
        ContractionCertificate.constants ContractionCertificate.violated
        ContractionCertificate.slack ContractionCertificate.audit
        ContractionCertificate.label compute_envelope_constants.at_zero.part
        _contraction.rhs certify.rho certify.mode certify.theorem
        certify.slack_margin certify_ball_zero.slack_margin
        certify_shifted_ball.slack_margin certify_radius_search.slack_margin
        certify_evolution.theorem certify_evolution.slack_margin
        HypothesisReport.lines""",
    "cli": """
        RunConfig.sections RunConfig.get.default _diagnose_path.tol_override
        main.argv""",
    "diagnostics": """
        DiagnosticReport.shifts DiagnosticReport.accepted
        DiagnosticReport.forward_residuals
        DiagnosticReport.backward_residuals DiagnosticReport.window_sups
        DiagnosticReport.evidence DiagnosticReport.notes""",
    "evolution": """
        StabilityCertificate.lines EvolutionFamily.dim
        EvolutionFamily.stability EvolutionFamily.label
        EvolutionFamily.cell_tables constant_family.label scalar_family.label
        stability_sample_pairs.n stability_sample_pairs.max_sep
        MemoryKernel.exp_terms MemoryKernel.label exponential_memory.label
        exponential_causal.label ResolventOperator.stability
        ResolventOperator.residual_report ResolventOperator.label
        ResolventOperator.cell_tables build_resolvent.tol
        heat_demo_assemble.n heat_demo_assemble.a_path
        heat_demo_assemble.b_func heat_demo_assemble.b_lipschitz
        heat_demo_assemble.horizon heat_demo_assemble.grid_step
        delay_demo_solve.tol delay_demo_solve.report_window
        delay_demo_solve.grid_step""",
    "kernels": """
        kronecker_points.seed_shift KernelSpec.dim KernelSpec.state_bound
        KernelSpec.convolution KernelSpec.label zero_kernel.dim
        _affine_kernel.modulation _affine_kernel.mod_bound
        exponential_kernel.cx exponential_kernel.cy exponential_kernel.const
        exponential_kernel.dim exponential_kernel.state_bound
        exponential_kernel.label gaussian_kernel.cx gaussian_kernel.cy
        gaussian_kernel.const gaussian_kernel.dim gaussian_kernel.state_bound
        gaussian_kernel.label convolution_sinusoid_kernel.cx
        convolution_sinusoid_kernel.cy convolution_sinusoid_kernel.const
        convolution_sinusoid_kernel.mod_amp
        convolution_sinusoid_kernel.mod_omega convolution_sinusoid_kernel.dim
        convolution_sinusoid_kernel.state_bound
        convolution_sinusoid_kernel.label SplitKernelSpec.zero_bound
        SplitKernelSpec.convolution SplitKernelSpec.label
        split_exponential_kernel.aa_const split_exponential_kernel.aa_cx
        split_exponential_kernel.aa_cy split_exponential_kernel.erg_cx
        split_exponential_kernel.erg_cy split_exponential_kernel.erg_const
        split_exponential_kernel.erg_decay split_exponential_kernel.dim
        split_exponential_kernel.state_bound split_exponential_kernel.label
        KernelCheckReport.notes""",
    "paths": """
        SampledPath.domain_kind SampledPath.tail_policy zero_path.dim
        TimeWarp.kind TimeWarp.tau TimeWarp.table_t TimeWarp.table_a""",
    "problem": """
        Nonlinearity.lipschitz Nonlinearity.lipschitz_curve Nonlinearity.dim
        Nonlinearity.label zero_nonlinearity.dim sinusoid_affine.sin_amp
        sinusoid_affine.cos_amp sinusoid_affine.const
        sinusoid_affine.state_coeff sinusoid_affine.warp_state_coeff
        sinusoid_affine.omega sinusoid_affine.dim sinusoid_affine.label
        saturating_lipschitz.scale NonlocalMap.dim NonlocalMap.label
        zero_nonlocal.dim point_eval_nonlocal.offset point_eval_nonlocal.dim
        ProblemSpec.dim ProblemSpec.f ProblemSpec.kernel_delayed
        ProblemSpec.kernel_advanced ProblemSpec.split_delayed
        ProblemSpec.split_advanced ProblemSpec.warps ProblemSpec.evolution
        ProblemSpec.resolvent ProblemSpec.memory_kernel
        ProblemSpec.nonlocal_map ProblemSpec.u0 ProblemSpec.delay
        ProblemSpec.report_window ProblemSpec.grid_step ProblemSpec.quad_tol
        ProblemSpec.const_tol ProblemSpec.label ProblemSpec.constants_grid.n""",
    "quadrature": """
        panel_nodes.max_width panel_nodes.order EnvelopeConstants.alpha1
        EnvelopeConstants.alpha2 EnvelopeConstants.N1 EnvelopeConstants.N2
        EnvelopeConstants.beta1_h5 EnvelopeConstants.beta2_h5
        EnvelopeConstants.P1 EnvelopeConstants.P2 EnvelopeConstants.Q1
        EnvelopeConstants.gamma1 EnvelopeConstants.gamma2
        EnvelopeConstants.C_B EnvelopeConstants.t_grid EnvelopeConstants.tol""",
    "solver": """
        SolverReport.notes SolverReport.iterates _lattice.start _scan.n
        picard_solve.tol picard_solve.start picard_solve.max_iter
        picard_solve.store_iterates picard_solve.allow_uncertified
        IntegralInequalityReport.lines check_integral_inequality.tol""",
}


def test_settable_values_do_not_grow():
    """The settable values of src/picardcert (ROADMAP aim 2): the parameters
    with a default of every def, plus the fields with a value in the body of
    each @dataclass class.  Their count may fall, never rise above the cap:
    a change that adds one removes another, and one that removes some may
    lower the cap by deleting their names."""
    found = _settable_values({p.stem: p.read_text(encoding="utf-8")
                              for p in Path(picardcert.__file__).parent.glob("*.py")})
    cap = {f"{m}.{name}" for m, names in SETTABLE_CAP.items()
           for name in names.split()}
    new = sorted(set(found) - cap)
    assert len(found) <= len(cap), (
        f"{len(found)} settable values, over the cap of {len(cap)}; "
        f"not at the cap: {new}")


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


def test_demo_heat_loads_no_numpy_ma(tmp_path):
    # under numpy 2, np.unique imports numpy.ma, numpy.ma.core and
    # numpy.ma.extras (9-15 ms of set-up); numpy 1 imports them with numpy
    argv = _argv("demo-heat", tmp_path)
    assert _loaded_after(
        f"from picardcert.cli import main; assert main({argv!r}) == 0",
        ("numpy.ma",)) == _loaded_after("import numpy", ("numpy.ma",))
