"""Self-checks of the benchmark: seeded inputs, tracer bindings, work counts
that repeat exactly, and refusal to run without the package sources.

    PYTHONPATH=src python -m pytest -q perfbench

The count check runs every workload twice under tracing (about a minute).
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_default_seed_gives_documented_parameters():
    for name, table in workloads.PARAMS.items():
        params = workloads.draw_params(name, workloads.DEFAULT_SEED)
        assert params == {k: v[0] for k, v in table.items()}
    assert workloads.draw_params("delay_demo", 0) == {"sin_amp": 0.5,
                                                      "state_coeff": 0.1}


def test_seeded_parameters_repeat_and_stay_in_range():
    for name, table in workloads.PARAMS.items():
        for seed in (1, 2, 17):
            params = workloads.draw_params(name, seed)
            assert params == workloads.draw_params(name, seed)
            for key, (_, lo, hi) in table.items():
                assert lo <= params[key] <= hi
        assert workloads.draw_params(name, 1) != workloads.draw_params(name, 2)


def test_full_line_grids_do_not_depend_on_the_seed(tmp_path):
    cli = importlib.import_module("picardcert.cli")
    solver = importlib.import_module("picardcert.solver")
    for seed in (0, 1, 2, 17):
        params = workloads.draw_params("full_line_oracles", seed)
        workloads.write_configs("full_line_oracles", params, tmp_path)
        for part in ("delayed", "advanced"):
            spec = cli.build_problem(cli.load_config(tmp_path / f"{part}.ini"))
            assert solver.work_grid(spec).size == 4513


def test_oracles_match_shipped_closed_forms():
    A, B = workloads.delayed_oracle(1.0, 0.25, 2.0)
    assert abs(A - 72.0 / 65.0) < 1e-14 and abs(B + 4.0 / 65.0) < 1e-14
    A, B = workloads.advanced_oracle(1.0, 0.25, 2.0)
    assert abs(A + 4.0 / 65.0) < 1e-14 and abs(B - 72.0 / 65.0) < 1e-14


def test_default_configs_reproduce_shipped_oracle(tmp_path):
    cli = importlib.import_module("picardcert.cli")
    params = workloads.draw_params("full_line_oracles", workloads.DEFAULT_SEED)
    workloads.write_configs("full_line_oracles", params, tmp_path)
    shipped = cli.load_config(REPO / "configs" / "sinusoid_oracle.ini")
    assert cli.load_config(tmp_path / "delayed.ini").sections \
        == shipped.sections


def test_tracer_wraps_every_caller_binding():
    cli = importlib.import_module("picardcert.cli")
    certify_mod = sys.modules["picardcert.certify"]
    solver = sys.modules["picardcert.solver"]
    evolution = sys.modules["picardcert.evolution"]
    paths = sys.modules["picardcert.paths"]
    before = (cli.certify, certify_mod.adaptive_integral,
              solver.adaptive_integral, evolution.ResolventOperator.__call__)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.certify is certify_mod.certify
        assert cli.certify is not before[0]
        assert certify_mod.adaptive_integral is solver.adaptive_integral
        assert evolution.ResolventOperator.__call__ \
            is evolution.ResolventOperator.eval
        assert paths.SampledPath.__call__ is paths.SampledPath.evaluate
        p = paths.SampledPath(np.linspace(0.0, 1.0, 5), np.arange(5.0))
        p(0.5)
        p.evaluate(np.array([0.1, 0.2]))
    finally:
        tracer.uninstall()
    after = (cli.certify, certify_mod.adaptive_integral,
             solver.adaptive_integral, evolution.ResolventOperator.__call__)
    assert all(a is b for a, b in zip(before, after))
    _, counts, seen = tracer.summarise()
    assert counts["paths.evaluate_calls"] == 2
    assert counts["paths.evaluate_points"] == 3
    assert seen == {"paths"}


def _traced_rep(name, workdir):
    out = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--workload", name,
         "--seed", "3", "--workdir", str(workdir), "--launch", "0",
         "--spans", str(workdir / "spans.tsv")],
        capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(name, tmp_path):
    workloads.write_configs(name, workloads.draw_params(name, 3), tmp_path)
    first = _traced_rep(name, tmp_path)
    second = _traced_rep(name, tmp_path)
    assert first["ok"], first["failures"]
    assert second["ok"], second["failures"]
    assert first["layers"]["counts"] == second["layers"]["counts"]
    assert first["solver"] == second["solver"]


def test_run_refuses_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (REPO / "BENCHMARK.json").is_file():
        shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delay_demo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
