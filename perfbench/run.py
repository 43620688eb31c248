"""picardcert benchmark: canonical certify -> solve -> diagnose workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh Python process (as a CLI
invocation runs), one after another, until the next one would end after S
seconds; at least one repetition always runs (with --trace 1, at least one
traced and one untraced).  Every repetition checks its outputs.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics (medians over the repetitions); with --trace 1 it holds the per-layer
metrics of the traced repetitions, alternated with untraced ones so the
tracing overhead is measured in the same run.  The lines before it give, per
metric, the median, the highest percentile with ten samples beyond it (when
there are enough), the accuracy figures, failed checks and the machine.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_LIMIT_S = 170.0          # a run, all repetitions included, ends before this
BLAS_THREADS = "1"

END_TO_END = (("setup_s", "s"), ("certify_s", "s"),
              ("time_to_solution_s", "s"), ("diagnose_s", "s"),
              ("peak_rss_mb", "MiB"))

# per-layer metrics: layer times (s), work counts, and derived figures
PER_LAYER_TIMES = (
    "cli.assemble_s", "cli.self_s",
    "evolution.stability_s", "evolution.resolvent_build_s",
    "evolution.resolvent_residual_s", "evolution.resolvent_eval_s",
    "evolution.self_s",
    "certify.constants_s", "certify.base_point_s", "certify.self_s",
    "quadrature.adaptive_s", "quadrature.self_s",
    "solver.sweep_s", "solver.residual_s", "solver.ode_s", "solver.self_s",
    "paths.evaluate_s", "paths.self_s",
    "diagnostics.hypotheses_s", "diagnostics.residual_s",
    "diagnostics.recurrence_s", "diagnostics.compactness_s",
    "diagnostics.split_s", "diagnostics.self_s",
)
PER_LAYER_COUNTS = (
    "evolution.propagate_matrix_calls", "evolution.ode_rhs_calls",
    "evolution.resolvent_eval_calls", "evolution.resolvent_eval_points",
    "quadrature.adaptive_calls", "certify.operator_applications",
    "solver.sweeps", "solver.quad_nodes_per_sweep", "solver.ode_rhs_calls",
    "paths.evaluate_calls", "paths.evaluate_points", "trace.spans",
)
PER_LAYER_DERIVED = (
    ("solver.grid_nodes", "count"), ("solver.rate_over_L", "ratio"),
    ("paths.points_per_call", "points/call"),
    ("trace.overhead_ratio", "ratio"), ("trace.unattributed_share", "ratio"),
)


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": int(BLAS_THREADS), "platform": platform.platform()}


def run_rep(workload, seed, workdir, spans, timeout) -> dict:
    """One repetition in a fresh process; traced when `spans` is a path."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if spans:
        cmd += ["--spans", str(spans)]
    launch = clock()
    proc = subprocess.run(cmd + ["--launch", repr(launch)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    wall = clock() - launch
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"repetition process exited with {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["wall_s"] = wall
    rep["traced"] = bool(spans)
    return rep


def percentile_line(values):
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    med = statistics.median(xs)
    if n >= 11:
        p = 100.0 * (n - 10) / n
        return f"median {med:.6g}, p{p:.0f} {xs[n - 11]:.6g} (n={n})"
    return f"median {med:.6g} (n={n}; fewer than 11 samples, no tail percentile)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run stops its repetition process and removes its workdir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (REPO / "src" / "picardcert" / "__init__.py").is_file():
        print(f"picardcert sources not found under {REPO / 'src'}",
              file=sys.stderr)
        return 2

    scratch = REPO / ".perfbench"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        params = workloads.draw_params(args.workload, args.seed)
        workloads.write_configs(args.workload, params, workdir)
        reps = repeat(args, workdir, scratch)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, params "
          + json.dumps(params, sort_keys=True))
    print("machine " + json.dumps(machine(), sort_keys=True))
    good = [r for r in reps if "times" in r]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    metrics = None
    if untraced and (traced or not args.trace):
        metrics = per_layer(traced, untraced) if args.trace else {
            name: {"value": statistics.median(value_of(r, name)
                                              for r in untraced),
                   "unit": unit}
            for name, unit in END_TO_END}

    attempted = len(reps)
    failed = sum(1 for r in reps if not r["ok"])
    for i, r in enumerate(reps):
        for what in r["failures"]:
            print(f"FAILED repetition {i}: {what}")
    print(f"fail_rate {failed / attempted:.6g} ({failed}/{attempted})")
    if metrics is None:
        print("no repetition of a needed kind completed", file=sys.stderr)
        return 1
    for key in ("fixed_point_residual", "oracle_node_error",
                "oracle_offgrid_error"):
        vals = [r["accuracy"][key] for r in good if key in r["accuracy"]]
        if vals:
            print(f"{key} {max(vals):.6g}")
    for name, unit in END_TO_END:
        vals = [value_of(r, name) for r in untraced]
        print(f"{name} [{unit}] {percentile_line(vals)}; repetitions "
              + " ".join(f"{v:.4g}" for v in vals))
    if args.trace:
        for name, m in metrics.items():
            print(f"{name} [{m['unit']}] {m['value']:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def value_of(rep, name):
    return rep["peak_rss_mb"] if name == "peak_rss_mb" else rep["times"][name]


def repeat(args, workdir, scratch) -> list:
    """Repetitions until the next one would end after --seconds."""
    spans = scratch / f"spans-{args.workload}.tsv"
    reps, longest = [], 0.0
    start = clock()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = run_rep(args.workload, args.seed, workdir,
                      spans if traced else None,
                      max(RUN_LIMIT_S - (clock() - start), 1.0))
        reps.append(rep)
        longest = max(longest, rep["wall_s"])
        kinds = {r["traced"] for r in reps}
        need_both = args.trace and len(kinds) < 2
        if not need_both and clock() - start + longest > args.seconds:
            return reps


def per_layer(traced, untraced):
    """Medians of the traced repetitions' layer times, and their counts.

    Counts must repeat exactly: a traced repetition whose counts differ from
    the first one's is marked failed."""
    first = traced[0]["layers"]["counts"]
    for r in traced:
        if r["layers"]["counts"] != first:
            r["ok"] = False
            r["failures"].append("work counts differ from the first traced "
                                 "repetition's: " + ", ".join(
                                     k for k in first
                                     if r["layers"]["counts"][k] != first[k]))
    metrics = {}
    for name in PER_LAYER_TIMES:
        metrics[name] = {"value": statistics.median(
            r["layers"]["times"][name] for r in traced), "unit": "s"}
    for name in PER_LAYER_COUNTS:
        metrics[name] = {"value": first[name], "unit": "count"}
    calls = first["paths.evaluate_calls"]
    derived = {
        "solver.grid_nodes": traced[0]["solver"]["grid_nodes"],
        "solver.rate_over_L": traced[0]["solver"]["max_rate_over_L"],
        "paths.points_per_call":
            first["paths.evaluate_points"] / calls if calls else 0.0,
        "trace.overhead_ratio":
            statistics.median(r["times"]["time_to_solution_s"] for r in traced)
            / statistics.median(r["times"]["time_to_solution_s"]
                                for r in untraced) - 1.0,
        "trace.unattributed_share": statistics.median(
            r["layers"]["times"]["trace.unattributed_s"]
            / r["layers"]["times"]["trace.root_s"] for r in traced),
    }
    for name, unit in PER_LAYER_DERIVED:
        metrics[name] = {"value": derived[name], "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
