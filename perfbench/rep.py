"""One repetition of a benchmark workload, in its own fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --workdir DIR \
        --launch T [--spans FILE]

`--launch` is the CLOCK_MONOTONIC reading taken by the parent just before it
started this process, so set-up time covers interpreter start and imports,
as a CLI invocation pays them.  With `--spans` the repetition is traced and
its spans are written to FILE at the end.  Prints one JSON object on stdout.
Exit code 0 when the repetition ran (its checks may still have failed), 3
when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    try:
        import picardcert.cli  # noqa: F401  (also loads every layer module)
    except ImportError as exc:
        print(f"cannot import picardcert: {exc}", file=sys.stderr)
        return 3
    import workloads
    from tracer import Tracer

    params = workloads.draw_params(args.workload, args.seed)
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()

    out = {"ok": False, "failures": []}
    try:
        def body():
            return workloads.run_workload(args.workload, params,
                                          Path(args.workdir), clock,
                                          traced=tracer is not None)
        res = tracer.root(body) if tracer else body()
    except Exception:
        out["failures"].append("exception: "
                               + traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)
    else:
        out["failures"] = res.failures
        out["times"] = {
            "setup_s": res.setup_end - args.launch,
            "certify_s": res.certify_s,
            "time_to_solution_s": res.solve_end - args.launch,
            "diagnose_s": res.diagnose_s,
        }
        out["accuracy"] = res.accuracy
        out["solver"] = res.solver
        if tracer is not None:
            tracer.uninstall()
            times, counts, seen = tracer.summarise()
            missing = set(workloads.EXPECTED_LAYERS[args.workload]) - seen
            if missing:
                out["failures"].append(
                    "no span recorded for layer(s) " + ", ".join(sorted(missing)))
            out["layers"] = {"times": times, "counts": counts}
            tracer.dump(args.spans, os.getpid())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["ok"] = not out["failures"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
