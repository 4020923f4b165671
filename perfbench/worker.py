"""One measured round of a workload, in a fresh Python process.

It imports ``braidquot`` from the checkout's ``src/``, builds the
workload's inputs, empties every ``lru_cache`` and marks the end of set-up.
Then it makes the workload's CLI calls back to back, one client in a closed
loop, empties the caches again before each call (as a fresh CLI process
would find them) and checks every answer.  An untraced round also samples
the reference kernel of calibrate.py around and during the calls.  It
prints one JSON line.

    python3 perfbench/worker.py --root . --workload search-min --seed 1 \\
        --scale full --trace 0 --out perfbench/out
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# Wall seconds between two samples of the reference kernel (see calibrate.py).
SAMPLE_EVERY_S = 1.0


def lru_functions(modules) -> list:
    """Every lru_cache-wrapped function the modules bind, once each."""
    found = {}
    for mod in modules:
        for value in vars(mod).values():
            if callable(value) and hasattr(value, "cache_clear"):
                found[id(getattr(value, "__wrapped__", value))] = value
    return list(found.values())


def run_op(cli, op) -> str | None:
    """Make one CLI call and check it; returns the failure reason or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception:
        return "traceback: " + traceback.format_exc().strip().splitlines()[-1]
    if "budget error" in err.getvalue():
        return "budget error"
    if rc != op.expected_rc:
        return f"exit code {rc}, expected {op.expected_rc}"
    if out.getvalue() != op.expected_stdout:
        return "stdout differs from the expected output"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import braidquot
    if src not in Path(braidquot.__file__).resolve().parents:
        print(f"braidquot imported from {braidquot.__file__}, outside {src}",
              file=sys.stderr)
        return 2
    import numpy
    from braidquot import cli, jn2
    import calibrate
    import tracer as tracing
    import workloads

    out_dir = Path(args.out)
    workdir = out_dir / f"inputs-{args.workload}-{args.seed}"
    ops = workloads.make_ops(args.workload, args.seed, args.scale, workdir)
    caches = lru_functions(tracing.braidquot_modules())
    for fn in caches:
        fn.cache_clear()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    result = {"setup_end": time.monotonic(),
              "setup_kernel_s": statistics.median(calibrate.reference_seconds()
                                                  for _ in range(3)),
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__}}
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps(result))
        return 0

    # traced rounds give per-layer numbers only, so they are not calibrated
    probe = calibrate.SpeedProbe(SAMPLE_EVERY_S)
    hits = 0
    done = []
    with contextlib.nullcontext() if tracer is not None else probe:
        for i, op in enumerate(ops):
            for fn in caches:
                fn.cache_clear()
            if tracer is not None:
                tracer.op = i
            probe.start_op()
            reason = run_op(cli, op)
            seconds = probe.end_op()
            hits += jn2.materialize.cache_info().hits
            done.append([op.label, seconds, reason])
    wall = probe.cli
    result.update(wall_s=wall, wall_ref_s=probe.wall_ref_s(), refs=probe.refs, ops=done,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, wall,
                                                 [op.label for op in ops], hits)
        tracer.write_jsonl(out_dir / f"trace-{args.workload}.jsonl")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
