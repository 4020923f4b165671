"""braidquot benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each round is one fresh, single-threaded
Python process (perfbench/worker.py) that imports braidquot from the
checkout's ``src/``, so every ``lru_cache`` starts empty as it does for a
CLI user.  Rounds run one at a time until the next one would end past
``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics: the medians over rounds of
``wall_ref_s`` (CLI seconds) and ``peak_rss_mb``, and the median ``setup_s``
over at least ``MIN_SETUPS`` set-ups.  Both times are rescaled to a
reference speed (see calibrate.py); the raw seconds are in the provenance
line.  ``--trace 1`` runs one untraced round and then one traced round,
and reports the per-layer metrics of the traced round with
``trace.overhead_s``, the traced minus the untraced CLI seconds.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
provenance of the run.  Outputs (traces, generated inputs) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402
MIN_SETUPS = 5
# Every process must be gone before this many seconds have passed.
RUN_LIMIT_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RoundFailed(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, *, trace: int, setup_only: bool, out: Path,
               deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, "--trace", str(trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                              cwd=ROOT, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RoundFailed(f"worker exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["setup_end"] - started
    result["setup_s"] = calibrate.to_reference_speed(result["raw_setup_s"],
                                                     result["setup_kernel_s"])
    result["elapsed_s"] = time.monotonic() - started
    return result


def provenance(args, versions: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(), **versions,
            "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", ".share", ".coverage")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the self-test only")
    args = ap.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "braidquot" / "__init__.py").is_file():
        print(f"no braidquot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    rounds, setups, errors = [], [], []
    attempted = failed = 0

    def measured_round(trace: int):
        nonlocal attempted, failed
        try:
            r = run_worker(args, trace=trace, setup_only=False, out=out, deadline=deadline)
        except RoundFailed as exc:
            attempted += 1
            failed += 1
            errors.append(str(exc))
            return None
        attempted += len(r["ops"])
        for label, _, reason in r["ops"]:
            if reason is not None:
                failed += 1
                errors.append(f"{label}: {reason}")
        if trace == 0:
            setups.append(r)
        return r

    if args.trace:
        plain, traced = measured_round(0), measured_round(1)
        rounds = [r for r in (plain, traced) if r is not None]
        metrics = {}
        if plain is not None and traced is not None:
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    else:
        while True:
            r = measured_round(0)
            if r is None:
                break
            rounds.append(r)
            per_round = statistics.median(x["elapsed_s"] for x in rounds)
            if time.monotonic() + per_round > t_start + args.seconds:
                break
        while rounds and len(setups) < MIN_SETUPS:
            try:
                setups.append(run_worker(args, trace=0, setup_only=True, out=out,
                                         deadline=deadline))
            except RoundFailed as exc:
                errors.append(str(exc))
                failed += 1
                attempted += 1
                break
        metrics = {}
        if rounds:
            metrics = {
                "wall_ref_s": statistics.median(r["wall_ref_s"] for r in rounds),
                "setup_s": statistics.median(r["setup_s"] for r in setups),
                "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
            }

    for line in errors:
        print(f"failure: {line}", file=sys.stderr)
    versions = rounds[0]["versions"] if rounds else {}
    print(json.dumps({"provenance": provenance(args, versions),
                      "round_wall_s": [r["wall_s"] for r in rounds],
                      "round_wall_ref_s": [r["wall_ref_s"] for r in rounds],
                      "raw_setup_s": [r["raw_setup_s"] for r in setups],
                      "setup_s": [r["setup_s"] for r in setups]}))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
