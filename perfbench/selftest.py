"""Fast self-test of the benchmark on tiny inputs (under half a minute).

    python3 perfbench/selftest.py

Checks that:

- run.py's result line has the schema BENCHMARK.json promises, and every
  metric it reports is declared there, for ``--trace 0`` and ``--trace 1``;
- CLI stdout is byte-identical with and without the tracer installed;
- once the tracer is installed, no listed function can still be reached
  unwrapped through any braidquot module;
- run.py fails without printing a result in a directory that holds only
  BENCHMARK.json and the benchmark's own files.

``verify-paper`` takes too long for this test and is left out of it.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ("classify-files", "search-min")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run_py(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_schema(spec: dict) -> None:
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in TINY:
        for trace in (0, 1):
            proc = run_py(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                          "--trace", str(trace), "--scale", "tiny")
            what = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{what}: exit code 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == RESULT_KEYS, f"{what}: result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  f"{what}: every answer correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared[trace], f"{what}: metrics and units as declared")
            check(all(isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool)
                      for v in result["metrics"].values()), f"{what}: values are numbers")


def check_tracer_in_process() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from braidquot import cli
    import tracer as tracing
    import workloads
    from worker import lru_functions

    workdir = HERE / "out" / "selftest-inputs"
    ops = [op for w in TINY for op in workloads.make_ops(w, 7, "tiny", workdir)]
    caches = lru_functions(tracing.braidquot_modules())

    def stdouts() -> list[str]:
        outs = []
        for op in ops:
            for fn in caches:
                fn.cache_clear()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                cli.main(list(op.argv))
            outs.append(buf.getvalue())
        return outs

    plain = stdouts()
    check(plain == [op.expected_stdout for op in ops], "untraced stdout matches expectations")
    t = tracing.Tracer()
    t.install()
    check(t.unwrapped_reachable() == [], "no listed function reachable unwrapped")
    check(stdouts() == plain, "traced and untraced stdout byte-identical")
    names = {span[0] for span in t.spans}
    check({"cli.main", "fingroup.from_table", "fingroup.read_cayley",
           "braid.find_witness", "jn2.classify"} <= names, "spans recorded in every layer used")
    shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_py(bare, "--workload", "search-min", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          "without the program: nonzero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_schema(spec)
    check_tracer_in_process()
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
