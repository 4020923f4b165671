"""The verbs end to end: golden stdout, sweeps in time, tables through files."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLI = ("-m", "braidquot.cli")
SEED0 = "perfbench/golden/verify-paper.seed0.out"

# cli.main for each argv in one process; repeated calls print what fresh
# processes print (tests/test_cli.py::test_repeated_main_calls_match_fresh_processes)
MAIN_EACH = """
import contextlib, io, json, sys
from braidquot import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    print(json.dumps([code, out.getvalue()]))
"""


def golden(path: str) -> str:
    return (ROOT / path).read_bytes().decode()


def main_each(run, argvs, timeout=None):
    """[exit code, stdout] of ``cli.main(argv)`` for each argv, in order."""
    child = run("-c", MAIN_EACH, json.dumps(argvs), timeout=timeout)
    assert child.code == 0, child.code
    return [json.loads(line) for line in child.out.splitlines()]


def sweep(n, g, bound):
    return ["search-min", "--n", str(n), "--g", str(g), "--bound", str(bound)]


# the north star's byte-identical outputs; perfbench/golden is read only.
# python -O strips assert statements; every check that guards a result
# raises instead, so outputs and checks survive it
@pytest.mark.parametrize("args,path", [
    pytest.param((*CLI, "verify-paper", "--seed", "0"), SEED0, id="verify-paper"),
    *[pytest.param((*CLI, *sweep(n, g, b)), f"perfbench/golden/search-min.n{n}_g{g}_b{b}.out",
                   id=f"search-min-n{n}-g{g}-b{b}") for n, g, b in ((6, 1, 128), (5, 1, 125), (5, 2, 64))],
    pytest.param(("-O", *CLI, "verify-paper", "--seed", "0"), SEED0, id="verify-paper-O"),
])
def test_stdout_matches_the_golden_copy(run, args, path):
    run(*args).diff(golden(path))


# the classify round trip on a second set of relabellings: the golden
# copy with the seed in its header swapped, as perfbench/workloads.py
# does for its seeds
def test_verify_paper_seed_7_matches_the_golden_copy(run):
    head, rest = golden(SEED0).split("\n", 1)
    assert head.endswith(", seed 0"), "golden header lacks its seed"
    run(*CLI, "verify-paper", "--seed", "7", timeout=120).diff(head[:-1] + "7\n" + rest)


# the enumerate verb: stdout matches its golden copy (kept out of the
# benchmark's directory), and classify reads back every table --out
# writes; only D8 and Q8 of order 8 are JN2, as I(2,1) and II(2,1)
def test_enumerate_matches_its_golden_copy_and_its_tables_classify(run, tmp_path):
    run(*CLI, "enumerate", "--bound", "15").diff(golden("tests/golden/enumerate.b15.out"))
    assert run(*CLI, "enumerate", "--bound", "15", "--out", str(tmp_path)).code == 0
    grps = sorted(map(str, tmp_path.glob("*.grp")))
    specs = []
    for grp, (code, out) in zip(grps, main_each(run, [["classify", "--in", p] for p in grps])):
        lines = out.splitlines()
        if code == 0 and "order=8" in lines:
            specs += [line[len("spec="):] for line in lines if line.startswith("spec=")]
        else:
            assert code == 1 and "jn2=false" in lines, (grp, code, out)
    assert sorted(specs) == ["I(2,1)", "II(2,1)"], specs


# a witness the search writes passes both checkers: the reduced
# relations and the full presentation, each with generation
def test_witness_written_by_search_min_passes_check_witness_and_check_full(run, tmp_path):
    w = str(tmp_path / "w.txt")
    child = run(*CLI, *sweep(5, 2, 64), "--witness", w)
    assert child.code == 0 and "minimum=64" in child.out.splitlines(), child
    for verb in ("check-witness", "check-full"):
        child = run(*CLI, verb, "--witness", w)
        assert child.code == 0 and "ok=true" in child.out.splitlines(), child


SWEEPS = [  # n, g, bound, timeout in s, minimum, attained, peak bound in MB
    # the bound-128 cliff: the closure-only witness search ran for more
    # than 9 minutes here without a verdict
    (5, 2, 128, 120, "64", "I(2^2,2),II(2^2,2)", None),
    # orders 243 and 256: the count cut leaves only the rank-2 groups, and
    # each finds a witness in 6 nodes or has every sigma skipped
    (5, 2, 256, 60, "64", "I(2^2,2),II(2^2,2)", None),
    # the count cut: orders up to 1,024 took about 97 s on 2 cores when
    # "no witness" was proved node by node
    (5, 2, 1024, 30, "64", "I(2^2,2),II(2^2,2)", None),
    # every table the sweep builds stays in materialize's cache: orders up
    # to 2,048 peaked at about 323 MB and took 4-5 s on a 2-core VM
    (6, 1, 2048, 60, "16", "I(2^2,1),II(2^2,1)", 600),
    # the large-g regime: no candidate has |G : Z| = |G'|^8, so the count
    # cut settles each one; before it I(2^2,2) alone took 29,820 nodes
    (5, 4, 64, 60, "none", "", None),
]


@pytest.mark.parametrize("n,g,bound,timeout,minimum,attained,max_mb", SWEEPS,
                         ids=[f"n{s[0]}-g{s[1]}-b{s[2]}" for s in SWEEPS])
def test_sweep_ends_in_time(run, n, g, bound, timeout, minimum, attained, max_mb):
    child = run(*CLI, *sweep(n, g, bound), timeout=timeout)
    # exit 1 is the mathematical negative: no group attains a minimum
    assert child.code == 0 or (minimum == "none" and child.code == 1), child
    lines = child.out.splitlines()
    assert f"minimum={minimum}" in lines and f"attained={attained}" in lines, child.out
    assert max_mb is None or child.peak_mb < max_mb, child.peak_mb


@pytest.mark.parametrize("specs,timeout", [
    # the classify verb end to end: every standard group up to order 343
    # is written to a file, read back and named by its own spec
    pytest.param(343, None, id="every-spec-up-to-343"),
    # the .grp reader above the sizes tier-1 reaches: construct writes the
    # 45 MB order-3,125 table and classify reads it back in row blocks
    pytest.param(["II(5,2)"], 60, id="II(5,2)"),
    # a center of order 2 above the isomorphism bound of 2,000: classify
    # normalizes by the quadratic form and never calls is_isomorphic
    pytest.param(["I(2,5)", "II(2,5)"], 60, id="I(2,5)-II(2,5)"),
])
def test_construct_and_classify_through_a_file(run, tmp_path, specs, timeout):
    if isinstance(specs, int):
        specs = run("-c", f"from braidquot import jn2; print(*jn2.enumerate_specs({specs}))").out.split()
        assert specs
    grp = str(tmp_path / "spec.grp")
    argvs = [a for s in specs for a in (["construct", "--spec", s, "--out", grp], ["classify", "--in", grp])]
    results = main_each(run, argvs, timeout)
    for spec, (made, _), (code, out) in zip(specs, results[::2], results[1::2], strict=True):
        assert (made, code) == (0, 0) and f"spec={spec}" in out.splitlines(), \
            f"classify did not name {spec}: {out}"
