import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidquot
from braidquot import braid, cli, fingroup as fg, oracle
from braidquot.errors import NotJn2, NotNormal, SizeLimit
from braidquot.jn2 import Jn2Spec, materialize, parse_spec
import reach
from references import first_assoc_violation


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def machine_block(out):
    human, _, tail = out.partition("---\n")
    pairs = {}
    for line in tail.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def test_construct_and_classify(tmp_path, capsys):
    path = tmp_path / "g.grp"
    code, out = run(capsys, "construct", "--spec", "I(2^2,1)", "--out", str(path))
    assert code == 0
    assert machine_block(out)["order"] == "16"
    assert path.exists()

    code, out = run(capsys, "classify", "--in", str(path))
    assert code == 0
    block = machine_block(out)
    assert block["jn2"] == "true"
    assert block["spec"] == "I(2^2,1)"
    assert block["iso_verified"] == "true"


def test_classify_abelian_negative(tmp_path, capsys):
    path = tmp_path / "c6.grp"
    fg.write_cayley(fg.cyclic(6), path)
    code, out = run(capsys, "classify", "--in", str(path))
    assert code == 1
    assert machine_block(out)["jn2"] == "false"


def test_classify_derived_not_central_negative(tmp_path, capsys):
    # C3 x S3: G' = A3 has prime order and Z = C3 is cyclic, but G' is not
    # central, so is_jn2 refuses it on that test
    path = tmp_path / "c3s3.grp"
    fg.write_cayley(fg.direct_product(fg.cyclic(3), fg.symmetric(3)), path)
    code, out = run(capsys, "classify", "--in", str(path))
    assert code == 1
    assert machine_block(out)["jn2"] == "false"


def test_search_min_machine_block(capsys):
    code, out = run(capsys, "search-min", "--n", "6", "--g", "1", "--bound", "64")
    assert code == 0
    block = machine_block(out)
    assert block["minimum"] == "16"
    assert block["attained"] == "I(2^2,1),II(2^2,1)"
    assert block["predicted_order"] == "16"


def test_search_min_negative_exit(capsys):
    code, out = run(capsys, "search-min", "--n", "6", "--g", "1", "--bound", "10")
    assert code == 1
    assert machine_block(out)["minimum"] == "none"


def test_search_min_writes_witness(tmp_path, capsys):
    wpath = tmp_path / "w.txt"
    code, _ = run(capsys, "search-min", "--n", "6", "--g", "1", "--bound", "64",
                  "--witness", str(wpath))
    assert code == 0
    code, out = run(capsys, "check-witness", "--witness", str(wpath))
    assert code == 0
    assert machine_block(out)["ok"] == "true"

    code, out = run(capsys, "check-full", "--witness", str(wpath))
    assert code == 0
    block = machine_block(out)
    assert block["ok"] == "true"
    assert block["r2_ok"] == "true"


# sigma has order 4, so TR' holds exactly when g + n - 1 is even
@pytest.mark.parametrize("n,reduced_ok", [(braid.FULL_PRESENTATION_MAX_N + 1, False),
                                          (1200, True), (10_000, True)])
def test_check_full_refuses_large_n_at_once(tmp_path, capsys, n, reduced_ok):
    # search-min writes witness files for n up to 10,000; the full
    # presentation has about n^2/2 relators (n = 1200 took 12 s)
    wpath = tmp_path / "w.txt"
    wpath.write_text(f"n {n}\ng 1\ngroup I(2^2,1)\nsigma 4\na 1\nb 2\n")
    t0 = time.monotonic()
    assert cli.main(["check-full", "--witness", str(wpath)]) == 3
    assert time.monotonic() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget error: size limit: the full presentation has about n^2/2 "
        f"relators; n={n} exceeds {braid.FULL_PRESENTATION_MAX_N}\n")
    # the reduced relations do not grow with n
    assert cli.main(["check-witness", "--witness", str(wpath)]) == (0 if reduced_ok else 1)


def test_check_full_accepts_n_at_the_limit(tmp_path, capsys):
    wpath = tmp_path / "w.txt"
    wpath.write_text(f"n {braid.FULL_PRESENTATION_MAX_N}\ng 1\ngroup I(2^2,1)\n"
                     "sigma 4\na 1\nb 2\n")
    code, out = run(capsys, "check-full", "--witness", str(wpath))
    assert code == 0
    assert machine_block(out)["ok"] == "true"


@pytest.mark.parametrize("verb", ["check-witness", "check-full"])
@pytest.mark.parametrize("g", [braid.MAX_G + 1, 300])
def test_witness_files_refuse_large_g_at_once(tmp_path, capsys, verb, g):
    # both relator sets grow as g^2: g = 300 took 4.8 s and 183 MB in
    # check-full; search-min never writes g above MAX_G
    wpath = tmp_path / "w.txt"
    ones = " ".join(["1"] * g)
    wpath.write_text(f"n 6\ng {g}\ngroup I(2^2,1)\nsigma 4\na {ones}\nb {ones}\n")
    t0 = time.monotonic()
    assert cli.main([verb, "--witness", str(wpath)]) == 2
    assert time.monotonic() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"usage error: witness file needs 1 <= g <= {braid.MAX_G}, got g={g}\n")


def test_check_witness_failure_is_exit_one(tmp_path, capsys):
    gpath = tmp_path / "d8.grp"
    fg.write_cayley(fg.dihedral(8), gpath)
    wpath = tmp_path / "w.txt"
    wpath.write_text("n 6\ng 1\ngroup d8.grp\nsigma 0\na 0\nb 1\n")
    code, out = run(capsys, "check-witness", "--witness", str(wpath))
    assert code == 1
    assert machine_block(out)["ok"] == "false"


@pytest.mark.parametrize("verb", ["check-witness", "check-full"])
@pytest.mark.parametrize("group,message", [("I(4,1)", "p must be prime, got 4"),
                                           ("II(3,0)", "j and m must be positive")])
def test_witness_group_in_spec_syntax_reports_the_spec_error(tmp_path, capsys, verb,
                                                             group, message):
    # each was read as a path: "[Errno 2] No such file or directory"
    wpath = tmp_path / "w.txt"
    wpath.write_text(f"n 6\ng 1\ngroup {group}\nsigma 0\na 1\nb 2\n")
    assert cli.main([verb, "--witness", str(wpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_witness_group_as_grp_path(tmp_path, capsys):
    # a file name that starts like a spec is still a path
    wpath = tmp_path / "w.txt"
    assert cli.main(["search-min", "--n", "6", "--g", "1", "--bound", "16",
                     "--witness", str(wpath)]) == 0
    text = wpath.read_text()
    assert "group I(2^2,1)\n" in text
    assert cli.main(["construct", "--spec", "I(2^2,1)", "--out",
                     str(tmp_path / "I(2^2,1).grp")]) == 0
    wpath.write_text(text.replace("group I(2^2,1)", "group I(2^2,1).grp"))
    capsys.readouterr()
    for verb in ("check-witness", "check-full"):
        code, out = run(capsys, verb, "--witness", str(wpath))
        assert code == 0 and machine_block(out)["ok"] == "true", verb
        assert machine_block(out)["order"] == "16", verb


def test_witness_group_with_non_ascii_digits_is_a_path(tmp_path, capsys):
    # "I(٢^٢,١)" was read as the spec I(2^2,1), so this file passed
    wpath = tmp_path / "w.txt"
    assert cli.main(["search-min", "--n", "6", "--g", "1", "--bound", "16",
                     "--witness", str(wpath)]) == 0
    wpath.write_text(wpath.read_text().replace("group I(2^2,1)", "group I(٢^٢,١)"),
                     encoding="utf-8")
    capsys.readouterr()
    for verb in ("check-witness", "check-full"):
        assert cli.main([verb, "--witness", str(wpath)]) == 2, verb
        captured = capsys.readouterr()
        assert captured.out == "" and "No such file or directory" in captured.err
    fg.write_cayley(materialize(parse_spec("I(2^2,1)")).group, tmp_path / "I(٢^٢,١)")
    for verb in ("check-witness", "check-full"):
        code, out = run(capsys, verb, "--witness", str(wpath))
        assert code == 0 and machine_block(out)["ok"] == "true", verb


def test_witness_file_with_repeated_or_unknown_keys_exit_two(tmp_path, capsys):
    wpath = tmp_path / "w.txt"
    assert cli.main(["search-min", "--n", "6", "--g", "1", "--bound", "16",
                     "--witness", str(wpath)]) == 0
    valid = wpath.read_text()
    assert cli.main(["check-witness", "--witness", str(wpath)]) == 0
    capsys.readouterr()
    # a later n and group used to override the first ones, so this file
    # printed ok=true for a witness that does not live in II(3,1)
    for text, message in [("n 9\ngroup II(3,1)\n" + valid, "repeats field 'n'"),
                          (valid + "sigma2 0\n", "unknown field 'sigma2'")]:
        wpath.write_text(text)
        for verb in ("check-witness", "check-full"):
            assert cli.main([verb, "--witness", str(wpath)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err


@pytest.mark.parametrize("key", ["group", "sigma"])
def test_witness_file_with_empty_field_exit_two(tmp_path, capsys, key):
    # an empty group line used to be read as the witness file's directory
    wpath = tmp_path / "w.txt"
    assert cli.main(["search-min", "--n", "6", "--g", "1", "--bound", "16",
                     "--witness", str(wpath)]) == 0
    lines = [f"{key} " if line.partition(" ")[0] == key else line
             for line in wpath.read_text().splitlines()]
    wpath.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for verb in ("check-witness", "check-full"):
        assert cli.main([verb, "--witness", str(wpath)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: witness file has empty field '{key}'\n"


def test_usage_errors_exit_two(capsys, tmp_path):
    assert cli.main(["search-min", "--g", "1", "--bound", "64"]) == 2  # missing --n
    capsys.readouterr()
    assert cli.main(["construct", "--spec", "not-a-spec"]) == 2
    capsys.readouterr()
    assert cli.main(["construct", "--spec", "I(٢,١)"]) == 2
    assert capsys.readouterr().err == "usage error: cannot parse spec 'I(٢,١)'\n"
    assert cli.main(["classify", "--in", str(tmp_path / "nope.grp")]) == 2
    capsys.readouterr()


def test_budget_errors_exit_three(capsys):
    assert cli.main(["construct", "--spec", "I(7,3)"]) == 3
    capsys.readouterr()
    assert cli.main(["search-min", "--n", "5", "--g", "2",
                     "--bound", "64", "--budget", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget error: witness search exceeded 3 nodes "
                            "(explored 4 nodes)\n")


# the flags each verb reads, with a valid value for each
VERB_FLAGS = {
    "construct": {"--spec": "I(2,1)", "--out": "g.grp"},
    "classify": {"--in": "g.grp"},
    "check-witness": {"--witness": "w.txt"},
    "check-full": {"--witness": "w.txt"},
    "search-min": {"--n": "6", "--g": "1", "--bound": "16", "--budget": "9",
                   "--witness": "w.txt"},
    "verify-paper": {"--n": "6", "--g": "1", "--seed": "1", "--budget": "9",
                     "--bound": "16"},
    "enumerate": {"--bound": "8", "--out": "cat"},
}
ALL_FLAGS = ("--n", "--g", "--bound", "--spec", "--in", "--out", "--witness",
             "--seed", "--budget")


@pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
def test_each_verb_accepts_only_the_flags_it_reads(verb, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a verb that did run would write here
    flags = VERB_FLAGS[verb]
    argv = [verb] + [x for pair in flags.items() for x in pair]
    parser = cli.build_parser()
    parser.parse_args(argv)  # every flag the verb reads parses
    for flag in ALL_FLAGS:
        if flag not in flags:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + [flag, "1"])
            assert exc.value.code == 2, flag
            assert cli.main(argv + [flag, "1"]) == 2, flag
    capsys.readouterr()
    assert sum(map(len, VERB_FLAGS.values())) == 17


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; calls in one process, mixing
    verbs and a usage error, each print what a fresh process prints."""
    monkeypatch.chdir(tmp_path)
    fg.write_cayley(fg.dihedral(8), tmp_path / "d8.grp")
    argvs = [["classify", "--in", "d8.grp"],
             ["construct", "--spec", "I(2,1)", "--bound", "3"],
             ["search-min", "--n", "6", "--g", "1", "--bound", "16"],
             ["enumerate", "--bound", "4"],
             ["construct", "--spec", "I(2,1)"]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    fresh = [subprocess.run([sys.executable, "-m", "braidquot.cli", *argv], env=env,
                            capture_output=True, text=True) for argv in argvs]
    assert [f.returncode for f in fresh] == [0, 2, 0, 0, 0]
    for _ in range(2):
        for argv, f in zip(argvs, fresh):
            code, out = run(capsys, *argv)
            assert (code, out) == (f.returncode, f.stdout), argv


@pytest.mark.parametrize("argv", [["classify", "--in", "ii31.grp"],
                                  ["verify-paper", "--seed", "0"]])
def test_verbs_leave_numpy_ma_unimported(tmp_path, argv):
    """A bare ``np.unique`` imports ``numpy.ma`` (9.5-15 ms on first use
    with numpy 2.4); neither verb may reach one."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    fg.write_cayley(materialize(parse_spec("II(3,1)")).group, tmp_path / "ii31.grp")
    code = ("import sys\n"
            "from braidquot import cli\n"
            f"rc = cli.main({argv!r})\n"
            "print(rc, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stdout + proc.stderr


@pytest.mark.parametrize("verb", ["check-witness", "check-full"])
@pytest.mark.parametrize("indices", ["sigma -12\na -15\nb -14\n",
                                     "sigma 99999\na 1\nb 2\n"])
def test_witness_indices_outside_group_exit_two(tmp_path, capsys, verb, indices):
    wpath = tmp_path / "w.txt"
    wpath.write_text("n 6\ng 1\ngroup I(2^2,1)\n" + indices)
    assert cli.main([verb, "--witness", str(wpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "outside the group of order 16" in captured.err


@pytest.mark.parametrize("verb", ["check-witness", "check-full"])
def test_witness_integers_are_ascii_digits_only(tmp_path, capsys, verb):
    # int() reads "1_2" as 12 and the Arabic-Indic "١" as 1, so this file
    # used to pass as the I(2^2,1) witness sigma = 12, a = 1, b = 2
    wpath = tmp_path / "w.txt"
    wpath.write_text("n 6\ng 1\ngroup I(2^2,1)\nsigma 1_2\na ١\nb 2\n", encoding="utf-8")
    assert cli.main([verb, "--witness", str(wpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: witness field 'sigma' has '1_2', "
                            "not an ASCII integer\n")
    wpath.write_text("n 6\ng 1\ngroup I(2^2,1)\nsigma 12\na ١\nb 2\n", encoding="utf-8")
    assert cli.main([verb, "--witness", str(wpath)]) == 2
    assert "witness field 'a' has '١', not an ASCII integer" in capsys.readouterr().err
    wpath.write_text("n 6\ng 1\ngroup I(2^2,1)\nsigma 12\na 1\nb 2\n")
    assert cli.main([verb, "--witness", str(wpath)]) == 0


@pytest.mark.parametrize("text,code", [
    ("3\n0 1 2\n1 2 0\n", 2),                    # truncated
    ("3\n0 1 2\n1 2 0 1\n2 0 1\n", 2),          # a row with an extra column
    ("10001\n0\n", 3),                            # order over the table cap
    ("2\n0 1\n1 4294967296\n", 2),               # an entry beyond int32
])
def test_malformed_cayley_files_exit_codes(tmp_path, capsys, text, code):
    path = tmp_path / "g.grp"
    path.write_text(text)
    assert cli.main(["classify", "--in", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("entry", ["0_0", "\u0660", "\u00a00"])
def test_classify_refuses_entries_int_reads_anyway(tmp_path, capsys, entry):
    # int() reads each of these as 0, so a per-token parser named C2 here
    path = tmp_path / "c2.grp"
    path.write_text(f"2\n0 1\n1 {entry}\n", encoding="utf-8")
    assert cli.main(["classify", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: row 1 entry ")
    assert captured.err.endswith(" is not an ASCII integer\n")


HUGE = "1000000000000000000000000000057"


@pytest.mark.parametrize("argv,code", [
    # a 31-digit prime must be refused before any trial division
    (["construct", "--spec", f"I({HUGE},1)"], 3),
    (["search-min", "--n", HUGE, "--g", "1", "--bound", "8"], 2),
    (["construct", "--spec", "I(2^99999999,1)"], 3),
    (["search-min", "--n", "5", "--g", HUGE, "--bound", "8"], 2),
    (["search-min", "--n", "5", "--g", "101", "--bound", "8"], 2),
    (["search-min", "--n", "10001", "--g", "1", "--bound", "8"], 2),
    (["search-min", "--n", "4", "--g", "1", "--bound", "8"], 2),
    (["verify-paper", "--n", HUGE], 2),
    (["verify-paper", "--g", HUGE], 2),
    (["verify-paper", "--n", "10000", "--g", "1"], 3),  # S_10000 over the cap
    (["search-min", "--n", "5", "--g", "1", "--bound", "0"], 2),
    (["search-min", "--n", "5", "--g", "1", "--bound", "-1"], 2),
    (["search-min", "--n", "5", "--g", "1", "--bound", "8", "--budget", "0"], 2),
    (["verify-paper", "--n", "5", "--g", "1", "--bound", "0"], 2),
    (["verify-paper", "--n", "5", "--g", "1", "--budget", "0"], 2),
    (["enumerate", "--bound", "0"], 2),
    (["enumerate", "--bound", "-5"], 2),
])
def test_out_of_range_arguments_exit_fast(capsys, argv, code):
    t0 = time.monotonic()
    assert cli.main(argv) == code
    assert time.monotonic() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("exc", [RuntimeError("boom"), AssertionError("broken invariant"),
                                 NotNormal("subgroup is not normal"),
                                 NotJn2("group fails the JN2 characterization")])
def test_unexpected_exceptions_exit_four(monkeypatch, capsys, exc):
    def raiser(args):
        raise exc
    monkeypatch.setitem(cli._DISPATCH, "classify", raiser)
    assert cli.main(["classify", "--in", "g.grp"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_no_assert_guards_a_result():
    """Checks that guard results raise (exit 4 through the CLI): ``python -O``
    strips ``assert`` statements."""
    src = os.path.dirname(cli.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


def _names_used(node) -> Counter:
    """How often each name is read under ``node``, as a variable or as an
    attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def test_every_class_in_src_is_referenced_or_exported():
    """Each top-level class of ``src/braidquot`` is referenced by name in
    ``src/`` outside its own definition, or exported in
    ``braidquot.__all__``.  Code that only tests reach belongs in
    ``tests/references.py``; functions and methods are held to the
    stronger rule of ``test_every_function_in_src_runs_under_a_verb``."""
    src = os.path.dirname(cli.__file__)
    trees = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), filename=name)
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    unreached = [f"{name}:{node.name}" for name, tree in trees.items()
                 for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name not in braidquot.__all__
                 and used[node.name] == _names_used(node)[node.name]]
    assert unreached == []


# Functions of src/ that no invocation of ``reach.CORPUS`` calls, each with
# the reason it stays.
REACH_EXCEPTIONS = {
    "fingroup.cyclic": "perfbench/workloads.py builds classify-files inputs with it",
    "fingroup.direct_product": "perfbench/workloads.py builds classify-files inputs with it",
    "oracle.normal_subgroups": "perfbench/tracer.py traces it",
}


def _reach_problems(defined, unreached, declared) -> list[str]:
    """Why the traced ``unreached`` set differs from the ``declared``
    exceptions, one line per name; empty when they agree."""
    defined, unreached = set(defined), set(unreached)
    return ([f"{name}: no verb calls it" for name in sorted(unreached - set(declared))]
            + [f"{name}: declared unreached, but a verb calls it"
               for name in sorted(set(declared) & (defined - unreached))]
            + [f"{name}: declared, but not defined in src/"
               for name in sorted(set(declared) - defined)])


def test_every_function_in_src_runs_under_a_verb():
    """Each top-level function of ``src/braidquot`` and each non-dunder
    method of a top-level class is called by the verb corpus of
    ``tests/reach.py``, run in a fresh process under ``sys.setprofile``,
    or is a declared exception.  Every invocation must end as expected."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    script = os.path.join(os.path.dirname(__file__), "reach.py")
    proc = subprocess.run([sys.executable, script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["exits"] == [code for _, code in reach.CORPUS]
    problems = _reach_problems(got["defined"], got["unreached"], REACH_EXCEPTIONS)
    assert problems == [], "\n".join(problems)


def test_reach_check_refuses_a_planted_table():
    defined = ["fingroup.from_table", "fingroup.cyclic", "oracle.normal_subgroups"]
    unreached = ["fingroup.cyclic", "oracle.normal_subgroups"]
    declared = {"fingroup.cyclic": "", "oracle.normal_subgroups": ""}
    assert _reach_problems(defined, unreached, declared) == []
    assert _reach_problems(defined, unreached, {**declared, "fingroup.from_table": ""}) == [
        "fingroup.from_table: declared unreached, but a verb calls it"]
    assert _reach_problems(defined, unreached, {**declared, "fingroup.gone": ""}) == [
        "fingroup.gone: declared, but not defined in src/"]
    assert _reach_problems(defined, unreached, {"fingroup.cyclic": ""}) == [
        "oracle.normal_subgroups: no verb calls it"]


def _is_group_text(text: str) -> bool:
    """Reference verdict on a .grp text: it parses to a square table with
    entries in range, identity 0 and two-sided inverses, and the reference
    n^3 sweep finds no associativity failure."""
    lines = text.splitlines()
    if lines and lines[0].startswith("#"):
        lines = lines[1:]
    try:
        order = int(lines[0])
        t = np.array([[int(v) for v in line.split()] for line in lines[1:]])
    except (IndexError, ValueError):
        return False
    idx = np.arange(order)
    if order < 1 or t.shape != (order, order) or t.min() < 0 or t.max() >= order:
        return False
    if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
        return False
    if not ((t == 0) & (t.T == 0)).any(axis=1).all():
        return False
    return first_assoc_violation(t) is None


FUZZ_GROUPS = [fg.cyclic(6), fg.symmetric(3), fg.dihedral(8), fg.dicyclic(8),
               fg.alternating(4), fg.direct_product(fg.cyclic(2), fg.cyclic(4))]
# small integers, integers beyond int64, and tokens int() refuses or reads
# in an unusual way
TOKENS = st.one_of(st.integers(-2, 20).map(str),
                   st.sampled_from([str(10 ** 22), str(-10 ** 22), str(2 ** 63), "x", "1.5",
                                    "", "0x3", "#", "1 2", "\t", "nan", "+2", "07"]))


@st.composite
def grp_texts(draw):
    """A small group's .grp text with cells perturbed, then possibly a
    label line, garbage tokens or a truncation."""
    G = draw(st.sampled_from(FUZZ_GROUPS))
    t = np.array(G.table)
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(st.integers(0, G.order - 1)), draw(st.integers(0, G.order - 1))
        t[x, y] = draw(st.integers(-1, G.order))
    rows = [[str(v) for v in row] for row in t]
    damage = draw(st.sampled_from(["none", "garbage", "truncate"]))
    if damage == "garbage":
        for _ in range(draw(st.integers(1, 2))):
            r, c = draw(st.integers(0, G.order - 1)), draw(st.integers(0, G.order - 1))
            rows[r][c] = draw(TOKENS)
    lines = [str(G.order)] + [" ".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(0, f"# label: {G.label}")
    text = "\n".join(lines) + "\n"
    if damage == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=200, deadline=None)
@given(text=grp_texts())
def test_classify_fuzz_exit_codes(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "g.grp"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["classify", "--in", str(path)])
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (code in (0, 1)) == _is_group_text(text), (code, err.getvalue())


# Valid witness files, as "search-min --witness" writes them; the last one
# names its group by a .grp file that each fuzz run writes next to it.
WITNESS_FILE_GROUP = materialize(Jn2Spec(2, 2, 1, "I")).group
FUZZ_WITNESS_TEXTS = [
    braid.witness_to_text(braid.standard_witness(Jn2Spec(p, j, m, v), n, m), ref)
    for p, j, m, v, n, ref in [(2, 2, 1, "I", 6, "I(2^2,1)"), (2, 2, 1, "II", 6, "II(2^2,1)"),
                               (3, 1, 1, "I", 6, "I(3,1)"), (5, 1, 1, "II", 5, "II(5,1)"),
                               (2, 2, 2, "I", 5, "I(2^2,2)"), (2, 2, 1, "I", 6, "q.grp")]]
GROUP_REFS = ["I(2^2,1)", "II(2^2,1)", "I(3,1)", "II(3,1)", "I(2,1)", "I(2^2,2)", "q.grp",
              "nope.grp", "I(4,1)", "I(7,3)", "", "q.grp q.grp"]
WITNESS_TOKENS = st.one_of(st.integers(-2, 130).map(str),
                           st.sampled_from(["x", "1.5", "", "0x3", "#", "+2", "07", "1_0",
                                            "-0", str(10 ** 22), "\t"]))


@st.composite
def witness_texts(draw):
    """A valid witness file with up to three edits: an index, n (kept at
    most 50, since the full presentation has about n^2/2 relators), g or the
    group changed; a line repeated, dropped or added; a token replaced by
    garbage."""
    lines = draw(st.sampled_from(FUZZ_WITNESS_TEXTS)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        kind = draw(st.sampled_from(["index", "index", "n", "n", "g", "group", "group",
                                     "repeat", "drop", "extra", "garbage"]))
        i = draw(st.integers(0, len(lines) - 1))
        key, _, value = lines[i].partition(" ")
        tokens = value.split()
        if kind == "index" and key in ("sigma", "a", "b") and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = str(draw(st.integers(-2, 130)))
            lines[i] = " ".join([key] + tokens)
        elif kind in ("n", "g", "group"):
            value = {"n": st.integers(-1, 50).map(str), "g": st.integers(-1, 4).map(str),
                     "group": st.sampled_from(GROUP_REFS)}[kind]
            keys = [line.partition(" ")[0] for line in lines]
            i = keys.index(kind) if kind in keys else i
            lines[i:i + (kind in keys)] = [f"{kind} {draw(value)}"]
        elif kind == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "drop":
            del lines[i]
        elif kind == "extra":
            lines.insert(i, draw(st.sampled_from(["c 1", "sigma2 0", "# note", " ", "a", "N 6"])))
        elif kind == "garbage" and key != "n":
            parts = lines[i].split(" ")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(WITNESS_TOKENS)
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _reference_ok(text: str, verb: str) -> bool:
    """Reference verdict on a witness file: each of the six keys once, the
    group one this test knows, indices in range, every relator evaluated
    straight from the table, and generation by a set-based closure."""
    keys = ("n", "g", "group", "sigma", "a", "b")
    fields: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition(" ")
        if key not in keys or key in fields:
            return False
        fields[key] = value.strip()
    if len(fields) != len(keys):
        return False
    try:
        n, g, sigma = int(fields["n"]), int(fields["g"]), int(fields["sigma"])
        a = [int(x) for x in fields["a"].split()]
        b = [int(x) for x in fields["b"].split()]
        G = (WITNESS_FILE_GROUP if fields["group"] == "q.grp"
             else materialize(parse_spec(fields["group"])).group)
    except (ValueError, SizeLimit):
        return False
    N, T = G.order, np.asarray(G.table)
    if g < 1 or len(a) != g or len(b) != g or n < (3 if verb == "check-witness" else 2):
        return False
    if not all(0 <= x < N for x in [sigma] + a + b):
        return False
    inv = np.argmax(T == 0, axis=1)

    def word(*factors):  # product of (element, exponent) pairs
        acc = 0
        for x, e in factors:
            for _ in range(abs(e)):
                acc = T[acc, x if e > 0 else inv[x]]
        return acc

    if verb == "check-witness":
        rels = [word((x, 1), (sigma, 1), (x, -1), (sigma, -1)) for x in a + b]
        rels += [word((x, 1), (y, 1), (x, -1), (y, -1))
                 for s in range(g) for r in range(s + 1, g)
                 for x, y in ((a[s], a[r]), (b[s], b[r]), (b[s], a[r]), (a[s], b[r]))]
        rels += [word((a[r], 1), (b[r], 1), (a[r], -1), (b[r], -1), (sigma, -2))
                 for r in range(g)]
        rels.append(word((sigma, 2 * (g + n - 1))))
    else:
        images = {f"s{i}": sigma for i in range(1, n)}
        images.update({f"a{r + 1}": a[r] for r in range(g)})
        images.update({f"b{r + 1}": b[r] for r in range(g)})
        rels = [word(*((images[gen], e) for gen, e in rel.word))
                for rel in braid.bellingeri_presentation(n, g).relators]
    if any(rels):
        return False
    span = {0}
    while True:
        grown = span | {int(T[x, y]) for x in span for y in [sigma] + a + b}
        if grown == span:
            return len(span) == N
        span = grown


@settings(max_examples=200, deadline=None)
@given(text=witness_texts(), verb=st.sampled_from(["check-witness", "check-full"]))
def test_witness_fuzz_exit_codes(tmp_path_factory, text, verb):
    wdir = tmp_path_factory.mktemp("wfuzz")
    fg.write_cayley(WITNESS_FILE_GROUP, wdir / "q.grp")
    (wdir / "w.txt").write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([verb, "--witness", str(wdir / "w.txt")])
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    printed_ok = "\nok=true\n" in out.getvalue()
    assert printed_ok == (code == 0)
    if printed_ok:
        assert _reference_ok(text, verb), text


def test_negative_order_file_message(tmp_path, capsys):
    path = tmp_path / "g.grp"
    path.write_text("-3\n")
    assert cli.main(["classify", "--in", str(path)]) == 2
    assert "order must be >= 1, got -3" in capsys.readouterr().err


def test_enumerate_counts_and_export(tmp_path, capsys):
    outdir = tmp_path / "cat"
    code, out = run(capsys, "enumerate", "--bound", "15", "--out", str(outdir))
    assert code == 0
    block = machine_block(out)
    assert block["classes_order_8"] == "5"
    assert block["nonabelian_order_12"] == "3"
    index = (outdir / "index.txt").read_text().strip().splitlines()
    assert "order8_0.grp exhaustive" in index
    assert any(line.startswith("order12_") and line.endswith("constructed")
               for line in index)
    # every exported file is re-readable
    reread = fg.read_cayley(outdir / "order8_4.grp")
    assert reread.order == 8


# sha256 of what ``enumerate --bound 15`` prints and of each file its
# --out writes; stdout is taken from a run without --out, which names the
# directory
ENUMERATE_B15_STDOUT_SHA256 = "eb7710fa13023c3aedcb8896a0540abe68a9cfdc6446f9b4f5dcd39117c17be2"
ENUMERATE_B15_FILES_SHA256 = {
    "index.txt": "455cfe17e0ef1fe9b223f3a787048091aba257dbbcc5d6d3bdae87472032a626",
    "order1_0.grp": "ab3e59c19f52b55126f213d1a1a2052929445730b64e06aad8e9cc3426c83c06",
    "order2_0.grp": "c9a2bdc394bdd44d571052278d7b2a3a9f59f29ccbef6f22a439e47d9e89c0bb",
    "order3_0.grp": "cb598352d4e177d9697a66b539de915a4c215c32bc67b6648dee7cbc1310d440",
    "order4_0.grp": "9b994154771377534c4d25272e4ce3fe296ae0d6570752b21f4e76ae023acf2a",
    "order4_1.grp": "1a83222dacab5a253351b3b6505ea219b14dd96ae2da5935ef32db771c095f62",
    "order5_0.grp": "bd6cadefb5888f4d6a69df0e5be627b93465d6b509e8a22ace30c8b1d73d2b89",
    "order6_0.grp": "52de2f9c418eef0c5f54720f281499c0f389d0aadc07c53e18b90a195bba1755",
    "order6_1.grp": "59374e5e33611be47a720a2f0bfd97b6776fea5668904dc30224c2fadf4e046f",
    "order7_0.grp": "125a6cecf35613f39809f35d23653e16c7dd93edce48965ca0340b2a072580ae",
    "order8_0.grp": "9e7c9f8982bfad0eab7994d40e05d4ebbe9b4e34de9fcd9c7abc4018d4bf8a0c",
    "order8_1.grp": "c12c3f41e065aef2bb245bc215c1dd2ab9380a547a109aade1242a6382aa4f3e",
    "order8_2.grp": "a8c0163717d8e8e2100148be7592c757ad4168f191efa542082f3ca5d4d34f1b",
    "order8_3.grp": "4917b69aa542ec3b3a28a637b83fa31f5306580bfd202b7c22a1d113b0338ec9",
    "order8_4.grp": "c8c7038e91b4207dedfc1616684e39a704aea9b17b480dfc9a84a92294e2eba3",
    "order10_0.grp": "bd165e01786ffdada2f68e0e7b5c3691e6b57239c8e82226f3ba87836abed452",
    "order12_0.grp": "9bbe507d40bcf411723eb37a39a6ef707d1c832cc1d53100b5dc94687dac9725",
    "order12_1.grp": "9c674e39dec6553b2d6a16c3083a279600f0287e471782d24dc30137c5d1f28b",
    "order12_2.grp": "18a6cf510c22957c2c239fb28db9f4e8b452d3da33e5252b80e33480ba4db8ca",
    "order14_0.grp": "51f53e44b14fc27c645e7b040172a88d81fb055059727bf3f66f2826ad857deb",
}


def test_enumerate_output_pinned(tmp_path, capsys):
    code, out = run(capsys, "enumerate", "--bound", "15")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_B15_STDOUT_SHA256
    outdir = tmp_path / "cat"
    assert run(capsys, "enumerate", "--bound", "15", "--out", str(outdir))[0] == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in outdir.iterdir()}
    assert written == ENUMERATE_B15_FILES_SHA256


def test_determinism_byte_identical(capsys):
    _, out1 = run(capsys, "search-min", "--n", "5", "--g", "2", "--bound", "64")
    _, out2 = run(capsys, "search-min", "--n", "5", "--g", "2", "--bound", "64")
    assert out1 == out2
    _, e1 = run(capsys, "enumerate", "--bound", "8")
    _, e2 = run(capsys, "enumerate", "--bound", "8")
    assert e1 == e2


def test_verify_paper_single_row(capsys):
    code, out = run(capsys, "verify-paper", "--n", "6", "--g", "1")
    assert code == 0
    block = machine_block(out)
    assert block["row_n6_g1"] == "pass"
    assert block["result"] == "pass"
    assert block["exhaustive_order_8"] == "true"


def test_cli_roundtrip_construct_files_bit_exact(tmp_path, capsys):
    p1 = tmp_path / "a.grp"
    p2 = tmp_path / "b.grp"
    run(capsys, "construct", "--spec", "II(3,1)", "--out", str(p1))
    run(capsys, "construct", "--spec", "II(3,1)", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
