"""Which functions of ``src/braidquot`` no verb calls.

Run as ``PYTHONPATH=src python tests/reach.py``.  The script installs a
``sys.setprofile`` hook before it imports ``braidquot``, so every call is
seen and no cache filled by an earlier caller hides one.  It then runs
``CORPUS`` through ``cli.entrypoint`` in a temporary directory and prints
one JSON object:

- ``exits``: the exit code of each invocation, in corpus order;
- ``defined``: each top-level function of ``src/braidquot`` and each
  non-dunder method of a top-level class, as ``module.qualname``;
- ``unreached``: those of ``defined`` that no invocation called.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile

# a witness for I(2,1) = D8 whose sigma = 1 breaks R4' [a_1, b_1] = sigma^2
BAD_R4_WITNESS = "n 5\ng 1\ngroup I(2,1)\nsigma 0\na 2\nb 1\n"
# a table whose second row holds an entry that is not an integer
BAD_ENTRY_GRP = "2\n0 1\n1 x\n"

# (argv, expected exit code): every verb on its working path, then three
# error paths (a node budget, a witness failing a relation, a bad table)
CORPUS = [
    (["construct", "--spec", "II(3,1)"], 0),
    (["construct", "--spec", "II(3,1)", "--out", "ii31.grp"], 0),
    (["classify", "--in", "ii31.grp"], 0),
    (["search-min", "--n", "6", "--g", "1", "--bound", "128", "--witness", "w61.txt"], 0),
    (["search-min", "--n", "5", "--g", "1", "--bound", "125", "--witness", "w51.txt"], 0),
    (["search-min", "--n", "5", "--g", "2", "--bound", "64", "--witness", "w52.txt"], 0),
    (["check-witness", "--witness", "w52.txt"], 0),
    (["check-full", "--witness", "w52.txt"], 0),
    (["enumerate", "--bound", "15", "--out", "tables"], 0),
    (["classify", "--in", os.path.join("tables", "order8_0.grp")], 1),
    (["verify-paper", "--seed", "0"], 0),
    (["search-min", "--n", "5", "--g", "2", "--bound", "64", "--budget", "1"], 3),
    (["check-witness", "--witness", "bad_r4.txt"], 1),
    (["classify", "--in", "bad_entry.grp"], 2),
]


def definitions(src: str) -> set[str]:
    """``module.qualname`` of each top-level def in the ``.py`` files of
    ``src``, and of each non-dunder method of a top-level class."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        module = name[:-3]
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in tree.body:
            if isinstance(node, funcs):
                out.add(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                out.update(f"{module}.{node.name}.{sub.name}" for sub in node.body
                           if isinstance(sub, funcs)
                           and not (sub.name.startswith("__") and sub.name.endswith("__")))
    return out


def main() -> None:
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    from braidquot import cli

    exits, home = [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        with open("bad_r4.txt", "w") as fh:
            fh.write(BAD_R4_WITNESS)
        with open("bad_entry.grp", "w") as fh:
            fh.write(BAD_ENTRY_GRP)
        for argv, _ in CORPUS:
            sys.argv = ["braidquot", *argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.entrypoint()
                except SystemExit as exc:
                    exits.append(exc.code)
        os.chdir(home)
    sys.setprofile(None)

    src = os.path.dirname(os.path.abspath(cli.__file__))
    called = {f"{os.path.basename(c.co_filename)[:-3]}.{c.co_qualname}"
              for c in codes if os.path.dirname(os.path.abspath(c.co_filename)) == src}
    defined = definitions(src)
    print(json.dumps({"exits": exits, "defined": sorted(defined),
                      "unreached": sorted(defined - called)}))


if __name__ == "__main__":
    main()
