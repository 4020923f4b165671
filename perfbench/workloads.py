"""The benchmark's workloads: the CLI calls each one makes and the stdout and
exit code each call must produce.

Every operation is one call of ``braidquot.cli.main``.  Expected outputs
never come from the program under test: ``verify-paper`` and ``search-min``
compare against golden stdout recorded at the commit that defined the
benchmark, and ``classify-files`` derives each verdict from how the
generator built the input table.  See METRICS.md for why each workload
exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("verify-paper", "search-min", "classify-files")

# (n, g, bound) sweeps.  (5, 2, 128) does not finish at the defining commit.
SEARCH_SWEEPS = {
    "full": ((6, 1, 128), (5, 1, 125), (5, 2, 64)),
    "tiny": ((6, 1, 16),),
}

# Largest standard JN2 group order written as a classify-files input.
CLASSIFY_MAX_ORDER = {"full": 343, "tiny": 32}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    expected_stdout: str
    expected_rc: int


def search_label(n: int, g: int, bound: int) -> str:
    return f"n{n}_g{g}_b{bound}"


def verify_paper_ops(seed: int) -> list[Op]:
    golden = (GOLDEN / "verify-paper.seed0.out").read_text()
    header = golden.split("\n", 1)[0]
    if not header.endswith(", seed 0"):
        raise ValueError("verify-paper golden copy lacks its seed header")
    expected = golden.replace(header, header[:-1] + str(seed), 1)
    return [Op("verify-paper", ("verify-paper", "--seed", str(seed)), expected, 0)]


def search_min_ops(scale: str) -> list[Op]:
    ops = []
    for n, g, bound in SEARCH_SWEEPS[scale]:
        label = search_label(n, g, bound)
        expected = (GOLDEN / f"search-min.{label}.out").read_text()
        argv = ("search-min", "--n", str(n), "--g", str(g), "--bound", str(bound))
        ops.append(Op(label, argv, expected, 0))
    return ops


def _spec_text(p: int, j: int, m: int, variant: str) -> str:
    pj = str(p) if j == 1 else f"{p}^{j}"
    return f"{variant}({pj},{m})"


def classify_stdout(order: int, spec: Optional[tuple[int, int, int, str]]) -> str:
    """The stdout ``classify`` must print for a group of this order whose
    standard model is ``spec`` (None: not JN2)."""
    if spec is None:
        return (f"group of order {order}: not JN2\n---\n"
                f"verb=classify\norder={order}\njn2=false\n")
    p, j, m, variant = spec
    text = _spec_text(p, j, m, variant)
    return (f"group of order {order}: JN2 of class ({p}^{j}, {m}), variant {variant}\n"
            f"isomorphism onto {text} verified\n---\n"
            f"verb=classify\norder={order}\njn2=true\np={p}\nj={j}\nm={m}\n"
            f"variant={variant}\nspec={text}\niso_verified=true\n")


def _classify_groups(max_order: int):
    """(name, table, spec) for every input group; spec is known by construction."""
    from braidquot import fingroup, jn2

    out = []
    for spec in jn2.enumerate_specs(max_order):
        out.append((str(spec), jn2.materialize(spec).group.table,
                    (spec.p, spec.j, spec.m, spec.variant)))
    # the nonabelian catalog through order 15: only D8 and Q8 are JN2
    out += [
        ("S3", fingroup.symmetric(3).table, None),
        ("D8", fingroup.dihedral(8).table, (2, 1, 1, "I")),
        ("Q8", fingroup.dicyclic(8).table, (2, 1, 1, "II")),
        ("D10", fingroup.dihedral(10).table, None),
        ("D12", fingroup.dihedral(12).table, None),
        ("A4", fingroup.alternating(4).table, None),
        ("Dic12", fingroup.dicyclic(12).table, None),
        ("D14", fingroup.dihedral(14).table, None),
    ]
    if max_order >= 128:
        # larger non-JN2 groups: derived subgroup not of prime order, or a
        # center that is not cyclic of prime-power order
        i31 = jn2.materialize(jn2.Jn2Spec(3, 1, 1, "I")).group
        i221 = jn2.materialize(jn2.Jn2Spec(2, 2, 1, "I")).group
        out += [
            ("S4", fingroup.symmetric(4).table, None),
            ("A5", fingroup.alternating(5).table, None),
            ("S5", fingroup.symmetric(5).table, None),
            ("D128", fingroup.dihedral(128).table, None),
            ("Dic64", fingroup.dicyclic(64).table, None),
            ("I(3,1)xC3", fingroup.direct_product(i31, fingroup.cyclic(3)).table, None),
            ("I(2^2,1)xC2", fingroup.direct_product(i221, fingroup.cyclic(2)).table, None),
        ]
    return out


def _relabelled_text(table: np.ndarray, rng: random.Random) -> str:
    """Cayley-table text of ``table`` under a random permutation fixing the
    identity; no label line, so the file carries no hint of its answer."""
    order = table.shape[0]
    perm = np.array([0] + rng.sample(range(1, order), order - 1), dtype=np.int64)
    out = np.empty_like(table)
    out[perm[:, None], perm[None, :]] = perm[table]
    rows = "\n".join(" ".join(map(str, row)) for row in out.tolist())
    return f"{order}\n{rows}\n"


def classify_ops(seed: int, scale: str, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, (name, table, spec) in enumerate(_classify_groups(CLASSIFY_MAX_ORDER[scale])):
        path = workdir / f"{i:03d}.grp"
        path.write_text(_relabelled_text(table, rng))
        ops.append(Op(name, ("classify", "--in", str(path)),
                      classify_stdout(table.shape[0], spec), 0 if spec else 1))
    return ops


def make_ops(workload: str, seed: int, scale: str, workdir: Path) -> list[Op]:
    if workload == "verify-paper":
        return verify_paper_ops(seed)
    if workload == "search-min":
        return search_min_ops(scale)
    if workload == "classify-files":
        return classify_ops(seed, scale, workdir)
    raise ValueError(f"unknown workload {workload!r}")
