"""Command-line front end.

Verbs: construct | classify | check-witness | check-full | search-min |
verify-paper | enumerate.  Exit codes: 0 success, 1 mathematical-negative
result a verb returns (e.g. no witness, not JN2, a failed verification),
2 usage errors, 3 budget/size errors, 4 internal errors (any other
exception, reported on one ``internal error:`` line without a traceback).
Output is deterministic for fixed inputs: human-readable lines, then a
``---`` separator, then ``key=value`` machine lines.
Timings go to stderr so stdout stays byte-identical across runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Optional

from . import braid, fingroup, jn2, oracle, verify
from .errors import (
    HypothesisFailed,
    NotAGroup,
    NotJn2,
    ParamRange,
    SearchBudgetExceeded,
    SizeLimit,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidquot",
        description="construct, classify and search the finite quotients "
                    "appearing in the surface-braid minimal-quotient story")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct",
                       help="materialize a standard JN2 group to a Cayley-table file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p = sub.add_parser("classify", help="decide the standard model of a JN2 group")
    p.add_argument("--in", dest="infile", required=True)
    p = sub.add_parser("check-witness",
                       help="verify the reduced relations for a witness file")
    p.add_argument("--witness", required=True)
    p = sub.add_parser("check-full",
                       help="verify the full presentation for an extended witness")
    p.add_argument("--witness", required=True)
    p = sub.add_parser("search-min",
                       help="sweep candidates for the minimal braid-reduced quotient")
    for flag in ("--n", "--g"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--bound", type=_positive, required=True)
    p.add_argument("--budget", type=_positive)
    p.add_argument("--witness")
    p = sub.add_parser("verify-paper", help="run the whole verification matrix")
    for flag in ("--n", "--g"):
        p.add_argument(flag, type=int)
    for flag in ("--budget", "--bound"):
        p.add_argument(flag, type=_positive)
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("enumerate",
                       help="exhaustively enumerate small groups / export the catalog")
    p.add_argument("--bound", type=_positive, default=8)
    p.add_argument("--out")
    return parser


def _emit(human: list[str], machine: dict[str, object]) -> None:
    for line in human:
        print(line)
    print("---")
    for key, value in machine.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        print(f"{key}={value}")


def cmd_construct(args) -> int:
    spec = jn2.parse_spec(args.spec)
    std = jn2.materialize(spec)
    human = []
    if args.out:
        fingroup.write_cayley(std.group, args.out)
        human.append(f"wrote order-{std.group.order} Cayley table to {args.out}")
    else:
        human.append(fingroup.to_cayley_text(std.group).rstrip("\n"))
    machine = {
        "verb": "construct",
        "spec": str(spec),
        "order": std.group.order,
        "center_order": spec.center_order,
        "z": std.z,
        "a": ",".join(map(str, std.a)),
        "b": ",".join(map(str, std.b)),
    }
    if args.out:
        machine["out"] = args.out
    _emit(human, machine)
    return EXIT_OK


def cmd_classify(args) -> int:
    G = fingroup.read_cayley(args.infile)
    try:
        spec, iso = jn2.classify(G)
    except NotJn2:
        _emit([f"group of order {G.order}: not JN2"],
              {"verb": "classify", "order": G.order, "jn2": False})
        return EXIT_NEGATIVE
    human = [
        f"group of order {G.order}: JN2 of class "
        f"({spec.p}^{spec.j}, {spec.m}), variant {spec.variant}",
        f"isomorphism onto {spec} verified",
    ]
    machine = {
        "verb": "classify",
        "order": G.order,
        "jn2": True,
        "p": spec.p,
        "j": spec.j,
        "m": spec.m,
        "variant": spec.variant,
        "spec": str(spec),
        "iso_verified": iso.is_bijective,
    }
    _emit(human, machine)
    return EXIT_OK


def _load_witness(args) -> braid.Witness:
    with open(args.witness, "r", newline="") as fh:
        text = fh.read()
    return braid.witness_from_text(text, base_dir=os.path.dirname(args.witness) or ".")


def cmd_check_witness(args) -> int:
    w = _load_witness(args)
    rep = braid.check_reduced_witness(w)
    human = [
        f"witness for n={w.n} g={w.g} on group of order {w.group.order}",
        "relations: " + ("all pass" if rep.relators_ok
                         else "FAIL " + ",".join(rep.failures())),
        f"generates: {'yes' if rep.generates else 'no'}",
    ]
    machine = {
        "verb": "check-witness",
        "n": w.n,
        "g": w.g,
        "order": w.group.order,
        "r1_ok": rep.family_ok("R1'"),
        "r3_ok": rep.family_ok("R3'") if w.g > 1 else True,
        "r4_ok": rep.family_ok("R4'"),
        "tr_ok": rep.family_ok("TR'"),
        "generates": rep.generates,
        "sigma_central": rep.sigma_central,
        "derived_identity_ok": rep.derived_identity_ok,
        "ok": rep.ok,
    }
    _emit(human, machine)
    return EXIT_OK if rep.ok else EXIT_NEGATIVE


def cmd_check_full(args) -> int:
    w = _load_witness(args)
    rep = braid.check_full_quotient(w.group, w.n, w.g, w.full_images())
    fams = rep.presentation.families()
    human = [
        f"full presentation for n={w.n} g={w.g}, braid generators := sigma",
        "relators: " + ("all pass" if rep.relators_ok
                        else "FAIL " + ",".join(rep.failures())),
        f"generates: {'yes' if rep.generates else 'no'}",
    ]
    machine = {"verb": "check-full", "n": w.n, "g": w.g, "order": w.group.order}
    for fam in fams:
        machine[f"{fam.lower().replace('-', '_')}_ok"] = rep.family_ok(fam)
    machine["generates"] = rep.generates
    machine["ok"] = rep.ok
    _emit(human, machine)
    return EXIT_OK if rep.ok else EXIT_NEGATIVE


def cmd_search_min(args) -> int:
    report = braid.minimal_braid_reduced_search(args.n, args.g, args.bound,
                                                args.budget)
    pred = report.predicted
    human = [
        f"minimal braid-reduced quotient search: n={args.n} g={args.g} "
        f"bound={args.bound}",
        f"predicted: p={pred.p} j={pred.j} order={pred.order}",
        f"candidates checked: {len(report.candidates)}",
    ]
    for cand in report.candidates:
        verdict = "witness found" if cand.witness else "no witness"
        human.append(f"  order {cand.order:>4}  {cand.label:<12} {verdict}")
    if report.minimum is None:
        human.append(f"no braid-reduced quotient of order <= {args.bound}")
    else:
        human.append(f"minimum order: {report.minimum}")
        human.append("attained: " + ", ".join(report.attained))
    human.append(f"provenance: {report.provenance}")

    if args.witness and report.minimum is not None:
        first = next(c for c in report.found() if c.order == report.minimum)
        with open(args.witness, "w", newline="") as fh:
            fh.write(braid.witness_to_text(first.witness, first.label))
        human.append(f"wrote minimal witness to {args.witness}")

    machine = {
        "verb": "search-min",
        "n": args.n,
        "g": args.g,
        "bound": args.bound,
        "predicted_p": pred.p,
        "predicted_j": pred.j,
        "predicted_order": pred.order,
        "candidates": len(report.candidates),
        "minimum": report.minimum if report.minimum is not None else "none",
        "attained": ",".join(report.attained),
    }
    _emit(human, machine)
    return EXIT_OK if report.minimum is not None else EXIT_NEGATIVE


def cmd_verify_paper(args) -> int:
    n_list = (args.n,) if args.n is not None else verify.DEFAULT_N
    g_list = (args.g,) if args.g is not None else verify.DEFAULT_G
    t0 = time.time()
    summary = verify.verify_paper(n_list, g_list, seed=args.seed,
                                  budget=args.budget, bound=args.bound)
    human = [f"paper verification: n in {tuple(n_list)}, g in {tuple(g_list)}, "
             f"seed {args.seed}"]
    machine: dict[str, object] = {"verb": "verify-paper"}
    for row in summary.rows:
        minimum = row.report.minimum
        mintext = str(minimum) if minimum is not None else f"> {row.bound}"
        att = ",".join(row.report.attained) if row.report.attained else "-"
        sn = math.factorial(row.n)
        human.append(
            f"(n={row.n},g={row.g}) braid-reduced minimum {mintext} "
            f"attained by {att}; S_{row.n} order {sn} (Kolay bound); "
            f"{row.smallest_text} [{'ok' if row.ok else 'FAIL'}]")
        machine[f"row_n{row.n}_g{row.g}"] = "pass" if row.ok else "fail"
    for chk in summary.global_checks:
        human.append(f"{chk.name}: {'ok' if chk.ok else 'FAIL'} ({chk.detail})")
        machine[chk.name.replace("-", "_")] = chk.ok
    human.append(f"RESULT: {'PASS' if summary.ok else 'FAIL'}")
    machine["result"] = "pass" if summary.ok else "fail"
    print(f"[verify-paper completed in {time.time() - t0:.1f}s]", file=sys.stderr)
    _emit(human, machine)
    return EXIT_OK if summary.ok else EXIT_NEGATIVE


def cmd_enumerate(args) -> int:
    exhaustive, catalog_max = oracle.EXHAUSTIVE_MAX_ORDER, oracle.CATALOG_MAX_ORDER
    human = [f"group enumeration up to order {min(args.bound, catalog_max)}"]
    machine: dict[str, object] = {"verb": "enumerate", "bound": args.bound}
    files = []
    total = 0
    for k in range(1, min(args.bound, exhaustive) + 1):
        groups = oracle.enumerate_groups_exhaustive(k)
        nonab = sum(1 for G in groups if not G.is_abelian)
        human.append(f"order {k}: {len(groups)} classes ({nonab} nonabelian) "
                     f"[exhaustive]")
        machine[f"classes_order_{k}"] = len(groups)
        for i, G in enumerate(groups):
            files.append((f"order{k}_{i}.grp", G, "exhaustive"))
        total += len(groups)
    if args.bound > exhaustive:
        catalog = oracle.nonabelian_catalog_upto()
        for k in range(exhaustive + 1, min(args.bound, catalog_max) + 1):
            tier = catalog.tier(k)
            if not tier:
                continue
            human.append(f"order {k}: {len(tier)} nonabelian classes "
                         f"[constructed catalog]")
            machine[f"nonabelian_order_{k}"] = len(tier)
            for i, entry in enumerate(tier):
                files.append((f"order{k}_{i}.grp", entry.group, entry.provenance))
                total += 1
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        index_lines = []
        for fname, G, tag in files:
            fingroup.write_cayley(G, os.path.join(args.out, fname))
            index_lines.append(f"{fname} {tag}")
        with open(os.path.join(args.out, "index.txt"), "w", newline="") as fh:
            fh.write("\n".join(index_lines) + "\n")
        human.append(f"wrote {len(files)} tables to {args.out}")
        machine["out"] = args.out
    machine["total"] = total
    _emit(human, machine)
    return EXIT_OK


_DISPATCH = {
    "construct": cmd_construct,
    "classify": cmd_classify,
    "check-witness": cmd_check_witness,
    "check-full": cmd_check_full,
    "search-min": cmd_search_min,
    "verify-paper": cmd_verify_paper,
    "enumerate": cmd_enumerate,
}


# built once per process: parse_args keeps no state between calls
_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _DISPATCH[args.verb](args)
    except (SizeLimit, SearchBudgetExceeded) as exc:
        explored = getattr(exc, "explored", None)
        work = f" (explored {explored} nodes)" if explored is not None else ""
        print(f"budget error: {exc}{work}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParamRange, HypothesisFailed, NotAGroup, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
