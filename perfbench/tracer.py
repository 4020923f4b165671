"""Outside-in tracer: wraps public functions of each braidquot layer in
spans, without changing the program.

Every listed function is replaced on every ``braidquot`` module that binds
it, because ``braid``, ``jn2``, ``verify``, ``oracle`` and ``cli`` import
``closure_indices``, ``materialize``, ``classify`` and others by name.  A
wrapped ``lru_cache`` function keeps its cache and ``cache_info()``.  Spans
stay in memory as ``[name, start, end, parent, op, note]`` and are written
as JSONL once the timed part is over.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

from workloads import SEARCH_SWEEPS, search_label

VERIFY_CHECK_FUNCS = ("check_exhaustive_order8", "check_equivalence_with_definition",
                      "check_classify_roundtrips", "check_variant_nonisomorphism",
                      "check_exponent_dichotomy", "check_nu_linearity",
                      "check_pairing_representative_independence",
                      "check_symmetric_non_nilpotent", "check_unconditional_below_16")

# Layer -> traced public functions.
TRACED = {
    "fingroup": ("from_table", "relabel", "read_cayley", "closure_indices",
                 "quotient", "subgroup_generated", "is_isomorphic",
                 "derived_subgroup", "nilpotency_class"),
    "jn2": ("is_jn2", "classify", "materialize", "symplectic_data",
            "normalize_basis"),
    "braid": ("find_witness", "minimal_braid_reduced_search",
              "check_reduced_witness", "check_full_quotient"),
    "oracle": ("enumerate_groups_exhaustive", "nonabelian_catalog_upto",
               "normal_subgroups", "is_just_nonabelian", "find_witness_naive"),
    "verify": ("verify_paper", "build_row") + VERIFY_CHECK_FUNCS,
    "cli": ("main",),
}

SEARCH_LABELS = tuple(search_label(*sweep) for sweep in SEARCH_SWEEPS["full"])
VERIFY_ROWS = ("n5_g1", "n5_g2", "n6_g1", "n6_g2")
VERIFY_CHECKS = ("exhaustive-order-8", "jn2-definition-equivalence",
                 "classify-relabeling-roundtrip", "variant-non-isomorphism",
                 "exponent-dichotomy", "nu-linearity",
                 "pairing-representative-independence", "symmetric-non-nilpotent",
                 "unconditional-minimality-below-16")


def _found(args, kwargs, result):
    return result is not None


# name -> note(args, kwargs, result): a value kept on the span.
NOTES = {
    "fingroup.from_table": lambda a, k, r: a[0] if a else k["order"],
    "fingroup.is_isomorphic": _found,
    "jn2.is_jn2": _found,
    "braid.find_witness": _found,
    "verify.build_row": lambda a, k, r: f"n{r.n}_g{r.g}",
}
for _check in VERIFY_CHECK_FUNCS:
    NOTES[f"verify.{_check}"] = lambda a, k, r: r.name


def braidquot_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "braidquot" or name.startswith("braidquot."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self.originals: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Replace every listed function on every braidquot module binding it."""
        for layer, names in TRACED.items():
            home = importlib.import_module(f"braidquot.{layer}")
            for fname in names:
                fn = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                self.originals[f"{layer}.{fname}"] = fn
                for mod in braidquot_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapped)

    def unwrapped_reachable(self) -> list[str]:
        """Places in braidquot modules (globals, module-level containers and
        class dicts) that still hold an original, unwrapped function."""
        ids = {id(fn): name for name, fn in self.originals.items()}
        bad = []
        for mod in braidquot_modules():
            for attr, value in vars(mod).items():
                inner = [value]
                if isinstance(value, dict):
                    inner += list(value.values())
                elif isinstance(value, (list, tuple, set, frozenset)):
                    inner += list(value)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    inner += [getattr(v, "__func__", v) for v in vars(value).values()]
                bad += [f"{mod.__name__}.{attr}: {ids[id(v)]}"
                        for v in inner if id(v) in ids]
        return bad

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "note": note}) + "\n")


def layer_metrics(spans, wall_s: float, op_labels: list[str],
                  materialize_hits: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, keyed as in BENCHMARK.json."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    truthy = defaultdict(int)
    by_note = defaultdict(float)   # (name, note) -> inclusive seconds
    child = [0.0] * len(spans)
    # a child span is appended after its parent: walking backwards adds
    # every child's time to its parent before the parent is read
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent, op, note = spans[i]
        dur = end - start
        if parent >= 0:
            child[parent] += dur
        calls[name] += 1
        self_s[name] += dur - child[i]
        if note is True:
            truthy[name] += 1
        if name == "cli.main":
            note = op_labels[op]
        if isinstance(note, str):
            by_note[name, note] += dur
    in_search = [False] * len(spans)
    closure_in_search = 0
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        in_search[i] = name == "braid.find_witness" or (parent >= 0 and in_search[parent])
        closure_in_search += name == "fingroup.closure_indices" and in_search[i]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {
        "fingroup.from_table.order_sum": sum(note or 0 for name, _, _, _, _, note in spans
                                             if name == "fingroup.from_table"),
        "fingroup.relabel.calls": calls["fingroup.relabel"],
        "fingroup.read_cayley.calls": calls["fingroup.read_cayley"],
        "fingroup.read_cayley.self_s": self_s["fingroup.read_cayley"],
    }
    for name in ("fingroup.from_table", "fingroup.closure_indices",
                 "braid.find_witness", "braid.minimal_braid_reduced_search",
                 "oracle.normal_subgroups", "oracle.is_just_nonabelian",
                 "fingroup.quotient", "fingroup.subgroup_generated", "jn2.is_jn2",
                 "jn2.classify", "jn2.materialize", "jn2.symplectic_data",
                 "jn2.normalize_basis", "fingroup.is_isomorphic"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["braid.find_witness.found"] = truthy["braid.find_witness"]
    m["braid.find_witness.closure_calls"] = closure_in_search
    m["jn2.is_jn2.positive"] = truthy["jn2.is_jn2"]
    m["fingroup.is_isomorphic.found"] = truthy["fingroup.is_isomorphic"]
    m["jn2.materialize.cache_hits"] = materialize_hits
    for name in ("oracle.enumerate_groups_exhaustive", "oracle.nonabelian_catalog_upto",
                 "cli.main"):
        m[f"{name}.self_s"] = self_s[name]
    for row in VERIFY_ROWS:
        m[f"verify.row_{row}.s"] = by_note["verify.build_row", row]
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.s"] = sum(by_note[f"verify.{fn}", check]
                                     for fn in VERIFY_CHECK_FUNCS)
    for label in SEARCH_LABELS:
        m[f"cli.search_min.{label}.s"] = by_note["cli.main", label]
    m["braid.find_witness.found_frac"] = ratio(truthy["braid.find_witness"],
                                               calls["braid.find_witness"])
    m["fingroup.relabel.share"] = ratio(calls["fingroup.relabel"],
                                        calls["fingroup.from_table"])
    m["jn2.materialize.hit_frac"] = ratio(materialize_hits, calls["jn2.materialize"])
    m["trace.coverage"] = ratio(sum(self_s.values()), wall_s)
    m["trace.spans"] = len(spans)
    return m
