"""Aggregated verification suite: per-(n, g) minimal-quotient rows plus the
global classification, enumeration and property checks, as one runnable
report.  The checks here are the same ones pinned in the acceptance tests;
this module packages them for the command line."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import braid, fingroup, jn2, oracle
from .braid import (
    SearchReport,
    Witness,
    check_full_quotient,
    minimal_braid_reduced_search,
    predicted_minimum,
    standard_sigma_exponent,
    standard_witness,
)
from .errors import HypothesisFailed
from .fingroup import (
    FiniteGroup,
    derived_subgroup,
    is_isomorphic,
    nilpotency_class,
    relabel,
    symmetric,
)
from .jn2 import Jn2Spec, classify, enumerate_specs, is_jn2, materialize

DEFAULT_N = (5, 6)
DEFAULT_G = (1, 2)
ROW_BOUND_CAP = 128
SPEC_MAX_ORDER = 243  # the standard groups the global checks sweep


def default_bound(n: int, g: int) -> int:
    """Search bound for a verification row: large enough to attain the
    predicted minimum when that is desk-sized, capped otherwise."""
    pred = predicted_minimum(n, g)
    if pred.order <= ROW_BOUND_CAP:
        return max(64, pred.order)
    return ROW_BOUND_CAP


@dataclass(frozen=True)
class VerifyRow:
    n: int
    g: int
    bound: int
    report: SearchReport
    minimum_matches_prediction: bool
    attained_matches_prediction: bool
    witnesses_extend_to_full: bool
    standard_witnesses_ok: bool
    sn_quotient_ok: bool
    smallest_text: str

    @property
    def ok(self) -> bool:
        return (self.minimum_matches_prediction
                and self.attained_matches_prediction
                and self.witnesses_extend_to_full
                and self.standard_witnesses_ok
                and self.sn_quotient_ok)


@dataclass(frozen=True)
class GlobalCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class VerifySummary:
    rows: tuple[VerifyRow, ...]
    global_checks: tuple[GlobalCheck, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows) and all(c.ok for c in self.global_checks)


def sn_quotient_ok(n: int, g: int) -> bool:
    """The symmetric group is a quotient: braid generators to adjacent
    transpositions, surface generators to the identity."""
    S = symmetric(n)
    images = {f"s{i}": S.names[f"s{i}"] for i in range(1, n)}
    for r in range(1, g + 1):
        images[f"a{r}"] = 0
        images[f"b{r}"] = 0
    rep = check_full_quotient(S, n, g, images)
    return rep.ok


def standard_witness_specs(n: int, g: int) -> list[Jn2Spec]:
    """Spec descriptors of order <= 125 whose explicit witness recipe
    applies at (n, g)."""
    out = []
    for spec in enumerate_specs(125):
        try:
            standard_sigma_exponent(spec, n, g)
        except HypothesisFailed:
            continue
        out.append(spec)
    return out


def witness_dichotomies_ok(w: Witness) -> bool:
    """Order dichotomy (d = p odd, or d = 4 with p = 2) and derived subgroup
    generated by sigma^2, for witnesses of nonabelian groups."""
    G = w.group
    if G.is_abelian:
        return True
    d = G.element_order(w.sigma)
    s2 = G.mul(w.sigma, w.sigma)
    p = G.element_order(s2)
    if not ((p % 2 == 1 and d == p) or (p == 2 and d == 4)):
        return False
    return derived_subgroup(G).is_generated_by(s2)


def build_row(n: int, g: int, bound: Optional[int] = None,
              budget: Optional[int] = None) -> VerifyRow:
    pred = predicted_minimum(n, g)  # range-checks n and g
    # S_n is built first: n! within the table cap also keeps the full
    # presentations evaluated below small
    sn_ok = sn_quotient_ok(n, g)
    bound = bound if bound is not None else default_bound(n, g)
    report = minimal_braid_reduced_search(n, g, bound, budget)

    if pred.order <= bound:
        min_ok = report.minimum == pred.order
        expected = tuple(str(Jn2Spec(pred.p, pred.j, g, v)) for v in ("I", "II"))
        att_ok = report.attained == expected
    else:
        min_ok = report.minimum is None
        att_ok = report.attained == ()

    extend_ok = True
    dich_ok = True
    for cand in report.found():
        w = cand.witness
        full = check_full_quotient(w.group, n, g, w.full_images())
        extend_ok = extend_ok and full.ok
        dich_ok = dich_ok and witness_dichotomies_ok(w)

    std_ok = True
    for spec in standard_witness_specs(n, g):
        w = standard_witness(spec, n, g)
        std_ok = std_ok and check_full_quotient(w.group, n, g, w.full_images()).ok
        std_ok = std_ok and witness_dichotomies_ok(w)

    factorial = math.factorial(n)
    if report.minimum is not None and report.minimum < factorial:
        smallest = (f"smallest nonabelian quotient: order {report.minimum} "
                    f"({pred.p}-group)")
    elif pred.order <= bound:
        smallest = f"smallest nonabelian quotient: S_{n}"
    else:
        smallest = (f"smallest nonabelian quotient: S_{n} "
                    f"(braid-reduced minimum {pred.order} by formula, "
                    f"search consistent to bound {bound})")
    return VerifyRow(n=n, g=g, bound=bound, report=report,
                     minimum_matches_prediction=min_ok,
                     attained_matches_prediction=att_ok,
                     witnesses_extend_to_full=extend_ok and dich_ok,
                     standard_witnesses_ok=std_ok,
                     sn_quotient_ok=sn_ok,
                     smallest_text=smallest)


# ---------------------------------------------------------------------------
# global checks


def check_equivalence_with_definition() -> GlobalCheck:
    """is_jn2 agrees with the literal definition (nilpotency class 2 and
    every proper quotient abelian) on the exhaustive classes through order
    8, the nonabelian catalog and the standard JN2 groups of order <= 64."""
    groups = [G for k in range(1, oracle.EXHAUSTIVE_MAX_ORDER + 1)
              for G in oracle.enumerate_groups_exhaustive(k)]
    groups += oracle.nonabelian_catalog_upto()
    groups += [materialize(spec).group for spec in enumerate_specs(64)]
    bad = []
    for G in groups:
        direct = (nilpotency_class(G) == 2) and oracle.is_just_nonabelian(G)
        if (is_jn2(G) is not None) != direct:
            bad.append(G.label)
    return GlobalCheck("jn2-definition-equivalence",
                       ok=not bad,
                       detail=f"{len(groups)} groups <= 64; mismatches: {bad}")


def check_classify_roundtrips(seed: int = 0) -> GlobalCheck:
    """classify recovers the descriptor of every JN2 corpus group under ten
    random relabelings, with a verified isomorphism each time."""
    rng = random.Random(seed)
    bad = []
    runs = 0
    targets: list[tuple[str, FiniteGroup, Optional[Jn2Spec]]] = []
    for spec in enumerate_specs(SPEC_MAX_ORDER):
        targets.append((str(spec), materialize(spec).group, spec))
    for G in oracle.nonabelian_catalog_upto():
        if is_jn2(G) is not None:
            targets.append((G.label or "?", G, None))
    for label, G, spec in targets:
        for perm in _permutations(rng, G.order, 10):
            H, _ = relabel(G, perm)
            got, iso = classify(H)
            runs += 1
            if spec is not None and got != spec:
                bad.append(f"{label}->{got}")
            if not iso.is_bijective:
                bad.append(f"{label}: map not bijective")
    return GlobalCheck("classify-relabeling-roundtrip",
                       ok=not bad,
                       detail=f"{runs} classifications; failures: {bad}")


def check_variant_nonisomorphism() -> GlobalCheck:
    """I and II of the same class are never isomorphic; D8/Q8 have exactly
    2 and 6 elements of order 4."""
    bad = []
    classes = sorted({(s.p, s.j, s.m) for s in enumerate_specs(SPEC_MAX_ORDER)})
    for p, j, m in classes:
        a = materialize(Jn2Spec(p, j, m, "I")).group
        b = materialize(Jn2Spec(p, j, m, "II")).group
        if is_isomorphic(a, b) is not None:
            bad.append(f"I/II({p}^{j},{m})")
    d8 = fingroup.dihedral(8).order_profile.get(4, 0)
    q8 = fingroup.dicyclic(8).order_profile.get(4, 0)
    if (d8, q8) != (2, 6):
        bad.append(f"order-4 counts D8={d8} Q8={q8}")
    return GlobalCheck("variant-non-isomorphism",
                       ok=not bad,
                       detail=f"{len(classes)} classes; failures: {bad}")


def check_exhaustive_order8() -> GlobalCheck:
    groups = oracle.enumerate_groups_exhaustive(8)
    nonab = [G for G in groups if not G.is_abelian]
    ok = len(groups) == 5 and len(nonab) == 2
    hits = 0
    for variant in ("I", "II"):
        std = materialize(Jn2Spec(2, 1, 1, variant)).group
        if any(is_isomorphic(G, std) is not None for G in nonab):
            hits += 1
    ok = ok and hits == 2
    return GlobalCheck("exhaustive-order-8",
                       ok=ok,
                       detail=f"{len(groups)} classes, {len(nonab)} nonabelian")


def check_exponent_dichotomy() -> GlobalCheck:
    """Variant II always contains an element of order p^(j+1); variant I has
    exponent at most p^j whenever p^j != 2 (for central order 2 both
    variants contain order-4 elements and are told apart by counting them)."""
    bad = []
    for spec in enumerate_specs(SPEC_MAX_ORDER):
        G = materialize(spec).group
        pj = spec.p ** spec.j
        if spec.variant == "I":
            if pj != 2 and G.exponent > pj:
                bad.append(str(spec))
        else:
            if spec.p ** (spec.j + 1) not in G.order_profile:
                bad.append(str(spec))
    return GlobalCheck("exponent-dichotomy", ok=not bad,
                       detail=f"failures: {bad}")


def _below(rng: random.Random, bound: int, count: int) -> np.ndarray:
    """``count`` draws uniform on 0..bound-1, for 1 <= bound <= 2^32, from
    the 32-bit words of ``rng.randbytes``: a word w is kept as w mod bound
    when w < limit, the largest multiple of bound up to 2^32, so that every
    residue is hit by equally many words, and is rejected otherwise."""
    limit = (1 << 32) - (1 << 32) % bound
    kept = np.empty(0, dtype=np.intp)
    while kept.size < count:
        words = np.frombuffer(rng.randbytes(4 * (count - kept.size)),
                              dtype="<u4").astype(np.intp)
        kept = np.concatenate((kept, words[words < limit] % bound))
    return kept


def _permutations(rng: random.Random, order: int, count: int) -> np.ndarray:
    """``count`` random permutations of 0..order-1 that fix 0, as rows: the
    rest is 1..order-1 ordered by random 64-bit keys from ``rng.randbytes``
    (ties kept in index order, so each row is a bijection)."""
    keys = np.frombuffer(rng.randbytes(8 * count * (order - 1)), dtype="<u8")
    perms = np.zeros((count, order), dtype=np.intp)
    perms[:, 1:] = keys.reshape(count, order - 1).argsort(axis=1, kind="stable") + 1
    return perms


def _nu_violations(G: FiniteGroup, nu: np.ndarray, p: int,
                  xs: np.ndarray, ys: np.ndarray) -> int:
    """How many of the pairs (xs[i], ys[i]) have nu(xy) != nu(x) + nu(y)
    mod p."""
    return int(np.count_nonzero(nu[G.table[xs, ys]] != (nu[xs] + nu[ys]) % p))


def _pairing_violations(G: FiniteGroup, xs: np.ndarray, ys: np.ndarray,
                       cs: np.ndarray) -> int:
    """How many of the triples (xs[i], ys[i], cs[i]) have [x c, y] != [x, y]."""
    t, inv = G.table, G.inverse

    def comm(us, vs):
        return t[t[t[us, vs], inv[us]], inv[vs]]

    return int(np.count_nonzero(comm(t[xs, cs], ys) != comm(xs, ys)))


def check_nu_linearity(seed: int = 0) -> GlobalCheck:
    """nu(xy) = nu(x) + nu(y) on random pairs, for central orders 3, 9, 5."""
    rng = random.Random(seed)
    violations = 0
    checked = 0
    for (p, j) in ((3, 1), (3, 2), (5, 1)):
        for variant in ("I", "II"):
            std = materialize(Jn2Spec(p, j, 1, variant))
            G = std.group
            # nu of every element, computed once per group
            nu = jn2.log_table(G, std.z)[fingroup.power_map(G.table, p)] % p
            xs, ys = _below(rng, G.order, 1000), _below(rng, G.order, 1000)
            checked += xs.size
            violations += _nu_violations(G, nu, p, xs, ys)
    return GlobalCheck("nu-linearity", ok=violations == 0,
                       detail=f"{checked} pairs, {violations} violations")


def check_pairing_representative_independence(seed: int = 0) -> GlobalCheck:
    """[x c, y] = [x, y] for central c: the pairing only sees cosets."""
    rng = random.Random(seed)
    violations = 0
    checked = 0
    for (p, j) in ((3, 1), (3, 2), (5, 1), (2, 2)):
        for variant in ("I", "II"):
            std = materialize(Jn2Spec(p, j, 1, variant))
            G = std.group
            central = np.flatnonzero(G.center_mask)
            xs, ys = _below(rng, G.order, 1000), _below(rng, G.order, 1000)
            ks = _below(rng, central.size, 1000)
            checked += xs.size
            violations += _pairing_violations(G, xs, ys, central[ks])
    return GlobalCheck("pairing-representative-independence",
                       ok=violations == 0,
                       detail=f"{checked} perturbations, {violations} violations")


def check_symmetric_non_nilpotent() -> GlobalCheck:
    ms = (3, 4, 5, 6)
    bad = [m for m in ms if nilpotency_class(symmetric(m)) is not None]
    return GlobalCheck("symmetric-non-nilpotent", ok=not bad,
                       detail=f"m in {ms}; failures: {bad}")


def check_unconditional_below_16() -> GlobalCheck:
    """Every nonabelian group of order < 16 rejects (n, g) = (6, 1), by
    exhaustive tuple search, independently of any classification."""
    groups: list[FiniteGroup] = []
    for k in range(1, oracle.EXHAUSTIVE_MAX_ORDER + 1):
        groups.extend(G for G in oracle.enumerate_groups_exhaustive(k)
                      if not G.is_abelian)
    groups += [G for G in oracle.nonabelian_catalog_upto()
               if G.order > oracle.EXHAUSTIVE_MAX_ORDER]
    bad = []
    for G in groups:
        if braid.find_witness(G, 6, 1) is not None:
            bad.append(G.label)
        if G.order <= 14 and oracle.find_witness_naive(G, 6, 1) is not None:
            bad.append(f"{G.label} (naive)")
    return GlobalCheck("unconditional-minimality-below-16",
                       ok=not bad,
                       detail=f"{len(groups)} nonabelian groups < 16; hits: {bad}")


def global_checks(seed: int = 0) -> tuple[GlobalCheck, ...]:
    return (
        check_exhaustive_order8(),
        check_equivalence_with_definition(),
        check_classify_roundtrips(seed=seed),
        check_variant_nonisomorphism(),
        check_exponent_dichotomy(),
        check_nu_linearity(seed=seed),
        check_pairing_representative_independence(seed=seed),
        check_symmetric_non_nilpotent(),
        check_unconditional_below_16(),
    )


def verify_paper(n_list: Sequence[int] = DEFAULT_N,
                 g_list: Sequence[int] = DEFAULT_G,
                 *, seed: int = 0,
                 budget: Optional[int] = None,
                 bound: Optional[int] = None) -> VerifySummary:
    rows = tuple(build_row(n, g, bound=bound, budget=budget)
                 for n in n_list for g in g_list)
    return VerifySummary(rows=rows, global_checks=global_checks(seed=seed))
