"""Surface braid group presentations and braid-reduced quotient search.

The full presentation (generators sigma_1..sigma_{n-1}, a_1..a_g, b_1..b_g)
carries the braid relations plus the mixed families R1-R4 and the single
surface relation TR.  Collapsing the braid generators to one central element
sigma yields the reduced families R1', R3', R4' and TR':

    R1'  [a_r, sigma] = [b_r, sigma] = 1
    R3'  [a_s, a_r] = [b_s, b_r] = [b_s, a_r] = [a_s, b_r] = 1   (s < r)
    R4'  [a_r, b_r] = sigma^2
    TR'  sigma^(2(g+n-1)) = 1

A witness is a tuple (sigma, a_1, b_1, ..., a_g, b_g) generating a finite
group and satisfying the reduced relations; its existence certifies the
group as a braid-reduced quotient.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import fingroup, jn2, oracle
from .errors import Budget, HypothesisFailed, ParamRange, SizeLimit
from .fingroup import FiniteGroup, closure_indices, derived_subgroup, subgroup_generated
from .jn2 import Jn2Spec, materialize, parse_spec

Word = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Relator:
    label: str
    word: Word

    @property
    def family(self) -> str:
        return self.label.split("[", 1)[0]


@dataclass(frozen=True)
class Presentation:
    n: int
    g: int
    generators: tuple[str, ...]
    relators: tuple[Relator, ...]

    def families(self) -> tuple[str, ...]:
        seen = []
        for rel in self.relators:
            if rel.family not in seen:
                seen.append(rel.family)
        return tuple(seen)


def _inv_word(w: Word) -> Word:
    return tuple((gen, -e) for gen, e in reversed(w))


def _comm(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1 as a word."""
    return x + y + _inv_word(x) + _inv_word(y)


def _gen(name: str, e: int = 1) -> Word:
    return ((name, e),)


# The full presentation has about n^2/2 relators, built and evaluated one by
# one: on a 2-core x86-64 VM, n = 300 takes 0.7 s in check-full and n = 1,200
# took 12 s and 533 MB.
FULL_PRESENTATION_MAX_N = 300


def bellingeri_presentation(n: int, g: int) -> Presentation:
    """The full presentation of the genus-g surface braid group on n strands.
    Refuses n above FULL_PRESENTATION_MAX_N before building anything."""
    if n < 2 or g < 1:
        raise ParamRange(f"need n >= 2 and g >= 1, got n={n}, g={g}")
    if n > FULL_PRESENTATION_MAX_N:
        raise SizeLimit(f"size limit: the full presentation has about n^2/2 "
                        f"relators; n={n} exceeds {FULL_PRESENTATION_MAX_N}")
    gens = tuple(f"s{i}" for i in range(1, n)) + \
        tuple(f"a{r}" for r in range(1, g + 1)) + \
        tuple(f"b{r}" for r in range(1, g + 1))
    rels: list[Relator] = []
    for i in range(1, n):
        for jj in range(i + 2, n):
            rels.append(Relator(f"braid-comm[{i},{jj}]",
                                _comm(_gen(f"s{i}"), _gen(f"s{jj}"))))
    for i in range(1, n - 1):
        lhs = _gen(f"s{i}") + _gen(f"s{i+1}") + _gen(f"s{i}")
        rhs = _gen(f"s{i+1}") + _gen(f"s{i}") + _gen(f"s{i+1}")
        rels.append(Relator(f"braid[{i}]", lhs + _inv_word(rhs)))
    for r in range(1, g + 1):
        for i in range(2, n):
            rels.append(Relator(f"R1[a{r},s{i}]",
                                _comm(_gen(f"a{r}"), _gen(f"s{i}"))))
            rels.append(Relator(f"R1[b{r},s{i}]",
                                _comm(_gen(f"b{r}"), _gen(f"s{i}"))))
    for r in range(1, g + 1):
        for x in ("a", "b"):
            inner = _gen("s1", -1) + _gen(f"{x}{r}") + _gen("s1", -1)
            rels.append(Relator(f"R2[{x}{r}]", _comm(_gen(f"{x}{r}"), inner)))
    for s in range(1, g + 1):
        for r in range(s + 1, g + 1):
            conj_a = _gen("s1") + _gen(f"a{r}") + _gen("s1", -1)
            conj_b = _gen("s1") + _gen(f"b{r}") + _gen("s1", -1)
            rels.append(Relator(f"R3[a{s},a{r}]", _comm(_gen(f"a{s}"), conj_a)))
            rels.append(Relator(f"R3[b{s},b{r}]", _comm(_gen(f"b{s}"), conj_b)))
            rels.append(Relator(f"R3[b{s},a{r}]", _comm(_gen(f"b{s}"), conj_a)))
            rels.append(Relator(f"R3[a{s},b{r}]", _comm(_gen(f"a{s}"), conj_b)))
    for r in range(1, g + 1):
        inner = _gen("s1", -1) + _gen(f"b{r}") + _gen("s1", -1)
        rels.append(Relator(f"R4[{r}]",
                            _comm(_gen(f"a{r}"), inner) + _gen("s1", -2)))
    lhs: Word = ()
    for r in range(1, g + 1):
        lhs = lhs + _comm(_gen(f"a{r}"), _gen(f"b{r}", -1))
    rhs = tuple((f"s{i}", 1) for i in range(1, n - 1)) + ((f"s{n-1}", 2),) + \
        tuple((f"s{i}", 1) for i in range(n - 2, 0, -1))
    rels.append(Relator("TR", lhs + _inv_word(rhs)))
    return Presentation(n=n, g=g, generators=gens, relators=tuple(rels))


def reduced_relations(n: int, g: int) -> Presentation:
    """Single braid generator sigma plus a_r, b_r with the reduced families."""
    if n < 3 or g < 1:
        raise ParamRange(f"need n >= 3 and g >= 1, got n={n}, g={g}")
    gens = ("s",) + tuple(f"a{r}" for r in range(1, g + 1)) + \
        tuple(f"b{r}" for r in range(1, g + 1))
    rels: list[Relator] = []
    for r in range(1, g + 1):
        rels.append(Relator(f"R1'[a{r}]", _comm(_gen(f"a{r}"), _gen("s"))))
        rels.append(Relator(f"R1'[b{r}]", _comm(_gen(f"b{r}"), _gen("s"))))
    for s in range(1, g + 1):
        for r in range(s + 1, g + 1):
            rels.append(Relator(f"R3'[a{s},a{r}]", _comm(_gen(f"a{s}"), _gen(f"a{r}"))))
            rels.append(Relator(f"R3'[b{s},b{r}]", _comm(_gen(f"b{s}"), _gen(f"b{r}"))))
            rels.append(Relator(f"R3'[b{s},a{r}]", _comm(_gen(f"b{s}"), _gen(f"a{r}"))))
            rels.append(Relator(f"R3'[a{s},b{r}]", _comm(_gen(f"a{s}"), _gen(f"b{r}"))))
    for r in range(1, g + 1):
        rels.append(Relator(f"R4'[{r}]",
                            _comm(_gen(f"a{r}"), _gen(f"b{r}")) + _gen("s", -2)))
    rels.append(Relator("TR'", (("s", 2 * (g + n - 1)),)))
    return Presentation(n=n, g=g, generators=gens, relators=tuple(rels))


def evaluate_word(G: FiniteGroup, images: Mapping[str, int], word: Word) -> int:
    acc = 0
    for gen, e in word:
        acc = G.mul(acc, G.power(images[gen], e))
    return acc


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class QuotientReport:
    """Relator-by-relator evaluation of a presentation in a finite group.

    ``sigma_central`` and ``derived_identity_ok`` are the two consequences
    checked for reduced witnesses only; they stay True otherwise.
    """

    presentation: Presentation
    relator_results: tuple[tuple[str, bool], ...]
    generates: bool
    sigma_central: bool = True
    derived_identity_ok: bool = True   # [a_r, b_r^-1] = sigma^-2 for all r

    @property
    def relators_ok(self) -> bool:
        return all(ok for _, ok in self.relator_results)

    @property
    def ok(self) -> bool:
        return (self.relators_ok and self.generates
                and self.sigma_central and self.derived_identity_ok)

    def family_ok(self, family: str) -> bool:
        results = [ok for label, ok in self.relator_results
                   if label.split("[", 1)[0] == family]
        return bool(results) and all(results)

    def failures(self) -> tuple[str, ...]:
        return tuple(label for label, ok in self.relator_results if not ok)


@dataclass(frozen=True)
class Witness:
    """Candidate braid-reduced generating tuple inside a finite group."""

    group: FiniteGroup
    n: int
    g: int
    sigma: int
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) != self.g or len(self.b) != self.g:
            raise ValueError("witness a/b lists must have g entries each")
        for x in (self.sigma, *self.a, *self.b):
            if not 0 <= x < self.group.order:
                raise ValueError(f"element index {x} outside the group "
                                 f"of order {self.group.order}")

    def images(self) -> dict[str, int]:
        img = {"s": self.sigma}
        for r in range(self.g):
            img[f"a{r + 1}"] = self.a[r]
            img[f"b{r + 1}"] = self.b[r]
        return img

    def full_images(self) -> dict[str, int]:
        """Extension sigma_i := sigma, for evaluating the full presentation."""
        img = {f"s{i}": self.sigma for i in range(1, self.n)}
        for r in range(self.g):
            img[f"a{r + 1}"] = self.a[r]
            img[f"b{r + 1}"] = self.b[r]
        return img


def _evaluate(G: FiniteGroup, pres: Presentation, images: Mapping[str, int],
              **consequences: bool) -> QuotientReport:
    """Evaluate every relator, then test whether the images generate G."""
    results = tuple((rel.label, evaluate_word(G, images, rel.word) == 0)
                    for rel in pres.relators)
    gen_set = subgroup_generated(G, [images[gen] for gen in pres.generators])
    return QuotientReport(presentation=pres, relator_results=results,
                          generates=gen_set.is_whole, **consequences)


def check_full_quotient(G: FiniteGroup, n: int, g: int,
                        images: Mapping[str, int]) -> QuotientReport:
    """Evaluate every relator of the full presentation; failures are data."""
    pres = bellingeri_presentation(n, g)
    missing = [gen for gen in pres.generators if gen not in images]
    if missing:
        raise ValueError(f"images missing for generators {missing}")
    return _evaluate(G, pres, images)


def check_reduced_witness(w: Witness) -> QuotientReport:
    """Verify the reduced relations, generation, and the two consequences
    (sigma central; [a_r, b_r^-1] = sigma^-2)."""
    G = w.group
    sig_inv2 = G.power(w.sigma, -2)
    derived_ok = all(G.commutator(w.a[r], G.inv(w.b[r])) == sig_inv2
                     for r in range(w.g))
    return _evaluate(G, reduced_relations(w.n, w.g), w.images(),
                     sigma_central=bool(G.center_mask[w.sigma]),
                     derived_identity_ok=derived_ok)


# ---------------------------------------------------------------------------
# witness search


def find_witness(G: FiniteGroup, n: int, g: int,
                 *, budget: Optional[Budget] = None) -> Optional[Witness]:
    """First witness in deterministic order (sigma, then pairs in increasing
    element index), or None after exhausting the search space.  Each node,
    one per a and one per b tried, is spent from ``budget`` (unlimited when
    None); none is when the count cut, the sigma gate or the Frattini skip
    settles the group before any pair is placed.

    A witness forces G' = <sigma^2>: G is generated by sigma and pairs whose
    only nontrivial commutators are the central sigma^2.  Three necessary
    conditions follow, each tested before any pair is placed.
    - The count cut: |G : Z| = |G'|^(2g).  With k = |G'|, G has class at
      most 2, so commutators are bilinear and x -> ([x, b_j], [a_j, x])_j,
      read in <sigma^2> = Z/k, is a homomorphism G -> (Z/k)^(2g).  It is
      onto, since a_i and b_i map to the 2g unit vectors, and its kernel is
      Z, since an x in it commutes with sigma and every pair, which generate
      G.  On JN2 groups of rank m it admits only m = g.
    - The sigma gate: sigma ranges over central elements with
      sigma^(2(g+n-1)) = 1 (forced by R1' together with generation) and
      <sigma^2> = G', tested as sigma^2 in G' with order |G'|; on abelian G
      it asks sigma^2 = 1.
    - The Frattini skip: for G of order p^k, by the Burnside basis theorem a
      generating set has at least d elements outside the Frattini subgroup
      Phi(G), d the rank of G/Phi(G), so a sigma is skipped when
      (sigma not in Phi) + 2g < d.

    Past them, a_{r+1} ranges over C, the centralizer of sigma and the r
    pairs placed, and b_{r+1} over the elements of C with
    [a_{r+1}, b_{r+1}] = sigma^2.  Generation is tested once per leaf, by
    the closure of sigma and the 2g placed elements.  No cut tests it
    inside the tree, since on the groups the sweep tries it cannot fire.
    On a JN2 group sigma^2 generates G', the placed pairs span a
    nondegenerate subspace W of V = G/Z under the commutator pairing, and
    C contains Z and maps onto W^perp; so the prefix and C always generate
    G.  The sweep's catalog groups up to order 15 are settled before a pair
    is placed: the count cut admits only D8 and Q8 at g = 1, and there the
    gate skips every sigma (|Z| = 2, so sigma^2 = 1).  Every test is a
    necessary condition, so the verdict and the first witness are those of
    the unpruned search.
    """
    if n < 3 or g < 1:
        raise ParamRange(f"need n >= 3 and g >= 1, got n={n}, g={g}")
    N = G.order
    T = G.table
    derived = derived_subgroup(G)
    budget = budget if budget is not None else Budget("witness search")
    if N // int(G.center_mask.sum()) != derived.order ** (2 * g):
        return None
    tr_exp = 2 * (g + n - 1)
    orders = G.element_orders
    frattini = G.frattini

    sigmas = [s for s in range(N)
              if G.center_mask[s] and tr_exp % int(orders[s]) == 0
              and derived.is_generated_by(int(T[s, s]))]

    everything = np.arange(N)

    def comm(x: int) -> np.ndarray:
        return G.commutators_of([x], everything)[0]    # the row [x, .]

    # ``recurse`` is ``place`` itself, passed in: a nested function that
    # names itself is a reference cycle through its closure, which would
    # keep G alive after the search until the cyclic collector runs
    def place(recurse, r: int, placed: list[int], mask: np.ndarray,
              sigma: int, s2: int) -> Optional[list[int]]:
        if r == g:
            whole = closure_indices(T, [sigma] + placed).size == N
            return placed if whole else None
        cent = np.flatnonzero(mask)    # C, the centralizer of the prefix
        for a in cent:
            budget.spend()
            ca = comm(a)
            inner = mask & (ca == 0)
            for b in cent[ca[cent] == s2]:
                budget.spend()
                res = recurse(recurse, r + 1, placed + [int(a), int(b)],
                              inner & (comm(b) == 0), sigma, s2)
                if res is not None:
                    return res
        return None

    for sigma in sigmas:
        if frattini is not None and (not frattini.in_phi[sigma]) + 2 * g < frattini.rank:
            continue
        found = place(place, 0, [], np.ones(N, dtype=bool), sigma, int(T[sigma, sigma]))
        if found is not None:
            return Witness(group=G, n=n, g=g, sigma=sigma,
                           a=tuple(found[0::2]), b=tuple(found[1::2]))
    return None


def standard_sigma_exponent(spec: Jn2Spec, n: int, g: int) -> int:
    """The t with sigma = z^t in the witness recipe for a standard group at
    (n, g); HypothesisFailed names the first hypothesis that fails."""
    p, j = spec.p, spec.j
    if spec.m != g:
        raise HypothesisFailed(f"rank m={spec.m} differs from g={g}")
    if (g + n - 1) % p != 0:
        raise HypothesisFailed(f"p={p} does not divide g+n-1={g + n - 1}")
    if spec.variant == "I":
        if p == 2 and j == 2:
            return 1
        if p != 2 and j == 1:
            return (p + 1) // 2
        raise HypothesisFailed(
            f"variant I needs p^j = 4 or j = 1 with p odd, got p^j = {p}^{j}")
    if p == 2:
        if j < 2:
            raise HypothesisFailed("variant II with p = 2 needs j >= 2")
        return 2 ** (j - 2)
    return (p ** j + p ** (j - 1)) // 2


def standard_witness(spec: Jn2Spec, n: int, g: int) -> Witness:
    """The explicit witness for a standard group: a_r, b_r the distinguished
    generators and sigma the central power prescribed by the variant."""
    t = standard_sigma_exponent(spec, n, g)
    std = materialize(spec)
    G = std.group
    w = Witness(group=G, n=n, g=g, sigma=G.power(std.z, t), a=std.a, b=std.b)
    report = check_reduced_witness(w)
    if not report.ok:
        raise RuntimeError(f"standard witness failed: {report.failures()}")
    return w


# ---------------------------------------------------------------------------
# minimal-quotient search


# g + n - 1 is factored by trial division, and p^(2g+j) is printed in full
# (g <= 100 keeps it under 1,000 digits; Python prints at most 4,300).
MAX_N = fingroup.TABLE_CAP
MAX_G = 100


@dataclass(frozen=True)
class PredictedMinimum:
    p: int
    j: int
    order: int


def predicted_minimum(n: int, g: int) -> PredictedMinimum:
    """Formula value p^(2g+j): p the least prime factor of g+n-1, j = 2 for
    p = 2 and j = 1 otherwise.  Range-checks n and g for every search."""
    if not (5 <= n <= MAX_N and 1 <= g <= MAX_G):
        raise ParamRange(f"need 5 <= n <= {MAX_N} and 1 <= g <= {MAX_G}, "
                         f"got n={n}, g={g}")
    p = fingroup.least_prime_factor(g + n - 1)
    j = 2 if p == 2 else 1
    return PredictedMinimum(p=p, j=j, order=p ** (2 * g + j))


@dataclass(frozen=True)
class CandidateVerdict:
    label: str
    order: int
    spec: Optional[Jn2Spec]    # None for a catalog group
    witness: Optional[Witness]
    explored: int              # nodes the witness search visited; 0 when the
                               # count cut, sigma gate or Frattini skip settled it


@dataclass(frozen=True)
class SearchReport:
    n: int
    g: int
    bound: int
    predicted: PredictedMinimum
    candidates: tuple[CandidateVerdict, ...]
    minimum: Optional[int]
    attained: tuple[str, ...]
    provenance: str

    def found(self) -> tuple[CandidateVerdict, ...]:
        return tuple(c for c in self.candidates if c.witness is not None)


_PROVENANCE = ("orders <= 15: unconditional (order <= 8 exhaustively enumerated, "
               "9..15 from the classical nonabelian catalog); orders >= 16: "
               "JN2 candidates only, complete for minimal braid-reduced "
               "quotients by the classification of JN2 groups")


def minimal_braid_reduced_search(n: int, g: int, bound: int,
                                 budget: Optional[int] = None) -> SearchReport:
    """Sweep all candidate groups of order <= bound and report the minimum
    order admitting a witness, together with the spec labels of every
    standard JN2 group attaining it.

    Candidates are all standard JN2 groups within the bound plus the
    oracle catalog of nonabelian groups through order 15, so minimality is
    unconditional below 16.  No catalog group has a witness (see
    ``find_witness``), so every attaining group is a standard one.
    """
    predicted = predicted_minimum(n, g)
    if bound > fingroup.TABLE_CAP:
        raise SizeLimit(f"bound {bound} exceeds table cap {fingroup.TABLE_CAP}")
    cands: list[tuple[int, int, str, Optional[Jn2Spec], FiniteGroup]] = []
    for G in oracle.nonabelian_catalog_upto():
        if G.order <= bound:
            cands.append((G.order, 0, G.label or "?", None, G))
    for spec in jn2.enumerate_specs(bound):
        std = materialize(spec)
        cands.append((spec.order, 1, str(spec), spec, std.group))
    cands.sort(key=lambda c: (c[0], c[1], c[2]))

    verdicts = []
    for order, _, label, spec, group in cands:
        nodes = Budget("witness search", budget)
        w = find_witness(group, n, g, budget=nodes)
        if w is not None:
            if not check_reduced_witness(w).ok:
                raise RuntimeError(f"witness for {label} failed re-verification")
        verdicts.append(CandidateVerdict(label=label, order=order, spec=spec,
                                         witness=w, explored=nodes.spent))

    hits = [v for v in verdicts if v.witness is not None]
    # every catalog group is nonabelian with |Z| <= 2, so a central sigma
    # has sigma^2 = 1, which generates G' only on abelian G
    if any(v.spec is None for v in hits):
        raise RuntimeError("a catalog group has a witness")
    minimum = min((v.order for v in hits), default=None)
    winners = sorted((v for v in hits if v.order == minimum),
                     key=lambda v: (v.spec.variant, v.spec.p, v.spec.j, v.spec.m))
    return SearchReport(n=n, g=g, bound=bound,
                        predicted=predicted,
                        candidates=tuple(verdicts), minimum=minimum,
                        attained=tuple(v.label for v in winners),
                        provenance=_PROVENANCE)


# ---------------------------------------------------------------------------
# witness files


def witness_to_text(w: Witness, group_ref: str) -> str:
    lines = [
        f"n {w.n}",
        f"g {w.g}",
        f"group {group_ref}",
        f"sigma {w.sigma}",
        "a " + " ".join(str(x) for x in w.a),
        "b " + " ".join(str(x) for x in w.b),
    ]
    return "\n".join(lines) + "\n"


_WITNESS_KEYS = ("n", "g", "group", "sigma", "a", "b")


def _ascii_int(key: str, token: str) -> int:
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(f"witness field {key!r} has {token!r}, not an ASCII integer")
    return int(token)


def witness_from_text(text: str, *, base_dir: str) -> Witness:
    """Parse the text form: each of the six keys exactly once, one per
    line; a repeated, unknown or empty key, or a number that is not ASCII
    ``[+-]?[0-9]+``, raises ValueError.  g outside 1..MAX_G raises
    ParamRange before the group is built, since both relator sets grow as
    g^2.  A ``group`` in spec syntax is built as a spec; any other is a
    ``.grp`` path relative to ``base_dir``."""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition(" ")
        if key not in _WITNESS_KEYS:
            raise ValueError(f"witness file has unknown field {key!r}")
        if key in fields:
            raise ValueError(f"witness file repeats field {key!r}")
        fields[key] = value.strip()
        if not fields[key]:
            raise ValueError(f"witness file has empty field {key!r}")
    for key in _WITNESS_KEYS:
        if key not in fields:
            raise ValueError(f"witness file missing field {key!r}")
    g = _ascii_int("g", fields["g"])
    if not 1 <= g <= MAX_G:
        raise ParamRange(f"witness file needs 1 <= g <= {MAX_G}, got g={g}")
    ref = fields["group"]
    if jn2._SPEC_RE.match(ref.replace(" ", "")):
        group = materialize(parse_spec(ref)).group
    else:
        group = fingroup.read_cayley(os.path.join(base_dir, ref))
    return Witness(group=group, n=_ascii_int("n", fields["n"]), g=g,
                   sigma=_ascii_int("sigma", fields["sigma"]),
                   a=tuple(_ascii_int("a", x) for x in fields["a"].split()),
                   b=tuple(_ascii_int("b", x) for x in fields["b"].split()))
