"""Independent brute-force cross-checks and reference constructions.

Nothing here depends on the classification machinery: associativity is
swept over all n^3 triples, groups are enumerated directly from the axioms,
normal subgroups are the products of conjugacy-class closures, and the
just-nonabelian test builds the quotient by each minimal normal subgroup,
of which every proper quotient is itself a quotient.  The standard JN2
groups are rebuilt two more ways, by scalar normal-form arithmetic and
by central products taken from the definition.  These are the oracles
against which the constructive algorithms are validated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from .errors import CenterMismatch, SearchBudgetExceeded
from .fingroup import (
    FiniteGroup,
    GroupMap,
    Subgroup,
    alternating,
    center,
    closure_indices,
    dicyclic,
    dihedral,
    direct_product,
    from_table,
    is_isomorphic,
    quotient,
    subgroup_generated,
    symmetric,
)

if TYPE_CHECKING:
    from .jn2 import Jn2Spec

_ENUM_BUDGET = 3_000_000


def first_assoc_violation(table) -> Optional[tuple[int, int, int]]:
    """Lexicographically first (x, y, z) with (x*y)*z != x*(y*z), from all
    n^3 triples at once, or None when the table is associative.  The
    reference for ``from_table``'s Light's test; meant for small tables."""
    t = np.asarray(table)
    bad = t[t] != t[:, t]  # [x, y, z]: (x*y)*z versus x*(y*z)
    if not bad.any():
        return None
    x, y, z = np.argwhere(bad)[0]
    return (int(x), int(y), int(z))


def _semiregular(perm: tuple[int, ...]) -> int:
    """The common length of the cycles of ``perm``, or 0 when they differ.
    The row of x in a group table is semiregular with cycles of length
    ord(x), the cosets <x>y."""
    n = len(perm)
    seen = [False] * n
    length = 0
    for s in range(n):
        if seen[s]:
            continue
        t, c = s, 0
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            c += 1
        if not length:
            length = c
        elif c != length:
            return 0
    return length


def _row1_candidates(k: int) -> list[tuple[int, ...]]:
    """Rows for element 1 with the powers of 1 labeled 0, 1, ..., d-1."""
    out = []
    for d in range(2, k + 1):
        if k % d:
            continue
        prefix = list(range(1, d)) + [0]  # cycle (0 1 2 ... d-1)
        rest = list(range(d, k))

        def build(remaining: list[int], perm: dict[int, int]):
            if not remaining:
                row = prefix + [perm[y] for y in range(d, k)]
                out.append(tuple(row))
                return
            start = remaining[0]
            pool = remaining[1:]
            for body in itertools.permutations(pool, d - 1):
                cyc = [start, *body]
                for i in range(d):
                    perm[cyc[i]] = cyc[(i + 1) % d]
                build([y for y in pool if y not in body], perm)

        build(rest, {})
    return out


def _enumerate_tables(k: int, budget: int = _ENUM_BUDGET) -> list[list[tuple[int, ...]]]:
    """All group tables with identity 0 under three canonical labeling rules:

    1. element 1 has the largest element order d in the table;
    2. the powers of element 1 are labeled 0, 1, ..., d-1;
    3. the subgroup generated by each initial label segment occupies an
       initial label segment.

    Every isomorphism class admits such a labeling, so none is missed: pick
    an element of maximal order (every finite group has one), label its
    powers 0..d-1, then repeatedly give the next free label to any element
    outside the subgroup labeled so far and the following labels to the
    rest of the subgroup it generates with them.  Rule 1 is enforced during
    the search: a row, whether filled or forced by closure, whose element
    has order above d is rejected, as is a partial row whose chain
    x, x^2, ... already runs past x^d without reaching 0."""
    if k == 1:
        return [[(0,)]]
    identity = tuple(range(k))
    tables: list[list[tuple[int, ...]]] = []
    nodes = 0

    def bump():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"table enumeration exceeded {budget} nodes", explored=nodes)

    def propagate(rows: dict[int, tuple[int, ...]], d: int
                  ) -> Optional[dict[int, tuple[int, ...]]]:
        rows = dict(rows)
        changed = True
        while changed:
            changed = False
            defined = sorted(rows)
            for u in defined:
                ru = rows[u]
                for v in defined:
                    w = ru[v]
                    rv = rows[v]
                    comp = tuple(ru[rv[t]] for t in range(k))
                    if w in rows:
                        if rows[w] != comp:
                            return None
                    else:
                        if not 0 < _semiregular(comp) <= d:
                            return None
                        for r, rr in rows.items():
                            if any(rr[t] == comp[t] for t in range(k)):
                                return None
                        rows[w] = comp
                        changed = True
        defined = sorted(rows)
        if defined != list(range(len(defined))):
            return None  # defined rows must fill an initial label segment
        return rows

    def row_candidates(x: int, rows: dict[int, tuple[int, ...]], d: int
                       ) -> list[tuple[int, ...]]:
        # x*t must avoid the column H*t of the defined rows H = {0..x-1}
        cols = [set(rows[r][t] for r in rows) for t in range(k)]
        found: list[tuple[int, ...]] = []

        def fill(pos: int, row: list[int], used: set[int]):
            bump()
            # row[t] = x*t for t < pos; walk x^m = x*x^(m-1) while known
            y, m = x, 1
            while y and m < d and y < pos:
                y, m = row[y], m + 1
            if y and m == d:
                return  # x^1, ..., x^d are all nontrivial: ord(x) > d
            if pos == k:
                if 0 < _semiregular(tuple(row)) <= d:
                    found.append(tuple(row))
                return
            for v in range(k):
                if v in used or v in cols[pos]:
                    continue
                row.append(v)
                used.add(v)
                fill(pos + 1, row, used)
                row.pop()
                used.remove(v)

        fill(1, [x], {x})
        return found

    def search(rows: dict[int, tuple[int, ...]], d: int):
        if len(rows) == k:
            tables.append([rows[i] for i in range(k)])
            return
        x = len(rows)  # smallest undefined index, by the segment rule
        for cand in row_candidates(x, rows, d):
            bump()
            nxt = dict(rows)
            nxt[x] = cand
            closed = propagate(nxt, d)
            if closed is not None:
                search(closed, d)

    for row1 in _row1_candidates(k):
        bump()
        d = row1.index(0) + 1  # the order of element 1
        closed = propagate({0: identity, 1: row1}, d)
        if closed is not None:
            search(closed, d)
    return tables


@lru_cache(maxsize=None)
def enumerate_groups_exhaustive(k: int, budget: int = _ENUM_BUDGET) -> tuple[FiniteGroup, ...]:
    """Every isomorphism class of order k, by backtracking over Cayley
    tables with identity 0 under the canonical labeling rules of
    ``_enumerate_tables``: element 1 has maximal order d, its powers are
    labeled 0..d-1, and each initial label segment generates an initial
    segment.  Every class keeps such a labeling, because every finite group
    has an element of maximal order.  A table is kept as a representative
    when the isomorphism test matches it with none kept before."""
    if k < 1:
        raise ValueError("k must be positive")
    reps: list[FiniteGroup] = []
    for idx, rows in enumerate(_enumerate_tables(k, budget)):
        G = from_table(k, rows, label=f"order{k}#{idx}")
        if all(is_isomorphic(G, R) is None for R in reps):
            reps.append(G)
    return tuple(reps)


@dataclass(frozen=True)
class CatalogEntry:
    order: int
    group: FiniteGroup
    provenance: str  # "exhaustive" or "constructed"


@dataclass(frozen=True)
class GroupCatalog:
    entries: tuple[CatalogEntry, ...]

    def tier(self, order: int) -> tuple[CatalogEntry, ...]:
        return tuple(e for e in self.entries if e.order == order)


@lru_cache(maxsize=None)
def nonabelian_catalog_upto() -> GroupCatalog:
    """Complete catalog of nonabelian groups through order 15.

    Orders up to 8 are machine-verified complete against the exhaustive
    enumeration; orders 9 to 15 follow the classical classification
    (documented, not re-derived).
    """
    groups = [
        (6, symmetric(3), "exhaustive"),
        (8, dihedral(8), "exhaustive"),
        (8, dicyclic(8), "exhaustive"),
        (10, dihedral(10), "constructed"),
        (12, dihedral(12), "constructed"),
        (12, alternating(4), "constructed"),
        (12, dicyclic(12), "constructed"),
        (14, dihedral(14), "constructed"),
    ]
    entries = tuple(CatalogEntry(order=o, group=G, provenance=tag)
                    for o, G, tag in groups)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            assert is_isomorphic(entries[i].group, entries[j].group) is None, \
                "catalog entries must be pairwise non-isomorphic"
    # machine-verify completeness of the tiers covered by the enumeration
    for k in (6, 8):
        nonab = [G for G in enumerate_groups_exhaustive(k) if not G.is_abelian]
        tier = [e.group for e in entries if e.order == k]
        assert len(nonab) == len(tier)
        for G in nonab:
            assert any(is_isomorphic(G, H) is not None for H in tier)
    return GroupCatalog(entries=entries)


def _class_closures(G: FiniteGroup) -> list[Subgroup]:
    """The distinct normal closures of single conjugacy classes (the
    "atoms"), the trivial subgroup among them.  Every normal subgroup is
    the join of the atoms of its own classes."""
    if G.order > 256:
        raise SearchBudgetExceeded(f"order {G.order} beyond the 256 budget")
    atoms = {}
    for cls in G.conjugacy_classes:
        sub = subgroup_generated(G, cls)
        atoms.setdefault(sub.elements, sub)
    return list(atoms.values())


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups, sorted by (order, elements): every join of
    atoms.  The join of a normal N and an atom A is the product set NA,
    which is a normal subgroup because both factors are normal, so no
    closure is taken."""
    atoms = _class_closures(G)
    normals = {s.elements: s for s in atoms}
    work = list(atoms)
    while work:
        cur = work.pop()
        for atom in atoms:
            if cur.mask[list(atom.elements)].all():
                continue
            prod = np.unique(G.table[np.ix_(cur.elements, atom.elements)])
            key = tuple(int(x) for x in prod)
            if key not in normals:
                normals[key] = Subgroup(G, key)
                work.append(normals[key])
    return sorted(normals.values(), key=lambda s: (s.order, s.elements))


def is_just_nonabelian(G: FiniteGroup) -> bool:
    """Nonabelian with every proper quotient abelian, checked by building
    the quotient G/M for each minimal normal subgroup M.

    That covers every proper quotient.  Every nontrivial normal N contains
    a minimal normal M, and G/N is a quotient of G/M, and a quotient of an
    abelian group is abelian.  The minimal normal subgroups are exactly the
    minimal nontrivial atoms: a minimal normal M is the normal closure of
    any of its nontrivial classes, so it is an atom, and an atom that
    contains no smaller nontrivial atom contains no smaller nontrivial
    normal subgroup either, since that would contain a minimal normal one."""
    if G.is_abelian:
        return False
    atoms = [A for A in _class_closures(G) if A.order > 1]
    for M in atoms:
        if any(B.order < M.order and M.mask[list(B.elements)].all()
               for B in atoms):
            continue  # not minimal
        Q, _ = quotient(G, M)
        if not Q.is_abelian:
            return False
    return True


def find_witness_naive(G: FiniteGroup, n: int, g: int
                       ) -> Optional[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Reference witness search: enumerate every (2g+1)-tuple and check the
    reduced relations and generation directly from the table.  Returns the
    first (sigma, a, b) in lexicographic order, or None."""
    N = G.order
    T = G.table
    tr_exp = 2 * (g + n - 1)

    def comm(x: int, y: int) -> int:
        return int(T[T[T[x, y], G.inverse[x]], G.inverse[y]])

    for tup in itertools.product(range(N), repeat=2 * g + 1):
        sigma = tup[0]
        a = tup[1::2]
        b = tup[2::2]
        if G.power(sigma, tr_exp) != 0:
            continue
        s2 = int(T[sigma, sigma])
        ok = all(comm(a[r], sigma) == 0 and comm(b[r], sigma) == 0
                 for r in range(g))
        if not ok:
            continue
        if any(comm(a[r], b[r]) != s2 for r in range(g)):
            continue
        ok = True
        for s in range(g):
            for r in range(s + 1, g):
                if (comm(a[s], a[r]) or comm(b[s], b[r])
                        or comm(b[s], a[r]) or comm(a[s], b[r])):
                    ok = False
        if not ok:
            continue
        if closure_indices(T, tup).size == N:
            return (sigma, tuple(a), tuple(b))
    return None


# ---------------------------------------------------------------------------
# reference constructions of the standard JN2 groups


@dataclass(frozen=True)
class Jn2Element:
    """Normal form z^k * prod_i a_i^alpha_i b_i^beta_i of a standard group."""

    k: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]


def jn2_identity(spec: Jn2Spec) -> Jn2Element:
    return Jn2Element(0, (0,) * spec.m, (0,) * spec.m)


def jn2_multiply(spec: Jn2Spec, x: Jn2Element, y: Jn2Element) -> Jn2Element:
    """Collection formula for products of normal forms.

    Moving the left factor's b-powers past the right factor's a-powers costs
    z^(p^(j-1)) per swap ([a_i, b_i] = z^(p^(j-1)), distinct pairs commute);
    for variant II the first pair additionally carries a^p = b^p = z.
    """
    p, j = spec.p, spec.j
    pj = p ** j
    k = x.k + y.k - p ** (j - 1) * sum(bx * ay for bx, ay in zip(x.beta, y.alpha))
    alpha = []
    beta = []
    for i in range(spec.m):
        sa = x.alpha[i] + y.alpha[i]
        sb = x.beta[i] + y.beta[i]
        if spec.variant == "II" and i == 0:
            k += sa // p + sb // p
        alpha.append(sa % p)
        beta.append(sb % p)
    return Jn2Element(k % pj, tuple(alpha), tuple(beta))


def _encode(spec: Jn2Spec, el: Jn2Element) -> int:
    """Index of a normal form in the materialized table (base-p digits)."""
    idx = el.k
    for a in el.alpha:
        idx = idx * spec.p + a
    for b in el.beta:
        idx = idx * spec.p + b
    return idx


@dataclass(frozen=True)
class CentralProduct:
    group: FiniteGroup
    embed_left: GroupMap
    embed_right: GroupMap
    projection: GroupMap


def center_identification(G: FiniteGroup, H: FiniteGroup,
                          zg: Optional[int] = None,
                          zh: Optional[int] = None) -> dict[int, int]:
    """The isomorphism ZG -> ZH matching chosen cyclic generators zg -> zh."""
    ZG, ZH = center(G), center(H)
    if ZG.order != ZH.order:
        raise CenterMismatch(f"centers have orders {ZG.order} != {ZH.order}")
    if zg is None:
        zg = min(x for x in ZG.elements if G.element_order(x) == ZG.order)
    if zh is None:
        zh = min(x for x in ZH.elements if H.element_order(x) == ZH.order)
    if G.element_order(zg) != ZG.order or not G.center_mask[zg]:
        raise CenterMismatch(f"{zg} does not generate the center of G")
    if H.element_order(zh) != ZH.order or not H.center_mask[zh]:
        raise CenterMismatch(f"{zh} does not generate the center of H")
    phi = {}
    x, y = 0, 0
    for _ in range(ZG.order):
        phi[x] = y
        x, y = G.mul(x, zg), H.mul(y, zh)
    return phi


def central_product(G: FiniteGroup, H: FiniteGroup,
                    phi: Mapping[int, int]) -> CentralProduct:
    """(G x H) / {(g, phi(g)^-1)} for an isomorphism phi of the full centers."""
    ZG, ZH = center(G), center(H)
    # set equalities; sorted distinct indices also rule out negative ones
    if not np.array_equal(np.unique(list(phi)), ZG.elements):
        raise CenterMismatch("phi is not defined exactly on the center of G")
    if not np.array_equal(np.unique(list(phi.values())), ZH.elements):
        raise CenterMismatch("phi is not onto the center of H")
    for x in ZG.elements:
        for y in ZG.elements:
            if phi[G.mul(x, y)] != H.mul(phi[x], phi[y]):
                raise CenterMismatch(f"phi is not multiplicative at ({x},{y})")
    P = direct_product(G, H)
    nelems = sorted(g * H.order + H.inv(phi[g]) for g in ZG.elements)
    N = Subgroup(P, tuple(nelems))
    Q, proj = quotient(P, N)
    embed_left = GroupMap(G, Q, proj.images[np.arange(G.order) * H.order])
    embed_right = GroupMap(H, Q, proj.images[np.arange(H.order)])
    assert np.unique(embed_left.images).size == G.order
    assert np.unique(embed_right.images).size == H.order
    return CentralProduct(group=Q, embed_left=embed_left,
                          embed_right=embed_right, projection=proj)
