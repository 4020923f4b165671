"""Independent brute-force cross-checks.

Nothing here depends on the classification machinery: groups are
enumerated directly from the axioms, normal subgroups are the products of
conjugacy-class closures, the just-nonabelian test builds the quotient by
each minimal normal subgroup, of which every proper quotient is itself a
quotient, and the naive witness search tries every tuple.  These are the
oracles against which the constructive algorithms are validated.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import Budget, SizeLimit
from .fingroup import (
    FiniteGroup,
    Subgroup,
    alternating,
    closure_indices,
    dicyclic,
    dihedral,
    from_table,
    is_isomorphic,
    power_map,
    quotient,
    subgroup_generated,
    symmetric,
)

_ENUM_BUDGET = 3_000_000

# Orders enumerated and checked complete from the group axioms, and the
# largest order the nonabelian catalog covers.
EXHAUSTIVE_MAX_ORDER = 8
CATALOG_MAX_ORDER = 15

# Tuples per block of ``find_witness_naive``; bounds its temporaries.
_NAIVE_BLOCK = 1 << 16


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


@lru_cache(maxsize=None)
def _enumerate_tables(k: int) -> list[list[tuple[int, ...]]]:
    """All group tables with identity 0 under four canonical labeling rules:

    1. element 1 has the largest element order d in the table;
    2. the powers of element 1 are labeled 0, 1, ..., d-1;
    3. the subgroup generated by each initial label segment occupies an
       initial label segment;
    4. the labels are the breadth-first word order along the segment
       starts g_1 = 1, g_2, ...: each g_i is the smallest label outside the
       subgroup K_(i-1) labeled so far (K_0 = {0}), and K_i = <K_(i-1), g_i>
       is labeled by a queue that starts from K_(i-1) in label order and
       takes each u in discovery order, then g = g_1, ..., g_i in turn,
       giving u*g the next label when it is new.

    Every isomorphism class admits such a labeling, so none is missed: pick
    an element of maximal order (every finite group has one) as g_1, then
    any element outside the subgroup reached so far as each next g_i, and
    label them by the queue of rule 4.  The powers of g_1 come first, in
    order (rule 2), and g_i gets the label |K_(i-1)|, the smallest outside
    K_(i-1).  Each K_i occupies an initial segment, and a segment
    {0..y-1} with |K_(i-1)| < y <= |K_i| holds K_(i-1) and g_i, so it
    generates K_i (rule 3).  The rules leave one table per automorphism
    orbit of such generating sequences.

    The search fills the row of the smallest undefined label x, t -> x*t,
    one cell at a time in label order, each cell avoiding the values of
    its column in the rows of H = {0..x-1}, then closes the defined rows
    under products (``propagate``), rejecting a product row that
    disagrees with a row already defined, meets one in a column, or is
    not semiregular with cycles of length at most d.  Two prunes in the
    cell filling drop only rows that these checks would reject, so the
    tables and their order do not depend on them:

    - Cycle shape.  The row of x is semiregular: its cycles, the cosets
      <x>y, all have length ord(x) <= d.  A cell is not given a value that
      closes a cycle longer than d or of another length than the cycles
      closed before, or that makes an open chain of more elements than
      that common length (than d before any cycle closes), since the
      chain lies in a cycle at least as long.
    - Coset relations.  When the cell x*t for t in H holds h*x for an h
      in H, every completion must have x*(t*s) = h*(x*s) for all s, so
      once x*s is known the cell t*s takes that one value.  A row with
      another value there is rejected by the closure, because the pairs
      (x, t) and (h, x) name the same element and give it different
      rows.

    Rule 4 is enforced each time ``search`` is entered, where the defined
    rows form a closed initial segment H = {0..x-1}, by two conditions
    (``word_order``): H's own labels follow rule 4, and, when x < k,
    column x of H's rows reads u*x = x + u for every u < x.  Both hold in
    every complete table that follows rule 4 and has these rows, so the
    prune drops only branches that no such table completes, and the
    tables are those of rules 1-3 that follow rule 4, in the same order.
    In such a table a closed initial segment H is some K_j: were
    |K_(j-1)| < x < |K_j|, H would hold K_(j-1) and g_j = |K_(j-1)|,
    hence all of the larger K_j.  The segment starts of K_j and its
    queue depend only on its own rows, so its labels follow rule 4 on
    their own.  The next start is g_(j+1) = x, and the queue's first pass
    over u = 0..x-1 meets u*g_1, ..., u*g_j in H and gives the new u*x,
    all distinct and outside H, the labels x, x+1, ..., in that order.
    For complete tables (x = k) the first condition is rule 4 itself.

    The result is cached per process and shared: callers must not mutate
    it."""
    if k == 1:
        return [[(0,)]]
    identity = tuple(range(k))
    full = (1 << k) - 1
    tables: list[list[tuple[int, ...]]] = []
    budget = Budget("table enumeration", _ENUM_BUDGET)

    def propagate(rows: dict[int, tuple[int, ...]], cols: list[int], x: int,
                  d: int) -> Optional[tuple[dict[int, tuple[int, ...]], list[int]]]:
        """Close ``rows`` under products, in place.  The rows are closed
        except row x, so only pairs with a row added since are composed.
        Bit c of ``cols[t]`` is set when a defined row has c in column t."""
        work = [x]
        while work:
            u = work.pop()
            ru = rows[u]
            for v in list(rows):
                rv = rows[v]
                for w, comp in ((ru[v], tuple(map(ru.__getitem__, rv))),
                                (rv[u], tuple(map(rv.__getitem__, ru)))):
                    if w in rows:
                        if rows[w] != comp:
                            return None
                        continue
                    if not 0 < _semiregular(comp) <= d:
                        return None
                    if any(m >> c & 1 for m, c in zip(cols, comp)):
                        return None
                    rows[w] = comp
                    cols = [m | 1 << c for m, c in zip(cols, comp)]
                    work.append(w)
        if max(rows) != len(rows) - 1:
            return None  # defined rows must fill an initial label segment
        return rows, cols

    def row_candidates(x: int, rows: dict[int, tuple[int, ...]],
                       cols: list[int], d: int) -> list[tuple[int, ...]]:
        coset = {rows[h][x]: h for h in range(x)}  # h*x -> h, the coset Hx
        inverse = [rows[t].index(0) for t in range(x)]
        row = [-1] * k  # row[t] = x*t, known for t < pos
        pre = [-1] * k  # pre[v] = t where row[t] = v
        row[0], pre[x] = x, 0
        found: list[tuple[int, ...]] = []

        def fill(pos: int, used: int, cycle: int, rel: list[tuple[int, int]]):
            # cycle: the common length of the closed cycles, 0 before one
            # closes; rel: the pairs (t, h) in H with x*t = h*x
            budget.spend()
            if pos == k:
                found.append(tuple(row))
                return
            free = full & ~(used | cols[pos])
            for t, h in rel:
                s = rows[inverse[t]][pos]  # t*s = pos
                if s < pos:
                    free &= 1 << rows[h][row[s]]  # x*(t*s) = h*(x*s)
                    break
            back, t = 1, pos  # elements on the chain that ends at pos
            while pre[t] >= 0:
                t, back = pre[t], back + 1
            while free:
                low = free & -free
                free ^= low
                v = low.bit_length() - 1
                t, n = v, 1  # elements on the chain that starts at v
                while t < pos:
                    t, n = row[t], n + 1
                closes = t == pos  # x*pos = v closes a cycle, else joins chains
                length = n if closes else back + n
                if length > (cycle or d) or closes and cycle and length != cycle:
                    continue
                row[pos], pre[v] = v, pos
                fill(pos + 1, used | low, length if closes else cycle,
                     rel + [(pos, coset[v])] if pos < x and v in coset else rel)
                pre[v] = -1

        fill(1, 1 << x, 0, [])
        return found

    def word_order(rows: dict[int, tuple[int, ...]], x: int) -> bool:
        """Rule 4 on the closed initial segment H = {0..x-1}, and u*x =
        x + u for u < x when x < k.  Each label is checked as the queue
        hands it out, so the queue is 0, 1, 2, ... and a product is new
        exactly when it is not below the next label."""
        starts: list[int] = []
        size = 1  # |K_(i-1)|
        while size < x:
            starts.append(size)  # g_i: the smallest label outside K_(i-1)
            nxt, u = size, 0
            while u < nxt:
                ru = rows[u]
                for g in starts:
                    w = ru[g]
                    if w >= nxt:
                        if w != nxt:
                            return False
                        nxt += 1
                u += 1
            size = nxt
        return x == k or all(rows[u][x] == x + u for u in range(x))

    def search(rows: dict[int, tuple[int, ...]], cols: list[int], d: int):
        x = len(rows)  # smallest undefined index, by the segment rule
        if not word_order(rows, x):
            return
        if x == k:
            tables.append([rows[i] for i in range(k)])
            return
        for cand in row_candidates(x, rows, cols, d):
            budget.spend()
            nxt = dict(rows)
            nxt[x] = cand
            closed = propagate(nxt, [m | 1 << c for m, c in zip(cols, cand)], x, d)
            if closed is not None:
                search(*closed, d)

    for row1 in _row1_candidates(k):
        budget.spend()
        d = row1.index(0) + 1  # the order of element 1
        cols = [1 << t | 1 << c for t, c in enumerate(row1)]
        closed = propagate({0: identity, 1: row1}, cols, 1, d)
        if closed is not None:
            search(*closed, d)
    return tables


@lru_cache(maxsize=None)
def enumerate_groups_exhaustive(k: int) -> tuple[FiniteGroup, ...]:
    """Every isomorphism class of order k, by backtracking over Cayley
    tables with identity 0 under the canonical labeling rules of
    ``_enumerate_tables``: element 1 has maximal order d, its powers are
    labeled 0..d-1, each initial label segment generates an initial
    segment, and the labels are the breadth-first word order along the
    segment starts.  Every class keeps such a labeling, because every
    finite group has an element of maximal order.  A table is kept as a
    representative when the isomorphism test matches it with none kept
    before.  The rules leave few tables per class: 2 tables for the 2
    classes of order 6, 6 for the 5 of order 8 (2 of them nonabelian, one
    D8 and one Q8), 2 each for the 2 of orders 9 and 10, and 9 for the 5
    of order 12."""
    if k < 1:
        raise ValueError("k must be positive")
    reps: list[FiniteGroup] = []
    for idx, rows in enumerate(_enumerate_tables(k)):
        G = from_table(k, rows, label=f"order{k}#{idx}")
        if all(is_isomorphic(G, R) is None for R in reps):
            reps.append(G)
    return tuple(reps)


def _check_tier(k: int, tier: Sequence[FiniteGroup]) -> None:
    """Raise unless ``tier`` holds exactly one group of each nonabelian
    isomorphism class of order k, checked against every table of
    ``_enumerate_tables(k)``.

    Abelian tables are skipped on their raw rows.  Each nonabelian table
    is matched to the first tier group isomorphic to it, and it must have
    one; every tier group must be matched.  The tables cover every class
    of order k, so each nonabelian class has a group in the tier, and each
    tier group is a nonabelian group of order k.  Two isomorphic tier
    groups match the same tables, so the later one is never matched."""
    matched = [False] * len(tier)
    for rows in _enumerate_tables(k):
        if list(zip(*rows)) == rows:
            continue  # abelian: the table is symmetric
        G = from_table(k, rows)
        i = next((i for i, H in enumerate(tier) if is_isomorphic(G, H) is not None),
                 None)
        if i is None:
            raise RuntimeError(f"catalog misses a nonabelian group of order {k}")
        matched[i] = True
    if not all(matched):
        raise RuntimeError(f"catalog tier {k} holds a group that is no "
                           f"nonabelian class of order {k}, or one twice")


@lru_cache(maxsize=None)
def nonabelian_catalog_upto() -> tuple[FiniteGroup, ...]:
    """Complete catalog of nonabelian groups through ``CATALOG_MAX_ORDER``,
    one group per class, by increasing order.

    Tiers (the groups of one order) through ``EXHAUSTIVE_MAX_ORDER``
    (orders 6 and 8) are machine-verified complete from the axioms in
    every process: each nonabelian table the enumeration gives is matched
    to a tier group, and every tier group must be matched
    (``_check_tier``), so the tier is exactly the set of nonabelian classes
    of its order.  Larger orders follow the classical classification
    (documented, not re-derived), and their tiers are checked pairwise
    non-isomorphic.
    """
    groups = (symmetric(3), dihedral(8), dicyclic(8), dihedral(10),
              dihedral(12), alternating(4), dicyclic(12), dihedral(14))
    # groups of different orders are never isomorphic, and _check_tier
    # rejects a tier that holds two isomorphic groups
    for i, G in enumerate(groups):
        for H in groups[i + 1:]:
            if (G.order == H.order > EXHAUSTIVE_MAX_ORDER
                    and is_isomorphic(G, H) is not None):
                raise RuntimeError("catalog entries must be pairwise non-isomorphic")
    for k in sorted({G.order for G in groups if G.order <= EXHAUSTIVE_MAX_ORDER}):
        _check_tier(k, [G for G in groups if G.order == k])
    return groups


def _class_closures(G: FiniteGroup) -> list[Subgroup]:
    """The distinct normal closures of single conjugacy classes (the
    "atoms"), the trivial subgroup among them.  Every normal subgroup is
    the join of the atoms of its own classes."""
    if G.order > 256:
        raise SizeLimit(f"order {G.order} beyond the 256 budget")
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
            if cur.mask[atom.indices].all():
                continue
            prod = np.unique(G.table[np.ix_(cur.indices, atom.indices)])
            key = tuple(prod.tolist())
            if key not in normals:
                normals[key] = Subgroup(G, prod)
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
        if any(B.order < M.order and M.mask[B.indices].all()
               for B in atoms):
            continue  # not minimal
        Q, _ = quotient(G, M)
        if not Q.is_abelian:
            return False
    return True


def find_witness_naive(G: FiniteGroup, n: int, g: int
                       ) -> Optional[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Reference witness search: enumerate every (2g+1)-tuple
    (sigma, a_1, b_1, ..., a_g, b_g) in lexicographic order and check the
    reduced relations and generation directly from the table, with no
    pruning.  Returns the first (sigma, a, b), or None.

    For each sigma with sigma^(2(g+n-1)) = 1, the (a_1, b_1, ...) tuples
    are taken in blocks of ``_NAIVE_BLOCK`` consecutive ones, and each
    commutator relation is tested on a whole block by gathers on the
    commutator matrix; the tuples that pass every relation are then tested
    for generation one by one, in order.  Meant for small groups: the
    matrix has |G|^2 entries and each sigma |G|^(2g) tuples."""
    N, T = G.order, G.table
    comm = G.commutators_of(range(N), range(N))    # comm[x, y] = [x, y]
    sigma_tr = power_map(T, 2 * (g + n - 1))
    total = N ** (2 * g)
    for sigma in range(N):
        if sigma_tr[sigma] != 0:
            continue
        s2 = T[sigma, sigma]
        for lo in range(0, total, _NAIVE_BLOCK):
            idx = np.arange(lo, min(lo + _NAIVE_BLOCK, total))
            # digit k, most significant first, is the k-th of a_1, b_1, ...
            digits = [idx // N ** (2 * g - 1 - k) % N for k in range(2 * g)]
            a, b = digits[0::2], digits[1::2]
            ok = np.ones(idx.size, dtype=bool)
            for r in range(g):
                ok &= (comm[a[r], sigma] == 0) & (comm[b[r], sigma] == 0)
                ok &= comm[a[r], b[r]] == s2
                for s in range(r):
                    ok &= ((comm[a[s], a[r]] == 0) & (comm[b[s], b[r]] == 0)
                           & (comm[b[s], a[r]] == 0) & (comm[a[s], b[r]] == 0))
            for i in np.flatnonzero(ok):
                tup = [sigma] + [int(d[i]) for d in digits]
                if closure_indices(T, tup).size == N:
                    return sigma, tuple(tup[1::2]), tuple(tup[2::2])
    return None
