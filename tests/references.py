"""Scalar and closure-from-scratch references for the array kernels.

Each function here is an earlier, plainer form of a kernel in ``src/``,
kept so that tests can require the kernel to give the same answer:
- ``closure_by_squaring``: ``fingroup.closure_indices`` as the product
  closure, the set replaced by all its products until it stops growing,
  with no coset walk;
- ``span_walk_from_scratch``: ``fingroup.span_walk`` with the closure
  recomputed from every pick after each pick, by ``closure_by_squaring``;
- ``coset_walk_by_queue``: ``fingroup.span_walk`` with every pick's cosets
  found by the coset queue, the first pick's too, one singleton coset per
  power of it;
- ``find_witness_scalar``: ``oracle.find_witness_naive`` one tuple at a
  time, with one table lookup per Python call and generation tested by
  ``closure_by_squaring``;
- ``first_witness_unpruned``: ``braid.find_witness`` at any genus, without
  the count cut, the sigma gate or the Frattini skip, generation tested by
  ``closure_by_squaring``;
- ``closed_on_all_products``: ``fingroup.Subgroup``'s closure check on all
  |S|^2 products, without the generator law;
- ``jn2_params_by_derived_subgroup``: ``jn2._jn2_params`` with G' taken as
  ``fingroup.derived_subgroup``, a normal closure, and checked central;
- ``normalize_basis_by_rows``: ``jn2.normalize_basis``'s symplectic walk
  and central adjustment, one element at a time on lists of table rows,
  with no masks and no carried invariants;
- ``classify_per_rep``: ``jn2.classify`` with the center taken as a
  ``Subgroup``, the basis of ``normalize_basis_by_rows``, and the normal
  form evaluated with each representative's own powers;
- ``enumerate_tables_rules_1_to_3``: ``oracle._enumerate_tables`` without
  the breadth-first word-order rule and its prune, and
  ``follows_word_order``, that rule read off a complete table;
- ``first_assoc_violation``: ``fingroup.from_table``'s Light's test as a
  sweep over all n^3 triples;
- ``compose``: the composite of two ``fingroup.GroupMap``s;
- ``random_relabeling``: ``fingroup.relabel`` by a permutation that
  ``rng.shuffle`` draws, one Python call per element; the relabelled
  groups that tests pin are drawn this way;
- ``below_word_by_word`` and ``permutation_by_sorted_keys``: the draws of
  ``verify._below`` and ``verify._permutations``, one ``rng.getrandbits``
  call per 32-bit word or 64-bit key.

Two more build the standard JN2 groups of ``jn2.materialize`` from the
definition, by routes that share none of its code:
- ``Jn2Element``, ``jn2_identity``, ``jn2_multiply``, ``jn2_decode`` and
  ``jn2_encode``: scalar normal-form arithmetic, z^k prod_i
  a_i^alpha_i b_i^beta_i multiplied by the collection formula, and the
  base-p digits of an index;
- ``CentralProduct``, ``center_identification`` and ``central_product``:
  literal central products (G x H) / {(g, phi(g)^-1)}, raising
  ``CenterMismatch`` when phi is not an isomorphism of the full centers.
"""

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from braidquot import fingroup as fg
from braidquot import jn2, oracle
from braidquot.errors import GroupError, SearchBudgetExceeded


def closure_by_squaring(table, seeds):
    """Sorted indices of the closure of ``seeds`` and 0 under products: the
    set S is replaced by the distinct products S*S until it stops growing.
    Any table, associative or not."""
    cur = np.unique(np.concatenate([np.asarray(list(seeds), dtype=np.int64),
                                    np.zeros(1, dtype=np.int64)]))
    while True:
        nxt = np.unique(table[np.ix_(cur, cur)])
        if nxt.size == cur.size:
            return cur
        cur = nxt


def span_walk_from_scratch(table, candidates):
    """Yield each candidate, in order, that lies outside the closure of the
    candidates yielded so far; stop once that closure is the whole table.
    Each pick is yielded before its closure is taken."""
    inside = np.zeros(table.shape[0], dtype=bool)
    inside[0] = True
    picks = []
    for x in candidates:
        if inside.all():
            break
        if not inside[x]:
            picks.append(int(x))
            yield int(x)
            inside[closure_by_squaring(table, picks)] = True


def coset_walk_by_queue(table, candidates):
    """Yield each candidate, in order, outside the subgroup H marked so far,
    then extend H by it, stopping once H is whole.  After a pick x the
    queue starts at 0; for each queued r and each pick g, an unmarked
    y = g*r has its coset y*H marked and is queued."""
    inside = np.zeros(table.shape[0], dtype=bool)
    inside[0] = True
    H = np.zeros(1, dtype=np.intp)
    gens = []
    for x in candidates:
        if H.size == inside.size:
            break
        if inside[x]:
            continue
        yield int(x)
        gens.append(int(x))
        cosets, queue = [H], [0]
        while queue:
            r = queue.pop()
            for g in gens:
                y = table[g, r]
                if not inside[y]:
                    cosets.append(table[y].take(H).astype(np.intp))
                    inside[cosets[-1]] = True
                    queue.append(y)
        H = np.concatenate(cosets)


def find_witness_scalar(G, n, g):
    """Enumerate every (2g+1)-tuple and check the reduced relations and
    generation directly from the table.  Returns the first (sigma, a, b) in
    lexicographic order, or None."""
    N = G.order
    T = G.table
    tr_exp = 2 * (g + n - 1)

    def comm(x, y):
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
        if closure_by_squaring(T, tup).size == N:
            return (sigma, tuple(a), tuple(b))
    return None


def first_witness_unpruned(G, n, g):
    """Reference for genus >= 2, where the naive search is out of reach:
    backtracking over the reduced relations in lexicographic order with no
    symmetry breaking.  Each a_r, b_r ranges over the whole centralizer of
    the pairs before it, and a branch is cut only when that centralizer and
    the prefix together cannot generate G (closure, not Frattini rank)."""
    N, T = G.order, G.table
    comm = G.commutators_of(range(N), range(N))
    commutes = comm == 0
    tr_exp = 2 * (g + n - 1)

    def extend(sigma, s2, placed, mask):
        if len(placed) == 2 * g:
            whole = closure_by_squaring(T, [sigma, *placed]).size == N
            return placed if whole else None
        if closure_by_squaring(T, [sigma, *placed, *np.flatnonzero(mask)]).size < N:
            return None
        for a in np.flatnonzero(mask):
            for b in np.flatnonzero(mask & (comm[a] == s2)):
                found = extend(sigma, s2, placed + [int(a), int(b)],
                               mask & commutes[a] & commutes[b])
                if found is not None:
                    return found
        return None

    for sigma in map(int, np.flatnonzero(G.center_mask)):
        s2 = int(T[sigma, sigma])
        # sigma^2 = 1 leaves a commuting tuple, which spans only abelian groups
        if G.power(sigma, tr_exp) == 0 and (G.is_abelian or s2 != 0):
            found = extend(sigma, s2, [], np.ones(N, dtype=bool))
            if found is not None:
                return sigma, tuple(found[0::2]), tuple(found[1::2])
    return None


def closed_on_all_products(G, elements):
    """Whether every product x*y of x, y in ``elements`` lies in the set."""
    els = np.asarray(elements, dtype=np.intp)
    inside = np.zeros(G.order, dtype=bool)
    inside[els] = True
    return bool(inside[G.table[np.ix_(els, els)]].all())


def jn2_params_by_derived_subgroup(G):
    """(p, j, m, z, x^p for every x) as ``jn2._jn2_params`` gives them, or
    None: G' is ``fingroup.derived_subgroup``, of prime order p and inside
    the center, which is cyclic of order p^j with z its first generator,
    and every x^p is central."""
    D = fg.derived_subgroup(G)
    p = D.order
    if p < 2 or fg.least_prime_factor(p) != p:
        return None
    in_z = G.center_mask
    Z = np.flatnonzero(in_z)
    j = round(math.log(Z.size, p))
    if p ** j != Z.size or j < 1:
        return None
    zgens = [z for z in Z.tolist() if G.element_order(z) == Z.size]
    if not zgens or not in_z[D.indices].all():
        return None
    xp = fg.power_map(G.table, p)
    if not in_z[xp].all():
        return None
    e = round(math.log(G.order // Z.size, p))
    return (p, j, e // 2, zgens[0], xp)


def normalize_basis_by_rows(G, z):
    """(reps, basis type) of ``jn2.normalize_basis(jn2.symplectic_data(G,
    z))``, with each element tested one at a time on Python lists of table
    rows: no masks, and x^p, the logs to base z, the commutators, the
    center and the centralizer of the pairs recomputed where they are used.

    The same walk: each round takes a, the first noncentral element that
    commutes with every pick so far, and b, the first such element with
    [a, b] = c = z^(p^(j-1)).  If p^j != 2 and nu(x) = log_z(x^p) mod p is
    not zero, the first pair is (a, a*u), with a the first element with
    nu(a) = 1 and u the first element with [x, u] = c^nu(x) for every x.
    If p^j = 2, a and b are taken among the x with x^2 = 1 while one is
    left, and the last pair, when it has none, goes first.  Then each
    representative r becomes r*z^k for the first k with (r*z^k)^p = z or
    1 as the type prescribes."""
    rows = G.table.tolist()
    n = G.order
    inv = [row.index(0) for row in rows]

    def comm(x, y):
        return rows[rows[rows[x][y]][inv[x]]][inv[y]]

    def pth(x, p):
        acc = 0
        for _ in range(p):
            acc = rows[acc][x]
        return acc

    p, j, m = jn2.is_jn2(G)
    pj = p ** j
    zpow = [0]
    while rows[zpow[-1]][z] != 0:
        zpow.append(rows[zpow[-1]][z])
    log = {x: t for t, x in enumerate(zpow)}
    c = zpow[pj // p]
    central = [all(comm(x, y) == 0 for y in range(n)) for x in range(n)]
    nu = [log[pth(x, p)] % p for x in range(n)]
    pairs, basis_type = [], "I"
    if pj != 2 and any(nu):
        u = next(u for u in range(n)
                 if all(comm(x, u) == zpow[nu[x] * pj // p] for x in range(n)))
        a = nu.index(1)
        pairs.append((a, rows[a][u]))
        basis_type = "II"

    def free(x, singular):
        return (all(comm(x, r) == 0 for pair in pairs for r in pair)
                and (not singular or nu[x] == 0))

    singular = pj == 2
    while len(pairs) < m:
        plane = singular and not any(free(x, True) and not central[x] for x in range(n))
        if plane:
            singular, basis_type = False, "II"
        a = next(x for x in range(n) if free(x, singular) and not central[x])
        b = next(x for x in range(n) if free(x, singular) and comm(a, x) == c)
        pairs.insert(0 if plane else len(pairs), (a, b))
    targets = [1 if basis_type == "II" and t < 2 else 0 for t in range(2 * m)]
    reps = [next(rows[r][zk] for zk in zpow if pth(rows[r][zk], p) == zpow[t])
            for r, t in zip((r for pair in pairs for r in pair), targets)]
    return tuple(reps), basis_type


def classify_per_rep(G):
    """(spec, images of the isomorphism standard model -> G) as
    ``jn2.classify`` gives them, with the normal form z^k prod_i
    a_i^alpha_i b_i^beta_i evaluated one representative at a time."""
    Z = np.flatnonzero(G.center_mask)
    z = min(x for x in Z.tolist() if G.element_order(x) == Z.size)
    reps, basis_type = normalize_basis_by_rows(G, z)
    spec = jn2.Jn2Spec(*jn2.is_jn2(G), variant=basis_type)
    T = G.table
    k, alpha, beta = jn2_decode(spec, np.arange(spec.order, dtype=np.int64))
    images = fg.powers(T, z, spec.center_order)[k]
    for i in range(spec.m):
        a_pow = fg.powers(T, reps[2 * i], spec.p)
        b_pow = fg.powers(T, reps[2 * i + 1], spec.p)
        images = T[T[images, a_pow[alpha[i]]], b_pow[beta[i]]]
    return spec, images


def follows_word_order(rows):
    """Whether the labels of a complete table are its breadth-first word
    order: each segment start g_i is the smallest element the queue has
    not reached, and the queue, which holds every element reached so far
    in the order reached, takes each u in turn and then g_1, ..., g_i,
    appending each product u*g it has not reached.  The labels follow the order when the
    elements are reached as 0, 1, ..., k-1."""
    k = len(rows)
    reached = [0]
    starts = []
    while len(reached) < k:
        starts.append(min(set(range(k)) - set(reached)))
        queue = list(reached)
        for u in queue:
            for g in starts:
                w = rows[u][g]
                if w not in queue:
                    queue.append(w)
        reached = queue
    return reached == list(range(k))


def enumerate_tables_rules_1_to_3(k, budget=oracle._ENUM_BUDGET):
    """``oracle._enumerate_tables`` without its word-order rule (rule 4):
    every group table with identity 0 whose element 1 has maximal order d,
    whose powers of 1 are labeled 0..d-1, and whose initial label segments
    each generate an initial segment, in the same search order, with the
    same cycle-shape and coset-relation prunes and node budget."""
    if k == 1:
        return [[(0,)]]
    identity = tuple(range(k))
    full = (1 << k) - 1
    tables = []
    nodes = 0

    def bump():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"table enumeration exceeded {budget} nodes", explored=nodes)

    def propagate(rows, cols, x, d):
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
                    if not 0 < oracle._semiregular(comp) <= d:
                        return None
                    if any(m >> c & 1 for m, c in zip(cols, comp)):
                        return None
                    rows[w] = comp
                    cols = [m | 1 << c for m, c in zip(cols, comp)]
                    work.append(w)
        if max(rows) != len(rows) - 1:
            return None  # defined rows must fill an initial label segment
        return rows, cols

    def row_candidates(x, rows, cols, d):
        coset = {rows[h][x]: h for h in range(x)}  # h*x -> h, the coset Hx
        inverse = [rows[t].index(0) for t in range(x)]
        row = [-1] * k  # row[t] = x*t, known for t < pos
        pre = [-1] * k  # pre[v] = t where row[t] = v
        row[0], pre[x] = x, 0
        found = []

        def fill(pos, used, cycle, rel):
            # cycle: the common length of the closed cycles, 0 before one
            # closes; rel: the pairs (t, h) in H with x*t = h*x
            bump()
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

    def search(rows, cols, d):
        if len(rows) == k:
            tables.append([rows[i] for i in range(k)])
            return
        x = len(rows)  # smallest undefined index, by the segment rule
        for cand in row_candidates(x, rows, cols, d):
            bump()
            nxt = dict(rows)
            nxt[x] = cand
            closed = propagate(nxt, [m | 1 << c for m, c in zip(cols, cand)], x, d)
            if closed is not None:
                search(*closed, d)

    for row1 in oracle._row1_candidates(k):
        bump()
        d = row1.index(0) + 1  # the order of element 1
        cols = [1 << t | 1 << c for t, c in enumerate(row1)]
        closed = propagate({0: identity, 1: row1}, cols, 1, d)
        if closed is not None:
            search(*closed, d)
    return tables


def first_assoc_violation(table):
    """Lexicographically first (x, y, z) with (x*y)*z != x*(y*z), from all
    n^3 triples at once, or None when the table is associative.  Meant for
    small tables."""
    t = np.asarray(table)
    bad = t[t] != t[:, t]  # [x, y, z]: (x*y)*z versus x*(y*z)
    if not bad.any():
        return None
    x, y, z = np.argwhere(bad)[0]
    return (int(x), int(y), int(z))


def compose(f, then):
    """The map x -> then(f(x)), validated as a ``GroupMap``."""
    if then.source is not f.target:
        raise ValueError("maps are not composable")
    return fg.GroupMap(f.source, then.target, then.images[f.images])


def random_relabeling(G: fg.FiniteGroup, rng: random.Random) -> tuple[fg.FiniteGroup, fg.GroupMap]:
    rest = list(range(1, G.order))
    rng.shuffle(rest)
    return fg.relabel(G, [0] + rest)


def below_word_by_word(rng, bound, count):
    """``count`` draws uniform on 0..bound-1: 32-bit words w are drawn one
    at a time, and each w below the largest multiple of bound up to 2^32
    is kept as w mod bound."""
    limit = (1 << 32) - (1 << 32) % bound
    out = []
    while len(out) < count:
        w = rng.getrandbits(32)
        if w < limit:
            out.append(w % bound)
    return out


def permutation_by_sorted_keys(rng, order):
    """A permutation of 0..order-1 fixing 0: 1..order-1 sorted by one
    64-bit key each, drawn one at a time, ties in index order."""
    keys = [rng.getrandbits(64) for _ in range(order - 1)]
    return [0] + sorted(range(1, order), key=lambda i: keys[i - 1])


@dataclass(frozen=True)
class Jn2Element:
    """Normal form z^k * prod_i a_i^alpha_i b_i^beta_i of a standard group."""

    k: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]


def jn2_identity(spec):
    return Jn2Element(0, (0,) * spec.m, (0,) * spec.m)


def jn2_multiply(spec, x, y):
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


def jn2_decode(spec, idx):
    """(k, alpha, beta) of the normal form z^k * prod_i a_i^alpha_i b_i^beta_i
    stored at index idx: base-p digits k, alpha_1..alpha_m, beta_1..beta_m.
    ``idx`` may be an int or an integer array; the digits follow suit."""
    p, m = spec.p, spec.m
    digits = []
    for _ in range(2 * m):
        digits.append(idx % p)
        idx = idx // p
    return idx, tuple(reversed(digits[m:])), tuple(reversed(digits[:m]))


def jn2_encode(spec, el):
    """Index of a normal form in the materialized table (base-p digits)."""
    idx = el.k
    for a in el.alpha:
        idx = idx * spec.p + a
    for b in el.beta:
        idx = idx * spec.p + b
    return idx


class CenterMismatch(GroupError):
    """A center identification is not an isomorphism of the full centers."""


@dataclass(frozen=True)
class CentralProduct:
    group: fg.FiniteGroup
    embed_left: fg.GroupMap
    embed_right: fg.GroupMap
    projection: fg.GroupMap


def center_identification(G, H, zg=None, zh=None):
    """The isomorphism ZG -> ZH matching chosen cyclic generators zg -> zh."""
    ZG, ZH = np.flatnonzero(G.center_mask).tolist(), np.flatnonzero(H.center_mask).tolist()
    if len(ZG) != len(ZH):
        raise CenterMismatch(f"centers have orders {len(ZG)} != {len(ZH)}")
    if zg is None:
        zg = min(x for x in ZG if G.element_order(x) == len(ZG))
    if zh is None:
        zh = min(x for x in ZH if H.element_order(x) == len(ZH))
    if G.element_order(zg) != len(ZG) or not G.center_mask[zg]:
        raise CenterMismatch(f"{zg} does not generate the center of G")
    if H.element_order(zh) != len(ZH) or not H.center_mask[zh]:
        raise CenterMismatch(f"{zh} does not generate the center of H")
    phi = {}
    x, y = 0, 0
    for _ in range(len(ZG)):
        phi[x] = y
        x, y = G.mul(x, zg), H.mul(y, zh)
    return phi


def central_product(G, H, phi):
    """(G x H) / {(g, phi(g)^-1)} for an isomorphism phi of the full centers."""
    ZG, ZH = np.flatnonzero(G.center_mask).tolist(), np.flatnonzero(H.center_mask).tolist()
    # set equalities; sorted distinct indices also rule out negative ones
    if not np.array_equal(np.unique(list(phi)), ZG):
        raise CenterMismatch("phi is not defined exactly on the center of G")
    if not np.array_equal(np.unique(list(phi.values())), ZH):
        raise CenterMismatch("phi is not onto the center of H")
    for x in ZG:
        for y in ZG:
            if phi[G.mul(x, y)] != H.mul(phi[x], phi[y]):
                raise CenterMismatch(f"phi is not multiplicative at ({x},{y})")
    P = fg.direct_product(G, H)
    nelems = sorted(g * H.order + H.inv(phi[g]) for g in ZG)
    N = fg.Subgroup(P, tuple(nelems))
    Q, proj = fg.quotient(P, N)
    embed_left = fg.GroupMap(G, Q, proj.images[np.arange(G.order) * H.order])
    embed_right = fg.GroupMap(H, Q, proj.images[np.arange(H.order)])
    if (np.unique(embed_left.images).size != G.order
            or np.unique(embed_right.images).size != H.order):
        raise RuntimeError("central product embeddings must be injective")
    return CentralProduct(group=Q, embed_left=embed_left,
                          embed_right=embed_right, projection=proj)
