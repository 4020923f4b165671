"""Scalar and closure-from-scratch references for the array kernels.

Each function here is an earlier, plainer form of a kernel in ``src/``,
kept so that tests can require the kernel to give the same answer:
- ``span_walk_from_scratch``: ``fingroup.span_walk`` with the closure
  recomputed from the base and every pick after each pick;
- ``find_witness_scalar``: ``oracle.find_witness_naive`` one tuple at a
  time, with one table lookup per Python call;
- ``first_witness_unpruned``: ``braid.find_witness`` at any genus, without
  the count cut, the sigma gate or the Frattini skip;
- ``closed_on_all_products``: ``fingroup.Subgroup``'s closure check on all
  |S|^2 products, without the generator law;
- ``classify_per_rep``: ``jn2.classify`` with the center taken as a
  ``Subgroup``, each representative lifted by its own powers, and x^p, the
  log table and the powers of z recomputed where they are used.
"""

import itertools

import numpy as np

from braidquot import fingroup as fg
from braidquot import jn2


def span_walk_from_scratch(table, candidates, base=()):
    """Yield each candidate, in order, that lies outside the closure of
    ``base`` and the candidates yielded so far; stop once that closure is
    the whole table.  Each pick is yielded before its closure is taken."""
    inside = np.zeros(table.shape[0], dtype=bool)
    inside[fg.closure_indices(table, base)] = True
    picks = []
    for x in candidates:
        if inside.all():
            break
        if not inside[x]:
            picks.append(int(x))
            yield int(x)
            inside[fg.closure_indices(table, [*base, *picks])] = True


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
        if fg.closure_indices(T, tup).size == N:
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
            whole = fg.closure_indices(T, [sigma, *placed]).size == N
            return placed if whole else None
        if fg.closure_indices(T, [sigma, *placed, *np.flatnonzero(mask)]).size < N:
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


def normalize_basis_per_rep(data):
    """(reps, basis type) of ``jn2.normalize_basis(data)``: the same
    coordinates, lifted with one ``powers`` call per representative, and
    the central adjustment and postconditions recomputed from the table."""
    G, p, j, m = data.group, data.p, data.j, data.m
    T = G.table
    coords, basis_type = jn2._normalized_coords(data)
    new_reps = np.zeros(2 * m, dtype=np.int64)
    for t, r in enumerate(data.reps):
        new_reps = T[new_reps, fg.powers(T, r, p)[coords[:, t]]]
    xp = fg.power_map(T, p)
    log = jn2.log_table(G, data.z)
    zpow = fg.powers(T, data.z, p ** j)
    targets = np.zeros(2 * m, dtype=np.int64)
    if basis_type == "II":
        targets[:2] = 1
    delta = (targets - log[xp[new_reps]]) % p ** j
    assert not (delta % p).any()
    adjusted = T[new_reps, zpow[delta // p]]
    std = np.kron(np.eye(m, dtype=np.int64), [[0, 1], [p - 1, 0]])
    assert np.array_equal(jn2._gram(G, log, p, j, adjusted) % p, std)
    assert np.array_equal(xp[adjusted], zpow[targets])
    return tuple(adjusted.tolist()), basis_type


def classify_per_rep(G):
    """(spec, images of the isomorphism G -> standard model) as
    ``jn2.classify`` gives them, with the normal form z^k prod_i
    a_i^alpha_i b_i^beta_i evaluated one representative at a time."""
    Z = fg.center(G)
    z = min(x for x in Z.elements if G.element_order(x) == Z.order)
    data = jn2.symplectic_data(G, z)
    reps, basis_type = normalize_basis_per_rep(data)
    spec = jn2.Jn2Spec(p=data.p, j=data.j, m=data.m, variant=basis_type)
    T = G.table
    k, alpha, beta = jn2._decode(spec, np.arange(spec.order, dtype=np.int64))
    images = fg.powers(T, z, spec.center_order)[k]
    for i in range(spec.m):
        a_pow = fg.powers(T, reps[2 * i], spec.p)
        b_pow = fg.powers(T, reps[2 * i + 1], spec.p)
        images = T[T[images, a_pow[alpha[i]]], b_pow[beta[i]]]
    return spec, np.argsort(images)
