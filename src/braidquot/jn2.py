"""Just 2-step nilpotent (JN2) p-groups.

A finite group is JN2 when it is nonabelian, 2-step nilpotent, and every
proper quotient is abelian; equivalently, its derived subgroup is cyclic of
prime order p, its center is cyclic of order p^j, and the central quotient
is elementary abelian of exponent p.  Each such group carries a class
(p^j, m) with 2m the dimension of V = G/ZG, and V carries a nondegenerate
alternating commutator pairing.  Up to isomorphism there are exactly two
JN2 groups per class, the central products

    I(p^j, m)  = M(p^j) central-product m copies,
    II(p^j, m) = N(p^j) central-product M(p^j)^(m-1),

where M has relations a^p = b^p = 1 and N has a^p = b^p = z.  This module
recognizes JN2 groups, builds the standard models from exact normal forms,
normalizes symplectic bases, and decides which standard model an arbitrary
JN2 group is, with an explicit verified isomorphism.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import fingroup
from .errors import NotCentral, NotGenerator, NotJn2, SizeLimit
from .fingroup import (
    FiniteGroup,
    GroupMap,
    derived_subgroup,
    from_table,
    least_prime_factor,
    power_map,
    powers,
    row_reduce,
)


@dataclass(frozen=True)
class Jn2Spec:
    """Descriptor of a standard JN2 group: class (p^j, m) plus variant."""

    p: int
    j: int
    m: int
    variant: str  # "I" or "II"

    def __post_init__(self):
        if self.p > fingroup.TABLE_CAP:  # order >= p^3; refused before trial division
            raise SizeLimit(f"p={self.p} exceeds table cap {fingroup.TABLE_CAP}")
        if self.p < 2 or least_prime_factor(self.p) != self.p:
            raise ValueError(f"p must be prime, got {self.p}")
        if self.j < 1 or self.m < 1:
            raise ValueError("j and m must be positive")
        if self.variant not in ("I", "II"):
            raise ValueError(f"variant must be 'I' or 'II', got {self.variant!r}")

    @property
    def order(self) -> int:
        return self.p ** (2 * self.m + self.j)

    @property
    def center_order(self) -> int:
        return self.p ** self.j

    def __str__(self) -> str:
        pj = str(self.p) if self.j == 1 else f"{self.p}^{self.j}"
        return f"{self.variant}({pj},{self.m})"


_SPEC_RE = re.compile(r"^(I|II)\((\d+)(?:\^(\d+))?,(\d+)\)$")


def parse_spec(text: str) -> Jn2Spec:
    """Parse the text form ``I(p^j,m)``; j = 1 may be written ``I(p,m)``."""
    m = _SPEC_RE.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse spec {text!r}")
    variant, p, j, rank = m.group(1), int(m.group(2)), m.group(3), int(m.group(4))
    return Jn2Spec(p=p, j=1 if j is None else int(j), m=rank, variant=variant)


def _decode(spec: Jn2Spec, idx):
    """(k, alpha, beta) of the normal form z^k * prod_i a_i^alpha_i b_i^beta_i
    stored at index idx: base-p digits k, alpha_1..alpha_m, beta_1..beta_m.
    ``idx`` may be an int or an integer array; the digits follow suit."""
    p, m = spec.p, spec.m
    digits = []
    for _ in range(2 * m):
        digits.append(idx % p)
        idx = idx // p
    return idx, tuple(reversed(digits[m:])), tuple(reversed(digits[:m]))


@dataclass(frozen=True)
class StandardJn2:
    """A materialized standard group with its distinguished generators."""

    spec: Jn2Spec
    group: FiniteGroup
    z: int
    a: tuple[int, ...]
    b: tuple[int, ...]


@lru_cache(maxsize=None)
def materialize(spec: Jn2Spec) -> StandardJn2:
    """Cayley table of the standard group, enumerated from normal forms in
    lexicographic (k, alpha, beta) order so the identity is element 0.  An
    index is the base-p digit string (k, alpha, beta), hence
    a_i = p^(2m-1-i), b_i = p^(m-1-i) and z = p^(2m) (i counted from 0).

    The table is built from its block structure.  With q = p^(2m), an index
    is x = k*q + v, where v = a*p^m + b holds the digits alpha (in a) and
    beta (in b) of V = (Z/p)^(2m), and

        (k, v) * (k', v') = ((k + k' + c(v, v')) mod p^j, v (+) v'),

    where (+) is digitwise addition mod p (``fingroup.digit_sum_table``) and
    c(v, v') = -p^(j-1) * sum_i beta_i(v) * alpha_i(v'); variant II adds the
    carries floor((alpha_1 + alpha_1')/p) + floor((beta_1 + beta_1')/p).  So
    only the q x q table cq = c*q + v (+) v', of n^2/p^(2j) cells, is built
    from digits, through its (p^m, p^m, p^m, p^m) view over (a, b, a', b').  The
    n x n table is (k*q + k'*q + cq) mod n, one broadcast add through its
    (p^j, q, p^j, q) view and one remainder, and is handed to ``from_table``
    as the array that owns it, so it is taken over without a copy."""
    p, j, m = spec.p, spec.j, spec.m
    # p >= 2: the exponent alone shows most over-cap orders, without the power
    if (2 * m + j >= fingroup.TABLE_CAP.bit_length()
            or spec.order > fingroup.TABLE_CAP):
        raise SizeLimit(f"{spec} has order over table cap {fingroup.TABLE_CAP}")
    order = spec.order
    pj, pm = p ** j, p ** m
    q = pm * pm
    # digits[a] = (alpha_1..alpha_m) of a, most significant first (beta of b alike)
    digits = np.arange(pm)[:, None] // p ** np.arange(m - 1, -1, -1) % p
    cq = fingroup.digit_sum_table(p, 2 * m)
    c4 = cq.reshape(pm, pm, pm, pm)
    pairing = -(digits @ digits.T) % p * p ** (j - 1)  # [b, a']
    c4 += (pairing * q).astype(np.int32)[None, :, :, None]
    if spec.variant == "II":
        carry = ((digits[:, 0, None] + digits[:, 0]) // p * q).astype(np.int32)
        c4 += carry[:, None, :, None]   # [a, a']
        c4 += carry[None, :, None, :]   # [b, b']
    kq = np.arange(pj, dtype=np.int32) * q
    table = np.empty((order, order), dtype=np.int32)
    np.add(np.add.outer(kq, kq)[:, None, :, None], cq[None, :, None, :],
           out=table.reshape(pj, q, pj, q))
    del cq, c4  # freed before validation, which then holds the table and its own blocks
    np.remainder(table, order, out=table)

    a_idx = tuple(p ** (2 * m - 1 - i) for i in range(m))
    b_idx = tuple(p ** (m - 1 - i) for i in range(m))
    group = from_table(order, table, label=str(spec))
    return StandardJn2(spec=spec, group=group, z=q, a=a_idx, b=b_idx)


# ---------------------------------------------------------------------------
# recognition


def is_jn2(G: FiniteGroup) -> Optional[tuple[int, int, int]]:
    """Class parameters (p, j, m) when G is JN2, else None.

    Checks the characterization directly: derived subgroup cyclic of prime
    order p, center cyclic of order p^j, central quotient elementary abelian
    of exponent p.
    """
    params = _jn2_params(G)
    return None if params is None else params[:3]


def _jn2_params(G: FiniteGroup) -> Optional[tuple[int, int, int, np.ndarray]]:
    """``is_jn2``'s (p, j, m), with x^p for every element x, or None.  The
    center is read off ``G.center_mask``, and its cyclicity from powers of
    its elements alone."""
    D = derived_subgroup(G)
    if D.order < 2 or least_prime_factor(D.order) != D.order:
        return None
    p = D.order
    in_z = G.center_mask
    zsize = int(np.count_nonzero(in_z))
    zorder, j = zsize, 0
    while zorder % p == 0:
        zorder //= p
        j += 1
    if zorder != 1 or j < 1:
        return None
    # Z has order p^j, so z generates it exactly when z^(p^(j-1)) != 1
    if not power_map(G.table, p ** (j - 1), np.flatnonzero(in_z)).any():
        return None  # center not cyclic
    if not in_z[D.indices].all():
        return None  # central quotient not abelian
    xp = power_map(G.table, p)
    if not in_z[xp].all():
        return None  # central quotient not of exponent p
    v = G.order // zsize    # |G/Z|, a power of p by Cauchy: G/Z has exponent p
    e = 0
    while v % p == 0:
        v //= p
        e += 1
    if e % 2:
        raise RuntimeError("commutator pairing forces even dimension")
    return (p, j, e // 2, xp)


# ---------------------------------------------------------------------------
# symplectic machinery on V = G/ZG


@dataclass(frozen=True)
class SymplecticData:
    """V = G/ZG with its commutator pairing and p-th power functional.

    ``reps`` are lifted representatives whose cosets form the recorded basis
    of V, listed pairwise (a_1, b_1, ..., a_m, b_m) once normalized.  The
    Gram matrix stores pairing values as exponents of z^(p^(j-1)); ``nu``
    stores x -> x^p mod (ZG)^p as exponents of z.  ``basis_type`` is None
    before normalization and "I" or "II" after.

    Three invariants of G are carried, read-only, from ``symplectic_data``,
    where they are first computed, so that later steps do not recompute
    them: ``xp`` is x^p for every element x (from ``is_jn2``'s exponent
    check), ``zpow`` is z^0, ..., z^(p^j - 1), and ``log`` is the discrete
    log table of ``log_table(G, z)``.  ``normalize_basis`` uses them to
    adjust its representatives, but checks its postcondition without them.
    """

    group: FiniteGroup
    p: int
    j: int
    m: int
    z: int
    reps: tuple[int, ...]
    gram: np.ndarray
    nu: tuple[int, ...]
    xp: np.ndarray
    zpow: np.ndarray
    log: np.ndarray
    basis_type: Optional[str] = None


def log_table(G: FiniteGroup, z: int) -> np.ndarray:
    """Discrete logs to base z: entry z^t is t for 0 <= t < ord(z), and
    every element outside <z> has entry -1."""
    zpow = [0]
    while (x := G.mul(zpow[-1], z)) != 0:
        zpow.append(x)
    return _logs(G.order, np.array(zpow, dtype=np.int64))


def _logs(order: int, zpow: np.ndarray) -> np.ndarray:
    """The log table of the powers ``zpow`` = z^0, ..., z^(ord(z) - 1)."""
    log = np.full(order, -1, dtype=np.int64)
    log[zpow] = np.arange(zpow.size)
    return log


def _gram(G: FiniteGroup, log: np.ndarray, p: int, j: int, reps) -> np.ndarray:
    """Pairing values [r_u, r_v] of the representatives, as exponents of
    c = z^(p^(j-1)), the generator of the derived subgroup."""
    e = log[G.commutators_of(reps, reps)]
    q = p ** (j - 1)
    if (e < 0).any() or (e % q).any():
        raise NotJn2("commutator fell outside the derived subgroup")
    return e // q


def symplectic_data(G: FiniteGroup, z: int) -> SymplecticData:
    """Compute a basis of V = G/ZG, the commutator Gram matrix and nu.

    The pairing is nondegenerate: once ``is_jn2`` holds, G' <= ZG, so an x
    that pairs trivially with every representative commutes with
    G = <ZG, reps> and lies in ZG."""
    params = _jn2_params(G)
    if params is None:
        raise NotJn2("group fails the JN2 characterization")
    p, j, m, xp = params
    if not G.center_mask[z]:
        raise NotCentral(f"element {z} is not central")
    zpow = powers(G.table, z, p ** j)
    # z is in Z, so ord(z) divides p^j, and is p^j when no z^e with
    # 0 < e < p^j is 1
    if not zpow[1:].all():
        raise NotGenerator(f"element {z} does not generate the center")
    log = _logs(G.order, zpow)

    # greedy coset basis: smallest-index representatives independent mod
    # ZG; V is elementary abelian, so the walk ends after exactly 2m picks
    reps = list(fingroup.span_walk(G.table, range(G.order), base=[z]))
    if len(reps) != 2 * m:
        raise RuntimeError(f"coset basis has {len(reps)} elements, expected {2 * m}")
    gram = _gram(G, log, p, j, reps)
    if (np.diagonal(gram) != 0).any() or ((gram + gram.T) % p).any():
        raise RuntimeError("commutator pairing must be alternating")

    # is_jn2 puts every x^p in ZG = <z>, so each log is defined
    nu = tuple((log[xp[reps]] % p).tolist())
    for a in (xp, zpow, log):
        a.flags.writeable = False
    return SymplecticData(group=G, p=p, j=j, m=m, z=z, reps=tuple(reps),
                          gram=gram, nu=nu, xp=xp, zpow=zpow, log=log,
                          basis_type=None)


def _symplectic_pairs(gram: np.ndarray, p: int,
                      vectors: list[np.ndarray]) -> list[np.ndarray]:
    """Greedy hyperbolic-pair extraction from a spanning set of coordinate
    vectors; returns (e1, f1, e2, f2, ...) with the standard Gram matrix.

    Each round takes the first row u of the working list U, and for f1 the
    first row w with <u, w> != 0, scaled so <u, f> = 1 (<u, u> = 0, since
    the form is alternating).  It then projects every row onto the
    symplectic complement of (u, f), v -> v - <v, f> u + <v, u> f, and drops
    the rows that become zero.

    Dependent rows are kept, and this gives the same pairs as keeping only
    the greedy independent subsequence F of U (each row kept when it is
    outside the span of the rows kept before it).  The first row of U is in
    F.  The first row w with <u, w> != 0 is in F too: a row outside F is a
    combination of earlier rows of F, and one of those would pair nonzero
    with u.  Projection is linear, so it maps each row of U outside F into
    the span of the projected earlier rows of F; hence the greedy
    independent subsequence of the projected U is that of the projected F,
    and by induction both lists pick the same pair in every round.
    """
    out: list[np.ndarray] = []
    work = np.array(vectors, dtype=np.int64) % p
    work = work[work.any(axis=1)]
    while work.size:
        u = work[0]
        vals = (work @ gram.T @ u) % p  # <u, w> for each row w
        hits = np.flatnonzero(vals)
        if not hits.size:
            raise RuntimeError("restricted pairing must stay nondegenerate")
        f = (work[hits[0]] * pow(int(vals[hits[0]]), p - 2, p)) % p
        out += [u, f]
        work = (work - np.outer(work @ gram @ f, u)
                + np.outer(work @ gram @ u, f)) % p
        work = work[work.any(axis=1)]
    return out


def _arf_pairs(gram: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, str]:
    """Symplectic basis for the quadratic form q of a JN2 group with
    p^j = 2, and its type: q vanishes on the basis (type I), or is 1 on the
    first pair and 0 on the rest (type II).

    q(c) = c.nu + c^T triu(gram, 1) c mod 2 is log_z(x^2) for
    x = prod_t r_t^c_t, since (xy)^2 = x^2 y^2 [y, x] in class 2, so
    q(c + d) = q(c) + q(d) + <c, d>.  In each pair (e, f) of
    ``_symplectic_pairs``, e and f swap if q(e) = 1 and q(f) = 0
    (<f, e> = <e, f> over F_2); then if q(e) = 0, f + q(f) e has q = 0.
    Otherwise q(e) = q(f) = 1: the pair is anisotropic.  Two anisotropic
    pairs (e1, f1), (e2, f2) span the same space as (e1 + e2, f1 + e2) and
    (h, h + e2), h = e1 + f1 + f2.  Expanding by the rule above, with the
    two pairs orthogonal: q is 0 on all four; <e1 + e2, f1 + e2> = <e1, f1>
    and <h, h + e2> = <f2, e2> are 1; <e1 + e2, h> and <f1 + e2, h> are
    1 + 1 = 0, and so are their pairings with e2, so the new pairs are
    orthogonal.  At most one anisotropic pair is left, and it goes first.
    (The parity of their number is the Arf invariant of q; Aschbacher,
    *Finite Group Theory*, section 23.)
    """
    triu = np.triu(gram, 1)

    def q(c: np.ndarray) -> int:
        return int(c @ nu + c @ triu @ c) % 2

    hyperbolic: list[np.ndarray] = []
    anisotropic: list[tuple[np.ndarray, np.ndarray]] = []
    pairs = _symplectic_pairs(gram, 2, list(np.eye(len(nu), dtype=np.int64)))
    for e, f in zip(pairs[0::2], pairs[1::2]):
        if q(e) and not q(f):
            e, f = f, e
        if q(e):
            anisotropic.append((e, f))
        else:
            hyperbolic += [e, (f + q(f) * e) % 2]
    while len(anisotropic) > 1:
        (e1, f1), (e2, f2) = anisotropic.pop(), anisotropic.pop()
        h = (e1 + f1 + f2) % 2
        hyperbolic += [(e1 + e2) % 2, (f1 + e2) % 2, h, (h + e2) % 2]
    if anisotropic:
        return np.array(list(anisotropic[0]) + hyperbolic), "II"
    return np.array(hyperbolic), "I"


def _normalized_coords(data: SymplecticData) -> tuple[np.ndarray, str]:
    """Coordinates on ``data.reps`` (one row per new basis vector) of the
    symplectic basis ``normalize_basis`` lifts, and its type "I" or "II".

    For p^j = 2, nu is the quadratic form of ``_arf_pairs``.
    """
    p, j, dim = data.p, data.j, 2 * data.m
    gram = data.gram % p
    nu_vec = np.array(data.nu, dtype=np.int64) % p
    units = list(np.eye(dim, dtype=np.int64))

    if p ** j == 2:
        coords, basis_type = _arf_pairs(gram, nu_vec)
    elif not nu_vec.any():
        basis_type = "I"
        coords = np.array(_symplectic_pairs(gram, p, units))
    else:
        basis_type = "II"
        # dual vector u with nu(x) = <x, u>; then any first pair (e1, u + e1)
        # with <e1, u> = 1 confines nu to the first pair: the symplectic
        # complement of the pair is exactly the kernel of nu.  gram is
        # invertible, so the reduced [gram | nu] ends in u.
        u = row_reduce(np.column_stack([gram, nu_vec]), p)[0][:, dim]
        vals = (gram @ u) % p
        t = int(np.flatnonzero(vals)[0])
        e1 = (units[t] * pow(int(vals[t]), p - 2, p)) % p
        # <e1, f1> = 1, so the extraction keeps (e1, f1) as its first pair
        coords = np.array(_symplectic_pairs(gram, p, [e1, (u + e1) % p] + units))
    if coords.shape != (dim, dim):
        raise RuntimeError(f"symplectic basis has shape {coords.shape}, "
                           f"expected {(dim, dim)}")
    return coords, basis_type


def normalize_basis(data: SymplecticData) -> SymplecticData:
    """Symplectic basis on which nu is identically zero (type I) or
    (1, 1, 0, ..., 0) (type II), with representatives adjusted by central
    elements so that a_i^p = b_i^p = 1 exactly, except a_1^p = b_1^p = z in
    type II.  The postcondition is re-verified by direct group computation.
    """
    G, p, j, dim = data.group, data.p, data.j, 2 * data.m
    T = G.table
    coords, basis_type = _normalized_coords(data)

    # lift coordinate vectors to group elements, prod_t reps[t]^coords[:, t],
    # from one power ladder: ladder[k, t] = reps[t]^k
    ladder = powers(T, np.asarray(data.reps), p)
    new_reps = np.zeros(dim, dtype=np.int64)
    for t in range(dim):
        new_reps = T[new_reps, ladder[coords[:, t], t]]

    # adjust each representative by a central element so p-th powers are exact
    targets = np.zeros(dim, dtype=np.int64)
    if basis_type == "II":
        targets[:2] = 1
    delta = (targets - data.log[data.xp[new_reps]]) % p ** j
    if (delta % p).any():
        raise RuntimeError("nu value must match the normalized pattern")
    adjusted = T[new_reps, data.zpow[delta // p]]
    std = np.zeros((dim, dim), dtype=np.int64)
    i = np.arange(0, dim, 2)
    std[i, i + 1], std[i + 1, i] = 1, p - 1
    # verify the postcondition directly in the group, without the carried
    # invariants: [r_u, r_v] = c^std[u, v] for c = z^(p^(j-1)), r_u^p = z^t_u
    c = G.power(data.z, p ** (j - 1))
    if not np.array_equal(G.commutators_of(adjusted, adjusted), powers(T, c, p)[std]):
        raise RuntimeError("normalized Gram must be standard")
    if not np.array_equal(powers(T, adjusted, p + 1)[p], np.where(targets, data.z, 0)):
        raise RuntimeError("p-th power must be exact")
    # x^p = z^t exactly, so nu(x) = t
    return replace(data, reps=tuple(adjusted.tolist()), gram=std,
                   nu=tuple(targets.tolist()), basis_type=basis_type)


# ---------------------------------------------------------------------------
# classification


def classify(G: FiniteGroup) -> tuple[Jn2Spec, GroupMap]:
    """The standard model of a JN2 group plus a verified isomorphism onto it.

    The variant is read off a normalized symplectic basis, and the
    isomorphism maps the lifted representatives to the standard generators.
    """
    zs = np.flatnonzero(G.center_mask)
    # symplectic_data accepts only a cyclic center of prime-power order
    # q^j, whose generators are the z with z^(q^(j-1)) != 1
    zs = zs[power_map(G.table, zs.size // least_prime_factor(zs.size), zs) != 0]
    if not zs.size:
        raise NotJn2("center is not a nontrivial cyclic group")
    data = normalize_basis(symplectic_data(G, int(zs[0])))  # recognises JN2
    spec = Jn2Spec(p=data.p, j=data.j, m=data.m, variant=data.basis_type)
    S = materialize(spec).group
    T = G.table
    # the normal form z^k prod_i a_i^alpha_i b_i^beta_i of every index,
    # evaluated on the lifted representatives, all indices at once, with
    # ladder[e, t] = reps[t]^e
    k, alpha, beta = _decode(spec, np.arange(S.order, dtype=np.int64))
    ladder = powers(T, np.asarray(data.reps), spec.p)
    images_from_std = data.zpow[k]
    for i in range(spec.m):
        images_from_std = T[T[images_from_std, ladder[alpha[i], 2 * i]],
                            ladder[beta[i], 2 * i + 1]]
    # |G| = |S| images, so they enumerate G exactly when each is hit
    if not np.bincount(images_from_std, minlength=S.order).all():
        raise RuntimeError("normal forms must enumerate the group")
    # images_from_std is a permutation: its inverse sends G to S
    return spec, GroupMap(G, S, np.argsort(images_from_std))


def enumerate_specs(max_order: int) -> list[Jn2Spec]:
    """All spec descriptors with order <= max_order, deterministically
    ordered by (order, variant, p, j, m)."""
    out = []
    p = 2
    while p ** 3 <= max_order:
        if least_prime_factor(p) == p:
            m = 1
            while p ** (2 * m + 1) <= max_order:
                jj = 1
                while p ** (2 * m + jj) <= max_order:
                    for variant in ("I", "II"):
                        out.append(Jn2Spec(p=p, j=jj, m=m, variant=variant))
                    jj += 1
                m += 1
        p += 1
    out.sort(key=lambda s: (s.order, s.variant, s.p, s.j, s.m))
    return out
