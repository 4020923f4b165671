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
recognizes JN2 groups, gives the standard models one closed-form law on
their normal forms (``Jn2Law``), picks a normalized symplectic basis by a
walk in the group itself, and decides which standard model an arbitrary
JN2 group is, with an explicit isomorphism from the model, verified
against the law without building the model's table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import fingroup
from .errors import NotJn2, SizeLimit
from .fingroup import (
    FiniteGroup,
    GroupMap,
    closure_indices,
    from_table,
    least_prime_factor,
    power_map,
    powers,
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


_SPEC_RE = re.compile(r"^(I|II)\(([0-9]+)(?:\^([0-9]+))?,([0-9]+)\)\Z")


def parse_spec(text: str) -> Jn2Spec:
    """Parse the text form ``I(p^j,m)``; j = 1 may be written ``I(p,m)``."""
    m = _SPEC_RE.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse spec {text!r}")
    variant, p, j, rank = m.group(1), int(m.group(2)), m.group(3), int(m.group(4))
    return Jn2Spec(p=p, j=1 if j is None else int(j), m=rank, variant=variant)


@dataclass(frozen=True, eq=False)
class Jn2Law:
    """The group law of a standard JN2 group on its indices, in closed form.

    An index is the base-p digit string (k, alpha, beta), that is
    x = k*q + v with q = p^(2m) and v = a*p^m + b, where a holds the digits
    alpha and b the digits beta of V = (Z/p)^(2m).  The law is

        (k, v) * (k', v') = ((k + k' + c(v, v')) mod p^j, v (+) v'),

    where (+) is digitwise addition mod p (``fingroup.digit_sum_table``) and
    c(v, v') = -p^(j-1) * sum_i beta_i(v) * alpha_i(v'); variant II adds the
    carries floor((alpha_1 + alpha_1')/p) + floor((beta_1 + beta_1')/p).  It
    is held as three p^m x p^m blocks, the terms of c already times q:

    - ``alpha_part[a, a']``: (a (+) a')*p^m plus the variant-II carry on a;
    - ``pairing[b, a']``: the pairing term of c;
    - ``beta_part[b, b']``: b (+) b' plus the variant-II carry on b.

    ``generators`` are z = q, a_i = p^(2m-1-i) and b_i = p^(m-1-i), i from
    0, which generate the group by its normal form z^k prod_i a_i^alpha_i
    b_i^beta_i.  ``materialize`` tabulates the law; ``classify`` checks its
    map on ``generator_rows`` alone, so it is a ``GroupMap`` source without
    a table."""

    spec: Jn2Spec
    alpha_part: np.ndarray
    pairing: np.ndarray
    beta_part: np.ndarray

    @property
    def order(self) -> int:
        return self.spec.order

    @property
    def generators(self) -> tuple[int, ...]:
        p, m = self.spec.p, self.spec.m
        return (p ** (2 * m), *(p ** (2 * m - 1 - i) for i in range(m)),
                *(p ** (m - 1 - i) for i in range(m)))

    def block(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """c(v, v')*q + v (+) v' for v = a*p^m + b, over the last two axes
        (a', b') of every v' in V.  ``a`` and ``b`` index the rows of the
        blocks: index arrays that broadcast against each other, or slices,
        as ``materialize`` takes all of V."""
        return ((self.alpha_part[a] + self.pairing[b])[..., :, None]
                + self.beta_part[b][..., None, :])

    def rows(self, xs) -> np.ndarray:
        """The products x*y for x in ``xs`` (rows) and every y (columns):
        (k*q + k'*q + c*q + v (+) v') mod n through the (k', v') view of a
        row."""
        pm, pj = self.spec.p ** self.spec.m, self.spec.center_order
        q = pm * pm
        k, v = np.divmod(np.asarray(xs, dtype=np.intp), q)
        kq = np.arange(pj, dtype=np.int32) * q
        out = np.empty((k.size, pj, q), dtype=np.int32)
        np.add((k * q).astype(np.int32)[:, None, None] + kq[:, None],
               self.block(*np.divmod(v, pm)).reshape(k.size, 1, q), out=out)
        np.remainder(out, self.order, out=out)
        return out.reshape(k.size, self.order)

    @cached_property
    def generator_rows(self) -> np.ndarray:
        """``rows(generators)``, read-only: the (2m+1) x n cells a
        ``GroupMap`` from the law reads."""
        out = self.rows(self.generators)
        out.flags.writeable = False
        return out


@lru_cache(maxsize=None)
def standard_law(spec: Jn2Spec) -> Jn2Law:
    """The law of the standard group ``spec``, from its p^m x p^m blocks;
    one per spec, so ``generator_rows`` are made once."""
    p, j, m = spec.p, spec.j, spec.m
    # p >= 2: the exponent alone shows most over-cap orders, without the power
    if (2 * m + j >= fingroup.TABLE_CAP.bit_length()
            or spec.order > fingroup.TABLE_CAP):
        raise SizeLimit(f"{spec} has order over table cap {fingroup.TABLE_CAP}")
    pm = p ** m
    q = pm * pm
    # digits[a] = (alpha_1..alpha_m) of a, most significant first (beta of b alike)
    digits = np.arange(pm, dtype=np.int32)[:, None] // p ** np.arange(
        m - 1, -1, -1, dtype=np.int32) % p
    digit_sum = fingroup.digit_sum_table(p, m)
    pairing = -(digits @ digits.T) % p * (p ** (j - 1) * q)
    if spec.variant == "II":
        carry = (digits[:, 0, None] + digits[:, 0]) // p * q
        blocks = (digit_sum * pm + carry, pairing, digit_sum + carry)
    else:
        blocks = (digit_sum * pm, pairing, digit_sum)
    for block in blocks:
        block.flags.writeable = False
    return Jn2Law(spec, *blocks)


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
    """Cayley table of the standard group: its law (``Jn2Law``, one for
    both variants),

        (k, v) * (k', v') = ((k + k' + c(v, v')) mod p^j, v (+) v'),

    tabulated on indices in lexicographic (k, alpha, beta) order, so the
    identity is element 0, with z, a_i and b_i the law's ``generators``.

    Only the q x q table cq = c*q + v (+) v' (``Jn2Law.block`` of all of V,
    through its (a, b, a', b') view), of n^2/p^(2j) cells, is built from
    the law's blocks.  The n x n table is (k*q + k'*q + cq) mod n, one
    broadcast add through its (p^j, q, p^j, q) view and one remainder, and
    is handed to ``from_table`` as the array that owns it, so it is taken
    over without a copy."""
    law = standard_law(spec)  # refuses orders over the table cap
    order, pj, m = spec.order, spec.center_order, spec.m
    q = spec.p ** (2 * m)
    cq = law.block(np.s_[:, None], np.s_[:]).reshape(q, q)
    kq = np.arange(pj, dtype=np.int32) * q
    table = np.empty((order, order), dtype=np.int32)
    np.add(np.add.outer(kq, kq)[:, None, :, None], cq[None, :, None, :],
           out=table.reshape(pj, q, pj, q))
    del cq  # freed before validation, which then holds the table and its own blocks
    np.remainder(table, order, out=table)
    group = from_table(order, table, label=str(spec))
    z, *ab = law.generators
    return StandardJn2(spec=spec, group=group, z=z, a=tuple(ab[:m]), b=tuple(ab[m:]))


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


def _jn2_params(G: FiniteGroup) -> Optional[tuple[int, int, int, int, np.ndarray]]:
    """``is_jn2``'s (p, j, m), the center's first generator z and x^p for
    every element x, or None.  The center is read off ``G.center_mask``,
    and its cyclicity from powers of its elements alone.

    G' is read off the commutators C = [a, b] of generators.  If some c in
    C is not central, G/Z is not abelian and G is not JN2.  Otherwise <C>
    is central, hence normal, and G/<C> is abelian since its generators
    commute; so G' is <C>, the closure of C."""
    in_z = G.center_mask
    comms = G.commutators_of(G.generators, G.generators).ravel()
    if not in_z[comms].all():
        return None  # central quotient not abelian
    p = closure_indices(G.table, comms).size
    if p < 2 or least_prime_factor(p) != p:
        return None
    zsize = int(np.count_nonzero(in_z))
    zorder, j = zsize, 0
    while zorder % p == 0:
        zorder //= p
        j += 1
    if zorder != 1 or j < 1:
        return None
    # Z has order p^j, so z generates it exactly when z^(p^(j-1)) != 1
    zs = np.flatnonzero(in_z)
    zgens = zs[power_map(G.table, p ** (j - 1), zs) != 0]
    if not zgens.size:
        return None  # center not cyclic
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
    return (p, j, e // 2, int(zgens[0]), xp)


# ---------------------------------------------------------------------------
# symplectic machinery on V = G/ZG


@dataclass(frozen=True)
class SymplecticData:
    """A JN2 group G with z, the generator of its center of least index,
    and, once normalized, a symplectic basis of V = G/ZG.

    ``reps`` are representatives of that basis in G, listed pairwise
    (a_1, b_1, ..., a_m, b_m): [a_i, b_i] = z^(p^(j-1)), distinct pairs
    commute, and a_i^p = b_i^p = 1 exactly, except a_1^p = b_1^p = z in
    type II.  Before normalization ``reps`` is empty and ``basis_type`` is
    None; after it ``basis_type`` is "I" or "II".

    Three invariants of G are carried, read-only, from ``symplectic_data``,
    where they are first computed, so that later steps do not recompute
    them: ``xp`` is x^p for every element x (from ``is_jn2``'s exponent
    check), ``zpow`` is z^0, ..., z^(p^j - 1), and ``log`` is the discrete
    log table of ``log_table(G, z)``.  ``normalize_basis`` uses them to
    pick and adjust its representatives, but checks its postcondition
    without them.
    """

    group: FiniteGroup
    p: int
    j: int
    m: int
    z: int
    reps: tuple[int, ...]
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


def symplectic_data(G: FiniteGroup) -> SymplecticData:
    """Recognize G as JN2 with z its center's first generator, and carry
    x^p, the powers of z and their logs for ``normalize_basis``."""
    params = _jn2_params(G)
    if params is None:
        raise NotJn2("group fails the JN2 characterization")
    p, j, m, z, xp = params
    zpow = powers(G.table, z, p ** j)
    log = _logs(G.order, zpow)
    for a in (xp, zpow, log):
        a.flags.writeable = False
    return SymplecticData(group=G, p=p, j=j, m=m, z=z, reps=(),
                          xp=xp, zpow=zpow, log=log, basis_type=None)


def _symplectic_walk(data: SymplecticData) -> tuple[list[int], str]:
    """Representatives (a_1, b_1, ..., a_m, b_m) of a symplectic basis of
    V = G/ZG, picked in G, on which nu(x) = log_z(x^p) mod p vanishes
    (type I) or is 1 on a_1, b_1 and 0 on the rest (type II); and the type.

    A mask C, all of G at first, is the centralizer of the pairs so far,
    the preimage of their complement W in V.  Each round takes a, the first
    noncentral element of C, and b, the first element of C with
    [a, b] = c = z^(p^(j-1)) (W is nondegenerate, so some b' in C has
    [a, b'] = c^k, k != 0, and b'^(1/k mod p) is such a b), and shrinks C
    by the rows [a, .] = 1 and [b, .] = 1.

    When p^j != 2, nu is linear on V, as (xy)^p = x^p y^p [y, x]^(p(p-1)/2)
    and that last factor has log divisible by p.  If nu != 0, then
    nu(x) = <x, u>, where [x, u] = c^<x, u>, for u the first element that
    satisfies it on the generators of G, which span V.  The first pair is
    (a, a*u) with nu(a) = 1: <a, a*u> = <a, u> = 1, nu(a*u) = 1 + <u, u>
    = 1, and the pair's complement is the kernel of nu, so every later
    pick has nu = 0.

    When p^j = 2, q(x) = log_z(x^2) is a quadratic form with
    q(xy) = q(x) + q(y) + <x, y>.  While C holds a noncentral x with
    q(x) = 0, a and b are taken among such x: q(b*a) = q(b) + 1, so one of
    b, b*a is one.  A form of dimension at least 3 over F_2 has such an x,
    so what is left is 0 or a plane with q = 1 off 0.  That pair goes
    first and makes the group type II: the Arf invariant of q (Aschbacher,
    *Finite Group Theory*, section 23).

    The commutator rows are read off products, as c is central: [x, y] = 1
    exactly when x*y = y*x, and [a, y] = c exactly when a*y = c*(y*a).

    A pick from an empty mask is element 0 (``argmax`` of all False), which
    no standard pair holds; so on wrong carried data the walk runs on, and
    ``normalize_basis``'s postcondition refuses its result.
    """
    G, p, j = data.group, data.p, data.j
    T = G.table
    c = data.zpow[p ** (j - 1)]
    nu = data.log[data.xp] % p
    noncentral = ~G.center_mask
    C = np.ones(G.order, dtype=bool)
    allowed = nu == 0 if p ** j == 2 else np.ones_like(C)
    pairs, basis_type = [], "I"

    def take(a: int, b: int) -> None:
        pairs.append((a, b))
        C[T[a] != T[:, a]] = False
        C[T[b] != T[:, b]] = False

    if p ** j != 2 and nu.any():
        gens = np.asarray(G.generators, dtype=np.intp)
        exps = data.log[G.commutators_of(gens, np.arange(G.order))] // p ** (j - 1)
        u = int((exps == nu[gens, None]).all(axis=0).argmax())
        a = int((nu == 1).argmax())
        take(a, int(T[a, u]))
        basis_type = "II"
    while len(pairs) < data.m:
        free = C & noncentral & allowed
        plane = not free.any()   # p^j = 2: q = 1 on C/Z
        if plane:
            allowed[:], basis_type = True, "II"
            free = C & noncentral
        a = int(free.argmax())
        take(a, int((C & allowed & (T[a] == T[c].take(T[:, a]))).argmax()))
        if plane:
            pairs.insert(0, pairs.pop())
    return [x for pair in pairs for x in pair], basis_type


def normalize_basis(data: SymplecticData) -> SymplecticData:
    """The symplectic basis of ``_symplectic_walk``, its representatives
    adjusted by central elements so that a_i^p = b_i^p = 1 exactly, except
    a_1^p = b_1^p = z in type II.  The postcondition is re-verified by
    direct group computation.
    """
    G, p, j, dim = data.group, data.p, data.j, 2 * data.m
    T = G.table
    reps, basis_type = _symplectic_walk(data)

    # adjust each representative by a central element so p-th powers are
    # exact: r^p = z^(t - delta) with p | delta, as nu(r) = t mod p; a
    # delta off that pattern (wrong carried data) leaves a p-th power
    # that the check below refuses
    targets = np.zeros(dim, dtype=np.int64)
    if basis_type == "II":
        targets[:2] = 1
    delta = (targets - data.log[data.xp[reps]]) % p ** j
    adjusted = T[reps, data.zpow[delta // p]]
    std = np.zeros((dim, dim), dtype=np.int64)
    i = np.arange(0, dim, 2)
    std[i, i + 1], std[i + 1, i] = 1, p - 1
    # verify the postcondition directly in the group, without the carried
    # invariants: [r_u, r_v] = c^std[u, v] for c = z^(p^(j-1)), r_u^p = z^t_u
    c = G.power(data.z, p ** (j - 1))
    if (G.commutators_of(adjusted, adjusted) != powers(T, c, p)[std]).any():
        raise RuntimeError("normalized Gram must be standard")
    if (powers(T, adjusted, p + 1)[p] != np.where(targets, data.z, 0)).any():
        raise RuntimeError("p-th power must be exact")
    return SymplecticData(group=G, p=p, j=j, m=data.m, z=data.z,
                          reps=tuple(adjusted.tolist()), xp=data.xp,
                          zpow=data.zpow, log=data.log, basis_type=basis_type)


# ---------------------------------------------------------------------------
# classification


def classify(G: FiniteGroup) -> tuple[Jn2Spec, GroupMap]:
    """The standard model of a JN2 group plus a verified isomorphism from it.

    The variant is read off a normalized symplectic basis.  The map sends
    each standard index, the normal form z^k prod_i a_i^alpha_i b_i^beta_i,
    to that word in z and the lifted representatives of G.  Its source is
    the model's closed-form law, so the homomorphism check reads the law's
    generator rows and gathers in G, and no model table is built.
    """
    data = normalize_basis(symplectic_data(G))  # recognises JN2
    spec = Jn2Spec(p=data.p, j=data.j, m=data.m, variant=data.basis_type)
    T = G.table
    # the normal form z^k a_1^alpha_1 b_1^beta_1 ... a_m^alpha_m b_m^beta_m
    # of every index, multiplied out on the lifted representatives one
    # factor at a time, each factor's exponent a new axis, with
    # ladder[e, t] = reps[t]^e; the axes (k, alpha_1, beta_1, ...) are then
    # put in the index's digit order (k, alpha_1..alpha_m, beta_1..beta_m)
    dims = 2 * spec.m
    ladder = powers(T, np.asarray(data.reps), spec.p)
    images = data.zpow
    for t in range(dims):
        images = T[images[..., None], ladder[:, t]]
    iso = GroupMap(standard_law(spec), G, images.transpose(
        0, *range(1, dims, 2), *range(2, dims + 1, 2)).ravel())
    # a homomorphism between groups of one order is an isomorphism once onto
    if not iso.is_bijective:
        raise RuntimeError("normal forms must enumerate the group")
    return spec, iso


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
