"""Dense finite-group engine backed by validated Cayley tables.

A group is a full multiplication table over element indices 0..order-1 with
the identity pinned at index 0.  Every constructor relabels to enforce this,
and every table is validated in full on construction: identity and inverses
cell by cell, associativity by Light's test on a set that generates the
table, O(n^2) per generator.  That set is kept as ``FiniteGroup.generators``.

A law that holds for x*x' whenever it holds for x and for x', and holds
for the identity, holds on all of G once it holds on a generating set.  So
the laws below are checked on the certified generators A only, exactly:
- ``GroupMap``: f(a*y) = f(a)*f(y) for a in A and every y, |A|*n cells;
- ``center_mask``: x commutes with every a in A, n*|A| cells;
- ``Subgroup.is_normal``: a N a^-1 lies in N for a in A, |A|*|N| cells;
- ``derived_subgroup``: the normal closure of the commutators [a, b] of
  generators, conjugating by A only;
- ``is_isomorphic``: f(g*y) = f(g)*f(y) on each K = <g_1..g_i> of its
  generating sequence, for g among g_1..g_i and every y in K;
- ``Subgroup`` closure of a proper set S of more than 128 elements:
  S*a lies in S for a in a set A that a span walk over S picks, so that
  <A> holds S; |A|*|S| cells (see ``_is_closed``).
All values are immutable after construction; operations are pure functions
of their inputs.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import NotAGroup, NotNormal, SearchBudgetExceeded, SizeLimit

TABLE_CAP = 10_000

# Isomorphism backtracking refuses beyond this many elements, and gives up
# after this many candidate images.
ISO_SIZE_LIMIT = 2_000
_ISO_BUDGET = 100_000

# Table entries per row block of Light's test; bounds its temporaries.
_LIGHT_BLOCK = 1 << 16

# Table entries per block of ``relabel``'s column permutation: its one
# buffer (32 KB) stays below glibc's 128 KiB mmap threshold, so it is not
# mapped and zero-filled afresh on each call.
_RELABEL_BLOCK = 1 << 13


def least_prime_factor(n: int) -> int:
    """Smallest prime dividing n >= 2, by trial division; n is prime exactly
    when the result is n itself."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def power_map(table: np.ndarray, k: int, xs=None) -> np.ndarray:
    """x^k for every element x, or for each x in the index array ``xs``
    (k >= 0), by square-and-multiply applied to all of them at once."""
    base = np.arange(table.shape[0]) if xs is None else xs
    base = np.asarray(base, dtype=np.int64)
    acc = np.zeros_like(base)
    while k:
        if k & 1:
            acc = table[acc, base]
        k >>= 1
        if k:
            base = table[base, base]
    return acc


def powers(table: np.ndarray, x, count: int) -> np.ndarray:
    """x^0, x^1, ..., x^(count-1).  For an index array x, row e holds the
    e-th powers of all its elements, one gather per row."""
    out = np.zeros((count,) + np.shape(x), dtype=np.int64)
    for e in range(1, count):
        out[e] = table[out[e - 1], x]
    return out


def _coset_walk(table: np.ndarray, candidates: Iterable[int], inside: np.ndarray) -> Iterator[int]:
    """Yield each candidate, in order, outside the subgroup H marked in
    ``inside`` (False on entry), then extend H by it; stop once H is whole.

    H is extended by cosets, as in Dimino's algorithm (G. Butler,
    *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991), here
    left ones.  After a pick x the queue starts at 0, the representative of
    H itself; for each queued r and each pick g (x included), if y = g*r is
    unmarked, mark the coset y*H and queue y.  A new coset costs one gather
    of |H| cells from row y.  In a group, with H a subgroup, the marked set
    K is a union of cosets r*H with every g*r marked, so g*K lies in K for
    each pick; K holds 0, so it holds every product of picks, and it is
    <H, x>, the closure.  No step holds more than |G| cells.

    The first pick, from H = {0}, is the queue's first step in scalars: the
    queue pops 0, x, x*x, ... in turn and marks each singleton coset, so
    y <- x*y is walked from y = x while y is unmarked, each y marked, and H
    becomes the marked set, the queue's set (H is only read as a set).  It
    ends on any table, since each step marks a new element.
    """
    inside[0] = True
    H = np.zeros(1, dtype=np.intp)
    gens = []
    for x in candidates:
        if H.size == inside.size:
            break
        if inside[x]:
            continue
        x = int(x)
        yield x
        gens.append(x)
        if H.size == 1:  # H = {0}: <x> by powers, as the queue below finds it
            row, y = table[x], x
            while not inside[y]:
                inside[y] = True
                y = row[y]
            H = inside.nonzero()[0]
            continue
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


def closure_indices(table: np.ndarray, seeds: Iterable[int]) -> np.ndarray:
    """Sorted indices of the subgroup of the group ``table`` generated by
    ``seeds``, identity included: the coset walk over the seeds, read off
    its membership mask, which is sorted with no sort or hash."""
    inside = np.zeros(table.shape[0], dtype=bool)
    list(_coset_walk(table, seeds, inside))
    return inside.nonzero()[0]


def span_walk(table: np.ndarray, candidates: Iterable[int]) -> Iterator[int]:
    """Greedy span walk: yield each candidate, in order, that lies outside
    the closure H of the candidates yielded so far, then extend H by it
    (see ``_coset_walk``); stop once H is the whole table.

    ``from_table`` walks a table that is not yet known to be associative,
    and there the picks are the same as well.  It has already checked that
    0 is the identity and that each a has a two-sided inverse a', and it
    resumes the walk only after the pick passed Light's test.  The elements
    that pass that test form a set A closed under products, and for a in A,
    a'*(a*y) = (a'*a)*y = y and (y*a)*a' = y*(a*a') = y, so multiplying by a
    on either side is one-to-one.  The closure M of the tested picks lies in
    A, so M is associative, cancellative, finite and holds 0: a group, with
    H a subgroup of it at every step.  So the coset walk marks the closure
    there too, every pick is the one the closure would give, and the first
    failing pick, and the message naming it, are unchanged.  The first
    pick x has passed Light's test before the walk takes its powers, so
    <x> lies in M and its powers return to 0, as the coset queue's do.
    """
    return _coset_walk(table, candidates, np.zeros(table.shape[0], dtype=bool))


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[x, y]`` is the product x*y; element 0 is the identity.
    ``generators`` are the elements ``from_table`` ran Light's test on,
    which generate G.  ``names`` optionally maps generator names to element
    indices.
    """

    order: int
    table: np.ndarray
    inverse: np.ndarray
    generators: tuple[int, ...]
    label: Optional[str] = None
    names: Mapping[str, int] = field(default_factory=dict, repr=False)

    def mul(self, x: int, y: int) -> int:
        return int(self.table[x, y])

    @property
    def generator_rows(self) -> np.ndarray:
        """The rows of ``table`` at ``generators``."""
        return self.table.take(self.generators, axis=0)

    def inv(self, x: int) -> int:
        return int(self.inverse[x])

    def commutator(self, x: int, y: int) -> int:
        t = self.table
        return int(t[t[t[x, y], self.inverse[x]], self.inverse[y]])

    def commutators_of(self, xs, ys) -> np.ndarray:
        """Matrix of commutators [x, y] for x in ``xs`` (rows) and y in
        ``ys`` (columns)."""
        t, inv = self.table, self.inverse
        xs, ys = np.asarray(xs, dtype=np.intp), np.asarray(ys, dtype=np.intp)
        return t[t[t[xs[:, None], ys[None, :]], inv[xs][:, None]], inv[ys][None, :]]

    def power(self, x: int, k: int) -> int:
        if k < 0:
            x, k = self.inv(x), -k
        acc, base = 0, x
        while k:
            if k & 1:
                acc = int(self.table[acc, base])
            base = int(self.table[base, base])
            k >>= 1
        return acc

    def element_order(self, x: int) -> int:
        return int(self.element_orders[x])

    @cached_property
    def element_orders(self) -> np.ndarray:
        """ord(x) for every x, one prime q at a time.  For q^e exactly
        dividing |G|, y = x^(|G|/q^e) has order the q-part of ord(x), so
        that part is q to the number of steps y -> y^q takes to reach the
        identity, at most e."""
        n, t = self.order, self.table
        orders = np.ones(n, dtype=np.int64)
        rest = n
        while rest > 1:
            q, qe = least_prime_factor(rest), 1
            while rest % q == 0:
                rest, qe = rest // q, qe * q
            y, to_q = power_map(t, n // qe), power_map(t, q)
            live = y != 0
            while live.any():
                orders[live] *= q
                y = to_q.take(y)
                live = y != 0
        return orders

    @cached_property
    def centralizer_sizes(self) -> np.ndarray:
        return (self.table == self.table.T).sum(axis=1)

    @cached_property
    def center_mask(self) -> np.ndarray:
        """x is central iff it commutes with every generator: its
        centralizer is a subgroup, so it then holds all of G."""
        gens = np.asarray(self.generators, dtype=np.intp)
        return (self.table[:, gens] == self.table[gens].T).all(axis=1)

    @cached_property
    def is_abelian(self) -> bool:
        return bool(self.center_mask.all())

    def conjugates_by_generators(self, xs) -> np.ndarray:
        """Matrix of a x a^-1 for generators a (rows) and x in ``xs``
        (columns)."""
        t, gens = self.table, np.asarray(self.generators, dtype=np.intp)
        return t[t[gens[:, None], np.asarray(xs, dtype=np.intp)[None, :]],
                 self.inverse[gens][:, None]]

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        t, inv = self.table, self.inverse
        n = self.order
        seen = np.zeros(n, dtype=bool)
        classes = []
        ys = np.arange(n)
        for x in range(n):
            if seen[x]:
                continue
            in_cls = np.zeros(n, dtype=bool)
            in_cls[t[t[ys, x], inv[ys]]] = True
            seen |= in_cls
            classes.append(tuple(np.flatnonzero(in_cls).tolist()))
        return tuple(classes)

    @cached_property
    def order_profile(self) -> dict[int, int]:
        """Multiset of element orders, as {order: count}."""
        vals, counts = np.unique(self.element_orders, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    @cached_property
    def frattini(self) -> Optional["FrattiniQuotient"]:
        """Phi(G) and the rank of G/Phi(G) when the order is a power of a
        prime p, else None."""
        return _frattini_quotient(self)

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.order_profile)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"<FiniteGroup{tag} order={self.order}>"


def _check_order(order: int, shown: Optional[str] = None) -> None:
    """Refuse an order outside 1..TABLE_CAP, printed as ``shown`` if given."""
    if order < 1:
        raise NotAGroup(f"order must be >= 1, got {order}")
    if order > TABLE_CAP:
        raise SizeLimit(f"order {shown or order} exceeds table cap {TABLE_CAP}")


def from_table(order: int,
               table,
               label: Optional[str] = None,
               *,
               names: Optional[Mapping[str, int]] = None) -> FiniteGroup:
    """Validate a multiplication table and wrap it as a FiniteGroup.

    Associativity is decided by Light's test (Clifford & Preston, *Algebraic
    Theory of Semigroups* I, 1.2): the elements a with (x*a)*y = x*(a*y) for
    all x, y form a submagma, so checking a set that generates the table
    under multiplication checks every triple.  The set is the span walk's
    picks, kept as the group's ``generators``.  Each pick is checked in row
    blocks of about ``_LIGHT_BLOCK`` cells, and the first failing (x, y) in
    row-major order is reported.

    A C-contiguous int32 array that owns its data is taken over as the
    group's table without a copy, and marked read-only: the caller hands
    over a table it built, as ``relabel``, ``materialize`` and the ``.grp``
    reader do.  Any other table (another dtype, a view, a non-contiguous
    array, nested lists) is range-checked as it is and then copied into a
    C-contiguous int32 array.

    Raises :class:`NotAGroup` naming the first violated law, or
    :class:`SizeLimit` when the order exceeds the table cap.
    """
    _check_order(order)
    if isinstance(table, np.ndarray) and table.dtype.kind in "iu":
        t = table  # range-checked as it is, then taken over or copied narrowed
    else:
        try:
            t = np.array(table, dtype=np.int64)
        except OverflowError:
            raise NotAGroup("table entries out of range") from None
    if t.shape != (order, order):
        raise NotAGroup(f"table shape {t.shape} does not match order {order}")
    if t.min(initial=0) < 0 or t.max(initial=0) >= order:
        raise NotAGroup("table entries out of range")
    if not (t is table and t.dtype == np.int32 and t.flags.owndata
            and t.flags.c_contiguous):
        t = t.astype(np.int32, order="C")

    # a law's first failure is the argmax of its failure mask, which is 0
    # when nothing fails; the mask is read at that index
    idx = np.arange(order, dtype=np.int32)
    x = int((t[0] != idx).argmax())
    if t[0, x] != x:
        raise NotAGroup(f"identity law fails: 0*{x} = {int(t[0, x])}")
    x = int((t[:, 0] != idx).argmax())
    if t[x, 0] != x:
        raise NotAGroup(f"identity law fails: {x}*0 = {int(t[x, 0])}")

    # entries are at least 0, so a row's minimum is 0 exactly when it holds
    # a 0, and argmin finds the first one
    inv = t.argmin(axis=1).astype(np.int32)  # first y with x*y = 0
    has_inv = t[idx, inv] == 0
    fails = ~has_inv | (t[inv, idx] != 0)
    x = int(fails.argmax())
    if fails[x]:
        y = int(inv[x])
        if not has_inv[x]:
            raise NotAGroup(f"no inverse for {x}")
        raise NotAGroup(f"inverse law fails: {x}*{y} = 0 but {y}*{x} = {int(t[y, x])}")

    # element 0 is the identity, so the span walk's closures only grow
    gens = []
    rows = min(max(1, _LIGHT_BLOCK // order), order)
    # one set of block buffers per call; every index is in range, so
    # "clip" never clips, and unlike "raise" it writes into ``out`` directly
    left = np.empty((rows, order), dtype=np.int32)
    right = np.empty_like(left)
    bad = np.empty((rows, order), dtype=bool)
    for a in span_walk(t, range(1, order)):
        ta = t[a]
        for lo in range(0, order, rows):
            block = t[lo:lo + rows]
            h = block.shape[0]
            # (x*a)*y != x*(a*y), indexed [x - lo, y]
            t.take(block[:, a], axis=0, out=left[:h], mode="clip")
            block.take(ta, axis=1, out=right[:h], mode="clip")
            np.not_equal(left[:h], right[:h], out=bad[:h])
            x, y = divmod(int(bad[:h].argmax()), order)
            if bad[x, y]:
                raise NotAGroup(f"associativity fails at ({lo + x},{a},{y})")
        gens.append(a)

    t.flags.writeable = False
    inv.flags.writeable = False
    return FiniteGroup(order=order, table=t, inverse=inv, generators=tuple(gens),
                       label=label, names=dict(names or {}))


# ---------------------------------------------------------------------------
# relabelings


def relabel(G: FiniteGroup, perm: Sequence[int]) -> tuple[FiniteGroup, "GroupMap"]:
    """Relabel elements by ``perm`` (which must fix 0); returns (H, iso G->H).

    ``perm`` is range-checked, then scattered into its inverse q; it is a
    permutation exactly when that fills every slot.  H's table is
    p[G.table[q[u], q[v]]]: the rows q[u] are gathered straight into the
    new table, and each block of about ``_RELABEL_BLOCK`` cells has its
    columns permuted into one buffer and its values mapped back in place,
    so the only n x n array is H's."""
    n = G.order
    p = np.asarray(perm, dtype=np.int32)
    bad = ValueError("perm must be a permutation of 0..order-1 fixing 0")
    if p.shape != (n,) or p[0] != 0 or p.min() < 0 or p.max() >= n:
        raise bad
    q = np.full(n, -1, dtype=np.int32)
    q[p] = np.arange(n, dtype=np.int32)
    if (q < 0).any():
        raise bad
    # every index is in range, so "clip" never clips; unlike "raise" it
    # writes into ``out`` without a buffer
    t2 = G.table.take(q, axis=0, out=np.empty_like(G.table), mode="clip")
    rows = max(1, _RELABEL_BLOCK // n)
    buf = np.empty((min(rows, n), n), dtype=np.int32)
    for lo in range(0, n, rows):
        block = t2[lo:lo + rows]
        h = block.shape[0]
        block.take(q, axis=1, out=buf[:h], mode="clip")
        p.take(buf[:h], out=block, mode="clip")
    H = from_table(n, t2, label=G.label)
    return H, GroupMap(G, H, p)


# ---------------------------------------------------------------------------
# standard constructors


@lru_cache(maxsize=None)
def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n must be positive")
    _check_order(n)
    idx = np.arange(n)
    return from_table(n, (idx[:, None] + idx[None, :]) % n, label=f"C{n}")


def digit_sum_table(p: int, k: int) -> np.ndarray:
    """The p^k x p^k int32 table of x (+) y, the digitwise sum mod p of the
    base-p digit strings of x and y (the group law of (Z/p)^k).

    Built one leading digit at a time: with q = p^e, the pair (d, v), (d', v')
    of a leading digit and e lower digits adds to ((d + d') mod p)·q + v (+) v',
    written through a (p, q, p, q) view of the next table in one broadcast
    add.  Each step reads a table 1/p^2 the size of the one it writes, so the
    whole build costs about one pass over the result."""
    d = np.arange(p, dtype=np.int32)
    lead = (d[:, None] + d) % p
    table = np.zeros((1, 1), dtype=np.int32)
    for e in range(k):
        q = p ** e
        nxt = np.empty((p * q, p * q), dtype=np.int32)
        np.add((lead * q)[:, None, :, None], table[None, :, None, :],
               out=nxt.reshape(p, q, p, q))
        table = nxt
    return table


def _perm_group(perms: list[tuple[int, ...]], label: str,
                names: Optional[dict[str, int]] = None) -> FiniteGroup:
    """The permutations in lexicographic order under p_i * p_j = p_i o p_j.
    A permutation's index is read off a dense rank array over its big-endian
    key sum_t p[t]·npts^(npts-1-t), whose numeric order is the lexicographic
    order of the tuples (npts^npts <= 7^7 entries under the table cap).  The
    keys of a row block of compositions are summed one point t at a time,
    from P[i, P[j, t]]; a key outside the set reads -1, which ``from_table``
    refuses."""
    perms = sorted(perms)
    m = len(perms)
    npts = len(perms[0])
    P = np.array(perms, dtype=np.int32)
    pows = [npts ** (npts - 1 - t) for t in range(npts)]
    rank = np.full(npts ** npts, -1, dtype=np.int32)
    rank[sum(pw * P[:, t] for t, pw in enumerate(pows))] = np.arange(m, dtype=np.int32)
    table = np.empty((m, m), dtype=np.int32)
    rows = max(1, _LIGHT_BLOCK // m)
    for lo in range(0, m, rows):
        block = P[lo:lo + rows]
        key = np.zeros((len(block), m), dtype=np.int32)
        for t, pw in enumerate(pows):
            key += pw * block.take(P[:, t], axis=1)  # [i, j] = P[lo+i, P[j, t]]
        rank.take(key, out=table[lo:lo + rows])
    return from_table(m, table, label=label, names=names)


@lru_cache(maxsize=None)
def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n points; adjacent transpositions named s1..s{n-1}."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_order(math.factorial(n), f"{n}!")
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    perms.sort()
    rank = {p: i for i, p in enumerate(perms)}
    names = {}
    for i in range(1, n):
        tr = list(range(n))
        tr[i - 1], tr[i] = tr[i], tr[i - 1]
        names[f"s{i}"] = rank[tuple(tr)]
    return _perm_group(perms, f"S{n}", names)


def _parity(p: tuple[int, ...]) -> int:
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return inv % 2


@lru_cache(maxsize=None)
def alternating(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n must be positive")
    _check_order(math.factorial(n) // 2 if n > 1 else 1, f"{n}!/2")
    perms = [tuple(p) for p in itertools.permutations(range(n)) if _parity(tuple(p)) == 0]
    return _perm_group(perms, f"A{n}")


@lru_cache(maxsize=None)
def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order."""
    if order < 2 or order % 2:
        raise ValueError("dihedral order must be even and >= 2")
    _check_order(order)
    n = order // 2
    # element f*n + i  ~  s^f r^i;  s^f1 r^i1 * s^f2 r^i2 = s^(f1+f2) r^((-1)^f2 i1 + i2)
    f, i = np.divmod(np.arange(order, dtype=np.int32), n)
    table = (f[:, None] ^ f) * n + (i[:, None] * (1 - 2 * f) + i) % n
    return from_table(order, table, label=f"D{order}")


@lru_cache(maxsize=None)
def dicyclic(order: int) -> FiniteGroup:
    """Dicyclic group <x, y | x^(2n)=1, y^2=x^n, y x y^-1 = x^-1> of order 4n."""
    if order < 4 or order % 4:
        raise ValueError("dicyclic order must be a positive multiple of 4")
    _check_order(order)
    n = order // 4
    m = 2 * n
    # element f*m + i  ~  x^i y^f;  x^i1 y^f1 * x^i2 y^f2 = x^(i1 + (-1)^f1 i2) y^(f1+f2),
    # and y^2 = x^n
    f, i = np.divmod(np.arange(order, dtype=np.int32), m)
    table = ((f[:, None] ^ f) * m
             + (i[:, None] + (1 - 2 * f[:, None]) * i + n * (f[:, None] & f)) % m)
    label = "Q8" if order == 8 else f"Dic{order}"
    return from_table(order, table, label=label)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    order = G.order * H.order
    _check_order(order)
    # index (g, h) -> g*|H| + h
    tg = np.repeat(np.repeat(G.table, H.order, axis=0), H.order, axis=1)
    th = np.tile(H.table, (G.order, G.order))
    table = tg.astype(np.int64) * H.order + th
    lg = G.label or "?"
    lh = H.label or "?"
    return from_table(order, table, label=f"{lg}x{lh}")


# ---------------------------------------------------------------------------
# subgroups, quotients, maps


# Sets up to this size are checked for closure on all |S|^2 products;
# larger proper ones by the generator law of ``_is_closed``.
_SMALL_SET = 128


def _is_closed(G: FiniteGroup, els: np.ndarray, mask: np.ndarray) -> bool:
    """Whether the sorted set ``els`` of distinct indices in 0..|G|-1, with
    membership ``mask``, is closed under multiplication, decided exactly.

    A set of |G| elements is all of G, closed since ``from_table``
    range-checked every product.  A set of at most ``_SMALL_SET`` elements
    is checked on all |S|^2 products.  A larger one is checked on a
    generating set, as Light's test checks associativity.  The s with S*s in S are closed under products, since
    S*(s*t) = (S*s)*t lies in S*t.  A span walk over S picks a set A with
    S inside <A>; in a finite group <A> is the product closure of A.  So if
    S*a lies in S for every a in A, then every s in S has S*s in S, and S is
    closed; the converse is plain.  That is |A|*|S| cells, |A| at most
    log2 |G|, besides the walk."""
    t = G.table
    if els.size == G.order:
        return True
    if els.size <= _SMALL_SET:
        return bool(mask[t.take(els, axis=0).take(els, axis=1)].all())
    gens = np.fromiter(span_walk(t, els.tolist()), dtype=np.intp)
    return bool(mask[t.take(els, axis=0).take(gens, axis=1)].all())


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of ``parent``: ``indices``, its elements as a sorted
    read-only index array containing 0, and its membership ``mask``.
    ``elements`` is the same set as a tuple, made when first asked for;
    it is hashable, so it serves as a key.

    The constructor takes any sorted sequence of indices (an array is used
    without a round trip through Python ints) and checks it exactly: it
    must be sorted, unique and hold 0, and it must be closed under
    multiplication (see ``_is_closed``)."""

    parent: FiniteGroup
    indices: np.ndarray

    def __post_init__(self):
        els = np.array(self.indices, dtype=np.intp)
        if (els.ndim != 1 or els.size == 0 or els[0] != 0
                or (els[1:] <= els[:-1]).any()):
            raise ValueError("elements must be sorted, unique, and contain 0")
        els.flags.writeable = False
        object.__setattr__(self, "indices", els)
        # building the mask refuses an index past the parent (IndexError)
        if not _is_closed(self.parent, els, self.mask):
            raise ValueError("set is not closed under multiplication")

    @cached_property
    def mask(self) -> np.ndarray:
        m = np.zeros(self.parent.order, dtype=bool)
        m[self.indices] = True
        m.flags.writeable = False
        return m

    @cached_property
    def elements(self) -> tuple[int, ...]:
        return tuple(self.indices.tolist())

    @property
    def order(self) -> int:
        return self.indices.size

    @property
    def is_whole(self) -> bool:
        return self.order == self.parent.order

    def is_generated_by(self, x: int) -> bool:
        """<x> is this subgroup: x lies in it and has its order."""
        return bool(self.mask[x] and self.parent.element_orders[x] == self.order)

    def normality_violation(self) -> Optional[tuple[int, int]]:
        """First (x, s), x-major, with x s x^-1 outside the subgroup, or None.
        Every x is scanned only when ``is_normal`` fails."""
        if self.is_normal:
            return None
        G = self.parent
        arr = self.indices
        outside = ~self.mask[G.table[G.table[:, arr], G.inverse[:, None]]]
        x, i = np.argwhere(outside)[0]
        return (int(x), int(arr[i]))

    @cached_property
    def is_normal(self) -> bool:
        """a N a^-1 lies in N for every generator a.  The x with
        x N x^-1 in N are closed under products, so they are all of G."""
        return bool(self.mask[self.parent.conjugates_by_generators(self.indices)].all())

    def __repr__(self) -> str:
        return f"<Subgroup order={self.order} of {self.parent!r}>"


def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    return Subgroup(G, closure_indices(G.table, gens))


def normal_closure(G: FiniteGroup, seeds) -> Subgroup:
    """Smallest normal subgroup holding ``seeds``: the closure of the seeds
    and their conjugates by the generators, repeated until conjugation by
    every generator maps it into itself, which makes it normal (see
    ``Subgroup.is_normal``)."""
    els = closure_indices(G.table, np.asarray(seeds, dtype=np.intp).ravel())
    inside = np.zeros(G.order, dtype=bool)
    while True:
        inside[els] = True
        conj = G.conjugates_by_generators(els).ravel()
        if inside[conj].all():
            return Subgroup(G, els)
        els = closure_indices(G.table, np.concatenate([els, conj]))


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """G' as the normal closure M of the commutators [a, b] of generators.
    M lies in G', which is normal and holds them; modulo M the generators
    commute, so G/M is abelian and M holds G'."""
    return normal_closure(G, G.commutators_of(G.generators, G.generators))


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, "GroupMap"]:
    """Quotient of G by the normal subgroup N, with canonical projection.

    Coset representatives are the minimal indices of each coset; the identity
    coset therefore maps to index 0.
    """
    if N.parent is not G:
        raise ValueError("N is not a subgroup of G")
    viol = N.normality_violation()
    if viol is not None:
        x, s = viol
        raise NotNormal(f"{x}*{s}*{x}^-1 lies outside the subgroup")
    reps = G.table[:, N.indices].min(axis=1)  # min of the left coset xN
    rep_list, images = np.unique(reps, return_inverse=True)
    qtable = images[G.table[np.ix_(rep_list, rep_list)]]
    Q = from_table(len(rep_list), qtable, label=f"{G.label or '?'}/N{N.order}")
    return Q, GroupMap(G, Q, images)


@dataclass(frozen=True, eq=False)
class GroupMap:
    """A homomorphism of finite groups, validated on construction.

    The source gives ``order``, ``generators`` that generate it, and
    ``generator_rows``, the products a*y for each generator a (rows) and
    every y (columns): a ``FiniteGroup``, or the closed-form law of a
    standard JN2 group (``jn2.Jn2Law``), which is a group because its
    tabulation by ``jn2.materialize`` passes ``from_table``.  The target is
    a ``FiniteGroup``, read by gathers from its table.

    Images must be integers in 0..target.order-1, with f(0) = 0.  The map
    checks f(a*y) = f(a)*f(y) for each generator a of the source and every
    y: once f(0) = 0, the x with f(x*y) = f(x)*f(y) for all y are closed
    under products, so they are the whole source.  ``images`` is kept as a
    read-only int32 copy."""

    source: FiniteGroup  # or a jn2.Jn2Law
    target: FiniteGroup
    images: np.ndarray

    def __post_init__(self):
        img = np.asarray(self.images)
        if img.shape != (self.source.order,):
            raise ValueError("images must list one target index per source element")
        if img.dtype.kind not in "iu":
            raise ValueError(f"images must be integers, got dtype {img.dtype}")
        if img.min() < 0 or img.max() >= self.target.order:
            x = int(np.argmax((img < 0) | (img >= self.target.order)))
            raise ValueError(f"image {int(img[x])} of {x} is outside "
                             f"0..{self.target.order - 1}")
        img = img.astype(np.int32)
        img.flags.writeable = False
        object.__setattr__(self, "images", img)
        if img[0] != 0:
            raise ValueError("homomorphisms must send identity to identity")
        gens = np.asarray(self.source.generators, dtype=np.intp)
        lhs = img.take(self.source.generator_rows)
        rhs = self.target.table.take(img.take(gens), axis=0).take(img, axis=1)
        if (lhs != rhs).any():
            i, y = np.argwhere(lhs != rhs)[0]
            raise ValueError(f"not a homomorphism at ({int(gens[i])},{int(y)})")

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    @cached_property
    def is_bijective(self) -> bool:
        return self.source.order == self.target.order and self.is_surjective

    @cached_property
    def is_surjective(self) -> bool:
        hit = np.zeros(self.target.order, dtype=bool)
        hit[self.images] = True
        return bool(hit.all())


# ---------------------------------------------------------------------------
# nilpotency


def lower_central_series(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """gamma_1 = G, gamma_{k+1} = [gamma_k, G], until the series stabilizes.
    [gamma_k, G] is the normal closure M of the [x, a], x in gamma_k, a a
    generator: modulo M every such x commutes with the generators, so it is
    central, and [gamma_k, G] lies in M."""
    series = [Subgroup(G, np.arange(G.order))]
    while True:
        cur = series[-1].indices
        nxt = normal_closure(G, G.commutators_of(cur, G.generators))
        if np.array_equal(nxt.indices, cur):
            break
        series.append(nxt)
        if nxt.order == 1:
            break
    return tuple(series)


def nilpotency_class(G: FiniteGroup) -> Optional[int]:
    series = lower_central_series(G)
    if series[-1].order != 1:
        return None
    return len(series) - 1


# ---------------------------------------------------------------------------
# the Frattini quotient of a p-group


@dataclass(frozen=True, eq=False)
class FrattiniQuotient:
    """G/Phi(G) for a group G of order p^k, with Phi(G) = G'G^p.

    ``in_phi`` is the membership mask of Phi(G).  G/Phi(G) is elementary
    abelian of rank ``rank``, so |G| = p^rank |Phi|.  By the Burnside basis
    theorem a set generates G exactly when its image spans G/Phi(G); so a
    generating set keeps generating without its elements in Phi, and it
    has at least ``rank`` elements outside Phi.
    """

    p: int
    rank: int
    in_phi: np.ndarray


def _frattini_quotient(G: FiniteGroup) -> Optional[FrattiniQuotient]:
    """The Frattini quotient of G if |G| = p^k with k >= 1, else None."""
    n, t = G.order, G.table
    if n == 1:
        return None
    p = least_prime_factor(n)
    rest = n
    while rest % p == 0:
        rest //= p
    if rest != 1:
        return None
    phi = closure_indices(t, np.concatenate([derived_subgroup(G).indices,
                                             power_map(t, p)]))
    index, rank = n // phi.size, 0
    while index > 1:
        index //= p
        rank += 1
    in_phi = np.zeros(n, dtype=bool)
    in_phi[phi] = True
    in_phi.flags.writeable = False
    return FrattiniQuotient(p=p, rank=rank, in_phi=in_phi)


# ---------------------------------------------------------------------------
# isomorphism testing


def _signatures(G: FiniteGroup) -> np.ndarray:
    """Per-element invariant tuples used to prune isomorphism candidates."""
    sq = G.table[np.arange(G.order), np.arange(G.order)]
    return np.stack([G.element_orders,
                     G.centralizer_sizes,
                     G.element_orders[sq]], axis=1)


def is_isomorphic(G: FiniteGroup, H: FiniteGroup) -> Optional[GroupMap]:
    """Explicit isomorphism G -> H, or None.

    Backtracks over images of the greedy generating sequence g_1, g_2, ...
    that ``span_walk`` picks from G's elements sorted by (-order,
    centralizer size, index), trying for g_i each h in H with the same
    element order, centralizer size and square order, in index order, that
    is not yet an image.  A candidate h is accepted exactly when some
    injective homomorphism on K = <g_1..g_i> extends the map f placed on
    D = <g_1..g_(i-1)> and sends g_i to h.  G's side is fixed once per
    call: the breadth-first rounds that reach K from D by right
    multiplication with g_1..g_i, each new x as x = u*g_k with u in D or an
    earlier round.  Such a homomorphism is unique, since its values there
    are forced: f(x) = f(u)*f(g_k).  So a candidate costs one gather per
    round and one test: no new element is sent into f(D), and
    f(g_k*y) = f(g_k)*f(y) for every k <= i and y in K, i*|K| cells.
    - The test makes f a homomorphism on K, by the generator law of the
      module docstring applied to K and its generators g_1..g_i.
    - It makes f injective: a nontrivial kernel element is not in D, where
      f is injective, so it is new, and its image is the identity, the
      image of an element of D.
    Conversely, an injective homomorphism extending f passes the test.  So
    the acceptance rule, the search tree and the map returned are those of
    any exact extension test over the same sequence and candidate order,
    such as assigning the products of new elements with the domain one
    table entry at a time until a conflict.
    """
    if G.order != H.order:
        return None
    if G.order > ISO_SIZE_LIMIT:
        raise SizeLimit(f"order {G.order} exceeds isomorphism bound {ISO_SIZE_LIMIT}")
    sigG, sigH = _signatures(G), _signatures(H)
    if sorted(map(tuple, sigG.tolist())) != sorted(map(tuple, sigH.tolist())):
        return None

    n, TG, TH = G.order, G.table, H.table
    orders, csz = G.element_orders, G.centralizer_sizes
    picks = span_walk(TG, sorted(range(1, n), key=lambda x: (-orders[x], csz[x], x)))
    seq = np.fromiter(picks, dtype=np.intp)
    # per level i: the rounds (u, k, x), the elements new in K, K itself,
    # and the products g_k*y for k <= i and y in K
    levels = []
    known = np.zeros(n, dtype=bool)
    known[0] = True
    dom = np.zeros(1, dtype=np.intp)
    for i in range(1, seq.size + 1):
        new, rounds = dom, []
        while True:
            prods = TG[new][:, seq[:i]].ravel()
            pos = np.flatnonzero(~known[prods])
            if pos.size == 0:
                break
            xs, first = np.unique(prods[pos], return_index=True)
            rounds.append((new[pos[first] // i], pos[first] % i, xs))
            known[xs] = True
            new = xs
        dom = np.flatnonzero(known)
        levels.append((rounds, np.concatenate([x for _, _, x in rounds]), dom,
                       TG[seq[:i]][:, dom]))

    buckets: dict[tuple, list[int]] = {}
    for h in range(n):
        buckets.setdefault(tuple(sigH[h].tolist()), []).append(h)
    gmap = np.zeros(n, dtype=np.int64)
    fgen = np.zeros(seq.size, dtype=np.int64)   # f(g_1), f(g_2), ...
    used = np.zeros(n, dtype=bool)   # images of the domain so far
    used[0] = True
    nodes = 0

    def backtrack(i: int) -> bool:
        nonlocal nodes
        if i == len(levels):
            return True
        rounds, added, dom, prods = levels[i]
        for h in buckets.get(tuple(sigG[seq[i]].tolist()), []):
            if used[h]:
                continue
            nodes += 1
            if nodes > _ISO_BUDGET:
                raise SearchBudgetExceeded(
                    f"isomorphism search exceeded {_ISO_BUDGET} nodes", explored=nodes)
            fgen[i] = h
            for u, k, x in rounds:
                gmap[x] = TH[gmap[u], fgen[k]]
            img = gmap[added]
            if used[img].any() or not np.array_equal(gmap[prods],
                                                     TH[fgen[:i + 1]][:, gmap[dom]]):
                continue
            used[img] = True
            if backtrack(i + 1):
                return True
            used[img] = False
        return False

    if not backtrack(0):
        return None
    return GroupMap(G, H, gmap)


# ---------------------------------------------------------------------------
# Cayley-table text format


def to_cayley_text(G: FiniteGroup) -> str:
    """Bit-exact text form: optional '# label:' line, order, then the rows."""
    lines = []
    if G.label:
        lines.append(f"# label: {G.label}")
    lines.append(str(G.order))
    names = [str(i) for i in range(G.order)]
    lines.extend(" ".join(map(names.__getitem__, row.tolist())) for row in G.table)
    return "\n".join(lines) + "\n"


# The body's byte classes are the ASCII ones of str.splitlines() (line
# breaks; "\r\n" is one) and str.split() (whitespace).  Every other byte,
# non-ASCII ones included, belongs to an entry.
_LINE_BREAKS = b"\n\r\x0b\x0c\x1c\x1d\x1e"
_LINE_END = re.compile(rb"\r\n|[\n\r\x0b\x0c\x1c-\x1e]")
# The order line: an ASCII integer between the ASCII whitespace int()
# strips; int() alone also reads '_' separators, non-ASCII digits and
# non-ASCII spaces.
_ORDER_LINE = re.compile(r"[\t-\r ]*[+-]?[0-9]+[\t-\r ]*")
# Bytes per parse block, extended to whole rows; bounds the temporaries.
_BLOCK = 1 << 16


def _is_break(a: np.ndarray) -> np.ndarray:
    """Bytes in _LINE_BREAKS: 0x0a-0x0d and 0x1c-0x1e.  ``a`` is uint8, so
    the subtraction wraps the bytes below each range to large values."""
    return ((a - 10) < 4) | ((a - 28) < 3)


def _is_space(a: np.ndarray) -> np.ndarray:
    """ASCII whitespace: the line breaks, tab, 0x1f and space."""
    return ((a - 9) < 5) | ((a - 28) < 5)


def _read_header(data: bytes) -> tuple[Optional[str], int, int]:
    """(label, order, byte offset of the first row).  The comment line and
    the order line are split as ``str.splitlines`` splits the UTF-8 text;
    they lie within as many ASCII lines, since every ASCII break is one."""
    end = 0
    for _ in range(1 + data.startswith(b"#")):
        m = _LINE_END.search(data, end)
        end = m.end() if m else len(data)
    lines = data[:end].decode().splitlines(keepends=True)
    label = None
    if lines and lines[0].startswith("#"):
        comment = lines.pop(0)[1:].strip()
        if comment.startswith("label:"):
            label = comment[len("label:"):].strip()
    if not lines:
        raise NotAGroup("missing order line")
    line = lines[0].splitlines()[0]
    if not _ORDER_LINE.fullmatch(line):
        raise _not_ascii_int(line.encode(), "order line")
    order = int(line)
    _check_order(order)
    return label, order, end - len("".join(lines[1:]).encode())


def _not_ascii_int(text: bytes, what: str) -> NotAGroup:
    """The error for a table entry or order line that is not
    ``[+-]?[0-9]+``.  ASCII text without '_' re-raises ``int()``'s own
    ValueError; text that int() would read anyway (``1_0``, non-ASCII
    digits or spaces) is refused."""
    if text.isascii() and b"_" not in text:
        int(text.decode())
    shown = text.decode(errors="backslashreplace")
    return NotAGroup(f"{what} {shown!r} is not an ASCII integer")


def _parse_rows(a: np.ndarray, breaks: np.ndarray, row0: int, order: int,
                out: np.ndarray) -> None:
    """Parse rows row0, row0+1, ... from the bytes ``a``, split at the local
    positions ``breaks``, into ``out``, their slots of the flat table.

    Faults are raised in the old per-token order: the first row holding a
    bad entry or a wrong entry count raises, a bad entry before the count.
    An entry is valued from its digits right-aligned at its end; one with
    more digits than order - 1 is read with int() (zero-padded, else out of
    range, which ``from_table`` reports).
    """
    nrows = len(breaks) + 1
    is_entry = ~_is_space(a)
    edges = np.flatnonzero(np.diff(is_entry, prepend=False, append=False))
    first, stop = edges[0::2], edges[1::2]
    counts = np.diff(np.searchsorted(first, breaks), prepend=0, append=len(first))
    lead = a[first]
    signed = (lead == ord("+")) | (lead == ord("-"))
    ndigits = stop - first - signed
    width = len(str(order - 1))

    digits = a - np.uint8(ord("0"))  # wraps; read only at digit positions
    place = stop - 1
    vals = digits[place].astype(np.int32)
    for k in range(1, width):
        place -= 1
        d = digits.take(place, mode="clip")
        d[ndigits <= k] = 0
        vals += d * np.int32(10 ** k)
    vals[lead == ord("-")] *= -1

    short = counts != order
    # every entry is [+-]?[0-9]+ exactly when its only non-digit is its sign
    if (short.any() or ndigits.min(initial=1) < 1 or ndigits.max(initial=1) > width
            or (np.count_nonzero(is_entry) - np.count_nonzero(digits < 10)
                != np.count_nonzero(signed))):
        others = np.concatenate(([0], np.cumsum(is_entry & (digits >= 10))))
        bad = (others[stop] - others[first] != signed) | (ndigits < 1)
        for i in np.flatnonzero(~bad & (ndigits > width)):
            try:
                v = int(a[first[i]:stop[i]].tobytes())
            except ValueError:  # over int()'s digit limit
                bad[i] = True
                continue
            vals[i] = v if 0 <= v < order else -1
        count_row = int(np.argmax(short)) if short.any() else nrows
        if bad.any():
            i = int(np.argmax(bad))
            bad_row = int(np.searchsorted(breaks, first[i]))
            if bad_row <= count_row:
                raise _not_ascii_int(a[first[i]:stop[i]].tobytes(),
                                     f"row {row0 + bad_row} entry")
        if count_row < nrows:
            raise NotAGroup(f"row {row0 + count_row} has {int(counts[count_row])} "
                            f"entries, expected {order}")
    out[:] = vals


def _parse_cayley(data: bytes) -> FiniteGroup:
    """Parse the text form.  The order is range-checked before any row is
    read; the table must be exactly ``order`` rows of exactly ``order``
    entries ``[+-]?[0-9]+`` separated by ASCII whitespace."""
    label, order, start = _read_header(data)
    size = len(data)
    buf = np.frombuffer(data, dtype=np.uint8)
    # line ends, kept only while they may still be the table's
    ends, nbreaks = [], 0
    for s in range(start, size, _BLOCK):
        pos = np.flatnonzero(_is_break(buf[s:s + _BLOCK])) + s
        # the "\n" of "\r\n" is whitespace at the start of the next row
        pos = pos[(buf[pos] != ord("\n")) | (buf[pos - 1] != ord("\r"))]
        nbreaks += len(pos)
        if nbreaks <= order:
            ends.append(pos)
    nrows = nbreaks + (start < size and data[-1] not in _LINE_BREAKS)
    if nrows != order:
        raise NotAGroup(f"expected {order} table rows, found {nrows}")
    ends = np.concatenate(ends)
    stops = np.append(ends, size)[:order]
    starts = np.concatenate(([start], ends + 1))[:order]

    table = np.empty((order, order), dtype=np.int32)
    flat = table.reshape(-1)
    r = 0
    while r < order:
        lo = int(starts[r])
        nxt = max(r + 1, int(np.searchsorted(stops, lo + _BLOCK, side="right")))
        _parse_rows(buf[lo:stops[nxt - 1]], ends[r:nxt - 1] - lo, r, order,
                    flat[r * order:nxt * order])
        r = nxt
    return from_table(order, table, label=label)


def write_cayley(G: FiniteGroup, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(to_cayley_text(G))


def read_cayley(path) -> FiniteGroup:
    with open(path, "rb") as fh:
        return _parse_cayley(fh.read())
