"""The generating set ``from_table`` certifies, and the laws checked on it.

Each law that ``fingroup`` checks on ``FiniteGroup.generators`` is compared
here with a test-local copy of the check over all n^2 pairs.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidquot import fingroup as fg
from braidquot import jn2
from braidquot.errors import NotAGroup
from references import (closed_on_all_products, closure_by_squaring, coset_walk_by_queue,
                        random_relabeling, span_walk_from_scratch)
from test_fingroup import LOOP6


# ---------------------------------------------------------------------------
# every constructor certifies a generating set


def _constructed(exhaustive_tiers):
    rng = random.Random(0)
    S3, S4, D8 = fg.symmetric(3), fg.symmetric(4), fg.dihedral(8)
    groups = [fg.cyclic(1), fg.cyclic(2), fg.cyclic(12),
              fg.from_table(16, fg.digit_sum_table(2, 4), label="E2^4"),
              fg.from_table(9, fg.digit_sum_table(3, 2), label="E3^2"),
              fg.symmetric(1), fg.symmetric(2), S3, S4, fg.symmetric(5),
              fg.alternating(1), fg.alternating(3), fg.alternating(4), fg.alternating(5),
              fg.dihedral(2), D8, fg.dihedral(18),
              fg.dicyclic(4), fg.dicyclic(8), fg.dicyclic(12),
              fg.direct_product(S3, fg.cyclic(4)), fg.direct_product(D8, fg.cyclic(2)),
              fg.quotient(S4, fg.derived_subgroup(S4))[0],
              fg.quotient(D8, fg.Subgroup(D8, np.flatnonzero(D8.center_mask)))[0],
              fg.quotient(S3, fg.subgroup_generated(S3, range(6)))[0],
              random_relabeling(fg.dihedral(12), rng)[0],
              jn2.materialize(jn2.parse_spec("I(3,1)")).group,
              jn2.materialize(jn2.parse_spec("II(2,2)")).group]
    relabelled, _ = random_relabeling(fg.dicyclic(16), rng)
    groups.append(fg._parse_cayley(fg.to_cayley_text(relabelled).encode()))
    groups += [G for k in range(1, 9) for G in exhaustive_tiers[k]]
    return groups


def test_every_constructor_certifies_generators(exhaustive_tiers):
    for G in _constructed(exhaustive_tiers):
        assert isinstance(G.generators, tuple), G.label
        assert 0 not in G.generators, G.label
        assert fg.closure_indices(G.table, G.generators).size == G.order, G.label


def test_generators_are_the_span_walk_picks():
    G = fg.symmetric(4)
    assert G.generators == tuple(fg.span_walk(G.table, range(1, G.order)))
    assert fg.cyclic(1).generators == ()


# ---------------------------------------------------------------------------
# the coset walk picks what the closure-from-scratch walk picks


def _walks_agree(table, candidates) -> list:
    picks = list(fg.span_walk(table, candidates))
    assert picks == list(span_walk_from_scratch(table, candidates))
    return picks


def test_coset_walk_matches_closure_walk(small_corpus):
    rng = random.Random(0)
    for G0 in small_corpus:
        for G in [G0] + [random_relabeling(G0, rng)[0] for _ in range(3)]:
            n = G.order
            assert tuple(_walks_agree(G.table, range(1, n))) == G.generators, G.label
            # any candidate order, such as is_isomorphic's, and any first picks
            _walks_agree(G.table, rng.sample(range(n), n))
            _walks_agree(G.table, rng.sample(range(n), min(n, 2)) + list(range(n)))


def test_walks_match_references_on_any_candidate_form(small_corpus):
    """Shuffled candidates with repeats, given as a list of ints, a list of
    numpy ints or an int64 or int32 array: the span walk picks what the
    closure-from-scratch walk and the queue-only walk pick, and
    ``closure_indices`` gives the closure by squaring."""
    rng = random.Random(1)
    for G in small_corpus:
        t = G.table
        for _ in range(8):
            cands = rng.choices(range(G.order), k=rng.randint(0, 2 * G.order))
            picks = list(span_walk_from_scratch(t, cands))
            assert list(coset_walk_by_queue(t, cands)) == picks, G.label
            closure = closure_by_squaring(t, cands)
            for form in (cands, [np.int64(x) for x in cands],
                         np.array(cands, dtype=np.int64), np.array(cands, dtype=np.int32)):
                assert list(fg.span_walk(t, form)) == picks, G.label
                assert np.array_equal(fg.closure_indices(t, form), closure), G.label


def test_coset_walk_matches_closure_walk_over_the_center(specs_243):
    rng = random.Random(2)
    for spec in specs_243:
        G0 = jn2.materialize(spec).group
        for G in (G0, random_relabeling(G0, rng)[0]):
            z = min(x for x in np.flatnonzero(G.center_mask)
                    if G.element_order(x) == spec.center_order)
            # z first: G/<z> is elementary abelian of rank 2m
            assert len(_walks_agree(G.table, [z, *range(G.order)])) == 2 * spec.m + 1


# ---------------------------------------------------------------------------
# n^2 references, as the laws were checked before they used the generators


def _center_mask_n2(G):
    return (G.table == G.table.T).sum(axis=1) == G.order


def _derived_n2(G):
    t, inv = G.table, G.inverse
    comm = t[t[t, inv[:, None]], inv[None, :]]
    return tuple(int(x) for x in fg.closure_indices(t, np.unique(comm)))


def _lower_central_n2(G):
    t, inv = G.table, G.inverse
    comm = t[t[t, inv[:, None]], inv[None, :]]
    series = [tuple(range(G.order))]
    while True:
        nxt = tuple(int(x) for x in
                    fg.closure_indices(t, np.unique(comm[np.asarray(series[-1])])))
        if nxt == series[-1]:
            return series
        series.append(nxt)
        if len(nxt) == 1:
            return series


def _normality_violation_n2(N):
    G = N.parent
    arr = np.asarray(N.elements)
    outside = ~N.mask[G.table[G.table[:, arr], G.inverse[:, None]]]
    if not outside.any():
        return None
    x, i = np.argwhere(outside)[0]
    return (int(x), int(arr[i]))


def _is_hom_n2(G, H, img):
    img = np.asarray(img)
    return bool(img[0] == 0
                and np.array_equal(img[G.table], H.table[img[:, None], img[None, :]]))


def _map_agrees(G, H, img) -> bool:
    """GroupMap accepts ``img`` exactly when the n^2 check does, and a
    rejection names a pair (a, y) that breaks f(a*y) = f(a)*f(y).  Returns
    whether the map was accepted."""
    img = np.asarray(img)
    if _is_hom_n2(G, H, img):
        fg.GroupMap(G, H, img)
        return True
    with pytest.raises(ValueError) as exc:
        fg.GroupMap(G, H, img)
    msg = str(exc.value)
    if img[0] != 0:
        assert "identity" in msg
    else:
        a, y = (int(v) for v in msg.split("(")[1].rstrip(")").split(","))
        assert a in G.generators
        assert img[G.table[a, y]] != H.table[img[a], img[y]]
    return False


@pytest.fixture(scope="module")
def law_corpus(exhaustive_tiers, catalog, specs_243):
    groups = [G for k in range(1, 9) for G in exhaustive_tiers[k]]
    groups += [entry.group for entry in catalog.entries]
    groups += [jn2.materialize(spec).group for spec in specs_243]
    i31 = jn2.materialize(jn2.parse_spec("I(3,1)")).group
    groups += [fg.symmetric(4), fg.alternating(5),
               fg.direct_product(fg.dihedral(8), fg.cyclic(2)),
               fg.direct_product(i31, fg.cyclic(3))]
    return groups


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generator_laws_match_full_tables(law_corpus, data):
    G0 = data.draw(st.sampled_from(law_corpus))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    G, iso = random_relabeling(G0, rng)

    assert np.array_equal(G.center_mask, _center_mask_n2(G)), G.label
    assert G.is_abelian == bool(_center_mask_n2(G).all())
    D = fg.derived_subgroup(G)
    assert D.elements == _derived_n2(G), G.label
    assert [N.elements for N in fg.lower_central_series(G)] == _lower_central_n2(G)

    xs = [rng.randrange(G.order) for _ in range(2)]
    Z = fg.Subgroup(G, np.flatnonzero(G.center_mask))
    for N in (Z, D, fg.subgroup_generated(G, xs[:1]), fg.subgroup_generated(G, xs)):
        ref = _normality_violation_n2(N)
        assert N.normality_violation() == ref, G.label
        assert N.is_normal == (ref is None), G.label

    assert _map_agrees(G0, G, iso.images)
    Q, proj = fg.quotient(G, D)
    assert _map_agrees(G, Q, proj.images)
    if G.order < 3:
        return
    x, y = rng.sample(range(1, G.order), 2)
    swapped = np.array(iso.images)
    swapped[[x, y]] = swapped[[y, x]]
    accepted = _map_agrees(G0, G, swapped)
    if G0.element_order(x) != G0.element_order(y):
        assert not accepted  # f(x) and x must have the same order
    perm = [0] + rng.sample(range(1, G.order), G.order - 1)
    _map_agrees(G0, G, iso.images[perm])
    if Q.order > 1:
        moved = np.array(proj.images)
        moved[x] = (moved[x] + 1 + rng.randrange(Q.order - 1)) % Q.order
        assert not _map_agrees(G, Q, moved)  # a coset is not mapped whole


# ---------------------------------------------------------------------------
# GroupMap keeps its own images and range-checks them


def test_groupmap_keeps_a_read_only_copy():
    G = fg.dihedral(8)
    H, iso = random_relabeling(G, random.Random(1))
    images = np.array(iso.images, dtype=np.int64)
    f = fg.GroupMap(G, H, images)
    images[1], images[2] = images[2], images[1]
    assert np.array_equal(f.images, iso.images)
    assert f.images.dtype == np.int32 and not f.images.flags.writeable
    with pytest.raises(ValueError):
        f.images[1] = 0


@pytest.mark.parametrize("bad,value", [(3, 8), (5, -1), (7, 10 ** 12)])
def test_groupmap_refuses_images_out_of_range(bad, value):
    C8 = fg.cyclic(8)
    images = np.arange(8, dtype=np.int64)
    images[bad] = value
    with pytest.raises(ValueError, match=rf"^image {value} of {bad} is outside 0\.\.7$"):
        fg.GroupMap(C8, C8, images)


def test_groupmap_refuses_non_integer_images():
    with pytest.raises(ValueError, match="integers"):
        fg.GroupMap(fg.cyclic(2), fg.cyclic(2), np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# Light's test in row blocks


def _light_unblocked(t: np.ndarray):
    """The whole-table Light's test over the closure-from-scratch walk's
    picks: the message for the first failing pick's first (x, y), row-major,
    or None."""
    for a in span_walk_from_scratch(t, range(1, len(t))):
        bad = t[t[:, a]] != t[:, t[a]]
        if bad.any():
            x, y = np.argwhere(bad)[0]
            return f"associativity fails at ({int(x)},{a},{int(y)})"
    return None


def _planted(G: fg.FiniteGroup, x: int, y: int, shift: int) -> np.ndarray:
    """G's table with the nonzero cell (x, y) moved to another nonzero
    value; the identity and inverse laws still hold, associativity fails."""
    t = np.array(G.table)
    assert x and y and t[x, y]
    t[x, y] = 1 + (t[x, y] - 1 + shift) % (G.order - 1)
    return t


def _blocked_message(t: np.ndarray) -> str:
    with pytest.raises(NotAGroup) as exc:
        fg.from_table(len(t), t)
    return str(exc.value)


@pytest.fixture(scope="module")
def big_tables():
    """Orders over 256, so Light's test runs in more than one row block."""
    return [fg.cyclic(300), jn2.materialize(jn2.parse_spec("I(2,4)")).group]


def test_light_blocks_name_the_unblocked_fault(big_tables):
    seen_rows = set()
    for G in big_tables:
        n = G.order
        rows = fg._LIGHT_BLOCK // n
        assert rows < n
        last = (n - 1) // rows * rows
        for x in (rows - 1, rows, rows + 1, last, n - 1):
            for y in (1, 7, n - 2):
                if G.table[x, y] == 0:
                    continue
                t = _planted(G, x, y, 1)
                ref = _light_unblocked(t)
                assert ref is not None
                assert _blocked_message(t) == ref
                seen_rows.add((int(ref.split("(")[1].split(",")[0]) // rows, n))
    # faults named in the first and second block of each table, and in the last
    for G in big_tables:
        n = G.order
        rows = fg._LIGHT_BLOCK // n
        assert {(0, n), (1, n), ((n - 1) // rows, n)} <= seen_rows


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_light_blocks_match_unblocked_loop(big_tables, data):
    G = data.draw(st.sampled_from(big_tables))
    cells = data.draw(st.lists(st.tuples(st.integers(1, G.order - 1),
                                         st.integers(1, G.order - 1)),
                               min_size=1, max_size=3))
    t = np.array(G.table)
    for x, y in cells:
        if t[x, y]:
            t[x, y] = 1 + (t[x, y] - 1 + data.draw(st.integers(1, G.order - 2))) % (G.order - 1)
    ref = _light_unblocked(t)
    if ref is None:
        assert np.array_equal(fg.from_table(len(t), t).table, t)
    else:
        assert _blocked_message(t) == ref


def _from_table_walk(t: np.ndarray, walk) -> tuple[list[int], str]:
    """The picks ``from_table`` takes from ``walk`` in place of the span
    walk, and the message it raises: the walk is resumed after each pick
    only when the pick passed Light's test."""
    picks = []

    def recorded(*args):
        for x in walk(*args):
            picks.append(x)
            yield x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fg, "span_walk", recorded)
        message = _blocked_message(t)
    return picks, message


def _loop_times_group(K: fg.FiniteGroup, rng: random.Random) -> np.ndarray:
    """LOOP6 x K, element (i, k) at i*|K| + k, relabelled at random among
    the (i, k) with i in {0, 1} and among the rest, and 0 fixed.  Light's
    test passes for the first kind and fails for i = 2, so ``from_table``
    takes picks from the subgroup {0, 1} x K, resuming the walk after each,
    until one fails."""
    m = K.order
    t = (LOOP6[:, None, :, None] * m + K.table[None, :, None, :]).reshape(6 * m, 6 * m)
    p = np.array([0] + rng.sample(range(1, 2 * m), 2 * m - 1)
                 + rng.sample(range(2 * m, 6 * m), 4 * m))
    q = np.argsort(p)
    return p[t[q][:, q]]


def test_from_table_walks_planted_tables_as_the_closure_walk(big_tables):
    """On tables that fail Light's test, the coset walk's picks up to the
    failing one, and the message, are those of the closure walk and of the
    queue-only walk, which finds the first pick's powers coset by coset."""
    rng = random.Random(3)
    tables = [LOOP6]
    for G in big_tables:
        n = G.order
        for x, y in ((1, 1), (2, n - 2), (n // 2, 7), (n - 1, n - 1)):
            for shift in (1, 5):
                if G.table[x, y]:
                    tables.append(_planted(G, x, y, shift))
    for K in (fg.symmetric(4), jn2.materialize(jn2.parse_spec("I(2^2,1)")).group):
        tables += [_loop_times_group(K, rng) for _ in range(10)]
    longest = 0
    for t in tables:
        coset = _from_table_walk(t, fg.span_walk)
        assert coset == _from_table_walk(t, span_walk_from_scratch)
        assert coset == _from_table_walk(t, coset_walk_by_queue)
        assert coset[1] == _light_unblocked(t)
        longest = max(longest, len(coset[0]))
    assert longest >= 4


# ---------------------------------------------------------------------------
# Subgroup closure: all |S|^2 products for small sets, the generator law for
# large proper ones, nothing more for the whole group


def _closure_agrees(G, elements) -> bool:
    """Subgroup accepts the sorted set ``elements`` exactly when every
    product of two of its elements lies in it, and a rejection keeps its
    message.  Returns whether the set was accepted."""
    els = np.array(sorted(elements), dtype=np.intp)
    if closed_on_all_products(G, els):
        assert fg.Subgroup(G, els).elements == tuple(els.tolist())
        return True
    with pytest.raises(ValueError) as exc:
        fg.Subgroup(G, els)
    assert str(exc.value) == "set is not closed under multiplication"
    return False


@pytest.fixture(scope="module")
def closure_corpus():
    i31 = jn2.materialize(jn2.parse_spec("I(3,1)")).group
    return [fg.symmetric(3), fg.dihedral(8), fg.dicyclic(8), fg.alternating(4),
            fg.cyclic(12), fg.symmetric(4), random_relabeling(i31, random.Random(0))[0]]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_subgroup_closure_matches_all_products(closure_corpus, data):
    G = data.draw(st.sampled_from(closure_corpus))
    others = st.integers(1, G.order - 1)
    _closure_agrees(G, {0} | data.draw(st.sets(others)))
    # planted: a subgroup with one element added, and with one removed
    H = fg.closure_indices(G.table, data.draw(st.lists(others, max_size=2)))
    assert _closure_agrees(G, H)
    outside = np.setdiff1d(np.arange(G.order), H)
    if outside.size:
        x = int(outside[data.draw(st.integers(0, outside.size - 1))])
        added = _closure_agrees(G, {*H.tolist(), x})
        assert added == (H.size == 1 and G.element_order(x) == 2)
    if H.size > 1:
        y = int(H[data.draw(st.integers(1, H.size - 1))])
        assert _closure_agrees(G, set(H.tolist()) - {y}) == (H.size == 2)


@pytest.fixture(scope="module")
def relabelled_i24():
    G = jn2.materialize(jn2.parse_spec("I(2,4)")).group
    return random_relabeling(G, random.Random(0))[0]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_subgroup_generator_law_matches_all_products(relabelled_i24, data):
    """Sets of 129 to 511 elements take the generator-law form of the
    closure check: the index-2 subgroups spanned by all generators of a
    group of order 512 but one, and sets planted from them."""
    G = relabelled_i24
    gens = list(G.generators)
    del gens[data.draw(st.integers(0, len(gens) - 1))]
    H = fg.closure_indices(G.table, gens)
    assert fg._SMALL_SET < H.size < G.order
    assert _closure_agrees(G, H)
    inside = set(H.tolist())
    outside = np.setdiff1d(np.arange(G.order), H)
    x = int(outside[data.draw(st.integers(0, outside.size - 1))])
    y = int(H[data.draw(st.integers(1, H.size - 1))])
    assert not _closure_agrees(G, inside | {x})
    assert not _closure_agrees(G, inside - {y})
    assert not _closure_agrees(G, (inside - {y}) | {x})
    # a subgroup K and a coset K*w: closed exactly when w^2 lies in K and
    # w normalizes K, which the reference decides
    K = fg.closure_indices(G.table, gens[:6])
    w = data.draw(st.integers(1, G.order - 1))
    if 2 * K.size > fg._SMALL_SET and not np.isin(w, K):
        _closure_agrees(G, {*K.tolist(), *G.table[K, w].tolist()})
    picks = data.draw(st.sets(st.integers(1, G.order - 1), min_size=fg._SMALL_SET + 1,
                              max_size=2 * fg._SMALL_SET))
    _closure_agrees(G, {0} | picks)


def test_subgroup_generator_law_needs_every_pick():
    """H and the coset H*a_1 in the standard I(3,2), for H = <b_2, b_1, a_2>
    of index 3: S*h lies in S for every h in H, so only the walk's last
    pick, a_1, shows that S is not closed (a_1^2 lies in neither coset)."""
    std = jn2.materialize(jn2.parse_spec("I(3,2)"))
    G = std.group
    H = fg.closure_indices(G.table, [std.b[1], std.b[0], std.a[1]])
    S = np.union1d(H, G.table[H, std.a[0]])
    assert H.size == 81 and S.size == 162
    assert list(fg.span_walk(G.table, S.tolist()))[-1] == std.a[0]
    assert not _closure_agrees(G, S)
