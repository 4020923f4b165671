import collections
import itertools
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidquot import fingroup as fg
from braidquot import jn2, oracle, verify
from braidquot.errors import NotAGroup, NotNormal, SearchBudgetExceeded, SizeLimit
from references import closure_by_squaring, compose, first_assoc_violation, random_relabeling


# ---------------------------------------------------------------------------
# table validation


def test_trivial_group():
    G = fg.from_table(1, [[0]])
    assert G.order == 1
    assert G.inv(0) == 0


def test_z2_table():
    G = fg.from_table(2, [[0, 1], [1, 0]])
    assert G.order == 2
    assert G.element_order(1) == 2


def test_missing_inverse_rejected():
    with pytest.raises(NotAGroup, match="no inverse for 1"):
        fg.from_table(2, [[0, 1], [1, 1]])


def test_entries_range_checked_before_narrowing():
    # 2**32 used to wrap to 0 in the int32 table and pass as Z2; a Python
    # int beyond int64 used to escape as OverflowError
    for table in (np.array([[0, 1], [1, 2 ** 32]], dtype=np.int64), [[0, 1], [1, 10 ** 22]]):
        with pytest.raises(NotAGroup, match="table entries out of range"):
            fg.from_table(2, table)


def test_identity_violation_rejected():
    with pytest.raises(NotAGroup, match="identity law"):
        fg.from_table(2, [[1, 0], [0, 1]])


def test_associativity_violation_rejected():
    # identity and inverses fine, but (1*2)*2 != 1*(2*2)
    with pytest.raises(NotAGroup, match="associativity fails"):
        fg.from_table(3, [[0, 1, 2], [1, 0, 2], [2, 2, 0]])


def _inverse_messages_by_loop(t: np.ndarray):
    """The row-by-row inverse check, as a reference for the array form."""
    for x in range(t.shape[0]):
        zeros = np.flatnonzero(t[x] == 0)
        if zeros.size == 0:
            return f"no inverse for {x}"
        y = int(zeros[0])
        if t[y, x] != 0:
            return f"inverse law fails: {x}*{y} = 0 but {y}*{x} = {int(t[y, x])}"
    return None


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=2, max_value=7), data=st.data())
def test_inverse_check_names_first_failing_element(n, data):
    # identity row and column, every other cell drawn from a few values so
    # that rows without a 0 and one-sided inverses both come up
    t = np.array([[data.draw(st.integers(0, min(2, n - 1))) for _ in range(n)]
                  for _ in range(n)])
    t[0] = t[:, 0] = np.arange(n)
    expected = _inverse_messages_by_loop(t)
    if expected is None:
        return  # inverses hold; associativity decides the rest
    with pytest.raises(NotAGroup) as exc:
        fg.from_table(n, t)
    assert str(exc.value) == expected


# A loop (Latin square with identity 0 and two-sided inverses) that is not
# associative.  The span walk over 1..5 picks 1, whose closure is {0, 1},
# then 2.  Element 1 passes Light's test; element 2 fails it.
LOOP6 = np.array([[0, 1, 2, 3, 4, 5],
                  [1, 0, 5, 4, 3, 2],
                  [2, 4, 1, 0, 5, 3],
                  [3, 5, 0, 2, 1, 4],
                  [4, 2, 3, 5, 0, 1],
                  [5, 3, 4, 1, 2, 0]])


def _is_violation(t: np.ndarray, x: int, a: int, y: int) -> bool:
    return t[t[x, a], y] != t[x, t[a, y]]


def _reported_triple(message: str) -> tuple[int, int, int]:
    m = re.fullmatch(r"associativity fails at \((\d+),(\d+),(\d+)\)", message)
    assert m, message
    return tuple(int(v) for v in m.groups())


def test_light_test_first_generator_passes_later_one_fails():
    t = LOOP6
    assert list(fg.span_walk(t, range(1, 6))) == [1, 2]
    assert not any(_is_violation(t, x, 1, y) for x in range(6) for y in range(6))
    assert first_assoc_violation(t) is not None
    with pytest.raises(NotAGroup) as exc:
        fg.from_table(6, t)
    x, a, y = _reported_triple(str(exc.value))
    assert a == 2
    assert _is_violation(t, x, a, y)


def _random_loop(n: int, rng: random.Random) -> np.ndarray:
    """A random Latin square with identity 0 whose zeros are symmetric, so
    the identity and inverse laws hold; filled by randomized backtracking."""
    t = np.full((n, n), -1)
    t[0] = t[:, 0] = np.arange(n)
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]

    def fill(i: int) -> bool:
        if i == len(cells):
            return True
        x, y = cells[i]
        values = list(range(n))
        rng.shuffle(values)
        for v in values:
            if v in t[x, :y] or v in t[:x, y]:
                continue
            if (v == 0) != (t[y, x] == 0) and y < x:
                continue  # 0 sits at (x, y) exactly when it sits at (y, x)
            t[x, y] = v
            if fill(i + 1):
                return True
        t[x, y] = -1
        return False

    assert fill(0)
    return t


def _perturbed(G: fg.FiniteGroup, data) -> np.ndarray:
    """G's table with a few nonzero cells off the identity row and column
    set to other nonzero values; the zeros stay put, so the identity and
    inverse laws still hold."""
    t = np.array(G.table)
    cells = [(x, y) for x in range(1, G.order) for y in range(1, G.order) if t[x, y]]
    for x, y in data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3)):
        t[x, y] = data.draw(st.integers(1, G.order - 1))
    return t


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_light_test_agrees_with_full_sweep(small_corpus, data):
    if data.draw(st.booleans()):
        G = data.draw(st.sampled_from([G for G in small_corpus if G.order >= 3]))
        t = _perturbed(G, data)
    else:
        n = data.draw(st.integers(1, 7))
        t = _random_loop(n, random.Random(data.draw(st.integers(0, 2 ** 32))))
    sweep = first_assoc_violation(t)
    if sweep is None:
        assert np.array_equal(fg.from_table(len(t), t).table, t)
        return
    with pytest.raises(NotAGroup) as exc:
        fg.from_table(len(t), t)
    assert _is_violation(t, *_reported_triple(str(exc.value)))


def test_from_table_takes_over_only_owned_int32_tables():
    """An owned C-contiguous int32 table becomes the group's, read-only;
    a view, a Fortran-ordered array or another dtype is copied and left
    writable."""
    src = fg.dihedral(8).table
    owned = np.array(src)
    G = fg.from_table(8, owned)
    assert G.table is owned and not owned.flags.writeable
    stacked = np.concatenate([src, src])
    fortran = np.asfortranarray(src)
    for t in (stacked[:8], fortran, src.astype(np.int64), src.astype(np.uint16)):
        H = fg.from_table(8, t)
        assert H.table is not t and not np.shares_memory(H.table, t)
        assert t.flags.writeable and H.table.flags.c_contiguous
        assert H.table.dtype == np.int32 and np.array_equal(H.table, src)


def test_table_cap():
    with pytest.raises(SizeLimit):
        fg.symmetric(8)


# ---------------------------------------------------------------------------
# constructors


def test_symmetric3_nonabelian():
    S3 = fg.symmetric(3)
    assert S3.order == 6
    t = S3.table
    assert any(t[x, y] != t[y, x] for x in range(6) for y in range(6))


def brute_order_count(G, k):
    count = 0
    for x in range(G.order):
        cur, n = x, 1
        while cur != 0:
            cur = G.mul(cur, x)
            n += 1
        if n == k:
            count += 1
    return count


def test_q8_has_six_order_four_elements():
    assert brute_order_count(fg.dicyclic(8), 4) == 6


def test_d8_has_two_order_four_elements():
    assert brute_order_count(fg.dihedral(8), 4) == 2


def test_dicyclic12():
    G = fg.dicyclic(12)
    assert G.order == 12 and not G.is_abelian


def test_symmetric_names_are_adjacent_transpositions():
    S4 = fg.symmetric(4)
    for i in range(1, 4):
        s = S4.names[f"s{i}"]
        assert S4.element_order(s) == 2
    # adjacent transpositions don't commute
    assert S4.commutator(S4.names["s1"], S4.names["s2"]) != 0


def test_direct_product_orders():
    G = fg.direct_product(fg.cyclic(3), fg.cyclic(4))
    assert G.order == 12
    assert fg.is_isomorphic(G, fg.cyclic(12)) is not None


# ---------------------------------------------------------------------------
# subgroups / center / derived


def test_subgroup_generated_empty():
    G = fg.symmetric(3)
    assert fg.subgroup_generated(G, []).elements == (0,)


def test_subgroup_generated_s3_whole():
    S3 = fg.symmetric(3)
    transposition = next(x for x in range(6) if S3.element_order(x) == 2)
    three_cycle = next(x for x in range(6) if S3.element_order(x) == 3)
    # independent closure computation
    closure = {0, transposition, three_cycle}
    while True:
        new = {S3.mul(a, b) for a in closure for b in closure} | closure
        if new == closure:
            break
        closure = new
    assert closure == set(range(6))
    sub = fg.subgroup_generated(S3, [transposition, three_cycle])
    assert sub.is_whole
    assert set(sub.elements) == closure


def test_subgroup_generated_cyclic4():
    C4 = fg.cyclic(4)
    sub = fg.subgroup_generated(C4, [2])
    assert sub.elements == (0, 2)


def test_center_derived_abelian():
    G = fg.cyclic(6)
    assert G.center_mask.all()
    assert fg.derived_subgroup(G).elements == (0,)


def test_center_derived_d8_brute():
    D8 = fg.dihedral(8)
    brute_center = {x for x in range(8)
                    if all(D8.mul(x, y) == D8.mul(y, x) for y in range(8))}
    assert set(np.flatnonzero(D8.center_mask).tolist()) == brute_center
    assert len(brute_center) == 2
    comms = {D8.commutator(x, y) for x in range(8) for y in range(8)}
    brute_closure = set(comms) | {0}
    while True:
        new = {D8.mul(a, b) for a in brute_closure for b in brute_closure} | brute_closure
        if new == brute_closure:
            break
        brute_closure = new
    assert set(fg.derived_subgroup(D8).elements) == brute_closure
    assert len(brute_closure) == 2


def test_s4_derived_is_a4():
    S4 = fg.symmetric(4)
    D = fg.derived_subgroup(S4)
    assert D.order == 12
    # the derived subgroup consists exactly of the even permutations
    table = S4.table[np.ix_(D.elements, D.elements)]
    relabeled = np.searchsorted(np.asarray(D.elements), table)
    H = fg.from_table(12, relabeled)
    assert fg.is_isomorphic(H, fg.alternating(4)) is not None


def test_derived_plain_closure_equals_normal_closure(small_corpus):
    for G in small_corpus:
        comm = G.commutators_of(range(G.order), range(G.order))
        plain = fg.subgroup_generated(G, np.unique(comm))
        assert plain.elements == fg.derived_subgroup(G).elements
        assert plain.is_normal


# ---------------------------------------------------------------------------
# quotients


def test_quotient_by_whole_group():
    G = fg.symmetric(3)
    Q, proj = fg.quotient(G, fg.subgroup_generated(G, range(6)))
    assert Q.order == 1
    assert all(proj(x) == 0 for x in range(6))


def test_quotient_by_trivial():
    G = fg.symmetric(3)
    Q, proj = fg.quotient(G, fg.subgroup_generated(G, []))
    assert Q.order == 6
    assert list(proj.images) == list(range(6))


def test_q8_central_quotient_elementary():
    Q8 = fg.dicyclic(8)
    Q, proj = fg.quotient(Q8, fg.Subgroup(Q8, np.flatnonzero(Q8.center_mask)))
    assert Q.order == 4
    assert all(Q.mul(x, x) == 0 for x in range(4))
    assert proj.is_surjective


def test_quotient_requires_normal():
    S3 = fg.symmetric(3)
    transposition = next(x for x in range(6) if S3.element_order(x) == 2)
    N = fg.subgroup_generated(S3, [transposition])
    with pytest.raises(NotNormal):
        fg.quotient(S3, N)


def test_quotient_order_multiplies(small_corpus):
    for G in small_corpus:
        if G.order > 64:
            continue
        for N in oracle.normal_subgroups(G):
            Q, proj = fg.quotient(G, N)
            assert Q.order * N.order == G.order
            assert proj.is_surjective


def test_quotient_by_derived_abelian(small_corpus):
    for G in small_corpus:
        Q, _ = fg.quotient(G, fg.derived_subgroup(G))
        assert Q.is_abelian


def _first_violation_by_loops(N):
    G = N.parent
    for x in range(G.order):
        for s in N.elements:
            if G.mul(G.mul(x, s), G.inv(x)) not in N.elements:
                return (x, s)
    return None


def test_normality_violation_matches_double_loop(small_corpus):
    # every cyclic subgroup of every corpus group, S4 included
    for G in small_corpus:
        for x in range(G.order):
            N = fg.subgroup_generated(G, [x])
            assert N.normality_violation() == _first_violation_by_loops(N), (G.label, x)
            assert N.is_normal == (_first_violation_by_loops(N) is None)


def test_quotient_matches_hand_built_cosets(small_corpus):
    for G in small_corpus:
        if G.order > 64:
            continue
        for N in oracle.normal_subgroups(G):
            Q, proj = fg.quotient(G, N)
            coset_min = [min(G.mul(x, s) for s in N.elements) for x in range(G.order)]
            reps = sorted(set(coset_min))
            assert list(proj.images) == [reps.index(r) for r in coset_min]
            for i, r in enumerate(reps):
                for k, s in enumerate(reps):
                    assert Q.mul(i, k) == reps.index(coset_min[G.mul(r, s)])


def test_subgroup_mask_is_membership(small_corpus):
    for G in small_corpus:
        for N in (fg.Subgroup(G, np.flatnonzero(G.center_mask)), fg.derived_subgroup(G)):
            assert list(np.flatnonzero(N.mask)) == list(N.elements)


def test_subgroup_rejects_unclosed_set():
    S3 = fg.symmetric(3)
    transposition = next(x for x in range(6) if S3.element_order(x) == 2)
    three_cycle = next(x for x in range(6) if S3.element_order(x) == 3)
    with pytest.raises(ValueError, match="closed"):
        fg.Subgroup(S3, tuple(sorted({0, transposition, three_cycle})))


@pytest.mark.parametrize("elements", [(), (1,), (0, 1, 1), (0, 3, 1), np.array([[0, 1]])])
def test_subgroup_rejects_unsorted_sets(elements):
    C4 = fg.cyclic(4)
    with pytest.raises(ValueError, match="^elements must be sorted, unique, and contain 0$"):
        fg.Subgroup(C4, elements)


def test_relabel_must_fix_identity():
    with pytest.raises(ValueError):
        fg.relabel(fg.cyclic(3), [1, 0, 2])


def test_relabel_needs_a_permutation():
    with pytest.raises(ValueError):
        fg.relabel(fg.cyclic(3), [0, 1, 1])


# a negative entry would wrap when scattered into the inverse: [0, -1, 1]
# fills every slot once wrapped, so only the range check refuses it
@pytest.mark.parametrize("perm", [[0, -1, 2], [0, -1, 1], [0, 1, 3], [0, 1], [0, 2, 2]])
def test_relabel_rejects_non_permutations(perm):
    with pytest.raises(ValueError):
        fg.relabel(fg.cyclic(3), perm)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_relabel_moves_every_cell(small_corpus, data):
    G = data.draw(st.sampled_from(small_corpus))
    p = np.array([0] + data.draw(st.permutations(range(1, G.order))), dtype=np.int64)
    H, iso = fg.relabel(G, p)
    assert np.array_equal(H.table[p[:, None], p[None, :]], p[G.table])
    assert np.array_equal(iso.images, p)


# the generators of relabelled copies, pinned: the span walk's picks feed
# Light's test, GroupMap and is_isomorphic, so a closure that returns
# another set shows here first
RELABELLED_GENERATORS = {
    "I(3,2)": [(1, 2, 3, 5), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 4, 6), (1, 2, 3, 4)],
    "II(2^5,1)": [(1, 2, 3, 4), (1, 4), (1, 2), (1, 2), (1, 2)],
    "S5": [(1, 2, 5), (1, 2), (1, 2, 4), (1, 2, 3), (1, 2)],
}


@pytest.mark.parametrize("name", sorted(RELABELLED_GENERATORS))
def test_relabelled_generators_pinned(name):
    G = fg.symmetric(5) if name == "S5" else jn2.materialize(jn2.parse_spec(name)).group
    got = [random_relabeling(G, random.Random(seed))[0].generators for seed in range(5)]
    assert got == RELABELLED_GENERATORS[name]


def test_groupmap_rejects_non_homomorphism():
    C4 = fg.cyclic(4)
    with pytest.raises(ValueError, match="homomorphism"):
        fg.GroupMap(C4, C4, np.array([0, 2, 1, 3]))


# ---------------------------------------------------------------------------
# nilpotency and element orders


# ---------------------------------------------------------------------------
# standard constructors against cell-by-cell formulas


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 1), (3, 3), (5, 2), (7, 2)])
def test_elementary_abelian_matches_digit_formula(p, k):
    n = p ** k
    idx = np.arange(n)
    digits = np.stack([(idx // p ** i) % p for i in range(k)], axis=1)
    sums = (digits[:, None, :] + digits[None, :, :]) % p
    table = sum(sums[:, :, i] * p ** i for i in range(k))
    assert np.array_equal(fg.from_table(n, fg.digit_sum_table(p, k)).table, table)


def test_elementary_abelian_peak_memory_near_its_table():
    """E_2^10's table is built by ``digit_sum_table`` without an n x n x k
    array: validation by ``from_table`` included, the traced peak stays
    within twice the table's bytes."""
    tracemalloc.start()
    try:
        G = fg.from_table(1024, fg.digit_sum_table(2, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * G.table.nbytes, peak / G.table.nbytes


def test_dihedral_and_dicyclic_match_cell_formulas():
    for order in range(2, 130, 2):
        n = order // 2  # f*n + i ~ s^f r^i
        table = [[((f1 + f2) % 2) * n + ((-1) ** f2 * i1 + i2) % n
                  for f2 in (0, 1) for i2 in range(n)]
                 for f1 in (0, 1) for i1 in range(n)]
        assert fg.dihedral(order).table.tolist() == table, order
    for order in range(4, 132, 4):
        n, m = order // 4, order // 2  # f*m + i ~ x^i y^f, y^2 = x^n
        table = [[(f1 ^ f2) * m + (i1 + (-1) ** f1 * i2 + n * (f1 & f2)) % m
                  for f2 in (0, 1) for i2 in range(m)]
                 for f1 in (0, 1) for i1 in range(m)]
        assert fg.dicyclic(order).table.tolist() == table, order


@pytest.mark.parametrize("n", range(1, 7))
def test_permutation_groups_match_composition(n):
    """p_i * p_j is p_i o p_j, elements in lexicographic order."""
    perms = sorted(itertools.permutations(range(n)))
    rank = {p: i for i, p in enumerate(perms)}
    even = [p for p in perms if fg._parity(p) == 0]
    for G, elems in ((fg.symmetric(n), perms), (fg.alternating(n), even)):
        index = {p: i for i, p in enumerate(elems)}
        table = [[index[tuple(a[t] for t in b)] for b in elems] for a in elems]
        assert G.table.tolist() == table, G.label
    tr = [tuple(range(i - 1)) + (i, i - 1) + tuple(range(i + 1, n)) for i in range(1, n)]
    assert fg.symmetric(n).names == {f"s{i}": rank[t] for i, t in enumerate(tr, 1)}


def test_s3_not_nilpotent():
    S3 = fg.symmetric(3)
    assert fg.nilpotency_class(S3) is None
    # gamma_2 = gamma_3 = the subgroup of 3-cycles
    series = fg.lower_central_series(S3)
    assert series[-1].order == 3


def test_d8_class_two():
    assert fg.nilpotency_class(fg.dihedral(8)) == 2


def test_elementary_abelian_invariants():
    G = fg.from_table(9, fg.digit_sum_table(3, 2))
    assert G.exponent == 3
    # elementary abelian of exponent 3: abelian, every element of order 1 or 3
    assert G.is_abelian and set(G.order_profile) - {1} == {3}
    assert set(G.order_profile) - {1} != {2}
    assert fg.nilpotency_class(G) == 1


def test_order_profile():
    prof = fg.dihedral(8).order_profile
    assert prof == {1: 1, 2: 5, 4: 2}


def test_class_sizes_are_conjugacy_class_lengths(exhaustive_tiers, catalog, specs_243):
    groups = [G for tier in exhaustive_tiers.values() for G in tier]
    groups += catalog
    groups += [jn2.materialize(spec).group for spec in specs_243]
    for G in groups:
        lengths = np.zeros(G.order, dtype=np.int64)
        for cls in G.conjugacy_classes:
            lengths[list(cls)] = len(cls)
        assert np.array_equal(G.order // G.centralizer_sizes, lengths), G.label


def test_power_map_and_powers_match_scalar_power(small_corpus):
    for G in small_corpus + [jn2.materialize(jn2.parse_spec("II(3^2,1)")).group]:
        for k in (0, 1, 2, 3, 5, 8, 9):
            assert fg.power_map(G.table, k).tolist() == [G.power(x, k) for x in range(G.order)]
            some = list(range(G.order))[::-2]  # some elements, in another order
            assert fg.power_map(G.table, k, some).tolist() == [G.power(x, k) for x in some]
        for x in range(G.order):
            assert fg.powers(G.table, x, 7).tolist() == [G.power(x, e) for e in range(7)]


# ---------------------------------------------------------------------------
# Frattini quotient of p-groups


@pytest.fixture(scope="module")
def p_group_corpus(exhaustive_tiers):
    groups = [G for k in (2, 3, 4, 5, 7, 8) for G in exhaustive_tiers[k]]
    groups += [jn2.materialize(spec).group for spec in jn2.enumerate_specs(81)]
    groups += [fg.dihedral(16), fg.dicyclic(16),
               fg.direct_product(jn2.materialize(jn2.parse_spec("I(3,1)")).group,
                                 fg.cyclic(3))]
    return groups


def test_frattini_only_for_prime_power_orders(exhaustive_tiers):
    for k in (1, 6):
        for G in exhaustive_tiers[k]:
            assert G.frattini is None
    for G in (fg.symmetric(4), fg.dihedral(12), fg.cyclic(10)):
        assert G.frattini is None


def test_frattini_subgroup_and_rank(p_group_corpus):
    """Phi is the closure of all n^2 commutators and the p-th powers, and
    ``rank`` is the length of a basis walk of G over Phi, each pick of
    which multiplies the span by p (G/Phi is elementary abelian)."""
    for G in p_group_corpus:
        fr = G.frattini
        assert G.order % fr.p == 0 and fr.rank >= 1
        pth = [G.power(x, fr.p) for x in range(G.order)]
        comm = G.commutators_of(range(G.order), range(G.order))
        phi = fg.subgroup_generated(G, list(np.unique(comm)) + pth)
        assert np.array_equal(fr.in_phi, phi.mask), G.label
        basis, span = [], set(phi.elements)
        for x in range(G.order):
            if x not in span:
                basis.append(x)
                span = set(fg.closure_indices(G.table, [*phi.elements, *basis]).tolist())
                assert len(span) == fr.p ** len(basis) * phi.order, G.label
        assert len(basis) == fr.rank, G.label


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_frattini_elements_are_non_generators(p_group_corpus, data):
    """What the witness search's sigma skip rests on: an element x of Phi
    can be dropped from any set that generates with it, so a generating
    set has at least ``rank`` elements outside Phi."""
    G = data.draw(st.sampled_from(p_group_corpus))
    fr = G.frattini
    subset = data.draw(st.lists(st.integers(0, G.order - 1), max_size=6))
    if data.draw(st.booleans()):
        subset = list(G.generators) + subset
    x = data.draw(st.sampled_from(np.flatnonzero(fr.in_phi).tolist()))
    whole = fg.closure_indices(G.table, subset).size == G.order
    assert (fg.closure_indices(G.table, subset + [x]).size == G.order) == whole, G.label
    if whole:
        assert len({s for s in subset if not fr.in_phi[s]}) >= fr.rank, G.label


# ---------------------------------------------------------------------------
# isomorphism testing


def test_iso_relabeled_copy():
    D8 = fg.dihedral(8)
    H, known = fg.relabel(D8, [0, 3, 1, 2, 6, 7, 4, 5])
    iso = fg.is_isomorphic(D8, H)
    assert iso is not None and iso.is_bijective


def test_d8_q8_not_isomorphic():
    assert fg.is_isomorphic(fg.dihedral(8), fg.dicyclic(8)) is None


def test_c4_vs_klein():
    assert fg.is_isomorphic(fg.cyclic(4), fg.from_table(4, fg.digit_sum_table(2, 2))) is None


def test_iso_reflexive_symmetric(small_corpus):
    for G in small_corpus:
        if G.order > 24:
            continue
        assert fg.is_isomorphic(G, G) is not None
    for G in small_corpus:
        for H in small_corpus:
            if G.order > 24 or H.order > 24:
                continue
            fwd = fg.is_isomorphic(G, H)
            bwd = fg.is_isomorphic(H, G)
            assert (fwd is None) == (bwd is None)


def test_iso_profile_invariant_and_composition():
    G = fg.dicyclic(12)
    H, _ = fg.relabel(G, [0] + list(range(11, 0, -1)))
    iso = fg.is_isomorphic(G, H)
    assert iso is not None
    assert G.order_profile == H.order_profile
    back = fg.is_isomorphic(H, G)
    comp = compose(iso, back)
    assert comp.is_bijective  # an automorphism of G


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_relabeling_preserves_structure(seed):
    G = fg.dihedral(12)
    H, iso = random_relabeling(G, random.Random(seed))
    assert iso.is_bijective
    assert H.order_profile == G.order_profile
    assert fg.is_isomorphic(G, H) is not None


def _is_isomorphic_by_assignment(G: fg.FiniteGroup, H: fg.FiniteGroup):
    """Reference for ``is_isomorphic``: the images of G's elements in H, or
    None.  The same generating sequence and candidate order, but each
    candidate is tested by scalar breadth-first extension: every product of
    a new element with the domain is assigned, one table entry at a time,
    until a conflict or a closed domain."""
    if G.order != H.order:
        return None
    sigG, sigH = fg._signatures(G), fg._signatures(H)
    if sorted(map(tuple, sigG.tolist())) != sorted(map(tuple, sigH.tolist())):
        return None
    n = G.order
    if n == 1:
        return np.zeros(1, dtype=np.int32)
    orders, csz = G.element_orders, G.centralizer_sizes
    seq = list(fg.span_walk(G.table, sorted(range(1, n),
                                            key=lambda x: (-orders[x], csz[x], x))))
    buckets: dict[tuple, list[int]] = {}
    for h in range(n):
        buckets.setdefault(tuple(sigH[h].tolist()), []).append(h)
    TG, TH = G.table, H.table
    gmap = np.full(n, -1, dtype=np.int32)
    hmap = np.full(n, -1, dtype=np.int32)
    gmap[0] = hmap[0] = 0
    dom = [0]

    def rollback(added):
        for x in reversed(added):
            hmap[gmap[x]] = -1
            gmap[x] = -1
        del dom[len(dom) - len(added):]

    def extend(g, h):
        added, queue = [], []

        def assign(x, y):
            if gmap[x] != -1:
                return gmap[x] == y
            if hmap[y] != -1:
                return False
            gmap[x], hmap[y] = y, x
            dom.append(x)
            added.append(x)
            queue.append(x)
            return True

        if not assign(g, h):
            return rollback(added)
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            hx = gmap[x]
            for i in range(len(dom)):
                d = dom[i]
                hd = gmap[d]
                if (not assign(int(TG[d, x]), int(TH[hd, hx]))
                        or not assign(int(TG[x, d]), int(TH[hx, hd]))):
                    return rollback(added)
        return added

    def backtrack(i):
        if i == len(seq):
            return True
        for h in buckets.get(tuple(sigG[seq[i]].tolist()), []):
            if hmap[h] != -1:
                continue
            added = extend(seq[i], h)
            if added is not None:
                if backtrack(i + 1):
                    return True
                rollback(added)
        return False

    return gmap if backtrack(0) else None


@pytest.fixture(scope="module")
def iso_corpus(exhaustive_tiers, catalog, specs_243):
    groups = [jn2.materialize(spec).group for spec in specs_243]
    groups += catalog
    groups += [G for k in range(1, 9) for G in exhaustive_tiers[k]]
    # in C4xC4 some images of a second generator give a homomorphism that
    # is not injective, which the search must reject
    groups += [fg.direct_product(fg.dihedral(8), fg.cyclic(2)), fg.symmetric(4),
               fg.direct_product(fg.cyclic(4), fg.cyclic(4))]
    return groups


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32))
def test_isomorphism_maps_match_scalar_extension(iso_corpus, seed):
    rng = random.Random(seed)
    for G in iso_corpus:
        H, _ = random_relabeling(G, rng)
        for src, dst in ((G, H), (H, G)):
            iso = fg.is_isomorphic(src, dst)
            ref = _is_isomorphic_by_assignment(src, dst)
            assert iso is not None and ref is not None, G.label
            assert np.array_equal(iso.images, ref), G.label


def test_isomorphism_rejects_non_injective_extensions():
    # in these labellings an image of the second generator passes the
    # generator law but sends a new element to the identity; only the test
    # that new images avoid the used ones rejects it
    c4c4 = fg.direct_product(fg.cyclic(4), fg.cyclic(4))
    i31 = jn2.materialize(jn2.parse_spec("I(3,1)")).group
    for G, seed in ((c4c4, 0), (i31, 11)):
        H, _ = random_relabeling(G, random.Random(seed))
        iso = fg.is_isomorphic(G, H)
        assert iso is not None and iso.is_bijective, G.label
        assert np.array_equal(iso.images, _is_isomorphic_by_assignment(G, H)), G.label


def test_variants_of_a_class_are_not_isomorphic(specs_243):
    for spec in specs_243:
        if spec.variant != "I":
            continue
        G = jn2.materialize(spec).group
        H, _ = random_relabeling(jn2.materialize(
            jn2.Jn2Spec(spec.p, spec.j, spec.m, "II")).group, random.Random(0))
        assert fg.is_isomorphic(G, H) is None, str(spec)
        assert _is_isomorphic_by_assignment(G, H) is None, str(spec)


def test_isomorphism_search_ends_in_a_budget_error():
    """D8xD8xQ8 against a relabelling: without a node budget the search ran
    for minutes here; past ``_ISO_BUDGET`` candidate images it raises,
    counting them."""
    d8, q8 = fg.dihedral(8), fg.dicyclic(8)
    G = fg.direct_product(fg.direct_product(d8, d8), q8)
    H, _ = random_relabeling(G, random.Random(0))
    started = time.monotonic()
    with pytest.raises(SearchBudgetExceeded) as exc:
        fg.is_isomorphic(G, H)
    assert time.monotonic() - started < 30
    assert exc.value.explored == fg._ISO_BUDGET + 1


def test_isomorphism_callers_stay_far_below_the_budget(monkeypatch, specs_243):
    """Every verdict the program reaches takes under a tenth of the budget:
    the catalog tiers, exhaustive dedup, variant non-isomorphism up to
    order 243 and the relabelled I(2,4) and II(2,4) of order 512."""
    monkeypatch.setattr(fg, "_ISO_BUDGET", fg._ISO_BUDGET // 10)
    oracle.nonabelian_catalog_upto.__wrapped__()
    for k in range(1, 9):
        oracle.enumerate_groups_exhaustive.__wrapped__(k)
    assert verify.check_variant_nonisomorphism().ok
    assert verify.check_exhaustive_order8().ok
    rng = random.Random(0)
    for spec in specs_243 + [jn2.parse_spec("I(2,4)"), jn2.parse_spec("II(2,4)")]:
        G = jn2.materialize(spec).group
        H, _ = random_relabeling(G, rng)
        assert fg.is_isomorphic(G, H) is not None, str(spec)


def _orders_by_multiplication(G: fg.FiniteGroup) -> list[int]:
    """Reference for ``element_orders``: multiply by x until the identity."""
    orders = []
    for x in range(G.order):
        y, k = x, 1
        while y != 0:
            y, k = G.mul(y, x), k + 1
        orders.append(k)
    return orders


def _groups_of_mixed_order():
    i31 = jn2.materialize(jn2.parse_spec("I(3,1)")).group
    return [fg.symmetric(5), fg.alternating(5), fg.dihedral(30), fg.cyclic(97),
            fg.direct_product(i31, fg.cyclic(3)), fg.dicyclic(12)]


def test_element_orders_match_repeated_multiplication(exhaustive_tiers):
    groups = _groups_of_mixed_order()
    groups += [G for k in range(1, 9) for G in exhaustive_tiers[k]]
    for G in groups:
        ref = _orders_by_multiplication(G)
        assert G.element_orders.tolist() == ref, G.label
        assert G.element_orders.dtype == np.int64
        assert G.order_profile == dict(sorted(collections.Counter(ref).items())), G.label
        assert G.exponent == math.lcm(*ref), G.label


def test_order_profile_and_exponent_pinned():
    assert fg.symmetric(5).order_profile == {1: 1, 2: 25, 3: 20, 4: 30, 5: 24, 6: 20}
    assert fg.symmetric(5).exponent == 60
    assert fg.alternating(5).order_profile == {1: 1, 2: 15, 3: 20, 5: 24}
    assert fg.dihedral(30).order_profile == {1: 1, 2: 15, 3: 2, 5: 4, 15: 8}
    assert fg.cyclic(97).order_profile == {1: 1, 97: 96}
    assert fg.dicyclic(12).exponent == 12


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_closure_indices_matches_unique_reference(small_corpus, data):
    G = data.draw(st.sampled_from(small_corpus))
    t = G.table
    # seeds that close to the whole group end the walk before the last seed
    whole = list(G.generators) + list(range(G.order))
    seeds = data.draw(st.lists(st.integers(0, len(t) - 1), max_size=5) | st.just(whole))
    got = fg.closure_indices(t, seeds)
    assert np.array_equal(got, closure_by_squaring(t, seeds))
    assert list(fg.closure_indices(t, np.asarray(seeds, dtype=np.int64))) == list(got)


def test_closure_memory_is_linear_in_the_order():
    """Closing I(2,5)'s generators, order 2,048, allocates O(|G|) bytes:
    each coset gathers at most |G| cells.  A closure that squares the set
    each round gathers a |G| x |G| block in its last round, a 31.5 MB
    traced peak here."""
    G = jn2.materialize(jn2.parse_spec("I(2,5)")).group
    tracemalloc.start()
    try:
        got = fg.closure_indices(G.table, G.generators)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.size == G.order
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------------------
# Cayley text format


CYCLIC3_TEXT = "3\n0 1 2\n1 2 0\n2 0 1\n"


def test_cayley_text_golden():
    G = fg.from_table(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert fg.to_cayley_text(G) == CYCLIC3_TEXT


def test_cayley_roundtrip_bit_exact():
    G = fg.dihedral(8)
    text = fg.to_cayley_text(G)
    H = fg._parse_cayley(text.encode())
    assert fg.to_cayley_text(H) == text
    assert H.label == "D8"


def test_cayley_file_roundtrip(tmp_path):
    path = tmp_path / "g.grp"
    G = fg.dicyclic(12)
    fg.write_cayley(G, path)
    H = fg.read_cayley(path)
    assert np.array_equal(G.table, H.table)
    assert path.read_bytes() == fg.to_cayley_text(G).encode()


@pytest.mark.parametrize("text,message", [
    ("", "missing order line"),
    ("# label: C3\n", "missing order line"),
    ("3\n0 1 2\n1 2 0\n", "expected 3 table rows, found 2"),
    ("3\n0 1 2\n1 2 0\n2 0 1\n2 0 1\n", "expected 3 table rows, found 4"),
    ("3\n0 1 2\n1 2 0 1\n2 0 1\n", "row 1 has 4 entries, expected 3"),
    ("3\n0 1 2\n1 2\n2 0 1\n", "row 1 has 2 entries, expected 3"),
    ("-3\n", "order must be >= 1, got -3"),
    ("0\n", "order must be >= 1, got 0"),
    ("\u0662\n0 1\n1 0\n", "order line '\u0662' is not an ASCII integer"),
    ("0_2\n0 1\n1 0\n", "order line '0_2' is not an ASCII integer"),
])
def test_cayley_text_rejects_malformed_tables(text, message):
    with pytest.raises(NotAGroup, match=message):
        fg._parse_cayley(text.encode())


def test_cayley_text_checks_cap_before_rows():
    # no rows follow: the order alone must trip the cap
    with pytest.raises(SizeLimit):
        fg._parse_cayley(f"{fg.TABLE_CAP + 1}\n".encode())


def _reference_from_cayley_text(text: str) -> fg.FiniteGroup:
    """The per-token parser that ``_parse_cayley`` replaced, kept verbatim as
    the reference on ASCII texts."""
    lines = text.splitlines()
    label = None
    if lines and lines[0].startswith("#"):
        head = lines.pop(0)[1:].strip()
        if head.startswith("label:"):
            label = head[len("label:"):].strip()
    if not lines:
        raise NotAGroup("missing order line")
    order = int(lines[0])
    fg._check_order(order)
    if len(lines) - 1 != order:
        raise NotAGroup(f"expected {order} table rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:]):
        row = [int(v) for v in line.split()]
        if len(row) != order:
            raise NotAGroup(f"row {i} has {len(row)} entries, expected {order}")
        rows.append(row)
    return fg.from_table(order, rows, label=label)


def test_cayley_byte_classes_are_pythons_ascii_ones():
    b = np.arange(256, dtype=np.uint8)
    assert fg._is_space(b).tolist() == [c < 128 and chr(c).isspace() for c in range(256)]
    breaks = [c < 128 and len(f"a{chr(c)}b".splitlines()) == 2 for c in range(256)]
    assert fg._is_break(b).tolist() == breaks
    assert sorted(fg._LINE_BREAKS) == np.flatnonzero(breaks).tolist()


def _parse_outcome(parse, text):
    try:
        G = parse(text)
    except (NotAGroup, SizeLimit, ValueError) as exc:
        return type(exc), str(exc)
    return G.label, G.table.tolist()


# ASCII whitespace that does not end a line, and the ASCII line breaks of
# str.splitlines(); "\r\n" counts once
ROW_SPACES = [" ", "\t", "\x1f", "  ", " \t\x1f"]
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
# entries the reference refuses or reads specially: signs, zero padding,
# letters, '.', integers beyond int64 and runs over int()'s digit limit
ODD_ENTRIES = ["x", ".", "+", "-", "+-1", "1-", "a1", "1.5", "-0", "+3", "007",
               "0" * 40 + "1", "9" * 40, str(2 ** 63), "1" * 4400, "\x00"]
# D200's text is about 150 KB: more than two parse blocks
PARSE_GROUPS = [fg.cyclic(1), fg.cyclic(2), fg.symmetric(3), fg.dihedral(8),
                fg.dicyclic(12), fg.dihedral(200)]
ASCII_NO_UNDERSCORE = "".join(chr(c) for c in range(128) if chr(c) != "_")


@st.composite
def ascii_table_texts(draw):
    """A group's table text with random ASCII separators and line breaks,
    then a few entries replaced, dropped or added, a label line, a wrong
    order line, a truncation or an inserted character."""
    G = draw(st.sampled_from(PARSE_GROUPS))
    n = G.order
    rows = [[str(v) for v in row] for row in G.table.tolist()]
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    entry = st.one_of(st.sampled_from(ODD_ENTRIES), st.integers(-2, n + 1).map(str))
    for r, c in draw(st.lists(cell, max_size=3)):
        rows[r][c] = draw(entry)
    for r, c in draw(st.lists(cell, max_size=1)):
        if draw(st.booleans()):
            del rows[r][c]
        else:
            rows[r].insert(c, draw(entry))
    sep = draw(st.sampled_from(ROW_SPACES))
    breaks = draw(st.sampled_from([["\n"], ["\r\n"], LINE_BREAKS]))
    lines = [sep.join(row) for row in rows]
    order_line = draw(st.sampled_from([str(n)] * 4 + [str(n + 1), f" +{n} ", "x"]))
    lines.insert(0, order_line)
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["# label: G", "#", "# note", "#label:x "])))
    text = "".join(line + draw(st.sampled_from(breaks)) for line in lines)
    damage = draw(st.sampled_from(["none", "none", "truncate", "insert", "strip"]))
    if damage == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    elif damage == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(ODD_ENTRIES + ROW_SPACES + LINE_BREAKS)) + text[at:]
    elif damage == "strip":
        text = text.rstrip("\r\n")
    return text


RANDOM_TEXTS = st.tuples(st.sampled_from(["", "1\n", "2\n", "3\r\n", "# label: a\n2\n"]),
                         st.text(alphabet=ASCII_NO_UNDERSCORE, max_size=40)).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(ascii_table_texts(), RANDOM_TEXTS))
def test_cayley_parser_matches_per_token_reference(text):
    assert _parse_outcome(lambda t: fg._parse_cayley(t.encode()), text) == \
        _parse_outcome(_reference_from_cayley_text, text)


def test_cayley_parser_across_block_boundaries():
    # CRLF rows: every block boundary falls between a "\r" and its "\n";
    # one more text puts a "\r\n" across the line-break scan's first chunk
    G = fg.dihedral(200)
    rows = [" ".join(map(str, row)) for row in G.table.tolist()]
    crlf = "200\r\n" + "\r\n".join(rows) + "\r\n"
    assert len(crlf) > 2 * fg._BLOCK
    start = len("200\r\n")
    pad = fg._BLOCK - 1 - len("\r\n".join(rows[:80]))
    straddle = "200\r\n" + "\r\n".join(rows[:80]) + " " * pad + "\r\n" + "\r\n".join(rows[80:])
    assert straddle[start + fg._BLOCK - 1:start + fg._BLOCK + 1] == "\r\n"
    for text in (crlf, straddle):
        assert np.array_equal(fg._parse_cayley(text.encode()).table, G.table)
    # faults in the last blocks, raised in row order, an entry before a count
    late = crlf.replace("\r\n" + rows[190] + "\r\n", "\r\n" + rows[190] + " 1\r\n")
    with pytest.raises(NotAGroup, match="row 190 has 201 entries, expected 200"):
        fg._parse_cayley(late.encode())
    bad = late.replace(rows[195], rows[195].replace(" ", " x ", 1))
    with pytest.raises(NotAGroup, match="row 190 has 201 entries"):
        fg._parse_cayley(bad.encode())
    worse = bad.replace(rows[185], rows[185] + " -")
    with pytest.raises(ValueError, match="invalid literal for int\\(\\) with base 10: '-'"):
        fg._parse_cayley(worse.encode())
    dotted = late.replace(rows[190] + " 1", rows[190] + " 1.5")
    with pytest.raises(ValueError, match="invalid literal for int\\(\\) with base 10: '1.5'"):
        fg._parse_cayley(dotted.encode())
    for text in (late, bad, worse, dotted):
        assert _parse_outcome(lambda t: fg._parse_cayley(t.encode()), text) == \
            _parse_outcome(_reference_from_cayley_text, text)


def _cyclic_1009_text(cells: dict[tuple[int, int], str]) -> str:
    """cyclic(1009)'s text, order line first, with the entry at each (row,
    column) of ``cells`` replaced; row r, column c holds (r + c) % 1009."""
    rows = [" ".join(map(str, row)) for row in fg.cyclic(1009).table.tolist()]
    for (r, c), entry in cells.items():
        row = rows[r].split(" ")
        row[c] = entry
        rows[r] = " ".join(row)
    return "1009\n" + "\n".join(rows) + "\n"


def test_cayley_parser_reads_four_digit_entries():
    """Entries of up to 4 digits, past D200's 3.  A late block holds a
    sign, a negative zero, a zero-padded 4-digit entry and a 5-digit
    over-width one; an earlier block holds only over-width entries, one of
    them read as 5 from its last four digits but 10,005 by int()."""
    cells = {(500, 0): "00500", (1000, 16): "+7", (1000, 9): "-0", (1001, 20): "0012",
             (1002, 998): "00991"}
    text = _cyclic_1009_text(cells)
    assert len(text) > 60 * fg._BLOCK
    G = fg._parse_cayley(text.encode())
    assert np.array_equal(G.table, fg.cyclic(1009).table)
    assert np.array_equal(G.table, _reference_from_cayley_text(text).table)
    wide = _cyclic_1009_text({**cells, (500, 514): "10005"})
    assert _parse_outcome(lambda t: fg._parse_cayley(t.encode()), wide) == \
        _parse_outcome(_reference_from_cayley_text, wide)


def test_cayley_parser_temporaries_stay_within_a_few_blocks():
    """cyclic(1009)'s 4 MB text is parsed in about 60 blocks: the traced
    peak, validation included, is the table plus at most 16 blocks' bytes
    (10.3 measured).  Whole-text byte masks would take 4 MB more, and
    whole-text int64 entry edges 16 MB."""
    data = _cyclic_1009_text({}).encode()
    tracemalloc.start()
    try:
        G = fg._parse_cayley(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= G.table.nbytes + 16 * fg._BLOCK, (peak - G.table.nbytes) / fg._BLOCK


C11_ROW1 = "1 2 3 4 5 6 7 8 9 10 0"


@pytest.mark.parametrize("row", [C11_ROW1.replace("10", "1_0"), C11_ROW1.replace("3", "\u0663"),
                                 C11_ROW1.replace(" 0", "\u00a00"), C11_ROW1 + "\u00a0",
                                 C11_ROW1.replace(" 0", " 0_0")])
def test_cayley_parser_refuses_int_quirks(row):
    # int() reads "1_0" as 10 and the Arabic-Indic three as 3, and
    # str.split() splits at U+00A0: the per-token parser accepted each row
    lines = fg.to_cayley_text(fg.cyclic(11)).splitlines()  # label, order, rows
    text = "\n".join(lines[:3] + [row] + lines[4:]) + "\n"
    assert np.array_equal(_reference_from_cayley_text(text).table, fg.cyclic(11).table)
    with pytest.raises(NotAGroup, match=r"^row 1 entry .* is not an ASCII integer$"):
        fg._parse_cayley(text.encode())


def test_cayley_label_line_may_be_non_ascii(tmp_path):
    path = tmp_path / "s3.grp"
    body = fg.to_cayley_text(fg.symmetric(3)).split("\n", 1)[1]
    path.write_bytes(f"# label: Σ3\n{body}".encode())
    G = fg.read_cayley(path)
    assert G.label == "Σ3"
    assert np.array_equal(G.table, fg.symmetric(3).table)
    fg.write_cayley(G, path)
    assert fg.read_cayley(path).label == "Σ3"
