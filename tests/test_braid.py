import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidquot import braid, fingroup as fg, jn2, oracle
from braidquot.braid import Witness
from braidquot.errors import HypothesisFailed, ParamRange, SearchBudgetExceeded, SizeLimit
from braidquot.jn2 import Jn2Spec, materialize, parse_spec
from references import find_witness_scalar, first_witness_unpruned, random_relabeling


def family_count(pres, family):
    return sum(1 for rel in pres.relators if rel.family == family)


# ---------------------------------------------------------------------------
# full presentation


def test_presentation_2_1():
    p = braid.bellingeri_presentation(2, 1)
    assert p.generators == ("s1", "a1", "b1")
    assert family_count(p, "braid") == 0
    assert family_count(p, "braid-comm") == 0
    assert family_count(p, "R1") == 0
    assert family_count(p, "R2") == 2
    assert family_count(p, "R3") == 0
    assert family_count(p, "R4") == 1
    assert family_count(p, "TR") == 1


def test_presentation_3_1_braid_relation():
    p = braid.bellingeri_presentation(3, 1)
    assert family_count(p, "braid") == 1
    braid_rel = next(r for r in p.relators if r.family == "braid")
    # s1 s2 s1 (s2 s1 s2)^-1
    assert braid_rel.word == (("s1", 1), ("s2", 1), ("s1", 1),
                              ("s2", -1), ("s1", -1), ("s2", -1))
    tr = next(r for r in p.relators if r.family == "TR")
    # the right side contributes s1 s2^2 s1, inverted
    assert tr.word[-3:] == (("s1", -1), ("s2", -2), ("s1", -1))


def test_presentation_5_2_counts():
    p = braid.bellingeri_presentation(5, 2)
    # four commutation forms per pair s < r
    assert family_count(p, "R3") == 4
    assert family_count(p, "R1") == 2 * 2 * 3   # two surface rows, i in 2..4
    assert family_count(p, "R2") == 4
    assert family_count(p, "R4") == 2
    assert family_count(p, "braid") == 3
    assert family_count(p, "braid-comm") == 3   # (1,3), (1,4), (2,4)


def test_presentation_param_range():
    with pytest.raises(ParamRange):
        braid.bellingeri_presentation(1, 1)
    with pytest.raises(ParamRange):
        braid.bellingeri_presentation(3, 0)


@pytest.mark.parametrize("n,g", [(2, 1), (3, 1), (5, 2), (6, 3)])
def test_presentation_relators_use_declared_generators(n, g):
    for pres in (braid.bellingeri_presentation(n, g), braid.reduced_relations(max(n, 3), g)):
        declared = set(pres.generators)
        for rel in pres.relators:
            assert all(gen in declared for gen, _ in rel.word), rel.label


@pytest.mark.parametrize("n,g", [(3, 1), (5, 1), (5, 2), (6, 2)])
def test_presentation_relator_counts_match_schema(n, g):
    p = braid.bellingeri_presentation(n, g)
    expected = {
        "braid-comm": (n - 1) * (n - 2) // 2 - (n - 2),
        "braid": n - 2,
        "R1": 2 * g * (n - 2),
        "R2": 2 * g,
        "R3": 4 * g * (g - 1) // 2,
        "R4": g,
        "TR": 1,
    }
    for family, count in expected.items():
        assert family_count(p, family) == count, family
    r = braid.reduced_relations(n, g)
    assert family_count(r, "R1'") == 2 * g
    assert family_count(r, "R3'") == 4 * g * (g - 1) // 2
    assert family_count(r, "R4'") == g
    assert family_count(r, "TR'") == 1


# ---------------------------------------------------------------------------
# reduced relations


def test_reduced_5_1():
    p = braid.reduced_relations(5, 1)
    labels = [r.label for r in p.relators]
    assert labels == ["R1'[a1]", "R1'[b1]", "R4'[1]", "TR'"]
    tr = p.relators[-1]
    assert tr.word == (("s", 10),)  # sigma^(2(g+n-1)) with g+n-1 = 5


def test_reduced_6_1_exponent():
    p = braid.reduced_relations(6, 1)
    assert p.relators[-1].word == (("s", 12),)


def test_reduced_5_2_r3_block():
    p = braid.reduced_relations(5, 2)
    assert family_count(p, "R3'") == 4  # one pair s=1 < r=2, four forms


def test_reduced_refuses_n2():
    with pytest.raises(ParamRange):
        braid.reduced_relations(2, 1)


# ---------------------------------------------------------------------------
# full-quotient checking


def test_identity_images_pass_but_do_not_generate():
    S5 = fg.symmetric(5)
    images = {gen: 0 for gen in braid.bellingeri_presentation(5, 1).generators}
    rep = braid.check_full_quotient(S5, 5, 1, images)
    assert rep.relators_ok
    assert not rep.generates
    assert not rep.ok


@pytest.mark.parametrize("n,g", [(5, 1), (5, 2), (6, 1), (6, 2)])
def test_symmetric_group_is_full_quotient(n, g):
    S = fg.symmetric(n)
    images = {f"s{i}": S.names[f"s{i}"] for i in range(1, n)}
    for r in range(1, g + 1):
        images[f"a{r}"] = 0
        images[f"b{r}"] = 0
    rep = braid.check_full_quotient(S, n, g, images)
    assert rep.relators_ok and rep.generates


def test_check_full_requires_all_images():
    with pytest.raises(ValueError, match="missing"):
        braid.check_full_quotient(fg.symmetric(3), 3, 1, {"s1": 0})


# ---------------------------------------------------------------------------
# reduced-witness checking


def test_abelian_witness_fails_r4_when_sigma_squared_nontrivial():
    C4 = fg.cyclic(4)
    w = Witness(group=C4, n=5, g=1, sigma=1, a=(1,), b=(3,))
    rep = braid.check_reduced_witness(w)
    assert not rep.family_ok("R4'")  # commutators vanish but sigma^2 = 2


def test_standard_witness_passes():
    w = braid.standard_witness(Jn2Spec(2, 2, 1, "I"), 6, 1)
    rep = braid.check_reduced_witness(w)
    assert rep.ok
    assert rep.sigma_central
    assert rep.derived_identity_ok


def test_q8_admits_no_witness():
    Q8 = fg.dicyclic(8)
    for n in range(3, 9):
        for g in (1, 2):
            assert braid.find_witness(Q8, n, g) is None


# ---------------------------------------------------------------------------
# witness search


def test_find_witness_degenerate_cyclic2():
    w = braid.find_witness(fg.cyclic(2), 6, 1)
    assert w is not None
    rep = braid.check_reduced_witness(w)
    assert rep.relators_ok and rep.generates


def test_find_witness_variant_two():
    G = materialize(Jn2Spec(2, 2, 2, "II")).group
    w = braid.find_witness(G, 5, 2)
    assert w is not None
    assert braid.check_reduced_witness(w).ok


def test_find_witness_d8_none():
    assert braid.find_witness(fg.dihedral(8), 6, 1) is None


def test_find_witness_keeps_no_reference_cycle():
    """The search holds its group only while it runs: with the cyclic
    collector off, a searched group is freed with its last reference."""
    G = materialize(parse_spec("I(2^2,1)")).group
    H = random_relabeling(G, random.Random(0))[0]
    alive = weakref.ref(H)
    enabled = gc.isenabled()
    gc.disable()
    try:
        w = braid.find_witness(H, 6, 1)
        assert w is not None and w.group is H
        del w, H
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def _naive_corpus(exhaustive_tiers, catalog):
    """Every group of order <= 16 the naive search is compared on."""
    groups = [G for k in range(2, 9) for G in exhaustive_tiers[k]]
    groups += [e.group for e in catalog.entries if e.order <= 14]
    # order 16: the two groups of the (6,1) minimum and two non-JN2 2-groups
    groups += [materialize(Jn2Spec(2, 2, 1, v)).group for v in ("I", "II")]
    groups += [fg.dihedral(16), fg.dicyclic(16)]
    return groups


def _triple(w):
    return None if w is None else (w.sigma, w.a, w.b)


def test_find_witness_agrees_with_naive_enumeration(exhaustive_tiers, catalog):
    for G in _naive_corpus(exhaustive_tiers, catalog):
        for n, g in ((5, 1), (6, 1)):
            naive = oracle.find_witness_naive(G, n, g)
            fast = braid.find_witness(G, n, g)
            if naive is None:
                assert fast is None, (G.label, n, g)
            else:
                assert fast is not None
                assert (fast.sigma, fast.a, fast.b) == naive


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_find_witness_agrees_with_naive_on_relabeled_tables(exhaustive_tiers,
                                                            catalog, seed):
    # the search order, and so the first witness, depends on the labels
    rng = random.Random(seed)
    for G in _naive_corpus(exhaustive_tiers, catalog):
        H, _ = random_relabeling(G, rng)
        for n, g in ((5, 1), (6, 1)):
            assert _triple(braid.find_witness(H, n, g)) == \
                oracle.find_witness_naive(H, n, g), (G.label, seed, n, g)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_find_witness_agrees_with_unpruned_search_genus_two(seed):
    # at (5,2) the first three have witnesses and II(2^3,1) has none; genus
    # two places a_2 and b_2 in C(a_1, b_1), which genus one never reaches
    rng = random.Random(seed)
    for spec in ("I(2^2,2)", "II(2^2,2)", "II(2^3,2)", "II(2^3,1)"):
        H, _ = random_relabeling(materialize(parse_spec(spec)).group, rng)
        assert _triple(braid.find_witness(H, 5, 2)) == \
            first_witness_unpruned(H, 5, 2), (spec, seed)


@pytest.fixture(scope="module")
def reference_corpus(gate_corpus):
    return [G for G, _ in gate_corpus if G.order <= 64]


# The unpruned reference takes about 30 s on each of these at g = 4, where
# it walks every chain of two pairs; the count cut settles them (see
# test_genus_four_sweep_node_counts_unchanged).
SLOW_REFERENCE = {("I(2^2,2)", 4), ("II(2^2,2)", 4)}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_find_witness_agrees_with_references_on_relabeled_groups(reference_corpus,
                                                                 data):
    """Negatives rest on the count cut and the sigma tests, not on
    enumeration, so they are checked against searches that use neither: the
    naive search at genus one up to order 14, the unpruned search otherwise."""
    n, g = data.draw(st.sampled_from([(5, 1), (6, 1), (5, 2), (6, 2), (7, 3), (5, 4)]))
    G = data.draw(st.sampled_from([G for G in reference_corpus
                                   if (G.label, g) not in SLOW_REFERENCE]))
    H, _ = random_relabeling(G, random.Random(data.draw(st.integers(0, 2**32 - 1))))
    if g == 1 and H.order <= 14:
        ref = oracle.find_witness_naive(H, n, g)
    else:
        ref = first_witness_unpruned(H, n, g)
    assert _triple(braid.find_witness(H, n, g)) == ref, (G.label, n, g)


def test_witnesses_force_the_count(specs_243):
    """The identity behind the count cut, on every witness the search finds
    among the specs up to order 243 (at g = m and the least n >= 5 with p
    dividing g + n - 1): x -> ([x, b_j], [a_j, x])_j has kernel Z(G) and
    takes |G'|^(2g) values, so |G : Z| = |G'|^(2g)."""
    found = 0
    for spec in specs_243:
        g = spec.m
        n = next(n for n in range(5, 5 + spec.p) if (g + n - 1) % spec.p == 0)
        G = materialize(spec).group
        w = braid.find_witness(G, n, g)
        if w is None:
            continue
        found += 1
        xs = np.arange(G.order)
        pairing = np.hstack([G.commutators_of(xs, w.b), G.commutators_of(w.a, xs).T])
        kernel = tuple(np.flatnonzero((pairing == 0).all(axis=1)).tolist())
        assert kernel == tuple(np.flatnonzero(G.center_mask).tolist()), str(spec)
        values = len(np.unique(pairing, axis=0))
        assert values == fg.derived_subgroup(G).order ** (2 * g) == G.order // len(kernel), \
            str(spec)
    assert found == 16


def test_find_witness_agrees_with_naive_genus_two():
    for G in oracle.enumerate_groups_exhaustive(8):
        naive = oracle.find_witness_naive(G, 5, 2)
        fast = braid.find_witness(G, 5, 2)
        if naive is None:
            assert fast is None
        else:
            assert (fast.sigma, fast.a, fast.b) == naive


def _semidirect(normal, acting, act, label):
    """normal x| acting, for abelian groups each given as (elements, mods):
    tuples, identity first, added coordinatewise modulo ``mods``.  The
    product is (v, j)(w, k) = (v + act(j, w), j + k)."""
    (vs, vmods), (js, jmods) = normal, acting

    def add(u, w, mods):
        return tuple((p + q) % m for p, q, m in zip(u, w, mods))

    els = [(v, j) for j in js for v in vs]
    index = {e: i for i, e in enumerate(els)}
    table = [[index[(add(v, act(j, w), vmods), add(j, k, jmods))] for w, k in els]
             for v, j in els]
    return fg.from_table(len(els), table, label=label)


def _cyclic_tuples(m):
    return [(i,) for i in range(m)], (m,)


def _order_16_groups():
    """The 14 groups of order 16: five abelian, the two JN2 models, D16,
    Q16, D8 x C2, Q8 x C2, and three semidirect products."""
    c, dp = fg.cyclic, fg.direct_product
    e4, e16 = (fg.from_table(2 ** k, fg.digit_sum_table(2, k), label=f"E2^{k}") for k in (2, 4))
    groups = [c(16), dp(c(2), c(8)), dp(c(4), c(4)), dp(e4, c(4)), e16]
    groups += [materialize(Jn2Spec(2, 2, 1, v)).group for v in ("I", "II")]
    groups += [fg.dihedral(16), fg.dicyclic(16), dp(fg.dihedral(8), c(2)),
               dp(fg.dicyclic(8), c(2))]
    for m, n, k, label in ((8, 2, 3, "SD16"), (4, 4, 3, "C4:C4")):
        groups.append(_semidirect(_cyclic_tuples(m), _cyclic_tuples(n),
                                  lambda j, w, m=m, k=k: ((w[0] * k ** j[0]) % m,), label))
    pairs = ([(x, y) for x in range(2) for y in range(2)], (2, 2))
    groups.append(_semidirect(pairs, _cyclic_tuples(4),
                              lambda j, w: w[::-1] if j[0] % 2 else w, "C2^2:C4"))
    return groups


def test_order_16_groups_are_the_fourteen_classes():
    groups = _order_16_groups()
    assert len(groups) == 14
    for i, G in enumerate(groups):
        assert G.order == 16
        for H in groups[:i]:
            assert fg.is_isomorphic(G, H) is None, (G.label, H.label)


def test_naive_search_matches_scalar_reference(exhaustive_tiers, catalog):
    """The blockwise naive search returns the scalar loop's first witness on
    every group of order <= 16 at genus one, and on order 8 at (5,2)."""
    abelian = [fg.cyclic(k) for k in range(9, 16)]
    abelian += [fg.direct_product(fg.cyclic(3), fg.cyclic(3)),
                fg.direct_product(fg.cyclic(2), fg.cyclic(6))]
    groups = [G for k in range(1, 9) for G in exhaustive_tiers[k]]
    groups += [e.group for e in catalog.entries if e.order > 8]
    groups += abelian + _order_16_groups()
    found = 0
    for G in groups:
        for n, g in ((5, 1), (6, 1)):
            ref = find_witness_scalar(G, n, g)
            assert oracle.find_witness_naive(G, n, g) == ref, (G.label, n, g)
            found += ref is not None
    for G in exhaustive_tiers[8]:
        assert oracle.find_witness_naive(G, 5, 2) == find_witness_scalar(G, 5, 2), G.label
    assert found > 0


def test_naive_search_blocks_keep_the_order(monkeypatch, exhaustive_tiers):
    """Blocks that split a sigma's tuples leave the first witness as it is."""
    cases = [(G, n, g) for G in exhaustive_tiers[8] for n, g in ((5, 1), (6, 1), (5, 2))]
    cases += [(materialize(Jn2Spec(2, 2, 1, "II")).group, n, 1) for n in (5, 6)]
    refs = [find_witness_scalar(*case) for case in cases]
    assert any(ref is not None for ref in refs)
    for block in (5, 100):
        monkeypatch.setattr(oracle, "_NAIVE_BLOCK", block)
        assert [oracle.find_witness_naive(*case) for case in cases] == refs, block


def test_find_witness_param_range():
    with pytest.raises(ParamRange):
        braid.find_witness(fg.cyclic(2), 2, 1)


# First witness (sigma, a, b) of every enumerate_specs(64) candidate, as the
# closure-only search found them before generation was tested by Frattini
# rank, and of every enumerate_specs(128) candidate at (5,2), as the search
# found them before orbit pruning; every (n, g, spec) not listed has no
# witness.
FIRST_WITNESSES = {
    (6, 1, "I(2^2,1)"): (4, (1,), (2,)),
    (6, 1, "II(2^2,1)"): (4, (1,), (2,)),
    (6, 1, "I(3,1)"): (9, (1,), (3,)),
    (6, 1, "II(3,1)"): (9, (1,), (3,)),
    (6, 1, "II(2^3,1)"): (8, (1,), (2,)),
    (6, 1, "II(2^4,1)"): (16, (1,), (2,)),
    (5, 2, "I(2^2,2)"): (16, (1, 2), (4, 8)),
    (5, 2, "II(2^2,2)"): (16, (1, 2), (4, 8)),
    (5, 2, "II(2^3,2)"): (32, (1, 2), (4, 8)),
}


@pytest.mark.parametrize("n,g", [(6, 1), (5, 1), (7, 1), (5, 2), (5, 3)])
def test_first_witnesses_unchanged(n, g):
    for spec in jn2.enumerate_specs(64):
        w = braid.find_witness(materialize(spec).group, n, g)
        got = None if w is None else (w.sigma, w.a, w.b)
        assert got == FIRST_WITNESSES.get((n, g, str(spec))), (n, g, str(spec))


def test_first_witnesses_unchanged_at_bound_128():
    for spec in jn2.enumerate_specs(128):
        w = braid.find_witness(materialize(spec).group, 5, 2)
        assert _triple(w) == FIRST_WITNESSES.get((5, 2, str(spec))), str(spec)


# I(2^4,1) and I(2^5,1) have |G : Z| = 4 < |G'|^(2g) = 16 at (5,2): the count
# cut settles them with no node.  The tables are fresh relabellings, so the
# commutator matrix the search would build is not cached from another test.
@pytest.mark.parametrize("spec", ["I(2^4,1)", "I(2^5,1)"])
def test_search_counts_its_nodes(spec):
    G, _ = random_relabeling(materialize(parse_spec(spec)).group, random.Random(0))
    stats = braid.SearchStats()
    assert braid.find_witness(G, 5, 2, budget=0, stats=stats) is None
    assert stats.explored == 0
    assert "commutators" not in vars(G)    # built only past the sigma tests


def test_budget_error_counts_the_nodes():
    # I(2^2,2) passes the cut and explores 6 nodes up to its first witness
    G = materialize(parse_spec("I(2^2,2)")).group
    stats = braid.SearchStats()
    w = braid.find_witness(G, 5, 2, stats=stats)
    assert _triple(w) == FIRST_WITNESSES[(5, 2, "I(2^2,2)")]
    assert stats.explored == 6
    assert _triple(braid.find_witness(G, 5, 2, budget=6)) == _triple(w)
    with pytest.raises(SearchBudgetExceeded) as err:
        braid.find_witness(G, 5, 2, budget=5)
    assert err.value.explored == 6


def test_sweep_carries_node_counts():
    rep = braid.minimal_braid_reduced_search(5, 2, 64)
    explored = {c.label: c.explored for c in rep.candidates}
    assert explored["I(2^4,1)"] == 0    # the count cut
    assert explored["Q8"] == 0    # its center has exponent 2: no sigma is tried
    assert {k: v for k, v in explored.items() if v} == {"I(2^2,2)": 6, "II(2^2,2)": 6}


def test_sigma_cut_settles_order_128_at_once():
    # I(2^3,2) has Frattini rank 5.  The only central sigmas with sigma^2 a
    # nontrivial commutator are z^2 and z^6, which are squares and so lie
    # in the Frattini subgroup: sigma and 2g = 4 more elements cannot span.
    # The closure-only search used up a million nodes here without a verdict.
    G = materialize(Jn2Spec(2, 3, 2, "I")).group
    assert G.frattini.rank == 5
    assert braid.find_witness(G, 5, 2, budget=10_000) is None


def test_genus_four_sweep_node_counts_unchanged(catalog):
    # the count cut settles every candidate: |G : Z| <= 16 < |G'|^8 = 256
    rep = braid.minimal_braid_reduced_search(5, 4, 64)
    assert rep.minimum is None
    explored = {c.label: c.explored for c in rep.candidates}
    assert len(explored) == 22
    assert not any(explored.values())
    tier = {e.group.label: e.group for e in catalog.entries}
    for c in rep.candidates:
        G = materialize(c.spec).group if c.spec is not None else tier[c.label]
        zsize = int(G.center_mask.sum())
        assert G.order // zsize != fg.derived_subgroup(G).order ** 8, c.label


def test_catalog_groups_never_carry_a_witness(catalog):
    # the premise of the sweep's assertion that every hit has a spec: a
    # central sigma has sigma^2 = 1, which generates G' only on abelian G,
    # so no catalog group gets past the count cut and the sigma gate
    for entry in catalog.entries:
        G = entry.group
        assert not G.is_abelian and G.center_mask.sum() <= 2, G.label
        for n in range(5, 10):
            for g in range(1, 5):
                stats = braid.SearchStats()
                assert braid.find_witness(G, n, g, stats=stats) is None, (G.label, n, g)
                assert stats.explored == 0, (G.label, n, g)


# Nodes explored on every candidate of the (5,2,128) and (7,3,128) sweeps:
# only the rank-2 JN2 groups pass the count cut at g = 2, and none at g = 3.
NODES_5_2_128 = {"I(2^2,2)": 6, "II(2^2,2)": 6, "II(2^3,2)": 6}
NODES_7_3_128 = {}


@pytest.mark.parametrize("n,g,nodes", [(5, 2, NODES_5_2_128), (7, 3, NODES_7_3_128)],
                         ids=["n5_g2", "n7_g3"])
def test_bound_128_sweep_node_counts_unchanged(n, g, nodes):
    rep = braid.minimal_braid_reduced_search(n, g, 128)
    explored = {c.label: c.explored for c in rep.candidates}
    assert len(explored) == 32
    assert {k: v for k, v in explored.items() if v} == nodes


@pytest.fixture(scope="module")
def gate_corpus(exhaustive_tiers, catalog, specs_243):
    groups = [G for tier in exhaustive_tiers.values() for G in tier]
    groups += [entry.group for entry in catalog.entries]
    groups += [materialize(spec).group for spec in specs_243]
    return [(G, fg.derived_subgroup(G)) for G in groups]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sigma_gate_admits_exactly_when_sigma_squared_generates_derived(gate_corpus,
                                                                        data):
    # find_witness tries a central sigma only when derived.is_generated_by(sigma^2).
    # Every x in G is checked, not only central squares: A4's involutions
    # lie in G' = V4 without spanning it, which no central square here does.
    G, derived = data.draw(st.sampled_from(gate_corpus))
    for x in range(G.order):
        spanned = tuple(fg.closure_indices(G.table, [x]).tolist())
        assert derived.is_generated_by(x) == (spanned == derived.elements), (G.label, x)


# G' has order 6 and 4 here, but sigma^2 has order at most 2 for every
# central sigma, so no sigma passes the gate.  Before the gate
# asked <sigma^2> = G', the search visited 372, 372 and 1,944 nodes.
@pytest.mark.parametrize("factor,n,g", [("S3", 6, 1), ("S3", 5, 2), ("D8", 5, 2)])
def test_sigma_gate_skips_products_with_a_larger_derived_subgroup(factor, n, g):
    H = fg.symmetric(3) if factor == "S3" else fg.dihedral(8)
    G = fg.direct_product(H, materialize(parse_spec("I(2^2,1)")).group)
    stats = braid.SearchStats()
    assert braid.find_witness(G, n, g, stats=stats) is None
    assert stats.explored == 0
    assert first_witness_unpruned(G, n, g) is None


@pytest.fixture(scope="module")
def jn2_sigmas(specs_243):
    """Each spec up to order 243 with the central sigmas the search tries:
    <sigma^2> = G'."""
    corpus = []
    for spec in specs_243:
        G = materialize(spec).group
        derived = fg.derived_subgroup(G)
        sigmas = [int(s) for s in np.flatnonzero(G.center_mask)
                  if derived.is_generated_by(int(G.table[s, s]))]
        if sigmas:
            corpus.append((spec, G, sigmas))
    return corpus


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_prefix_and_its_centralizer_generate_jn2_groups(jn2_sigmas, data):
    """Why find_witness tests generation only at the leaf: on a JN2 group
    the pairs placed so far, with [a, b] = sigma^2 and each pair inside the
    centralizer of those before it, generate G together with their
    centralizer, so a cut on that set never fires."""
    spec, G, sigmas = data.draw(st.sampled_from(jn2_sigmas))
    sigma = data.draw(st.sampled_from(sigmas))
    s2 = int(G.table[sigma, sigma])
    comm = G.commutators_of(range(G.order), range(G.order))
    commutes = comm == 0
    placed, mask = [sigma], np.ones(G.order, dtype=bool)
    for _ in range(data.draw(st.integers(1, spec.m))):
        cent = np.flatnonzero(mask)
        partnered = cent[(comm[cent][:, cent] == s2).any(axis=1)]
        assert partnered.size, (str(spec), placed)   # W^perp is not zero yet
        a = data.draw(st.sampled_from(partnered.tolist()))
        b = data.draw(st.sampled_from(cent[comm[a, cent] == s2].tolist()))
        mask = mask & commutes[a] & commutes[b]
        placed += [a, b]
        seeds = placed + np.flatnonzero(mask).tolist()
        assert fg.closure_indices(G.table, seeds).size == G.order, (str(spec), placed)


# ---------------------------------------------------------------------------
# standard witnesses (explicit sigma recipes)


def test_standard_witness_sigma_values():
    std = materialize(Jn2Spec(2, 2, 1, "I"))
    assert braid.standard_witness(Jn2Spec(2, 2, 1, "I"), 6, 1).sigma == std.z

    std5 = materialize(Jn2Spec(5, 1, 1, "I"))
    w5 = braid.standard_witness(Jn2Spec(5, 1, 1, "I"), 5, 1)
    assert w5.sigma == std5.group.power(std5.z, 3)  # (5+1)/2 = 3

    std9 = materialize(Jn2Spec(3, 2, 1, "II"))
    w9 = braid.standard_witness(Jn2Spec(3, 2, 1, "II"), 6, 1)
    assert w9.sigma == std9.group.power(std9.z, 6)  # (9+3)/2 = 6


def test_standard_witness_hypotheses():
    with pytest.raises(HypothesisFailed, match="divide"):
        braid.standard_witness(Jn2Spec(5, 1, 1, "I"), 6, 1)  # 5 does not divide 6
    with pytest.raises(HypothesisFailed, match="m="):
        braid.standard_witness(Jn2Spec(5, 1, 2, "I"), 5, 1)  # rank mismatch
    with pytest.raises(HypothesisFailed):
        braid.standard_witness(Jn2Spec(3, 2, 1, "I"), 6, 1)  # I needs j = 1 for odd p
    with pytest.raises(HypothesisFailed):
        braid.standard_witness(Jn2Spec(2, 1, 1, "II"), 6, 1)  # II with p = 2 needs j >= 2


def test_standard_witnesses_extend_to_full_presentation():
    for spec, n, g in [
        (Jn2Spec(2, 2, 1, "I"), 6, 1),
        (Jn2Spec(2, 2, 1, "II"), 6, 1),
        (Jn2Spec(2, 3, 1, "II"), 6, 1),
        (Jn2Spec(5, 1, 1, "I"), 5, 1),
        (Jn2Spec(5, 1, 1, "II"), 5, 1),
        (Jn2Spec(3, 1, 1, "I"), 6, 1),
        (Jn2Spec(2, 2, 2, "I"), 5, 2),
        (Jn2Spec(2, 2, 2, "II"), 5, 2),
    ]:
        w = braid.standard_witness(spec, n, g)
        full = braid.check_full_quotient(w.group, n, g, w.full_images())
        assert full.ok, (str(spec), full.failures())
        assert full.family_ok("R2")


# ---------------------------------------------------------------------------
# predicted minimum and the sweep


@pytest.mark.parametrize("n,g,expected", [
    (5, 1, (5, 1, 125)),
    (6, 1, (2, 2, 16)),
    (5, 2, (2, 2, 64)),
    (7, 1, (7, 1, 343)),
    (6, 2, (7, 1, 16807)),
])
def test_predicted_minimum(n, g, expected):
    pred = braid.predicted_minimum(n, g)
    assert (pred.p, pred.j, pred.order) == expected


def test_predicted_minimum_param_range():
    with pytest.raises(ParamRange):
        braid.predicted_minimum(4, 1)


def test_search_6_1():
    rep = braid.minimal_braid_reduced_search(6, 1, 64)
    assert rep.minimum == 16
    assert rep.attained == ("I(2^2,1)", "II(2^2,1)")
    below = [c for c in rep.candidates if c.order < 16]
    assert below and all(c.witness is None for c in below)


def test_search_5_1_rejections():
    rep = braid.minimal_braid_reduced_search(5, 1, 125)
    assert rep.minimum == 125
    assert rep.attained == ("I(5,1)", "II(5,1)")
    rejected = {c.label for c in rep.candidates if c.witness is None}
    for label in ("D8", "Q8", "I(3,1)", "II(3,1)", "I(2,2)", "II(2,2)",
                  "I(2^2,1)", "II(2^2,1)", "I(2^3,1)", "II(2^3,1)"):
        assert label in rejected, label


def test_search_divisibility_and_rank_necessity():
    # every successful JN2 candidate has p | g+n-1 and m = g
    for n, g, bound in ((6, 1, 64), (5, 1, 125), (5, 2, 64)):
        rep = braid.minimal_braid_reduced_search(n, g, bound)
        for cand in rep.found():
            if cand.spec is None:
                continue
            assert (g + n - 1) % cand.spec.p == 0
            assert cand.spec.m == g


def test_search_witnesses_reverify():
    rep = braid.minimal_braid_reduced_search(6, 1, 64)
    for cand in rep.found():
        assert braid.check_reduced_witness(cand.witness).ok


def test_search_param_and_size_errors():
    with pytest.raises(ParamRange):
        braid.minimal_braid_reduced_search(4, 1, 64)
    with pytest.raises(SizeLimit):
        braid.minimal_braid_reduced_search(6, 1, 20_000)


# ---------------------------------------------------------------------------
# non-nilpotency of symmetric groups


@pytest.mark.parametrize("m,expected", [(2, False), (3, True), (5, True)])
def test_non_nilpotency_check(m, expected):
    assert (fg.nilpotency_class(fg.symmetric(m)) is None) is expected


def test_non_nilpotency_size_limit():
    with pytest.raises(SizeLimit):
        fg.symmetric(8)


# ---------------------------------------------------------------------------
# witness files


def test_witness_text_roundtrip(tmp_path):
    w = braid.standard_witness(Jn2Spec(2, 2, 1, "I"), 6, 1)
    text = braid.witness_to_text(w, "I(2^2,1)")
    assert text == "n 6\ng 1\ngroup I(2^2,1)\nsigma 4\na 1\nb 2\n".replace(
        "sigma 4", f"sigma {w.sigma}").replace("a 1", f"a {w.a[0]}").replace(
        "b 2", f"b {w.b[0]}")
    back = braid.witness_from_text(text, base_dir=".")
    assert (back.n, back.g, back.sigma, back.a, back.b) == (6, 1, w.sigma, w.a, w.b)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_witness_text_roundtrip_property(data):
    g = data.draw(st.integers(min_value=1, max_value=3))
    n = data.draw(st.integers(min_value=3, max_value=9))
    G = materialize(Jn2Spec(2, 2, 1, "I")).group
    sigma = data.draw(st.integers(min_value=0, max_value=15))
    a = tuple(data.draw(st.integers(min_value=0, max_value=15)) for _ in range(g))
    b = tuple(data.draw(st.integers(min_value=0, max_value=15)) for _ in range(g))
    w = Witness(group=G, n=n, g=g, sigma=sigma, a=a, b=b)
    back = braid.witness_from_text(braid.witness_to_text(w, "I(2^2,1)"), base_dir=".")
    assert (back.n, back.g, back.sigma, back.a, back.b) == (n, g, sigma, a, b)


@pytest.mark.parametrize("sigma,a,b", [(-12, (-15,), (-14,)), (99999, (1,), (2,)),
                                       (0, (16,), (0,))])
def test_witness_rejects_indices_outside_group(sigma, a, b):
    G = materialize(Jn2Spec(2, 2, 1, "I")).group
    with pytest.raises(ValueError, match="outside the group of order 16"):
        Witness(group=G, n=6, g=1, sigma=sigma, a=a, b=b)


def test_witness_file_accepts_g_up_to_max_g():
    ones = " ".join(["1"] * braid.MAX_G)
    text = f"n 6\ng {braid.MAX_G}\ngroup I(2^2,1)\nsigma 4\na {ones}\nb {ones}\n"
    assert braid.witness_from_text(text, base_dir=".").g == braid.MAX_G
    for g in (0, braid.MAX_G + 1):
        with pytest.raises(ParamRange, match=f"got g={g}"):
            braid.witness_from_text(text.replace(f"g {braid.MAX_G}", f"g {g}"), base_dir=".")


def test_witness_file_with_cayley_path(tmp_path):
    G = fg.dihedral(8)
    fg.write_cayley(G, tmp_path / "d8.grp")
    text = "n 6\ng 1\ngroup d8.grp\nsigma 0\na 0\nb 1\n"
    w = braid.witness_from_text(text, base_dir=str(tmp_path))
    assert w.group.order == 8
    assert not braid.check_reduced_witness(w).ok
