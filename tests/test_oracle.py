import hashlib
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidquot import fingroup as fg
from braidquot import jn2, oracle
from braidquot.errors import SearchBudgetExceeded, SizeLimit
from braidquot.jn2 import Jn2Spec, materialize

from references import enumerate_tables_rules_1_to_3, follows_word_order, random_relabeling


# ---------------------------------------------------------------------------
# exhaustive enumeration


EXPECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5}


def test_class_counts(exhaustive_tiers):
    for k, expected in EXPECTED_CLASS_COUNTS.items():
        assert len(exhaustive_tiers[k]) == expected, k


def test_order4_classes(exhaustive_tiers):
    tier = exhaustive_tiers[4]
    assert any(fg.is_isomorphic(G, fg.cyclic(4)) is not None for G in tier)
    assert any(fg.is_isomorphic(G, fg.from_table(4, fg.digit_sum_table(2, 2))) is not None
               for G in tier)


def test_order6_nonabelian_is_s3(exhaustive_tiers):
    nonab = [G for G in exhaustive_tiers[6] if not G.is_abelian]
    assert len(nonab) == 1
    assert fg.is_isomorphic(nonab[0], fg.symmetric(3)) is not None


def test_order8_nonabelian_are_the_standard_pair(exhaustive_tiers):
    nonab = [G for G in exhaustive_tiers[8] if not G.is_abelian]
    assert len(nonab) == 2
    for variant in ("I", "II"):
        std = materialize(Jn2Spec(2, 1, 1, variant)).group
        assert sum(1 for G in nonab
                   if fg.is_isomorphic(G, std) is not None) == 1


def test_enumeration_pairwise_nonisomorphic(exhaustive_tiers):
    for k, tier in exhaustive_tiers.items():
        for i in range(len(tier)):
            for j in range(i + 1, len(tier)):
                assert fg.is_isomorphic(tier[i], tier[j]) is None


def test_tables_put_an_element_of_maximal_order_first():
    """Element 1 has the largest element order d, and 1^i is labeled i."""
    for k in range(2, 11):
        for rows in oracle._enumerate_tables(k):
            G = fg.from_table(k, rows)
            d = int(G.element_orders[1])
            assert d == G.element_orders.max(), (k, rows)
            assert [G.power(1, i) for i in range(d)] == list(range(d)), (k, rows)


# sha256 of repr(_enumerate_tables(k)) and the nodes it visits, k <= 10,
# taken with the word-order rule.  Its tables are those of the rules-1-3
# enumeration that follow the word order (test below); the node counts are
# those of the search with the word-order prune.
TABLE_DIGESTS = {
    1: ("86b5d3162787617aa35eb7d0c9b00a08fb3f4d1b2bba193bd6c2ccbd53fefdcf", 0),
    2: ("dc3d530bb05de88023054a9b34efd50a134f717efe23f98dc73d4b08f20b3cb6", 1),
    3: ("b542902a02f3a0c0c5b3e6c4ac69b628e09bf04717fb52784879af0f4d90e27c", 1),
    4: ("90e0df99a0779619093c851d6f8cda683b342f298df9608eb91e126d4cb29598", 7),
    5: ("dbcbeb19bb80df8bbe7911f5a5df441989d0815fe7c32cf65f0b887ff4620810", 1),
    6: ("845e42471bee68c97f6f165b6f665361d2a1837788f4636e1a6b9f438fce7626", 35),
    7: ("1c756656d6face6e46eaae2521b2c3909f8ec4e7bc83b6fdb39538970ea01ee5", 1),
    8: ("e0e6957a6a0cd3ecadbf64842765b09f50d5c36531c5ff4d998e25a55277d52d", 322),
    9: ("7d95c72990cee74f96870361cdd9e81bfe2ebb633d1f725a266365881f474f77", 504),
    10: ("ef483b614062820fe36711917a833e89a50d5dc6934aa944b42ad9883f090e81", 7_583),
}

# sha256 of repr() of the rules-1-3 enumeration in tests/references.py,
# the pins of the enumeration before the word-order rule: the digests for
# k <= 9 date from before its cycle-shape and coset-relation prunes, and the
# k = 10 one was taken from it before them.
RULES_1_TO_3_DIGESTS = {
    6: "fd6417bac01ee98b1130161bd57c91d60c8caf79f45e63e822f0be0a06a2aed6",
    8: "1d01abc98c18f3a488fa995a766eb17bc922c4271e302bbc58f5fb042c483a18",
    9: "469c43edc01488c0385162f7d335529e7beeba6907e2a0646e2a2162b2569476",
    10: "5c6d80941fec110f924169fa00fde3172066dda4a27d4812f57b6d88eabf54eb",
}


def _enumerate_with_budget(monkeypatch, k, nodes):
    """``_enumerate_tables(k)`` run afresh under a budget of ``nodes``."""
    monkeypatch.setattr(oracle, "_ENUM_BUDGET", nodes)
    oracle._enumerate_tables.cache_clear()
    return oracle._enumerate_tables(k)


@pytest.mark.parametrize("k", sorted(TABLE_DIGESTS))
def test_enumerated_tables_and_nodes_pinned(monkeypatch, k):
    digest, nodes = TABLE_DIGESTS[k]
    tables = _enumerate_with_budget(monkeypatch, k, nodes)
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == digest
    if nodes:
        with pytest.raises(SearchBudgetExceeded):
            _enumerate_with_budget(monkeypatch, k, nodes - 1)


@pytest.mark.parametrize("k", sorted(TABLE_DIGESTS))
def test_tables_are_the_word_ordered_tables_of_rules_1_to_3(k):
    """The word-order prune drops exactly the tables of the rules-1-3
    enumeration whose labels are not their breadth-first word order, and
    keeps the others in their order."""
    ref = enumerate_tables_rules_1_to_3(k)
    if k in RULES_1_TO_3_DIGESTS:
        assert hashlib.sha256(repr(ref).encode()).hexdigest() == RULES_1_TO_3_DIGESTS[k]
    kept = [rows for rows in ref if follows_word_order(rows)]
    assert oracle._enumerate_tables(k) == kept


def test_orders_9_to_13_from_the_axioms(catalog):
    """Orders 9, 11 and 13 have no nonabelian table, and the catalog's
    order-10 tier is exactly the nonabelian classes of order 10.  Order 12
    takes a few seconds; ci/test_checks.py::test_check[catalog-tier-12]
    checks it."""
    for k in (9, 11, 13):
        assert all(list(zip(*rows)) == rows for rows in oracle._enumerate_tables(k)), k
    oracle._check_tier(10, [G for G in catalog if G.order == 10])


def _match_one_to_one(tier, standard):
    assert len(tier) == len(standard)
    for H in standard:
        assert sum(1 for G in tier if fg.is_isomorphic(G, H) is not None) == 1, H.label


def test_order8_representatives_are_the_five_classes(exhaustive_tiers):
    c2 = fg.cyclic(2)
    _match_one_to_one(exhaustive_tiers[8], [
        fg.cyclic(8), fg.direct_product(fg.cyclic(4), c2),
        fg.from_table(8, fg.digit_sum_table(2, 3)), fg.dihedral(8), fg.dicyclic(8)])


def test_order9_classes():
    _match_one_to_one(oracle.enumerate_groups_exhaustive(9),
                      [fg.cyclic(9), fg.from_table(9, fg.digit_sum_table(3, 2))])


def test_enumeration_budget(monkeypatch):
    monkeypatch.setattr(oracle, "_ENUM_BUDGET", 10)
    oracle._enumerate_tables.cache_clear()
    oracle.enumerate_groups_exhaustive.cache_clear()
    with pytest.raises(SearchBudgetExceeded):
        oracle.enumerate_groups_exhaustive(12)


# ---------------------------------------------------------------------------
# catalog


def test_catalog_order12_tier(catalog):
    groups = [G for G in catalog if G.order == 12]
    assert len(groups) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert fg.is_isomorphic(groups[i], groups[j]) is None


def test_catalog_matches_exhaustive_at_8(catalog, exhaustive_tiers):
    tier = [G for G in catalog if G.order == 8]
    nonab = [G for G in exhaustive_tiers[8] if not G.is_abelian]
    assert len(tier) == len(nonab) == 2
    for G in nonab:
        assert any(fg.is_isomorphic(G, H) is not None for H in tier)


def _bad_tiers():
    d8, q8 = fg.dihedral(8), fg.dicyclic(8)
    d8_relabelled = fg.relabel(d8, [0, *range(7, 0, -1)])[0]
    return {"order 8 without Q8": (8, [d8]),
            "order 8 with D8 twice": (8, [d8, d8_relabelled, q8]),
            "order 8 with D8 again after Q8": (8, [d8, q8, d8_relabelled]),
            "order 6 with an extra group": (6, [fg.symmetric(3), fg.cyclic(6)])}


def test_check_tier_accepts_the_catalog_tiers(catalog):
    for k in (6, 8):
        oracle._check_tier(k, [G for G in catalog if G.order == k])


@pytest.mark.parametrize("name", sorted(_bad_tiers()))
def test_check_tier_rejects_bad_tiers(name):
    k, tier = _bad_tiers()[name]
    with pytest.raises(RuntimeError):
        oracle._check_tier(k, tier)


def test_catalog_compares_pairwise_only_the_tiers_check_tier_skips(monkeypatch):
    """The tiers through EXHAUSTIVE_MAX_ORDER are left to ``_check_tier``,
    which rejects two isomorphic groups in one tier; of the rest only
    order 12 holds more than one group, so its 3 pairs are compared."""
    pairs = []

    def counting(G, H):
        pairs.append((G.label, H.label))
        return fg.is_isomorphic(G, H)
    monkeypatch.setattr(oracle, "_check_tier", lambda k, tier: None)
    monkeypatch.setattr(oracle, "is_isomorphic", counting)
    oracle.nonabelian_catalog_upto.__wrapped__()
    assert pairs == [("D12", "A4"), ("D12", "Dic12"), ("A4", "Dic12")]


def test_check_tier_rejects_under_python_O():
    """The completeness check is no assert: ``python -O`` keeps it."""
    script = ("from braidquot import fingroup as fg, oracle\n"
              "try:\n"
              "    oracle._check_tier(8, [fg.dihedral(8)])\n"
              "except RuntimeError:\n"
              "    print('rejected')\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oracle.__file__)))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "rejected\n"


def test_catalog_and_enumeration_enumerate_each_order_once():
    """verify-paper reaches both the catalog and enumerate_groups_exhaustive;
    they read the same cached tables of orders 6 and 8."""
    for fn in (oracle._enumerate_tables, oracle.enumerate_groups_exhaustive,
               oracle.nonabelian_catalog_upto):
        fn.cache_clear()
    oracle.nonabelian_catalog_upto()
    oracle.enumerate_groups_exhaustive(6)
    oracle.enumerate_groups_exhaustive(8)
    info = oracle._enumerate_tables.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_catalog_order15_empty(catalog):
    assert not {9, 11, 13, 15} & {G.order for G in catalog}


def test_catalog_provenance_tags(monkeypatch):
    """The tiers through EXHAUSTIVE_MAX_ORDER, and only they, are checked
    from the axioms: ``enumerate`` tags the others "constructed"."""
    checked = []
    monkeypatch.setattr(oracle, "_check_tier",
                        lambda k, tier: checked.append((k, [G.label for G in tier])))
    oracle.nonabelian_catalog_upto.__wrapped__()
    assert checked == [(6, ["S3"]), (8, ["D8", "Q8"])]


# ---------------------------------------------------------------------------
# normal subgroups


def test_a5_is_simple():
    normals = oracle.normal_subgroups(fg.alternating(5))
    assert [N.order for N in normals] == [1, 60]


def test_q8_normal_subgroups():
    normals = oracle.normal_subgroups(fg.dicyclic(8))
    assert len(normals) == 6  # all subgroups of Q8 are normal
    assert sorted(N.order for N in normals) == [1, 2, 4, 4, 4, 8]


def test_cyclic_prime_normals():
    assert len(oracle.normal_subgroups(fg.cyclic(7))) == 2


def test_normal_subgroups_budget():
    with pytest.raises(SizeLimit):
        oracle.normal_subgroups(fg.symmetric(6))


def test_derived_contained_in_abelianizing_normals(small_corpus):
    for G in small_corpus:
        if G.order > 64:
            continue
        D = fg.derived_subgroup(G)
        for N in oracle.normal_subgroups(G):
            Q, _ = fg.quotient(G, N)
            if Q.is_abelian:
                assert N.mask[D.mask].all()


# ---------------------------------------------------------------------------
# just-nonabelian test


def test_abelian_not_just_nonabelian():
    assert not oracle.is_just_nonabelian(fg.cyclic(12))


def test_d8_just_nonabelian():
    assert oracle.is_just_nonabelian(fg.dihedral(8))


def test_s4_not_just_nonabelian():
    assert not oracle.is_just_nonabelian(fg.symmetric(4))


def _definition_corpus(exhaustive_tiers, catalog, specs, max_order):
    corpus = [G for k in range(1, 9) for G in exhaustive_tiers[k]]
    corpus += catalog
    corpus += [materialize(s).group for s in specs if s.order <= max_order]
    return corpus


def test_characterization_equivalence(exhaustive_tiers, catalog, specs_243):
    """is_jn2 agrees with (nilpotency class 2) and (every proper quotient
    abelian) in both directions, on the exhaustive classes through order 8,
    the catalog and every standard group up to order 243."""
    for G in _definition_corpus(exhaustive_tiers, catalog, specs_243, 243):
        direct = (fg.nilpotency_class(G) == 2) and oracle.is_just_nonabelian(G)
        assert (jn2.is_jn2(G) is not None) == direct, G.label


def _std(spec):
    return materialize(jn2.parse_spec(spec)).group


# class 2 with a noncyclic center: a proper quotient by a central C_p
# factor is still nonabelian, so is_jn2 has to answer "no"
CLASS2_NEGATIVES = {
    "D8xC2": lambda: fg.direct_product(fg.dihedral(8), fg.cyclic(2)),
    "D8xC4": lambda: fg.direct_product(fg.dihedral(8), fg.cyclic(4)),
    "Q8xC2": lambda: fg.direct_product(fg.dicyclic(8), fg.cyclic(2)),
    "I(2^2,1)xC2": lambda: fg.direct_product(_std("I(2^2,1)"), fg.cyclic(2)),
    "I(3,1)xC3": lambda: fg.direct_product(_std("I(3,1)"), fg.cyclic(3)),
    "D8xD8": lambda: fg.direct_product(fg.dihedral(8), fg.dihedral(8)),
    "D8xQ8": lambda: fg.direct_product(fg.dihedral(8), fg.dicyclic(8)),
}


@pytest.mark.parametrize("name", sorted(CLASS2_NEGATIVES))
def test_class_two_negatives(name):
    G = CLASS2_NEGATIVES[name]()
    assert fg.nilpotency_class(G) == 2
    assert jn2.is_jn2(G) is None
    assert not oracle.is_just_nonabelian(G)


# ---------------------------------------------------------------------------
# the minimal-normal test and the product-join lattice against references


def _just_nonabelian_by_every_quotient(G):
    """The definition read literally: nonabelian, and G/N abelian for every
    nontrivial normal N of the lattice."""
    if G.is_abelian:
        return False
    return all(fg.quotient(G, N)[0].is_abelian
               for N in oracle.normal_subgroups(G) if N.order > 1)


def _closure_join_lattice(G):
    """Every normal subgroup as a join of class closures, each join taken
    as the subgroup generated by the union."""
    atoms = {}
    for cls in G.conjugacy_classes:
        sub = fg.subgroup_generated(G, cls)
        atoms.setdefault(sub.elements, sub)
    normals = dict(atoms)
    work = list(atoms.values())
    while work:
        cur = work.pop()
        for atom in atoms.values():
            join = fg.subgroup_generated(G, cur.elements + atom.elements)
            if join.elements not in normals:
                normals[join.elements] = join
                work.append(join)
    return sorted(normals, key=lambda e: (len(e), e))


@pytest.fixture(scope="module")
def corpus_64(exhaustive_tiers, catalog, specs_243):
    extra = [CLASS2_NEGATIVES[name]() for name in ("D8xC2", "D8xC4", "Q8xC2")]
    return _definition_corpus(exhaustive_tiers, catalog, specs_243, 64) + extra


def _check_against_references(G):
    normals = oracle.normal_subgroups(G)
    assert all(N.is_normal for N in normals), G.label
    assert oracle.is_just_nonabelian(G) == _just_nonabelian_by_every_quotient(G), G.label
    if G.order <= 32:  # the closure-join reference is slow above
        assert [N.elements for N in normals] == _closure_join_lattice(G), G.label


def test_minimal_normal_test_and_lattice_match_references(corpus_64, small_corpus):
    for G in corpus_64 + [H for H in small_corpus if H.order <= 64]:
        _check_against_references(G)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_references_agree_on_relabelled_tables(corpus_64, seed):
    rng = random.Random(seed)
    for G in corpus_64:
        H, _ = random_relabeling(G, rng)
        _check_against_references(H)


def test_catalog_jn2_members_classify(catalog):
    """Every JN2 group in the catalog classifies to a standard model with a
    verified isomorphism."""
    for G in catalog:
        if jn2.is_jn2(G) is None:
            continue
        spec, iso = jn2.classify(G)
        assert iso.is_bijective
        assert spec.order == G.order
