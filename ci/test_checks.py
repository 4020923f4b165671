"""Library checks above the sizes tier-1 reaches, and bounds on time and
memory: each is a program that must exit 0 in its own fresh process."""
import textwrap
from typing import NamedTuple, Optional

import pytest


class Check(NamedTuple):
    timeout: int
    code: str
    max_mb: Optional[int] = None  # bound on the child's peak RSS
    relabel: bool = False  # code runs after RELABEL


# the relabel checks' shared code: each input is a standard table built
# outside materialize's cache and relabelled by a seeded draw; only the
# relabelled table is returned, since the map holds the source table
RELABEL = """\
import random
import numpy as np
from braidquot import fingroup as fg, jn2
from references import random_relabeling

def relabelled(spec, rng):
    return random_relabeling(jn2.materialize.__wrapped__(spec).group, rng)[0]

def classified(H, spec):
    got, iso = jn2.classify(H)
    assert got == spec and iso.is_bijective, (str(spec), str(got))
    return iso
"""

CHECKS = {
    # generation tested on an order-8,192 group by the coset walk: its
    # 268 MB table alone peaks at about 351 MB, and squaring the set each
    # round added a 512 MB gather per closure, an 814 MB peak
    "witness-search-II(2^11,1)": Check(60, max_mb=480, code="""
        from braidquot import braid, jn2
        G = jn2.materialize(jn2.Jn2Spec(2, 11, 1, 'II')).group
        w = braid.find_witness(G, 6, 1)
        assert (G.order, braid.check_reduced_witness(w).ok) == (8192, True)
        """),
    # the largest standard table in one process: materialize writes the
    # order-8,192 I(2,6) (a 268 MB table) straight into place; built with
    # whole-table ufunc.outer passes it peaked at 542 MB and took 8-9 s
    "materialize-I(2,6)": Check(60, max_mb=480, code="""
        from braidquot import jn2
        assert jn2.materialize(jn2.Jn2Spec(2, 1, 6, 'I')).group.order == 8192
        """),
    # the max-order labelling rule at an order with a nonabelian group:
    # order 10 must give C10 and D10, within the default node budget
    "exhaustive-order-10": Check(15, """
        from braidquot import fingroup as fg, oracle
        fg._ISO_BUDGET //= 10  # each isomorphism verdict takes under a tenth of it
        reps = oracle.enumerate_groups_exhaustive(10)
        d10 = oracle.nonabelian_catalog_upto().tier(10)[0].group
        assert len(reps) == 2, reps
        for H in (fg.cyclic(10), d10):
            assert sum(fg.is_isomorphic(G, H) is not None for G in reps) == 1, H
        """),
    # order 12 from the axioms: the word-order rule leaves 9 tables
    # (about 5 s on 2 cores), and each nonabelian one must match exactly
    # one of the catalog's D12, A4 and Dic12, each matched once
    "catalog-tier-12": Check(60, """
        from braidquot import fingroup as fg, oracle
        fg._ISO_BUDGET //= 10  # each isomorphism verdict takes under a tenth of it
        tier = [e.group for e in oracle.nonabelian_catalog_upto().tier(12)]
        assert [G.label for G in tier] == ['D12', 'A4', 'Dic12'], tier
        oracle._check_tier(12, tier)
        """),
    # the just-nonabelian oracle quotients by minimal normal subgroups
    # only; building the whole lattice took about a minute here, almost
    # all of it on the order-128 groups
    "just-nonabelian-up-to-243": Check(30, """
        from braidquot import fingroup as fg, jn2, oracle
        specs = jn2.enumerate_specs(243)
        assert len(specs) == 28, len(specs)
        for spec in specs:
            assert oracle.is_just_nonabelian(jn2.materialize(spec).group), spec
        d8 = fg.dihedral(8)
        i31 = jn2.materialize(jn2.parse_spec('I(3,1)')).group
        for G in (fg.direct_product(d8, d8), fg.direct_product(i31, fg.cyclic(3))):
            assert not oracle.is_just_nonabelian(G), G.label
        """),
    # is_isomorphic above the orders of tier-1's corpus (243): the map on
    # relabelled I(2,4) and II(2,4), order 512, is checked on all n^2
    # cells, without the generator law the search itself relies on
    "isomorphism-above-tier-1": Check(60, relabel=True, code="""
        fg._ISO_BUDGET //= 10  # each isomorphism verdict takes under a tenth of it
        rng = random.Random(0)
        groups = {}
        for name in ('I(2,4)', 'II(2,4)'):
            spec = jn2.parse_spec(name)
            G = jn2.materialize(spec).group
            H = relabelled(spec, rng)
            iso = fg.is_isomorphic(G, H)
            assert iso is not None, name
            img = iso.images
            assert np.array_equal(img[G.table], H.table[img[:, None], img[None, :]]), name
            groups[name] = (G, H)
        assert fg.is_isomorphic(groups['I(2,4)'][0], groups['II(2,4)'][1]) is None
        """),
    # the round trip as verify-paper runs it, after its four rows: 300
    # relabellings of tables up to order 243 (236 KB each); when relabel
    # gathered each row block into two fresh n x n temporaries it took
    # about 8,400 minor page faults here, mapped and zero-filled anew
    "round-trip-page-faults": Check(60, """
        import resource
        from braidquot import verify
        for n in verify.DEFAULT_N:
            for g in verify.DEFAULT_G:
                verify.build_row(n, g)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        check = verify.check_classify_roundtrips(0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert check.ok, check.detail
        assert faults < 2000, faults
        """),
    # the symplectic walk on every standard group up to order 2,187 (76
    # specs): each relabelled table is named by the spec it was built
    # from.  Each input is built outside materialize's cache, and classify
    # builds no model table, so none is kept: about 115 MB on 2 cores,
    # where keeping every model in the cache peaked at 412-444 MB
    "classify-relabelled-up-to-2187": Check(60, max_mb=200, relabel=True, code="""
        rng = random.Random(0)
        specs = jn2.enumerate_specs(2187)
        assert len(specs) == 76, len(specs)
        for spec in specs:
            classified(relabelled(spec, rng), spec)
        assert jn2.materialize.cache_info().currsize == 0, jn2.materialize.cache_info()
        """),
    # classify at the top of the table range: relabelled I(2,6), order
    # 8,192, is named from the law's generator rows and gathers in its
    # own table, in under 0.01 s on 2 cores, where building and
    # validating the 268 MB model table first took about 2 s.  The build's
    # two tables set the ru_maxrss high-water mark, so its rise cannot see
    # classify's own allocations; tracemalloc bounds those too
    "classify-relabelled-I(2,6)": Check(60, relabel=True, code="""
        import resource, time, tracemalloc
        spec = jn2.parse_spec('I(2,6)')
        H = relabelled(spec, random.Random(0))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        got, iso = jn2.classify(H)
        took = time.perf_counter() - start
        rise_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
        assert got == spec and iso.is_bijective, str(got)
        assert took < 0.1, took
        assert rise_mb < 50, rise_mb
        tracemalloc.start()
        jn2.classify(H)
        traced_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
        assert traced_mb < 50, traced_mb
        assert jn2.materialize.cache_info().currsize == 0, jn2.materialize.cache_info()
        """),
    # the law classify checks its maps against is the table materialize
    # builds, on every row of every spec up to the table cap (116 specs;
    # about 35 s and 390 MB on 2 cores), so a GroupMap from the law is
    # checked on generator rows of a group; each table is dropped after
    # its comparison
    "law-rows-up-to-the-table-cap": Check(180, """
        import numpy as np
        from braidquot import fingroup as fg, jn2
        for spec in jn2.enumerate_specs(fg.TABLE_CAP):
            law = jn2.standard_law(spec)
            table = jn2.materialize.__wrapped__(spec).group.table
            for lo in range(0, spec.order, 512):
                xs = np.arange(lo, min(lo + 512, spec.order))
                assert np.array_equal(law.rows(xs), table[xs]), str(spec)
            del table
        """),
    # laws checked on the generators from_table certifies, at orders
    # whose Light's test runs in more than one row block: each agrees
    # with a recomputation over all n^2 pairs; classify's map, checked on
    # the law's generator rows, against a model table built for the test
    "generator-checked-laws": Check(60, relabel=True, code="""
        rng = random.Random(0)
        for name in ('I(2,5)', 'II(5,2)'):
            spec = jn2.parse_spec(name)
            H = relabelled(spec, rng)
            t, inv = H.table, H.inverse
            assert np.array_equal(H.center_mask, (t == t.T).all(axis=1)), name
            comm = t[t[t, inv[:, None]], inv[None, :]]
            derived = fg.closure_indices(t, np.unique(comm))
            assert fg.derived_subgroup(H).elements == tuple(derived.tolist()), name
            iso = classified(H, spec)
            model = jn2.materialize.__wrapped__(spec).group.table
            img = iso.images
            assert iso.target is H, name
            assert np.array_equal(img[model], t[img[:, None], img[None, :]]), name
        """),
    # the span walk extends its closure by left cosets; above the orders
    # tier-1 reaches, from_table's picks must equal those of a walk that
    # recomputes the closure from scratch after each pick, by squaring
    # the set until it stops growing.  Long cyclic closures are taken by
    # powers: <1> in C5000 (5,000 singleton cosets one at a time when the
    # queue found them) and an element of order 1,024 in II(2^9,1)
    "span-walk-above-tier-1": Check(120, relabel=True, code="""
        from references import closure_by_squaring, span_walk_from_scratch
        ii52 = relabelled(jn2.parse_spec('II(5,2)'), random.Random(0))
        for G in (fg.symmetric(7), ii52, fg.cyclic(5000)):
            assert G.generators == tuple(span_walk_from_scratch(G.table, range(1, G.order))), G.label
        ii91 = jn2.materialize(jn2.parse_spec('II(2^9,1)')).group
        x = int(np.flatnonzero(ii91.element_orders == 1024)[0])
        for G, seeds in ((fg.cyclic(5000), [1]), (ii91, [x])):
            got = fg.closure_indices(G.table, seeds)
            assert np.array_equal(got, closure_by_squaring(G.table, seeds)), G.label
        """),
}


@pytest.mark.parametrize("name", CHECKS)
def test_check(run, name):
    check = CHECKS[name]
    code = (RELABEL if check.relabel else "") + textwrap.dedent(check.code)
    child = run("-c", code, timeout=check.timeout, tests=check.relabel)
    assert child.code == 0, child.code
    assert check.max_mb is None or child.peak_mb < check.max_mb, child.peak_mb
