"""Acceptance suite: one test per headline criterion, each printing a
PASS line with its measured runtime.  Every expected value is exact; the
stated wall-clock ceilings are asserted as well."""

import time

from braidquot import braid, fingroup as fg, oracle, verify
from braidquot.jn2 import Jn2Spec, materialize


def _report(k, detail, t0, limit):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {k}: PASS ({detail}) [{elapsed:.1f}s < {limit}s]")
    assert elapsed < limit


# ---------------------------------------------------------------------------


def test_acceptance_1_minimum_order_reproduction():
    expected = {
        (6, 1, 64): (16, ("I(2^2,1)", "II(2^2,1)")),
        (5, 1, 125): (125, ("I(5,1)", "II(5,1)")),
        (5, 2, 64): (64, ("I(2^2,2)", "II(2^2,2)")),
    }
    for (n, g, bound), (minimum, attained) in expected.items():
        t0 = time.monotonic()
        rep = braid.minimal_braid_reduced_search(n, g, bound)
        assert rep.minimum == minimum, (n, g)
        assert rep.attained == attained, (n, g)
        _report("1", f"n={n} g={g} bound={bound}: minimum {minimum} "
                     f"attained by {','.join(attained)}", t0, 60)


def test_acceptance_2_unconditional_minimality_below_16():
    t0 = time.monotonic()
    groups = []
    for k in range(1, oracle.EXHAUSTIVE_MAX_ORDER + 1):
        groups += [G for G in oracle.enumerate_groups_exhaustive(k)
                   if not G.is_abelian]
    groups += [e.group for e in oracle.nonabelian_catalog_upto().entries
               if e.order > oracle.EXHAUSTIVE_MAX_ORDER]
    assert {G.order for G in groups} == {6, 8, 10, 12, 14}
    for G in groups:
        assert braid.find_witness(G, 6, 1) is None, G.label
        # cross-check with the raw tuple enumeration, fully independently
        assert oracle.find_witness_naive(G, 6, 1) is None, G.label
    _report("2", f"{len(groups)} nonabelian groups of order < 16 all reject "
                 "(search + naive enumeration)", t0, 60)


def test_acceptance_3_classification_verification():
    t0 = time.monotonic()
    chk_eq = verify.check_equivalence_with_definition()
    assert chk_eq.ok, chk_eq.detail
    chk_rt = verify.check_classify_roundtrips(seed=0)
    assert chk_rt.ok, chk_rt.detail
    _report("3", f"{chk_eq.detail}; {chk_rt.detail}", t0, 300)


def test_acceptance_4_variant_nonisomorphism():
    t0 = time.monotonic()
    chk = verify.check_variant_nonisomorphism()
    assert chk.ok, chk.detail
    assert fg.dihedral(8).order_profile.get(4) == 2
    assert fg.dicyclic(8).order_profile.get(4) == 6
    _report("4", f"I vs II distinct for {chk.detail}; order-4 counts 2/6", t0, 300)


def test_acceptance_5_exhaustive_order_8():
    t0 = time.monotonic()
    groups = oracle.enumerate_groups_exhaustive(8)
    nonab = [G for G in groups if not G.is_abelian]
    assert len(groups) == 5
    assert len(nonab) == 2
    for variant in ("I", "II"):
        std = materialize(Jn2Spec(2, 1, 1, variant)).group
        assert sum(1 for G in nonab
                   if fg.is_isomorphic(G, std) is not None) == 1
    _report("5", "order 8: 5 classes, 2 nonabelian = the standard pair", t0, 30)


def _collected_witnesses():
    out = []
    for n, g, bound in ((6, 1, 64), (5, 1, 125), (5, 2, 64)):
        rep = braid.minimal_braid_reduced_search(n, g, bound)
        out += [(n, g, c.witness) for c in rep.found()]
    for n, g in ((6, 1), (5, 1), (5, 2)):
        for spec in verify.standard_witness_specs(n, g):
            out.append((n, g, braid.standard_witness(spec, n, g)))
    return out


def test_acceptance_6_reduction_equivalence():
    t0 = time.monotonic()
    witnesses = _collected_witnesses()
    assert witnesses
    for n, g, w in witnesses:
        full = braid.check_full_quotient(w.group, n, g, w.full_images())
        assert full.ok, (n, g, w.group.label, full.failures())
        assert full.family_ok("R2")
    _report("6", f"{len(witnesses)} witnesses extend to the full "
                 "presentation including R2", t0, 300)


def test_acceptance_7_symmetric_group_quotient():
    t0 = time.monotonic()
    for n in (5, 6):
        S = fg.symmetric(n)
        images = {f"s{i}": S.names[f"s{i}"] for i in range(1, n)}
        images.update({"a1": 0, "b1": 0})
        rep = braid.check_full_quotient(S, n, 1, images)
        assert rep.relators_ok and rep.generates, n
    _report("7", "S_5 and S_6 pass the full presentation and generate", t0, 60)


def test_acceptance_8_symmetric_non_nilpotent():
    t0 = time.monotonic()
    for m in (3, 4, 5, 6):
        assert fg.nilpotency_class(fg.symmetric(m)) is None, m
    _report("8", "S_m non-nilpotent for m = 3..6", t0, 300)


def test_acceptance_9_property_suites():
    t0 = time.monotonic()
    chk_nu = verify.check_nu_linearity(seed=0)
    assert chk_nu.ok, chk_nu.detail
    chk_pair = verify.check_pairing_representative_independence(seed=0)
    assert chk_pair.ok, chk_pair.detail
    chk_exp = verify.check_exponent_dichotomy()
    assert chk_exp.ok, chk_exp.detail
    witnesses = _collected_witnesses()
    for _, _, w in witnesses:
        assert verify.witness_dichotomies_ok(w), w.group.label
    _report("9", f"{chk_nu.detail}; {chk_pair.detail}; exponent dichotomy ok; "
                 f"sigma/derived dichotomies on {len(witnesses)} witnesses", t0, 300)


def test_acceptance_matrix_all_pass():
    """The packaged verification matrix agrees: all rows and globals pass."""
    t0 = time.monotonic()
    summary = verify.verify_paper()
    assert summary.ok
    for row in summary.rows:
        assert row.ok, (row.n, row.g)
    _report("matrix", f"{len(summary.rows)} rows + "
                      f"{len(summary.global_checks)} global checks", t0, 600)
