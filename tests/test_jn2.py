import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidquot import fingroup as fg
from braidquot import jn2
from braidquot.errors import NotJn2, SizeLimit
from braidquot.jn2 import Jn2Spec, materialize, parse_spec
from references import (CenterMismatch, Jn2Element, center_identification, central_product,
                        classify_per_rep, jn2_decode, jn2_encode, jn2_identity, jn2_multiply,
                        jn2_params_by_derived_subgroup, normalize_basis_by_rows,
                        random_relabeling)


# ---------------------------------------------------------------------------
# spec text form


@pytest.mark.parametrize("text,expected", [
    ("I(3,4)", Jn2Spec(3, 1, 4, "I")),
    ("I(3^2,4)", Jn2Spec(3, 2, 4, "I")),
    ("II(2^2,1)", Jn2Spec(2, 2, 1, "II")),
    ("II(5,1)", Jn2Spec(5, 1, 1, "II")),
])
def test_parse_spec(text, expected):
    assert parse_spec(text) == expected


def test_spec_text_roundtrip():
    for spec in jn2.enumerate_specs(243):
        assert parse_spec(str(spec)) == spec


def test_spec_rejects_garbage():
    # digits are ASCII (int() would read the Arabic-Indic "٢" as 2), and
    # nothing follows the closing parenthesis, not even a newline
    for bad in ("I(4,1)", "III(3,1)", "I(3)", "I(3^0,1)", "xyzzy",
                "I(٢,١)", "I(2^٢,1)", "II(3,١)", "I(2,1)\n"):
        with pytest.raises(ValueError):
            parse_spec(bad)


def test_spec_over_cap_rejected_without_big_arithmetic():
    with pytest.raises(SizeLimit):
        Jn2Spec(10 ** 30 + 57, 1, 1, "I")  # never trial-divided
    with pytest.raises(SizeLimit):
        materialize(parse_spec("I(2^99999999,1)"))  # 2^100000001 never formed
    with pytest.raises(SizeLimit):
        materialize(Jn2Spec(3, 1, 4, "I"))  # order 3^9 just over the cap


def test_spec_order():
    assert Jn2Spec(2, 2, 1, "I").order == 16
    assert Jn2Spec(5, 1, 1, "II").order == 125
    assert Jn2Spec(3, 1, 2, "I").order == 243


# ---------------------------------------------------------------------------
# normal-form multiplication


def test_multiply_identity_neutral():
    spec = Jn2Spec(3, 2, 2, "II")
    e = jn2_identity(spec)
    x = Jn2Element(5, (2, 1), (0, 2))
    assert jn2_multiply(spec, e, x) == x
    assert jn2_multiply(spec, x, e) == x


def test_multiply_commutator_is_z():
    # class (3, 1): [a, b] = z, visible as the z-exponent of ba vs ab
    spec = Jn2Spec(3, 1, 1, "I")
    a = Jn2Element(0, (1,), (0,))
    b = Jn2Element(0, (0,), (1,))
    ab = jn2_multiply(spec, a, b)
    ba = jn2_multiply(spec, b, a)
    assert ab == Jn2Element(0, (1,), (1,))
    assert ba == Jn2Element(2, (1,), (1,))  # differs by z^-1


def test_multiply_variant_two_square():
    # II(2^2, 1): a^2 = z
    spec = Jn2Spec(2, 2, 1, "II")
    a = Jn2Element(0, (1,), (0,))
    assert jn2_multiply(spec, a, a) == Jn2Element(1, (0,), (0,))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multiply_matches_materialized_table(data):
    spec = data.draw(st.sampled_from([
        Jn2Spec(2, 1, 1, "I"), Jn2Spec(2, 2, 1, "II"), Jn2Spec(3, 1, 1, "II"),
        Jn2Spec(3, 2, 1, "I"), Jn2Spec(2, 1, 2, "II"), Jn2Spec(5, 1, 1, "I"),
    ]))
    std = materialize(spec)
    n = std.group.order
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    y = data.draw(st.integers(min_value=0, max_value=n - 1))
    ex = Jn2Element(*jn2_decode(spec, x))
    ey = Jn2Element(*jn2_decode(spec, y))
    prod = jn2_multiply(spec, ex, ey)
    assert jn2_encode(spec, prod) == std.group.mul(x, y)


# ---------------------------------------------------------------------------
# materialization


def test_m2_is_dihedral():
    std = materialize(Jn2Spec(2, 1, 1, "I"))
    assert fg.is_isomorphic(std.group, fg.dihedral(8)) is not None


def test_n2_is_quaternion():
    std = materialize(Jn2Spec(2, 1, 1, "II"))
    assert fg.is_isomorphic(std.group, fg.dicyclic(8)) is not None


def test_m5_order_and_center():
    std = materialize(Jn2Spec(5, 1, 1, "I"))
    assert std.group.order == 125
    assert np.flatnonzero(std.group.center_mask).tolist() == sorted(
        std.group.power(std.z, t) for t in range(5))


def test_materialize_recognized(specs_243):
    for spec in specs_243:
        std = materialize(spec)
        assert std.group.order == spec.order
        assert jn2.is_jn2(std.group) == (spec.p, spec.j, spec.m)


def _int64_table(spec: Jn2Spec) -> np.ndarray:
    """The standard table by the int64 broadcast formula ``materialize``
    used before it built its table in place in int32."""
    p, j, m = spec.p, spec.j, spec.m
    K, alpha, beta = jn2_decode(spec, np.arange(spec.order, dtype=np.int64))
    A = np.stack(alpha, axis=1)
    B = np.stack(beta, axis=1)
    cross = B @ A.T
    k = K[:, None] + K[None, :] - p ** (j - 1) * cross
    if spec.variant == "II":
        k = k + (A[:, None, 0] + A[None, :, 0]) // p
        k = k + (B[:, None, 0] + B[None, :, 0]) // p
    k %= p ** j
    table = k
    for i in range(m):
        table = table * p + (A[:, None, i] + A[None, :, i]) % p
    for i in range(m):
        table = table * p + (B[:, None, i] + B[None, :, i]) % p
    return table


def test_materialize_matches_int64_formula():
    specs = jn2.enumerate_specs(729)
    assert len(specs) == 50
    for spec in specs:
        assert np.array_equal(materialize(spec).group.table, _int64_table(spec)), spec


def test_materialize_peak_memory_near_its_table():
    """The table is written in place from its q x q blocks: validation
    included, the traced peak of building II(2,5) stays within 1.6 times
    the table's bytes (the int32 ufunc.outer passes peaked at 2.0)."""
    tracemalloc.start()
    try:
        std = materialize.__wrapped__(parse_spec("II(2,5)"))  # bypass the cache
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * std.group.table.nbytes, peak / std.group.table.nbytes


def test_materialize_size_limit():
    with pytest.raises(SizeLimit):
        materialize(Jn2Spec(7, 3, 2, "I"))


def test_law_rows_equal_materialized_tables():
    """The closed-form law ``classify`` checks against is the table
    ``materialize`` builds: on all rows up to order 243, and on the
    generator rows a ``GroupMap`` from the law reads up to order 2,187.
    Each table is built outside ``materialize``'s cache and dropped."""
    specs = jn2.enumerate_specs(2187)
    assert len(specs) == 76
    for spec in specs:
        law = jn2.standard_law(spec)
        table = materialize.__wrapped__(spec).group.table
        if spec.order <= 243:
            assert np.array_equal(law.rows(np.arange(spec.order)), table), str(spec)
        gens = np.array(law.generators)
        assert np.array_equal(law.generator_rows, table[gens]), str(spec)
        assert not law.generator_rows.flags.writeable


# ---------------------------------------------------------------------------
# central products


def test_central_product_cyclic2():
    C2 = fg.cyclic(2)
    cp = central_product(C2, C2, {0: 0, 1: 1})
    assert cp.group.order == 2


def test_central_product_m3_m3():
    M3 = materialize(Jn2Spec(3, 1, 1, "I")).group
    phi = center_identification(M3, M3)
    cp = central_product(M3, M3, phi)
    assert jn2.is_jn2(cp.group) == (3, 1, 2)  # class arithmetic adds ranks
    target = materialize(Jn2Spec(3, 1, 2, "I")).group
    assert fg.is_isomorphic(cp.group, target) is not None
    assert cp.embed_left.is_bijective is False
    assert len(set(map(int, cp.embed_left.images))) == 27


@pytest.mark.parametrize("p,j,m", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (5, 1, 1)])
def test_materialize_agrees_with_central_product_route(p, j, m):
    """The frozen collection formula and the quotient-of-direct-product
    construction build the same groups."""
    M = materialize(Jn2Spec(p, j, 1, "I")).group
    N = materialize(Jn2Spec(p, j, 1, "II")).group
    built_I, built_II = M, N
    for _ in range(m - 1):
        built_I = central_product(
            built_I, M, center_identification(built_I, M)).group
        built_II = central_product(
            built_II, M, center_identification(built_II, M)).group
    assert fg.is_isomorphic(built_I, materialize(Jn2Spec(p, j, m, "I")).group) is not None
    assert fg.is_isomorphic(built_II, materialize(Jn2Spec(p, j, m, "II")).group) is not None


def test_materialize_satisfies_defining_relations(specs_243):
    for spec in specs_243:
        std = materialize(spec)
        G, z = std.group, std.z
        p, j = spec.p, spec.j
        c = G.power(z, p ** (j - 1))
        assert G.center_mask[z]
        assert G.element_order(z) == p ** j
        for i in range(spec.m):
            a, b = std.a[i], std.b[i]
            assert G.commutator(a, b) == c
            expected_power = z if (spec.variant == "II" and i == 0) else 0
            assert G.power(a, p) == expected_power
            assert G.power(b, p) == expected_power
            for k in range(spec.m):
                if k != i:
                    assert G.commutator(a, std.a[k]) == 0
                    assert G.commutator(a, std.b[k]) == 0
                    assert G.commutator(b, std.b[k]) == 0


def test_central_product_choice_of_phi_is_inessential():
    # both identifications z -> z and z -> z^2 give isomorphic products
    M3 = materialize(Jn2Spec(3, 1, 1, "I")).group
    N3 = materialize(Jn2Spec(3, 1, 1, "II")).group
    phi1 = center_identification(M3, N3)
    z_m = min(x for x in np.flatnonzero(M3.center_mask) if M3.element_order(x) == 3)
    z_n = min(x for x in np.flatnonzero(N3.center_mask) if N3.element_order(x) == 3)
    phi2 = center_identification(M3, N3, z_m, N3.mul(z_n, z_n))
    a = central_product(M3, N3, phi1).group
    b = central_product(M3, N3, phi2).group
    assert fg.is_isomorphic(a, b) is not None


def test_central_product_rejects_bad_phi():
    M3 = materialize(Jn2Spec(3, 1, 1, "I")).group
    with pytest.raises(CenterMismatch):
        central_product(M3, M3, {0: 0})  # not defined on the whole center
    # on a center of order 9, swapping z and z^2 is not multiplicative
    M9 = materialize(Jn2Spec(3, 2, 1, "I")).group
    phi = center_identification(M9, M9)
    z = min(x for x in np.flatnonzero(M9.center_mask) if M9.element_order(x) == 9)
    z2 = M9.mul(z, z)
    broken = dict(phi)
    broken[z], broken[z2] = broken[z2], broken[z]
    with pytest.raises(CenterMismatch):
        central_product(M9, M9, broken)


def test_central_product_rejects_negative_indices():
    C2 = fg.cyclic(2)
    with pytest.raises(CenterMismatch):
        central_product(C2, C2, {0: 0, -1: 1})
    with pytest.raises(CenterMismatch):
        central_product(C2, C2, {0: 0, 1: -1})


def test_center_identification_rejects_mismatched_centers():
    with pytest.raises(CenterMismatch):
        center_identification(fg.cyclic(2), fg.cyclic(3))


# ---------------------------------------------------------------------------
# recognition


def test_is_jn2_abelian_none():
    assert jn2.is_jn2(fg.cyclic(9)) is None
    assert jn2.is_jn2(fg.from_table(8, fg.digit_sum_table(2, 3))) is None


def test_is_jn2_d8():
    assert jn2.is_jn2(fg.dihedral(8)) == (2, 1, 1)


def test_is_jn2_s4_none():
    assert jn2.is_jn2(fg.symmetric(4)) is None


def test_is_jn2_derived_not_central_none():
    # C3 x S3 passes every test before the last two: G' = A3 has prime
    # order 3 and Z = C3 x 1 is cyclic of order 3; but G' is not central
    G = fg.direct_product(fg.cyclic(3), fg.symmetric(3))
    D, Z = fg.derived_subgroup(G), fg.Subgroup(G, np.flatnonzero(G.center_mask))
    assert (G.order, D.order, Z.order) == (18, 3, 3)
    assert G.element_orders[Z.mask].max() == 3
    assert not Z.mask[D.mask].all()
    assert jn2.is_jn2(G) is None


def _same_params(got, ref) -> bool:
    if got is None or ref is None:
        return got is ref
    return got[:4] == ref[:4] and np.array_equal(got[4], ref[4])


def _c3_wreath_c3() -> fg.FiniteGroup:
    """C3 wr C3, order 81, as permutations of 9 points: its center is the
    diagonal C3 and G/Z has exponent 3, but G' has order 9, and in most
    labellings a commutator of generators of order 3 lies off the center."""
    gens = [(3, 4, 5, 6, 7, 8, 0, 1, 2), (1, 2, 0, 3, 4, 5, 6, 7, 8)]
    perms, frontier = {tuple(range(9))}, [tuple(range(9))]
    while frontier:
        new = {tuple(p[i] for i in g) for p in frontier for g in gens} - perms
        perms |= new
        frontier = list(new)
    return fg._perm_group(sorted(perms), "C3wrC3")


def _non_jn2_groups():
    d8, c2, c3 = fg.dihedral(8), fg.cyclic(2), fg.cyclic(3)
    i31 = materialize(parse_spec("I(3,1)")).group
    i221 = materialize(parse_spec("I(2^2,1)")).group
    return [fg.symmetric(3), fg.alternating(4), fg.symmetric(4), fg.alternating(5),
            fg.symmetric(5), fg.dihedral(10), fg.dihedral(12), fg.dihedral(14),
            fg.dicyclic(12), fg.dihedral(128), fg.dicyclic(64),
            fg.direct_product(i31, c3), fg.direct_product(i221, c2),
            fg.direct_product(d8, d8), fg.direct_product(c3, fg.symmetric(3)),
            _c3_wreath_c3()]


def test_recognition_matches_derived_subgroup_reference(specs_243):
    """``_jn2_params`` reads G' off the generator commutators; the reference
    takes the normal closure ``derived_subgroup``.  Both agree on every
    relabelled spec up to order 243 and on groups that are not JN2."""
    rng = random.Random(0)
    for spec in specs_243:
        H, _ = random_relabeling(materialize(spec).group, rng)
        got = jn2._jn2_params(H)
        assert got is not None and got[:3] == (spec.p, spec.j, spec.m), str(spec)
        assert _same_params(got, jn2_params_by_derived_subgroup(H)), str(spec)
    noncentral = 0
    for G in _non_jn2_groups():
        for K in [G] + [random_relabeling(G, rng)[0] for _ in range(3)]:
            assert jn2._jn2_params(K) is None, G.label
            assert jn2_params_by_derived_subgroup(K) is None, G.label
            comms = K.commutators_of(K.generators, K.generators)
            noncentral += not K.center_mask[comms].all()
    # most of these fail at once, on a commutator of generators off the center
    assert noncentral >= 40


# ---------------------------------------------------------------------------
# symplectic data


def test_symplectic_m3():
    """symplectic_data carries x^p, the powers of z and their logs and no
    basis yet; the normalized basis of M(3) is one pair with [a, b] = z and
    a^3 = b^3 = 1."""
    std = materialize(Jn2Spec(3, 1, 1, "I"))
    G, z = std.group, std.z
    data = jn2.symplectic_data(G)
    assert data.reps == () and data.basis_type is None
    assert data.xp.tolist() == [G.power(x, 3) for x in range(G.order)]
    assert data.zpow.tolist() == [0, z, G.mul(z, z)]
    assert np.array_equal(data.log, jn2.log_table(G, z))
    a, b = jn2.normalize_basis(data).reps
    assert G.commutator(a, b) == z
    assert G.power(a, 3) == G.power(b, 3) == 0


def test_symplectic_n3_nu_nonzero():
    """nu(x) = log_z(x^3) mod 3 is not zero on N(3), and both elements of
    the normalized pair have nu = 1: a^3 = b^3 = z."""
    std = materialize(Jn2Spec(3, 1, 1, "II"))
    G, z = std.group, std.z
    data = jn2.symplectic_data(G)
    nu = data.log[data.xp] % 3
    assert nu.any()
    a, b = jn2.normalize_basis(data).reps
    assert nu[a] == nu[b] == 1
    assert G.commutator(a, b) == z
    assert G.power(a, 3) == G.power(b, 3) == z


def test_coset_basis_walk_stops_at_2m(specs_243):
    """The symplectic walk stops after m pairs: each of its 2m
    representatives lies outside the subgroup that z and the earlier ones
    generate, and with z they generate G."""
    rng = random.Random(1)
    for spec in specs_243:
        G, _ = random_relabeling(materialize(spec).group, rng)
        data = jn2.normalize_basis(jn2.symplectic_data(G))
        reps = data.reps
        assert len(reps) == 2 * spec.m, spec
        span = [data.z]
        for r in reps:
            assert r not in fg.closure_indices(G.table, span), spec
            span.append(r)
        assert fg.closure_indices(G.table, span).size == G.order, spec


def test_symplectic_diagonal_zero(specs_243):
    """The commutator exponents of the normalized representatives, read
    through the log table, form the standard alternating matrix: zero
    diagonal, [a_i, b_i] = z^(p^(j-1)), and every other pair commuting."""
    for spec in specs_243:
        if spec.order > 64:
            continue
        std = materialize(spec)
        data = jn2.normalize_basis(jn2.symplectic_data(std.group))
        e = jn2.log_table(std.group, std.z)[std.group.commutators_of(data.reps, data.reps)]
        q = spec.p ** (spec.j - 1)
        assert (e >= 0).all() and (e % q == 0).all(), str(spec)
        assert (np.diagonal(e) == 0).all(), str(spec)
        standard = np.kron(np.eye(spec.m, dtype=np.int64), [[0, 1], [spec.p - 1, 0]])
        assert np.array_equal(e // q, standard), str(spec)


def test_symplectic_requires_jn2():
    with pytest.raises(NotJn2):
        jn2.symplectic_data(fg.cyclic(8))


def test_symplectic_z_is_the_center_generator_of_smallest_index(specs_243):
    """symplectic_data takes the z that classify chose before symplectic_data
    lost its z parameter: with Z the rows of the table equal to their
    columns and q the least prime factor of |Z|, the first z in Z with
    z^(|Z|/q) != 1.  On relabelled specs up to order 243 and the mixed
    central products."""
    rng = random.Random(13)
    for G0 in [materialize(s).group for s in specs_243] + _mixed_central_products():
        G, _ = random_relabeling(G0, rng)
        Z = np.flatnonzero((G.table == G.table.T).all(axis=1)).tolist()
        q = next(d for d in range(2, len(Z) + 1) if len(Z) % d == 0)
        old_rule = next(z for z in Z if G.power(z, len(Z) // q) != 0)
        assert jn2.symplectic_data(G).z == old_rule, G0.label


# ---------------------------------------------------------------------------
# basis normalization


def test_normalize_m3_type_one():
    std = materialize(Jn2Spec(3, 1, 1, "I"))
    data = jn2.normalize_basis(jn2.symplectic_data(std.group))
    assert data.basis_type == "I"
    for rep in data.reps:
        assert std.group.element_order(rep) in (1, 3)


def test_normalize_n9_type_two():
    std = materialize(Jn2Spec(3, 2, 1, "II"))
    data = jn2.normalize_basis(jn2.symplectic_data(std.group))
    assert data.basis_type == "II"
    assert std.group.power(data.reps[0], 3) == std.z
    assert std.group.power(data.reps[1], 3) == std.z


def test_normalize_type_invariant_under_relabeling():
    std = materialize(Jn2Spec(3, 1, 2, "I"))
    rng = random.Random(7)
    H, _ = random_relabeling(std.group, rng)
    data = jn2.normalize_basis(jn2.symplectic_data(H))
    assert data.basis_type == "I"


def _mixed_central_products() -> list[fg.FiniteGroup]:
    """Central products of M(p^j) and N(p^j) with p^j != 2, built by
    ``references.central_product``: M(3)N(3), N(3)N(3), M(4)N(4), N(4)N(4),
    N(4)M(4)N(4) and M(8)N(8)."""
    def cp(G, H):
        return central_product(G, H, center_identification(G, H)).group

    def M(pj):
        return materialize(parse_spec(f"I({pj},1)")).group

    def N(pj):
        return materialize(parse_spec(f"II({pj},1)")).group
    return [cp(M(3), N(3)), cp(N(3), N(3)), cp(M("2^2"), N("2^2")),
            cp(N("2^2"), N("2^2")), cp(cp(N("2^2"), M("2^2")), N("2^2")),
            cp(M("2^3"), N("2^3"))]


def test_normalize_basis_matches_row_loop_reference(specs_243):
    """The walk's representatives and type equal those of the reference
    that tests one element at a time on lists of table rows, on every spec
    up to order 243, the order-512 ones with a center of order 2, and
    mixed central products, each relabelled."""
    rng = random.Random(11)
    groups = ([materialize(s).group for s in specs_243] + _mixed_central_products()
              + _central_order_two_groups())
    for G0 in groups:
        G, _ = random_relabeling(G0, rng)
        Z = np.flatnonzero(G.center_mask)
        z = min(x for x in Z.tolist() if G.element_order(x) == Z.size)
        data = jn2.normalize_basis(jn2.symplectic_data(G))
        assert (data.reps, data.basis_type) == normalize_basis_by_rows(G, z), G0.label


def test_variant_is_read_off_the_exponent_when_pj_is_not_2(specs_243):
    """For p^j != 2, I(p^j, m) has exponent p^j and II(p^j, m) has a_1 of
    order p^(j+1).  So classify names type II exactly when the exponent
    exceeds p^j, an invariant the walk does not use; on every such spec up
    to order 243 and the mixed central products, relabelled."""
    rng = random.Random(3)
    groups = ([materialize(s).group for s in specs_243 if s.center_order != 2]
              + _mixed_central_products())
    for G0 in groups:
        H, _ = random_relabeling(G0, rng)
        spec, iso = jn2.classify(H)
        exponent = int(H.element_orders.max())
        assert spec.variant == ("II" if exponent > spec.center_order else "I"), G0.label
        assert iso.is_bijective, G0.label


# normalize_basis(symplectic_data(G)).reps for each standard model up to
# order 243, then for its relabelling by
# random_relabeling(G, random.Random(str(spec))); symplectic_data takes
# the generator of the center of smallest index in each
NORMALIZED_REPS = {
    "I(2,1)": ((1, 2), (2, 5)),
    "II(2,1)": ((1, 2), (1, 3)),
    "I(2^2,1)": ((1, 2), (1, 2)),
    "II(2^2,1)": ((1, 2), (7, 13)),
    "I(3,1)": ((1, 6), (1, 2)),
    "II(3,1)": ((1, 17), (1, 16)),
    "I(2,2)": ((1, 4, 2, 8), (1, 2, 5, 13)),
    "I(2^3,1)": ((1, 2), (7, 22)),
    "II(2,2)": ((2, 8, 1, 4), (2, 4, 6, 9)),
    "II(2^3,1)": ((1, 2), (11, 10)),
    "I(2^2,2)": ((1, 4, 2, 8), (1, 53, 13, 20)),
    "I(2^4,1)": ((1, 2), (22, 24)),
    "II(2^2,2)": ((2, 8, 1, 4), (2, 9, 1, 57)),
    "II(2^4,1)": ((1, 2), (21, 19)),
    "I(3^2,1)": ((1, 6), (1, 51)),
    "II(3^2,1)": ((1, 53), (5, 7)),
    "I(5,1)": ((1, 20), (1, 13)),
    "II(5,1)": ((1, 47), (1, 72)),
    "I(2,3)": ((1, 8, 2, 16, 4, 32), (1, 9, 4, 10, 14, 25)),
    "I(2^3,2)": ((1, 4, 2, 8), (25, 122, 10, 20)),
    "I(2^5,1)": ((1, 2), (64, 92)),
    "II(2,3)": ((4, 32, 1, 8, 2, 16), (18, 51, 1, 11, 13, 30)),
    "II(2^3,2)": ((2, 8, 1, 4), (88, 77, 82, 56)),
    "II(2^5,1)": ((1, 2), (102, 91)),
    "I(3,2)": ((1, 18, 3, 54), (1, 4, 21, 22)),
    "I(3^3,1)": ((1, 6), (112, 162)),
    "II(3,2)": ((3, 141, 1, 18), (2, 70, 15, 34)),
    "II(3^3,1)": ((1, 161), (44, 200)),
}


def test_normalized_reps_are_pinned(specs_243):
    got = {}
    for spec in specs_243:
        std = materialize(spec)
        H, _ = random_relabeling(std.group, random.Random(str(spec)))
        got[str(spec)] = tuple(jn2.normalize_basis(jn2.symplectic_data(G)).reps
                               for G in (std.group, H))
    assert got == NORMALIZED_REPS


# ---------------------------------------------------------------------------
# classification


def test_classify_d8():
    D8 = fg.dihedral(8)
    spec, iso = jn2.classify(D8)
    assert spec == Jn2Spec(2, 1, 1, "I")
    assert iso.is_bijective
    assert iso.source.spec == spec and iso.target is D8


def test_classify_leaves_materialize_cache_empty():
    """classify checks its map against the law, so a loop that only
    classifies models built outside the cache leaves it empty."""
    materialize.cache_clear()
    rng = random.Random(0)
    for spec in jn2.enumerate_specs(243):
        H, _ = random_relabeling(materialize.__wrapped__(spec).group, rng)
        got, iso = jn2.classify(H)
        assert got == spec and iso.is_bijective, str(spec)
    assert materialize.cache_info().currsize == 0


def test_classify_refuses_law_without_variant_two_carry_on_b(monkeypatch):
    """A law that drops the variant-II carry on b is a wrong model of the
    II groups, and classify's homomorphism check refuses it; I(3,2), whose
    law has no carry, still classifies."""
    rng = random.Random(0)
    inputs = {name: random_relabeling(materialize.__wrapped__(parse_spec(name)).group, rng)[0]
              for name in ("II(2,1)", "II(3,1)", "II(2^2,2)", "I(3,2)")}

    law_of = jn2.standard_law.__wrapped__

    def without_carry_on_b(spec):
        law = law_of(spec)
        q = spec.p ** (2 * spec.m)
        return replace(law, beta_part=law.beta_part % q)

    monkeypatch.setattr(jn2, "standard_law", without_carry_on_b)
    for name in ("II(2,1)", "II(3,1)", "II(2^2,2)"):
        with pytest.raises(ValueError, match="not a homomorphism"):
            jn2.classify(inputs[name])
    got, iso = jn2.classify(inputs["I(3,2)"])
    assert got == parse_spec("I(3,2)") and iso.is_bijective


def test_classify_roundtrip_relabeled():
    std = materialize(Jn2Spec(3, 1, 2, "II"))
    H, _ = random_relabeling(std.group, random.Random(3))
    spec, iso = jn2.classify(H)
    assert spec == Jn2Spec(3, 1, 2, "II")
    assert iso.is_bijective


def test_classify_mixed_central_product():
    M3 = materialize(Jn2Spec(3, 1, 1, "I")).group
    N3 = materialize(Jn2Spec(3, 1, 1, "II")).group
    cp = central_product(M3, N3, center_identification(M3, N3))
    spec, iso = jn2.classify(cp.group)
    assert spec == Jn2Spec(3, 1, 2, "II")
    # the II variant is the one with an element of order p^(j+1) = 9
    assert 9 in cp.group.order_profile


def test_classify_rejects_non_jn2():
    with pytest.raises(NotJn2):
        jn2.classify(fg.symmetric(4))


def test_classify_central_order_two_above_iso_bound():
    rng = random.Random(5)
    for variant in ("I", "II"):
        spec = Jn2Spec(2, 1, 5, variant)  # order 2048, over ISO_SIZE_LIMIT
        H, _ = random_relabeling(materialize(spec).group, rng)
        got, iso = jn2.classify(H)
        assert got == spec and iso.is_bijective, str(spec)
    # a noncyclic center is refused before any model is built
    before = materialize.cache_info().currsize
    with pytest.raises(NotJn2):
        jn2.classify(fg.direct_product(fg.dihedral(8), fg.dihedral(254)))  # order 2032
    assert materialize.cache_info().currsize == before


def _classify_by_order_profile(G: fg.FiniteGroup):
    """Reference for classify when the center has order 2, independent of
    the quadratic form: the variant from the order profile and the map from
    the isomorphism search."""
    params = jn2.is_jn2(G)
    if params is None:
        raise NotJn2("group fails the JN2 characterization")
    p, j, m = params
    candidates = [Jn2Spec(p=p, j=j, m=m, variant=v) for v in ("I", "II")]
    matches = [s for s in candidates
               if materialize(s).group.order_profile == G.order_profile]
    assert len(matches) == 1, "order profile must decide the variant when p^j = 2"
    spec = matches[0]
    iso = fg.is_isomorphic(G, materialize(spec).group)
    assert iso is not None, "profile match must come with an isomorphism"
    return spec, iso


def _central_order_two_groups() -> list[fg.FiniteGroup]:
    """Every spec with p^j = 2 up to order 512, and D8, Q8 and central
    products of them built by ``references.central_product``."""
    def cp(G, H):
        return central_product(G, H, center_identification(G, H)).group
    D8, Q8 = fg.dihedral(8), fg.dicyclic(8)
    specs = [s for s in jn2.enumerate_specs(512) if s.center_order == 2]
    assert len(specs) == 8
    return ([materialize(s).group for s in specs]
            + [D8, Q8, cp(Q8, Q8), cp(cp(Q8, Q8), Q8), cp(D8, Q8)])


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32))
def test_classify_central_order_two_matches_order_profile_reference(seed):
    rng = random.Random(seed)
    for G in _central_order_two_groups():
        H, _ = random_relabeling(G, rng)
        spec, iso = jn2.classify(H)
        ref, _ = _classify_by_order_profile(H)  # asserts H is isomorphic to ref
        assert spec == ref and iso.is_bijective, (G.label, str(spec), str(ref))


def test_decode_of_an_index_array_matches_each_index(specs_243):
    for spec in specs_243:
        k, alpha, beta = jn2_decode(spec, np.arange(spec.order))
        for idx in range(spec.order):
            assert jn2_decode(spec, idx) == (k[idx], tuple(a[idx] for a in alpha),
                                              tuple(b[idx] for b in beta)), str(spec)


def _normal_form_map_by_index(H: fg.FiniteGroup, spec: Jn2Spec, data) -> np.ndarray:
    """Reference for classify's map: each standard index decoded and its
    normal form z^k prod_i a_i^alpha_i b_i^beta_i multiplied out in H, one
    element at a time."""
    images = np.empty(spec.order, dtype=np.int64)
    for idx in range(spec.order):
        k, alpha, beta = jn2_decode(spec, idx)
        g = H.power(data.z, k)
        for i in range(spec.m):
            g = H.mul(g, H.power(data.reps[2 * i], alpha[i]))
            g = H.mul(g, H.power(data.reps[2 * i + 1], beta[i]))
        images[idx] = g
    return images


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32))
def test_classify_map_matches_normal_forms_by_index(specs_243, seed):
    rng = random.Random(seed)
    for spec in specs_243:
        H, _ = random_relabeling(materialize(spec).group, rng)
        got, iso = jn2.classify(H)
        assert got == spec
        data = jn2.normalize_basis(jn2.symplectic_data(H))
        ref = fg.GroupMap(materialize(spec).group, H,
                          _normal_form_map_by_index(H, spec, data))
        assert np.array_equal(iso.images, ref.images), str(spec)


@pytest.mark.parametrize("seed", [0, 7])
def test_classify_matches_per_rep_reference(specs_243, seed):
    """classify's spec and map equal those of the reference that lifts one
    representative at a time and recomputes every invariant it uses.
    classify reads the orders of central elements alone: it never builds
    the orders of the whole group."""
    rng = random.Random(seed)
    for spec in specs_243:
        for _ in range(3):
            H, _ = random_relabeling(materialize(spec).group, rng)
            got, iso = jn2.classify(H)
            assert "element_orders" not in vars(H), str(spec)
            ref_spec, ref_images = classify_per_rep(H)
            assert got == ref_spec == spec
            assert np.array_equal(iso.images, ref_images), str(spec)


def test_classify_matches_per_rep_reference_at_order_512():
    rng = random.Random(0)
    for name in ("I(2,4)", "II(2,4)"):
        spec = parse_spec(name)
        H, _ = random_relabeling(materialize(spec).group, rng)
        got, iso = jn2.classify(H)
        ref_spec, ref_images = classify_per_rep(H)
        assert got == ref_spec == spec
        assert np.array_equal(iso.images, ref_images), name


def test_normalize_gram_check_catches_planted_representative():
    """A carried log table doubled mod p^j: nu and the commutator exponents
    double alike, so u is unchanged, but the walk takes for a an element
    with nu(a) = 2, and its pair (a, a*u) pairs to c^2.  The pairing
    recomputed in the group refuses it."""
    for name in ("II(3,1)", "II(3^2,1)", "II(5,1)"):
        std = materialize(parse_spec(name))
        data = jn2.symplectic_data(std.group)
        jn2.normalize_basis(data)
        wrong = np.where(data.log >= 0, 2 * data.log % len(data.zpow), -1)
        with pytest.raises(RuntimeError, match="normalized Gram must be standard"):
            jn2.normalize_basis(replace(data, log=wrong))


def test_normalize_power_check_ignores_carried_invariants():
    """Wrong carried x^p or log tables that leave the pairs standard: the
    p-th powers recomputed from the table refuse each.
    - x^p off by z^p everywhere moves every central adjustment by z^-1;
      nu mod p and the pairing cannot see it.
    - x^p = 1 everywhere, or a log table with log z = 0, makes nu vanish,
      so the walk picks a type I basis of a type II group."""
    for name in ("I(3^2,1)", "II(3^2,1)"):
        std = materialize(parse_spec(name))
        G = std.group
        data = jn2.symplectic_data(G)
        jn2.normalize_basis(data)
        wrong = G.table[data.xp, G.power(std.z, 3)]
        with pytest.raises(RuntimeError, match="p-th power must be exact"):
            jn2.normalize_basis(replace(data, xp=wrong))
    for name in ("II(3,1)", "II(2^2,1)", "II(2,2)"):
        std = materialize(parse_spec(name))
        data = jn2.symplectic_data(std.group)
        jn2.normalize_basis(data)
        for fault in ({"xp": np.zeros_like(data.xp)},
                      {"log": np.where(data.log >= 0, 0, -1)}):
            with pytest.raises(RuntimeError, match="p-th power must be exact"):
                jn2.normalize_basis(replace(data, **fault))


# ---------------------------------------------------------------------------
# nu and pairing spot checks (full sweeps live in the acceptance suite)


def test_nu_scales_like_power():
    std = materialize(Jn2Spec(5, 1, 1, "II"))
    G, z = std.group, std.z
    data = jn2.symplectic_data(G)
    log = jn2.log_table(G, z)
    assert (log >= 0).sum() == 5 and log[z] == 1
    rng = random.Random(0)
    for _ in range(100):
        x = rng.randrange(G.order)
        r = rng.randrange(1, 5)
        nu_x = log[G.power(x, 5)] % 5
        nu_xr = log[G.power(G.power(x, r), 5)] % 5
        assert nu_xr == (r * nu_x) % 5


def test_derived_inside_center_pth_powers_when_j_at_least_two(specs_243):
    # the fact that makes nu well-defined and linear for j >= 2
    for spec in specs_243:
        if spec.j < 2:
            continue
        std = materialize(spec)
        G = std.group
        pth_powers = {G.power(int(z), spec.p) for z in np.flatnonzero(G.center_mask)}
        derived = set(fg.derived_subgroup(G).elements)
        assert derived <= pth_powers, str(spec)


def test_pairing_ignores_central_factors():
    std = materialize(Jn2Spec(3, 2, 1, "I"))
    G = std.group
    rng = random.Random(0)
    central = [x for x in range(G.order) if G.center_mask[x]]
    for _ in range(200):
        x, y = rng.randrange(G.order), rng.randrange(G.order)
        c = central[rng.randrange(len(central))]
        assert G.commutator(G.mul(x, c), y) == G.commutator(x, y)
