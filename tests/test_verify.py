"""The sampled checks of ``verify``: their draws, and what they count.

Each check draws its samples in bulk from ``rng.randbytes``, and the
draws must equal those of ``references.below_word_by_word`` and
``references.permutation_by_sorted_keys``, which take one
``rng.getrandbits`` call per word or key.  All the samples of a group are
then tested with one gather each.
"""

import random
import tracemalloc

import numpy as np
import pytest

from braidquot import fingroup as fg, jn2, verify
from braidquot.jn2 import Jn2Spec, materialize
from references import below_word_by_word, permutation_by_sorted_keys

# The first two draws on each group, in the order the checks visit the
# groups, as ``below_word_by_word`` draws them, one array of 1,000 after
# another: (x, y) for nu-linearity, (x, y, c) with c central for pairing
# independence.
NU_FIRST = {
    0: [[(10, 19), (0, 18)], [(19, 24), (1, 3)], [(63, 47), (36, 10)],
        [(12, 77), (50, 22)], [(56, 79), (57, 60)], [(12, 3), (97, 69)]],
    7: [[(20, 0), (12, 0)], [(12, 25), (17, 7)], [(59, 57), (61, 45)],
        [(54, 57), (45, 1)], [(53, 91), (17, 7)], [(105, 11), (61, 25)]],
}
PAIRING_FIRST = {
    0: [[(10, 19, 9), (0, 18, 9)], [(24, 9, 18), (3, 9, 9)],
        [(12, 77, 18), (50, 22, 18)], [(22, 18, 72), (51, 64, 36)],
        [(81, 66, 100), (24, 94, 50)], [(37, 23, 25), (11, 22, 100)],
        [(8, 7, 0), (14, 4, 12)], [(6, 2, 12), (6, 7, 4)]],
    7: [[(20, 0, 0), (12, 0, 18)], [(25, 5, 0), (7, 7, 0)],
        [(54, 57, 63), (45, 1, 63)], [(56, 80, 36), (80, 80, 45)],
        [(57, 48, 100), (28, 41, 100)], [(83, 99, 25), (32, 29, 50)],
        [(1, 15, 12), (10, 11, 4)], [(3, 15, 4), (13, 7, 4)]],
}


def _recorded(monkeypatch, name):
    """Run-through wrapper of ``verify.<name>`` that keeps its sample arrays."""
    calls = []
    counter = getattr(verify, name)

    def record(G, *args):
        calls.append(args)
        return counter(G, *args)

    monkeypatch.setattr(verify, name, record)
    return calls


@pytest.mark.parametrize("seed", sorted(NU_FIRST))
def test_nu_linearity_draws_pinned(monkeypatch, seed):
    calls = _recorded(monkeypatch, "_nu_violations")
    chk = verify.check_nu_linearity(seed=seed)
    assert chk.ok and chk.detail == "6000 pairs, 0 violations"
    first = [list(zip(xs[:2].tolist(), ys[:2].tolist())) for _, _, xs, ys in calls]
    assert first == NU_FIRST[seed]


@pytest.mark.parametrize("seed", sorted(PAIRING_FIRST))
def test_pairing_draws_pinned(monkeypatch, seed):
    calls = _recorded(monkeypatch, "_pairing_violations")
    chk = verify.check_pairing_representative_independence(seed=seed)
    assert chk.ok and chk.detail == "8000 perturbations, 0 violations"
    first = [list(zip(xs[:2].tolist(), ys[:2].tolist(), cs[:2].tolist()))
             for xs, ys, cs in calls]
    assert first == PAIRING_FIRST[seed]


def _samples(G, count, seed):
    rng = random.Random(seed)
    return verify._below(rng, G.order, count), verify._below(rng, G.order, count)


def test_nu_check_counts_a_planted_violation():
    std = materialize(Jn2Spec(3, 2, 1, "II"))
    G, p = std.group, 3
    nu = jn2.log_table(G, std.z)[fg.power_map(G.table, p)] % p
    xs, ys = _samples(G, 2000, 1)
    assert verify._nu_violations(G, nu, p, xs, ys) == 0
    planted = nu.copy()
    planted[int(xs[0])] = (planted[int(xs[0])] + 1) % p
    scalar = sum(planted[G.mul(x, y)] != (planted[x] + planted[y]) % p
                 for x, y in zip(xs.tolist(), ys.tolist()))
    assert scalar > 0
    assert verify._nu_violations(G, planted, p, xs, ys) == scalar


@pytest.mark.parametrize("G", [materialize(Jn2Spec(2, 2, 1, "I")).group,
                               fg.symmetric(4)], ids=["I(2^2,1)", "S4"])
def test_pairing_check_counts_a_planted_violation(G):
    xs, ys = _samples(G, 2000, 2)
    central = np.flatnonzero(G.center_mask)
    cs = central[np.arange(xs.size) % central.size]
    assert verify._pairing_violations(G, xs, ys, cs) == 0
    # a noncentral "c" changes [x c, y] for the y it does not commute with;
    # in S4, whose class is not 2, [x c, y] and [c x, y] differ too
    cs[::7] = int(np.flatnonzero(~G.center_mask)[0])
    scalar = sum(G.commutator(G.mul(x, c), y) != G.commutator(x, y)
                 for x, y, c in zip(xs.tolist(), ys.tolist(), cs.tolist()))
    assert scalar > 0
    assert verify._pairing_violations(G, xs, ys, cs) == scalar


# ---------------------------------------------------------------------------
# the draw helpers


# 3 * 2^30 rejects a quarter of all words; 2^32 rejects none
@pytest.mark.parametrize("bound", [1, 2, 27, 243, 1000, 3 * 2**30, 2**32])
@pytest.mark.parametrize("seed", [0, 7])
def test_below_matches_word_by_word_draws(bound, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for count in (0, 1, 1000, 37):
        got = verify._below(rng, bound, count)
        assert got.shape == (count,)
        assert ((0 <= got) & (got < bound)).all()
        assert got.tolist() == below_word_by_word(ref, bound, count)
        # the same words are consumed, so later draws agree too
        assert rng.getstate() == ref.getstate()
    assert verify._below(random.Random(seed), bound, 500).tolist() == \
        verify._below(random.Random(seed), bound, 500).tolist()


def test_below_rejects_words_above_the_last_full_range():
    # at 3 * 2^30 the words from 3 * 2^30 on are rejected: taken mod the
    # bound they would make 0..2^30-1 twice as likely as the rest
    words = np.frombuffer(random.Random(3).randbytes(4 * 4000), dtype="<u4")
    assert (words >= 3 * 2**30).sum() > 800
    got = verify._below(random.Random(3), 3 * 2**30, 3000)
    assert got.tolist() == [int(w) for w in words if w < 3 * 2**30][:3000]
    assert (got >= 2**31).mean() == pytest.approx(1 / 3, abs=0.03)


def test_below_is_uniform_by_chi_square():
    bound, count = 7, 7000
    counts = np.bincount(verify._below(random.Random(11), bound, count), minlength=bound)
    expected = count / bound
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 22.46  # the 0.999 quantile of chi-square with 6 degrees of freedom


@pytest.mark.parametrize("order", [2, 3, 27, 243])
def test_permutations_fix_zero_and_match_sorted_keys(order):
    rng, ref = random.Random(5), random.Random(5)
    perms = verify._permutations(rng, order, 10)
    assert perms.shape == (10, order)
    for perm in perms.tolist():
        assert perm[0] == 0
        assert sorted(perm) == list(range(order))
        assert perm == permutation_by_sorted_keys(ref, order)
    assert rng.getstate() == ref.getstate()


def test_roundtrip_relabels_by_the_drawn_permutations(monkeypatch):
    drawn, used = [], []
    permutations, relabel = verify._permutations, verify.relabel

    def draw(rng, order, count):
        drawn.extend(permutations(rng, order, count).tolist())
        return np.asarray(drawn[-count:])

    def spy(G, perm):
        used.append(list(perm))
        return relabel(G, perm)

    monkeypatch.setattr(verify, "_permutations", draw)
    monkeypatch.setattr(verify, "relabel", spy)
    chk = verify.check_classify_roundtrips(seed=0)
    assert chk.ok and chk.detail == "300 classifications; failures: []"
    assert used == drawn and len(used) == 300


def test_relabel_holds_no_other_table_sized_array(monkeypatch):
    """Outside ``from_table``, relabelling I(3,2) (order 243) traces no
    allocation the size of the table besides H's own."""
    G = materialize(Jn2Spec(3, 1, 2, "I")).group
    perm = verify._permutations(random.Random(0), G.order, 1)[0]
    table_bytes = G.table.nbytes
    peaks = []
    from_table = fg.from_table

    def traced(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        H = from_table(*args, **kwargs)
        tracemalloc.reset_peak()
        return H

    monkeypatch.setattr(fg, "from_table", traced)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        H, iso = fg.relabel(G, perm)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert iso.is_bijective and H.order == G.order
    # before from_table and after it, H's table and less than half a
    # table besides
    assert max(peaks) < 1.5 * table_bytes, (peaks, table_bytes)
