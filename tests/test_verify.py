"""The sampled property checks of ``verify``: their draws, and what they count.

Each check draws its samples with the same ``rng.randrange`` calls, in the
same order, as a loop testing one sample at a time, then tests all the
samples of a group with one gather each.
"""

import random

import numpy as np
import pytest

from braidquot import fingroup as fg, jn2, verify
from braidquot.jn2 import Jn2Spec, materialize

# The first two draws on each group, in the order the checks visit the
# groups, as the one-sample-at-a-time loops drew them: (x, y) for
# nu-linearity, (x, y, c) with c central for pairing independence.
NU_FIRST = {
    0: [[(12, 24), (13, 1)], [(11, 26), (2, 13)], [(76, 48), (52, 8)],
        [(6, 49), (37, 79)], [(56, 105), (112, 49)], [(40, 74), (18, 107)]],
    7: [[(10, 4), (12, 20)], [(3, 3), (19, 5)], [(14, 36), (5, 74)],
        [(8, 68), (15, 58)], [(72, 80), (114, 16)], [(104, 90), (91, 100)]],
}
PAIRING_FIRST = {
    0: [[(12, 24, 9), (1, 8, 18)], [(16, 11, 0), (7, 4, 0)],
        [(28, 28, 63), (32, 39, 45)], [(64, 28, 63), (10, 1, 63)],
        [(88, 25, 50), (41, 36, 0)], [(115, 46, 100), (72, 65, 0)],
        [(3, 14, 12), (11, 4, 12)], [(15, 8, 0), (4, 4, 4)]],
    7: [[(10, 4, 9), (20, 1, 0)], [(11, 13, 9), (7, 7, 0)],
        [(9, 15, 45), (27, 0, 63)], [(55, 24, 0), (61, 48, 45)],
        [(5, 11, 100), (61, 91, 50)], [(90, 73, 75), (89, 33, 50)],
        [(15, 2, 0), (10, 14, 4)], [(4, 2, 4), (5, 0, 4)]],
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
    xs, ys = verify._draws(random.Random(seed), (G.order, G.order), count).T
    return xs, ys


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
