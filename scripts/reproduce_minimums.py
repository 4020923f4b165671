#!/usr/bin/env python3
"""Reproduce the headline minimal-quotient computations and print the
full candidate tables.

Runs the three desk-scale sweeps

    (n, g, bound) in {(6, 1, 64), (5, 1, 125), (5, 2, 64)}

and, for each, lists every candidate group with its verdict, the minimum
order admitting a witness, and the comparison against the closed-form
prediction p^(2g+j).
"""

import math
import time

from braidquot import braid


def main() -> None:
    for n, g, bound in ((6, 1, 64), (5, 1, 125), (5, 2, 64)):
        t0 = time.time()
        rep = braid.minimal_braid_reduced_search(n, g, bound)
        pred = rep.predicted
        print(f"=== n={n} g={g} bound={bound} "
              f"(predicted p={pred.p} j={pred.j} order={pred.order}) ===")
        for cand in rep.candidates:
            verdict = "no witness"
            if cand.witness is not None:
                w = cand.witness
                verdict = (f"witness sigma={w.sigma} "
                           f"a={','.join(map(str, w.a))} "
                           f"b={','.join(map(str, w.b))}")
            print(f"  order {cand.order:>4}  {cand.label:<12} {verdict}")
        print(f"  minimum: {rep.minimum}   attained: {', '.join(rep.attained)}")
        print(f"  kolay bound for comparison: {math.factorial(n)} (= {n}!)")
        print(f"  [{time.time() - t0:.1f}s]")
        print()


if __name__ == "__main__":
    main()
