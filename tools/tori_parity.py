"""Replay a seeded corpus of torsion-coset operations and hash the answers.

For each ambient dimension N = 1..6 the corpus draws cosets whose relation
rows are random, zero, unsaturated (a multiple of a random row) or redundant
(the sum of two earlier rows), with translates of denominator up to 240 that
may lie outside [0, 1).  On them it runs ``coset_intersect`` (half of the
pairs through a common point), ``monomial_preimage`` (maps into N from 1..6
coordinates), ``enumerate_torsion`` (order bounds with b^N at most 5,000,
translates on and off the 1/b grid) and ``coset_membership`` (the translate,
listed points and random points).  ``formula_eval`` runs on random Boolean
formulas over these cosets, and on ``nonsimple_locus_formula`` for s up to
128, at points on the locus (on every part of its intersection, so every
leaf is evaluated) and at random points.

Only the public API is used, so two checkouts print equal hashes exactly when
they answer every operation alike.  Listed points are hashed as Fraction
strings, whether a checkout lists them as numerators over the order bound or
as Fractions.  One SHA-256 over all outputs is printed,
with the number of calls, of non-empty or true answers, and the wall time
of each operation.

    python tools/tori_parity.py --seed 1
    python tools/tori_parity.py --root ../other-checkout --seed 1
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

DIMS = range(1, 7)
PER_DIM = 120
MAX_DEN = 240
MAX_GRID = 5_000
LOCUS_S = (3, 4, 5, 8, 16, 32, 64, 128)
LOCUS_POINTS = 8


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout whose src/ is used (default: this one)")
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    sys.path.insert(0, str(args.root / "src"))
    from rigidmono import (TorsionCoset, TorusFormula, coset_intersect, coset_membership,
                           enumerate_torsion, formula_eval, monomial_preimage,
                           nonsimple_locus_formula)
    from rigidmono.serialize import coset_to_json, formula_to_json

    rng = random.Random(args.seed)
    digest, seconds = hashlib.sha256(), defaultdict(float)
    counts, hits = defaultdict(int), defaultdict(int)

    def timed(op, fn, *fargs):
        t0 = time.perf_counter()
        out = fn(*fargs)
        seconds[op] += time.perf_counter() - t0
        counts[op] += 1
        hits[op] += not out.empty if isinstance(out, TorsionCoset) else bool(out)
        if isinstance(out, TorsionCoset):
            wire = coset_to_json(out)
        elif isinstance(out, TorusFormula):
            wire = formula_to_json(out)
        elif isinstance(out, set):
            wire = sorted([str(_over(x, fargs[1])) for x in pt] for pt in out)
        else:
            wire = out
        digest.update(json.dumps([op, wire], sort_keys=True).encode() + b"\n")
        return out

    def frac(den=None):
        den = den or rng.randint(1, MAX_DEN)
        return Fraction(rng.randint(-den, 2 * den), den)

    def rows(n, count):
        out = []
        for _ in range(count):
            kind = rng.randrange(4)
            if kind == 1:
                out.append([0] * n)
            elif kind == 2:
                k = rng.randint(2, 6)
                out.append([k * rng.randint(-4, 4) for _ in range(n)])
            elif kind == 3 and len(out) >= 2:
                u, v = rng.sample(out, 2)
                out.append([x + y for x, y in zip(u, v)])
            else:
                out.append([rng.randint(-9, 9) for _ in range(n)])
        return out

    def coset(n, tau=None):
        return TorsionCoset.of(n, rows(n, rng.randint(0, n + 2)),
                               tau or [frac() for _ in range(n)])

    def point(n, den=None):
        return [frac(den) for _ in range(n)]

    for n in DIMS:
        bounds = [b for b in range(1, MAX_DEN + 1) if b ** n <= MAX_GRID]
        for _ in range(PER_DIM):
            x0 = point(n) if rng.random() < 0.5 else None
            a, b = coset(n, x0), coset(n, x0)
            timed("intersect", coset_intersect, a, b)
            m = rng.randint(1, 6)
            mat = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
            timed("preimage", monomial_preimage, a, mat)
            bound = rng.choice(bounds)
            grid = coset(n, point(n, bound) if rng.random() < 0.5 else None)
            listed = timed("enumerate", enumerate_torsion, grid, bound)
            on = [[_over(x, bound) for x in pt]
                  for pt in rng.sample(sorted(listed), min(3, len(listed)))]
            for q in on + [list(a.translate), point(n), point(n, bound)]:
                timed("membership", coset_membership, q, grid)
                timed("membership", coset_membership, q, a)
            leaves = [TorusFormula.leaf(c) for c in (a, b, grid)]
            f = TorusFormula.union(TorusFormula.intersection(*leaves[:2]),
                                   TorusFormula.complement(leaves[2]))
            timed("formula", formula_eval, f, point(n, bound))
    for s in LOCUS_S:
        for k in range(LOCUS_POINTS):
            triple = sorted(rng.sample(range(1, s + 1), 3))
            f = timed("locus_build", nonsimple_locus_formula, s, triple)
            timed("formula", formula_eval, f, _locus_point(rng, s, triple, on=k % 2 == 0))
    for op in ("intersect", "preimage", "enumerate", "membership", "formula", "locus_build"):
        print(f"{op:<12} {counts[op]:>6} calls  {hits[op]:>6} non-empty or true  "
              f"{seconds[op]:8.3f} s")
    print(f"seed {args.seed}  sha256 {digest.hexdigest()}")
    return 0


def _over(x, b):
    # A listed coordinate as a Fraction: numerators over b are ints, and a
    # checkout that lists Fractions passes them through.
    return Fraction(x, b) if isinstance(x, int) else x


def _locus_point(rng, s, triple, on):
    """A point of the 2s exponent coordinates; on the locus it has scalar
    residues at the non-triple points, a trivial chosen monomial and an
    integral total exponent, so every part of the intersection holds."""
    q = [Fraction(rng.randrange(MAX_DEN), MAX_DEN) for _ in range(2 * s)]
    if not on:
        return q
    rest = [i for i in range(1, s + 1) if i not in triple]
    for i in rest:
        q[2 * i - 1] = q[2 * i - 2]
    choice = [2 * (i - 1) + rng.randrange(2) for i in triple]
    m = rng.randrange(2) if rest else 0
    choice += [2 * (i - 1) + m for i in rest]
    q[choice[0]] -= sum(q[c] for c in choice)
    q[choice[0] ^ 1] -= sum(q)
    return [x % 1 for x in q]


if __name__ == "__main__":
    sys.exit(main())
