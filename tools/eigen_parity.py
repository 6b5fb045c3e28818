"""Replay a seeded corpus of local monodromy factors through the eigenvalue rule.

The corpus has 70 rank-2 and 10 rank-3 matrices over Q(zeta_n) for each
conductor n = 1..60, and 3 rank-4 matrices for each n = 1..24, so the roots
of degree 3 and 4 are searched too.  Half have random entries (small multiples of powers of
zeta_n); the other half are block diagonals conjugated by a unimodular
integer matrix, with 1 x 1 blocks c zeta_n^k (c rational) and 2 x 2 blocks
x^2 - a, where a is either c^2 zeta_n^k, so the roots lie in the degree-bounded
extension, or a random entry.  So split, extension and non-split
characteristic polynomials all occur.  A stratum of 600 integer 2 x 2
matrices is shaped like the rational benchmark tuples: random small entries,
companions of x^2 - x + p with p near 10^11, conjugated Jordan blocks (double
roots), and conjugated matrices with roots x +- y i, t zeta_3^(+-1) or two
integers, some of norm near 10^11.  A repeated-root stratum has 6 rank-4
matrices for each n = 1..24: conjugated Jordan blocks of c zeta_n^k, which
the search serves through the squarefree part, and two copies of the
companion block of x^2 - a, a the square of no c u, whose double roots lie
outside every cyclotomic field and must be refused.  The characteristic polynomials are
computed first; then ``linalg.poly_roots_in_field(p)`` runs on each, timed
alone.  Per stratum it prints the count of factors, how many of them have
rational characteristic polynomials (the ones a discriminant decides at rank
2), and the count and summed wall time of the factors that split and of those
that do not, so a refusal that comes early shows in the second.  One SHA-256
over the outputs is printed, so two checkouts print
equal hashes exactly when the rule answers every factor alike.  Run it once
per checkout to compare them, hashes and per-stratum times alike; a checkout
whose ``poly_roots_in_field`` still takes the entries' conductor as a second
argument is compared with its own copy of this tool.  The repeated-root
stratum is newer than some checkouts, so compare two checkouts with one copy:

    python tools/eigen_parity.py --seed 1
    python tools/eigen_parity.py --root ../other-checkout --seed 1
"""
from __future__ import annotations

import argparse
import hashlib
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

# (name, rank, conductors, factors per conductor, kind of factor); the integer
# stratum's factors are all over Q, so its one conductor is only a placeholder
STRATA = (("rank 2", 2, range(1, 61), 70, "mixed"), ("rank 3", 3, range(1, 61), 10, "mixed"),
          ("rank 4", 4, range(1, 25), 3, "mixed"), ("rank 2 integer", 2, (1,), 600, "integer"),
          ("rank 4 repeated", 4, range(1, 25), 6, "repeated"))
HEAVY_NORM = 10 ** 11
# Rationals that are no square up to sign, so c zeta_n^k is the square of no c u.
NON_SQUARES = (2, 3, 5, 6, Fraction(1, 2), Fraction(2, 3), Fraction(5, 4), Fraction(7, 9))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout whose src/ is used (default: this one)")
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    sys.path.insert(0, str(args.root / "src"))
    from rigidmono import Matrix, charpoly, rational, zeta
    from rigidmono.linalg import poly_roots_in_field

    rng = random.Random(args.seed)

    def entry(n):
        return sum((rational(rng.randint(-3, 3)) * zeta(n, rng.randrange(n))
                    for _ in range(rng.randint(1, 2))), rational(0))

    def unit_multiple(n, square):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        return rational(c * c if square else c) * zeta(n, rng.randrange(n))

    def conjugate(rows):
        r = len(rows)
        lower = Matrix.from_rows([[rng.randint(-2, 2) if j < i else int(i == j)
                                   for j in range(r)] for i in range(r)])
        upper = Matrix.from_rows([[rng.randint(-2, 2) if j > i else int(i == j)
                                   for j in range(r)] for i in range(r)])
        conj = lower @ upper
        return conj @ Matrix.from_rows(rows) @ conj.inverse()

    def factor(n, r):
        if rng.random() < 0.5:
            return Matrix.from_rows([[entry(n) for _ in range(r)] for _ in range(r)])
        rows = [[rational(0)] * r for _ in range(r)]
        i = 0
        while i < r:
            if i + 1 < r and rng.random() < 0.5:  # the companion block of x^2 - a
                a = unit_multiple(n, True) if rng.random() < 0.5 else entry(n)
                rows[i][i + 1], rows[i + 1][i], i = a, rational(1), i + 2
            else:
                rows[i][i], i = unit_multiple(n, False), i + 1
        return conjugate(rows)

    def size():
        # A small integer, or one near sqrt(10^11), so that norms reach about 10^11.
        bound = 5 if rng.random() < 0.75 else 3 * 10 ** 5
        return rng.choice((-1, 1)) * rng.randint(1, bound)

    def repeated_factor(n, r):
        # Jordan blocks of c zeta_n^k (a repeated value may also recur across
        # blocks), or a 2 x 2 companion block of x^2 - a repeated, with
        # a = +-c zeta_n^k for a non-square c, so the double roots lie outside
        # every cyclotomic field.
        rows = [[rational(0)] * r for _ in range(r)]
        if rng.random() < 0.5:
            i, lam = 0, unit_multiple(n, False)
            while i < r:
                size = rng.randint(1, r - i)
                for j in range(i, i + size):
                    rows[j][j] = lam
                    if j + 1 < i + size:
                        rows[j][j + 1] = rational(1)
                i += size
                if rng.random() < 0.5:
                    lam = unit_multiple(n, False)
            if all(rows[j][j + 1] == rational(0) for j in range(r - 1)):
                rows[0][1], rows[1][1] = rational(1), rows[0][0]  # one block of size 2 at least
        else:
            a = rational(rng.choice((-1, 1)) * rng.choice(NON_SQUARES)) * zeta(n, rng.randrange(n))
            for i in range(0, r - 1, 2):
                rows[i][i + 1], rows[i + 1][i] = a, rational(1)
        return conjugate(rows)

    def integer_factor():
        kind = rng.randrange(6)
        if kind == 0:
            return Matrix.from_rows([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        if kind == 1:
            return Matrix.from_rows([[0, -rng.randrange(HEAVY_NORM, HEAVY_NORM * 101 // 100)],
                                     [1, 1]])
        x, y = size(), size()
        rows = {2: [[x, 1], [0, x]],             # the double root x
                3: [[x, -y], [y, x]],            # x +- y i
                4: [[0, -x * x], [1, -x]],       # x zeta_3^(+-1)
                5: [[x, 0], [0, y]]}[kind]
        return conjugate(rows)

    digest = hashlib.sha256()
    make = {"mixed": factor, "integer": lambda n, r: integer_factor(), "repeated": repeated_factor}
    for name, r, conductors, per, kind in STRATA:
        items = [charpoly(make[kind](n, r)) for n in conductors for _ in range(per)]
        count, seconds = {True: 0, False: 0}, {True: 0.0, False: 0.0}
        for poly in items:
            t0 = time.perf_counter()
            out = poly_roots_in_field(poly)
            elapsed = time.perf_counter() - t0
            count[out is not None] += 1
            seconds[out is not None] += elapsed
            digest.update(repr(out).encode() + b"\n")
        rational_count = sum(all(c.conductor == 1 for c in p.coeffs) for p in items)
        print(f"{name}  {len(items)} factors ({rational_count} rational)  "
              f"{count[True]} split {seconds[True]:.3f} s  "
              f"{count[False]} unsplit {seconds[False]:.3f} s")
    print(f"seed {args.seed}  sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
