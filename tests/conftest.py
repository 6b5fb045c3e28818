"""Shared fixtures and randomized-data generators for the test suite.

The tuple generator draws the first s-1 factors from a fixed finite
cyclotomic pool and closes the relation with the inverse of their product,
so every generated tuple satisfies the product identity exactly.
"""
from __future__ import annotations

import random
import sys
from fractions import Fraction

from rigidmono import (ComponentSpec, EigenData, Matrix, MonodromyTuple, component_membership,
                       one, rational, zero, zeta)
from rigidmono.cli import COMMANDS

# CLI argument tokens: every command, exact and abbreviated options (--o is ambiguous), attached
# values, --, help and --describe-schema; --output and -o are left to tests that write no file.
# The values are those argparse and int() read differently from a plain string or integer.
ARGV_TOKENS = [*COMMANDS, "bogus", "--input", "-i", "--order-bound", "--conductor-cap", "--batch",
               "--inp", "--o", "--order", "--input=X", "-iX", "--", "-h", "--describe-schema"]
ARGV_VALUES = ["-", "", "{}", " -x", "-5", "0", "+12", " 12", "1_2", "\u0663", "x",
               "9" * (sys.get_int_max_str_digits() + 1)]

LEGENDRE_MATRICES = (
    Matrix.from_rows([[1, -1], [4, -3]]),
    Matrix.from_rows([[1, 1], [0, 1]]),
    Matrix.from_rows([[1, 0], [-4, 1]]),
)


def legendre_tuple() -> MonodromyTuple:
    return MonodromyTuple.of(LEGENDRE_MATRICES)


def legendre_eigen() -> EigenData:
    m1 = rational(-1)
    p1 = rational(1)
    return EigenData.of([[m1, m1], [p1, p1], [p1, p1]])


# Mostly rational pool (fast) with a cyclotomic tail to exercise the field.
ENTRY_POOL = ([rational(x) for x in (0, 1, -1, 2, -2, Fraction(1, 2))]
              + [zeta(4), zeta(3), zeta(3) + 1])
SCALAR_POOL = ([rational(x) for x in (1, -1, 2, Fraction(1, 2), 3)]
               + [zeta(4), zeta(3)])


def random_invertible(rng: random.Random, pool=ENTRY_POOL) -> Matrix:
    while True:
        m = Matrix(2, 2, tuple(rng.choice(pool) for _ in range(4)))
        if m.det():
            return m


def random_tuple(rng: random.Random, s: int, scalar_prob: float = 0.35) -> MonodromyTuple:
    """A validated rank-2 tuple mixing scalar and non-scalar factors."""
    mats = []
    for _ in range(s - 1):
        if rng.random() < scalar_prob:
            mats.append(Matrix.scalar(2, rng.choice(SCALAR_POOL)))
        else:
            mats.append(random_invertible(rng))
    prod = Matrix.identity(2)
    for g in mats:
        prod = prod @ g
    mats.append(prod.inverse())
    return MonodromyTuple.of(mats)


def random_unit(rng: random.Random, n: int = 24):
    return zeta(n, rng.randrange(n)) * rational(rng.choice((1, -1)))


def random_member_eigen(rng: random.Random, s: int, triple, n: int = 24) -> EigenData:
    """Quasi-unipotent eigenvalue data passing component membership for the
    given triple: scalar outside the triple, global product fixed to 1,
    rejection-sampled off the excluded locus."""
    triple = frozenset(triple)
    spec = ComponentSpec.of(s, triple)
    while True:
        pts = []
        for i in range(1, s + 1):
            if i in triple:
                pts.append([random_unit(rng, n), random_unit(rng, n)])
            else:
                lam = random_unit(rng, n)
                pts.append([lam, lam])
        prod = one()
        for pt in pts:
            prod = prod * pt[0] * pt[1]
        j = max(triple) - 1
        pts[j][1] = pts[j][1] / prod
        e = EigenData.of(pts)
        if component_membership(e, spec):
            return e


def random_product_one_eigen(rng: random.Random, s: int = 3, n: int = 24) -> EigenData:
    """Quasi-unipotent eigenvalue data with global product 1 and no further
    constraint, so it may or may not lie on the non-simple locus."""
    pts = [[random_unit(rng, n), random_unit(rng, n)] for _ in range(s)]
    prod = one()
    for pt in pts:
        prod = prod * pt[0] * pt[1]
    pts[-1][1] = pts[-1][1] / prod
    return EigenData.of(pts)


def random_triangular_tuple(rng: random.Random, n: int = 12) -> MonodromyTuple:
    """A reducible rank-2, s = 3 tuple with split local data: all three
    factors upper triangular, so e_1 spans a common invariant line."""
    def upper():
        d1, d2 = random_unit(rng, n), random_unit(rng, n)
        top = rng.choice(ENTRY_POOL)
        return Matrix.from_rows([[d1, top], [rational(0), d2]])
    g1, g2 = upper(), upper()
    g3 = (g1 @ g2).inverse()
    return MonodromyTuple.of([g1, g2, g3])


def monic(roots) -> list:
    """Coefficients of prod(x - z) over the roots z, lowest degree first."""
    c = [one()]
    for z in roots:
        c = [-z * c[0]] + [c[k - 1] - z * c[k] for k in range(1, len(c))] + [c[-1]]
    return c


def companion(roots) -> Matrix:
    """Ones below the diagonal, last column -c_0, ..., -c_(r-1): charpoly prod(x - z)."""
    r, c = len(roots), monic(roots)
    return Matrix(r, r, tuple(-c[i] if j == r - 1 else (one() if i == j + 1 else zero())
                              for i in range(r) for j in range(r)))


def levelt_triple(a, b) -> MonodromyTuple:
    """Levelt's hypergeometric triple (A, A^-1 B, B^-1), A and B the companion
    matrices of prod(x - a_i) and prod(x - b_j)."""
    big_a, big_b = companion(a), companion(b)
    return MonodromyTuple.of([big_a, big_a.inverse() @ big_b, big_b.inverse()])
