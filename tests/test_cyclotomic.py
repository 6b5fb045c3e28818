import random
import time
from fractions import Fraction

import pytest

from rigidmono import (CycNum, GaloisElement, cyclotomic_polynomial, euler_phi, galois_apply,
                       galois_group, one, rational, root_of_unity_order, unit_exp, unit_log,
                       zero, zeta)
from rigidmono import cyclotomic
from rigidmono.cyclotomic import _lift
from rigidmono.errors import FieldMismatch, InvalidAutomorphism, InvalidConductor

POOL = [zero(), one(), rational(-1), rational(2), rational(Fraction(-2, 3)),
        zeta(3), zeta(4), zeta(8), zeta(12), zeta(3) + zeta(4),
        rational(2) - zeta(8), zeta(5) + rational(1)]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(24) == 8


def test_make_basis_element():
    z = CycNum.from_coeffs([0, 1], 4)
    assert z == zeta(4)
    assert z.conductor == 4


def test_make_descends_conductor():
    z = CycNum.from_coeffs([0, 0, 1], 6)  # zeta_6^2
    assert z == zeta(3)
    assert z.conductor == 3


def test_make_root_sum_vanishes():
    z = CycNum.from_coeffs([1, 1, 1], 3)
    assert z == zero()
    assert z.conductor == 1


def test_constructor_yields_canonical_form():
    # The raw constructor used to keep non-minimal forms, which then compared
    # unequal to the same value built any other way.
    assert CycNum(2, (Fraction(1),)) == one()
    assert CycNum(4, (Fraction(1), Fraction(0))) == one()
    assert CycNum(4, (Fraction(1), Fraction(0))).conductor == 1
    assert hash(CycNum(4, (Fraction(1), Fraction(0)))) == hash(one())
    assert CycNum(6, (Fraction(0), Fraction(1))) == zeta(6)
    with pytest.raises(InvalidConductor):
        CycNum(4, (Fraction(1),))
    with pytest.raises(InvalidConductor):
        CycNum(0, ())


def test_make_rejects_bad_conductor():
    with pytest.raises(InvalidConductor):
        CycNum.from_coeffs([1], 0)
    with pytest.raises(InvalidConductor):
        CycNum.from_coeffs([1, 2, 3], 2)


def test_arith_examples():
    assert zeta(4) * zeta(4) == rational(-1)
    assert zeta(3) + zeta(3) ** 2 == rational(-1)
    assert one() / zeta(8) == zeta(8) ** 7


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        one() / zero()
    with pytest.raises(ZeroDivisionError):
        zero().inverse()


def test_field_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(300):
        a, b, c = (rng.choice(POOL) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        if b:
            assert (a / b) * b == a


def test_inverse_roundtrip():
    for v in POOL:
        if v:
            assert v * v.inverse() == one()


# Conductors whose descent steps take both branches of the relative-basis rule:
# an odd p dividing m = n/p (36, 45, 63), three odd primes (105, 231), and a
# declared n = 2 (mod 4) whose step p = 2 lands on an odd m (30, 42, 90, 210).
DESCENT_CONDUCTORS = [36, 45, 63, 105, 231, 30, 42, 90, 210]


def _random_at(rng: random.Random, d: int) -> CycNum:
    return CycNum.from_coeffs([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(euler_phi(d))], d)


def _subfield_sum(rng: random.Random, n: int) -> list[Fraction]:
    # Coordinates at n of a sum of random elements of two subfields Q(zeta_d), d | n,
    # so that the sum descends part of the way, all of it, or not at all.
    out = [Fraction(0)] * euler_phi(n)
    for _ in range(2):
        v = _random_at(rng, rng.choice([d for d in range(1, n + 1) if n % d == 0]))
        out = [x + Fraction(c, v.den) for x, c in zip(out, _lift(v.num, v.conductor, n))]
    return out


def test_conductor_minimality_under_reexpression():
    # Re-expressing an element at any multiple of its conductor must come back
    # to the same stored conductor and coordinates.
    for v in POOL:
        for t in (2, 3, 5):
            n = v.conductor * t
            lifted = [Fraction(c, v.den) for c in _lift(v.num, v.conductor, n)]
            w = CycNum.from_coeffs(lifted, n)
            assert w == v
            assert w.conductor == v.conductor
    rng = random.Random(23)
    for n in DESCENT_CONDUCTORS:
        for d in range(1, n):
            if n % d == 0:
                v = _random_at(rng, d)
                lifted = [Fraction(c, v.den) for c in _lift(v.num, v.conductor, n)]
                w = CycNum.from_coeffs(lifted, n)
                assert w == v
                assert w.conductor == v.conductor


def _in_subfield_bruteforce(z: CycNum, d: int) -> bool:
    # Independent oracle: solvability of the embedding linear system by plain
    # Gaussian elimination over Q.
    from rigidmono.cyclotomic import _power_table
    n = z.conductor
    cols = [_power_table(n)[(j * (n // d)) % n] for j in range(euler_phi(d))]
    rows = [[Fraction(cols[j][i]) for j in range(len(cols))] + [z.coeffs[i]]
            for i in range(euler_phi(n))]
    rank = 0
    for col in range(len(cols)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return all(not row[-1] for row in rows[rank:])


def test_conductor_is_minimal_against_bruteforce():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.choice([8, 12, 15, 20, 24])
        coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                  for _ in range(euler_phi(n))]
        z = CycNum.from_coeffs(coeffs, n)
        if not z:
            continue
        for d in range(1, z.conductor):
            if z.conductor % d == 0:
                assert not _in_subfield_bruteforce(z, d), (z, d)
    for n in DESCENT_CONDUCTORS:
        for _ in range(4):
            coeffs = _subfield_sum(rng, n)
            z = CycNum.from_coeffs(coeffs, n)
            assert n % z.conductor == 0
            assert z == sum((c * zeta(n, k) for k, c in enumerate(coeffs)), zero())
            for d in range(1, z.conductor):
                if z.conductor % d == 0:
                    assert not _in_subfield_bruteforce(z, d), (z, d)


def test_stored_conductor_never_two_mod_four():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.choice([2, 6, 10, 12, 18, 24])
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(euler_phi(n))]
        z = CycNum.from_coeffs(coeffs, n)
        assert z.conductor == 1 or z.conductor % 4 != 2
    for n in DESCENT_CONDUCTORS:
        for _ in range(10):
            z = CycNum.from_coeffs(_subfield_sum(rng, n), n)
            assert z.conductor == 1 or z.conductor % 4 != 2


def test_descent_from_conductor_231_builds_its_rows_quickly():
    # 231 = 3 * 7 * 11 is under the default conductor cap of 240, and a
    # one-line request pays the first build of its descent rows in full.
    v = zeta(77) + rational(Fraction(1, 2))
    num = list(_lift(v.num, 77, 231))
    cyclotomic._descent_data.cache_clear()
    start = time.perf_counter()
    z = cyclotomic._normalize(231, num, v.den)
    assert time.perf_counter() - start < 0.25
    assert z == v and z.conductor == 77


def test_root_of_unity_orders():
    assert root_of_unity_order(one()) == 1
    assert root_of_unity_order(rational(-1)) == 2
    assert root_of_unity_order(zeta(6, 2)) == 3
    assert root_of_unity_order(zeta(6)) == 6
    assert root_of_unity_order(zeta(24, 7)) == 24
    assert root_of_unity_order(-zeta(3)) == 6
    assert root_of_unity_order(rational(2)) is None
    assert root_of_unity_order(zero()) is None


def test_root_of_unity_order_matches_unit_log():
    # The integer order 2n / gcd(2j + e n, 2n) against the denominator of the
    # Fraction unit_log, for every +-zeta_n^j with n <= 60.
    for n in range(1, 61):
        for j in range(n):
            for z in (zeta(n, j), -zeta(n, j)):
                assert root_of_unity_order(z) == unit_log(z).denominator
    for z in (one() + zeta(4), rational(2), rational(Fraction(1, 2))):
        assert root_of_unity_order(z) is None


def test_root_of_unity_absent_for_one_plus_i():
    z = one() + zeta(4)
    # |1+i|^2 = 2 exactly, so no power can be 1.
    n = z.conductor   # complex conjugation is zeta_n -> zeta_n^(n - 1)
    assert z * galois_apply(z, GaloisElement(n, n - 1)) == rational(2)
    assert root_of_unity_order(z) is None


def test_root_of_unity_order_is_minimal():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.choice([3, 4, 5, 8, 12, 24])
        z = zeta(n, rng.randrange(n)) * rational(rng.choice((1, -1)))
        m = root_of_unity_order(z)
        assert z ** m == one()
        for d in range(1, m):
            if m % d == 0:
                assert z ** d != one()


def test_unit_log_exp_inverse():
    for a in (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(5, 8), Fraction(7, 12)):
        assert unit_log(unit_exp(a)) == a
    assert unit_log(rational(3)) is None


def test_galois_basic():
    g = GaloisElement(12, 5)
    assert galois_apply(zeta(12), g) == zeta(12) ** 5
    assert galois_apply(rational(Fraction(3, 7)), g) == rational(Fraction(3, 7))
    # zeta_3 + zeta_3^2 = -1 is rational, hence fixed.
    v = zeta(3) + zeta(3) ** 2
    assert galois_apply(v, GaloisElement(3, 2)) == v == rational(-1)


def test_galois_is_ring_homomorphism():
    rng = random.Random(11)
    pool24 = [v for v in POOL if 24 % v.conductor == 0]
    for g in galois_group(24):
        for _ in range(20):
            a, b = rng.choice(pool24), rng.choice(pool24)
            assert galois_apply(a + b, g) == galois_apply(a, g) + galois_apply(b, g)
            assert galois_apply(a * b, g) == galois_apply(a, g) * galois_apply(b, g)


def test_galois_validation():
    with pytest.raises(InvalidAutomorphism):
        GaloisElement(12, 4)
    with pytest.raises(InvalidAutomorphism):
        GaloisElement(12, 13)
    with pytest.raises(FieldMismatch):
        galois_apply(zeta(5), GaloisElement(12, 5))


def test_galois_group_sizes():
    assert len(galois_group(12)) == euler_phi(12) == 4
    assert galois_group(1) == []
