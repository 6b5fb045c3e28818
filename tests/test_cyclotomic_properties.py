"""Property tests of the CycNum kernel against an independent reference.

The reference keeps every value as a list of Fraction coordinates at one
fixed conductor n and multiplies by plain polynomial arithmetic modulo Phi_n;
it shares no code with ``rigidmono.cyclotomic``.  Kernel results, which live
at their minimal conductor, are embedded back into Q(zeta_n) through their
public ``conductor`` and ``coeffs`` before comparison.
"""
import math
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from rigidmono import CycNum, rational, sort_key, zeta

CONDUCTORS = (1, 2, 3, 4, 5, 8, 12, 15, 24, 60)


@lru_cache(maxsize=None)
def ref_phi_poly(n: int) -> tuple[int, ...]:
    # x^n - 1 = prod over d | n of Phi_d, so divide out the proper divisors.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = ref_phi_poly(d)
            quot = [0] * (len(poly) - len(div) + 1)
            for k in range(len(quot) - 1, -1, -1):
                quot[k] = poly[k + len(div) - 1]
                for i, c in enumerate(div):
                    poly[k + i] -= quot[k] * c
            poly = quot
    return tuple(poly)


def ref_reduce(poly, n: int) -> list[Fraction]:
    phi_poly = ref_phi_poly(n)
    deg = len(phi_poly) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * max(0, deg - len(poly))
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c:
            for i, d in enumerate(phi_poly):
                poly[k - deg + i] -= c * d
    return poly[:deg]


def ref_mul(u, v, n: int) -> list[Fraction]:
    conv = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            conv[i + j] += x * y
    return ref_reduce(conv, n)


def ref_embed(z: CycNum, n: int) -> list[Fraction]:
    # zeta_m^j = zeta_n^(j n / m) for the kernel's conductor m | n.
    step = n // z.conductor
    poly = [Fraction(0)] * (step * len(z.coeffs))
    for j, c in enumerate(z.coeffs):
        poly[j * step] = c
    return ref_reduce(poly, n)


def phi(n: int) -> int:
    return len(ref_phi_poly(n)) - 1


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def field_pair(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    vec = st.lists(fractions, min_size=phi(n), max_size=phi(n))
    return n, draw(vec), draw(vec)


def assert_canonical(z: CycNum):
    assert z.den > 0
    assert math.gcd(z.den, *z.num) == 1
    assert all(type(c) is int for c in z.num)
    assert len(z.num) == phi(z.conductor)
    assert z.conductor == 1 or z.conductor % 4 != 2
    # Re-expressed at a multiple conductor, the value comes back unchanged,
    # so no smaller conductor was missed.
    for t in (2, 3):
        n = z.conductor * t
        again = CycNum.from_coeffs(ref_embed(z, n), n)
        assert again == z and again.conductor == z.conductor
        assert hash(again) == hash(z)


@settings(max_examples=120, deadline=None)
@given(field_pair())
def test_arithmetic_matches_reference(data):
    n, u, v = data
    a, b = CycNum.from_coeffs(u, n), CycNum.from_coeffs(v, n)
    assert ref_embed(a, n) == ref_reduce(u, n)
    prod, total = a * b, a + b
    assert ref_embed(prod, n) == ref_mul(u, v, n)
    assert ref_embed(total, n) == [x + y for x, y in zip(u, v)]
    for z in (a, b, prod, total):
        assert_canonical(z)
    assert prod == b * a and hash(prod) == hash(b * a)
    if a:
        inv = a.inverse()
        assert_canonical(inv)
        assert ref_mul(ref_embed(inv, n), u, n) == [Fraction(1)] + [Fraction(0)] * (phi(n) - 1)


@given(fractions, st.integers(min_value=1, max_value=50))
def test_equal_rationals_hash_equal(q, k):
    same = rational(Fraction(q.numerator * k, q.denominator * k))
    assert same == rational(q)
    assert hash(same) == hash(rational(q)) == hash((1, (q,)))
    assert rational(Fraction(2, 4)) == rational(Fraction(1, 2))
    assert hash(rational(Fraction(2, 4))) == hash(rational(Fraction(1, 2)))


@settings(max_examples=80, deadline=None)
@given(field_pair(), st.sampled_from((2, 3, 5)))
def test_equal_values_from_different_conductors_hash_equal(data, t):
    # One value written at conductor n and at n t, and reached by a sum and a
    # difference that pass through Q(zeta_nt), hashes alike: the hash reads
    # the canonical stored form.
    n, u, _ = data
    z = CycNum.from_coeffs(u, n)
    lifted = CycNum.from_coeffs(ref_embed(z, n * t), n * t)
    detour = (z + zeta(n * t)) - zeta(n * t)
    assert lifted == z == detour
    assert hash(lifted) == hash(z) == hash(detour) and len({z, lifted, detour}) == 1


@st.composite
def mixed_values(draw):
    # Values at one conductor, some with all-integer coordinates (den 1) and
    # some with fractional ones, so both forms of the sort key meet.
    n = draw(st.sampled_from(CONDUCTORS))
    ints = st.lists(st.integers(-3, 3), min_size=phi(n), max_size=phi(n))
    fracs = st.lists(fractions, min_size=phi(n), max_size=phi(n))
    return [CycNum.from_coeffs(u, n) for u in draw(st.lists(st.one_of(ints, fracs),
                                                             min_size=2, max_size=8))]


@settings(max_examples=150, deadline=None)
@given(mixed_values())
def test_sort_key_orders_like_the_fraction_key(values):
    def fraction_key(z):   # the Fraction-tuple key, kept as the oracle
        return (z.conductor, z.coeffs)

    for a in values:
        for b in values:
            assert (sort_key(a) < sort_key(b)) == (fraction_key(a) < fraction_key(b))
            assert (sort_key(a) == sort_key(b)) == (fraction_key(a) == fraction_key(b))
    assert sorted(values, key=sort_key) == sorted(values, key=fraction_key)
