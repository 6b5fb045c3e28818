"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A CycNum stores an element of Q(zeta_n) as sum(a_i zeta_n^i) / d in the power
basis of Q[x]/(Phi_n), Phi_n the n-th cyclotomic polynomial, with integer a_i
over one positive denominator d in lowest terms (ANTIC's nf_elem layout).
Arithmetic runs on integers; Fraction coordinates are built only for callers
that read them.  The stored conductor is always minimal, so equality is plain
comparison: every result passes through one normalization point, which
descends one prime at a time by relative power bases, with integer rows and
no linear solve (see ``_descent_data``).  Zero and the rationals live at
conductor 1.

>>> zeta(4) * zeta(4)
CycNum(-1)
>>> zeta(3) + zeta(3) ** 2
CycNum(-1)
>>> zeta(8) ** -1 == zeta(8) ** 7
True
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import FieldMismatch, InvalidAutomorphism, InvalidConductor


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dense tuples, lowest degree first).

def _int_poly_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division of integer polynomials; remainder must vanish.
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        quot[k] = q
        for i, d in enumerate(den):
            num[k + i] -= q * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest degree first.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if n < 1:
        raise InvalidConductor(f"conductor must be positive, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """n times the product of (1 - 1/p) over the primes p dividing n."""
    if n < 1:
        raise InvalidConductor(f"conductor must be positive, got {n}")
    for p in _prime_divisors(n):
        n = n // p * (p - 1)
    return n


@lru_cache(maxsize=None)
def _prime_divisors(n: int) -> tuple[int, ...]:
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    # Row k is the coordinate vector of zeta_n^k, for k in 0..n-1.
    phi = euler_phi(n)
    cyc = cyclotomic_polynomial(n)
    rows: list[tuple[int, ...]] = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(n):
        rows.append(tuple(cur))
        cur = [0] + cur
        lead = cur.pop()
        if lead:
            for i in range(phi):
                cur[i] -= lead * cyc[i]
    return tuple(rows)


@lru_cache(maxsize=None)
def _sparse_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # Row k lists the nonzero (index, value) coordinates of zeta_n^k.
    return tuple(tuple((i, v) for i, v in enumerate(row) if v) for row in _power_table(n))


@lru_cache(maxsize=None)
def _unit_index(n: int) -> dict[tuple[int, ...], tuple[int, int]]:
    # Numerator vector -> (sign, exponent) for the 2n roots of unity in Q(zeta_n).
    index: dict[tuple[int, ...], tuple[int, int]] = {}
    for j, row in enumerate(_power_table(n)):
        index.setdefault(row, (1, j))
        index.setdefault(tuple(-c for c in row), (-1, j))
    return index


def _combine(n: int, terms, size: int) -> list[int]:
    # Integer coordinates of sum(c zeta_n^k) over the (k, c) pairs in terms.
    rows = _sparse_rows(n)
    out = [0] * size
    for k, c in terms:
        if c:
            for i, v in rows[k % n]:
                out[i] += c * v
    return out


def _lift(num, m: int, n: int):
    # Coordinates at the multiple conductor n of the element with coordinates num at m.
    return num if m == n else tuple(
        _combine(n, ((j * (n // m), c) for j, c in enumerate(num)), euler_phi(n)))


def _dot(n: int, pairs) -> list[int]:
    # Integer coordinates of sum(a b) over pairs (a, b) of coordinate vectors
    # at conductor n: the convolutions are summed, then reduced mod Phi_n once.
    phi = euler_phi(n)
    if phi == 1:
        return [sum(a[0] * b[0] for a, b in pairs)]
    conv = [0] * (2 * phi - 1)
    for a, b in pairs:
        terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    conv[i + j] += x * y
    return [x + y for x, y in zip(conv, _combine(n, enumerate(conv[phi:], phi), phi))]


# ---------------------------------------------------------------------------
# Conductor descent.

@lru_cache(maxsize=None)
def _descent_data(n: int, p: int):
    """Sparse integer rows for the prime step from Q(zeta_n) to Q(zeta_m), m = n/p.

    They rewrite coordinates at n in the basis zeta_m^a w_b, a < phi(m), where
    w_0 = 1, w_1, ... is a relative power basis of Q(zeta_n) over Q(zeta_m):
    if p | m, w_b = zeta_n^b (b < p) and zeta_n^i = zeta_m^(i // p) zeta_n^(i % p);
    else w_b = zeta_p^b (b < p - 1) and zeta_n^i = zeta_m^(iu) zeta_p^(iv) with
    up + vm = 1, where zeta_p^(p-1) = -(w_0 + ... + w_(p-2)).  An element lies in
    Q(zeta_m) exactly when its components b >= 1 vanish, and its component
    b = 0 is then its coordinates at m.  Returns (others, first), the rows of
    (i, a) pairs, a the integer multiplier of num[i], for those components.
    """
    m, coprime = n // p, n // p % p != 0
    u = pow(p, -1, m) if coprime else 0
    v = (1 - u * p) // m
    parts = [[[] for _ in range(euler_phi(m))] for _ in range(p - coprime)]
    for i in range(euler_phi(n)):
        e, b = (i * u % m, i * v % p) if coprime else divmod(i, p)
        for a, c in _sparse_rows(m)[e]:
            if b < len(parts):
                parts[b][a].append((i, c))
            else:  # b = p - 1: w_b = -(w_0 + ... + w_(p-2))
                for part in parts:
                    part[a].append((i, -c))
    return (tuple(tuple(row) for part in parts[1:] for row in part),
            tuple(map(tuple, parts[0])))


def _vanishes(rows, num) -> bool:
    # Whether every sparse row's combination of num is zero, stopping at the first that is not.
    for row in rows:
        acc = 0
        for i, a in row:
            acc += num[i] * a
        if acc:
            return False
    return True


def _descend(n: int, nums) -> tuple[int, list]:
    """(m, coordinates at m) of the coordinate vectors nums at conductor n, m
    the least conductor whose field holds them all.  A prime step is taken
    when every vector lies in the smaller field; the fields holding them all
    are closed under gcd, so the greedy steps end at the least one."""
    while n > 1:
        for num in nums:
            if any(num[1:]):
                break
        else:
            return 1, [num[:1] for num in nums]
        for p in _prime_divisors(n):
            others, first = _descent_data(n, p)
            for num in nums:
                if not _vanishes(others, num):
                    break
            else:
                nums = [[sum([num[i] * a for i, a in row]) for row in first] for num in nums]
                n //= p
                break
        else:
            break
    return n, nums


def _from_ratios(n: int, parts) -> tuple[int, list, int]:
    # (m, coordinates at m, den) of the sums of p_i / q_i zeta_k^i over parts (k, [(p_i, q_i)]),
    # k | n: one lift to n over one denominator den, one descent of them all to their least m.
    # A part at k = n with at most phi(n) pairs holds power-basis coordinates already, and is
    # placed as read; any other part is combined from the rows of the power table.
    den, phi = math.lcm(*[q for _, pairs in parts for _, q in pairs]), euler_phi(n)
    # q | den, so p * (den // q) / den == p / q, whatever the sign of q.
    num = [[p * (den // q) for p, q in pairs] + [0] * (phi - len(pairs))
           if k == n and len(pairs) <= phi else
           _combine(n, ((j * (n // k), p * (den // q)) for j, (p, q) in enumerate(pairs)), phi)
           for k, pairs in parts]
    return (*_descend(n, num), den)


def _product(n: int, values, num=None, den: int = 1) -> tuple[list[int], int]:
    # (integer coordinates at n, denominator) of num / den (default 1) times the product of
    # values, CycNums at conductors dividing n: one lift and one convolution per value over
    # the product of the denominators, with no descent and no gcd.
    for v in values:
        a = _lift(v.num, v.conductor, n)
        num = a if num is None else _dot(n, ((num, a),))
        den *= v.den
    return ([1] + [0] * (euler_phi(n) - 1) if num is None else num), den


def _normalize(n: int, num: list[int], den: int) -> CycNum:
    """The element num/den at conductor n, in canonical form: descend to the
    minimal conductor, then divide out the gcd."""
    n, (num,) = _descend(n, (num,))
    return _lowest_terms(n, num, den)


def _lowest_terms(n: int, num, den: int) -> CycNum:
    # The gcd step of _normalize alone, for n known to be minimal already.
    g = math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return _make(n, tuple(num), den)


# ---------------------------------------------------------------------------
# The scalar type.

class CycNum:
    """An element of the cyclotomic field Q(zeta_n), at minimal conductor n.

    Construct values through :func:`rational`, :func:`zeta`, or
    :meth:`CycNum.from_coeffs`; ``CycNum(n, coeffs)`` takes the phi(n)
    rational power-basis coordinates and also yields the canonical form.
    Arithmetic is by the usual operators and is exact.  Instances are
    immutable by convention, like :class:`fractions.Fraction`.

    >>> CycNum.from_coeffs([0, 0, 1], 6)    # zeta_6^2 descends to conductor 3
    CycNum(3, (0, 1))
    >>> CycNum.from_coeffs([1, 1, 1], 3)
    CycNum(0)
    >>> CycNum(4, (Fraction(1, 2), 0)) == rational(Fraction(1, 2))
    True
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs):
        if len(coeffs) != euler_phi(conductor):
            raise InvalidConductor(f"need {euler_phi(conductor)} coordinates at conductor "
                                   f"{conductor}, got {len(coeffs)}")
        z = CycNum.from_coeffs(coeffs, conductor)
        self.conductor, self.num, self.den = z.conductor, z.num, z.den

    @classmethod
    def from_coeffs(cls, coeffs, n: int) -> CycNum:
        """The element sum(c_i zeta_n^i), reduced mod Phi_n, at minimal conductor."""
        return cls.from_ratios([(c.numerator, c.denominator) for c in map(Fraction, coeffs)], n)

    @classmethod
    def from_ratios(cls, pairs, n: int) -> CycNum:
        """:meth:`from_coeffs` with each c_i given as an integer pair (p_i, q_i), q_i != 0."""
        if n < 1:
            raise InvalidConductor(f"conductor must be positive, got {n}")
        if len(pairs) > n:
            raise InvalidConductor(f"coefficient list longer than conductor {n}")
        n, (num,), den = _from_ratios(n, [(n, pairs)])
        return _lowest_terms(n, num, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coordinates in the power basis of Q(zeta_conductor)."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def __eq__(self, other):
        return (other.__class__ is CycNum and self.conductor == other.conductor
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        # The stored form is canonical, so equal values hash equal; a rational
        # keeps the hash of its Fraction coordinates, (1, (q,)), which for an
        # integer p is the hash of (1, (p,)): no Fraction is built for it.
        if self.conductor != 1:
            return hash((self.conductor, self.num, self.den))
        return hash((1, self.num if self.den == 1 else self.coeffs))

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return self.conductor != 1 or self.num[0] != 0

    def as_rational(self) -> Fraction:
        if self.conductor != 1:
            raise FieldMismatch(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ---------------------------------------------------------

    def _scale(self, a: int, d: int) -> CycNum:
        # self * (a/d) for a rational a/d; the conductor stays minimal.
        if not a:
            return zero()
        return _lowest_terms(self.conductor, [a * c for c in self.num], self.den * d)

    def __add__(self, other) -> CycNum:
        if other.__class__ is not CycNum:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        m, k = self.conductor, other.conductor
        n = m if m == k else math.lcm(m, k)
        a, b = _lift(self.num, m, n), _lift(other.num, k, n)
        d, e = self.den, other.den
        num = [x * e + y * d for x, y in zip(a, b)]
        if m == 1 or k == 1:
            return _lowest_terms(n, num, d * e)  # adding a rational keeps the conductor
        return _normalize(n, num, d * e)

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        return _make(self.conductor, tuple(-c for c in self.num), self.den)

    def __sub__(self, other) -> CycNum:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> CycNum:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> CycNum:
        if other.__class__ is not CycNum:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        m, k = self.conductor, other.conductor
        if m == 1:
            return other._scale(self.num[0], self.den)
        if k == 1:
            return self._scale(other.num[0], other.den)
        n = m if m == k else math.lcm(m, k)
        prod = _dot(n, ((_lift(self.num, m, n), _lift(other.num, k, n)),))
        return _normalize(n, prod, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> CycNum:
        """The multiplicative inverse, by the extended Euclidean algorithm
        on integer polynomials."""
        if not self:
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        n, den = self.conductor, self.den
        if n == 1:
            return _make(1, (den if self.num[0] > 0 else -den,), abs(self.num[0]))
        # Remainders r of a = the numerator polynomial against Phi_n keep
        # r == s * a (mod Phi_n) with r, s integer: each step scales by the
        # least factor that cancels the leading term, and each remainder is
        # divided by the content of (r, s).
        r0, s0, r1, s1 = list(cyclotomic_polynomial(n)), [0], list(self.num), [1]
        while True:
            while not r1[-1]:
                r1.pop()  # r1 != 0: Phi_n is irreducible, so gcd(a, Phi_n) = 1
            if len(r1) == 1:
                break
            deg, lead = len(r1) - 1, r1[-1]
            r, s = r0[:], s0 + [0] * (len(r0) - len(r1) + len(s1) - len(s0))
            while len(r) > deg:
                c = r.pop()
                if c:
                    shift, g = len(r) - deg, math.gcd(c, lead)
                    mult, c = lead // g, c // g
                    if mult != 1:
                        r = [mult * v for v in r]
                        s = [mult * v for v in s]
                    for i, v in enumerate(r1[:-1], shift):
                        r[i] -= c * v
                    for i, v in enumerate(s1, shift):
                        s[i] -= c * v
            g = math.gcd(*r, *s)
            r0, s0, r1, s1 = r1, s1, [v // g for v in r], [v // g for v in s]
        c, phi = r1[0], len(self.num)  # s1 * a == c, so 1/self = den * s1 / c
        if c < 0:
            c, den = -c, -den
        num = [den * v for v in s1[:phi]] + [0] * (phi - len(s1))
        return _lowest_terms(n, num, c)  # Q(1/z) = Q(z): same conductor

    def __truediv__(self, other) -> CycNum:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.conductor == 1:
            if not other:
                raise ZeroDivisionError("division by zero")
            return self * rational(Fraction(other.den, other.num[0]))
        return self * other.inverse()

    def __rtruediv__(self, other) -> CycNum:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int) -> CycNum:
        if k < 0:
            return self.inverse() ** (-k)
        result = one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __repr__(self):
        if self.conductor == 1:
            return f"CycNum({self.as_rational()})"
        body = ", ".join(str(c) for c in self.coeffs)
        return f"CycNum({self.conductor}, ({body}))"


def _make(n: int, num: tuple[int, ...], den: int) -> CycNum:
    # Trusted constructor: (n, num, den) must already be canonical.
    z = object.__new__(CycNum)
    z.conductor, z.num, z.den = n, num, den
    return z


def _coerce(value) -> CycNum:
    if isinstance(value, CycNum):
        return value
    if isinstance(value, (int, Fraction)):
        return rational(value)
    return NotImplemented


def rational(value) -> CycNum:
    """The rational number ``value`` as a CycNum at conductor 1."""
    f = Fraction(value)
    return _make(1, (f.numerator,), f.denominator)


def zero() -> CycNum:
    return _make(1, (0,), 1)


def one() -> CycNum:
    return _make(1, (1,), 1)


def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity zeta_n^k, with zeta_n = e^(2 pi i / n).

    >>> zeta(6)
    CycNum(3, (1, 1))
    >>> zeta(5, 7) == zeta(5, 2)
    True
    """
    if n < 1:
        raise InvalidConductor(f"conductor must be positive, got {n}")
    g = math.gcd(k, n)
    n, k, sign = n // g, k // g % (n // g), 1
    if n % 4 == 2:  # zeta_n^k = -zeta_m^((k + m) / 2) with m = n/2 and k both odd
        n //= 2
        k, sign = (k + n) // 2 % n, -1
    # A primitive n-th root of unity with n not 2 mod 4 has conductor n.
    return _make(n, tuple(sign * c for c in _power_table(n)[k]), 1)


def sort_key(z: CycNum):
    """Canonical total order key: conductor, then coordinates lexicographically
    (integers when the denominator is 1; they compare exactly with Fractions)."""
    return (z.conductor, z.num) if z.den == 1 else (z.conductor, z.coeffs)


def root_of_unity_order(z: CycNum) -> int | None:
    """The least m with z**m == 1, or None if z is not a root of unity.

    Roots of unity in Q(zeta_n) are exactly +-zeta_n^j, so an exact table
    lookup against those 2n candidates decides the question.  With e = 1 for
    the sign -1 and 0 for +1, +-zeta_n^j = e^(2 pi i (2j + e n) / 2n) has
    order 2n / gcd(2j + e n, 2n), an integer read with no Fraction built.

    >>> root_of_unity_order(rational(-1))
    2
    >>> root_of_unity_order(zeta(6, 2))
    3
    >>> root_of_unity_order(rational(1) + zeta(4)) is None
    True
    """
    hit = _signed_exponent(z)
    if hit is None:
        return None
    (sign, j), n = hit, z.conductor
    return 2 * n // math.gcd(2 * j + (n if sign < 0 else 0), 2 * n)


def _signed_exponent(z: CycNum) -> tuple[int, int] | None:
    # (sign, j) with z = sign * zeta_n^j at z's conductor n, or None if z is
    # not a root of unity; a root of unity is integral.
    return _unit_index(z.conductor).get(z.num) if z.den == 1 else None


def unit_log(z: CycNum) -> Fraction | None:
    """The a in [0, 1) with z = e^(2 pi i a), or None if z is not a root of unity."""
    hit = _signed_exponent(z)
    if hit is None:
        return None
    sign, j = hit
    a = Fraction(j, z.conductor)
    if sign < 0:
        a += Fraction(1, 2)
    return a % 1


def unit_exp(a: Fraction) -> CycNum:
    """The root of unity e^(2 pi i a) for rational a."""
    a = Fraction(a) % 1
    return zeta(a.denominator, a.numerator)


@dataclass(frozen=True)
class GaloisElement:
    """The automorphism zeta_n -> zeta_n^k of Q(zeta_n), with gcd(k, n) = 1."""

    conductor: int
    exponent: int

    def __post_init__(self):
        n, k = self.conductor, self.exponent
        if n < 2:
            raise InvalidConductor(f"automorphisms need conductor >= 2, got {n}")
        if not 1 <= k < n or math.gcd(k, n) != 1:
            raise InvalidAutomorphism(f"exponent {k} invalid at conductor {n}")


def galois_apply(z: CycNum, g: GaloisElement) -> CycNum:
    """Apply g to z; z's conductor must divide g's.

    An automorphism maps each subfield Q(zeta_m) onto itself and permutes the
    power basis up to an integer change of basis, so the image keeps z's
    conductor and denominator: zeta_n^j -> zeta_n^(j k), substituted through
    ``_combine``'s sparse rows as ``_lift`` does.

    >>> galois_apply(zeta(12), GaloisElement(12, 5)) == zeta(12, 5)
    True
    >>> galois_apply(rational(Fraction(3, 7)), GaloisElement(8, 3))
    CycNum(3/7)
    """
    n = z.conductor
    if g.conductor % n != 0:
        raise FieldMismatch(
            f"element at conductor {n} is outside Q(zeta_{g.conductor})")
    num, k = z.num, g.exponent
    return _make(n, tuple(_combine(n, zip(range(0, k * len(num), k), num), len(num))), z.den)


def galois_group(n: int) -> list[GaloisElement]:
    """All automorphisms of Q(zeta_n), i.e. (Z/n)^x; empty for n = 1."""
    if n == 1:
        return []
    return [GaloisElement(n, k) for k in range(1, n) if math.gcd(k, n) == 1]
