"""Exact dense linear algebra over cyclotomic fields, for small matrices.

A Matrix holds integer power-basis coordinates at one conductor N over one
denominator, computed when it is built.  Arithmetic runs on them at fixed N;
a value descends to its minimal conductor only as it leaves (entries, traces,
determinants and characteristic polynomials).  Two routines rest on this.
One incremental exact row echelon (``_echelon_add``), whose kept rows have
rational integer pivots and so grow by one row's size per reduction, not by
a factor, gives rank and kernel dimension and grows Burnside's span of words
(``algebra_dim``).  A matrix computes its characteristic polynomial once,
and its determinant reads it: at rank 2 it is x^2 - tr(A) x + det(A), the
determinant by the 2 x 2 formula; at rank r >= 3, and for the inverse, one
trace recursion (Faddeev-LeVerrier, which divides only by small integers).
Eigenvalues come from one exact rule on the characteristic polynomial p
alone: every root (rational) x (root of unity) in a degree-bounded cyclotomic
extension of p's coefficient field, plus the roots of a quadratic remainder
whose discriminant is such a number squared.  Roots are only proposed, by a
rational quadratic's integer discriminant or else by one search modulo a
small prime, lifted to a power of it (``_unit_roots``); ``Polynomial.deflate``
alone accepts them, by p's exact value.  Either source may prove p unsplit:
by its discriminant, or by too few roots mod q before any lift.

Ranks and Burnside's span are first found over F_p, by a ring map
Z[zeta_N] -> F_p (``rank_and_kernel_dim``, ``_full_span_mod_p``).  Rank can
only drop under it, so a full rank or a full span mod p is a proof; any other
outcome leaves the answer to the exact echelon.  Too few roots mod q are the
third such proof, and the root search's candidates the fourth modular path.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import (CycNum, _dot, _lift, _lowest_terms, _normalize, _prime_divisors,
                         euler_phi, one, rational, sort_key, zero, zeta)
from .errors import NotInvertible, ShapeError


@dataclass(frozen=True)
class Polynomial:
    """A polynomial over CycNum, lowest degree first, trailing zeros trimmed."""

    coeffs: tuple[CycNum, ...]

    @classmethod
    def of(cls, coeffs) -> Polynomial:
        coeffs = [c if isinstance(c, CycNum) else rational(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return cls(tuple(coeffs))

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __call__(self, x: CycNum) -> CycNum:
        """Evaluate at x by Horner's rule, from the leading coefficient."""
        *rest, acc = self.coeffs or (zero(),)
        for c in reversed(rest):
            acc = acc * x + c
        return acc

    def deflate(self, root: CycNum) -> Polynomial | None:
        """The quotient by (x - root), or None if p(root) != 0: the eigenvalue
        rule's one exact check of a proposed root, by one evaluation."""
        if self(root):
            return None
        quot = [self.coeffs[-1]]  # synthetic division, highest degree first
        for c in reversed(self.coeffs[1:-1]):
            quot.append(c + quot[-1] * root)
        return Polynomial(tuple(reversed(quot)))


class Matrix:
    """An immutable matrix over Q(zeta_N), row-major as ``(rows, cols,
    conductor, num, den)``: entry i is num[i] / den, num[i] the phi(N) integer
    power-basis coordinates at N, den > 0 and gcd(den, coordinates) = 1.  Every
    constructor sets them at once: ``Matrix(rows, cols, entries)`` lifts its
    canonical entries to N, the lcm of their conductors, and keeps them as the
    ``entries`` cache; the others take coordinates, and their entries are read
    off on first use.  Coordinates at one N are unique, so sums, products and
    == run on them at a common N, which may therefore exceed the entries'
    least conductor.  The characteristic polynomial is computed on first use
    and kept in a private slot, which ``charpoly`` and ``det`` both read; so
    is the scalar test, which validation, the centralizer count, Burnside's
    span and the eigenvalue search all ask of each factor.

    >>> Matrix.from_rows([[1, 2], [3, 4]]) @ Matrix.identity(2)
    Matrix([[1, 2], [3, 4]])
    """

    __slots__ = ("rows", "cols", "conductor", "num", "den", "_entries", "_charpoly", "_scalar")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 1 or cols < 1:
            raise ShapeError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, "
                             f"got {len(entries)}")
        ent = self._entries = tuple(entries)
        self._charpoly = self._scalar = None
        n, den = math.lcm(*(e.conductor for e in ent)), math.lcm(*(e.den for e in ent))
        self.rows, self.cols, self.conductor, self.den = rows, cols, n, den
        self.num = tuple(_lift(tuple(c * (den // e.den) for c in e.num), e.conductor, n)
                         for e in ent)

    @classmethod
    def from_coords(cls, rows: int, cols: int, n: int, num, den: int) -> Matrix:
        """Entry i is num[i] / den: num[i] holds phi(n) integers, den > 0."""
        if rows < 1 or cols < 1:
            raise ShapeError("matrix dimensions must be positive")
        g = 1 if den == 1 else math.gcd(den, *itertools.chain.from_iterable(num))
        if g != 1:
            num, den = tuple(tuple(v // g for v in x) for x in num), den // g
        m = object.__new__(cls)
        m.rows, m.cols, m.conductor, m.num, m.den = rows, cols, n, num, den
        m._entries = m._charpoly = m._scalar = None
        return m

    @classmethod
    def from_rows(cls, rows) -> Matrix:
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows")
        ent = tuple(v if isinstance(v, CycNum) else rational(v)
                    for r in rows for v in r)
        return cls(len(rows), ncols, ent)

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls.scalar(n, one())

    @classmethod
    def scalar(cls, n: int, value) -> Matrix:
        value = value if isinstance(value, CycNum) else rational(value)
        z = (0,) * len(value.num)
        return cls.from_coords(n, n, value.conductor, tuple(
            value.num if i % (n + 1) == 0 else z for i in range(n * n)), value.den)

    @property
    def entries(self) -> tuple[CycNum, ...]:
        """The entries, row-major, each at its minimal conductor."""
        if self._entries is None:
            self._entries = tuple(_normalize(self.conductor, x, self.den) for x in self.num)
        return self._entries

    def _at(self, n: int) -> Matrix:
        # The same matrix stored at the multiple conductor n.
        if n == self.conductor:
            return self
        return Matrix.from_coords(self.rows, self.cols, n, tuple(
            _lift(x, self.conductor, n) for x in self.num), self.den)

    def __eq__(self, other):
        if other.__class__ is not Matrix:
            return NotImplemented
        n = math.lcm(self.conductor, other.conductor)
        return ((self.rows, self.cols, self.den) == (other.rows, other.cols, other.den)
                and self._at(n).num == other._at(n).num)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __getitem__(self, key) -> CycNum:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError(f"index {key} out of range")
        return self.entries[i * self.cols + j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_scalar(self) -> bool:
        """True iff the matrix equals entries[0] times the identity; tested once."""
        if self._scalar is None:
            d, step = self.num[0], self.rows + 1
            self._scalar = self.is_square() and all(x == d if i % step == 0 else not any(x)
                                                    for i, x in enumerate(self.num))
        return self._scalar

    def is_identity(self) -> bool:
        one_at_n = (1,) + (0,) * (len(self.num[0]) - 1)
        return self.is_scalar() and self.den == 1 and self.num[0] == one_at_n

    def __add__(self, other: Matrix) -> Matrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        n, d, e = math.lcm(self.conductor, other.conductor), self.den, other.den
        g = math.gcd(d, e)
        num = tuple(tuple(e // g * x + d // g * y for x, y in zip(a, b))
                    for a, b in zip(self._at(n).num, other._at(n).num))
        return Matrix.from_coords(self.rows, self.cols, n, num, d // g * e)

    def __sub__(self, other: Matrix) -> Matrix:
        return self + -other

    def __neg__(self) -> Matrix:
        return self.scale(-1)

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, k, m = math.lcm(self.conductor, other.conductor), self.cols, other.cols
        a, b = self._at(n).num, other._at(n).num
        num = tuple(tuple(_dot(n, zip(a[i * k:(i + 1) * k], b[j::m])))
                    for i in range(self.rows) for j in range(m))
        return Matrix.from_coords(self.rows, m, n, num, self.den * other.den)

    def scale(self, value) -> Matrix:
        """The matrix times the scalar ``value``: one product per entry, no matrix product."""
        value = value if isinstance(value, CycNum) else rational(value)
        n = math.lcm(self.conductor, value.conductor)
        v = _lift(value.num, value.conductor, n)
        return Matrix.from_coords(self.rows, self.cols, n, tuple(
            tuple(_dot(n, ((x, v),))) for x in self._at(n).num), self.den * value.den)

    def trace(self) -> CycNum:
        if not self.is_square():
            raise ShapeError("trace of a non-square matrix")
        return _normalize(self.conductor, [sum(c) for c in zip(*self.num[::self.cols + 1])],
                          self.den)

    def det(self) -> CycNum:
        """(-1)^r c_0, read off the characteristic polynomial."""
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        d = self._poly().coeffs[0]
        return d if self.rows % 2 == 0 else -d

    def _poly(self) -> Polynomial:
        # The characteristic polynomial of this square matrix, computed on first use.
        if self._charpoly is None:
            self._charpoly = _rank2_charpoly(self) if self.rows == 2 else _trace_recursion(self)[0]
        return self._charpoly

    def inverse(self) -> Matrix:
        if not self.is_square():
            raise ShapeError("inverse of a non-square matrix")
        poly, adj = _trace_recursion(self)
        c0 = poly.coeffs[0]
        if not c0:
            raise NotInvertible("singular matrix")
        return adj.scale(-c0.inverse())

    def __repr__(self):
        ent = [str(v.as_rational()) if v.conductor == 1 else repr(v) for v in self.entries]
        rows = (", ".join(ent[i:i + self.cols]) for i in range(0, len(ent), self.cols))
        return f"Matrix([{', '.join(f'[{r}]' for r in rows)}])"


def _echelon_add(rows: list, vec, n: int) -> bool:
    """Reduce vec, coordinate tuples at conductor n, against the echelon
    ``rows``, (pivot, row) pairs sorted by pivot; keep what is left, and
    return True unless it is 0.  Every kept row has a rational integer d at its
    pivot, so a vector reduces as d v - c row (a nonzero scale never changes a
    span) and grows by the size of one row per step, not by a factor.  At
    n > 1 a kept row is scaled by the inverse of its pivot, then cleared of
    denominators and content; at n = 1 rows are plain integers over their
    content, as small as Bareiss's rows."""
    if n == 1:
        vec = [x for (x,) in vec]
        for piv, row in rows:
            c = vec[piv]
            if c:
                d = row[piv]
                vec = [d * x - c * y for x, y in zip(vec, row)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return False
        g = math.gcd(*vec)
        bisect.insort(rows, (piv, [x // g for x in vec]))  # pivots are distinct
        return True
    for piv, row in rows:
        c = vec[piv]
        if any(c):
            d, c = row[piv][0], tuple(-v for v in c)
            vec = [[d * v for v in x] if not any(y) else
                   [d * v + w for v, w in zip(x, _dot(n, ((c, y),)))] for x, y in zip(vec, row)]
    piv = next((i for i, x in enumerate(vec) if any(x)), None)
    if piv is None:
        return False
    inv = _normalize(n, vec[piv], 1).inverse()
    s = _lift(inv.num, inv.conductor, n)
    vec = [_dot(n, ((s, x),)) if any(x) else x for x in vec]
    g = math.gcd(*itertools.chain.from_iterable(vec))
    bisect.insort(rows, (piv, [tuple(v // g for v in x) for x in vec]))
    return True


def rank_and_kernel_dim(a: Matrix) -> tuple[int, int]:
    """(rank, kernel dimension); their sum is the column count.  The rank of
    the numerators mod p, under ``_prime_and_root``'s zeta_N -> w, comes
    first: rank can only drop under a ring map, so a full rank mod p is the
    exact rank.  Any other result runs the exact echelon, whose rank is the
    number of rows it keeps."""
    basis, rows, c, n = [], [], a.cols, a.conductor
    p, w = _prime_and_root(n)
    img = _images_mod_p(a.num, n, p, w)
    rank = sum(_add_mod_p(basis, img[i:i + c], p) for i in range(0, len(img), c))
    if rank < min(a.rows, c):
        rank = sum(_echelon_add(rows, a.num[i:i + c], n) for i in range(0, len(a.num), c))
    return rank, c - rank


def _word_span(ident, gens, mul, add, full: int) -> int:
    # The dimension of the span of ident and the words in gens, grown by left
    # multiplication until it is closed or has full dimensions; add(basis, w)
    # reduces w against the echelon basis and keeps it if it is new.  The
    # generators are the words of length 1.  One in the span of ident and the
    # generators before it lies in the algebra they generate, so a span closed
    # under them is closed under it too: only the kept ones multiply.
    basis = []
    add(basis, ident)
    gens = [g for g in gens if len(basis) < full and add(basis, g)]
    queue = list(gens)
    while queue and len(basis) < full:
        b = queue.pop()
        for g in gens:
            if len(basis) < full and add(basis, w := mul(g, b)):
                queue.append(w)
    return len(basis)


def algebra_dim(gens) -> int:
    """The dimension of the algebra that the r x r matrices ``gens`` generate
    with the identity: the span of the words in them, grown in the echelon by
    left multiplication until it is closed or has all r^2 dimensions.  A
    scalar generator only rescales a word, so it is left out."""
    r, n = gens[0].rows, math.lcm(*(g.conductor for g in gens))
    return _word_span(Matrix.identity(r)._at(n), [g._at(n) for g in gens if not g.is_scalar()],
                      Matrix.__matmul__, lambda basis, w: _echelon_add(basis, w.num, n), r * r)


# ---------------------------------------------------------------------------
# Primes, and ranks and spans modulo a prime: certificates of full rank.

def _is_prime(m: int) -> bool:
    # Miller-Rabin on the primes up to 37 prime to m, a proof for m < 3.3 * 10^24.
    if m < 2:
        return False
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % m == 0:
            continue
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_and_root(n: int, least: int = 2 ** 30) -> tuple[int, int]:
    """(p, w): p the least prime above ``least`` with p = 1 (mod n), and w the
    first power g^((p - 1) / n), g = 2, 3, ..., of exact order n mod p.  Then
    w is a root of Phi_n mod p, so zeta_n -> w is a ring map Z[zeta_n] -> F_p.
    The certificates take p above 2^30; the root search, the least such p."""
    p = least + 1
    p += (1 - p) % n
    while not _is_prime(p):
        p += n
    for g in itertools.count(2):
        w = pow(g, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in _prime_divisors(n)):
            return p, w


def _images_mod_p(nums, m: int, p: int, u: int) -> list[int]:
    # The images in F_p of coordinate vectors at conductor m, under zeta_m -> u.
    powers = [pow(u, k, p) for k in range(euler_phi(m))]
    return [sum(map(operator.mul, v, powers)) % p for v in nums]


def _add_mod_p(basis: list, v, p: int) -> bool:
    # The F_p row step: reduce v against basis, (pivot, row) pairs sorted by
    # pivot with each row 1 at its pivot; keep it and return True unless it is 0.
    for piv, row in basis:
        c = v[piv]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, row)]
    for piv, x in enumerate(v):
        if x:
            inv = pow(x, -1, p)
            bisect.insort(basis, (piv, [y * inv % p for y in v]))
            return True
    return False


def _full_span_mod_p(gens) -> bool:
    """True only if the words in the r x r matrices ``gens`` span all r^2
    dimensions: a certificate, which False does not refute.

    Each generator's numerator (its integer coordinates, at its conductor m
    dividing the lcm n) is mapped to F_p by zeta_m -> w^(n / m), with
    (p, w) = ``_prime_and_root(n)``, and ``_word_span`` runs over F_p.  Rank
    can only drop under a ring map, so r^2 independent words mod p are r^2
    independent words over Q(zeta_n).  Scaling a generator by its denominator
    scales every word that contains it, so the span is the same; a scalar
    generator only rescales a word and is left out, as in ``algebra_dim``.
    """
    r, n = gens[0].rows, math.lcm(*(g.conductor for g in gens))
    p, w = _prime_and_root(n)
    rr = r * r
    images = [_images_mod_p(g.num, g.conductor, p, pow(w, n // g.conductor, p))
              for g in gens if not g.is_scalar()]

    def mul(a, b):
        cols = [b[j::r] for j in range(r)]
        return [sum(map(operator.mul, a[i:i + r], col)) % p
                for i in range(0, rr, r) for col in cols]

    ident = [int(i % (r + 1) == 0) for i in range(rr)]
    return _word_span(ident, images, mul, lambda basis, v: _add_mod_p(basis, v, p), rr) == rr


def charpoly(a: Matrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - A), computed once per matrix
    and shared with ``Matrix.det``: x^2 - tr(A) x + det(A) at rank 2, the
    trace recursion at every other rank."""
    if not a.is_square():
        raise ShapeError("characteristic polynomial of a non-square matrix")
    return a._poly()


def _rank2_charpoly(a: Matrix) -> Polynomial:
    # x^2 - tr(A) x + det(A) for A = [[p, q], [r, s]]: det(A) = p s - q r over den^2.
    (p, q, r, s), n = a.num, a.conductor
    det = _normalize(n, _dot(n, ((p, s), (tuple(-v for v in q), r))), a.den ** 2)
    return Polynomial((det, _normalize(n, [-x - y for x, y in zip(p, s)], a.den), one()))


def _product_trace(a: Matrix, b: Matrix) -> tuple[int, list[int], int]:
    """(n, coordinates at n, denominator) of tr(A B) for square A and B of one
    size, n the lcm of their conductors: sum_ij a_ij b_ji, one ``_dot`` over
    the r^2 pairs instead of the r^3 of the product A B."""
    n, r = math.lcm(a.conductor, b.conductor), a.rows
    x, y = a._at(n).num, b._at(n).num
    t = _dot(n, ((x[i * r + j], y[j * r + i]) for i in range(r) for j in range(r)))
    return n, t, a.den * b.den


def _trace_recursion(a: Matrix) -> tuple[Polynomial, Matrix]:
    """Faddeev-LeVerrier: M_1 = I, c_(r-k) = -tr(A M_k) / k and
    M_(k+1) = A M_k + c_(r-k) I give det(xI - A) = sum c_i x^i.  Returns it
    with M_r, for which A M_r = -c_0 I (Cayley-Hamilton).  The last trace is
    ``_product_trace(A, M_r)``, r^2 products instead of the product A M_r."""
    r, n = a.rows, a.conductor
    coeffs, m, am = [one()] * (r + 1), None, a  # M_1 = I is built only if r = 1
    t, d = [sum(c) for c in zip(*a.num[::r + 1])], a.den  # tr(A M_k) = t / d
    for k in range(1, r + 1):
        coeffs[r - k] = _normalize(n, [-v for v in t], d * k)
        if k < r:  # M_(k+1) = (k A M_k - t I) / (k d)
            m = Matrix.from_coords(r, r, n, tuple(
                tuple(k * v - (w if i % (r + 1) == 0 else 0) for v, w in zip(x, t))
                for i, x in enumerate(am.num)), d * k)
            if k + 1 < r:
                am = a @ m
                t, d = [sum(c) for c in zip(*am.num[::r + 1])], am.den
            else:
                _, t, d = _product_trace(a, m)
    return Polynomial(tuple(coeffs)), m or Matrix.identity(1)


# ---------------------------------------------------------------------------
# Eigenvalues of the form (rational) x (root of unity), plus quadratic remainders.

@lru_cache(maxsize=None)
def _extension_conductor(n: int, r: int) -> int:
    """The lcm of the conductors m = n t with phi(m) <= r phi(n).

    A root of a degree-r polynomial over Q(zeta_n) generates an extension of
    degree at most r, so a root-of-unity factor of any root has conductor
    dividing this number.  (phi(nt) >= phi(n) phi(t) bounds t by 2 r^2.)
    """
    phi_n = euler_phi(n)
    out = n
    for t in range(2, 2 * r * r + 1):
        if euler_phi(n * t) <= r * phi_n:
            out = math.lcm(out, n * t)
    return out


def _horner(f: list[int], x: int, m: int) -> int:
    # f(x) mod m, for integer coefficients f, lowest degree first.
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _hensel(f: list[int], x: int, q: int, m: int) -> int:
    # The root of f mod m = q^(2^s) that is x mod q, where f'(x) is a unit:
    # Newton's step x - f(x) / f'(x) mod r^2, from x right mod r, needs
    # 1 / f'(x) only mod r, and doubles the q-adic digits that are right.
    df, r = [i * c for i, c in enumerate(f)][1:], q
    while r < m:
        y, r = pow(_horner(df, x, r), -1, r), r * r
        x = (x - _horner(f, x, r) * y) % r
    return x


def _mulmod_q(a: list[int], b: list[int], f: list[int], q: int) -> list[int]:
    # a b mod (f, q) for a monic f; polynomials lowest degree first, without trailing zeros.
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while len(out) >= len(f):
        c = out.pop()
        for i, y in enumerate(f[:-1], len(out) - len(f) + 1):
            out[i] -= c * y
    out = [c % q for c in out]
    while out and not out[-1]:
        out.pop()
    return out


def _gcd_q(f: list[int], a: list[int], q: int) -> list[int]:
    # The monic gcd over F_q of the monic f and a.
    while a := _mulmod_q(a, [1], f, q):
        inv = pow(a[-1], -1, q)
        f, a = [c * inv % q for c in a], f
    return f


def _pow_q(a: int, k: int, f: list[int], q: int) -> list[int]:
    # (x + a)^k mod (f, q), by squaring.
    out = [1]
    for bit in bin(k)[2:]:
        out = _mulmod_q(out, _mulmod_q(out, [a, 1], f, q) if bit == "1" else out, f, q)
    return out


@lru_cache(maxsize=1 << 12)
def _simple_roots(g: tuple[int, ...], q: int) -> tuple[int, ...] | None:
    # The roots of the monic g mod q (odd), None if one is not simple, by
    # powers mod g, so O(log q) products each, where trial takes q steps.
    # Their x - r multiply to h = gcd(g, x^q - x), and a factor f of h splits
    # into its gcds with x + a and (x + a)^((q - 1) / 2) -+ 1 for the first
    # a = 0, 1, ... that parts two of its roots.
    xq = _pow_q(0, q, list(g), q) + [0, 0]
    xq[1] -= 1
    h = _gcd_q(list(g), xq, q)
    if len(_gcd_q(h, [i * c for i, c in enumerate(g)][1:], q)) > 1:
        return None
    roots, parts = [], [h]
    for f in parts:
        if len(f) == 2:
            roots.append(-f[0] % q)
        for a in itertools.count() if len(f) > 2 else ():
            t = _pow_q(a, q // 2, f, q) + [0]
            split = [_gcd_q(f, [a, 1], q)] + [_gcd_q(f, [t[0] + e] + t[1:], q) for e in (-1, 1)]
            if max(map(len, split)) < len(f):
                parts += split
                break
    return tuple(roots)


@lru_cache(maxsize=64)
def _unit_lift(big_n: int, q: int, w: int, m: int) -> tuple[int, int]:
    # W and 1 / W mod m = q^(2^s), where W = w mod q and W^big_n = 1, by Newton's
    # step u (1 - (u^big_n - 1) / big_n).  As w has order big_n mod q,
    # zeta_big_n -> W is a ring map Z[zeta_big_n] -> Z / m.
    u, r = w, q
    while r < m:
        r *= r
        u = u * (1 - (pow(u, big_n, r) - 1) * pow(big_n, -1, r)) % r
    return u, pow(u, big_n - 1, m)


def _divmod(f, g) -> tuple[list, list]:
    # Quotient and remainder (zeros kept) of CycNum coefficient lists f, g != 0.
    f, quot, inv = list(f), [], g[-1].inverse()
    while len(f) >= len(g):
        quot.append(c := f.pop() * inv)
        for i, y in enumerate(g[:-1], len(f) - len(g) + 1):
            f[i] = f[i] - c * y
    return quot[::-1], f


def _monic(p: Polynomial) -> Polynomial:
    if p.coeffs[-1] == one():
        return p
    inv = p.coeffs[-1].inverse()
    return Polynomial(tuple(c * inv for c in p.coeffs))


def _unit_roots(p: Polynomial, big_n: int):
    """Propose every root c u of p, c rational and u^big_n = 1 (big_n even),
    for ``Polynomial.deflate`` to accept; or yield None alone when too few
    roots mod q prove p has one outside Q(zeta_big_n).

    With p monic and D the lcm of its denominators, g(y) = D^d p(y / D) is
    integral and has the roots k u, k = D c an integer with |k| <= K
    (Cauchy).  Modulo q, the least prime = 1 (mod big_n) (``_prime_and_root``),
    zeta_big_n -> w makes g a polynomial over F_q.  If its roots there are
    simple (``_simple_roots``), each is lifted by Newton's step to q^e > 2^20
    (2K + 1), and w likewise to W.  A root k zeta^j lifts to k W^j, so k is the
    symmetric residue of the lift times W^-j for one j < big_n / 2 (u and -u
    give the same roots), and each (k / D) zeta^j with |k| <= K is proposed
    (a zero lift once).  A root that is not simple mod q makes p its
    squarefree part p / gcd(p, p') once, and then q the least such prime
    above 2q.  A squarefree p fails only at primes that divide the norm of its
    discriminant; a product of k primes that each double the last exceeds
    2^(k(k - 1) / 2), so at most about sqrt(2 log2 |norm|) of them fail, and
    q stays near 2^k times the first.  Were all roots of p in Q(zeta_big_n),
    those of g would lie in Z[zeta_big_n], and g mod q would be a product of
    d linear factors: fewer than d roots mod q, none repeated, refuse p.
    """
    p, squarefree, (q, w) = _monic(p), False, _prime_and_root(big_n, 1)
    while True:
        d, big_d = p.degree(), math.lcm(*(c.den for c in p.coeffs))
        bound = big_d + max(big_d // c.den * sum(map(abs, c.num)) for c in p.coeffs)
        m = q
        while m <= (2 * bound + 1) << 20:
            m *= m
        u, inv = _unit_lift(big_n, q, w, m)
        units = {n: pow(u, big_n // n, m) for n in {c.conductor for c in p.coeffs}}
        g = [big_d ** (d - i) // c.den * _horner(c.num, units[c.conductor], m) % m
             for i, c in enumerate(p.coeffs)]
        if (roots := _simple_roots(tuple(c % q for c in g), q)) is not None:
            break
        if squarefree:
            q, w = _prime_and_root(big_n, 2 * q)
        else:
            a, b = p.coeffs, [c * i for i, c in enumerate(p.coeffs)][1:]
            while b:
                a, b = b, Polynomial.of(_divmod(a, b)[1]).coeffs
            p, squarefree = _monic(Polynomial(tuple(_divmod(p.coeffs, a)[0]))), True
    if len(roots) < d:
        yield None
        return
    for x in roots:
        rho = _hensel(g, x, q, m)
        for j in range(big_n // 2 if rho else 1):
            k = rho - m if 2 * rho > m else rho
            if abs(k) <= bound:
                yield zeta(big_n, j)._scale(k, big_d)
            rho = rho * inv % m


def eigenvalues_split(a: Matrix, poly: Polynomial | None = None) -> tuple[CycNum, ...] | None:
    """The eigenvalue multiset when the characteristic polynomial splits over
    its own coefficient field together with that field's degree-bounded
    cyclotomic extensions; None otherwise.  ``poly``, when given, is the
    characteristic polynomial of ``a``, already computed.

    The rule (``poly_roots_in_field``) reads the characteristic polynomial
    alone, so every basis of a local system gets the same answer.  A scalar
    matrix, the same in every basis, returns its diagonal value r times
    without it, that one value normalized from its coordinates.

    >>> eigenvalues_split(Matrix.from_rows([[1, 1], [0, 1]]))
    (CycNum(1), CycNum(1))
    """
    if not a.is_square():
        raise ShapeError("eigenvalues of a non-square matrix")
    if a.is_scalar():
        return (_normalize(a.conductor, a.num[0], a.den),) * a.rows
    return poly_roots_in_field(charpoly(a) if poly is None else poly)


def poly_roots_in_field(p: Polynomial) -> tuple[CycNum, ...] | None:
    """All roots of p with multiplicity, over p's coefficient field Q(zeta_n),
    n the lcm of the coefficients' conductors, together with its
    degree-bounded cyclotomic extensions Q(zeta_L); None when p does not split
    that way.  The rule: deflate every root c u with c rational and u a root
    of unity in Q(zeta_L) as often as it divides; a quadratic remainder splits
    when its discriminant is the square of such a c u; a linear remainder
    always does.

    A rational quadratic's roots are proposed by its integer discriminant
    (``_rational_quadratic``), every other p's by the modular search; either
    way ``_search_roots`` accepts them, and evaluates p only there."""
    if p.degree() < 1:
        return ()
    rational_quadratic = p.degree() == 2 and all(c.conductor == 1 for c in p.coeffs)
    return _search_roots(p, (_rational_quadratic(p),) if rational_quadratic else None)


def _rational_quadratic(p: Polynomial) -> CycNum | None:
    # The rule on a x^2 + b x + c over Q, scaled to integers with a > 0, and
    # D = b^2 - 4 a c: its roots c u have u^12 = 1, and only u = +-1, +-i and
    # zeta_3^(+-1) up to sign have degree <= 2.  So p splits exactly when D is
    # a square (rational roots), -D is a square (roots in Q(i), reached by the
    # discriminant's root c i), or b != 0 and a c = b^2 (roots (b / a) zeta_3^(+-1)).
    # Proposes one of the two roots, or None when p does not split.
    scale = math.lcm(*(z.den for z in p.coeffs))
    c, b, a = (z.num[0] * (scale // z.den) for z in p.coeffs)
    if a < 0:
        a, b, c = -a, -b, -c
    disc = b * b - 4 * a * c
    s = math.isqrt(abs(disc))
    if s * s == disc:
        return _lowest_terms(1, [s - b], 2 * a)
    if s * s == -disc:
        return _lowest_terms(4, [-b, s], 2 * a)
    if b and a * c == b * b:
        return zeta(3, 1)._scale(b, a)
    return None


def _search_roots(p: Polynomial, proposals=None) -> tuple[CycNum, ...] | None:
    """``poly_roots_in_field`` for p of degree >= 1: ``Polynomial.deflate``
    accepts each proposed root (by default from ``_unit_roots``) as often as
    it divides; then a quadratic remainder c2 y^2 + c1 y + c0 proposes
    (w - c1) / (2 c2) for each w the same search proposes as a square root of
    its discriminant; the last root is the linear quotient's.  A proposed None
    proves that p does not split, before any lift or second search."""
    big_n = _extension_conductor(math.lcm(*(c.conductor for c in p.coeffs)), p.degree())
    roots: list[CycNum] = []

    def remainder_proposals():
        # Run only once the proposals above are spent, so p is the remainder by then.
        if p.degree() == 2:
            c0, c1, c2 = p.coeffs
            half = rational(Fraction(1, 2)) * c2.inverse()
            square = Polynomial((rational(4) * c2 * c0 - c1 * c1, zero(), one()))  # y^2 - disc
            for w in _unit_roots(square, big_n):
                yield w if w is None else (w - c1) * half

    for root in itertools.chain(_unit_roots(p, big_n) if proposals is None else proposals,
                                remainder_proposals()):
        if root is None:
            return None
        while p.degree() > 1 and (rest := p.deflate(root)) is not None:
            roots.append(root)
            p = rest
        if p.degree() < 2:
            break
    if p.degree() > 1:
        return None
    roots.append(-p.coeffs[0] / p.coeffs[1])
    return tuple(sorted(roots, key=sort_key))
