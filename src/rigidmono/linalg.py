"""Exact dense linear algebra over cyclotomic fields, for small matrices.

A Matrix holds integer power-basis coordinates at one conductor N over one
denominator, computed when it is built.  Arithmetic runs on them at fixed N;
a value descends to its minimal conductor only as it leaves (entries, traces,
determinants and characteristic polynomials).  Two routines rest on this.
One incremental exact row echelon (``_echelon_add``), whose kept rows have
rational integer pivots and so grow by one row's size per reduction, not by
a factor, gives rank and kernel dimension and grows Burnside's span of words
(``algebra_dim``).  One trace recursion (Faddeev-LeVerrier, which divides
only by small integers) gives the characteristic polynomial and the inverse.
Eigenvalues come from one exact rule: every root (rational) x (root of
unity) in a degree-bounded cyclotomic extension of the entries' field, plus
the roots of a quadratic remainder whose discriminant is such a number
squared.

Ranks and Burnside's span are first found over F_p, by a ring map
Z[zeta_N] -> F_p (``rank_and_kernel_dim``, ``_full_span_mod_p``).  Rank can
only drop under it, so a full rank or a full span mod p is a proof; any other
outcome leaves the answer to the exact echelon.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import (CycNum, _dot, _lift, _normalize, _prime_divisors, _trace_rows, euler_phi,
                         one, rational, sort_key, unit_exp, unit_log, zero, zeta)
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

    def __call__(self, x):
        """Evaluate at a CycNum or a square Matrix by Horner's rule."""
        if isinstance(x, Matrix):
            acc = Matrix.zeros(x.rows, x.cols)
            for c in reversed(self.coeffs):
                acc = x @ acc + Matrix.scalar(x.rows, c)
            return acc
        acc = zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def deflate(self, root: CycNum) -> Polynomial | None:
        """Divide by (x - root); None if root is not actually a root."""
        quot, carry = [], zero()  # synthetic division, highest degree first
        for c in reversed(self.coeffs[1:]):
            quot.append(carry := c + carry * root)
        return None if self.coeffs[0] + carry * root else Polynomial(tuple(reversed(quot)))


class Matrix:
    """An immutable matrix over Q(zeta_N), row-major as ``(rows, cols,
    conductor, num, den)``: entry i is num[i] / den, num[i] the phi(N) integer
    power-basis coordinates at N, den > 0 and gcd(den, coordinates) = 1.  Every
    constructor sets them at once: ``Matrix(rows, cols, entries)`` lifts its
    canonical entries to N, the lcm of their conductors, and keeps them as the
    ``entries`` cache; the others take coordinates, and their entries are read
    off on first use.  Coordinates at one N are unique, so sums, products and
    == run on them at a common N, which may therefore exceed the entries'
    least conductor.

    >>> Matrix.from_rows([[1, 2], [3, 4]]) @ Matrix.identity(2)
    Matrix([[1, 2], [3, 4]])
    """

    __slots__ = ("rows", "cols", "conductor", "num", "den", "_entries")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 1 or cols < 1:
            raise ShapeError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, "
                             f"got {len(entries)}")
        ent = self._entries = tuple(entries)
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
        m.rows, m.cols, m.conductor, m.num, m.den, m._entries = rows, cols, n, num, den, None
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

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Matrix:
        return cls.from_coords(rows, cols, 1, ((0,),) * (rows * cols), 1)

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

    def row_list(self) -> list[list[CycNum]]:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_scalar(self) -> bool:
        """True iff the matrix equals entries[0] times the identity."""
        d, step = self.num[0], self.rows + 1
        return self.is_square() and all(x == d if i % step == 0 else not any(x)
                                        for i, x in enumerate(self.num))

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
        return self @ Matrix.scalar(self.cols, value)

    def trace(self) -> CycNum:
        if not self.is_square():
            raise ShapeError("trace of a non-square matrix")
        return _normalize(self.conductor, [sum(c) for c in zip(*self.num[::self.cols + 1])],
                          self.den)

    def det(self) -> CycNum:
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        if self.rows == 2:
            (a, b, c, d), n = self.num, self.conductor
            return _normalize(n, _dot(n, ((a, d), (tuple(-v for v in b), c))), self.den ** 2)
        d = charpoly(self).coeffs[0]
        return d if self.rows % 2 == 0 else -d

    def inverse(self) -> Matrix:
        if not self.is_square():
            raise ShapeError("inverse of a non-square matrix")
        poly, adj = _trace_recursion(self)
        c0 = poly.coeffs[0]
        if not c0:
            raise NotInvertible("singular matrix")
        return adj.scale(-c0.inverse())

    def __repr__(self):
        def show(c):
            if c.conductor == 1:
                return str(c.as_rational())
            return repr(c)
        body = ", ".join("[" + ", ".join(show(v) for v in row) + "]"
                         for row in self.row_list())
        return f"Matrix([{body}])"


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
# Ranks and spans modulo a prime: certificates of full rank.

def _is_prime(m: int) -> bool:
    # Miller-Rabin on the primes up to 37, a proof for 37 < m < 3.3 * 10^24.
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
def _prime_and_root(n: int) -> tuple[int, int]:
    """(p, w): p the least prime above 2^30 with p = 1 (mod n), and w the
    first power g^((p - 1) / n), g = 2, 3, ..., of exact order n mod p.  Then
    w is a root of Phi_n mod p, so zeta_n -> w is a ring map Z[zeta_n] -> F_p."""
    p = 2 ** 30 + 1
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
    """Monic characteristic polynomial det(xI - A), by the trace recursion."""
    if not a.is_square():
        raise ShapeError("characteristic polynomial of a non-square matrix")
    return _trace_recursion(a)[0]


def _trace_recursion(a: Matrix) -> tuple[Polynomial, Matrix]:
    """Faddeev-LeVerrier: M_1 = I, c_(r-k) = -tr(A M_k) / k and
    M_(k+1) = A M_k + c_(r-k) I give det(xI - A) = sum c_i x^i.  Returns it
    with M_r, for which A M_r = -c_0 I (Cayley-Hamilton).  The last trace is
    sum_ij a_ij (M_r)_ji, r^2 products instead of the product A M_r."""
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
                t, d = _dot(n, ((a.num[i * r + j], m.num[j * r + i])
                                for i in range(r) for j in range(r))), a.den * m.den
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


def _rational_sqrt(f: Fraction) -> Fraction | None:
    """The exact square root of f >= 0, or None if f is not a rational square."""
    if f < 0:
        return None
    num, den = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if num * num != f.numerator or den * den != f.denominator:
        return None
    return Fraction(num, den)


def _rem(f: list[int], g: list[int]) -> list[int]:
    # A positive multiple of f mod g, over its content (no trailing zeros).
    a, sign, r = abs(g[-1]), 1 if g[-1] > 0 else -1, f
    while len(r) >= len(g):
        c, r = sign * r[-1], [a * x for x in r[:-1]]
        for i, y in enumerate(g[:-1], len(r) - len(g) + 1):
            r[i] -= c * y
        while r and not r[-1]:
            r.pop()
    c = math.gcd(*r)
    return [x // c for x in r] if c > 1 else r


def _int_gcd(f: list[int], g: list[int]) -> list[int]:
    # A gcd over Q, with positive lead, of f != 0 and g (g may end in zeros).
    while g and not g[-1]:
        g.pop()
    while g:
        f, g = g, _rem(f, g)
    return f if f[-1] > 0 else [-x for x in f]


def _rational_roots(f) -> list[Fraction]:
    """The distinct rational roots, largest first, of the polynomial f with
    rational coefficients (lowest degree first, degree at least 1).  Made
    integral with lead l > 0, f has its rational roots among the k / l; Sturm
    counts at the (2k + 1) / (2 l), never roots, bisect the range of k."""
    m = math.lcm(*(c.denominator for c in f)) * (1 if f[-1] > 0 else -1)
    g = [int(c * m) for c in f]
    seq, lead = [g, [i * c for i, c in enumerate(g)][1:]], g[-1]
    while len(seq[-1]) > 1 and (r := _rem(seq[-2], seq[-1])):
        seq.append([-x for x in r])

    def value(h: list[int], num: int, den: int) -> int:  # den^deg(h) h(num / den)
        return sum(c * num ** i * den ** (len(h) - 1 - i) for i, c in enumerate(h))

    def changes(k: int) -> int:
        signs = [v > 0 for v in (value(h, 2 * k + 1, 2 * lead) for h in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    top = lead + max(map(abs, g))  # Cauchy: |root| < 1 + max |g_i| / lead
    roots, ranges = [], [(-top - 1, top)]  # the candidates k / lead with lo < k <= hi
    while ranges:
        lo, hi = ranges.pop()
        if changes(lo) == changes(hi):
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            ranges += [(lo, mid), (mid, hi)]
        elif not value(g, hi, lead):
            roots.append(Fraction(hi, lead))
    return roots


def _unit_root(p: Polynomial, big_n: int) -> CycNum | None:
    """A root c u of p with c rational and u^big_n = 1, or None if there is none.

    For u = zeta_L^j, L = big_n, c u is a root exactly when c is a root of
    the monic q_u(y) = p(u y) / (lead u^d) = sum_i a_i u^(i - d) y^i.  Its
    coefficients lie in a Q(zeta_m), m | L, whose trace form is non-degenerate,
    so that holds exactly when every P_k(c) = D Tr(q_u(c) zeta_L^k) is 0,
    k = (L / m) k' for k' < phi(m); P_k has the integer coefficients
    D Tr(a_i zeta_L^(j (i - d) + k)).  The candidates are the rational roots of
    P_0 (in degree 3 and above, of its gcd with the next P_k, down to degree 2),
    each checked on every P_k.  u and -u give the same roots, and L is even.
    """
    if not p.coeffs[0]:
        return zero()
    d, lead = p.degree(), p.coeffs[-1]
    monic = p.coeffs if lead == one() else [c / lead for c in p.coeffs]
    rows, n = _trace_rows(monic, big_n), math.lcm(*(c.conductor for c in monic))
    for j in range(big_n // 2):
        shifts = [j * (i - d) for i in range(d + 1)]

        def poly(k: int) -> list[int]:  # P_k, lowest degree first
            return [row[(s + k) % big_n] for row, s in zip(rows, shifts)]
        g, m = poly(0), math.lcm(n, big_n // math.gcd(j, big_n))
        ks = range(0, big_n, big_n // m)[:euler_phi(m)]
        for k in ks[1:] if len(g) > 3 else ():
            if len(g := _int_gcd(g, poly(k))) <= 3:
                break
        if len(g) == 3:  # the quadratic formula in integers (g[2] > 0)
            c, b, a = g
            s = math.isqrt(max(disc := b * b - 4 * a * c, 0))
            cands = [(s - b, 2 * a), (-s - b, 2 * a)] if s * s == disc else []
        else:  # Sturm, or a constant
            cands = [(r.numerator, r.denominator) for r in _rational_roots(g)] if len(g) > 1 else []
        for a, b in cands:
            powers = [a ** i * b ** (d - i) for i in range(d + 1)]
            if not any(sum(c * x for c, x in zip(poly(k), powers)) for k in ks):
                root = rational(Fraction(a, b)) * zeta(big_n, j)
                if not p(root):
                    return root
    return None


def _unit_sqrt(disc: CycNum, big_n: int) -> CycNum | None:
    """A square root of disc of the form c u with c rational and u^big_n = 1.

    disc = c^2 u^2 has content c^2, because a root of unity has coprime
    integer coordinates; so disc over its content must be a root of unity and
    the content a rational square.
    """
    if not disc:
        return zero()
    content = Fraction(math.gcd(*disc.num), disc.den)
    c, a = _rational_sqrt(content), unit_log(disc / rational(content))
    if c is None or a is None:
        return None
    w = rational(c) * unit_exp(a / 2)
    return w if big_n % w.conductor == 0 else None


def eigenvalues_split(a: Matrix, poly: Polynomial | None = None) -> tuple[CycNum, ...] | None:
    """The eigenvalue multiset when the characteristic polynomial splits over
    the working field (the field generated by the entries, together with its
    degree-bounded cyclotomic extensions); None otherwise.  ``poly``, when
    given, is the characteristic polynomial of ``a``, already computed.

    The rule: deflate every root c u with c rational and u a root of unity in
    the extension (see ``_unit_root``); a quadratic remainder splits when its
    discriminant is a rational square times such a root of unity; a linear
    remainder always does.

    >>> eigenvalues_split(Matrix.from_rows([[1, 1], [0, 1]]))
    (CycNum(1), CycNum(1))
    """
    if not a.is_square():
        raise ShapeError("eigenvalues of a non-square matrix")
    n = math.lcm(*[e.conductor for e in a.entries])
    tri = _triangular_diagonal(a)
    if tri is not None:
        return tuple(sorted(tri, key=sort_key))
    return poly_roots_in_field(charpoly(a) if poly is None else poly, n)


def _triangular_diagonal(a: Matrix) -> list[CycNum] | None:
    r, num = a.rows, a.num
    below = any(any(num[i * r + j]) for i in range(r) for j in range(i))
    above = any(any(num[j * r + i]) for i in range(r) for j in range(i))
    return None if below and above else [a[i, i] for i in range(r)]


def poly_roots_in_field(p: Polynomial, n: int) -> tuple[CycNum, ...] | None:
    """All roots of p with multiplicity, over Q(zeta_n) together with its
    degree-bounded cyclotomic extensions, by the rule of ``eigenvalues_split``;
    None when p does not split that way."""
    if p.degree() < 1:
        return ()
    big_n = _extension_conductor(n, p.degree())
    roots: list[CycNum] = []
    while p.degree() > 1 and (root := _unit_root(p, big_n)) is not None:
        roots.append(root)
        p = p.deflate(root)
    if p.degree() > 2:
        return None
    if p.degree() == 2:
        c0, c1, c2 = p.coeffs
        w = _unit_sqrt(c1 * c1 - rational(4) * c2 * c0, big_n)
        if w is None:
            return None
        half = rational(Fraction(1, 2)) * c2.inverse()
        roots += [(-c1 + w) * half, (-c1 - w) * half]
    elif p.degree() == 1:
        roots.append(-p.coeffs[0] / p.coeffs[1])
    return tuple(sorted(roots, key=sort_key))
