"""Exact dense linear algebra over cyclotomic scalars, for small matrices.

Everything here is exact: rank and kernel dimension come from division-free
Gaussian elimination, the characteristic polynomial from the trace recursion
(which divides only by small integers), and eigenvalue extraction is a
best-effort search inside the field generated by the matrix entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import (CycNum, euler_phi, galois_apply, galois_group, one, rational,
                         sort_key, zero, zeta)
from .errors import NotInvertible, ShapeError

_INT_LIMIT = 4096  # rational-root candidates are skipped past this many divisors


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

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __add__(self, other: Polynomial) -> Polynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial.of([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self) -> Polynomial:
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial) -> Polynomial:
        if self.is_zero() or other.is_zero():
            return Polynomial(())
        out = [zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return Polynomial.of(out)

    def deflate(self, root: CycNum) -> Polynomial | None:
        """Divide by (x - root); None if root is not actually a root."""
        quot = [zero()] * (len(self.coeffs) - 1)
        carry = zero()
        for i in range(len(self.coeffs) - 1, 0, -1):
            carry = self.coeffs[i] + carry * root if i < len(self.coeffs) - 1 else self.coeffs[i]
            quot[i - 1] = carry
        if self.coeffs[0] + carry * root:
            return None
        return Polynomial(tuple(quot))


@dataclass(frozen=True)
class Matrix:
    """An immutable matrix of CycNum entries, stored row-major.

    >>> Matrix.from_rows([[1, 2], [3, 4]]) @ Matrix.identity(2)
    Matrix([[1, 2], [3, 4]])
    """

    rows: int
    cols: int
    entries: tuple[CycNum, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ShapeError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}")

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
        z = zero()
        return cls(n, n, tuple(value if i == j else z
                               for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Matrix:
        z = zero()
        return cls(rows, cols, (z,) * (rows * cols))

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
        if not self.is_square():
            return False
        d = self.entries[0]
        return all(self[i, j] == (d if i == j else zero())
                   for i in range(self.rows) for j in range(self.cols))

    def is_identity(self) -> bool:
        return self.is_scalar() and self.entries[0] == one()

    def __add__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> Matrix:
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def _same_shape(self, other: Matrix):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            for j in range(m):
                acc = zero()
                for t in range(k):
                    x = a[i * k + t]
                    if x:
                        y = b[t * m + j]
                        if y:
                            acc = acc + x * y
                out.append(acc)
        return Matrix(n, m, tuple(out))

    def scale(self, value) -> Matrix:
        value = value if isinstance(value, CycNum) else rational(value)
        return Matrix(self.rows, self.cols, tuple(value * a for a in self.entries))

    def trace(self) -> CycNum:
        if not self.is_square():
            raise ShapeError("trace of a non-square matrix")
        acc = zero()
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def det(self) -> CycNum:
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        if self.rows == 1:
            return self.entries[0]
        if self.rows == 2:
            a, b, c, d = self.entries
            return a * d - b * c
        p = charpoly(self)
        d = p.coeffs[0]
        return d if self.rows % 2 == 0 else -d

    def inverse(self) -> Matrix:
        if not self.is_square():
            raise ShapeError("inverse of a non-square matrix")
        if self.rows == 2:
            a, b, c, d = self.entries
            det = a * d - b * c
            if not det:
                raise NotInvertible("singular 2x2 matrix")
            inv = det.inverse()
            return Matrix(2, 2, (d * inv, -b * inv, -c * inv, a * inv))
        # Gauss-Jordan on [A | I].
        n = self.rows
        aug = [row + [one() if i == j else zero() for j in range(n)]
               for i, row in enumerate(self.row_list())]
        for col in range(n):
            piv = next((i for i in range(col, n) if aug[i][col]), None)
            if piv is None:
                raise NotInvertible("singular matrix")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = aug[col][col].inverse()
            aug[col] = [v * inv for v in aug[col]]
            for i in range(n):
                if i != col and aug[i][col]:
                    f = aug[i][col]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
        return Matrix.from_rows([row[n:] for row in aug])

    def __repr__(self):
        def show(c):
            if c.conductor == 1:
                return str(c.as_rational())
            return repr(c)
        body = ", ".join("[" + ", ".join(show(v) for v in row) + "]"
                         for row in self.row_list())
        return f"Matrix([{body}])"


def rank_and_kernel_dim(a: Matrix) -> tuple[int, int]:
    """(rank, kernel dimension); their sum is the column count.

    Division-free row echelon: rows are cross-scaled instead of normalized,
    which never changes the rank.
    """
    rows = [r[:] for r in a.row_list()]
    rank = 0
    for col in range(a.cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [pv * x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank, a.cols - rank


def charpoly(a: Matrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - A), by the trace recursion."""
    if not a.is_square():
        raise ShapeError("characteristic polynomial of a non-square matrix")
    r = a.rows
    coeffs = [zero()] * r + [one()]
    m = Matrix.identity(r)
    for k in range(1, r + 1):
        am = a @ m
        c = -(am.trace() / k)
        coeffs[r - k] = c
        if k < r:
            m = am + Matrix.scalar(r, c)
    return Polynomial(tuple(coeffs))


# ---------------------------------------------------------------------------
# Best-effort eigenvalue extraction inside the working cyclotomic field.

def _int_divisors(n: int) -> list[int] | None:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
            if len(out) > _INT_LIMIT:
                return None
        d += 1
    return sorted(out)


def _norm_to_q(p: Polynomial, n: int) -> list[Fraction] | None:
    # Product of the Galois conjugates of p; lands in Q[x] by invariance.
    prod = p
    for g in galois_group(n):
        if g.exponent == 1:
            continue
        conj = Polynomial(tuple(galois_apply(c, g) for c in p.coeffs))
        prod = prod * conj
    out = []
    for c in prod.coeffs:
        if c.conductor != 1:
            return None
        out.append(c.as_rational())
    return out


def _rational_candidates(p: Polynomial, n: int) -> tuple[list[Fraction], int, int]:
    """Rational-root-theorem candidates from the norm of p, together with the
    integerized constant and leading norm coefficients."""
    norm = _norm_to_q(p, n)
    if norm is None:
        return [], 0, 0
    while norm and norm[0] == 0:
        norm.pop(0)
    if not norm:
        return [], 0, 0
    den = math.lcm(*[c.denominator for c in norm])
    ints = [int(c * den) for c in norm]
    a0, lead = ints[0], ints[-1]
    tops, bots = _int_divisors(a0), _int_divisors(lead)
    if tops is None or bots is None:
        return [], a0, lead
    seen = set()
    for t in tops:
        for b in bots:
            seen.add(Fraction(t, b))
            seen.add(Fraction(-t, b))
    order = sorted(seen, key=lambda f: (abs(f) != 1, abs(f.numerator) + f.denominator, f))
    return order, a0, lead


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


@lru_cache(maxsize=None)
def _unit_candidates(n: int) -> tuple[CycNum, ...]:
    # The roots of unity +-zeta_n^j, first appearance kept (for even n the
    # two sign families overlap).
    units = []
    for j in range(n):
        u = zeta(n, j)
        units += (u, -u)
    return tuple(dict.fromkeys(units))


def _find_one_root(p: Polynomial, n: int, unit_n: int) -> CycNum | None:
    if not p.coeffs[0]:
        return zero()
    units = _unit_candidates(unit_n)
    for u in units:  # quasi-unipotent roots first
        if not p(u):
            return u
    rats, norm_const, norm_lead = _rational_candidates(p, n)
    for c in rats:
        if abs(c) == 1:
            continue  # covered by the unit scan
        cand = rational(c)
        if not p(cand):
            return cand
        # A root c u with u of conductor >= 3 has minimal polynomial with
        # constant +-c^phi and phi >= 2, so c^2 must divide the norm ratio.
        if norm_const % c.numerator ** 2 or norm_lead % c.denominator ** 2:
            continue
        for u in units:
            if u.conductor > 2:
                v = cand * u
                if not p(v):
                    return v
    return None


def _sqrt_in_field(d: CycNum, n: int, unit_n: int) -> CycNum | None:
    # Square roots of the form rational * root of unity only.
    if not d:
        return zero()
    norm = _norm_to_q(Polynomial.of([d]), n)
    if norm is None:
        return None
    nd = norm[0]
    if nd == 0:
        return None
    phi = len(galois_group(n)) or 1
    c = _nth_root(abs(nd), 2 * phi)
    if c is None:
        return None
    base = rational(c)
    for u in _unit_candidates(unit_n):
        w = base * u
        if w * w == d:
            return w
    return None


def _nth_root(f: Fraction, k: int) -> Fraction | None:
    def iroot(m: int) -> int | None:
        lo, hi = 0, 1 << (m.bit_length() // k + 1)  # the root is below hi
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if mid ** k <= m:
                lo = mid
            else:
                hi = mid - 1
        return lo if lo ** k == m else None
    num, den = iroot(f.numerator), iroot(f.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def eigenvalues_split(a: Matrix) -> tuple[CycNum, ...] | None:
    """The eigenvalue multiset when the characteristic polynomial splits over
    the working field (the field generated by the entries, together with its
    degree-bounded cyclotomic extensions); None otherwise.

    The root search tries roots of unity up to the extension conductor,
    rational candidates from the rational root theorem applied to the norm of
    the polynomial, products of the two, and (in degree 2) the discriminant
    when its square root exists among those candidates.

    >>> eigenvalues_split(Matrix.from_rows([[1, 1], [0, 1]]))
    (CycNum(1), CycNum(1))
    """
    if not a.is_square():
        raise ShapeError("eigenvalues of a non-square matrix")
    n = math.lcm(*[e.conductor for e in a.entries])
    tri = _triangular_diagonal(a)
    if tri is not None:
        return tuple(sorted(tri, key=sort_key))
    return poly_roots_in_field(charpoly(a), n)


def _triangular_diagonal(a: Matrix) -> list[CycNum] | None:
    r = a.rows
    if all(not a[i, j] for i in range(1, r) for j in range(i)):
        return [a[i, i] for i in range(r)]
    if all(not a[i, j] for i in range(r) for j in range(i + 1, r)):
        return [a[i, i] for i in range(r)]
    return None


def poly_roots_in_field(p: Polynomial, n: int) -> tuple[CycNum, ...] | None:
    """All roots of p with multiplicity, searched over Q(zeta_n) together with
    its degree-bounded cyclotomic extensions; None when the search fails."""
    if p.degree() < 1:
        return ()
    unit_n = _extension_conductor(n, p.degree())
    roots: list[CycNum] = []
    while p.degree() > 0:
        if p.degree() == 1:
            roots.append(-p.coeffs[0] / p.coeffs[1])
            break
        root = _find_one_root(p, n, unit_n)
        if root is not None:
            roots.append(root)
            p = p.deflate(root)
            assert p is not None
            continue
        if p.degree() == 2:
            # Candidate search failed; fall back to the discriminant.
            c0, c1, c2 = p.coeffs
            disc = c1 * c1 - rational(4) * c2 * c0
            w = _sqrt_in_field(disc, n, unit_n)
            if w is None:
                return None
            half = rational(Fraction(1, 2)) * c2.inverse()
            roots.append((-c1 + w) * half)
            roots.append((-c1 - w) * half)
            break
        return None
    return tuple(sorted(roots, key=sort_key))
