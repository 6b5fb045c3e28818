"""Torsion-translated subtori of (C*)^N, in exponent coordinates.

A coset is carried by an integer relation matrix L and a rational translate
t: the set {z : z^v = e^(2 pi i <t, v>) for every row v}.  A torsion point
e^(2 pi i q) with rational q lies on it iff <q - t, v> is an integer for all
rows.  Relation rows need not be saturated, so finite subgroup factors (for
instance preimages under non-injective monomial maps) stay single objects.
Intersections, preimages and the listing of torsion points of bounded order
all solve one congruence system through one Smith normal form, never a grid
scan; inconsistent systems yield the canonical empty coset.  The kernel is
integer-only: a congruence system is solved from integer targets over one
denominator, a listed point of order dividing b is its numerators over b,
and Fractions appear only in ``TorsionCoset.of``, ``.translate`` and the
points ``coset_membership`` reads.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceeded, ShapeError

DEFAULT_GRID_BUDGET = 2_000_000
# The non-simple locus formula has O(s^2) entries, and so has its evaluation:
# at this many punctures, at a point on every part of its intersection, the
# build takes about 2 ms and the evaluation about 25 ms (Python 3.11, Xeon).
NONSIMPLE_LOCUS_MAX_S = 128


# ---------------------------------------------------------------------------
# Integer Smith normal form.

def smith_normal_form(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(S, U, V) with S = U mat V, U and V unimodular, S diagonal with
    divisibility d1 | d2 | ... along the diagonal."""
    a = [row[:] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row_dst += q * row_src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):  # col_dst += q * col_src
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        # Find the smallest nonzero entry in the remaining block.
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        again = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = -(a[i][t] // a[t][t])
                add_row(t, i, q)
                if a[i][t]:
                    again = True
        for j in range(t + 1, n):
            if a[t][j]:
                q = -(a[t][j] // a[t][t])
                add_col(t, j, q)
                if a[t][j]:
                    again = True
        if again:
            continue
        # Enforce divisibility of the rest of the block by the pivot.
        bad = next(((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                    if a[i][j] % a[t][t]), None)
        if bad is not None:
            add_row(bad[0], t, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def _diagonalize(rows: list[list[int]], targets: list[int], den: int, n: int):
    """(d, y, big, V) for <x, row_i> = targets_i / den (mod 1) in n unknowns,
    or None if inconsistent (H. Cohen, GTM 138, section 2.4): with S = U rows V
    and x = V y the system is d_k y_k = (U t)_k (mod 1), d_k = S_kk or 0 past
    the rank, so y (numerators over big = den lcm(d_k)) is one solution and
    y_k + j / d_k (any y_k if d_k = 0) all of them.  A system with no rows is
    solved as the one zero row, whose d_k are all 0."""
    s, u, v = smith_normal_form(rows or [[0] * n])
    d = [s[k][k] if k < len(s) else 0 for k in range(n)]
    big = den * math.lcm(*(dk for dk in d if dk))
    y = [0] * n
    for i, urow in enumerate(u):
        ut = sum(c * t for c, t in zip(urow, targets))
        if i < n and d[i]:
            y[i] = ut * (big // (den * d[i]))
        elif ut % den:
            return None
    return d, y, big, v


def _over_lcm(values) -> tuple[list[int], int]:
    # Rationals as integer numerators over their least common denominator.
    vals = [x if type(x) in (int, Fraction) else Fraction(x) for x in values]
    den = math.lcm(*(x.denominator for x in vals))
    return [x.numerator * (den // x.denominator) for x in vals], den


def solve_congruences(rows: list[list[int]], targets: list[int], den: int, n: int) -> TorsionCoset:
    """The coset of the x in n unknowns with <x, row_i> = targets_i / den
    (mod 1) for all i: relations ``rows`` through the solution that
    ``_diagonalize`` finds, its numerators over big reduced by their one gcd
    with big.  An inconsistent system gives the canonical empty coset."""
    if (solved := _diagonalize(rows, targets, den, n)) is None:
        return TorsionCoset.empty_set(n)
    _, y, big, v = solved
    num = [sum(c * yk for c, yk in zip(row, y)) % big for row in v]
    g = math.gcd(big, *num)
    return TorsionCoset(n, tuple(map(tuple, rows)), tuple(x // g for x in num), big // g)


# ---------------------------------------------------------------------------
# Cosets.

@dataclass(frozen=True)
class TorsionCoset:
    """A torsion-translated subtorus of (C*)^N.

    ``relations`` rows are the exponent vectors v; the translate t mod 1 is
    stored as integer numerators ``num`` in [0, den) over one positive ``den``
    with gcd(den, *num) = 1, so equal cosets compare and hash equal, and is
    read as Fractions through ``translate``.  The flag ``empty`` marks the
    canonical empty coset produced by an inconsistent intersection (the (L, t)
    form itself always contains the witness point e^(2 pi i t)).
    """

    dim: int
    relations: tuple[tuple[int, ...], ...]
    num: tuple[int, ...]
    den: int = 1
    empty: bool = field(default=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError("ambient dimension must be positive")
        if len(self.num) != self.dim:
            raise ShapeError("translate length must equal the ambient dimension")
        for row in self.relations:
            if len(row) != self.dim:
                raise ShapeError("relation row length must equal the ambient dimension")

    @classmethod
    def of(cls, dim: int, relations, translate) -> TorsionCoset:
        rel = tuple(tuple(int(x) for x in row) for row in relations)
        # Over the lcm of reduced denominators, gcd(den, *num) is already 1.
        num, den = _over_lcm(translate)
        return cls(dim, rel, tuple(x % den for x in num), den)

    @classmethod
    def empty_set(cls, dim: int) -> TorsionCoset:
        return cls(dim, ((0,) * dim,), (0,) * dim, empty=True)

    @property
    def translate(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)


def coset_membership(q, c: TorsionCoset) -> bool:
    """Whether the torsion point e^(2 pi i q) lies on the coset."""
    qn, qd = _over_lcm(q)
    if len(qn) != c.dim:
        raise ShapeError(f"point has dimension {len(qn)}, coset ambient is {c.dim}")
    if c.empty:
        return False
    # <q - t, v> is an integer iff qd den <q - t, v> vanishes mod qd den.
    diff, mod = [x * c.den - t * qd for x, t in zip(qn, c.num)], qd * c.den
    return all(not sum(x * v for x, v in zip(diff, row)) % mod for row in c.relations)


def _targets(c: TorsionCoset, den: int) -> list[int]:
    # den <t, v> for each relation row v of the coset; c.den divides den.
    return [sum(t * v for t, v in zip(c.num, row)) * (den // c.den) for row in c.relations]


def coset_intersect(a: TorsionCoset, b: TorsionCoset) -> TorsionCoset:
    """Stack the relation rows and re-solve for a common translate; an
    inconsistent congruence system gives the canonical empty coset."""
    if a.dim != b.dim:
        raise ShapeError("cosets live in different ambient tori")
    if a.empty or b.empty:
        return TorsionCoset.empty_set(a.dim)
    rows = [list(r) for r in a.relations] + [list(r) for r in b.relations]
    den = math.lcm(a.den, b.den)
    return solve_congruences(rows, _targets(a, den) + _targets(b, den), den, a.dim)


def monomial_preimage(c: TorsionCoset, a_matrix: list[list[int]]) -> TorsionCoset:
    """Preimage of c under z -> (z^(row 1), ..., z^(row M)) for an M x N
    integer matrix; relations pull back to L A, and the translate is re-solved
    (the image of the map need not meet c, so the preimage may be empty)."""
    m = len(a_matrix)
    if m != c.dim:
        raise ShapeError(f"map has {m} target coordinates, coset ambient is {c.dim}")
    n = len(a_matrix[0]) if m else 0
    if any(len(r) != n for r in a_matrix):
        raise ShapeError("ragged exponent matrix")
    if c.empty:
        return TorsionCoset.empty_set(n)
    rows = [[sum(v[i] * a_matrix[i][j] for i in range(m)) for j in range(n)]
            for v in c.relations]
    return solve_congruences(rows, _targets(c, c.den), c.den, n)


def enumerate_torsion(c: TorsionCoset, order_bound: int) -> set[tuple[int, ...]]:
    """All torsion points q of exponent dividing order_bound = b on the coset,
    each listed as its numerators b q mod b in [0, b) (the point is
    Fraction(x, b) coordinate-wise).  One Smith normal form S = U L V of the
    relations L lists them: with q = V y the system is d_k y_k = (U t)_k
    (mod 1), and y_k in (1/b)Z solves it exactly when g = gcd(d_k, b) divides
    the integer r_k = b (U t)_k, at b y_k = (r_k / g) (d_k / g)^-1 mod b / g
    plus any multiple of b / g: g values mod 1 (b when d_k = 0), or none.  So
    b q = V (b y) mod b, one point each, reached by stepping (b / g) V e_k mod
    b along each axis.  ``DEFAULT_GRID_BUDGET`` bounds the search space b^N,
    not the work done (the Smith form plus the output); b >= 2 puts b^N past
    it by N = its bit length, so the power is never taken further.  A
    refusal names a b past the budget by its bit length, not its digits."""
    if order_bound < 1:
        raise ShapeError("order bound must be positive")
    b, n = order_bound, c.dim
    if b ** min(n, DEFAULT_GRID_BUDGET.bit_length()) > DEFAULT_GRID_BUDGET:
        grid = f"{b}^{n}" if b <= DEFAULT_GRID_BUDGET else f"b^{n} (b of {b.bit_length()} bits)"
        raise BudgetExceeded(f"grid of {grid} points exceeds the budget of {DEFAULT_GRID_BUDGET}")
    if c.empty:
        return set()
    rows = [list(r) for r in c.relations]
    if (solved := _diagonalize(rows, _targets(c, c.den), c.den, n)) is None:
        return set()
    d, y, big, v = solved
    gs, rs = [math.gcd(dk, b) for dk in d], [b * dk * yk for dk, yk in zip(d, y)]  # big r_k
    if any(r % (big * g) for r, g in zip(rs, gs)):
        return set()
    by = [r // big // g * pow(dk // g, -1, b // g) % (b // g) for r, dk, g in zip(rs, d, gs)]
    pts = [tuple(sum(w * x for w, x in zip(row, by)) % b for row in v)]
    mod_b = itertools.repeat(b)
    for k, g in enumerate(gs):
        step = [row[k] * (b // g) % b for row in v]
        layers = [pts]
        for _ in range(g - 1):
            layers.append([tuple(map(operator.mod, map(operator.add, p, step), mod_b))
                           for p in layers[-1]])
        pts = list(itertools.chain.from_iterable(layers))
    return set(pts)


# ---------------------------------------------------------------------------
# Boolean formulas over cosets.

@dataclass(frozen=True)
class TorusFormula:
    """A finite union/intersection/complement tree over coset leaves."""

    op: str  # "union" | "intersection" | "complement" | "leaf"
    args: tuple = ()
    coset: TorsionCoset | None = None

    def __post_init__(self):
        if self.op == "leaf":
            if self.coset is None:
                raise ShapeError("leaf formula needs a coset")
        elif self.op in ("union", "intersection"):
            if not self.args:
                raise ShapeError(f"{self.op} needs at least one argument")
        elif self.op == "complement":
            if len(self.args) != 1:
                raise ShapeError("complement takes exactly one argument")
        else:
            raise ShapeError(f"unknown formula operation {self.op!r}")

    @classmethod
    def leaf(cls, coset: TorsionCoset) -> TorusFormula:
        return cls("leaf", (), coset)

    @classmethod
    def union(cls, *args: TorusFormula) -> TorusFormula:
        return cls("union", tuple(args))

    @classmethod
    def intersection(cls, *args: TorusFormula) -> TorusFormula:
        return cls("intersection", tuple(args))

    @classmethod
    def complement(cls, arg: TorusFormula) -> TorusFormula:
        return cls("complement", (arg,))


def formula_eval(f: TorusFormula, q) -> bool:
    """Evaluate the Boolean tree at the torsion point e^(2 pi i q)."""
    if f.op == "leaf":
        return coset_membership(q, f.coset)
    if f.op == "union":
        return any(formula_eval(g, q) for g in f.args)
    if f.op == "intersection":
        return all(formula_eval(g, q) for g in f.args)
    return not formula_eval(f.args[0], q)


def nonsimple_locus_formula(s: int, triple) -> TorusFormula:
    """The non-simple locus for rank-2 eigenvalue data with s punctures, as a
    formula in the 2s exponent coordinates (a_11, a_12, ..., a_s1, a_s2).

    The locus is the union, over one eigenvalue choice at each triple point
    and a common column choice at the others, of the subtorus where the chosen
    monomial is 1, intersected with the all-coordinates-product subtorus and
    the scalar-equality subtori of the non-triple points.  More than
    NONSIMPLE_LOCUS_MAX_S punctures raise BudgetExceeded.
    """
    if s > NONSIMPLE_LOCUS_MAX_S:
        raise BudgetExceeded(f"{s} punctures exceed the non-simple locus budget of "
                             f"{NONSIMPLE_LOCUS_MAX_S}")
    triple = frozenset(triple)
    if len(triple) != 3 or not all(1 <= i <= s for i in triple):
        raise ShapeError("triple must pick 3 distinct points in 1..s")
    n = 2 * s
    zeros = (0,) * n
    parts = [TorusFormula.leaf(TorsionCoset(n, ((1,) * n,), zeros))]
    rest = [i for i in range(1, s + 1) if i not in triple]
    for i in rest:
        row = [0] * n
        row[2 * (i - 1)] = 1
        row[2 * (i - 1) + 1] = -1
        parts.append(TorusFormula.leaf(TorsionCoset(n, (tuple(row),), zeros)))
    i1, i2, i3 = sorted(triple)
    choices = []
    cols = [(j, k, l, m) for j in (0, 1) for k in (0, 1) for l in (0, 1)
            for m in ((0, 1) if rest else (0,))]
    for j, k, l, m in cols:
        row = [0] * n
        row[2 * (i1 - 1) + j] += 1
        row[2 * (i2 - 1) + k] += 1
        row[2 * (i3 - 1) + l] += 1
        for i in rest:
            row[2 * (i - 1) + m] += 1
        choices.append(TorusFormula.leaf(TorsionCoset(n, (tuple(row),), zeros)))
    parts.append(TorusFormula.union(*choices))
    return TorusFormula.intersection(*parts)


def residue_vector(points) -> tuple[Fraction, ...]:
    """Flatten per-point residue pairs into the 2s exponent coordinates."""
    return tuple(Fraction(a) for pt in points for a in pt)
