"""Analysis of monodromy tuples on the punctured projective line.

A monodromy tuple is a list of s invertible r x r matrices whose ordered
product is the identity; it presents a framed local system on the projective
line minus s points.  This module provides the simplicity (irreducibility)
test, local centralizer dimensions, the rigidity count
sum(dim Z_i) = (s-2) r^2 + 2, the rank-2 classification by non-scalar points,
and the passage to local eigenvalue data.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .cyclotomic import CycNum, _normalize, _product, rational, sort_key
from .errors import NotApplicable, NotInvertible, RelationViolation, ShapeError
from .linalg import (Matrix, Polynomial, _full_span_mod_p, algebra_dim, charpoly,
                     eigenvalues_split, rank_and_kernel_dim)


@dataclass(frozen=True)
class MonodromyTuple:
    """s invertible r x r matrices g_1, ..., g_s with g_1 g_2 ... g_s = I.

    Construction validates the shape, the invertibility of every factor, and
    the product relation, so every instance in hand is a valid tuple.  A
    product equal to I proves every factor invertible, so the determinants
    are computed only to name a singular factor when it is not.  Its
    ``det_data``, ``is_irreducible`` and ``mon`` are computed once, on first use,
    and each factor's determinant is read off the characteristic polynomial
    that the factor keeps, so ``dets`` after ``mon`` computes nothing new.
    """

    rank: int
    punctures: int
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        r, s = self.rank, self.punctures
        if s < 3:
            raise ShapeError(f"need at least 3 punctures, got {s}")
        if len(self.matrices) != s:
            raise ShapeError(f"expected {s} matrices, got {len(self.matrices)}")
        for i, g in enumerate(self.matrices):
            if not (g.is_square() and g.rows == r):
                raise ShapeError(f"matrix {i + 1} is not {r}x{r}")
        prod = self.matrices[0]
        for g in self.matrices[1:]:
            prod = prod @ g
        if not prod.is_identity():
            # A singular factor makes the product singular, so it is found here.
            for i, d in enumerate(self.dets):
                if not d:
                    raise NotInvertible(f"matrix {i + 1} is singular")
            raise RelationViolation("ordered product of the tuple is not the identity")

    @classmethod
    def of(cls, matrices) -> MonodromyTuple:
        matrices = tuple(matrices)
        if not matrices:
            raise ShapeError("empty tuple")
        return cls(matrices[0].rows, len(matrices), matrices)

    @cached_property
    def dets(self) -> tuple[CycNum, ...]:
        return det_data(self)

    @cached_property
    def irreducible(self) -> bool:
        return is_irreducible(self)

    @cached_property
    def mon_data(self) -> MonData:
        return mon(self)

    def conjugated(self, h: Matrix) -> MonodromyTuple:
        """The tuple h g_i h^-1, a point in the same moduli class."""
        hinv = h.inverse()
        return MonodromyTuple(self.rank, self.punctures,
                              tuple(h @ g @ hinv for g in self.matrices))


@dataclass(frozen=True)
class EigenData:
    """Per-puncture unordered multisets of nonzero eigenvalues.

    Each point stores its r eigenvalues sorted by the canonical scalar order,
    so equality and hashing behave as multiset comparisons.
    """

    rank: int
    punctures: int
    points: tuple[tuple[CycNum, ...], ...]

    def __post_init__(self):
        if len(self.points) != self.punctures:
            raise ShapeError(f"expected {self.punctures} points, got {len(self.points)}")
        for pt in self.points:
            if len(pt) != self.rank:
                raise ShapeError("each point needs one eigenvalue per rank")
            if any(not v for v in pt):
                raise ShapeError("eigenvalues must be nonzero")

    @classmethod
    def of(cls, points) -> EigenData:
        pts = tuple(
            tuple(sorted((v if isinstance(v, CycNum) else rational(v) for v in pt),
                         key=sort_key))
            for pt in points)
        if not pts:
            raise ShapeError("empty eigenvalue data")
        return cls(len(pts[0]), len(pts), pts)

    def conductor(self) -> int:
        return math.lcm(*[v.conductor for pt in self.points for v in pt])

    @cached_property
    def product(self) -> CycNum:
        """The product of all r s eigenvalues, the determinant of the relation."""
        n = self.conductor()
        return _normalize(n, *_product(n, (v for pt in self.points for v in pt)))


@dataclass(frozen=True)
class RigidityReport:
    """The rigidity count: per-point centralizer dimensions against the
    threshold (s-2) r^2 + 2, plus the simplicity verdict."""

    centralizer_dims: tuple[int, ...]
    total: int
    threshold: int
    defect: int
    is_irreducible: bool
    verdict: str  # "rigid" | "not-rigid" | "not-applicable(reducible)"


@dataclass(frozen=True)
class Rank2Classification:
    nonscalar_points: frozenset[int]  # 1-based indices
    rigid: bool
    component_triple: frozenset[int] | None


def centralizer_dim(a: Matrix) -> int:
    """Dimension of {X : XA = AX}.  A scalar A commutes with all r^2 matrices.
    Otherwise A is regular exactly when I, A, ..., A^(r-1) are independent,
    and its centralizer is then Q(zeta)[A], of dimension r: the rank of their
    coordinates (``rank_and_kernel_dim``, which certifies a full rank mod p)
    decides it.  Only a derogatory A takes the exact r^2 x r^2 kernel of
    X -> XA - AX, whose rows are built from A's coordinates over no
    denominator: scaling keeps the kernel."""
    if not a.is_square():
        raise ShapeError("centralizer of a non-square matrix")
    r, n, num = a.rows, a.conductor, a.num
    if a.is_scalar():
        return r * r
    zero, powers = (0,) * len(num[0]), [a]
    while len(powers) < r - 1:
        powers.append(powers[-1] @ a)
    rows = [(1,) + zero[1:] if i % (r + 1) == 0 else zero for i in range(r * r)]
    rows += itertools.chain.from_iterable(m.num for m in powers)
    if rank_and_kernel_dim(Matrix.from_coords(r, r * r, n, tuple(rows), 1))[0] == r:
        return r
    rows = []
    for i, j in itertools.product(range(r), repeat=2):
        row = [zero] * (r * r)
        for k in range(r):  # d(XA - AX)_ij / dX_ik is a_kj, and / dX_kj is -a_ik
            row[i * r + k] = tuple(x + y for x, y in zip(row[i * r + k], num[k * r + j]))
            row[k * r + j] = tuple(x - y for x, y in zip(row[k * r + j], num[i * r + k]))
        rows += row
    return rank_and_kernel_dim(Matrix.from_coords(r * r, r * r, n, tuple(rows), 1))[1]


def is_irreducible(t: MonodromyTuple) -> bool:
    """Burnside criterion: the tuple is irreducible exactly when the words in
    the g_i span the full r x r matrix algebra.  The inverses need not be
    generators: by Cayley-Hamilton g^r + ... + c_1 g + c_0 = 0 with
    c_0 = +-det g nonzero, so g^-1 is a polynomial in g, and the words in the
    g_i already span the group algebra of the monodromy group.  A full span
    modulo a prime proves it (``linalg._full_span_mod_p``); otherwise the exact
    span decides."""
    return _full_span_mod_p(t.matrices) or algebra_dim(t.matrices) == t.rank * t.rank


def common_eigenvector_exists(t: MonodromyTuple) -> bool | None:
    """Rank-2 cross-check: whether the matrices share an eigenvector.

    Returns None when the first non-scalar factor's eigenvalues do not
    split; in that case the Burnside test remains authoritative.
    """
    if t.rank != 2:
        raise ShapeError("common-eigenvector search implemented for rank 2")
    first = next((g for g in t.matrices if not g.is_scalar()), None)
    if first is None:
        return True
    ev = eigenvalues_split(first)
    if ev is None:
        return None
    lines = []
    for lam in set(ev):
        a = first[0, 0] - lam
        b = first[0, 1]
        c = first[1, 0]
        d = first[1, 1] - lam
        # A nonzero kernel vector of the singular 2x2 matrix [[a, b], [c, d]].
        lines.append((b, -a) if (a or b) else (d, -c))

    def is_eigvec(g: Matrix, v) -> bool:
        x = g[0, 0] * v[0] + g[0, 1] * v[1]
        y = g[1, 0] * v[0] + g[1, 1] * v[1]
        return not (x * v[1] - y * v[0])

    return any(all(is_eigvec(g, v) for g in t.matrices) for v in lines)


def katz_report(t: MonodromyTuple) -> RigidityReport:
    """Rigidity by the centralizer count: a simple tuple is rigid exactly when
    sum(dim Z_i) reaches (s-2) r^2 + 2; reducible tuples get no verdict."""
    dims = tuple(centralizer_dim(g) for g in t.matrices)
    total = sum(dims)
    threshold = (t.punctures - 2) * t.rank * t.rank + 2
    if not t.irreducible:
        verdict = "not-applicable(reducible)"
    elif total == threshold:
        verdict = "rigid"
    else:
        verdict = "not-rigid"
    return RigidityReport(dims, total, threshold, threshold - total, t.irreducible, verdict)


def scalar_points(t: MonodromyTuple) -> frozenset[int]:
    """1-based indices of the punctures with (nonzero) scalar local monodromy."""
    return frozenset(i + 1 for i, g in enumerate(t.matrices) if g.is_scalar())


def rank2_classify(t: MonodromyTuple) -> Rank2Classification:
    """Rank-2 classification: rigid iff exactly 3 punctures carry non-scalar
    local monodromy; the triple names the moduli component."""
    if t.rank != 2:
        raise ShapeError("classification requires rank 2")
    if not t.irreducible:
        raise NotApplicable("classification applies to irreducible tuples only")
    nonscalar = frozenset(range(1, t.punctures + 1)) - scalar_points(t)
    rigid = len(nonscalar) == 3
    return Rank2Classification(nonscalar, rigid, nonscalar if rigid else None)


@dataclass(frozen=True)
class MonData:
    """The eigenvalue data, None when a factor does not split, and every
    factor's characteristic polynomial.  ``mon`` computes the polynomials of
    the factors it searched; the others, past the first unsplit factor, are
    computed when ``charpolys`` is first read."""

    eigen: EigenData | None
    _searched: tuple[Polynomial, ...]
    _rest: tuple[Matrix, ...] = ()

    @cached_property
    def charpolys(self) -> tuple[Polynomial, ...]:
        return self._searched + tuple(charpoly(g) for g in self._rest)


def mon(t: MonodromyTuple) -> MonData:
    """Per-puncture characteristic polynomials of the local monodromy, plus
    the eigenvalue data when every factor splits (``eigenvalues_split``),
    searched in order up to the first that does not."""
    polys, evs = [], []
    for i, g in enumerate(t.matrices):
        polys.append(p := charpoly(g))
        if (ev := eigenvalues_split(g, p)) is None:
            return MonData(None, tuple(polys), t.matrices[i + 1:])
        evs.append(ev)
    return MonData(EigenData.of(evs), tuple(polys))


def det_data(t: MonodromyTuple) -> tuple[CycNum, ...]:
    """The determinant local system (det g_1, ..., det g_s); product is 1."""
    return tuple(g.det() for g in t.matrices)
