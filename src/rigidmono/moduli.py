"""Explicit moduli coordinates for rank-2 tuples.

The s = 3 chart by traces and inverse determinants, the locus of non-simple
eigenvalue data, membership in the components of the rigid moduli (indexed by
the triple of punctures carrying non-scalar monodromy), and the inverse
construction of a rigid tuple from admissible eigenvalue data.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cyclotomic import CycNum, _normalize, _product, one, rational
from .errors import NotInComponent, NotOnModuli, ShapeError
from .linalg import Matrix
from .monodromy import EigenData, MonodromyTuple


@dataclass(frozen=True)
class TraceChartPoint:
    """The five chart coordinates of a rank-2, 3-puncture tuple:
    (tr g_1, tr g_2, tr g_1 g_2, det(g_1)^-1, det(g_2)^-1)."""

    t1: CycNum
    t2: CycNum
    t12: CycNum
    d1inv: CycNum
    d2inv: CycNum


@dataclass(frozen=True)
class ComponentSpec:
    """One component of the rank-2 rigid moduli: the 3-element set of
    punctures allowed non-scalar local monodromy (1-based indices)."""

    punctures: int
    triple: frozenset[int]

    def __post_init__(self):
        if len(self.triple) != 3:
            raise ShapeError("component triple must have exactly 3 points")
        if not all(1 <= i <= self.punctures for i in self.triple):
            raise ShapeError(f"triple {sorted(self.triple)} out of range 1..{self.punctures}")

    @classmethod
    def of(cls, s: int, triple) -> ComponentSpec:
        return cls(s, frozenset(triple))


def all_component_specs(s: int) -> list[ComponentSpec]:
    """All s(s-1)(s-2)/6 component specs, in lexicographic triple order."""
    return [ComponentSpec.of(s, c)
            for c in itertools.combinations(range(1, s + 1), 3)]


def trace_chart(t: MonodromyTuple) -> TraceChartPoint:
    """Chart coordinates of a validated rank-2 tuple with 3 punctures."""
    if t.rank != 2 or t.punctures != 3:
        raise ShapeError("trace chart requires rank 2 and exactly 3 punctures")
    g1, g2, _ = t.matrices
    return TraceChartPoint(g1.trace(), g2.trace(), (g1 @ g2).trace(),
                           t.dets[0].inverse(), t.dets[1].inverse())


def nonsimple_test_s3(e: EigenData) -> bool:
    """Whether rank-2, s = 3 eigenvalue data lies on the non-simple locus:
    some choice x_{1i} x_{2j} x_{3k} of one eigenvalue per point multiplies
    to 1."""
    if e.rank != 2 or e.punctures != 3:
        raise ShapeError("non-simple locus test requires rank 2, 3 punctures")
    if e.product != one():
        raise NotOnModuli("eigenvalue data is off the moduli: product of all six is not 1")
    return any(x * y * z == one()
               for x in e.points[0] for y in e.points[1] for z in e.points[2])


def _scalars(e: EigenData, spec: ComponentSpec) -> list[CycNum] | None:
    # The scalar of each point outside the triple, or None if one of them is not scalar.
    out = []
    for i, pt in enumerate(e.points, start=1):
        if i not in spec.triple:
            if pt[0] != pt[1]:
                return None
            out.append(pt[0])
    return out


def component_membership(e: EigenData, spec: ComponentSpec) -> bool:
    """Membership of eigenvalue data in the component named by spec.

    Requires: the product of all 2s eigenvalues is 1; every point outside the
    triple is scalar (equal pair); and no choice of one eigenvalue at each
    triple point, together with the scalars, multiplies to 1.

    The product being 1 is checked first.  With triple eigenvalues (x, x'),
    (y, y'), (z, z') and k the product of the scalars, it reads
    x y z k * x' y' z' k = 1, so a choice multiplies to 1 exactly when its
    complement does, and the four choices that take x decide all eight.  Each
    choice is formed as integer coordinates at the conductor of e over the
    product of the denominators d (x k once, x k y once per y), and it is 1
    exactly when those coordinates are d (1, 0, ..., 0): nothing is normalized.
    """
    if e.rank != 2:
        raise ShapeError("component membership requires rank 2")
    if e.punctures != spec.punctures:
        raise ShapeError("eigenvalue data and component spec disagree on s")
    if e.product != one() or (scalars := _scalars(e, spec)) is None:
        return False
    n = e.conductor()
    i1, i2, i3 = sorted(spec.triple)
    xk = _product(n, [e.points[i1 - 1][0], *scalars])
    for y in e.points[i2 - 1]:
        xky = _product(n, [y], *xk)
        for z in e.points[i3 - 1]:
            num, den = _product(n, [z], *xky)
            if num[0] == den and not any(num[1:]):
                return False
    return True


def construct_representative(e: EigenData, spec: ComponentSpec) -> MonodromyTuple:
    """The rigid tuple with the given eigenvalue data, non-scalar exactly on
    the triple.

    With triple eigenvalues (a1, a2), (b1, b2), (c1, c2) and scalar product k
    over the remaining points, the three non-scalar factors are

        G2 = [[b1, 1], [0, b2]],
        G3 = [[c1, 0], [u, c2]],   u = (k a1)^-1 + (k a2)^-1 - b1 c1 - b2 c2,
        G1 = (k G2 G3)^-1,

    placed at the triple in increasing position order, with the scalar
    matrices elsewhere.  Membership of the data in the component forces
    u != 0, hence the Jordan shape at repeated eigenvalues, and guarantees
    the result is irreducible with the prescribed local data.  It also puts
    the product of all 2s eigenvalues at 1, so w = k b1 b2 c1 c2 = (k a1 a2)^-1
    and nothing is inverted: u = w (a1 + a2) - b1 c1 - b2 c2, G1 = (k a1 a2) adj(G3) adj(G2).
    """
    if not component_membership(e, spec):
        raise NotInComponent(
            f"eigenvalue data is not in the component of triple {sorted(spec.triple)}")
    i1, i2, i3 = sorted(spec.triple)
    a1, a2 = e.points[i1 - 1]
    b1, b2 = e.points[i2 - 1]
    c1, c2 = e.points[i3 - 1]
    n = e.conductor()
    k = _product(n, _scalars(e, spec))
    w = _normalize(n, *_product(n, (b1, b2, c1, c2), *k))
    ka = _normalize(n, *_product(n, (a1, a2), *k))
    u = w * (a1 + a2) - b1 * c1 - b2 * c2
    g2 = Matrix.from_rows([[b1, one()], [rational(0), b2]])
    g3 = Matrix.from_rows([[c1, rational(0)], [u, c2]])
    g1 = (Matrix.from_rows([[c2, rational(0)], [-u, c1]])
          @ Matrix.from_rows([[b2, -one()], [rational(0), b1]])).scale(ka)
    placed: list[Matrix | None] = [None] * e.punctures
    placed[i1 - 1], placed[i2 - 1], placed[i3 - 1] = g1, g2, g3
    for i, pt in enumerate(e.points, start=1):
        if i not in spec.triple:
            placed[i - 1] = Matrix.scalar(2, pt[0])
    return MonodromyTuple.of(placed)
