import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (LEGENDRE_MATRICES, legendre_eigen, legendre_tuple, random_member_eigen,
                      random_triangular_tuple, random_tuple)
from rigidmono import (ComponentSpec, CycNum, EigenData, Matrix, MonodromyTuple,
                       all_component_specs, component_membership, construct_representative,
                       is_irreducible, katz_report, mon, nonsimple_test_s3, one, rank2_classify,
                       rational, trace_chart, zeta)
from rigidmono.errors import NotInComponent, NotOnModuli, ShapeError

E = EigenData.of
R = rational


def test_trace_chart_identity_triple():
    t = MonodromyTuple.of([Matrix.identity(2)] * 3)
    cp = trace_chart(t)
    assert (cp.t1, cp.t2, cp.t12, cp.d1inv, cp.d2inv) == (R(2), R(2), R(2), R(1), R(1))


def test_trace_chart_legendre():
    cp = trace_chart(legendre_tuple())
    assert (cp.t1, cp.t2, cp.t12, cp.d1inv, cp.d2inv) == (R(-2), R(2), R(2), R(1), R(1))


def test_trace_chart_conjugation_invariant():
    rng = random.Random(21)
    for _ in range(20):
        t = random_tuple(rng, 3)
        while True:
            h = Matrix(2, 2, tuple(R(rng.randint(-2, 3)) for _ in range(4)))
            if h.det():
                break
        assert trace_chart(t) == trace_chart(t.conjugated(h))


def test_trace_chart_shape_error():
    with pytest.raises(ShapeError):
        trace_chart(MonodromyTuple.of([Matrix.identity(2)] * 4))


def test_nonsimple_examples():
    assert nonsimple_test_s3(E([[R(1)] * 2] * 3)) is True
    assert nonsimple_test_s3(E([[R(1)] * 2, [R(1)] * 2, [R(-1)] * 2])) is False
    z3 = zeta(3)
    assert nonsimple_test_s3(E([[z3, z3 ** 2]] * 3)) is True


def test_nonsimple_rejects_off_moduli():
    with pytest.raises(NotOnModuli):
        nonsimple_test_s3(E([[R(2), R(1)], [R(1)] * 2, [R(1)] * 2]))


def test_chart_lands_on_product_one_locus():
    rng = random.Random(22)
    for _ in range(30):
        t = random_tuple(rng, 3)
        data = mon(t)
        if data.eigen is None:
            continue
        prod = one()
        for pt in data.eigen.points:
            prod = prod * pt[0] * pt[1]
        assert prod == one()


def test_component_membership_examples():
    spec3 = ComponentSpec.of(3, [1, 2, 3])
    assert component_membership(legendre_eigen(), spec3)
    spec4 = ComponentSpec.of(4, [1, 2, 3])
    e4 = E([[R(-1)] * 2, [R(1)] * 2, [R(1)] * 2, [R(1)] * 2])
    assert component_membership(e4, spec4)
    e4_excluded = E([[R(-1)] * 2, [R(1)] * 2, [R(1)] * 2, [R(-1)] * 2])
    assert not component_membership(e4_excluded, spec4)
    e4_nonscalar_outside = E([[R(-1)] * 2, [R(1)] * 2, [R(1)] * 2, [R(2), Fraction(1, 2)]])
    assert not component_membership(e4_nonscalar_outside, spec4)


def test_construct_legendre_exactly():
    t = construct_representative(legendre_eigen(), ComponentSpec.of(3, [1, 2, 3]))
    assert t.matrices == LEGENDRE_MATRICES


def test_construct_s4_extension():
    e4 = E([[R(-1)] * 2, [R(1)] * 2, [R(1)] * 2, [R(1)] * 2])
    t = construct_representative(e4, ComponentSpec.of(4, [1, 2, 3]))
    assert t.matrices[:3] == LEGENDRE_MATRICES
    assert t.matrices[3] == Matrix.identity(2)


def test_construct_rejects_excluded_locus():
    e4_excluded = E([[R(-1)] * 2, [R(1)] * 2, [R(1)] * 2, [R(-1)] * 2])
    with pytest.raises(NotInComponent):
        construct_representative(e4_excluded, ComponentSpec.of(4, [1, 2, 3]))


def test_construct_roundtrip_randomized():
    rng = random.Random(23)
    for _ in range(40):
        s = rng.choice([3, 4, 5])
        triple = frozenset(rng.sample(range(1, s + 1), 3))
        spec = ComponentSpec.of(s, triple)
        e = random_member_eigen(rng, s, triple)
        t = construct_representative(e, spec)
        assert mon(t).eigen == e
        assert is_irreducible(t)
        cls = rank2_classify(t)
        assert cls.rigid and cls.component_triple == triple
        assert katz_report(t).verdict == "rigid"


def test_construct_inverts_nothing(monkeypatch):
    # Membership has checked that all 2s eigenvalues multiply to 1, and
    # construct builds u and G1 = (k G2 G3)^-1 from that relation: no CycNum
    # is inverted, on unit data or not (the scalar point gives k = -1/2).
    h = Fraction(1, 2)
    data = [(E([[R(2), R(Fraction(1, 3))], [zeta(5), R(Fraction(3, 2))],
                [zeta(5, 2), R(4) * zeta(5, 2)], [R(-h), R(-h)]]), ComponentSpec.of(4, [1, 2, 3])),
            (random_member_eigen(random.Random(24), 5, [1, 3, 5]), ComponentSpec.of(5, [1, 3, 5]))]
    inverse, calls = CycNum.inverse, []
    monkeypatch.setattr(CycNum, "inverse", lambda self: calls.append(self) or inverse(self))
    tuples = [construct_representative(e, spec) for e, spec in data]
    assert calls == []
    monkeypatch.undo()
    for t, (e, spec) in zip(tuples, data):
        assert mon(t).eigen == e
        assert rank2_classify(t).component_triple == spec.triple


def test_construct_offdiagonal_forced_at_repeated_eigenvalues():
    # A repeated pair at a triple point must come out as a Jordan block.
    e = E([[zeta(3), zeta(3)], [R(1), R(1)], [zeta(3, 2), zeta(3, 2)]])
    spec = ComponentSpec.of(3, [1, 2, 3])
    if component_membership(e, spec):
        t = construct_representative(e, spec)
        assert not any(g.is_scalar() for g in t.matrices)


def test_uniqueness_of_chart_per_mon_fiber():
    # Two different realizations of the same local data (canonical pair order
    # vs swapped order in the constructor) must land on the same chart point.
    rng = random.Random(24)
    for _ in range(10):
        e = random_member_eigen(rng, 3, (1, 2, 3))
        spec = ComponentSpec.of(3, [1, 2, 3])
        t1 = construct_representative(e, spec)
        swapped = EigenData(2, 3, tuple(tuple(reversed(pt)) for pt in e.points))
        b1, b2 = swapped.points[1]
        c1, c2 = swapped.points[2]
        a1, a2 = swapped.points[0]
        u = a1.inverse() + a2.inverse() - b1 * c1 - b2 * c2
        g2 = Matrix.from_rows([[b1, one()], [R(0), b2]])
        g3 = Matrix.from_rows([[c1, R(0)], [u, c2]])
        g1 = (g2 @ g3).inverse()
        t2 = MonodromyTuple.of([g1, g2, g3])
        assert mon(t2).eigen == e
        assert trace_chart(t1) == trace_chart(t2)


def test_locus_equivalence_for_split_tuples():
    rng = random.Random(25)
    irreducible_seen = reducible_seen = 0
    for _ in range(60):
        if rng.random() < 0.5:
            e = random_member_eigen(rng, 3, (1, 2, 3), n=12)
            t = construct_representative(e, ComponentSpec.of(3, [1, 2, 3]))
        else:
            t = random_triangular_tuple(rng)
        data = mon(t)
        if data.eigen is None:
            continue
        irr = is_irreducible(t)
        assert irr == (not nonsimple_test_s3(data.eigen))
        irreducible_seen += irr
        reducible_seen += not irr
    assert irreducible_seen > 10 and reducible_seen > 10


def test_component_count():
    for s in range(3, 9):
        specs = all_component_specs(s)
        assert len(specs) == s * (s - 1) * (s - 2) // 6
        assert len(set(spec.triple for spec in specs)) == len(specs)


def test_components_disjoint_on_classification():
    # A rigid tuple's classification triple matches exactly one spec.
    rng = random.Random(26)
    for _ in range(15):
        s = rng.choice([4, 5])
        triple = frozenset(rng.sample(range(1, s + 1), 3))
        e = random_member_eigen(rng, s, triple)
        t = construct_representative(e, ComponentSpec.of(s, triple))
        cls = rank2_classify(t)
        hits = [spec for spec in all_component_specs(s)
                if spec.triple == cls.component_triple]
        assert len(hits) == 1


def test_component_spec_validation():
    with pytest.raises(ShapeError):
        ComponentSpec.of(4, [1, 2])
    with pytest.raises(ShapeError):
        ComponentSpec.of(3, [1, 2, 5])
    with pytest.raises(ShapeError):
        component_membership(legendre_eigen(), ComponentSpec.of(4, [1, 2, 3]))


# -- membership against the eight-choice rule ---------------------------------

def _product_reference(e):
    # The product of all 2s eigenvalues, one CycNum product at a time.
    prod = one()
    for pt in e.points:
        for v in pt:
            prod = prod * v
    return prod


def _membership_reference(e, spec):
    # The rule as stated, in CycNum arithmetic: product 1, scalars outside the
    # triple, and none of the eight choices x y z k equal to 1.
    if _product_reference(e) != one():
        return False
    k = one()
    for i, pt in enumerate(e.points, start=1):
        if i not in spec.triple:
            if pt[0] != pt[1]:
                return False
            k = k * pt[0]
    i1, i2, i3 = sorted(spec.triple)
    return all(x * y * z * k != one()
               for x in e.points[i1 - 1] for y in e.points[i2 - 1] for z in e.points[i3 - 1])


@st.composite
def eigen_near_components(draw):
    # Rank-2 data at s = 3..7 over Q(zeta_n), n <= 60: roots of unity, some of them
    # times a non-unit (+-2, 1/3, -3/2, 1 + zeta_n^a, zeta_n^a - 2), with scalar and
    # repeated pairs; a choice at the first triple is forced to 1 when asked, and
    # the last value is rescaled so that the product of all 2s values is 1 unless
    # the data is meant to be off the moduli.
    s, n = draw(st.integers(3, 7)), draw(st.integers(1, 60))
    triple = sorted(draw(st.permutations(range(1, s + 1)))[:3])

    def value():
        u = zeta(n, draw(st.integers(0, n - 1)))
        kind = draw(st.integers(0, 4))
        if kind == 1:
            return u * R(draw(st.sampled_from([2, -2, Fraction(1, 3), Fraction(-3, 2)])))
        if kind == 2:
            a = draw(st.integers(0, n - 1))
            c = one() + zeta(n, a) if draw(st.booleans()) else zeta(n, a) - R(2)
            return u * c if c else u
        return u

    pts = []
    for i in range(1, s + 1):
        x = value()
        shape = draw(st.integers(0, 3 if i in triple else 4))
        pts.append([x, x] if shape == 0 or shape == 4 else [x, value()])
    i1, i2, i3 = triple
    if draw(st.booleans()):
        k = one()
        for i, pt in enumerate(pts, start=1):
            if i not in triple:
                k = k * pt[0]
        x, y = pts[i1 - 1][draw(st.integers(0, 1))], pts[i2 - 1][draw(st.integers(0, 1))]
        pts[i3 - 1][0] = (x * y * k).inverse()
    if draw(st.integers(0, 9)):
        prod = _product_reference(EigenData.of(pts))
        pts[i3 - 1][1] = pts[i3 - 1][1] / prod
    return EigenData.of(pts)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(eigen_near_components())
@example(E([[zeta(5), zeta(5, 4)]] * 3 + [[one(), one()]] * 4))
@example(E([[R(2), R(Fraction(1, 2))], [R(1), R(1)], [R(-1), R(-1)], [R(3), R(3)],
            [R(Fraction(1, 3)), R(Fraction(1, 3))]]))
def test_membership_matches_the_eight_choice_rule(e):
    # The four choices at one conductor and one normalization of each product give
    # the rule's answer on every spec, and EigenData.product the products' value.
    assert e.product == _product_reference(e)
    for spec in all_component_specs(e.punctures):
        assert component_membership(e, spec) == _membership_reference(e, spec)
