import random
from fractions import Fraction

import pytest

from conftest import legendre_tuple, random_member_eigen
from rigidmono import (ComponentSpec, EigenData, GaloisElement, Matrix, MonodromyTuple,
                       absolute_point_test, component_membership, conjugate_eigen,
                       conjugate_tuple_naive, construct_representative, deligne_residues,
                       galois_group, galois_orbit_eigen, is_irreducible, mon,
                       rank2_classify, rational, transport_residues, zeta)
from rigidmono.errors import FieldMismatch, Indeterminate

F = Fraction


def test_naive_conjugation_fixes_rational_tuple():
    t = legendre_tuple()
    for g in galois_group(12):
        assert conjugate_tuple_naive(t, g).matrices == t.matrices


def test_naive_conjugation_moves_entries():
    z3 = zeta(3)
    t = MonodromyTuple.of([Matrix.scalar(2, z3), Matrix.scalar(2, z3),
                           Matrix.scalar(2, z3)])
    tc = conjugate_tuple_naive(t, GaloisElement(3, 2))
    assert tc.matrices[0] == Matrix.scalar(2, z3 ** 2)


def test_naive_conjugation_field_mismatch():
    t = MonodromyTuple.of([Matrix.scalar(2, zeta(5)), Matrix.scalar(2, zeta(5, 4)),
                           Matrix.identity(2)])
    with pytest.raises(FieldMismatch):
        conjugate_tuple_naive(t, GaloisElement(12, 5))


def test_conjugate_of_irreducible_is_irreducible():
    rng = random.Random(41)
    for _ in range(10):
        e = random_member_eigen(rng, 3, (1, 2, 3), n=12)
        t = construct_representative(e, ComponentSpec.of(3, [1, 2, 3]))
        for g in galois_group(12):
            assert is_irreducible(conjugate_tuple_naive(t, g))


def test_mon_commutes_with_conjugation():
    rng = random.Random(42)
    for _ in range(10):
        e = random_member_eigen(rng, 4, (1, 2, 4), n=12)
        t = construct_representative(e, ComponentSpec.of(4, [1, 2, 4]))
        for g in galois_group(12):
            lhs = mon(conjugate_tuple_naive(t, g)).eigen
            assert lhs == conjugate_eigen(mon(t).eigen, g)


def test_rigidity_is_galois_stable():
    rng = random.Random(43)
    for _ in range(10):
        e = random_member_eigen(rng, 3, (1, 2, 3), n=8)
        t = construct_representative(e, ComponentSpec.of(3, [1, 2, 3]))
        base = rank2_classify(t)
        for g in galois_group(8):
            assert rank2_classify(conjugate_tuple_naive(t, g)) == base


def test_transport_fixes_residues():
    rng = random.Random(44)
    e = random_member_eigen(rng, 3, (1, 2, 3))
    rd = deligne_residues(e)
    for g in galois_group(24):
        assert transport_residues(rd, g) == rd


def test_orbit_of_rational_data_is_singleton():
    e = EigenData.of([[rational(-1)] * 2, [rational(1)] * 2, [rational(1)] * 2])
    assert galois_orbit_eigen(e) == {e}


def test_orbit_of_zeta5_data():
    z5 = zeta(5)
    e = EigenData.of([[z5, z5 ** 4], [1, 1], [z5 ** 4, z5]])
    orbit = galois_orbit_eigen(e)
    expected = {e, EigenData.of([[z5 ** 2, z5 ** 3], [1, 1], [z5 ** 3, z5 ** 2]])}
    assert orbit == expected
    assert len(orbit) <= 4


@pytest.mark.parametrize("n", [8, 24, 60])
def test_orbit_equals_the_images_under_each_automorphism(n):
    # The orbit conjugates each value once per residue; the reference maps the
    # whole data by every automorphism of its field.  Mixed conductors,
    # repeated and rational values come from the random data and the scalings.
    rng = random.Random(n)
    for s in (3, 5):
        e = random_member_eigen(rng, s, (1, 2, 3), n=n)
        f = EigenData.of([[v * rational(F(rng.choice((1, 2)), rng.choice((1, 3)))) for v in pt]
                          for pt in e.points])
        for d in (e, f):
            assert galois_orbit_eigen(d) == {
                conjugate_eigen(d, g) for g in galois_group(d.conductor())}


def test_orbit_members_share_membership_verdict():
    rng = random.Random(45)
    spec = ComponentSpec.of(3, [1, 2, 3])
    for _ in range(8):
        e = random_member_eigen(rng, 3, (1, 2, 3), n=12)
        for member in galois_orbit_eigen(e):
            assert component_membership(member, spec)


def test_absolute_point_legendre():
    v = absolute_point_test(legendre_tuple())
    assert v.is_rigid and v.det_torsion and v.mon_torsion
    assert v.verdict == "absolute-point-candidate"


def test_absolute_point_nontorsion_eigenvalue():
    e = EigenData.of([[rational(2), rational(F(1, 2))], [rational(1)] * 2,
                      [rational(1)] * 2])
    t = construct_representative(e, ComponentSpec.of(3, [1, 2, 3]))
    v = absolute_point_test(t)
    assert v.is_rigid and v.det_torsion and not v.mon_torsion
    assert v.verdict == "not-absolute"


def test_absolute_point_reducible():
    t = MonodromyTuple.of([Matrix.scalar(2, rational(2)),
                           Matrix.scalar(2, rational(3)),
                           Matrix.scalar(2, rational(F(1, 6)))])
    v = absolute_point_test(t)
    assert not v.is_rigid and v.verdict == "not-absolute"


def test_absolute_point_indeterminate_on_nonsplit():
    m = Matrix.from_rows([[0, 1], [1, 1]])
    t = MonodromyTuple.of([m, m.inverse(), Matrix.identity(2)])
    with pytest.raises(Indeterminate):
        absolute_point_test(t)


def test_absolute_verdict_invariant_under_conjugations():
    rng = random.Random(46)
    h = Matrix.from_rows([[1, 1], [2, 3]])
    for n in (3, 4, 8, 12):
        e = random_member_eigen(rng, 3, (1, 2, 3), n=n)
        t = construct_representative(e, ComponentSpec.of(3, [1, 2, 3]))
        base = absolute_point_test(t)
        assert absolute_point_test(t.conjugated(h)) == base
        for g in galois_group(n):
            assert absolute_point_test(conjugate_tuple_naive(t, g)) == base
