import bisect
import contextlib
import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rigidmono import (CycNum, Matrix, Polynomial, charpoly, eigenvalues_split, linalg, one,
                       rank_and_kernel_dim, rational, sort_key, zero, zeta)
from rigidmono.cyclotomic import (GaloisElement, _dot, _lift, _normalize, _prime_divisors,
                                  euler_phi, galois_apply, unit_exp, unit_log)
from rigidmono.errors import NotInvertible, ShapeError
from rigidmono.linalg import (_extension_conductor, _search_roots, algebra_dim,
                              poly_roots_in_field)
from rigidmono.monodromy import centralizer_dim

M = Matrix.from_rows
POOL = [rational(x) for x in (0, 1, -1, 2, Fraction(1, 2))] + [zeta(3), zeta(4), zeta(3) + 1]


def _sorted(vals):
    return tuple(sorted(vals, key=sort_key))


@pytest.mark.parametrize("n", [1, 4, 12, 60])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_coordinate_constructors_equal_their_entry_built_forms(r, n):
    value = zeta(n) * rational(Fraction(2, 3)) + rational(Fraction(1, 2))
    assert value.conductor == n

    def diagonal(x, cols):
        return tuple(x if i % (cols + 1) == 0 else zero() for i in range(r * cols))
    for built, rows, cols, ent in [(Matrix.scalar(r, value), r, r, diagonal(value, r)),
                                   (Matrix.identity(r), r, r, diagonal(one(), r))]:
        want = Matrix(rows, cols, ent)
        assert built == want and hash(built) == hash(want)
        assert (built.entries, built.conductor, built.num, built.den) == (
            want.entries, want.conductor, want.num, want.den)


def test_identity_multiplication():
    rng = random.Random(1)
    for _ in range(10):
        a = Matrix(2, 2, tuple(rng.choice(POOL) for _ in range(4)))
        assert Matrix.identity(2) @ a == a
        assert a @ Matrix.identity(2) == a


def test_inverse_example():
    a = M([[-3, 1], [-4, 1]])
    assert a.inverse() == M([[1, -1], [4, -3]])
    assert a @ a.inverse() == Matrix.identity(2)


def test_inverse_of_singular_fails():
    with pytest.raises(NotInvertible):
        M([[1, 1], [0, 0]]).inverse()


@st.composite
def _square_matrices(draw):
    # An r x r matrix over Q(zeta_n): each entry sum(c_k zeta_n^k), c_k in -2..2.
    r, n = draw(st.integers(1, 4)), draw(st.sampled_from([1, 3, 4, 5, 8, 12]))
    coeffs = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return Matrix(r, r, tuple(CycNum.from_coeffs(draw(coeffs), n) for _ in range(r * r)))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_square_matrices(), st.data())
def test_inverse_is_exact_at_ranks_1_to_4(a, data):
    if a.det():
        assert a @ a.inverse() == Matrix.identity(a.rows)
        assert a.inverse() @ a == Matrix.identity(a.rows)
    else:
        with pytest.raises(NotInvertible):
            a.inverse()
    # The last row made a multiple of the first (zero when r = 1): singular.
    c = data.draw(st.sampled_from(POOL))
    rows = [list(a.entries[i:i + a.cols]) for i in range(0, a.rows * a.cols, a.cols)]
    rows[-1] = [c * x for x in rows[0]] if a.rows > 1 else [rational(0)]
    with pytest.raises(NotInvertible):
        Matrix.from_rows(rows).inverse()


def test_shape_errors():
    with pytest.raises(ShapeError):
        M([[1, 2], [3, 4]]) @ M([[1, 2, 3]])
    with pytest.raises(ShapeError):
        M([[1, 2]]) + M([[1], [2]])


def test_rank_kernel_examples():
    assert rank_and_kernel_dim(Matrix.scalar(3, 0)) == (0, 3)
    assert rank_and_kernel_dim(Matrix.identity(4)) == (4, 0)
    z3 = zeta(3)
    assert rank_and_kernel_dim(M([[1, z3], [z3 ** 2, 1]])) == (1, 1)


def test_rank_plus_kernel_is_cols():
    rng = random.Random(3)
    for _ in range(50):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = Matrix(rows, cols, tuple(rng.choice(POOL) for _ in range(rows * cols)))
        r, k = rank_and_kernel_dim(a)
        assert r + k == cols


@st.composite
def _image_cases(draw):
    # A conductor m dividing n <= 60, coordinates x at m and y at n, a unit k mod n.
    n = draw(st.integers(1, 60))
    m = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    coords = st.integers(-9, 9)
    x = tuple(draw(st.lists(coords, min_size=euler_phi(m), max_size=euler_phi(m))))
    y = tuple(draw(st.lists(coords, min_size=euler_phi(n), max_size=euler_phi(n))))
    k = draw(st.sampled_from([k for k in range(1, n + 1) if math.gcd(k, n) == 1]))
    return m, n, x, y, k


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_image_cases())
def test_image_is_the_ring_map_of_the_exact_side(case):
    # _image is zeta_n -> w on coordinates, for the certificates' (p, w) and
    # for the root search's (q^e, W): it commutes with lifting, products and
    # the Galois action zeta_n -> zeta_n^k, which sends w to w^k.
    m, n, x, y, k = case
    xn, z = _lift(x, m, n), _normalize(n, list(y), 1)
    q, v = linalg._prime_and_root(n, 1)
    for mod, w in (linalg._prime_and_root(n), (q ** 4, linalg._unit_lift(n, q, v, q ** 4)[0])):
        def image(num, c=n, w=w):
            return linalg._image(num, c, n, w, mod)

        assert image(xn) == image(x, m)
        assert image(_dot(n, ((xn, y),))) == image(xn) * image(y) % mod
        if n > 1:
            gz = galois_apply(z, GaloisElement(n, k))
            assert image(gz.num, z.conductor) == image(z.num, z.conductor, pow(w, k, mod))


@pytest.mark.parametrize("n", [1, 12])
def test_rank_survives_an_image_mod_p_that_loses_it(n):
    # With p the prime of the mod-p rank, diag(1 + p zeta_n, 1) is I mod p:
    # the rows of its coordinates and of I's agree there, and a matrix of
    # determinant p zeta_n has rank 1 there.  The exact echelon keeps rank 2.
    p = linalg._prime_and_root(n)[0]
    a = M([[1 + p * zeta(n), 0], [0, 1]])
    powers = M([list(Matrix.identity(2).entries), list(a.entries)])
    with mock.patch.object(linalg, "_echelon_add", wraps=linalg._echelon_add) as exact:
        assert rank_and_kernel_dim(powers) == (2, 2)
        assert exact.called
        exact.reset_mock()
        assert rank_and_kernel_dim(M([[1 + p * zeta(n), 1], [1, 1]])) == (2, 0)
        assert exact.called
        assert centralizer_dim(a) == 2


def test_centralizer_falls_back_to_the_exact_rank():
    # diag(1 + p, 1, 2) is regular, but diag(1, 1, 2) mod p is not: I, A, A^2
    # have rank 2 mod p, and the exact echelon finds 3.  A regular factor whose
    # image stays regular never reaches the exact echelon.
    p = linalg._prime_and_root(1)[0]
    with mock.patch.object(linalg, "_echelon_add", wraps=linalg._echelon_add) as exact:
        assert centralizer_dim(M([[1, 0, 0], [0, 2, 0], [0, 0, 3]])) == 3
        assert not exact.called
        assert centralizer_dim(M([[1 + p, 0, 0], [0, 1, 0], [0, 0, 2]])) == 3
        assert exact.called


def test_charpoly_examples():
    assert charpoly(M([[1, 1], [0, 1]])) == Polynomial.of([1, -2, 1])
    alpha, beta = zeta(3), rational(2)
    assert charpoly(M([[alpha, 0], [0, beta]])) == \
        Polynomial.of([alpha * beta, -(alpha + beta), 1])
    assert charpoly(M([[-3, 1], [-4, 1]])) == Polynomial.of([1, 2, 1])


def test_charpoly_monic_and_det():
    rng = random.Random(4)
    for _ in range(30):
        a = Matrix(2, 2, tuple(rng.choice(POOL) for _ in range(4)))
        p = charpoly(a)
        assert p.degree() == 2 and p.coeffs[-1] == one()
        assert p.coeffs[0] == a.det()  # (-1)^2 det


def test_cayley_hamilton():
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(20):
            a = Matrix(n, n, tuple(rng.choice(POOL) for _ in range(n * n)))
            acc = Matrix.scalar(n, 0)  # p(A) by Horner's rule
            for c in reversed(charpoly(a).coeffs):
                acc = a @ acc + Matrix.scalar(n, c)
            assert acc == Matrix.scalar(n, 0)


def test_charpoly_conjugation_invariant():
    rng = random.Random(6)
    for _ in range(25):
        a = Matrix(2, 2, tuple(rng.choice(POOL) for _ in range(4)))
        while True:
            h = Matrix(2, 2, tuple(rng.choice(POOL) for _ in range(4)))
            if h.det():
                break
        assert charpoly(h @ a @ h.inverse()) == charpoly(a)


def test_eigenvalues_examples():
    z3 = zeta(3)
    assert eigenvalues_split(M([[z3, 0], [0, -1]])) == _sorted([z3, rational(-1)])
    assert eigenvalues_split(M([[1, 1], [0, 1]])) == (one(), one())
    # Roots (1 +- sqrt(5))/2 lie in no quadratic inside the working field Q.
    assert eigenvalues_split(M([[0, 1], [1, 1]])) is None


def test_eigenvalues_nontriangular():
    h = M([[1, 1], [1, 2]])
    z5 = zeta(5)
    d = M([[z5, 0], [0, z5 ** 4]])
    assert eigenvalues_split(h @ d @ h.inverse()) == _sorted([z5, z5 ** 4])
    d2 = M([[rational(2) * zeta(3), 0], [0, zeta(3)]])
    assert eigenvalues_split(h @ d2 @ h.inverse()) == _sorted([rational(2) * zeta(3), zeta(3)])


def test_roots_found_in_degree_bounded_extension():
    # x^2 + 1 over Q resolves to +-zeta_4: the roots generate a quadratic
    # cyclotomic extension, which the search covers.
    assert poly_roots_in_field(Polynomial.of([1, 0, 1])) == _sorted([zeta(4), -zeta(4)])
    # A unit root one extension step up from a conductor-12 field.
    z24 = zeta(24)
    assert poly_roots_in_field(Polynomial.of([-zeta(12), 0, 1])) == _sorted([z24, -z24])


def test_eigenvalues_match_symmetric_functions():
    rng = random.Random(8)
    for _ in range(20):
        vals = [rng.choice([zeta(3), zeta(4), rational(2), rational(-1)]) for _ in range(2)]
        a = M([[vals[0], rng.choice(POOL)], [0, vals[1]]])
        ev = eigenvalues_split(a)
        assert ev is not None
        assert charpoly(a) == Polynomial.of([ev[0] * ev[1], -(ev[0] + ev[1]), 1])


def test_eigenvalues_on_conjugated_units():
    rng = random.Random(9)
    conjugators = [M([[1, 1], [1, 2]]), M([[2, 1], [3, 2]]), M([[1, 0], [2, 1]])]
    for _ in range(25):
        n = rng.choice([3, 4, 5, 8, 12, 24])
        vals = [zeta(n, rng.randrange(n)) * rational(rng.choice((1, -1)))
                for _ in range(2)]
        d = M([[vals[0], 0], [0, vals[1]]])
        h = rng.choice(conjugators)
        assert eigenvalues_split(h @ d @ h.inverse()) == _sorted(vals)
    # Rational multiples c u of roots of unity, c != +-1.
    for n in (1, 3, 4, 5, 8, 12, 24, 60):
        for c in (2, 3, Fraction(1, 2), Fraction(-1, 3)):
            vals = [rational(c) * zeta(n, rng.randrange(n)), zeta(n, rng.randrange(n))]
            d = M([[vals[0], 0], [0, vals[1]]])
            h = rng.choice(conjugators)
            assert eigenvalues_split(h @ d @ h.inverse()) == _sorted(vals), (n, c)


def test_eigenvalues_past_the_old_divisor_cap():
    # The norm's constant term c^4 |1 + i|^4 has over 4096 divisors, past
    # which a rational-root-theorem search gave up; the rule needs none.
    c = rational(2 * 3 * 5 * 7 * 11 * 13)
    vals = [c * zeta(3), 1 + zeta(4)]
    h = M([[1, 1], [1, 2]])
    assert eigenvalues_split(h @ M([[vals[0], 0], [0, vals[1]]]) @ h.inverse()) == _sorted(vals)


def _is_square(f: Fraction) -> bool:
    return f >= 0 and all(math.isqrt(v) ** 2 == v for v in (f.numerator, f.denominator))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 4)),
                min_size=4, max_size=4))
def test_rational_factors_split_by_the_discriminant(entries):
    # Over Q the reachable roots are c u with u^12 = 1: a quadratic splits when
    # its discriminant is a square or minus a square (roots in Q or Q(i)), or
    # when tr^2 = det (roots tr zeta_6^(+-1)).
    a, b, c, d = entries
    tr, det = a + d, a * d - b * c
    assume(det != 0)
    ev = eigenvalues_split(M([[a, b], [c, d]]))
    disc = tr * tr - 4 * det
    assert (ev is not None) == (_is_square(disc) or _is_square(-disc) or tr * tr == det)
    if ev is not None:
        assert ev[0] + ev[1] == rational(tr) and ev[0] * ev[1] == rational(det)


def test_rank3_roots_outside_the_entry_field():
    # (x^2 - 4 zeta_6)(x - 5) over Q(zeta_3): deflating 2 zeta_12 leaves
    # coefficients outside Q(zeta_3), which the rule handles like any other.
    z6 = zeta(6)
    expected = _sorted([rational(5), rational(2) * zeta(12), rational(-2) * zeta(12)])
    p = Polynomial.of([20 * z6, -4 * z6, -5, 1])
    assert poly_roots_in_field(p) == expected
    companion = M([[0, 0, -20 * z6], [1, 0, 4 * z6], [0, 1, 5]])
    assert eigenvalues_split(companion) == expected


def test_rational_roots_of_higher_degree():
    # Products of linear factors and a quadratic, against the rational root
    # theorem on the integerized polynomial.
    rng = random.Random(11)
    for _ in range(60):
        roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        poly = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(rng.randint(-5, 5)),
                Fraction(1)]
        for r in roots:
            poly = [a - r * b for a, b in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
        lead = math.lcm(*(c.denominator for c in poly))
        ints = [int(c * lead) for c in poly]
        k = next(i for i, c in enumerate(ints) if c)
        want = {Fraction(0)} if k else set()
        want |= {Fraction(sign * a, b) for a in range(1, abs(ints[k]) + 1) if ints[k] % a == 0
                 for b in range(1, lead + 1) if lead % b == 0 for sign in (1, -1)
                 if not sum(c * Fraction(sign * a, b) ** i for i, c in enumerate(poly))}
        assert sorted(_rational_roots(poly)) == sorted(want)


def test_polynomial_evaluation_and_deflation():
    p = Polynomial.of([-1, 0, 1])  # x^2 - 1
    assert not p(one())
    q = p.deflate(one())
    assert q == Polynomial.of([1, 1])
    assert p.deflate(rational(2)) is None


def test_nth_root_is_exact_beyond_float_range():
    # The oracle's exact square root of a quadratic remainder's discriminant,
    # on inputs far above the float range (a float root of 10**400 overflows).
    assert _rational_sqrt(Fraction(10 ** 400)) == 10 ** 200
    assert _rational_sqrt(Fraction(10 ** 400 + 1)) is None
    assert _rational_sqrt(Fraction(3 ** 200, 7 ** 300)) == Fraction(3 ** 100, 7 ** 150)
    assert _rational_sqrt(Fraction(-(10 ** 400))) is None


def test_nth_root_matches_bruteforce():
    roots = {Fraction(a, b) ** 2: Fraction(a, b) for a in range(90) for b in range(1, 7)}
    for den in range(1, 7):
        for m in range(200):
            assert _rational_sqrt(Fraction(m, den)) == roots.get(Fraction(m, den))


# ---------------------------------------------------------------------------
# The per-entry kernel that the coordinate kernel replaced: CycNum products and
# sums, each normalized on the spot.  It is kept as the oracle of the
# differential test below.  A matrix here is its row-major entry tuple.

def _oracle_matmul(n, k, m, a, b):
    # The n x k matrix a times the k x m matrix b.
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
    return tuple(out)


def _oracle_echelon_add(rows, vec):
    for piv, row in rows:
        c = vec[piv]
        if c:
            vec = [row[piv] * x - c * y for x, y in zip(vec, row)]
    piv = next((i for i, x in enumerate(vec) if x), None)
    if piv is not None:
        bisect.insort(rows, (piv, vec))
    return piv is not None


def _oracle_rank(r, c, ent):
    rows = []
    return sum(_oracle_echelon_add(rows, list(ent[i * c:(i + 1) * c])) for i in range(r))


def _oracle_identity(r):
    return tuple(one() if i % (r + 1) == 0 else zero() for i in range(r * r))


def _oracle_trace_recursion(r, ent):
    coeffs = [zero()] * r + [one()]
    m, am = _oracle_identity(r), ent
    for k in range(1, r + 1):
        c = -(sum(am[::r + 1], zero()) / k)
        coeffs[r - k] = c
        if k < r:
            m = tuple(x + c if i % (r + 1) == 0 else x for i, x in enumerate(am))
            am = _oracle_matmul(r, r, r, ent, m)
    return Polynomial(tuple(coeffs)), m


def _oracle_algebra_dim(r, gens):
    basis, queue = [], [_oracle_identity(r)]
    _oracle_echelon_add(basis, list(queue[0]))
    while queue and len(basis) < r * r:
        b = queue.pop()
        for g in gens:
            if len(basis) < r * r:
                w = _oracle_matmul(r, r, r, g, b)
                if _oracle_echelon_add(basis, list(w)):
                    queue.append(w)
    return len(basis)


def _oracle_centralizer_dim(r, a):
    rows = []
    for i in range(r):
        for j in range(r):
            row = [zero()] * (r * r)
            for k in range(r):
                row[i * r + k] = row[i * r + k] + a[k * r + j]
                row[k * r + j] = row[k * r + j] - a[i * r + k]
            rows += row
    return r * r - _oracle_rank(r * r, r * r, rows)


_CONDUCTORS = (1, 3, 4, 5, 8, 12, 24, 60)


@st.composite
def _mixed_matrices(draw, r):
    # An r x r matrix over Q(zeta_n) whose entries lie at conductors d | n
    # taken from the same list, so a matrix mixes them.
    n = draw(st.sampled_from(_CONDUCTORS))
    subs = [d for d in _CONDUCTORS if n % d == 0]

    def entry():
        d = draw(st.sampled_from(subs))
        coeffs = draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), min_size=d, max_size=d))
        den = draw(st.sampled_from((1, 1, 2, 3)))
        return CycNum.from_coeffs([Fraction(c, den) for c in coeffs], d)
    return Matrix(r, r, tuple(entry() for _ in range(r * r)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(_mixed_matrices(r), _mixed_matrices(r))))
def test_kernel_matches_the_per_entry_oracle(pair):
    a, b = pair
    r = a.rows
    prod = a @ b
    want = _oracle_matmul(r, r, r, a.entries, b.entries)
    assert prod.entries == want
    assert prod == Matrix(r, r, want) and hash(prod) == hash(Matrix(r, r, want))
    assert (a == b) == (a.entries == b.entries)
    assert (prod == b @ a) == (want == _oracle_matmul(r, r, r, b.entries, a.entries))
    diagonal = Matrix(r, r, tuple(x if i % (r + 1) == 0 else zero()
                                  for i, x in enumerate(a.entries)))
    for m in (diagonal, Matrix.scalar(r, a.entries[0]) @ prod.scale(0) + Matrix.scalar(r, b[0, 0])):
        assert m.is_scalar() == all(x == (m.entries[0] if i % (r + 1) == 0 else zero())
                                    for i, x in enumerate(m.entries))
        assert m.is_identity() == (m.entries == _oracle_identity(r))
    for m in (a, prod):
        poly, adj = _oracle_trace_recursion(r, m.entries)
        assert charpoly(m) == poly
        c0 = poly.coeffs[0]
        assert m.det() == (c0 if r % 2 == 0 else -c0)
        if c0:
            assert m.inverse().entries == tuple(x * (-c0.inverse()) for x in adj)
        else:
            with pytest.raises(NotInvertible):
                m.inverse()
        assert rank_and_kernel_dim(m)[0] == _oracle_rank(r, r, m.entries)
        assert centralizer_dim(m) == _oracle_centralizer_dim(r, m.entries)
        assert m.is_scalar() == all(x == (m.entries[0] if i % (r + 1) == 0 else zero())
                                    for i, x in enumerate(m.entries))
    # Two generators span all 16 dimensions at rank 4, where the row sizes
    # double with each kept row in both echelons (seconds per example at
    # conductor 60), so rank 4 spans the words in one generator.
    gens = [a, b] if r < 4 else [a]
    assert algebra_dim(gens) == _oracle_algebra_dim(r, [g.entries for g in gens])


@st.composite
def _rank2_matrices(draw):
    # A 2 x 2 matrix over Q(zeta_n) at the workloads' conductors, entries at
    # divisors of n over small denominators.
    n = draw(st.sampled_from((1, 3, 4, 8, 12, 24, 60)))
    subs = [d for d in (1, 3, 4, 8, 12, 24, 60) if n % d == 0]

    def entry():
        d = draw(st.sampled_from(subs))
        coeffs = draw(st.lists(st.sampled_from((0, 0, 1, -1, 2, -3)), min_size=d, max_size=d))
        den = draw(st.sampled_from((1, 2, 3, 7)))
        return CycNum.from_coeffs([Fraction(c, den) for c in coeffs], d)
    return Matrix(2, 2, tuple(entry() for _ in range(4)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_rank2_matrices())
def test_rank2_charpoly_matches_the_trace_recursion(a):
    # x^2 - tr(A) x + det(A) against the generic recursion, the reference.
    want = linalg._trace_recursion(a)[0]
    assert charpoly(a) == want
    assert a.det() == want.coeffs[0]


def _oracle_leibniz_det(r, ent):
    # sum over permutations s of sign(s) prod a_(i, s(i)).
    total = zero()
    for perm in itertools.permutations(range(r)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(r) for j in range(i + 1, r))
        term = rational(sign)
        for i, j in enumerate(perm):
            term = term * ent[i * r + j]
        total = total + term
    return total


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(3, 4).flatmap(_mixed_matrices))
def test_det_is_the_signed_constant_term_of_the_recursion(a):
    r = a.rows
    c0 = linalg._trace_recursion(a)[0].coeffs[0]
    assert a.det() == (c0 if r % 2 == 0 else -c0) == _oracle_leibniz_det(r, a.entries)


def test_products_that_descend_match_the_oracle():
    # h D h^-1 . h D^-1 h^-1 is the identity, computed at conductor 24.
    h = M([[2, 1], [1, 1]])
    d = M([[zeta(24), 0], [0, rational(3) * zeta(8)]])
    x, y = h @ d @ h.inverse(), h @ d.inverse() @ h.inverse()
    p = x @ y
    assert p.conductor == 24
    assert p.entries == _oracle_matmul(2, 2, 2, x.entries, y.entries) == Matrix.identity(2).entries
    assert p == Matrix.identity(2) and p.is_identity() and p.is_scalar()
    assert not Matrix.scalar(2, Fraction(1, 2)).is_identity()
    assert hash(p) == hash(Matrix.identity(2))
    assert centralizer_dim(p) == 4 and algebra_dim([p]) == 1
    assert charpoly(p) == Polynomial.of([1, -2, 1])


def test_eigenvalues_read_the_characteristic_polynomial_alone(monkeypatch):
    # The rule sees nothing of the basis: neither the conductor 24 at which a
    # product with rational entries is stored, nor the entries' field
    # Q(zeta_5) after a conjugation by a matrix over it.  Each factor below
    # has a rational characteristic polynomial, so the working field is Q.
    h = M([[2, 1], [1, 1]])
    d = M([[zeta(24), 0], [0, zeta(24, 5)]])
    p = (h @ d @ h.inverse()) @ (h @ M([[zeta(24, -1), 0], [0, zeta(24, 7)]]) @ h.inverse())
    assert p.conductor == 24 and all(e.conductor == 1 for e in p.entries)
    h5, a = M([[1, zeta(5)], [0, 1]]), M([[0, -1], [1, 0]])
    b = h5 @ a @ h5.inverse()
    assert b.conductor == 5
    polys = []
    original = linalg.poly_roots_in_field
    monkeypatch.setattr(linalg, "poly_roots_in_field",
                        lambda poly: polys.append(poly) or original(poly))
    assert eigenvalues_split(p) == eigenvalues_split(Matrix(2, 2, p.entries))
    assert eigenvalues_split(b) == eigenvalues_split(a) == _sorted([zeta(4), -zeta(4)])
    assert polys == [charpoly(p)] * 2 + [charpoly(a)] * 2
    assert all(c.conductor == 1 for poly in polys for c in poly.coeffs)


# ---------------------------------------------------------------------------
# The eigenvalue rule that the modular root search replaced, kept as the oracle
# of the differential test below: the rational parts pi(q_u) as Fractions, their
# rational roots by the quadratic formula or Sturm bisection, a CycNum Horner
# evaluation of p at every candidate, and a unit square root for a quadratic
# remainder.

@lru_cache(maxsize=None)
def _trace_weights(n: int) -> tuple[int, ...]:
    # Tr(zeta_n^e) from Q(zeta_n) to Q, for e in 0..n-1: zeta_n^e is a
    # primitive m-th root with m = n / gcd(e, n), whose trace over Q(zeta_m) is
    # the Moebius value mu(m): 0 unless m is squarefree, else (-1)^(#primes).
    phi = euler_phi(n)
    out = []
    for e in range(n):
        m = n // math.gcd(e, n)
        primes = _prime_divisors(m)
        mu = (-1) ** len(primes) if math.prod(primes) == m else 0
        out.append(mu * (phi // euler_phi(m)))
    return tuple(out)


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


def _oracle_rational_parts(z, n):
    # pi(z zeta_n^j) = Tr(z zeta_n^j) / phi(n) for j = 0..n-1.
    weights, step = _trace_weights(n), n // z.conductor
    terms = [(i * step, c) for i, c in enumerate(z.num) if c]
    den = z.den * euler_phi(n)
    return tuple(Fraction(sum(c * weights[(e + j) % n] for e, c in terms), den)
                 for j in range(n))


def _oracle_rational_roots(f):
    if len(f) == 3:
        b, c = f[1], f[0]
        s = _rational_sqrt(b * b - 4 * c)
        return [] if s is None else list(dict.fromkeys([(s - b) / 2, (-s - b) / 2]))
    return _rational_roots(f)


def _oracle_unit_root(p, big_n):
    if not p.coeffs[0]:
        return zero()
    d, lead = p.degree(), p.coeffs[-1]
    parts = [_oracle_rational_parts(c / lead, big_n) for c in p.coeffs[:-1]]
    for j in range(big_n // 2):
        proj = [parts[i][j * (i - d) % big_n] for i in range(d)] + [Fraction(1)]
        for c in _oracle_rational_roots(proj):
            if c:
                root = rational(c) * unit_exp(Fraction(j, big_n))
                if not p(root):
                    return root
    return None


def _oracle_poly_roots(p):
    # poly_roots_in_field as it was: deflate one root c u at a time, then a
    # quadratic remainder by the unit square root of its discriminant.
    if p.degree() < 1:
        return ()
    big_n = _extension_conductor(math.lcm(*(c.conductor for c in p.coeffs)), p.degree())
    roots = []
    while p.degree() > 1 and (root := _oracle_unit_root(p, big_n)) is not None:
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


def _poly_mul(f, g):
    out = [zero()] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = out[i + j] + x * y
    return out


@st.composite
def _eigen_polys(draw):
    # A monic polynomial of degree 2 or 3 over Q(zeta_n), n = 1..60: a product
    # of factors y - c zeta_n^k (rational roots times units of the field),
    # y^2 - c^2 zeta_n^k (roots in the degree-bounded extension) and
    # y^2 + e y + f with random e, f (mostly not split).
    n, r = draw(st.integers(1, 60)), draw(st.sampled_from((2, 3)))
    cs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))

    def unit_multiple(square):
        c = draw(cs)
        return rational(c * c if square else c) * zeta(n, draw(st.integers(0, n - 1)))

    def entry():
        return sum((rational(draw(st.integers(-3, 3))) * zeta(n, draw(st.integers(0, n - 1)))
                    for _ in range(draw(st.integers(1, 2)))), zero())
    poly = [one()]
    while len(poly) <= r:
        kind = draw(st.sampled_from(("linear", "root", "random")) if len(poly) < r
                    else st.just("linear"))
        factor = {"linear": lambda: [-unit_multiple(False), one()],
                  "root": lambda: [-unit_multiple(True), zero(), one()],
                  "random": lambda: [entry(), entry(), one()]}[kind]()
        poly = _poly_mul(poly, factor)
    return Polynomial.of(poly)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_eigen_polys())
def test_eigenvalue_rule_matches_the_candidate_check_oracle(p):
    assert poly_roots_in_field(p) == _oracle_poly_roots(p)


def test_p_is_evaluated_only_at_its_roots():
    # p = y^2 + i y - 1 has the roots zeta_12^7 and zeta_12^11, and its
    # rational part at u = 1, y^2 - 1, has the roots +-1, which are not roots
    # of p.  The lifted roots mod q give no such false candidate: p itself is
    # evaluated only at the first root found, and the other one is linear.
    p = Polynomial.of([-1, zeta(4), 1])
    evaluated, evaluate = [], Polynomial.__call__
    with mock.patch.object(Polynomial, "__call__",
                           lambda self, x: evaluated.append(x) or evaluate(self, x)):
        roots = poly_roots_in_field(p)
    assert roots == _sorted([zeta(12, 7), zeta(12, 11)])
    assert len(evaluated) == 1 and evaluated[0] in roots


def test_a_candidate_needs_the_exact_check():
    # a = 1 + 2 * 13^40 has the 13-adic square roots +-(1 + 13^40 - ...),
    # which agree with the integers +-(1 + 13^40) past the working precision
    # 13^64 (q = 13 at n = 1).  Those integers lie within Cauchy's bound, so
    # only p's exact value rejects them, here and for the discriminant 4a.
    a = 1 + 2 * 13 ** 40
    assert linalg._prime_and_root(_extension_conductor(1, 2), 1)[0] == 13
    assert _search_roots(Polynomial.of([-a, 0, 1])) is None
    assert _search_roots(Polynomial.of([-a * a, 0, 1])) == _sorted(
        [rational(a), rational(-a)])


def test_too_few_roots_mod_q_refuse_before_any_lift():
    # L = 12 and q = 13 over Q at degrees 2 and 3.  Were the roots of x^2 - 2
    # in Q(zeta_12), it would have two roots mod 13, and (x - 1)(x^2 - 2)
    # three; 2 is not a square mod 13, so each search stops at once, with no
    # lift, no exact evaluation and no second search on a discriminant.  3 is
    # a square mod 13, so the roots of x^2 - 3 are lifted, and the exact
    # search refuses them: sqrt 3 is no c u, nor is sqrt 12, the root of its
    # discriminant.
    assert {linalg._prime_and_root(_extension_conductor(1, d), 1)[0] for d in (2, 3)} == {13}
    lifts, evaluated, searches = [], [], []
    hensel, evaluate, simple = linalg._hensel, Polynomial.__call__, linalg._simple_roots
    with mock.patch.object(linalg, "_hensel", lambda *a: lifts.append(a) or hensel(*a)), \
            mock.patch.object(linalg, "_simple_roots",
                              lambda *a: searches.append(a) or simple(*a)), \
            mock.patch.object(Polynomial, "__call__",
                              lambda self, x: evaluated.append(x) or evaluate(self, x)):
        for coeffs in ([-2, 0, 1], [2, -2, -1, 1]):
            searches.clear()
            assert _search_roots(Polynomial.of(coeffs)) is None
            assert len(searches) == 1
        assert lifts == [] and evaluated == []
        assert _search_roots(Polynomial.of([-3, 0, 1])) is None
    assert len(lifts) == 4


@contextlib.contextmanager
def _search_steps():
    # Record each _simple_roots ("search"), _hensel ("lift") and
    # Polynomial.__call__ ("eval") call, in order.
    steps = []
    simple, hensel, evaluate = linalg._simple_roots, linalg._hensel, Polynomial.__call__
    with mock.patch.object(linalg, "_simple_roots",
                           lambda *a: steps.append("search") or simple(*a)), \
            mock.patch.object(linalg, "_hensel", lambda *a: steps.append("lift") or hensel(*a)), \
            mock.patch.object(Polynomial, "__call__",
                              lambda self, x: steps.append("eval") or evaluate(self, x)):
        yield steps


TRAP = 1 + 2 * 13 ** 40  # see test_a_candidate_needs_the_exact_check


@pytest.mark.parametrize("coeffs, roots", [
    ([6, -5, 1], [rational(2), rational(3)]),
    ([Fraction(-3, 2), Fraction(-5, 4), -1], None),
    ([-12, 10, -2], [rational(2), rational(3)]),
    ([0, Fraction(3, 5), 3], [rational(0), rational(Fraction(-1, 5))]),
    ([9, -6, 1], [rational(3), rational(3)]),
    ([4, -4, 2], [1 + zeta(4), 1 - zeta(4)]),
    ([4, 0, 1], [rational(2) * zeta(4), rational(-2) * zeta(4)]),
    ([Fraction(4, 9), Fraction(-2, 3), 1], [rational(Fraction(-2, 3)) * zeta(3),
                                            rational(Fraction(-2, 3)) * zeta(3, 2)]),
    ([7, 1, 1], None),
    ([3, 0, 1], None),
    ([10 ** 11 + 1, 2 * 10 ** 5 + 2, 1], None),
    # The quadratics of the two search tests above.
    ([-2, 0, 1], None),
    ([-3, 0, 1], None),
    ([-TRAP, 0, 1], None),
    ([-TRAP * TRAP, 0, 1], [rational(TRAP), rational(-TRAP)]),
])
def test_a_rational_quadratic_costs_one_evaluation_and_no_search(coeffs, roots):
    # Over Q the discriminant decides the rule, by math.isqrt: a split
    # quadratic has the one root it proposes checked once by p's exact value,
    # in deflate, the other is the linear quotient's, and it runs no modular
    # search or lift, so no 13-adic trap; an unsplit one runs nothing at all,
    # whatever its constant is mod 13.
    with _search_steps() as steps:
        got = poly_roots_in_field(Polynomial.of(coeffs))
    assert got == (None if roots is None else _sorted(roots))
    assert steps == ([] if roots is None else ["eval"])


@pytest.mark.parametrize("coeffs, steps", [
    # y^2 + i y - 1: the first root found, zeta_12^7 or zeta_12^11, is
    # accepted; the other one is the linear quotient's.
    ([-1, zeta(4), 1], ["search", "lift", "deflate", "eval"]),
    # (x - 1)^2 (x - 2): no root is simple mod 13, so the search serves the
    # squarefree part; 1 is accepted twice, and 2 is the linear quotient's.
    ([-2, 5, -4, 1], ["search", "search", "lift", "deflate", "eval", "deflate", "eval"]),
    # (x - 1)(x^2 - 2x + 2): 1 + i and 1 - i are no c u and propose nothing;
    # 1 is accepted, does not divide again, and the remainder's discriminant
    # -4 proposes one of 1 +- i.
    ([-2, 4, -3, 1], ["search", "lift", "lift", "lift", "deflate", "eval", "deflate", "eval",
                      "search", "lift", "deflate", "eval"]),
])
def test_a_root_accepted_by_the_search_costs_one_evaluation(coeffs, steps):
    # The search only proposes; Polynomial.deflate alone accepts a root, by
    # one exact evaluation of p, and divides it out.  No evaluation happens
    # outside deflate, and none is repeated as a remainder.
    deflate = Polynomial.deflate
    p = Polynomial.of(coeffs)
    with _search_steps() as got, mock.patch.object(
            Polynomial, "deflate", lambda self, x: got.append("deflate") or deflate(self, x)):
        roots = _search_roots(p)
    assert got == steps
    assert roots is not None and _from_roots(roots) == p


@st.composite
def _rational_quadratics(draw):
    # a (x^2 - s x + t) over Q with a of either sign: s and t from the roots
    # of one split family (x and y; x +- y i; x zeta_3^(+-1)), at random, or
    # heavy: norms near 10^11 as in the rational benchmark tuples, and the
    # 13-adic trap.  A zero root and a double root are drawn often.
    q = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
    a = draw(st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4)))
    kind = draw(st.sampled_from(("rational", "gaussian", "zeta3", "random", "heavy")))
    x = draw(q)
    y = x if draw(st.integers(0, 3)) == 0 else draw(q)
    if kind == "rational":
        s, t = x + y, x * y
    elif kind == "gaussian":
        s, t = 2 * x, x * x + y * y
    elif kind == "zeta3":
        s, t = -x, x * x
    elif kind == "random":
        s, t = x, y
    else:
        big = draw(st.sampled_from((TRAP, 10 ** 11 + 3))) + draw(st.integers(0, 10 ** 6))
        s, t = draw(st.sampled_from(((1, big), (0, -big), (0, -big * big), (0, big * big),
                                     (big, big * big), (big + 1, big), (2 * big, big * big))))
    return Polynomial.of([a * t, -a * s, a])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_rational_quadratics())
def test_the_closed_form_matches_the_search_on_rational_quadratics(p):
    assert repr(poly_roots_in_field(p)) == repr(_search_roots(p))


@st.composite
def _split_polys(draw):
    # (p, roots): p of degree 2 to 4 over Q(zeta_n), n = 1..60, a product of
    # factors y - c zeta_n^k and y^2 - c^2 zeta_n^k, whose roots +-c zeta_2n^k
    # lie in the degree-bounded extension, so the rule splits p.
    n, r = draw(st.integers(1, 60)), draw(st.integers(2, 4))
    cs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    poly, roots = [one()], []
    while len(roots) < r:
        c, k = draw(cs), draw(st.integers(0, n - 1))
        if len(roots) + 2 <= r and draw(st.booleans()):
            poly = _poly_mul(poly, [-rational(c * c) * zeta(n, k), zero(), one()])
            roots += [rational(c) * zeta(2 * n, k), rational(-c) * zeta(2 * n, k)]
        else:
            poly = _poly_mul(poly, [-rational(c) * zeta(n, k), one()])
            roots.append(rational(c) * zeta(n, k))
    return Polynomial.of(poly), roots


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_split_polys())
def test_the_mod_q_refusal_never_meets_a_split_polynomial(case):
    # Too few roots mod q refuse p at once; a split p must keep all its roots.
    p, roots = case
    assert poly_roots_in_field(p) == _sorted(roots)


def _from_roots(roots):
    poly = [one()]
    for r in roots:
        poly = _poly_mul(poly, [-r, one()])
    return Polynomial.of(poly)


@pytest.mark.parametrize("roots, n", [
    # Every root c u: the lifted roots mod q all count.
    ([rational(2), rational(-3), zeta(4), rational(Fraction(5, 2)) * zeta(3)], 12),
    # 1 = 14 = 27 (mod 13): no root is simple mod the first q, so the search
    # moves on to 37, the least prime = 1 (mod 12) above 2 * 13.
    ([rational(1), rational(14), rational(27)], 1),
    # 1 = 482 (mod 13 and mod 37): the search takes 97, the least such prime above 2 * 37.
    ([rational(1), rational(1 + 13 * 37)], 1),
    # 1 = 14 +- 13i (mod 13), and only 1 is c u: the search moves on to 37,
    # and so does the one for the remainder's discriminant -26^2.
    ([rational(1), 14 + rational(13) * zeta(4), 14 - rational(13) * zeta(4)], 1),
    # A repeated root c u: no prime has it simple, so p becomes p / gcd(p, p').
    ([rational(3) * zeta(5), rational(3) * zeta(5), rational(-1)], 5),
    # (x - (1 + i))^2 (x - 1): a repeated root that is not c u, left to the
    # quadratic remainder, whose discriminant is 0.
    ([1 + zeta(4), 1 + zeta(4), rational(1)], 4),
])
def test_roots_past_a_prime_that_merges_them(roots, n):
    p = _from_roots(roots)  # over Q(zeta_n), n the lcm of its coefficients' conductors
    assert math.lcm(*(c.conductor for c in p.coeffs)) == n
    assert poly_roots_in_field(p) == _search_roots(p) == _sorted(roots)


@pytest.mark.parametrize("q, count", [(13, 200), (241, 100), (2161, 30), (143401, 3)])
def test_simple_roots_match_trial(q, count):
    # The roots mod q from gcd(g, x^q - x), split by powers of x + a, against
    # trial of every residue, on monic g with a random factor and random
    # roots, one of them sometimes repeated; None when a root is not simple.
    rng = random.Random(q)
    for _ in range(count):
        roots = [rng.randrange(q) for _ in range(rng.randrange(4))]
        g = [rng.randrange(q) for _ in range(rng.randrange(3))] + [1]
        for r in roots + roots[:rng.randrange(2)]:
            g = [(x - r * y) % q for x, y in zip([0] + g, g + [0])]
        want = [x for x in range(q) if not linalg._horner(g, x, q)]
        dg = [i * c for i, c in enumerate(g)][1:]
        got = linalg._simple_roots(tuple(g), q)
        if all(linalg._horner(dg, x, q) for x in want):
            assert got is not None and sorted(got) == want
        else:
            assert got is None


def test_conjugated_jordan_block_has_its_double_root():
    # A conjugated Jordan block of c u: the characteristic polynomial
    # (x - c u)^2 has no simple root mod any prime, so the first prime must
    # serve its squarefree part; walking on to the next prime never ends.
    lam, h = rational(Fraction(-2, 3)) * zeta(8, 3), M([[2, 1], [3, 2]])
    a = h @ M([[lam, 1], [0, lam]]) @ h.inverse()
    primes, search = [], linalg._prime_and_root

    def counted(n, least=2 ** 30):
        primes.append(least)
        assert len(primes) < 10, "a repeated root sent the search past every prime"
        return search(n, least)
    with mock.patch.object(linalg, "_prime_and_root", counted):
        assert eigenvalues_split(a) == (lam, lam)
    assert primes == [1]
    assert poly_roots_in_field(charpoly(a)) == (lam, lam)


def test_a_repeated_root_outside_the_field_is_refused_at_the_first_prime():
    # (x^2 - x - 1)^2 over Q: L = 120, and every prime q = 1 (mod 120) is
    # 1 mod 5, so the double roots (1 +- sqrt 5) / 2 are double mod every
    # such q.  Only the exact squarefree part x^2 - x - 1 tells them from two
    # roots that met mod q: its roots mod 241 are simple and no c u, so p is
    # refused after one prime, by the search and through a basis alike.
    p = Polynomial.of([1, 2, -1, -2, 1])
    h = M([[1, 0, 0, 0], [1, 1, 0, 0], [2, -1, 1, 0], [0, 1, 2, 1]]) @ \
        M([[1, 2, 0, 1], [0, 1, -1, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
    a = h @ M([[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]) @ h.inverse()
    assert charpoly(a) == p and _extension_conductor(1, 4) == 120
    primes, search = [], linalg._prime_and_root

    def counted(n, least=2 ** 30):
        found = search(n, least)
        primes.append(found[0])
        return found
    with mock.patch.object(linalg, "_prime_and_root", counted):
        assert poly_roots_in_field(p) is None
        assert primes == [241]
        assert eigenvalues_split(a) is None
    assert primes == [241, 241]


@pytest.mark.parametrize("degree, big_n, below", [(2, 12, 4 * 10 ** 4), (4, 120, 28 * 10 ** 4)])
def test_a_discriminant_of_many_primes_costs_few_of_them(degree, big_n, below):
    # The roots 1 and 1 + P meet mod every prime = 1 (mod big_n) that divides
    # P, here all of them below ``below`` (about 1000 and 750 primes).  After
    # each failed prime the next one is above twice it, so the search tries
    # about log2(below / q) primes, not one per prime factor of P.  The
    # search is called itself: poly_roots_in_field decides a quadratic over Q
    # by its discriminant.
    primes = [x for x in range(big_n + 1, below, big_n)
              if all(x % d for d in range(2, math.isqrt(x) + 1))]
    roots = [rational(r) for r in (1, 1 + math.prod(primes), 2, 3)[:degree]]
    assert _extension_conductor(1, degree) == big_n
    calls, search = [], linalg._prime_and_root

    def counted(n, least=2 ** 30):
        calls.append(least)
        return search(n, least)
    with mock.patch.object(linalg, "_prime_and_root", counted):
        assert _search_roots(_from_roots(roots)) == _sorted(roots)
    assert len(calls) <= 2 + math.log2(below / primes[0])
