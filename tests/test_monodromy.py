import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import legendre_tuple, levelt_triple, monic, random_tuple
from rigidmono import (CycNum, EigenData, Matrix, MonodromyTuple, Polynomial, centralizer_dim,
                       common_eigenvector_exists, det_data, is_irreducible, katz_report, mon,
                       one, rank2_classify, rank_and_kernel_dim, rational, scalar_points, zero,
                       zeta)
from rigidmono.cyclotomic import cyclotomic_polynomial
from rigidmono.errors import NotApplicable, NotInvertible, RelationViolation, ShapeError
from rigidmono.linalg import _full_span_mod_p, _is_prime, _prime_and_root, algebra_dim

M = Matrix.from_rows


def _scalar_triple(a, b):
    return MonodromyTuple.of([Matrix.scalar(2, a), Matrix.scalar(2, b),
                              Matrix.scalar(2, (a * b).inverse())])


def test_validation_accepts_identity_triple():
    t = MonodromyTuple.of([Matrix.identity(2)] * 3)
    assert t.rank == 2 and t.punctures == 3


def test_validation_accepts_legendre():
    t = legendre_tuple()
    prod = t.matrices[0] @ t.matrices[1] @ t.matrices[2]
    assert prod == Matrix.identity(2)


def test_validation_rejects_short_tuple():
    with pytest.raises(ShapeError):
        MonodromyTuple.of([Matrix.identity(2)] * 2)


def test_validation_rejects_broken_relation():
    with pytest.raises(RelationViolation):
        MonodromyTuple.of([M([[1, 1], [0, 1]]), Matrix.identity(2), Matrix.identity(2)])


def test_validation_rejects_singular_factor():
    with pytest.raises(NotInvertible):
        MonodromyTuple.of([M([[1, 1], [0, 0]]), Matrix.identity(2), Matrix.identity(2)])


_FOLD_CONDUCTORS = (1, 3, 4, 8, 12, 24, 60)


def _naive_validation(mats):
    # The oracle: the ordered product of every factor, scalar or not, against
    # I; when it fails, the first singular factor is named, else the relation.
    prod = mats[0]
    for g in mats[1:]:
        prod = prod @ g
    if prod == Matrix.identity(prod.rows):
        return None
    for i, g in enumerate(mats):
        if not g.det():
            return NotInvertible, f"matrix {i + 1} is singular"
    return RelationViolation, "ordered product of the tuple is not the identity"


@st.composite
def _tuples_with_scalars(draw):
    # A tuple closed by the inverse of its product, at rank 1-3 over Q(zeta_n),
    # with scalar factors c I and c^-1 I inserted in pairs at random positions
    # (c = -1, zeta_n or a random value), and at most one more scalar: 0 I, or
    # one that breaks the relation.  With no non-scalar draw it is all scalar.
    n, r = draw(st.sampled_from(_FOLD_CONDUCTORS)), draw(st.integers(1, 3))
    subs = [d for d in _FOLD_CONDUCTORS if n % d == 0]

    def value():
        d = draw(st.sampled_from(subs))
        coeffs = draw(st.lists(st.sampled_from((0, 0, 1, -1, 2)), min_size=d, max_size=d))
        return CycNum.from_coeffs([Fraction(c, draw(st.sampled_from((1, 2, 3)))) for c in coeffs],
                                  d)

    def unit():
        c = draw(st.sampled_from((rational(-1), zeta(n), None)))
        c = value() if c is None else c
        assume(c)
        return c

    def insert(c):
        mats.insert(draw(st.integers(0, len(mats))), Matrix.scalar(r, c))

    mats = [Matrix(r, r, tuple(value() for _ in range(r * r)))
            for _ in range(draw(st.integers(0, 3)))]
    mats += [Matrix.scalar(r, unit()) for _ in range(draw(st.integers(0, 2)))]
    mats = list(draw(st.permutations(mats)))
    prod = Matrix.identity(r)
    for g in mats:
        prod = prod @ g
    assume(prod.det())
    mats.append(prod.inverse())
    for _ in range(draw(st.integers(0, 3))):
        c = unit()
        insert(c)
        insert(c.inverse())
    breaker = draw(st.sampled_from((None, "zero", "off")))
    if breaker == "zero":
        insert(rational(0))
    elif breaker == "off":
        c = unit()
        assume(c != one())
        insert(c)
    while len(mats) < 3:
        insert(one())
    return mats


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_tuples_with_scalars())
def test_folded_validation_matches_the_ordered_product(mats):
    # MonodromyTuple folds the central factors into one number; it accepts or
    # refuses, naming the same factor, exactly as the ordered product does.
    want = _naive_validation(mats)
    try:
        MonodromyTuple.of(mats)
        got = None
    except (NotInvertible, RelationViolation) as exc:
        got = type(exc), str(exc)
    assert got == want


def test_fold_sees_a_scalar_non_scalar_product():
    # g1 g2 = 2 I with g1, g2 non-scalar: the scalar factor 1/2 closes the relation, 1 does not.
    g = M([[0, 1], [2, 0]])
    assert MonodromyTuple.of([g, Matrix.scalar(2, Fraction(1, 2)), g]).punctures == 3
    with pytest.raises(RelationViolation):
        MonodromyTuple.of([g, Matrix.identity(2), g])


def test_centralizer_dimensions_2_4_2():
    rng = random.Random(42)
    units = [zeta(3), zeta(4), rational(2), rational(-1), zeta(8), rational(Fraction(1, 3))]
    for _ in range(20):
        alpha = rng.choice(units)
        beta = rng.choice([u for u in units if u != alpha])
        assert centralizer_dim(M([[alpha, 0], [0, beta]])) == 2
        assert centralizer_dim(Matrix.scalar(2, alpha)) == 4
        assert centralizer_dim(M([[alpha, 1], [0, alpha]])) == 2


def test_centralizer_dim_rank3():
    assert centralizer_dim(Matrix.identity(3)) == 9
    assert centralizer_dim(M([[1, 0, 0], [0, 2, 0], [0, 0, 3]])) == 3


def test_irreducibility_examples():
    assert is_irreducible(legendre_tuple())
    diag = MonodromyTuple.of([M([[2, 0], [0, 3]]),
                              M([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]),
                              Matrix.identity(2)])
    assert not is_irreducible(diag)
    assert not is_irreducible(_scalar_triple(zeta(3), rational(2)))


def test_burnside_agrees_with_common_eigenvector():
    rng = random.Random(9)
    checked = 0
    for _ in range(150):
        t = random_tuple(rng, rng.choice([3, 4, 5]))
        ce = common_eigenvector_exists(t)
        if ce is None:
            continue
        checked += 1
        assert is_irreducible(t) == (not ce)
    assert checked > 40


def _burnside_with_inverses(t: MonodromyTuple) -> bool:
    # The earlier closure, kept as an oracle: words in the g_i and their
    # inverses, in a basis of its own that reduces each new word by
    # cross-multiplication against the rows kept so far.
    r = t.rank
    gens = list(t.matrices) + [g.inverse() for g in t.matrices]
    basis = []  # (pivot, vector), sorted by pivot

    def add(mat):
        vec = list(mat.entries)
        for piv, base in basis:
            if vec[piv]:
                vec = [base[piv] * x - vec[piv] * y for x, y in zip(vec, base)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is not None:
            basis.append((piv, vec))
            basis.sort(key=lambda pair: pair[0])
        return piv is not None

    queue = [Matrix.identity(r)]
    add(queue[0])
    while queue and len(basis) < r * r:
        b = queue.pop()
        queue += [w for g in gens if add(w := g @ b)]
    return len(basis) == r * r


_ENTRIES = st.sampled_from([rational(x) for x in (0, 1, -1, 2)] + [zeta(3), zeta(4)])


@st.composite
def _tuples(draw):
    # s - 1 factors closed by the inverse of their product.  With split = k > 0
    # every factor keeps span(e_1, ..., e_k) and the tuple is conjugated by a
    # random h, which hides the block-triangular shape: a reducible tuple.
    r, s = draw(st.sampled_from([2, 3])), draw(st.integers(3, 4))
    split = draw(st.integers(1, r - 1)) if draw(st.booleans()) else 0

    def invertible(block):
        m = Matrix(r, r, tuple(zero() if block and i >= split > j else draw(_ENTRIES)
                               for i in range(r) for j in range(r)))
        assume(m.det())
        return m

    mats = [invertible(True) for _ in range(s - 1)]
    prod = Matrix.identity(r)
    for g in mats:
        prod = prod @ g
    t = MonodromyTuple.of(mats + [prod.inverse()])
    return split, (t.conjugated(invertible(False)) if split else t)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_tuples())
def test_burnside_on_the_generators_alone_agrees_with_the_inverse_closure(drawn):
    split, t = drawn
    assert is_irreducible(t) == _burnside_with_inverses(t)
    if split:
        assert not is_irreducible(t)


def test_katz_report_legendre():
    rep = katz_report(legendre_tuple())
    assert rep.centralizer_dims == (2, 2, 2)
    assert rep.total == 6 and rep.threshold == 6 and rep.defect == 0
    assert rep.verdict == "rigid"


def test_katz_report_s4_nonscalar_quadruple():
    # Four non-scalar factors, irreducible: sum 8 against threshold 10.
    g1 = M([[1, -1], [4, -3]])
    g2 = M([[1, 1], [0, 1]])
    g3 = M([[2, 0], [0, 1]])
    g4 = (g1 @ g2 @ g3).inverse()
    t = MonodromyTuple.of([g1, g2, g3, g4])
    assert not any(g.is_scalar() for g in t.matrices)
    rep = katz_report(t)
    assert rep.is_irreducible
    assert rep.total == 8 and rep.threshold == 10 and rep.defect == 2
    assert rep.verdict == "not-rigid"
    cls = rank2_classify(t)
    assert not cls.rigid and cls.component_triple is None


def test_katz_report_reducible_not_applicable():
    diag = MonodromyTuple.of([M([[2, 0], [0, 3]]),
                              M([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]),
                              Matrix.identity(2)])
    assert katz_report(diag).verdict == "not-applicable(reducible)"


def test_rank2_classify_legendre_and_extension():
    cls = rank2_classify(legendre_tuple())
    assert cls.nonscalar_points == frozenset({1, 2, 3})
    assert cls.rigid and cls.component_triple == frozenset({1, 2, 3})
    ext = MonodromyTuple.of(list(legendre_tuple().matrices)
                            + [Matrix.identity(2), Matrix.identity(2)])
    cls5 = rank2_classify(ext)
    assert cls5.component_triple == frozenset({1, 2, 3})


def test_rank2_classify_rejects_reducible():
    with pytest.raises(NotApplicable):
        rank2_classify(_scalar_triple(rational(2), rational(3)))


def test_mon_legendre():
    data = mon(legendre_tuple())
    assert data.charpolys == (Polynomial.of([1, 2, 1]),
                              Polynomial.of([1, -2, 1]),
                              Polynomial.of([1, -2, 1]))
    assert data.eigen == EigenData.of([[rational(-1)] * 2, [one()] * 2, [one()] * 2])


def test_mon_scalar_point():
    lam = zeta(3)
    t = _scalar_triple(lam, lam)
    data = mon(t)
    assert data.charpolys[0] == Polynomial.of([lam * lam, -(lam + lam), 1])
    assert data.eigen.points[0] == (lam, lam)


def test_det_data_examples():
    assert det_data(legendre_tuple()) == (one(),) * 3
    a, b = zeta(3), zeta(4)
    t = _scalar_triple(a, b)
    assert det_data(t) == (a ** 2, b ** 2, (a * b).inverse() ** 2)


def test_det_product_is_one():
    rng = random.Random(10)
    for _ in range(40):
        t = random_tuple(rng, rng.choice([3, 4, 5, 6]))
        prod = one()
        for d in det_data(t):
            prod = prod * d
        assert prod == one()


def _triangular_tuple():
    # Upper triangular factors with the eigenvalues 1 + i, 2 + 2i and 1 - i,
    # which are not (rational) x (root of unity): the diagonal shows them, but
    # the characteristic polynomials do not split by the rule, in any basis.
    i = zeta(4)
    g1, g2 = M([[1 + i, 1], [0, 2 + 2 * i]]), M([[3, 1], [0, 1 - i]])
    return MonodromyTuple.of([g1, g2, (g1 @ g2).inverse()])


def test_conjugation_invariance():
    rng = random.Random(12)
    h = M([[1, 2], [1, 3]])
    cases = [(random_tuple(rng, rng.choice([3, 4])), h) for _ in range(25)]
    # Over Q(zeta_5) the conjugator grows the entries' field, not the
    # characteristic polynomials' field.
    cases += [(_triangular_tuple(), h), (_triangular_tuple(), M([[1, zeta(5)], [0, 1]]))]
    for t, g in cases:
        tc = t.conjugated(g)
        assert katz_report(t).verdict == katz_report(tc).verdict
        assert mon(t).charpolys == mon(tc).charpolys
        assert mon(t).eigen == mon(tc).eigen
        assert det_data(t) == det_data(tc)
        if is_irreducible(t):
            assert rank2_classify(t) == rank2_classify(tc)


def test_scalar_twist_preserves_centralizers_and_defect():
    rng = random.Random(13)
    twists = [rational(2), rational(-1), zeta(4), rational(Fraction(1, 2))]
    for _ in range(25):
        s = rng.choice([3, 4])
        t = random_tuple(rng, s)
        cs = [rng.choice(twists) for _ in range(s - 1)]
        prod = one()
        for c in cs:
            prod = prod * c
        cs.append(prod.inverse())
        twisted = MonodromyTuple.of([m.scale(c) for m, c in zip(t.matrices, cs)])
        assert katz_report(twisted).centralizer_dims == katz_report(t).centralizer_dims
        assert katz_report(twisted).defect == katz_report(t).defect
        assert scalar_points(twisted) == scalar_points(t)
        assert det_data(twisted) == tuple(c * c * d
                                          for c, d in zip(cs, det_data(t)))


def test_defect_zero_iff_three_nonscalar():
    rng = random.Random(14)
    seen_irreducible = 0
    for _ in range(150):
        s = rng.choice([3, 4, 5, 6])
        t = random_tuple(rng, s)
        rep = katz_report(t)
        if not rep.is_irreducible:
            continue
        seen_irreducible += 1
        nonscalar = s - len(scalar_points(t))
        assert (rep.defect == 0) == (nonscalar == 3)
    assert seen_irreducible > 50


@st.composite
def _levelt_exponents(draw, r: int):
    # a_i = zeta_n^(k_i) and b_j = zeta_n^(l_j) at one conductor n <= 60; half the
    # draws force a shared value, so both verdicts occur.  Equal multisets would
    # make A = B and the middle factor the identity, outside Levelt's setting.
    n = draw(st.integers(1, 60))
    exponents = st.lists(st.integers(0, n - 1), min_size=r, max_size=r)
    ks, ls = draw(exponents), draw(exponents)
    if draw(st.booleans()):
        ls[draw(st.integers(0, r - 1))] = ks[draw(st.integers(0, r - 1))]
    assume(sorted(ks) != sorted(ls))
    return [zeta(n, k) for k in ks], [zeta(n, k) for k in ls]


@pytest.mark.parametrize("r", [2, 3, 4])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_levelt_hypergeometric_triples(r, data):
    # Levelt: with A, B the companion matrices of prod(x - a_i) and prod(x - b_j),
    # (A, A^-1 B, B^-1) is a tuple whose middle factor is a pseudo-reflection
    # (B - A has rank one).  A and B^-1 are regular, so the centralizers have
    # dimensions r, (r - 1)^2 + 1, r, summing to the rigidity threshold r^2 + 2;
    # the tuple is irreducible exactly when no a_i equals a b_j (Beukers-Heckman).
    a, b = data.draw(_levelt_exponents(r))
    t = levelt_triple(a, b)
    reducible = any(x == y for x in a for y in b)
    rep = katz_report(t)
    assert rep.centralizer_dims == (r, (r - 1) ** 2 + 1, r)
    assert rep.verdict == ("not-applicable(reducible)" if reducible else "rigid")
    lam = math.prod(b, start=one()) * math.prod(a, start=one()).inverse()
    factors = [a, [one()] * (r - 1) + [lam], [y.inverse() for y in b]]
    data = mon(t)  # charpoly and eigenvalues_split of each factor
    assert data.charpolys == tuple(Polynomial.of(monic(roots)) for roots in factors)
    assert data.eigen == EigenData.of(factors)
    if r == 2:
        assert common_eigenvector_exists(t) is reducible


# A fixed unimodular conjugator per rank, which hides a block-triangular shape.
_HIDE = {r: Matrix.from_rows([[int(j >= i) for j in range(r)] for i in range(r)])
         @ Matrix.from_rows([[(-1) ** (i + j) if j <= i else 0 for j in range(r)] for i in range(r)])
         for r in (2, 3, 4)}


@st.composite
def _centralizer_cases(draw, r: int):
    # An r x r matrix over Q(zeta_n), n <= 60, conjugated by _HIDE[r]: random,
    # scalar, diagonal with a repeated eigenvalue, Jordan blocks (equal
    # neighbours on the diagonal may be joined by a 1 above it), or a
    # pseudo-reflection I + u v^T.
    kind = draw(st.sampled_from(["random", "scalar", "diagonal", "jordan", "reflection"]))
    n = draw(st.integers(1, 60))

    def entry(values=(0, 0, 1, -1, 2, Fraction(1, 2))):
        return rational(draw(st.sampled_from(values))) * zeta(n, draw(st.integers(0, n - 1)))

    def diagonal(values):
        return [x if i == j else zero() for i, x in enumerate(values) for j in range(r)]
    pool = [entry((1, -1, 2, 3, Fraction(1, 2))) for _ in range(2)]
    if kind == "random":
        ent = [entry() for _ in range(r * r)]
    elif kind == "scalar":
        ent = diagonal(pool[:1] * r)
    elif kind == "diagonal":
        ent = diagonal(pool[:1] * 2 + [draw(st.sampled_from(pool)) for _ in range(r - 2)])
    elif kind == "jordan":
        lam = [draw(st.sampled_from(pool)) for _ in range(r)]
        ent = diagonal(lam)
        for i in range(r - 1):
            if lam[i] == lam[i + 1] and draw(st.booleans()):
                ent[i * r + i + 1] = one()
    else:
        u, v = [entry() for _ in range(r)], [entry() for _ in range(r)]
        ent = [(one() if i == j else zero()) + u[i] * v[j] for i in range(r) for j in range(r)]
    a = Matrix(r, r, tuple(ent))
    assume(kind != "reflection" or a.det())
    return kind, _HIDE[r] @ a @ _HIDE[r].inverse()


@pytest.mark.parametrize("r", [2, 3, 4])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_centralizer_dim_matches_the_exact_kernel(r, data):
    # The oracle is the kernel of X -> XA - AX, built here from the entries.
    # It always contains I and A, so it is never of full rank, and its rank
    # always comes from the exact echelon.  (Rank 5 is left out: a 25 x 25
    # exact kernel at conductor 41 takes about a second.)
    kind, a = data.draw(_centralizer_cases(r))
    e, rows = a.entries, []
    for i in range(r):
        for j in range(r):
            row = [zero()] * (r * r)
            for k in range(r):
                row[i * r + k] += e[k * r + j]
                row[k * r + j] -= e[i * r + k]
            rows += row
    dim = centralizer_dim(a)
    assert dim == rank_and_kernel_dim(Matrix(r * r, r * r, tuple(rows)))[1]
    assert dim == r * r if kind == "scalar" else dim >= r
    if kind == "diagonal":
        assert dim > r  # a repeated eigenvalue on a diagonal is derogatory
    if kind == "reflection":
        assert dim >= (r - 1) ** 2 + 1  # the eigenvalue 1 has r - 1 dimensions


@st.composite
def _certificate_cases(draw, r: int):
    # (tuple, exact Burnside verdict): random tuples (s - 1 factors closed by the
    # inverse of their product), block-triangular ones (reducible) conjugated by
    # _HIDE[r], and Levelt triples, irreducible exactly when no root is shared.
    # The exact echelon of a rank-4 tuple at conductor 60 takes seconds (ROADMAP
    # item 1), so random and block tuples at rank 4 stay at conductors 1 to 6.
    kind = draw(st.sampled_from(["random", "block", "levelt"]))
    if kind == "levelt":
        a, b = draw(_levelt_exponents(r))
        return levelt_triple(a, b), not any(x == y for x in a for y in b)
    n = draw(st.integers(1, 6 if r == 4 else 60))
    split = draw(st.integers(1, r - 1)) if kind == "block" else 0

    def entry():
        c = draw(st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2))))
        return rational(c) * zeta(n, draw(st.integers(0, n - 1)))

    def factor():
        m = Matrix(r, r, tuple(zero() if i >= split > j else entry()
                               for i in range(r) for j in range(r)))
        assume(m.det())
        return m

    mats = [factor() for _ in range(draw(st.integers(2, 3)))]
    prod = mats[0]
    for g in mats[1:]:
        prod = prod @ g
    t = MonodromyTuple.of(mats + [prod.inverse()])
    if split:
        return t.conjugated(_HIDE[r]), False
    return t, algebra_dim(t.matrices) == r * r


@pytest.mark.parametrize("r", [2, 3, 4])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_modular_certificate_is_sound(r, data):
    # A full span mod p is a proof; anything else leaves the verdict to the exact span.
    t, exact = data.draw(_certificate_cases(r))
    assert exact or not _full_span_mod_p(t.matrices)
    assert is_irreducible(t) == exact
    if not exact:
        assert algebra_dim(t.matrices) < r * r


def test_certificate_prime_and_root():
    # p is prime (trial division), p = 1 (mod n), and w is a root of Phi_n of
    # exact order n mod p: zeta_n -> w is a ring map Z[zeta_n] -> F_p.
    for n in [*range(1, 61), 120, 210, 240]:
        p, w = _prime_and_root(n)
        assert p > 2 ** 30 and (p - 1) % n == 0
        assert all(p % q for q in range(3, math.isqrt(p) + 1, 2)) and p % 2
        assert pow(w, n, p) == 1 and all(pow(w, k, p) != 1 for k in range(1, n) if n % k == 0)
        assert sum(c * pow(w, i, p) for i, c in enumerate(cyclotomic_polynomial(n))) % p == 0
    # The Miller-Rabin test agrees with trial division on the odd numbers just above 2^30.
    assert [m for m in range(2 ** 30 + 1, 2 ** 30 + 2000, 2) if _is_prime(m)] == [
        m for m in range(2 ** 30 + 1, 2 ** 30 + 2000, 2)
        if all(m % q for q in range(3, math.isqrt(m) + 1, 2))]


def test_is_prime_matches_trial_division():
    # Every m below 10^4, the small primes (a base equal to m) included.
    assert [m for m in range(10 ** 4) if _is_prime(m)] == [
        m for m in range(2, 10 ** 4) if all(m % q for q in range(2, math.isqrt(m) + 1))]
    # The root search's primes: the least p = 1 (mod n) above a lower bound.
    assert [_prime_and_root(12, least)[0] for least in (1, 13, 37)] == [13, 37, 61]
    assert _prime_and_root(120, 1)[0] == 241


@pytest.mark.parametrize("n", [1, 12])
def test_burnside_falls_back_when_the_prime_divides_everything(n):
    # Every numerator a multiple of the chosen p: the images vanish, the
    # certificate fails, and the exact span answers.
    p = _prime_and_root(n)[0]
    u = zeta(n)
    gens = [M([[p, p * u], [0, 2 * p]]), M([[p, 0], [p * u, 3 * p]])]
    assert not _full_span_mod_p(gens) and algebra_dim(gens) == 4
    # A tuple whose numerators are all I mod p, irreducible over Q(zeta_n).
    g1, g2 = M([[1, p * u], [0, 1]]), M([[1, 0], [p, 1]])
    t = MonodromyTuple.of([g1, g2, (g1 @ g2).inverse()])
    assert not _full_span_mod_p(t.matrices)
    assert is_irreducible(t)


def test_rank5_burnside_answers_within_a_second():
    # ROADMAP item 1: the exact span of this Levelt triple took more than 150 s.
    a = [zeta(24, k) for k in (1, 5, 7, 11, 13)]
    b = [zeta(24, k) for k in (2, 3, 4, 6, 8)]
    t = levelt_triple(a, b)
    start = time.perf_counter()
    assert is_irreducible(t)
    assert time.perf_counter() - start < 1
