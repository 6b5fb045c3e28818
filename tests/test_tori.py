import itertools
import random
import time
from datetime import timedelta
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_product_one_eigen
from rigidmono import (TorsionCoset, TorusFormula, coset_intersect, coset_membership,
                       deligne_residues, enumerate_torsion, formula_eval, monomial_preimage,
                       nonsimple_locus_formula, nonsimple_test_s3, residue_vector,
                       smith_normal_form)
from rigidmono.errors import BudgetExceeded, ShapeError
from rigidmono.serialize import coset_to_json
from rigidmono.tori import solve_congruences

F = Fraction


def _grid_scan(c, b):
    """Oracle: the points of the grid (1/b) Z^N in [0, 1)^N on the coset, as
    numerators over b, by testing every one of the b^N points in integers."""
    if c.empty:
        return set()
    # Integer form of each condition: sum(i_j v_j) * (M/b) = M * <t, v> (mod M).
    conds = []
    for row in c.relations:
        t = sum(x * v for x, v in zip(c.translate, row))
        m = lcm(b, t.denominator)
        conds.append((row, m // b, int(t * m), m))
    out = set()
    for idx in itertools.product(range(b), repeat=c.dim):
        if all((sum(i * v for i, v in zip(idx, row)) * scale - target) % mod == 0
               for row, scale, target, mod in conds):
            out.add(idx)
    return out


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _intdet(m):
    n = len(m)
    rows = [[F(x) for x in r] for r in m]
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    det = F(sign)
    for i in range(n):
        det *= rows[i][i]
    return det


def test_smith_normal_form_properties():
    rng = random.Random(51)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        s, u, v = smith_normal_form(a)
        assert _matmul(_matmul(u, a), v) == s
        assert abs(_intdet(u)) == 1 and abs(_intdet(v)) == 1
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert s[i][j] == 0
        diag = [s[i][i] for i in range(min(m, n))]
        for x, y in zip(diag, diag[1:]):
            assert (y % x == 0) if x else (y == 0)


def test_membership_examples():
    c = TorsionCoset.of(2, [[1, 0]], [F(1, 2), 0])
    assert coset_membership([F(1, 2), F(1, 3)], c)
    assert not coset_membership([F(1, 3), 0], c)
    ident = TorsionCoset.of(2, [[1, 0], [0, 1]], [0, 0])
    assert coset_membership([0, 0], ident)
    assert not coset_membership([0, F(1, 2)], ident)
    assert coset_membership(list(c.translate), c)


def test_membership_shape_error():
    c = TorsionCoset.of(2, [[1, 0]], [0, 0])
    with pytest.raises(ShapeError):
        coset_membership([0], c)


def test_intersect_point():
    x1 = TorsionCoset.of(2, [[1, 0]], [0, 0])
    y1 = TorsionCoset.of(2, [[0, 1]], [0, 0])
    pt = coset_intersect(x1, y1)
    assert enumerate_torsion(pt, 6) == {(0, 0)}


def test_intersect_inconsistent_is_empty():
    a = TorsionCoset.of(2, [[1, 1]], [0, 0])
    b = TorsionCoset.of(2, [[1, 1]], [F(1, 4), F(1, 4)])
    out = coset_intersect(a, b)
    assert out.empty
    assert enumerate_torsion(out, 8) == set()
    assert not coset_membership([0, 0], out)


def test_intersect_subgroup_with_point():
    xsq = TorsionCoset.of(1, [[2]], [0])
    xm1 = TorsionCoset.of(1, [[1]], [F(1, 2)])
    out = coset_intersect(xsq, xm1)
    assert enumerate_torsion(out, 12) == {(6,)}


def test_intersect_brute_force_equivalence():
    rng = random.Random(52)
    for _ in range(60):
        n = rng.randint(1, 3)
        def rand_coset():
            rows = [[rng.randint(-3, 3) for _ in range(n)]
                    for _ in range(rng.randint(1, 2))]
            tau = [F(rng.randint(0, 5), rng.randint(1, 6)) for _ in range(n)]
            return TorsionCoset.of(n, rows, tau)
        a, b = rand_coset(), rand_coset()
        inter = coset_intersect(a, b)
        ea, eb = enumerate_torsion(a, 12), enumerate_torsion(b, 12)
        assert enumerate_torsion(inter, 12) == (ea & eb)


def test_intersect_commutative_and_idempotent_on_grid():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = TorsionCoset.of(n, [[rng.randint(-2, 2) for _ in range(n)]],
                            [F(rng.randint(0, 3), 4) for _ in range(n)])
        b = TorsionCoset.of(n, [[rng.randint(-2, 2) for _ in range(n)]],
                            [F(rng.randint(0, 3), 4) for _ in range(n)])
        ab = enumerate_torsion(coset_intersect(a, b), 8)
        ba = enumerate_torsion(coset_intersect(b, a), 8)
        aa = enumerate_torsion(coset_intersect(a, a), 8)
        assert ab == ba
        assert aa == enumerate_torsion(a, 8)


def test_enumerate_examples():
    assert enumerate_torsion(TorsionCoset.of(1, [[1]], [0]), 4) == {(0,)}
    assert enumerate_torsion(TorsionCoset.of(1, [[2]], [0]), 4) == {(0,), (2,)}
    c = TorsionCoset.of(2, [[1, 1]], [F(1, 4), F(1, 4)])
    assert enumerate_torsion(c, 2) == {(0, 1), (1, 0)}
    # An axis past the rank takes all b values; a translate off the grid meets none.
    assert enumerate_torsion(TorsionCoset(2, (), (0, 0)), 2) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert enumerate_torsion(TorsionCoset.of(2, [[1, 0]], [F(1, 3), 0]), 4) == set()
    assert enumerate_torsion(TorsionCoset.of(2, [[2, 0]], [F(1, 4), 0]), 4) == {
        (i, j) for i in (1, 3) for j in range(4)}


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded) as small:
        enumerate_torsion(TorsionCoset(6, (), (0,) * 6), 24)  # 24^6 > DEFAULT_GRID_BUDGET
    assert str(small.value) == "grid of 24^6 points exceeds the budget of 2000000"
    # The refusal never takes b^N in full: the largest order bound the wire
    # admits, on 3000 axes, is refused at once, and names b by its bit length.
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as large:
        enumerate_torsion(TorsionCoset(3000, (), (0,) * 3000), 10 ** 4299)
    assert time.perf_counter() - start < 0.5
    assert len(str(large.value)) < 200
    # The edge stays exact: b^N = DEFAULT_GRID_BUDGET passes, one more is refused.
    assert enumerate_torsion(TorsionCoset.of(1, [[1]], [0]), 2_000_000) == {(0,)}
    with pytest.raises(BudgetExceeded):
        enumerate_torsion(TorsionCoset.of(1, [[1]], [0]), 2_000_001)

    def identity(n):
        return TorsionCoset.of(n, [[int(i == j) for j in range(n)] for i in range(n)], [0] * n)

    assert enumerate_torsion(identity(20), 2) == {(0,) * 20}  # 2^20 <= 2,000,000 < 2^21
    with pytest.raises(BudgetExceeded):
        enumerate_torsion(identity(21), 2)


def test_preimage_examples():
    w1 = TorsionCoset.of(1, [[1]], [0])
    assert monomial_preimage(w1, [[1, 1]]).relations == ((1, 1),)
    doubled = monomial_preimage(w1, [[2]])
    assert enumerate_torsion(doubled, 4) == {(0,), (2,)}
    empty = monomial_preimage(TorsionCoset.of(1, [[1]], [F(1, 2)]), [[0]])
    assert empty.empty


def test_preimage_unimodular_point():
    pt = TorsionCoset.of(2, [[1, 0], [0, 1]], [F(1, 2), F(1, 3)])
    a = [[1, 1], [0, 1]]
    pre = monomial_preimage(pt, a)
    for q in itertools.product([F(i, 6) for i in range(6)], repeat=2):
        img = [sum(F(a[i][j]) * q[j] for j in range(2)) for i in range(2)]
        assert coset_membership(q, pre) == coset_membership(img, pt)


def test_preimage_brute_force_equivalence():
    rng = random.Random(54)
    for _ in range(30):
        m, n = rng.randint(1, 2), rng.randint(1, 3)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        c = TorsionCoset.of(m, [[rng.randint(-2, 2) for _ in range(m)]],
                            [F(rng.randint(0, 3), 4) for _ in range(m)])
        pre = monomial_preimage(c, a)
        for q in itertools.product([F(i, 4) for i in range(4)], repeat=n):
            img = [sum(F(a[i][j]) * q[j] for j in range(n)) for i in range(m)]
            assert coset_membership(q, pre) == coset_membership(img, c)


def test_formula_eval_examples():
    f = nonsimple_locus_formula(3, [1, 2, 3])
    legendre = residue_vector([[F(1, 2), F(1, 2)], [0, 0], [0, 0]])
    assert formula_eval(f, legendre) is False
    assert formula_eval(f, residue_vector([[0, 0]] * 3)) is True
    comp = TorusFormula.complement(f)
    assert formula_eval(comp, legendre) is True
    assert formula_eval(comp, residue_vector([[0, 0]] * 3)) is False


def test_formula_trailing_scalar_choices():
    f = nonsimple_locus_formula(4, [1, 2, 3])
    off = residue_vector([[F(1, 2), F(1, 2)], [0, 0], [0, 0], [0, 0]])
    on = residue_vector([[F(1, 2), F(1, 2)], [0, 0], [0, 0], [F(1, 2), F(1, 2)]])
    assert formula_eval(f, off) is False
    assert formula_eval(f, on) is True


def test_locus_formula_matches_multiplicative_test():
    rng = random.Random(55)
    f = nonsimple_locus_formula(3, [1, 2, 3])
    on = off = 0
    for _ in range(60):
        e = random_product_one_eigen(rng, 3, n=12)
        rd = deligne_residues(e)
        q = residue_vector(rd.points)
        hit = nonsimple_test_s3(e)
        assert hit == formula_eval(f, q)
        on += hit
        off += not hit
    assert on > 5 and off > 5


@st.composite
def cosets_with_bounds(draw):
    # N <= 4 and b <= 12; rows may be zero, unsaturated (a multiple of a
    # primitive row) or more numerous than N, translates may lie off the
    # 1/b grid, and one coset in ten is the canonical empty one.
    n, b = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    if draw(st.integers(0, 9)) == 0:
        return TorsionCoset.empty_set(n), b
    raw = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    row = st.one_of(raw, st.just([0] * n),
                    st.tuples(raw, st.integers(2, 4)).map(lambda p: [p[1] * x for x in p[0]]))
    rows = draw(st.lists(row, max_size=n + 2))
    den = draw(st.one_of(st.just(b), st.integers(1, 24)))
    tau = draw(st.lists(st.integers(0, 2 * den).map(lambda k: F(k, den)), min_size=n, max_size=n))
    return TorsionCoset.of(n, rows, tau), b


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
@given(cosets_with_bounds())
def test_enumerate_matches_the_grid_scan(coset_and_bound):
    c, b = coset_and_bound
    assert enumerate_torsion(c, b) == _grid_scan(c, b)


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
@given(cosets_with_bounds(), st.data())
def test_solve_congruences_answers_lie_on_the_coset(coset_and_bound, data):
    c, _ = coset_and_bound
    if c.empty:
        return
    rows = [list(r) for r in c.relations]
    targets = [sum(t * v for t, v in zip(c.num, r)) for r in rows]   # over c.den
    x = solve_congruences(rows, targets, c.den, c.dim)
    assert not x.empty and coset_membership(x.translate, c)
    assert x == TorsionCoset.of(c.dim, rows, x.translate)   # in lowest terms, as .of stores it
    # An integer combination of the rows whose target is moved off the
    # combined target by a non-integer makes the system inconsistent.
    combo = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    shift = data.draw(st.integers(1, 11))   # shift / 12, over the denominator 12 c.den
    bad_row = [sum(k * r[j] for k, r in zip(combo, rows)) for j in range(c.dim)]
    bad_target = 12 * sum(k * t for k, t in zip(combo, targets)) + shift * c.den
    assert solve_congruences(rows + [bad_row], [12 * t for t in targets] + [bad_target],
                             12 * c.den, c.dim).empty


# ---------------------------------------------------------------------------
# The integer kernel against the Fraction rules it replaced, kept as oracles.

def _fraction_translate(tau):
    return tuple(Fraction(x) % 1 for x in tau)


def _fraction_member(q, c):
    return not c.empty and all(
        sum((F(x) - t) * v for x, t, v in zip(q, c.translate, row)).denominator == 1
        for row in c.relations)


def _fraction_resolved(n, rows, targets):
    # (empty, relations, translate) of the Fraction Smith-form solve.
    if not rows:
        return False, (), (F(0),) * n
    s, u, v = smith_normal_form(rows)
    d = [s[k][k] if k < len(s) else 0 for k in range(n)]
    y = [F(0)] * n
    for i, urow in enumerate(u):
        ut = sum(c * t for c, t in zip(urow, targets))
        if i < n and d[i]:
            y[i] = F(ut, d[i])
        elif ut.denominator != 1:
            return True, ((0,) * n,), (F(0),) * n
    x = [sum(c * yk for c, yk in zip(row, y)) % 1 for row in v]
    return False, tuple(tuple(r) for r in rows), tuple(x)


def _fraction_targets(c):
    return [sum(t * v for t, v in zip(c.translate, row)) for row in c.relations]


def _shape(c):
    return c.empty, c.relations, c.translate


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
@given(cosets_with_bounds(), st.data())
def test_translate_and_membership_match_the_fraction_rules(coset_and_bound, data):
    c, b = coset_and_bound
    # The same translate shifted by integers and written over a multiple of
    # its denominator: Fraction(x) % 1 reads it back.
    k = data.draw(st.integers(1, 5))
    shifts = data.draw(st.lists(st.integers(-3, 3), min_size=c.dim, max_size=c.dim))
    raw = [F((t + s) * k) / k for t, s in zip(c.translate, shifts)]
    again = TorsionCoset.of(c.dim, c.relations, raw)
    assert again.translate == _fraction_translate(raw)
    assert gcd(again.den, *again.num) == 1 and all(0 <= x < again.den for x in again.num)
    listed = itertools.islice(enumerate_torsion(c, b), 4)
    on = [tuple(F(x, b) for x in p) for p in listed] + [c.translate]
    assert all(_fraction_member(q, c) for q in on[:-1])
    grid = st.integers(0, b - 1).map(lambda i: F(i, b))
    off = st.fractions(min_value=-2, max_value=2, max_denominator=3 * b + 1)
    points = data.draw(st.lists(st.lists(st.one_of(grid, off), min_size=c.dim, max_size=c.dim),
                                max_size=6))
    for q in on + points:
        assert coset_membership(q, c) == _fraction_member(q, c)
        assert coset_membership(q, again) == _fraction_member(q, again)


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
@given(cosets_with_bounds(), cosets_with_bounds(), st.data())
def test_intersect_and_preimage_match_the_fraction_solve(first, second, data):
    a, b = first[0], second[0]
    if a.dim == b.dim and not (a.empty or b.empty):
        rows = [list(r) for r in a.relations + b.relations]
        expected = _fraction_resolved(a.dim, rows, _fraction_targets(a) + _fraction_targets(b))
        assert _shape(coset_intersect(a, b)) == expected
    if a.empty:
        return
    n = data.draw(st.integers(1, 4))
    mat = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                             min_size=a.dim, max_size=a.dim))
    rows = [[sum(v[i] * mat[i][j] for i in range(a.dim)) for j in range(n)]
            for v in a.relations]
    assert _shape(monomial_preimage(a, mat)) == _fraction_resolved(n, rows, _fraction_targets(a))


@settings(max_examples=200, derandomize=True, deadline=timedelta(seconds=5))
@given(cosets_with_bounds(), st.integers(1, 6), st.lists(st.integers(-4, 4), min_size=4))
def test_translates_have_one_canonical_form(coset_and_bound, k, shifts):
    c, _ = coset_and_bound
    if c.empty:
        return
    # Unreduced numerators over k den, moved by whole turns, give one coset.
    tau = [F(x * k + s * k * c.den, k * c.den) for x, s in zip(c.num, shifts + [0] * c.dim)]
    same = TorsionCoset.of(c.dim, c.relations, tau)
    assert same == c and hash(same) == hash(c)
    assert (same.num, same.den) == (c.num, c.den)


@settings(max_examples=200, derandomize=True, deadline=timedelta(seconds=5))
@given(cosets_with_bounds())
def test_coset_json_tau_strings_are_fraction_strings(coset_and_bound):
    c, _ = coset_and_bound
    assert coset_to_json(c)["tau"] == [str(t) for t in c.translate]
    assert [str(t) for t in c.translate] == [str(F(x, c.den)) for x in c.num]
