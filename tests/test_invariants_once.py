"""Each tuple invariant is computed once per CLI request.

The counters wrap the public analysis functions in every package namespace
that binds them, so a call counts wherever it is made from.
"""
import argparse
import functools
import json
import math
import random
import sys

from collections import Counter
from fractions import Fraction

from conftest import legendre_tuple, levelt_triple, random_triangular_tuple, random_tuple
from rigidmono import (CycNum, EigenData, Matrix, MonodromyTuple, charpoly, galois_orbit_eigen,
                       one, rational, zeta)
from rigidmono import cli, cyclotomic, galois, linalg, monodromy
from rigidmono import serialize as wire
from rigidmono.cli import main

LEGENDRE_JSON = json.dumps(wire.tuple_to_json(legendre_tuple()))


def _unsplit_tuple():
    # g1 has x^2 - 2, whose discriminant 8 is neither a square nor minus one,
    # and whose x coefficient is 0: the first factor does not split.
    g1, g2 = Matrix.from_rows([[0, 2], [1, 0]]), Matrix.from_rows([[1, 1], [0, 1]])
    return MonodromyTuple.of([g1, g2, (g1 @ g2).inverse()])


UNSPLIT_JSON = json.dumps(wire.tuple_to_json(_unsplit_tuple()))
# s = 7 eigenvalue data, non-scalar at 1, 2, 3 only, where no choice multiplies to 1.
S7_JSON = json.dumps(wire.eigen_to_json(
    EigenData.of([[zeta(5), zeta(5, 4)]] * 3 + [[one(), one()]] * 4)))


def _count_calls(monkeypatch, name, owner=monodromy):
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("rigidmono") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def _run(capsys, *argv):
    status = main(list(argv))
    capsys.readouterr()
    assert status == 0


def test_check_runs_burnside_once(monkeypatch, capsys):
    burnside = _count_calls(monkeypatch, "is_irreducible")
    _run(capsys, "check", "--input", LEGENDRE_JSON)
    assert len(burnside) == 1


def test_orbit_runs_mon_and_burnside_once(monkeypatch, capsys):
    burnside = _count_calls(monkeypatch, "is_irreducible")
    mons = _count_calls(monkeypatch, "mon")
    _run(capsys, "orbit", "--input", LEGENDRE_JSON)
    assert len(mons) == 1
    assert len(burnside) == 1


def test_rank2_burnside_spans_no_words(monkeypatch, capsys):
    # Rank 2 is decided by commutators: neither the span certificate nor the
    # exact span runs, for irreducible and reducible, rational and cyclotomic
    # tuples.  A reducible rank-3 Levelt triple still takes both.
    spans = _count_calls(monkeypatch, "_full_span_mod_p", linalg)
    exact = _count_calls(monkeypatch, "algebra_dim", linalg)
    rank2 = [legendre_tuple(), random_triangular_tuple(random.Random(5)),
             levelt_triple([zeta(5), zeta(5, 2)], [one(), zeta(12)])]
    for t in rank2:
        text = json.dumps(wire.tuple_to_json(t))
        _run(capsys, "check", "--input", text)
        main(["orbit", "--input", text])
    capsys.readouterr()
    assert spans == [] and exact == []
    rank3 = levelt_triple([one(), zeta(3), zeta(3, 2)], [one(), zeta(4), -one()])
    _run(capsys, "check", "--input", json.dumps(wire.tuple_to_json(rank3)))
    assert len(spans) == 1 and len(exact) == 1


def _count_dets(monkeypatch):
    dets = []
    original = Matrix.det

    def counted(self):
        dets.append(self)
        return original(self)

    monkeypatch.setattr(Matrix, "det", counted)
    return dets


def test_check_validates_with_no_determinant(monkeypatch, capsys):
    # A product equal to I proves every factor invertible; at s = 4 no trace
    # chart reads the determinants either.
    t = random_tuple(random.Random(5), 4, scalar_prob=0)
    dets = _count_dets(monkeypatch)
    _run(capsys, "check", "--input", json.dumps(wire.tuple_to_json(t)))
    assert dets == []


def test_dets_after_mon_multiply_nothing(monkeypatch):
    # Each determinant is the constant term of the characteristic polynomial
    # that mon computed and the factor keeps, so dets reads it with no _dot
    # once every factor split (past an unsplit one mon computes none).
    rng = random.Random(26)
    tuples = [legendre_tuple()] + [random_triangular_tuple(rng, n) for n in (1, 12, 24)]
    want = [tuple(Matrix(2, 2, g.entries).det() for g in t.matrices) for t in tuples]
    for t in tuples:
        assert t.mon_data.eigen is not None
    dots = _count_calls(monkeypatch, "_dot", owner=cyclotomic)
    assert [t.dets for t in tuples] == want
    assert dots == []


def test_orbit_conjugates_each_value_once_per_residue(monkeypatch):
    # Field Q(zeta_24): zeta_8 recurs, zeta_3 lies at a smaller conductor, and
    # 2 and 1/2 are rational.  zeta_n -> zeta_n^k acts on a value at
    # conductor m through k mod m, so the 8 automorphisms make phi(8) images of
    # each conductor-8 value and phi(3) of zeta_3, and none of a rational.
    e = EigenData.of([[zeta(8), zeta(8)], [zeta(3), rational(2)],
                      [zeta(8, 3), rational(Fraction(1, 2))]])
    calls = _count_calls(monkeypatch, "galois_apply", owner=galois)
    orbit = galois_orbit_eigen(e)
    assert Counter((v, g.exponent % v.conductor) for v, g in calls) == Counter(
        (v, k) for v in (zeta(8), zeta(8, 3), zeta(3))
        for k in range(1, v.conductor) if math.gcd(k, v.conductor) == 1)
    assert len(orbit) == 8


def test_mon_converts_each_distinct_value_once(monkeypatch, capsys):
    # The Legendre tuple's report repeats 1, -1 and 2 across its polynomials,
    # eigenvalues and determinants; each distinct value becomes one dict.
    t = legendre_tuple()
    values = [c for g in t.matrices for c in charpoly(g).coeffs]
    values += [v for pt in t.mon_data.eigen.points for v in pt] + list(t.dets)
    calls = _count_calls(monkeypatch, "cyc_to_json", owner=wire)
    _run(capsys, "mon", "--input", LEGENDRE_JSON)
    assert len(values) > len(set(values))
    assert Counter(v for (v,) in calls) == Counter(set(values))


def test_rational_matrices_decode_with_no_lift_or_descent(monkeypatch):
    # A matrix of rational strings is read in one pass at conductor 1, with no
    # entry parsed as a scalar and no lift or descent; a cyclotomic matrix
    # still lifts and descends once.
    def rational_text(v):
        return wire.rational_to_json(Fraction(v.num[0], v.den))
    g1, g2 = Matrix.from_rows([[1, Fraction(1, 2)], [0, 1]]), Matrix.from_rows([[1, 0], [-8, 1]])
    t = MonodromyTuple.of([g1, g2, (g1 @ g2).inverse()])
    obj = wire.tuple_to_json(t, rational_text)
    lifts = _count_calls(monkeypatch, "_from_ratios", owner=cyclotomic)
    parts = _count_calls(monkeypatch, "_cyc_parts", owner=wire)
    assert wire.tuple_from_json(obj).matrices == t.matrices
    assert lifts == [] and parts == []
    g = Matrix.from_rows([[zeta(4), 1], [0, Fraction(1, 3)]])
    assert wire.matrix_from_json(wire.matrix_to_json(g)) == g
    assert len(lifts) == 1


def test_singular_factor_with_a_broken_relation_exit_2(capsys):
    # A singular factor makes the product singular, so it is still named.
    singular = {"rows": 2, "cols": 2, "entries": ["1", "1", "0", "0"]}
    eye = {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]}
    assert main(["check", "--input", json.dumps({"matrices": [eye, singular, eye]})]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["error"] == "not-invertible" and "matrix 2" in rep["message"]


def test_mon_computes_each_determinant_once(monkeypatch, capsys):
    factors = list(legendre_tuple().matrices)
    dets = _count_dets(monkeypatch)
    _run(capsys, "mon", "--input", LEGENDRE_JSON)
    assert dets == factors


def test_mon_computes_each_charpoly_once(monkeypatch, capsys):
    # The Legendre tuple has one non-triangular factor, whose characteristic
    # polynomial the eigenvalue search reuses.
    charpolys = _count_calls(monkeypatch, "charpoly")
    _run(capsys, "mon", "--input", LEGENDRE_JSON)
    assert len(charpolys) == 3


def test_mon_stops_at_the_first_unsplit_factor(monkeypatch, capsys):
    # The report has no eigenvalue data once one factor does not split, so
    # the later factors are not searched; their charpolys are still listed.
    splits = _count_calls(monkeypatch, "eigenvalues_split")
    charpolys = _count_calls(monkeypatch, "charpoly")
    assert main(["mon", "--input", UNSPLIT_JSON]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["eigen"] is None and len(rep["charpolys"]) == 3
    assert len(splits) == 1 and len(charpolys) == 3


def test_orbit_on_an_unsplit_tuple_stops_before_burnside(monkeypatch, capsys):
    # absolute_point_test raises at the missing eigenvalue data, before it
    # needs the rigidity verdict or the determinants; the indeterminate report
    # lists no characteristic polynomial, so only the one searched is computed.
    burnside = _count_calls(monkeypatch, "is_irreducible")
    charpolys = _count_calls(monkeypatch, "charpoly")
    dets = _count_dets(monkeypatch)
    assert main(["orbit", "--input", UNSPLIT_JSON]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "indeterminate",
        "message": "local eigenvalues do not split over the working field"}
    assert burnside == [] and dets == [] and len(charpolys) == 1


def test_check_and_orbit_invert_no_matrix(monkeypatch, capsys):
    # Burnside spans words in the generators alone, so no factor is inverted
    # (the closure over the g_i and their inverses made s inverse calls).
    inverses = []
    original = Matrix.inverse

    def counted(self):
        inverses.append(self)
        return original(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    _run(capsys, "check", "--input", LEGENDRE_JSON)
    _run(capsys, "orbit", "--input", LEGENDRE_JSON)
    assert inverses == []


def _count_matmuls(monkeypatch):
    products = []
    original = Matrix.__matmul__

    def counted(self, other):
        products.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    return products


def test_validation_forms_k_minus_1_products(monkeypatch):
    # The relation product starts from the first non-scalar factor, not from
    # the identity, and the scalar factors, central, enter no matrix product:
    # k non-scalar factors make k - 1 products.
    rng = random.Random(12)
    tuples = [random_tuple(rng, s) for s in (3, 4, 7)]
    tuples += [random_tuple(rng, s, scalar_prob=0) for s in (3, 5)]
    assert {sum(not g.is_scalar() for g in t.matrices) for t in tuples} >= {2, 3, 4, 5}
    products = _count_matmuls(monkeypatch)
    for t in tuples:
        products.clear()
        MonodromyTuple.of(t.matrices)
        assert len(products) == sum(not g.is_scalar() for g in t.matrices) - 1


def test_trace_recursion_skips_the_last_product(monkeypatch):
    # The last trace tr(A M_r) is summed from the entries, so a rank-r
    # characteristic polynomial forms r - 2 matrix products, not the r - 1
    # that forming A M_r took: none at rank 2, one at rank 3.
    mats = {r: Matrix.from_rows([[zeta(12, i + 2 * j) + i for j in range(r)] for i in range(r)])
            for r in (1, 2, 3, 4)}
    products = _count_matmuls(monkeypatch)
    for r, a in mats.items():
        products.clear()
        charpoly(a)
        assert len(products) == max(r - 2, 0)


def test_classify_forms_the_global_product_once(monkeypatch, capsys):
    # classify tests all s(s-1)(s-2)/6 components of one EigenData (35 at
    # s = 7); the product of its 2s eigenvalues is formed once.
    calls = []
    original = EigenData.product.func

    def counted(self):
        calls.append(self)
        return original(self)

    product = functools.cached_property(counted)
    product.__set_name__(EigenData, "product")
    monkeypatch.setattr(EigenData, "product", product)
    _run(capsys, "classify", "--input", S7_JSON)
    assert len(calls) == 1


def test_classify_multiplies_no_cycnum(monkeypatch, capsys):
    # The product of all 2s values, the scalars' k and every tested choice are
    # formed on integer coordinates at one conductor: no CycNum product at all.
    calls = []
    original = CycNum.__mul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(CycNum, "__mul__", counted)
    monkeypatch.setattr(CycNum, "__rmul__", counted)
    _run(capsys, "classify", "--input", S7_JSON)
    assert calls == []


def test_plain_argv_builds_no_parser(monkeypatch, capsys):
    # Exact spellings are read without argparse; an abbreviation still goes through it.
    builds = _count_calls(monkeypatch, "build_parser", owner=cli)
    monkeypatch.setattr(cli, "_parser", functools.cache(cli.build_parser))
    parses = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parses.append(args)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    _run(capsys, "check", "--input", LEGENDRE_JSON)
    assert (len(builds), len(parses)) == (0, 0)
    _run(capsys, "check", "--inp", LEGENDRE_JSON)
    assert (len(builds), len(parses)) == (1, 1)
