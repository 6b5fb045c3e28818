import ast
import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import legendre_eigen, legendre_tuple, random_member_eigen, random_tuple
from rigidmono import (ComponentSpec, CycNum, EigenData, Matrix, TorsionCoset, TorusFormula,
                       deligne_residues, one, rational, zeta)
from rigidmono.cyclotomic import euler_phi
from rigidmono.galois import galois_orbit_eigen
from rigidmono import cli
from rigidmono import serialize as wire
from rigidmono.errors import BudgetExceeded, SchemaError

F = Fraction


def test_rational_strings():
    assert wire.rational_to_json(F(-1)) == "-1"
    assert wire.rational_to_json(F(2, 3)) == "2/3"
    assert wire.rational_from_json("2/3") == F(2, 3)
    assert wire.rational_from_json("-5") == F(-5)
    assert wire.rational_from_json(["3", "4"]) == F(3, 4)
    with pytest.raises(SchemaError):
        wire.rational_from_json("x/y")
    with pytest.raises(SchemaError):
        wire.rational_from_json("1/0")


def test_a_string_rational_takes_one_fraction(monkeypatch):
    # A plain "p/q" is read with int and builds one Fraction from the integers; any other
    # spelling still parses its string with exactly one Fraction.
    made = []
    monkeypatch.setattr(wire, "Fraction", lambda *args: made.append(args) or F(*args))
    assert wire.rational_from_json("6/8") == F(3, 4)
    assert made == [(6, 8)]
    for text in (" 3/4", "+3", "١٢", "1_0", "1.5", "1e3"):
        made.clear()
        assert wire.rational_from_json(text) == F(text)
        assert [args for args in made if isinstance(args[0], str)] == [(text,)]


def test_cyc_roundtrip():
    vals = [rational(F(3, 7)), zeta(12) + rational(1), zeta(8) ** 3, zeta(3) * rational(F(-2, 5))]
    for v in vals:
        assert wire.cyc_from_json(wire.cyc_to_json(v)) == v


def test_cyc_accepts_abbreviations():
    assert wire.cyc_from_json("3/4") == rational(F(3, 4))
    assert wire.cyc_from_json(7) == rational(7)
    assert wire.cyc_from_json({"n": 4, "c": ["0", "1"]}) == zeta(4)


def test_cyc_rejects_unknown_keys():
    with pytest.raises(SchemaError):
        wire.cyc_from_json({"n": 4, "c": ["0", "1"], "extra": 1})


def test_matrix_and_tuple_roundtrip():
    t = legendre_tuple()
    again = wire.tuple_from_json(wire.tuple_to_json(t))
    assert again.matrices == t.matrices
    rng = random.Random(61)
    for _ in range(5):
        t = random_tuple(rng, 4)
        assert wire.tuple_from_json(wire.tuple_to_json(t)).matrices == t.matrices


def test_tuple_rejects_wrong_declared_shape():
    obj = wire.tuple_to_json(legendre_tuple())
    obj["s"] = 4
    with pytest.raises(SchemaError):
        wire.tuple_from_json(obj)


def test_eigen_and_residue_roundtrip():
    rng = random.Random(62)
    e = random_member_eigen(rng, 4, (1, 2, 3))
    assert wire.eigen_from_json(wire.eigen_to_json(e)) == e
    rd = deligne_residues(e)
    obj = wire.residues_to_json(rd)
    assert (obj["r"], obj["s"]) == (rd.rank, rd.punctures)
    assert all(isinstance(a, str) for pt in obj["points"] for a in pt)
    assert [tuple(F(a) for a in pt) for pt in obj["points"]] == [tuple(pt) for pt in rd.points]


def test_eigen_decode_lifts_each_distinct_value_once(monkeypatch):
    # Three copies each of zeta_5 and zeta_5^4 take one lift each; the rationals take
    # none.  The memo lives for one call, and a repeated value is still checked.
    from rigidmono import cyclotomic
    lifts = []
    original = cyclotomic._from_ratios
    monkeypatch.setattr(cyclotomic, "_from_ratios",
                        lambda n, parts: lifts.append(n) or original(n, parts))
    e = EigenData.of([[zeta(5), zeta(5, 4)]] * 3 + [[one(), one()]] * 4)
    obj = wire.eigen_to_json(e)
    for _ in range(2):
        lifts.clear()
        assert wire.eigen_from_json(obj) == e
        assert lifts == [5, 5]
    z = wire.cyc_to_json(zeta(5))
    with pytest.raises(SchemaError):
        wire.eigen_from_json({"points": [[z, z], [z, {**z, "c": z["c"] + ["x"]}]]})
    with pytest.raises(BudgetExceeded):
        wire.eigen_from_json({"points": [[z, z], [z, z]]}, conductor_cap=4)


def test_eigen_points_serialized_in_canonical_order():
    e = legendre_eigen()
    obj = wire.eigen_to_json(e)
    assert obj["points"][0][0] == {"n": 1, "c": [["-1", "1"]]}


def test_galois_and_spec_roundtrip():
    # Every Galois conjugate of eigenvalue data survives the wire unchanged.
    rng = random.Random(12)
    orbit = galois_orbit_eigen(random_member_eigen(rng, 4, (1, 2, 3)))
    assert len(orbit) > 1
    assert all(wire.eigen_from_json(wire.eigen_to_json(g)) == g for g in orbit)
    spec = ComponentSpec.of(5, [2, 3, 5])
    assert wire.spec_from_json({"s": spec.punctures, "triple": sorted(spec.triple)}) == spec
    assert wire.spec_from_json({"s": 5, "triple": [5, 2, 3]}) == spec


@pytest.mark.parametrize("decode, obj", [
    (wire.cyc_from_json, {"n": True, "c": [["0", "1"]]}),
    (wire.matrix_from_json, {"rows": True, "cols": 1, "entries": ["1"]}),
    (wire.geometry_from_json, {"genus": True, "degH": 1}),
    (wire.coset_from_json, {"N": True, "L": [], "tau": ["0"]}),
    (wire.spec_from_json, {"s": 3, "triple": [1, 2, True]}),
])
def test_booleans_are_not_integers(decode, obj):
    # JSON true reads as the Python int 1; an integer field must refuse it.
    with pytest.raises(SchemaError):
        decode(obj)


def test_coset_roundtrip():
    c = TorsionCoset.of(3, [[1, -2, 0], [0, 1, 1]], [F(1, 2), F(0), F(2, 3)])
    assert wire.coset_from_json(wire.coset_to_json(c)) == c
    empty = TorsionCoset.empty_set(2)
    back = wire.coset_from_json(wire.coset_to_json(empty))
    assert back.empty


def test_formula_roundtrip():
    a = TorsionCoset.of(2, [[1, 0]], [0, 0])
    b = TorsionCoset.of(2, [[0, 1]], [F(1, 2), 0])
    f = TorusFormula.union(TorusFormula.leaf(a),
                           TorusFormula.complement(TorusFormula.leaf(b)))
    assert wire.formula_from_json(wire.formula_to_json(f)) == f


def test_formula_rejects_bad_op():
    with pytest.raises(SchemaError):
        wire.formula_from_json({"op": "xor", "args": [{"N": 1, "L": [[1]], "tau": ["0"]}]})


# -- integer scalar codecs -----------------------------------------------------

small_fractions = st.builds(F, st.integers(-60, 60), st.integers(1, 12))


@st.composite
def cycnums(draw):
    n = draw(st.integers(1, 60))
    coords = draw(st.lists(small_fractions, min_size=euler_phi(n), max_size=euler_phi(n)))
    return CycNum.from_coeffs(coords, n)


@settings(max_examples=200, derandomize=True)
@given(cycnums())
def test_cyc_codec_roundtrip(z):
    obj = wire.cyc_to_json(z)
    # The integer encoder writes each coordinate as the Fraction one did.
    assert obj == {"n": z.conductor,
                   "c": [[str(c.numerator), str(c.denominator)] for c in z.coeffs]}
    assert wire.cyc_from_json(obj) == z


def fraction_of(c) -> F:
    # Coordinates as the Fraction-building decoder read them.
    return F(int(c[0]), int(c[1])) if isinstance(c, list) else F(c)


spellings = st.sampled_from(["2/4", "+3", " 3 ", "1.5", "1e3", "3_000", "-7/21", "0", "-0/5",
                             " -12/8\n", "2.5e-1"])
pair_parts = st.one_of(st.integers(-30, 30), st.integers(-30, 30).map(str))
denominators = st.integers(-12, 12).filter(bool)
coordinates = st.one_of(
    spellings,
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 99)),
    st.integers(-10 ** 20, 10 ** 20),
    st.tuples(pair_parts, st.one_of(denominators, denominators.map(str))).map(list))


@settings(max_examples=300, derandomize=True)
@given(st.integers(1, 60).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(coordinates, max_size=n))))
def test_integer_decoder_matches_the_fraction_path(case):
    n, cs = case
    z = wire.cyc_from_json({"n": n, "c": cs})
    assert z == CycNum.from_coeffs([wire.rational_from_json(c) for c in cs], n)
    # And against arithmetic that never builds a coordinate list.
    ref = rational(0)
    for k, c in enumerate(cs):
        ref = ref + rational(fraction_of(c)) * zeta(n, k)
    assert z == ref


def test_rational_forms_accepted_and_refused(capsys):
    for obj, value in [("2/4", F(1, 2)), ("+3", F(3)), (" 3 ", F(3)), ("1.5", F(3, 2)),
                       ("1e3", F(1000)), ("3_000", F(3000)), (7, F(7)), (["1", "-2"], F(-1, 2)),
                       ([3, -6], F(-1, 2)), ([" 4 ", "6"], F(2, 3)), ("-0", F(0)),
                       (" -7/21 ", F(-1, 3)), ("-.5", F(-1, 2)), ("5.", F(5)), ("1E-2", F(1, 100)),
                       ("٣/4", F(3, 4))]:
        assert wire.rational_from_json(obj) == value
        assert wire.cyc_from_json({"n": 4, "c": [obj]}) == rational(value)
    for obj in [True, False, 1.5, None, ["1", None], [[1], 3], [1.5, 1], [True, 1], ["1", "0"],
                [1, 0], ["1.5", "1"], [1, 2, 3], [1], {"p": 1}, "", " ", "1/0", "1/-2", "1/",
                "/2", "inf", "nan", "1//2", "true", "0x10", "1 /2", "1.5/2"]:
        with pytest.raises(SchemaError, match="^rational: "):
            wire.rational_from_json(obj)
        with pytest.raises(SchemaError):
            wire.cyc_from_json({"n": 4, "c": ["0", obj]})
        payload = json.dumps({"points": [[obj, "1"], ["1", "1"], ["1", "1"]]})
        assert cli.main(["classify", "--input", payload]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "schema-error"


# Strings around the plain "p" / "p/q" form that the decoders read with int.  A decimal
# exponent past the digit limit is refused before Fraction expands it, so those strings
# are left out (test_huge_decimal_exponent_exit_1_quickly in test_cli.py covers them).
numerals = st.one_of(st.text("0123456789", min_size=1, max_size=6),
                     st.sampled_from(["", "0", "00", "007", "١٢", "٣", "1_000", "1__0", "_1",
                                      "1" * 4300, "9" * 4301]))
rational_texts = st.one_of(
    st.builds(lambda lead, sign, num, den, tail, trail: lead + sign + num + den + tail + trail,
              st.sampled_from(["", " ", "\t", "\n"]),
              st.sampled_from(["", "-", "+", "--", "-+"]),
              numerals,
              st.one_of(st.just(""), st.builds("/{}".format, numerals),
                        st.sampled_from(["/0", "/00", "/-3", "/+3", "/ 3"])),
              st.sampled_from(["", ".5", ".", ".0_1", "e3", "E-2", "e+01", ".25e-1", "e", "x"]),
              st.sampled_from(["", " ", "\n", "\u00a0"])),
    st.text("0123456789/-+ ._eE١", max_size=10))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(rational_texts)
def test_string_decoders_agree_with_fraction(s):
    assume(not re.search(r"[eE][-+]?[\d_]{4}", s))
    try:
        want = Fraction(s)
    except (ValueError, ZeroDivisionError):
        for decode in (wire.rational_from_json, wire.cyc_from_json,
                       lambda obj: wire._ratio_from_json(obj, "rational")):
            with pytest.raises(SchemaError):
                decode(s)
        return
    got = wire.rational_from_json(s)
    assert type(got) is Fraction and got == want
    p, q = wire._ratio_from_json(s, "rational")
    assert q > 0 and Fraction(p, q) == want
    assert wire.cyc_from_json(s) == rational(want)


def test_cyc_with_more_coordinates_than_its_conductor():
    with pytest.raises(SchemaError):
        wire.cyc_from_json({"n": 2, "c": ["1", "0", "1"]})
    assert wire.cyc_from_json({"n": 2, "c": ["1", "1"]}) == rational(0)


def test_matrix_conductor_cap_precedes_any_lift(monkeypatch):
    # Conductors 13 and 19 work together at 247, past the cap of 20: the cap
    # refuses them before any entry is lifted to that conductor, whether they
    # meet in one matrix or in two matrices of a tuple (at the default cap,
    # entries at 239 and 233 would lift to 55687).
    from rigidmono import linalg
    from rigidmono.errors import BudgetExceeded
    lifts = []
    original = linalg._lift
    monkeypatch.setattr(linalg, "_lift", lambda num, m, n: lifts.append(n) or original(num, m, n))
    z13, z19 = wire.cyc_to_json(zeta(13)), wire.cyc_to_json(zeta(19))
    g = {"rows": 2, "cols": 2, "entries": [z13, "0", "0", z19]}
    with pytest.raises(BudgetExceeded):
        wire.tuple_from_json({"r": 2, "s": 3, "matrices": [g, g, g]}, 20)
    with pytest.raises(BudgetExceeded):
        wire.matrix_from_json(g, 20)
    g13 = {"rows": 2, "cols": 2, "entries": [z13, "0", "0", z13]}
    g19 = {"rows": 2, "cols": 2, "entries": [z19, "0", "0", z19]}
    assert wire.matrix_from_json(g13, 20).conductor == 13
    with pytest.raises(BudgetExceeded):
        wire.tuple_from_json({"r": 2, "s": 3, "matrices": [g13, g19, g13]}, 20)
    assert 247 not in lifts


def test_library_decode_is_capped_by_default():
    # Conductors 11, 17, 23 and 7 work together at 30107, whose dense power table would hold
    # about 6 x 10^8 integers: with no cap passed, the decoder refuses them at once.
    entries = [wire.cyc_to_json(zeta(k)) for k in (11, 17, 23, 7)]
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="working conductor 4301 exceeds the cap of 240"):
        wire.matrix_from_json({"rows": 2, "cols": 2, "entries": entries})
    assert time.perf_counter() - start < 0.5


# -- matrices decoded straight to coordinates ---------------------------------

@st.composite
def wire_entries(draw):
    # A matrix entry as the wire may carry it: a rational string or int, an n = 1 dict, or a
    # value at conductor m written at a declared n = m t, its coordinate j at index j t, with
    # a 'c' list up to m long (past phi(m)).  Coordinate pairs may have negative denominators.
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(coordinates.filter(lambda c: not isinstance(c, list)))
    if kind == 1:
        return {"n": 1, "c": draw(st.lists(coordinates, max_size=1))}
    m, t = draw(st.integers(1, 24)), draw(st.sampled_from([1, 2, 3, 5]))
    cs = draw(st.lists(coordinates, max_size=m))
    c = ["0"] * (m * t)
    c[::t] = cs + ["0"] * (m - len(cs))
    return {"n": m * t, "c": c[:max(len(cs) - 1, 0) * t + 1] if cs else []}


@st.composite
def wire_matrices(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return {"rows": rows, "cols": cols,
            "entries": draw(st.lists(wire_entries(), min_size=rows * cols, max_size=rows * cols))}


def _declared(entry) -> int:
    return entry["n"] if isinstance(entry, dict) else 1


@settings(max_examples=300, derandomize=True, deadline=None)
@given(wire_matrices())
def test_matrix_decoder_matches_the_entry_path(obj):
    # One lift and one descent of the whole matrix give what entry-by-entry decoding and
    # Matrix(rows, cols, entries) give; the cap reads the declared conductors first and the
    # least ones after.  At 240, a matrix whose declared conductors have an lcm up to 240
    # takes the single descent.
    ref = Matrix(obj["rows"], obj["cols"], [wire.cyc_from_json(e) for e in obj["entries"]])
    for cap in (240, 60):
        if max(max(map(_declared, obj["entries"])), ref.conductor) > cap:
            with pytest.raises(BudgetExceeded):
                wire.matrix_from_json(obj, cap)
            continue
        m = wire.matrix_from_json(obj, cap)
        assert m.den > 0
        assert (m.conductor, m.num, m.den) == (ref.conductor, ref.num, ref.den)
        assert m.entries == ref.entries
        assert m == ref


def _entry_by_arithmetic(entry):
    # sum(c_j zeta_n^j) over the entry's coordinates, in CycNum arithmetic alone.
    n, cs = (entry["n"], entry["c"]) if isinstance(entry, dict) else (1, [entry])
    ref = rational(0)
    for j, c in enumerate(cs):
        ref = ref + rational(fraction_of(c)) * zeta(n, j)
    return ref


@pytest.mark.parametrize("entries", [
    # At the matrix conductor 12 (phi = 4): fewer than phi coordinates, exactly phi,
    # more than phi, and an entry declared below it.
    [{"n": 12, "c": ["1", [3, -2]]}, {"n": 12, "c": ["1", "0", "-1", "3/5"]},
     {"n": 12, "c": ["0", "2", "0", "0", "1", [-7, 3]]}, {"n": 4, "c": ["1", "1"]}],
    [{"n": 12, "c": []}, {"n": 12, "c": ["2", "0", "1", "0"]},
     {"n": 12, "c": ["0"] * 11 + ["1"]}, {"n": 3, "c": ["2", "0", "-1"]}],
    # At 5: exactly phi coordinates (-zeta_5^4), and zeta_5^4 past phi, reduced by Phi_5.
    [{"n": 5, "c": ["1", "1", "1", "1"]}, {"n": 5, "c": ["0", "0", "0", "0", "1"]}],
    # Conductor 1: no pair, one pair with a negative denominator, a plain rational.
    [{"n": 1, "c": []}, {"n": 1, "c": [[3, -4]]}, "5/6"]])
def test_matrix_decoder_places_coordinates_at_its_conductor(entries):
    # Entries declared at the matrix's conductor n with at most phi(n) coordinates are
    # placed as read, the others combined from the power table; both agree with arithmetic.
    obj = {"rows": 1, "cols": len(entries), "entries": entries}
    want = tuple(map(_entry_by_arithmetic, entries))
    assert wire.matrix_from_json(obj, 240).entries == want
    assert tuple(wire.cyc_from_json(e) for e in entries) == want


def test_matrix_cap_checks_keep_their_order(capsys):
    # Entry 1 over the declared cap and entry 2 malformed: the cap answers first, exit 3.
    over, bad = {"n": 241, "c": ["1"]}, {"n": 4, "c": ["x/y"]}
    for entries, status, message in [
            ([over, bad, "0", "1"], 3, "matrix entry: declared conductor 241 exceeds the cap of 240"),
            ([bad, over, "0", "1"], 1, "matrix entry: bad fraction 'x/y'"),
            ([wire.cyc_to_json(zeta(13)), "0", "0", wire.cyc_to_json(zeta(19))], 3,
             "working conductor 247 exceeds the cap of 240")]:
        g = {"rows": 2, "cols": 2, "entries": entries}
        payload = json.dumps({"r": 2, "s": 3, "matrices": [g, g, g]})
        assert cli.main(["check", "--input", payload]) == status
        assert json.loads(capsys.readouterr().out)["message"] == message
    # The cap holds on the least conductors: rationals declared at 239 and 233 decode.
    g = {"rows": 1, "cols": 2, "entries": [{"n": 239, "c": ["1/2"]}, {"n": 233, "c": [[3, -4]]}]}
    m = wire.matrix_from_json(g, 240)
    assert (m.conductor, m.entries) == (1, (rational(F(1, 2)), rational(F(-3, 4))))


# -- schema messages are built only on failure --------------------------------

def eager_messages(source: str) -> list[str]:
    # _require calls whose message is formatted before the check runs: an f-string, a
    # .format call or a % expression among the arguments.
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_require"):
            for arg in node.args[1:]:
                if (isinstance(arg, ast.JoinedStr)
                        or isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mod)
                        or isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
                        and arg.func.attr == "format"):
                    found.append(f"line {node.lineno}")
    return found


def test_serialize_formats_messages_lazily():
    assert eager_messages(Path(wire.__file__).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", [
    '_require(ok, f"{what}: bad")', '_require(ok, "{}: bad".format(what))',
    '_require(ok, "%s: bad" % what)'])
def test_eager_message_scan_catches(snippet):
    assert eager_messages(snippet)


def test_eager_message_scan_allows_lazy_arguments():
    assert eager_messages('_require(ok, "{}: bad {!r}", what, obj)') == []
