import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ARGV_TOKENS, ARGV_VALUES, legendre_eigen, legendre_tuple, levelt_triple
from rigidmono import Matrix, rational, sort_key, zeta
from rigidmono import serialize as wire
from rigidmono import cli
from rigidmono.cli import COMMANDS, build_parser, main
from rigidmono.tori import NONSIMPLE_LOCUS_MAX_S

LEGENDRE_JSON = json.dumps(wire.tuple_to_json(legendre_tuple()))


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_check_legendre(capsys):
    status, out = run_cli(capsys, "check", "--input", LEGENDRE_JSON)
    assert status == 0
    rep = json.loads(out)
    assert rep["katz"]["verdict"] == "rigid"
    assert rep["katz"]["defect"] == 0
    assert rep["rank2"]["component_triple"] == [1, 2, 3]


def test_determinism(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(LEGENDRE_JSON)
    s1, out1 = run_cli(capsys, "check", "--input", str(path))
    s2, out2 = run_cli(capsys, "check", "--input", str(path))
    assert s1 == s2 == 0
    assert out1 == out2


def test_construct_check_mon_pipeline(capsys):
    eigen = wire.eigen_to_json(legendre_eigen())
    payload = json.dumps({"eigen": eigen, "spec": {"s": 3, "triple": [1, 2, 3]}})
    status, out = run_cli(capsys, "construct", "--input", payload)
    assert status == 0
    tuple_json = out

    status, out = run_cli(capsys, "check", "--input", tuple_json)
    assert status == 0
    assert json.loads(out)["katz"]["verdict"] == "rigid"

    status, out = run_cli(capsys, "mon", "--input", tuple_json)
    assert status == 0
    assert json.loads(out)["eigen"]["points"] == eigen["points"]


def test_construct_not_in_component_exit_2(capsys):
    eigen = {"r": 2, "s": 3, "points": [[ "1", "1"], ["1", "1"], ["1", "1"]]}
    payload = json.dumps({"eigen": eigen, "spec": {"s": 3, "triple": [1, 2, 3]}})
    status, out = run_cli(capsys, "construct", "--input", payload)
    assert status == 2
    assert json.loads(out)["error"] == "not-in-component"


def test_parse_error_exit_1(capsys):
    status, out = run_cli(capsys, "check", "--input", '{"bad json')
    assert status == 1


def test_schema_error_exit_1(capsys):
    status, out = run_cli(capsys, "check", "--input",
                          json.dumps({"matrices": [], "surprise": 1}))
    assert status == 1
    assert json.loads(out)["error"] == "schema-error"


def test_relation_violation_exit_2(capsys):
    bad = {"matrices": [wire.matrix_to_json(m) for m in legendre_tuple().matrices[:2]]
           + [wire.matrix_to_json(legendre_tuple().matrices[0])]}
    status, out = run_cli(capsys, "check", "--input", json.dumps(bad))
    assert status == 2
    assert json.loads(out)["error"] == "relation-violation"


def test_derham_legendre(capsys):
    payload = json.dumps({"eigen": wire.eigen_to_json(legendre_eigen()),
                          "geometry": {"genus": 0, "degH": 1}})
    status, out = run_cli(capsys, "derham", "--input", payload)
    assert status == 0
    rep = json.loads(out)
    assert rep["degE"] == "-1"
    assert rep["degE_integral"] is True
    assert rep["hilbert"] == ["1", "2"]
    assert rep["residues"]["points"] == [["1/2", "1/2"], ["0", "0"], ["0", "0"]]


def test_derham_nontorsion_exit_2(capsys):
    payload = json.dumps({"eigen": {"points": [["2", "1/2"], ["1", "1"], ["1", "1"]]},
                          "geometry": {"genus": 0, "degH": 1}})
    status, out = run_cli(capsys, "derham", "--input", payload)
    assert status == 2
    assert json.loads(out)["error"] == "not-quasi-unipotent"


def test_classify_legendre_eigen(capsys):
    payload = json.dumps(wire.eigen_to_json(legendre_eigen()))
    status, out = run_cli(capsys, "classify", "--input", payload)
    assert status == 0
    rep = json.loads(out)
    assert rep["components"] == [{"triple": [1, 2, 3], "member": True}]


def test_orbit_legendre(capsys):
    status, out = run_cli(capsys, "orbit", "--input", LEGENDRE_JSON)
    assert status == 0
    rep = json.loads(out)
    assert len(rep["orbit"]) == 1
    assert rep["absolute"]["verdict"] == "absolute-point-candidate"


def test_tori_ops(capsys):
    coset = {"N": 1, "L": [[2]], "tau": ["0"]}
    payload = json.dumps({"op": "enumerate", "coset": coset, "order_bound": 4})
    status, out = run_cli(capsys, "tori", "--input", payload)
    assert status == 0
    assert json.loads(out)["points"] == [["0"], ["1/2"]]

    payload = json.dumps({"op": "intersect",
                          "a": {"N": 1, "L": [[1]], "tau": ["0"]},
                          "b": {"N": 1, "L": [[1]], "tau": ["1/2"]}})
    status, out = run_cli(capsys, "tori", "--input", payload)
    assert status == 0
    assert json.loads(out)["coset"]["empty"] is True

    payload = json.dumps({"op": "nonsimple_locus", "s": 3, "triple": [1, 2, 3],
                          "point": ["1/2", "1/2", "0", "0", "0", "0"]})
    status, out = run_cli(capsys, "tori", "--input", payload)
    assert status == 0
    assert json.loads(out)["value"] is False


def test_off_grid_listing_at_the_top_of_the_budget_exit_0_quickly(capsys):
    # b = 1,999,999 is not a multiple of 3, so no point lies on the coset; the
    # listing must not build anything of size b on the way to "points": [].
    payload = json.dumps({"op": "enumerate", "coset": {"N": 1, "L": [[1]], "tau": ["1/3"]},
                          "order_bound": 1_999_999})
    start = time.perf_counter()
    status, out = run_cli(capsys, "tori", "--input", payload)
    assert time.perf_counter() - start < 0.5
    assert status == 0
    assert json.loads(out) == {"points": []}


def test_full_torus_listing_matches_the_fraction_strings(capsys):
    b = 30_030
    payload = json.dumps({"op": "enumerate", "coset": {"N": 1, "L": [], "tau": ["0"]},
                          "order_bound": b})
    status, out = run_cli(capsys, "tori", "--input", payload)
    assert status == 0
    assert json.loads(out)["points"] == sorted([str(Fraction(i, b))] for i in range(b))


def test_budget_exit_3(capsys):
    coset = {"N": 6, "L": [[1, 0, 0, 0, 0, 0]], "tau": ["0"] * 6}
    payload = json.dumps({"op": "enumerate", "coset": coset, "order_bound": 24})
    status, out = run_cli(capsys, "tori", "--input", payload)
    assert status == 3
    assert json.loads(out)["error"] == "budget-exceeded"


def test_conductor_cap_exit_3(capsys):
    eigen = {"points": [[{"n": 7, "c": ["0", "1", "0", "0", "0", "0"]}, "1"],
                        ["1", "1"], ["1", "1"]]}
    status, out = run_cli(capsys, "classify", "--input", json.dumps(eigen),
                          "--conductor-cap", "5")
    assert status == 3


def test_batch_mode(capsys):
    items = [wire.tuple_to_json(legendre_tuple()), {"matrices": [], "oops": 1}]
    status, out = run_cli(capsys, "check", "--batch", "--input", json.dumps(items))
    assert status == 1
    rep = json.loads(out)
    assert rep[0]["ok"] is True
    assert rep[0]["report"]["katz"]["verdict"] == "rigid"
    assert rep[1]["ok"] is False


def test_describe_schema(capsys):
    status, out = run_cli(capsys, "--describe-schema", "construct")
    assert status == 0
    assert "eigen" in json.loads(out)


def test_declared_conductor_above_cap_exit_3(capsys):
    # Rejected before the coefficients are reduced mod Phi_4001, which builds
    # a 4001 x 4000 power table even though the value is rational.
    eigen = {"points": [[{"n": 4001, "c": ["1"]}, "1"], ["1", "1"], ["1", "1"]]}
    status, out = run_cli(capsys, "classify", "--input", json.dumps(eigen))
    assert status == 3
    assert json.loads(out)["error"] == "budget-exceeded"


def test_working_conductor_above_cap_exit_3_before_validation(capsys):
    # Entries at conductors 31 and 37 are each under the cap, but checking the
    # product relation would multiply them at conductor 1147.
    mats = [Matrix.from_rows([[zeta(31), 0], [0, 1]]), Matrix.from_rows([[zeta(37), 0], [0, 1]]),
            Matrix.identity(2)]
    payload = json.dumps({"matrices": [wire.matrix_to_json(m) for m in mats]})
    status, out = run_cli(capsys, "mon", "--input", payload)
    assert status == 3
    assert json.loads(out)["message"] == "working conductor 1147 exceeds the cap of 240"


def test_huge_discriminant_exit_0(capsys):
    # 4M is far above the float range: the roots +-i sqrt(M) of x^2 + M and
    # the discriminant 1 - 4M of the third factor are decided exactly.
    m = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]) ** 18
    g1, g2 = Matrix.from_rows([[0, -m], [1, 0]]), Matrix.from_rows([[1, 1], [0, 1]])
    mats = [g1, g2, (g1 @ g2).inverse()]
    payload = json.dumps({"matrices": [wire.matrix_to_json(g) for g in mats]})
    status, out = run_cli(capsys, "mon", "--input", payload)
    assert status == 0
    assert json.loads(out)["eigen"] is None


_PRIMES_1_MOD_12 = [x for x in range(13, 4 * 10 ** 4, 12)
                    if all(x % d for d in range(2, math.isqrt(x) + 1))]
_ONE_PLUS_P = 1 + math.prod(_PRIMES_1_MOD_12[:1000])


@pytest.mark.parametrize("n, t", [
    # x^2 - x + n, n = 10^4000 + 7: the root search lifts its roots mod 13 to
    # a power of 13 above n, with no search for a prime of n's size.
    (10 ** 4000 + 7, 1),
    # Eigenvalues 1 and n = 1 + P, P the product of the first 1000 primes = 1
    # (mod 12): their roots meet mod every prime the search could try next.
    # Each failed prime is followed by one above twice it, so few are tried.
    (_ONE_PLUS_P, 1 + _ONE_PLUS_P),
], ids=["4000-digit-coefficient", "many-small-primes"])
def test_large_factor_exit_0_quickly(capsys, n, t):
    g1, g2 = Matrix.from_rows([[0, -n], [1, t]]), Matrix.from_rows([[1, 1], [0, 1]])
    mats = [g1, g2, (g1 @ g2).inverse()]
    payload = json.dumps({"matrices": [wire.matrix_to_json(g) for g in mats]})
    start = time.perf_counter()
    status, out = run_cli(capsys, "mon", "--input", payload)
    assert time.perf_counter() - start < 2
    assert status == 0
    assert json.loads(out)["eigen"] is None


def test_semiprime_norm_exit_0_quickly(capsys):
    # x^2 - x + N with N = 1000000007 * 998244353: trial division of the norm
    # up to its square root never returned; the rule needs no divisors.
    n = 1000000007 * 998244353
    g1, g2 = Matrix.from_rows([[0, -n], [1, 1]]), Matrix.from_rows([[1, 1], [0, 1]])
    mats = [g1, g2, (g1 @ g2).inverse()]
    payload = json.dumps({"matrices": [wire.matrix_to_json(g) for g in mats]})
    start = time.perf_counter()
    status, out = run_cli(capsys, "mon", "--input", payload)
    assert time.perf_counter() - start < 2
    assert status == 0
    assert json.loads(out)["eigen"] is None


@pytest.mark.parametrize("n, ks, ls, verdict", [
    (24, (1, 5, 7, 11, 13), (2, 3, 4, 6, 8), "rigid"),
    (60, (1, 7, 11, 13, 17), (2, 3, 4, 6, 10), "rigid"),
    (24, (1, 5, 7, 11, 13), (1, 3, 4, 6, 8), "not-applicable(reducible)"),
], ids=["24", "60", "24-reducible"])
def test_rank5_levelt_check_answers_quickly(capsys, n, ks, ls, verdict):
    # A rank-5 Levelt triple (A, A^-1 B, B^-1), about 3.5 KB of JSON at n = 24:
    # the exact centralizer of B^-1 alone took 7 s at n = 24 and 39 s at n = 60,
    # and the exact Burnside span of the reducible one more than 50 s.
    t = levelt_triple([zeta(n, k) for k in ks], [zeta(n, k) for k in ls])
    payload = json.dumps(wire.tuple_to_json(t))
    start = time.perf_counter()
    status, out = run_cli(capsys, "check", "--input", payload)
    assert time.perf_counter() - start < 2
    assert status == 0
    katz = json.loads(out)["katz"]
    assert katz["centralizer_dims"] == [5, 17, 5] and katz["verdict"] == verdict


def test_rank3_eigenvalues_outside_the_entry_field(capsys):
    # C is the companion matrix of (x^2 - 4 zeta_6)(x - 5) over Q(zeta_3);
    # its roots +-2 zeta_12 lie outside Q(zeta_3).
    z6 = zeta(6)
    c = Matrix.from_rows([[0, 0, -20 * z6], [1, 0, 4 * z6], [0, 1, 5]])
    mats = [c, c.inverse(), Matrix.identity(3)]
    payload = json.dumps({"matrices": [wire.matrix_to_json(g) for g in mats]})
    status, out = run_cli(capsys, "mon", "--input", payload)
    assert status == 0
    roots = sorted([rational(5), 2 * zeta(12), -2 * zeta(12)], key=sort_key)
    assert json.loads(out)["eigen"]["points"][0] == [wire.cyc_to_json(v) for v in roots]


def test_non_list_points_exit_1(capsys):
    for point in (5, "12", None):
        payload = json.dumps({"points": [point, ["1", "1"], ["1", "1"]]})
        status, out = run_cli(capsys, "classify", "--input", payload)
        assert status == 1
        assert json.loads(out)["error"] == "schema-error"


@pytest.mark.parametrize("command", COMMANDS)
def test_describe_schema_every_command(capsys, command):
    status, out = run_cli(capsys, "--describe-schema", command)
    assert status == 0
    assert isinstance(json.loads(out), dict)


def test_tori_schema_names_the_dispatched_ops(capsys):
    status, out = run_cli(capsys, "--describe-schema", "tori")
    assert status == 0
    ops = json.loads(out)["op"].split("|")
    assert ops == ["membership", "intersect", "preimage", "enumerate", "formula",
                   "nonsimple_locus"]
    assert set(ops) == set(cli._TORI_OPS)
    for op in ops:
        status, out = run_cli(capsys, "tori", "--input", json.dumps({"op": op}))
        assert status == 1
        assert "unknown op" not in json.loads(out)["message"]


@pytest.mark.parametrize("op", ["xor", ["membership"], None])
def test_tori_unknown_op_exit_1(capsys, op):
    status, out = run_cli(capsys, "tori", "--input", json.dumps({"op": op}))
    assert status == 1
    assert "unknown op" in json.loads(out)["message"]


def test_c_list_longer_than_conductor_exit_1(capsys):
    # Two coordinates at conductor 1 are malformed input, not a bad conductor.
    payload = json.dumps({"points": [[{"n": 1, "c": ["1", "2"]}, "1"], ["1", "1"], ["1", "1"]]})
    status, out = run_cli(capsys, "classify", "--input", payload)
    assert status == 1
    assert json.loads(out)["error"] == "schema-error"
    # The cap is checked before the length, so an over-cap entry still exits 3.
    payload = json.dumps({"points": [[{"n": 300, "c": ["1"] * 301}, "1"], ["1", "1"],
                                     ["1", "1"]]})
    status, out = run_cli(capsys, "classify", "--input", payload)
    assert status == 3
    assert json.loads(out)["error"] == "budget-exceeded"


@pytest.mark.parametrize("scalar", [
    {"n": 4, "c": ["0", ["1", None]]},
    {"n": 4, "c": ["0", [[1], 3]]},
    {"n": 4, "c": ["0", [1.5, 1]]},
    {"n": 4, "c": ["0", [True, 1]]},
    {"n": 4, "c": ["0", [1, False]]},
    {"n": 4, "c": ["0", True]},
    {"n": 4, "c": ["0", 1.5]},
    {"n": 4, "c": ["0", ["1", "0"]]},
    {"n": 4, "c": ["0", ["1.5", "1"]]},
    True,
    1.5,
])
def test_bad_scalar_parts_exit_1(capsys, scalar):
    # A pair part is an int (not a bool) or an integer string: anything else
    # used to end in a TypeError, be truncated (1.5 -> 1) or read as 1 (true).
    payload = json.dumps({"points": [[scalar, "1"], ["1", "1"], ["1", "1"]]})
    status, out = run_cli(capsys, "classify", "--input", payload)
    assert status == 1
    assert json.loads(out)["error"] == "schema-error"


def test_pair_spellings_decode_exactly(capsys):
    # [p, q] pairs of ints or integer strings, with q of either sign.
    spelled = {"n": 4, "c": [["-2", "-4"], [3, -6]]}
    payload = json.dumps({"points": [[spelled, "1"], ["1", "1"], ["1", "1"]]})
    status, out = run_cli(capsys, "classify", "--input", payload)
    assert status == 0
    assert wire.cyc_from_json(spelled) == rational(1) / 2 - zeta(4) / 2


def test_parser_keeps_no_state_across_calls(capsys):
    # The parser is built once per process; a flag of one call must not leak
    # into the next.
    payload = json.dumps({"op": "enumerate", "coset": {"N": 1, "L": [], "tau": ["0"]}})
    _, bound3 = run_cli(capsys, "tori", "--order-bound", "3", "--input", payload)
    _, default = run_cli(capsys, "tori", "--input", payload)
    _, bound12 = run_cli(capsys, "tori", "--order-bound", "12", "--input", payload)
    assert default == bound12 != bound3
    assert len(json.loads(default)["points"]) > len(json.loads(bound3)["points"])


_ONE_BY_ONE = {"rows": 1, "cols": 1, "entries": ["1"]}
_LEGENDRE_EIGEN = {"points": [["-1", "-1"], ["1", "1"], ["1", "1"]]}
_ZEROS = ["0"] * 6


@pytest.mark.parametrize("command, payload", [
    ("classify", {"points": [[{"n": True, "c": ["2"]}, "1"], ["1", "1"], ["1", "1"]]}),
    ("derham", {"eigen": {"r": True, "points": [["1"], ["1"], ["1"]]},
                "geometry": {"genus": 0, "degH": 1}}),
    ("derham", {"eigen": {"s": True, "points": [["1", "1"]]},
                "geometry": {"genus": 0, "degH": 1}}),
    ("check", {"matrices": [{"rows": True, "cols": 1, "entries": ["1"]}] * 3}),
    ("check", {"matrices": [{"rows": 1, "cols": True, "entries": ["1"]}] * 3}),
    ("check", {"r": True, "matrices": [_ONE_BY_ONE] * 3}),
    ("construct", {"eigen": _LEGENDRE_EIGEN, "spec": {"s": 3, "triple": [True, 2, 3]}}),
    ("derham", {"eigen": _LEGENDRE_EIGEN, "geometry": {"genus": False, "degH": 1}}),
    ("derham", {"eigen": _LEGENDRE_EIGEN, "geometry": {"genus": 0, "degH": True}}),
    ("tori", {"op": "enumerate", "coset": {"N": 1, "L": [[True]], "tau": ["0"]},
              "order_bound": 2}),
    ("tori", {"op": "enumerate", "coset": {"N": 1, "L": [[1]], "tau": ["0"]},
              "order_bound": True}),
    ("tori", {"op": "enumerate", "coset": {"N": True, "L": [[1]], "tau": ["0"]}}),
    ("tori", {"op": "preimage", "coset": {"N": 1, "L": [[1]], "tau": ["0"]},
              "matrix": [[True]]}),
    ("tori", {"op": "nonsimple_locus", "s": 3, "triple": [True, 2, 3], "point": _ZEROS}),
    ("tori", {"op": "nonsimple_locus", "s": 3, "triple": ["1", 2, 3], "point": _ZEROS}),
    ("tori", {"op": "nonsimple_locus", "s": 3, "triple": [[1], 2, 3], "point": _ZEROS}),
    ("tori", {"op": "nonsimple_locus", "s": 3, "triple": [1.0, 2, 3], "point": _ZEROS}),
])
def test_non_integer_in_integer_field_exit_1(capsys, command, payload):
    # JSON true and false are Python ints; an integer field must refuse them
    # (they used to read as 1 and 0), and so must a 'triple' entry that is no
    # integer at all (a string, list or float used to raise a TypeError).
    status, out = run_cli(capsys, command, "--input", json.dumps(payload))
    assert status == 1
    assert json.loads(out)["error"] == "schema-error"


@pytest.mark.parametrize("rows, cols, entries", [
    (-1, -1, ["1"]), (0, 0, []), (0, 3, []), (2, 0, []), (-2, -2, ["1", "0", "0", "1"])])
def test_non_positive_matrix_dimensions_exit_1(capsys, rows, cols, entries):
    # A negative pair used to match its entry count and -1 x -1, 0 x 0 and
    # empty shapes reached Matrix: exit 2 shape-error.  Dimensions are part of
    # the schema, as a coset's N < 1 is.
    m = {"rows": rows, "cols": cols, "entries": entries}
    for command in ("check", "mon", "orbit"):
        status, out = run_cli(capsys, command, "--input", json.dumps({"matrices": [m, m, m]}))
        assert status == 1
        rep = json.loads(out)
        assert rep["error"] == "schema-error" and "positive integers" in rep["message"]


def test_empty_coset_checks_its_shape_first(capsys):
    # An "empty" coset used to skip the shape checks, so an N far above the
    # length of 'tau' built an N-wide relation row and a report of that size.
    huge = {"N": 10 ** 6, "L": [], "tau": [], "empty": True}
    status, out = run_cli(capsys, "tori", "--input",
                          json.dumps({"op": "intersect", "a": huge, "b": huge}))
    assert status == 2
    assert json.loads(out)["error"] == "shape-error"


@pytest.mark.parametrize("flag", ["yes", 1, 0, None])
def test_non_boolean_empty_flag_exit_1(capsys, flag):
    coset = {"N": 1, "L": [[1]], "tau": ["0"], "empty": flag}
    status, out = run_cli(capsys, "tori", "--input",
                          json.dumps({"op": "intersect", "a": coset, "b": coset}))
    assert status == 1
    assert json.loads(out)["error"] == "schema-error"


def test_nonsimple_locus_reads_the_point_before_the_formula(capsys, monkeypatch):
    def unexpected(s, triple):
        raise AssertionError("the formula was built for a point of the wrong length")

    monkeypatch.setattr(cli, "nonsimple_locus_formula", unexpected)
    for s in (3, 100, 10 ** 6):
        payload = {"op": "nonsimple_locus", "s": s, "triple": [1, 2, 3], "point": ["0"] * 4}
        status, out = run_cli(capsys, "tori", "--input", json.dumps(payload))
        assert status == 2
        assert json.loads(out)["error"] == "shape-error"


def test_nonsimple_locus_budget_exit_3(capsys):
    s = NONSIMPLE_LOCUS_MAX_S + 1
    payload = {"op": "nonsimple_locus", "s": s, "triple": [1, 2, 3], "point": ["0"] * (2 * s)}
    status, out = run_cli(capsys, "tori", "--input", json.dumps(payload))
    assert status == 3
    assert json.loads(out)["error"] == "budget-exceeded"


@pytest.mark.parametrize("content", [
    b'\xff\xfe{"matrices": []}',               # not UTF-8
    b"[" + b"7" * 4301 + b"]",                  # past the interpreter's integer digit limit
    b"[" * 5000 + b"]" * 5000,                  # nested past the decoder's recursion limit
], ids=["non-utf8", "long-integer", "deep-nesting"])
def test_undecodable_input_is_a_parse_error(tmp_path, capsys, content):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    status, out = run_cli(capsys, "check", "--input", str(path))
    assert status == 1
    assert json.loads(out)["error"] == "parse-error"


def test_deeply_nested_formula_is_a_schema_error(capsys):
    formula = {"N": 1, "L": [[1]], "tau": ["0"]}
    for _ in range(2000):
        formula = {"op": "complement", "args": [formula]}
    payload = {"op": "formula", "formula": formula, "point": ["0"]}
    cfg = cli.RunConfig("tori", "-", None, 12, 240, False)
    status, rep = cli._run_one(cli._COMMANDS["tori"][0], payload, cfg)
    assert status == 1
    assert rep["error"] == "schema-error"


def test_huge_decimal_exponent_exit_1_quickly(capsys):
    for value in ("1e4301", "-2.5E-4301", "1e10000000"):
        payload = json.dumps({"points": [[value, "1"], ["1", "1"], ["1", "1"]]})
        start = time.perf_counter()
        status, out = run_cli(capsys, "classify", "--input", payload)
        assert time.perf_counter() - start < 0.5
        assert status == 1
        assert "bad fraction" in json.loads(out)["message"]


def _diag(x, y):
    return {"rows": 2, "cols": 2, "entries": [x, "0", "0", y]}


BIG = "1" + "0" * 4299   # 4,300 digits: decodable, but the traces have twice as many
BIG_TUPLE = json.dumps({"matrices": [_diag(BIG, "1/" + BIG), _diag("1/" + BIG, BIG),
                                     _diag("1", "1")]})
# Scalar factors: the determinant 10^8598 is an integer (written with no gcd).
BIG_SCALARS = json.dumps({"matrices": [_diag(BIG, BIG), _diag("1/" + BIG, "1/" + BIG),
                                       _diag("1", "1")]})


@pytest.mark.parametrize("argv", [
    ["mon", "--input", BIG_TUPLE],
    ["check", "--input", BIG_TUPLE],
    ["mon", "--input", BIG_SCALARS],
    # An integer the writer meets, not an encoder: the preimage relation 10^8598.
    ["tori", "--input", json.dumps({"op": "preimage", "matrix": [[int(BIG)]],
                                    "coset": {"N": 1, "L": [[int(BIG)]], "tau": ["0"]}})],
], ids=["mon", "check", "mon-integral", "tori-preimage"])
def test_report_integer_past_the_digit_limit_exit_3(capsys, argv):
    status, out = run_cli(capsys, *argv)
    assert status == 3
    rep = json.loads(out)
    assert rep["error"] == "budget-exceeded"
    assert "4300" in rep["message"] and "digits" in rep["message"]


def test_batch_keeps_the_other_answers_past_a_long_report_integer(capsys):
    # The preimage's relation row 10^8598 is refused as that item's budget; the
    # membership after it still answers.
    batch = [{"op": "preimage", "matrix": [[int(BIG)]],
              "coset": {"N": 1, "L": [[int(BIG)]], "tau": ["0"]}},
             {"op": "membership", "coset": {"N": 1, "L": [[1]], "tau": ["0"]}, "point": ["0"]}]
    status, out = run_cli(capsys, "tori", "--batch", "--input", json.dumps(batch))
    assert status == 3
    first, second = json.loads(out)
    assert not first["ok"] and first["error"] == "budget-exceeded"
    assert second == {"ok": True, "report": {"member": True}}


def test_orbit_on_the_long_integer_tuple_still_answers(capsys):
    # Its eigenvalues are written with all 4,300 digits: the limit itself is no budget.
    status, out = run_cli(capsys, "orbit", "--input", BIG_TUPLE)
    assert status == 0
    assert json.loads(out)["absolute"]["verdict"] == "not-absolute"
    assert f'"{BIG}"' in out


@pytest.mark.parametrize("argv", [["check", "--input", LEGENDRE_JSON],
                                  ["--describe-schema", "check"]], ids=["command", "schema"])
def test_unwritable_output_exit_1(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.json"
    assert main(argv + ["--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory" in captured.err
    assert not target.exists()


# Half the lists are three tokens near the plain path's shape [command, "--input", value], the
# value drawn from the options too; the rest mix options, values and commands freely.
argvs = st.one_of(
    st.tuples(st.sampled_from([*COMMANDS, "bogus", "--input"]),
              st.sampled_from(["--input", "-i", "--inp", "--batch", "check"]),
              st.sampled_from(ARGV_VALUES + ARGV_TOKENS)).map(list),
    st.lists(st.one_of(
        st.tuples(st.sampled_from(["--input", "-i", "--output", "-o", "--order-bound",
                                   "--conductor-cap", "--order", "--describe-schema"]),
                  st.sampled_from(ARGV_VALUES + list(COMMANDS))).map(list),
        st.sampled_from(ARGV_TOKENS + ["--output", "-o"] + ARGV_VALUES).map(lambda t: [t])),
        max_size=6).map(lambda items: [t for item in items for t in item]))


@settings(max_examples=600, derandomize=True, deadline=None)
@given(argvs)
@example([])
@example(["check", "--input", "-"])
@example(["orbit", "--input", " -x"])
@example(["check", "--input", "--batch"])
@example(["check", "--input", "-5"])
@example(["--input", "{}", "check"])
def test_plain_args_are_what_argparse_returns(argv):
    plain = cli._plain_args(argv)
    if plain is None:
        return
    try:
        parsed = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse refuses {argv!r}, which the plain path reads")
    assert vars(plain) == vars(parsed)


@pytest.mark.parametrize("argv, message", [
    ([], "a command is required (or use --describe-schema)"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'check', 'mon', "
                "'classify', 'construct', 'derham', 'orbit', 'tori')"),
    (["check", "--order-bound", "x"], "argument --order-bound: invalid int value: 'x'"),
    (["check", "--order-bound", "0"], "budgets must be positive"),
    (["check", "--conductor-cap", "0"], "budgets must be positive"),
    (["check", "--input"], "argument --input/-i: expected one argument"),
    (["check", "--o", "3"], "ambiguous option: --o could match --output, --order-bound"),
], ids=["no-command", "bogus", "bound-x", "bound-0", "cap-0", "no-value", "ambiguous"])
def test_usage_error_exit_1(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"rigidmono: error: {message}\n")


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()


def test_abbreviated_option_reads_as_the_full_one(capsys):
    full = run_cli(capsys, "check", "--input", LEGENDRE_JSON)
    assert full[0] == 0
    assert run_cli(capsys, "check", "--inp", LEGENDRE_JSON) == full
