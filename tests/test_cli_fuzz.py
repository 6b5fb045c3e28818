"""Every CLI input ends in an exit status from 0 to 3, never a traceback.

Derandomized ``hypothesis`` fuzzing of all seven commands: JSON trees built
from the commands' own keys, with small scalars (conductors up to 12,
integers up to 10^3, ``[p, q]`` pairs), some well-formed and some not;
integer fields also draw ``true`` and ``false``, a coset's ``empty`` flag
draws non-booleans, and its ``N`` sometimes runs far past its translate.  A
malformed scalar must exit 1, whatever it is malformed by, and a
``nonsimple_locus`` request past the budget on s must exit 3.  Argument lists
are fuzzed too: a usage error or help ends in ``SystemExit`` 1 or 0.
"""
import contextlib
import io
import json
import sys
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ARGV_TOKENS, ARGV_VALUES
from rigidmono import Matrix, rational, zeta
from rigidmono import serialize as wire
from rigidmono.cli import COMMANDS, _TORI_OPS, main
from rigidmono.tori import NONSIMPLE_LOCUS_MAX_S

KEYS = ["r", "s", "matrices", "rows", "cols", "entries", "n", "c", "k", "points", "eigen",
        "spec", "triple", "geometry", "genus", "degH", "op", "coset", "point", "a", "b",
        "matrix", "formula", "args", "order_bound", "N", "L", "tau", "empty"]
OPS = sorted(_TORI_OPS) + ["union", "intersection", "complement"]

ints = st.integers(-1000, 1000)
small = st.integers(-3, 12)


def or_bool(integers):
    # An integer field also draws true and false, which JSON decodes to
    # Python ints and the wire must refuse.
    return st.one_of(integers, st.booleans())


counts = or_bool(small)
fractions = st.builds("{}/{}".format, ints, st.integers(-2, 1000))
# [p, q] pair parts: ints and integer strings (q zero or negative too), and
# the null, float, bool and list parts a pair must refuse.
good_parts = st.one_of(small, st.builds(str, st.integers(-12, 12)))
bad_parts = st.one_of(st.none(), st.floats(-4, 4, allow_nan=False), st.booleans(),
                      st.lists(small, max_size=2))
pairs = st.lists(st.one_of(good_parts, bad_parts), min_size=2, max_size=2)
# "c" lists run up to two coordinates past the declared conductor.
cycnums = or_bool(st.integers(-1, 12)).flatmap(lambda n: st.fixed_dictionaries(
    {"n": st.just(n), "c": st.lists(st.one_of(small, fractions, pairs), max_size=max(n, 0) + 2)}))
scalars = st.one_of(small, fractions, cycnums)
leaves = st.one_of(st.none(), st.booleans(), ints, fractions, cycnums,
                   st.sampled_from(KEYS + OPS))
trees = st.recursive(
    leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.sampled_from(KEYS), kids, max_size=4)),
    max_leaves=24)
values = st.one_of(scalars, trees)


@st.composite
def matrices(draw, size=None):
    size = size or draw(st.integers(1, 3))
    entries = draw(st.lists(scalars, min_size=size * size, max_size=size * size))
    rows, cols = (draw(st.one_of(st.just(size), st.booleans())) for _ in range(2))
    return {"rows": rows, "cols": cols, "entries": entries}


@st.composite
def closed_tuples(draw):
    # Rational factors closed by the inverse of their product: a valid tuple
    # whenever the drawn factors are invertible.
    size, s = draw(st.integers(1, 3)), draw(st.integers(3, 4))
    mats = []
    for _ in range(s - 1):
        ent = draw(st.lists(st.integers(-4, 4), min_size=size * size, max_size=size * size))
        m = Matrix(size, size, tuple(rational(x) for x in ent))
        if not m.det():
            return {"matrices": [wire.matrix_to_json(m)]}
        mats.append(m)
    prod = Matrix.identity(size)
    for m in mats:
        prod = prod @ m
    mats.append(prod.inverse())
    return {"matrices": [wire.matrix_to_json(m) for m in mats]}


tuples = st.one_of(
    closed_tuples(),
    st.fixed_dictionaries({"matrices": st.lists(st.one_of(matrices(2), values), max_size=4)},
                          optional={"r": counts, "s": counts}))
units = st.builds(lambda n, k: wire.cyc_to_json(zeta(n, k)), st.integers(1, 12), st.integers(0, 11))
good_scalars = st.one_of(st.integers(1, 1000), st.builds("{}/{}".format, ints, st.integers(1, 9)),
                         units)


def good_eigens(s):
    return st.fixed_dictionaries({"points": st.lists(
        st.lists(st.one_of(units, good_scalars), min_size=2, max_size=2), min_size=s, max_size=s)})


def good_specs(s):
    return st.fixed_dictionaries(
        {"s": st.just(s), "triple": st.permutations(range(1, s + 1)).map(lambda p: sorted(p[:3]))})


points = st.one_of(st.lists(scalars, min_size=1, max_size=3), values)
eigens = st.one_of(st.integers(3, 4).flatmap(good_eigens), st.fixed_dictionaries(
    {"points": st.lists(points, min_size=1, max_size=4)}, optional={"r": counts, "s": counts}))
specs = st.fixed_dictionaries({"s": counts, "triple": st.lists(counts, max_size=4)})
geometries = st.fixed_dictionaries({"genus": or_bool(st.integers(-1, 3)),
                                    "degH": or_bool(st.integers(-1, 3))})


# The "empty" flag is a JSON boolean; strings, 0, 1 and null must be refused.
empty_flags = st.one_of(st.booleans(), st.sampled_from(["yes", "true", "", 0, 1, None]))


@st.composite
def cosets(draw, dim=None):
    n = dim or draw(or_bool(st.integers(-1, 3)))
    width = st.integers(0, 3) if dim is None else st.just(dim)
    if draw(st.integers(0, 9)) == 0:
        # An ambient dimension far above the rows and translate drawn below.
        n = draw(st.integers(4, 10 ** 6))
    return {"N": n,
            "L": draw(st.lists(width.flatmap(lambda w: st.lists(counts, min_size=w, max_size=w)),
                               max_size=3)),
            "tau": draw(width.flatmap(lambda w: st.lists(st.one_of(small, fractions),
                                                         min_size=w, max_size=w))),
            **({"empty": draw(empty_flags)} if draw(st.integers(0, 4)) == 0 else {})}


@st.composite
def tori_requests(draw):
    n = draw(st.one_of(st.integers(1, 3), st.none()))
    args = {"coset": cosets(n), "a": cosets(n), "b": cosets(n),
            "point": st.lists(fractions, min_size=n or 0, max_size=n or 4),
            "matrix": st.lists(st.lists(counts, min_size=n or 0, max_size=n or 3), max_size=3),
            "order_bound": or_bool(st.integers(-1, 12)),
            "formula": st.recursive(cosets(n), lambda kids: st.fixed_dictionaries(
                {"op": st.sampled_from(OPS), "args": st.lists(kids, max_size=3)}), max_leaves=4),
            "s": st.one_of(or_bool(st.integers(-1, 4)),
                           st.integers(NONSIMPLE_LOCUS_MAX_S + 1, 10 ** 6)),
            "triple": st.lists(or_bool(st.integers(0, 4)), max_size=4)}
    op = draw(st.one_of(st.sampled_from(sorted(_TORI_OPS)), st.sampled_from(OPS), values))
    keys = _TORI_OPS[op][0] if isinstance(op, str) and op in _TORI_OPS else set(args)
    # sorted: set order varies with the hash seed, and the draws must not.
    return {"op": op, **{k: draw(args[k]) for k in sorted(keys) if draw(st.integers(0, 9))}}


PAYLOADS = {
    "check": tuples,
    "mon": tuples,
    "orbit": tuples,
    "classify": eigens,
    "construct": st.one_of(
        st.integers(3, 4).flatmap(lambda s: st.fixed_dictionaries(
            {"eigen": good_eigens(s), "spec": good_specs(s)})),
        st.fixed_dictionaries({"eigen": eigens, "spec": specs})),
    "derham": st.fixed_dictionaries({"eigen": eigens, "geometry": geometries}),
    "tori": tori_requests(),
}
assert set(PAYLOADS) == set(COMMANDS)


@settings(max_examples=400, derandomize=True, deadline=timedelta(seconds=5))
@given(st.sampled_from(COMMANDS).flatmap(
           lambda cmd: st.tuples(st.just(cmd), st.one_of(PAYLOADS[cmd], values))),
       st.booleans())
def test_every_input_exits_0_to_3(request, batch):
    command, payload = request
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps([payload] if batch else payload))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = main([command, "--input", "-"] + (["--batch"] if batch else []))
    finally:
        sys.stdin = stdin
    assert status in (0, 1, 2, 3)


def _classify_status(scalar):
    payload = json.dumps({"points": [[scalar, "1"], ["1", "1"], ["1", "1"]]})
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["classify", "--input", payload])


good_coords = st.one_of(small, st.builds("{}/{}".format, ints, st.integers(1, 1000)),
                        st.tuples(good_parts, good_parts.filter(lambda q: int(q))).map(list))
bad_coords = st.one_of(st.none(), st.floats(-4, 4, allow_nan=False), st.booleans(),
                       st.lists(good_parts, max_size=1), st.lists(good_parts, min_size=3, max_size=3),
                       st.tuples(good_parts, bad_parts).map(list),
                       st.tuples(bad_parts, good_parts).map(list),
                       st.tuples(good_parts, st.sampled_from([0, "0", "-0"])).map(list))


@settings(max_examples=150, derandomize=True, deadline=timedelta(seconds=5))
@given(st.integers(1, 12).flatmap(
           lambda n: st.tuples(st.just(n), st.lists(good_coords, max_size=n))),
       bad_coords, st.data())
def test_malformed_scalars_exit_1(well_formed, bad, data):
    # One bad coordinate among good ones, a bad bare scalar, or one
    # coordinate too many: each is a schema error, never exit 0, 2 or 3.
    n, coords = well_formed
    at = data.draw(st.integers(0, len(coords)))
    assert _classify_status({"n": n, "c": coords[:at] + [bad] + coords[at:]}) == 1
    assert _classify_status(bad) == 1
    extra = data.draw(st.lists(good_coords, min_size=n + 1 - len(coords),
                               max_size=n + 2 - len(coords)))
    assert _classify_status({"n": n, "c": coords + extra}) == 1


@settings(max_examples=30, derandomize=True, deadline=timedelta(seconds=5))
@given(st.integers(NONSIMPLE_LOCUS_MAX_S + 1, 4 * NONSIMPLE_LOCUS_MAX_S), st.data())
def test_nonsimple_locus_beyond_its_budget_exits_3(s, data):
    # A well-formed request whose formula would exceed the budget on s.
    triple = data.draw(st.lists(st.integers(1, s), min_size=3, max_size=3, unique=True))
    payload = {"op": "nonsimple_locus", "s": s, "triple": sorted(triple),
               "point": [data.draw(st.builds("{}/{}".format, ints, st.integers(1, 9)))] * (2 * s)}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["tori", "--input", json.dumps(payload)]) == 3


SMALL_PAYLOAD = json.dumps({"op": "enumerate", "coset": {"N": 1, "L": [[2]], "tau": ["0"]},
                            "order_bound": 4})


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
@given(st.lists(st.sampled_from(ARGV_TOKENS + ARGV_VALUES), max_size=6))
def test_every_argv_exits_0_to_3(tokens):
    stdin = sys.stdin
    sys.stdin = io.StringIO(SMALL_PAYLOAD)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = main(["--input", SMALL_PAYLOAD, *tokens])
    except SystemExit as exc:
        assert exc.code in (0, 1)
    else:
        assert status in (0, 1, 2, 3)
    finally:
        sys.stdin = stdin
