"""Each tuple invariant is computed once per CLI request.

The counters wrap the public analysis functions in every package namespace
that binds them, so a call counts wherever it is made from.
"""
import json
import sys

from conftest import legendre_tuple
from rigidmono import Matrix
from rigidmono import monodromy
from rigidmono import serialize as wire
from rigidmono.cli import main

LEGENDRE_JSON = json.dumps(wire.tuple_to_json(legendre_tuple()))


def _count_calls(monkeypatch, name):
    original = getattr(monodromy, name)
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


def test_mon_computes_each_determinant_once(monkeypatch, capsys):
    factors = list(legendre_tuple().matrices)
    dets = []
    original = Matrix.det

    def counted(self):
        dets.append(self)
        return original(self)

    monkeypatch.setattr(Matrix, "det", counted)
    _run(capsys, "mon", "--input", LEGENDRE_JSON)
    assert dets == factors


def test_mon_computes_each_charpoly_once(monkeypatch, capsys):
    # The Legendre tuple has one non-triangular factor, whose characteristic
    # polynomial the eigenvalue search reuses.
    charpolys = _count_calls(monkeypatch, "charpoly")
    _run(capsys, "mon", "--input", LEGENDRE_JSON)
    assert len(charpolys) == 3


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
