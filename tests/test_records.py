"""Immutable records: sieve nodes, script statements and the config."""

import os
import pickle
import subprocess
import sys

import pytest

import motivic
from motivic.config import DEFAULT, Config, from_environment
from motivic.dsl import Algebra, Statement, parse_script
from motivic.errors import WorkbenchError
from motivic.fields import GF
from motivic.poly import Poly
from motivic.sieves import Closed, Empty, Full, Inter, OpenLoc, Union

F3 = GF(3)
X, Y = (Poly.variable(v, ("x", "y"), F3) for v in ("x", "y"))
STATEMENT = parse_script("field F 3\nscheme X = Spec k[x, y]/(y - x^2)\n")[1]


def records():
    return [Full(), Empty(), Closed((X, Y)), OpenLoc(X * Y),
            Union(Closed((X,)), OpenLoc(Y)), Inter(Full(), Empty()),
            STATEMENT, Config(horizon=5)]


@pytest.mark.parametrize("rec", records(), ids=lambda r: type(r).__name__)
def test_a_record_refuses_assignment(rec):
    name = rec.__slots__[0] if rec.__slots__ else "extra"
    with pytest.raises(AttributeError):
        setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = 1
    with pytest.raises(AttributeError):
        delattr(rec, name)


def test_equality_goes_by_class_and_fields():
    a, b = Closed((X,)), OpenLoc(Y)
    assert Union(a, b) != Inter(a, b)
    assert Full() != Empty()
    assert Closed((X,)) != Closed((Y,))
    twin = Union(Closed((X,)), OpenLoc(Y))
    assert twin == Union(a, b) and hash(twin) == hash(Union(a, b))
    assert len({Full(), Full(), Empty()}) == 2
    assert Config() == DEFAULT and hash(Config()) == hash(DEFAULT)
    assert Statement("count", None, ("X", "p", None), 3) \
        != Statement("count", None, ("X", "p", None), 4)


def test_a_node_prints_as_its_fields():
    assert repr(Full()) == "Full()"
    assert repr(Closed((X,))) == "Closed(gens=(%r,))" % X
    assert repr(Union(Full(), OpenLoc(Y))) \
        == "Union(left=Full(), right=OpenLoc(g=%r))" % Y
    assert repr(Algebra(("t",), ())) == "Algebra(vars=('t',), gens=())"
    assert repr(Config()) == (
        "Config(max_variables=12, max_degree=8, max_candidates=1048576,"
        " horizon=8, window=3, skeletal_level=4, max_cells=512)")
    assert repr(STATEMENT) == "Statement(scheme X = Spec k[x, y]/(y - x^2))"


def test_records_survive_a_pickle_round_trip_through_another_process():
    build = (
        "import pickle, sys\n"
        "sys.path.insert(0, %r)\n"
        "from test_records import records\n"
        "print(pickle.dumps(records()).hex())\n"
        % os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(motivic.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONHASHSEED", None)  # string hashes differ from ours
    proc = subprocess.run([sys.executable, "-c", build], env=env,
                          capture_output=True, text=True, check=True)
    got = pickle.loads(bytes.fromhex(proc.stdout))
    assert got == records()
    assert [hash(r) for r in got] == [hash(r) for r in records()]


def test_config_keeps_its_fields_and_defaults():
    with pytest.raises(TypeError):
        Config(bogus=1)
    with pytest.raises(TypeError):
        DEFAULT.with_overrides(bogus=1)
    assert DEFAULT.with_overrides(horizon=None) is DEFAULT
    wide = DEFAULT.with_overrides(horizon=12, window=None)
    assert (wide.horizon, wide.window, wide.max_degree) == (12, 3, 8)


def test_the_environment_overlays_the_config(monkeypatch):
    monkeypatch.setenv("MOTIVIC_HORIZON", "6")
    monkeypatch.setenv("MOTIVIC_MAX_CELLS", "64")
    assert from_environment() == Config(horizon=6, max_cells=64)
    monkeypatch.setenv("MOTIVIC_WINDOW", "two")
    with pytest.raises(WorkbenchError,
                       match="^MOTIVIC_WINDOW must be an integer, got 'two'$"):
        from_environment()
