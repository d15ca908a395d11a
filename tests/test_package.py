"""The package surface: exports resolved on first access, and the
immutable records that replaced frozen dataclasses."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import geodual
from geodual import (
    ElementSet,
    GroundSet,
    Implication,
    MinimalGenerator,
    PreconditionError,
    RankConflict,
    RankedSet,
    RankFunction,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# The submodules that importing the package used to load eagerly.
SUBMODULES = (
    "ccm", "critical", "dualization", "errors", "hypergraphs", "implications",
    "ranking", "sets", "sid",
)


def test_import_loads_no_submodule():
    script = (
        "import sys, geodual\n"
        "print(sorted(m for m in sys.modules if m.startswith('geodual.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_exports_resolve_to_their_submodule_objects(monkeypatch):
    for name in geodual.__all__:
        # Drop the cached binding so that the lookup goes through the package.
        monkeypatch.delattr(geodual, name, raising=False)
        value = getattr(geodual, name)
        assert getattr(sys.modules[value.__module__], name) is value
        assert vars(geodual)[name] is value


def test_star_import_binds_every_export():
    namespace = {}
    exec("from geodual import *", namespace)
    assert {name: namespace[name] for name in geodual.__all__} == {
        name: getattr(geodual, name) for name in geodual.__all__
    }


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve_as_attributes(monkeypatch, name):
    monkeypatch.delattr(geodual, name, raising=False)
    assert getattr(geodual, name) is sys.modules[f"geodual.{name}"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        geodual.no_such_name
    assert not hasattr(geodual, "no_such_name")


def test_dir_lists_the_public_names():
    listed = dir(geodual)
    assert set(geodual.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)


# -- the four records ----------------------------------------------------------

G = GroundSet("abc")
AB = Implication(ElementSet.of(G, [0]), 1)
BC = Implication(ElementSet.of(G, [1]), 2)

# type, keyword fields, fields of an unequal instance, the frozen dataclass's repr
RECORDS = [
    (RankFunction, {"ranks": (0, 1)}, {"ranks": (1, 0)}, "RankFunction(ranks=(0, 1))"),
    (
        RankConflict,
        {"element": 0, "required_ranks": (1, 2), "witness_implications": (AB, BC)},
        {"element": 1, "required_ranks": (1, 2), "witness_implications": (AB, BC)},
        "RankConflict(element=0, required_ranks=(1, 2), witness_implications=(a -> b, b -> c))",
    ),
    (
        RankedSet,
        {"members": ElementSet.of(G, [0, 1]), "rank": 2},
        {"members": ElementSet.of(G, [0, 1]), "rank": 1},
        "RankedSet(members={a b}, rank=2)",
    ),
    (
        MinimalGenerator,
        {"generator": ElementSet.of(G, [0]), "target": 2},
        {"generator": ElementSet.of(G, [0]), "target": 1},
        "MinimalGenerator(generator={a}, target=2)",
    ),
]


@pytest.mark.parametrize(
    "cls, fields, other, text", RECORDS, ids=[record[0].__name__ for record in RECORDS]
)
def test_record_behaves_as_its_frozen_dataclass(cls, fields, other, text):
    x = cls(**fields)
    assert cls(*fields.values()) == x
    assert hash(cls(*fields.values())) == hash(x)
    assert cls(**other) != x
    assert x.__eq__(tuple(fields.values())) is NotImplemented
    assert repr(x) == text
    for name, value in fields.items():
        assert getattr(x, name) == value
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    copy = pickle.loads(pickle.dumps(x))
    assert type(copy) is cls and copy == x and repr(copy) == text


def test_records_of_different_types_differ():
    members = ElementSet.of(G, [0])
    assert RankedSet(members, 2) != MinimalGenerator(members, 2)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: RankedSet(ElementSet.of(G, [0]), -1), PreconditionError,
         "rank must be a natural number"),
        (lambda: MinimalGenerator(ElementSet.of(G, [0]), 0), PreconditionError,
         "target element must lie outside its generator"),
    ],
    ids=["ranked-set", "minimal-generator"],
)
def test_record_validation(make, error, message):
    with pytest.raises(error, match=message):
        make()
