"""The value classes: constructor order, field names, defaults, equality."""

import copy
import inspect

import pytest

from kakimizu.diagram import Crossing, SeifertData, ValidationReport
from kakimizu.homology import HomologyReport
from kakimizu.kcomplex import SimplicialComplex
from kakimizu.planar import Edge
from kakimizu.structure import BallReport
from kakimizu.theta import SPHERE, Placement, ThetaComponent, ThetaEdge, ThetaGraph


def _component():
    return ThetaComponent(0, [ThetaEdge(0, 1), ThetaEdge(1, 0)], Placement(SPHERE, 0, 0))


# each class with one value per field, in constructor order
EXAMPLES = [
    (Crossing, {"id": 3, "pd": (1, 4, 2, 3)}),
    (
        ValidationReport,
        {
            "connected": True,
            "alternating": True,
            "special": False,
            "reduced": True,
            "prime": True,
            "cuttable_region_exists": False,
            "messages": ["not special"],
        },
    ),
    (
        SeifertData,
        {
            "circles": [[1, 2], [3, 4]],
            "s": 2,
            "black_regions": [0, 1],
            "white_regions": [2],
            "chi": 0,
            "genus_like": 0,
        },
    ),
    (Edge, {"id": 0, "u": 1, "v": 2, "crossings": (4, 5, 6)}),
    (ThetaEdge, {"id": 0, "weight": 2}),
    (Placement, {"parent": SPHERE, "parent_face": 0, "outer_face": 1}),
    (
        ThetaComponent,
        {
            "id": 0,
            "edges": [ThetaEdge(0, 1), ThetaEdge(1, 0)],
            "placement": Placement(SPHERE, 0, 0),
        },
    ),
    (
        SimplicialComplex,
        {
            "vertices": [(1, 0), (0, 1)],
            "maximal_simplices": [[0, 1]],
            "theta": ThetaGraph([_component()]),
            "key": [0, 1],
        },
    ),
    (HomologyReport, {"betti": [0, 0], "torsion": [[], []], "euler": 1}),
    (
        BallReport,
        {
            "dimension": 1,
            "expected_dimension": 1,
            "pure": True,
            "region_count": 2,
            "homology": HomologyReport([0, 0], [[], []], 1),
        },
    ),
]

# the defaults of the optional parameters
DEFAULTS = {
    ValidationReport: {"messages": []},
    Edge: {"crossings": ()},
    SimplicialComplex: {"theta": None, "key": None},
}


NAMES = [cls.__name__ for cls, _ in EXAMPLES]


@pytest.mark.parametrize("cls, fields", EXAMPLES, ids=NAMES)
def test_fields_in_constructor_order(cls, fields):
    obj = cls(*fields.values())
    assert list(inspect.signature(cls).parameters) == list(fields)
    assert {f: getattr(obj, f) for f in fields} == fields
    assert cls(**fields) == obj
    args = ", ".join(f"{f}={v!r}" for f, v in fields.items())
    assert repr(obj) == f"{cls.__name__}({args})"


@pytest.mark.parametrize("cls, fields", EXAMPLES, ids=NAMES)
def test_equality_by_fields(cls, fields):
    obj = cls(*fields.values())
    # ThetaGraph compares by identity, so the copy keeps those fields shared
    shared = {f: v for f, v in fields.items() if isinstance(v, ThetaGraph)}
    assert cls(**{**copy.deepcopy(fields), **shared}) == obj
    for f in fields:
        assert cls(**{**fields, f: object()}) != obj
    assert obj != tuple(fields.values())


FIELD_JSON = [(cls, fields) for cls, fields in EXAMPLES if "to_json" not in vars(cls)]


@pytest.mark.parametrize("cls, fields", FIELD_JSON, ids=[c.__name__ for c, _ in FIELD_JSON])
def test_to_json_maps_each_field_in_order(cls, fields):
    assert list(cls(*fields.values()).to_json().items()) == list(fields.items())


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda cls: cls.__name__)
def test_defaults_are_fresh_per_instance(cls):
    fields = next(f for c, f in EXAMPLES if c is cls)
    defaults = DEFAULTS[cls]
    required = [v for f, v in fields.items() if f not in defaults]
    a, b = cls(*required), cls(*required)
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params if p.default is not p.empty] == list(defaults)
    for f, value in defaults.items():
        assert getattr(a, f) == value
        if isinstance(value, (list, set)):
            assert getattr(a, f) is not getattr(b, f)


def test_crossing_hashes_by_fields():
    a, b = Crossing(3, (1, 4, 2, 3)), Crossing(3, (1, 4, 2, 3))
    assert hash(a) == hash(b) == hash((3, (1, 4, 2, 3)))
    assert {a, b} == {a}
    assert Crossing(4, (1, 4, 2, 3)) not in {a}
