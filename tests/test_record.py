"""The value classes: constructor order, field names, defaults, equality;
and the reports, which are plain dicts."""

import copy
import inspect
import json

import pytest

from conftest import load_text
from kakimizu.diagram import Crossing, parse_diagram, seifert, validate
from kakimizu.homology import homology
from kakimizu.kcomplex import SimplicialComplex, build_complex
from kakimizu.planar import Edge
from kakimizu.structure import ball_report
from kakimizu.theta import SPHERE, Placement, ThetaComponent, ThetaEdge, ThetaGraph


def _component():
    return ThetaComponent(0, [ThetaEdge(0, 1), ThetaEdge(1, 0)], Placement(SPHERE, 0, 0))


# each class with one value per field, in constructor order
EXAMPLES = [
    (Crossing, {"id": 3, "pd": (1, 4, 2, 3)}),
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
        },
    ),
]

# the defaults of the optional parameters
DEFAULTS = {
    Edge: {"crossings": ()},
    SimplicialComplex: {"theta": None},
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


# each report's keys, in the order it lists them
REPORT_KEYS = {
    "validate": ["connected", "alternating", "special", "reduced", "prime",
                 "cuttable_region_exists", "messages"],
    "seifert": ["circles", "s", "black_regions", "white_regions", "chi", "genus_like"],
    "homology": ["reduced_betti", "torsion", "euler_characteristic"],
    "ball_report": ["dimension", "expected_dimension", "pure", "region_count",
                    "homology", "ok"],
}


def _report(name):
    d = parse_diagram(load_text("hopf.json"))
    t = ThetaGraph([_component()])
    return {
        "validate": lambda: validate(d),
        "seifert": lambda: seifert(d),
        "homology": lambda: homology(build_complex(t)),
        "ball_report": lambda: ball_report(t, build_complex(t)),
    }[name]()


@pytest.mark.parametrize("name", list(REPORT_KEYS))
def test_report_keys_in_order(name):
    report = _report(name)
    assert type(report) is dict and list(report) == REPORT_KEYS[name]


@pytest.mark.parametrize("name", list(REPORT_KEYS))
def test_report_is_its_json(name):
    report = _report(name)
    text = json.dumps(report)
    assert json.loads(text) == report
    assert list(json.loads(text)) == list(report)
