#!/usr/bin/env python3
"""
Regenerate the shipped fixture files in fixtures/.

Most fixtures are medial diagrams of the hand-built region graphs in
tests/families.py, which this script puts on sys.path; the Hopf link
uses the standard 2-crossing PD code directly, and the nugatory fixture
splices a Reidemeister-I kink into it (replace one occurrence of strand
2 by 5, route 5 through a new crossing whose little loop 6-6 sits on the
black side).  That keeps the diagram connected, alternating, and
special while making crossing 2 nugatory, which is exactly what the
validation tests need to see.

Run from the repository root:  python3 demos/make_fixtures.py
"""

import json
import sys
from pathlib import Path

from kakimizu.diagram import parse_diagram, validate
from kakimizu.medial import medial
from kakimizu.theta import theta_pipeline

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "tests"))

from families import book, cube_graph, dalpha_graph, granny_graph  # noqa: E402

HOPF = {"crossings": [{"id": 0, "pd": [1, 3, 2, 4]}, {"id": 1, "pd": [3, 1, 4, 2]}]}

NUGATORY = {
    "crossings": [
        {"id": 0, "pd": [1, 3, 5, 4]},
        {"id": 1, "pd": [3, 1, 4, 2]},
        {"id": 2, "pd": [6, 6, 2, 5]},
    ]
}


def diagram_doc(d):
    return {"crossings": [{"id": c.id, "pd": list(c.pd)} for c in d.crossings]}


def write(name, doc):
    path = FIXTURES / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(FIXTURES.parent)}")


def main():
    FIXTURES.mkdir(exist_ok=True)

    write("hopf.json", HOPF)
    write("nugatory.json", NUGATORY)
    write("trefoil.json", diagram_doc(medial(book(3))))
    write("torus24.json", diagram_doc(medial(book(4))))
    write("granny.json", diagram_doc(medial(granny_graph())))
    write("cube.json", diagram_doc(medial(cube_graph())))

    dalpha = medial(dalpha_graph())
    write("dalpha.json", diagram_doc(dalpha))
    theta = theta_pipeline(dalpha)
    write("dalpha.theta.json", theta.to_json())

    # round-trip and flag summary, so a stale fixture is noticed immediately
    for name in sorted(p.name for p in FIXTURES.glob("*.json")):
        text = (FIXTURES / name).read_text()
        if name.endswith(".theta.json"):
            continue
        report = validate(parse_diagram(text))
        flags = {k: v for k, v in report.items() if k != "messages"}
        print(f"  {name}: {flags}")


if __name__ == "__main__":
    main()
