"""Property test of the command line: valid specs of all eight commands,
mutated, run through cli.main and end in an exit status and a summary.json
whose status matches it, never in an uncaught exception.

Mutations drop or retype keys, put in NaN and infinities, rename labels to
unknown or repeated ones, and set drive values out of range.  Drives keep a
small max_steps and numbers stay within 1e3 in size, so one example runs in
milliseconds.
"""

import copy
import dataclasses
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexoct import cli
from flexoct.flexion import DriveSpec
from flexoct.octahedron import EDGE_ORDER, regular_octahedron

T1 = {"A": [1, 0, 0.5], "B": [0.1, 1, -0.4], "F": [0.7, -0.8, 0.1]}
SOURCE = {"command": "build-type1", "points": T1}
VALID = (
    {"command": "build-type1", "points": T1,
     "axis": {"point": [0, 0, 0], "direction": [0, 0, 1]}},
    {"command": "build-type1-mirror", "points": T1},
    {"command": "build-type2",
     "points": {"C": [0, 0, 1], "F": [0.2, 0, -1], "A": [1, 0.7, 0.3], "E": [-0.9, 0.5, -0.2]},
     "plane": {"point": [0, 0, 0], "normal": [0, 1, 0]}},
    {"command": "build-type3", "triangle": {"A": [0, 0], "B": [4, 0], "C": [1, 2.5]},
     "interior_point": [5 / 3, 2.5 / 3]},
    {"command": "classify", "positions": regular_octahedron().as_dict(),
     "tolerances": {"length_equality": 1e-9}},
    {"command": "classify", "edge_lengths": {e: 1.0 for e in EDGE_ORDER}},
    {"command": "flex", "source": SOURCE, "drive": {"max_steps": 3, "pin": ["A", "B", "C"]}},
    {"command": "verify", "source": SOURCE, "drive": {"max_steps": 3, "edge": "BC"}},
    {"command": "fourbar", "sides": [1, 1.5, 1.2, 0.9]},
)
# a flex or verify drive without max_steps would run the default 200 steps
PROTECTED = {"drive", "max_steps"}

LABELS = st.sampled_from(["A", "B", "C", "D", "E", "F", "G", "AA", "AD", "BC", ""])
NUMBERS = st.one_of(st.integers(-3, 5), st.floats(-1e3, 1e3),
                    st.sampled_from([math.nan, math.inf, -math.inf]))
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, LABELS)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4),
                   st.dictionaries(LABELS, SCALARS, min_size=1, max_size=3))
DRIVE_VALUES = st.one_of(NUMBERS, st.floats(0, 2), LABELS, st.lists(LABELS, max_size=4),
                         st.lists(NUMBERS, max_size=3))


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _slots(obj):
    """(container, key) of every value in a JSON tree."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in list(items):
        yield obj, key
        yield from _slots(value)


@st.composite
def mutated_specs(draw):
    raw = copy.deepcopy(draw(st.sampled_from(VALID)))
    command = raw["command"]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["number", "number", "drive", "drive",
                                   "drop", "retype", "relabel"]))
        if op == "drive":
            drive = raw.get("drive")
            if isinstance(drive, dict):
                name = draw(st.sampled_from([f.name for f in dataclasses.fields(DriveSpec)]))
                drive[name] = draw(DRIVE_VALUES)
            continue
        # the top-level command is left alone: a mismatch with the command
        # line has its own tests
        slots = [(c, k) for c, k in _slots(raw) if not (c is raw and k == "command")
                 and (op == "retype" or k not in PROTECTED)
                 and (op != "number" or _is_number(c[k]))]
        if not slots:
            continue
        container, key = draw(st.sampled_from(slots))
        if op == "number":
            container[key] = draw(NUMBERS)
        elif op == "drop":
            del container[key]
        elif op == "retype":
            container[key] = draw(VALUES)
        elif isinstance(container, dict):
            container[draw(LABELS)] = container.pop(key)
        else:
            container[key] = draw(LABELS)
    return command, raw


@settings(max_examples=800, derandomize=True, deadline=None)
@given(mutated_specs())
@example(("flex", {"command": "flex", "source": SOURCE,
                   "drive": {"max_steps": 3, "pin": ["A", "A", "B"]}}))
def test_mutated_spec_ends_in_a_summary(case):
    command, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp, "job.json")
        spec.write_text(json.dumps(raw))
        code = cli.main([command, "--spec", str(spec), "--out", str(Path(tmp, "out"))])
        assert code in (0, 1, 2)
        summary = json.loads(Path(tmp, "out", "summary.json").read_text())
        assert summary["status"] == ("ok" if code == 0 else "error")
