"""Generated JSON documents and command lines through the CLI: every
outcome is an exit code 0, 1 or 2, and every failure names a typed error,
never a traceback.

Documents start as valid inputs (generator lists, subspaces, and
conjugation, transpose, twisted or random maps) and then have up to two of
their values replaced by arbitrary JSON or their keys deleted; arbitrary
JSON is also fed in whole.  Command lines draw a subcommand and its flags
from edge values, bad field and preset texts, and unusable file paths.
"""

import copy
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings, strategies as st

from liemat import (
    AlgebraMap,
    FieldAutomorphism,
    Subspace,
    conjugation_map,
    errors,
    jsonio,
    transpose_conjugation_map,
)
from liemat.cli import dispatch

from support import GF2, GF4, GF5, GF9, Q, random_invertible, random_matrix

ERROR_NAMES = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.LiematError)
}
FIELDS = [Q, GF2, GF5, GF4, GF9]

_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(-4, 4, allow_nan=False, width=16),
    st.sampled_from(["", "x", "0", "1", "-1", "1/2", "1/0", "[1,0]", "[1]", "1.5"]),
)
_any = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.sampled_from(
                ["kind", "p", "m", "n", "rows", "cols", "entries", "ambient", "basis", "images"]
            ),
            inner,
            max_size=3,
        ),
    ),
    max_leaves=8,
)


@st.composite
def _generators(draw):
    field, n = draw(st.sampled_from(FIELDS)), draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    mats = [random_matrix(field, n, n, rng) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        return jsonio.subspace_to_json(Subspace.span(mats))
    return [jsonio.matrix_to_json(m) for m in mats]


@st.composite
def _maps(draw):
    field, n = draw(st.sampled_from(FIELDS)), draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    twist = FieldAutomorphism.frobenius(1) if field.order in (4, 9) and draw(st.booleans()) else None
    kind = draw(st.sampled_from(["conjugation", "transpose", "random"]))
    if kind == "random":
        images = tuple(random_matrix(field, n, n, rng) for _ in range(n * n))
        return jsonio.algebra_map_to_json(AlgebraMap(n, field, images, twist))
    make = conjugation_map if kind == "conjugation" else transpose_conjugation_map
    return jsonio.algebra_map_to_json(make(random_invertible(field, n, rng), twist))


def _paths(doc, prefix=()):
    if prefix:
        yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated(draw, valid):
    doc = copy.deepcopy(draw(valid))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_any)
    return doc


_cases = st.one_of(
    st.tuples(st.just("closure"), st.one_of(_mutated(_generators()), _any)),
    st.tuples(st.just("recover-auto"), st.one_of(_mutated(_maps()), _any)),
)


def _space(rows, cols, basis):
    return {"ambient": {"field": {"kind": "Q"}, "rows": rows, "cols": cols}, "basis": basis}


def _entry(field, value):
    return [{"field": field, "entries": [[value]]}]


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases)
@example(("closure", _space(-2, -2, [])))
@example(("closure", _space(0, 0, [])))
@example(("closure", _space(2, 2, 5)))
@example(("closure", _entry({"kind": "Q"}, 1.5)))
@example(("closure", _entry({"kind": "GF", "p": 5}, 2.0)))
@example(("closure", _entry({"kind": "GFext", "p": 2, "m": 2}, [1, 1])))
@example(("closure", _entry({"kind": "Q"}, True)))
@example(("closure", _entry({"kind": "Q"}, None)))
def test_cli_input_never_ends_in_a_traceback(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = dispatch([command, "--in", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["command"] == command
    else:
        name = err.getvalue().split(":", 1)[0]
        assert name in ERROR_NAMES, err.getvalue()



# -- argv fuzzing ------------------------------------------------------------------
#
# A drawn command line names its files by placeholders, made afresh in a
# temporary directory for each run.  Inputs are missing, a directory, not
# UTF-8, or valid; outputs go under a missing directory, onto a directory, to
# /dev/full, or to a new file.  /dev/full is drawn as an output only, because
# reading it never ends.

_MATRIX_PRESETS = ["P,E11", "E11", "E11,E12,E21", "I,S,St", "E19", "FOO", ","]
_MAP_PRESETS = ["identity", "transpose", "symplectic", "trace-shift", "bogus"]
_FIELD_FLAGS = [
    "q", "gf:5", "gf:2", "gfext:2:2", "gfext:3:2", "gfext:1000003:4", "gfext:2:320",
    "gf:4", "gf:", "gfext:4:2", "gfext:2:1", "gfext:2:2:1,1", "x",
]
_SIZES = ["-1", "0", "1", "2", "3", "1001"]
_INPUTS = ["{missing}", "{directory}", "{non-utf8}", "{valid}"]
_OUTPUTS = ["{missing}/out", "{directory}", "/dev/full", "{new}"]
# command -> (what --in holds, or None for no input flags; its own flags)
_COMMANDS = {
    "bracket": ("subject", []),
    "closure": ("subject", [("--kind", ["lie", "associative"])]),
    "chain": ("subject", [("--max-k", ["-1", "0", "1", "1000000000"])]),
    "nilpotency": ("subject", []),
    "hereditary": ("subject", [("--k", ["-1", "0", "1", "2", "1000000000"]), ("--prop", ["D", "L"])]),
    "bounds": (None, [("--max-n", ["-1", "0", "1", "3", "1000000000"]), ("--csv", _OUTPUTS)]),
    "recover-auto": ("map", []),
    "recover-anti": ("map", []),
    "decompose": ("map", []),
    "verify-example": (None, []),
    "selftest": (None, [("--seed", ["-1", "0", "5"])]),
}
_rng = random.Random(0)
_VALID_FILES = {
    "subject": [jsonio.matrix_to_json(random_matrix(GF5, 2, 2, _rng)) for _ in range(2)],
    "map": jsonio.algebra_map_to_json(conjugation_map(random_invertible(GF5, 2, _rng))),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    reads, own = _COMMANDS[command]
    argv = [command]
    for flag, values in own:
        if command == "hereditary" or draw(st.booleans()):  # its flags are required
            argv += [flag, draw(st.sampled_from(values))]
    if reads:
        source = draw(st.sampled_from(["in", "preset", "both", "neither"]))
        if source in ("in", "both"):
            argv += ["--in", draw(st.sampled_from(_INPUTS)).replace("valid", reads)]
        if source in ("preset", "both"):
            presets = _MATRIX_PRESETS if reads == "subject" else _MAP_PRESETS
            argv += ["--preset", draw(st.sampled_from(presets))]
            argv += ["--n", draw(st.sampled_from(_SIZES))]
            if draw(st.booleans()):
                argv += ["--field", draw(st.sampled_from(_FIELD_FLAGS))]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(_OUTPUTS))]
    return argv


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
@example(["closure", "--preset", "P,E11", "--n", "2", "--out", "{missing}/out"])
@example(["closure", "--preset", "P,E11", "--n", "2", "--out", "{directory}"])
@example(["verify-example", "--out", "/dev/full"])
@example(["closure", "--in", "{directory}"])
@example(["closure", "--in", "{non-utf8}"])
@example(["bounds", "--max-n", "3", "--csv", "{missing}/out"])
@example(["bounds", "--max-n", "3", "--csv", "{directory}"])
def test_cli_argv_never_ends_in_a_traceback(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            "directory": tmp,
            "missing": os.path.join(tmp, "missing"),
            "new": os.path.join(tmp, "new"),
            "non-utf8": os.path.join(tmp, "non-utf8.json"),
        }
        with open(paths["non-utf8"], "wb") as fh:
            fh.write(b"[\xff\xfe]")
        for name, doc in _VALID_FILES.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = dispatch([a.format(**paths) for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["command"] == argv[0]  # one document
    else:
        assert out.getvalue() == ""
        name = err.getvalue().split(":", 1)[0]
        assert name in ERROR_NAMES, err.getvalue()
