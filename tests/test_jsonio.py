"""JSON interchange round-trips and schema validation."""

import json
from fractions import Fraction

import pytest

from liemat import AlgebraMap, FieldAutomorphism, Matrix, Subspace, conjugation_map
from liemat.errors import DimensionMismatch, MalformedJSON
from liemat import jsonio

from support import GF4, GF5, GF9, Q, random_invertible, random_matrix, rng_for


def test_field_round_trip():
    for field in (Q, GF5, GF4):
        assert jsonio.field_from_json(jsonio.field_to_json(field)) == field


def test_field_json_shapes():
    assert jsonio.field_to_json(Q) == {"kind": "Q"}
    assert jsonio.field_to_json(GF5) == {"kind": "GF", "p": 5}
    assert jsonio.field_to_json(GF4) == {
        "kind": "GFext",
        "p": 2,
        "m": 2,
        "modulus": [1, 1, 1],
    }
    # omitted modulus falls back to the deterministic default
    assert jsonio.field_from_json({"kind": "GFext", "p": 2, "m": 2}) == GF4


def test_field_flag_parsing():
    assert jsonio.parse_field_flag("q") == Q
    assert jsonio.parse_field_flag("gf:5") == GF5
    assert jsonio.parse_field_flag("gfext:2:2") == GF4
    assert jsonio.parse_field_flag("gfext:2:2:1,1,1") == GF4
    with pytest.raises(MalformedJSON):
        jsonio.parse_field_flag("gf")
    with pytest.raises(MalformedJSON):
        jsonio.parse_field_flag("reals")


def test_matrix_round_trip():
    for field in (Q, GF5, GF4):
        rng = rng_for("matrix-json", repr(field))
        m = random_matrix(field, 3, 2, rng)
        again = jsonio.matrix_from_json(jsonio.matrix_to_json(m))
        assert again == m
        # serialized form survives a JSON text cycle too
        text = json.dumps(jsonio.matrix_to_json(m))
        assert jsonio.matrix_from_json(jsonio.loads(text)) == m


def test_matrix_schema_errors():
    with pytest.raises(MalformedJSON):
        jsonio.matrix_from_json({"rows": 1, "cols": 1, "entries": [["1"]]})
    with pytest.raises(MalformedJSON):
        jsonio.matrix_from_json(
            {"field": {"kind": "Q"}, "rows": 2, "cols": 1, "entries": [["1"]]}
        )
    with pytest.raises(MalformedJSON):
        jsonio.loads("{not json")


def test_matrix_grid_errors():
    field = {"kind": "Q"}
    for grid in (
        {"field": field, "rows": 0, "cols": 2, "entries": []},
        {"field": field, "rows": 0, "entries": []},
        {"field": field, "entries": []},
    ):
        with pytest.raises(MalformedJSON, match="entry grid is empty"):
            jsonio.matrix_from_json(grid)
    for grid in (
        {"field": field, "rows": 2, "cols": 2, "entries": [["1", "2"], ["3"]]},
        {"field": field, "entries": [["1", "2"], ["3"]]},
        {"field": field, "entries": ["1"]},
    ):
        with pytest.raises(MalformedJSON, match="entry grid does not match 'cols'"):
            jsonio.matrix_from_json(grid)
    for grid in (
        {"field": field, "rows": 1, "cols": 0, "entries": [[]]},
        {"field": field, "entries": [[]]},
    ):
        with pytest.raises(DimensionMismatch, match="positive dimensions"):
            jsonio.matrix_from_json(grid)


def test_matrix_entries_parse_to_canonical_values():
    blob = {"field": jsonio.field_to_json(GF9), "entries": [["[4,-1]", "7", "[ 0, 2 ]"]]}
    assert jsonio.matrix_from_json(blob).entries == (((1, 2), (1, 0), (0, 2)),)
    blob = {"field": {"kind": "Q"}, "entries": [["2/4", " -3 "]]}
    assert jsonio.matrix_from_json(blob).entries == ((Fraction(1, 2), Fraction(-3)),)


def test_matrix_entries_must_be_strings_or_integers():
    bad = [(Q, 1.5), (GF5, 2.0), (GF4, [1, 1]), (Q, True), (GF5, None), (Q, {"n": 1})]
    for field, entry in bad:
        blob = {"field": jsonio.field_to_json(field), "entries": [[entry]]}
        with pytest.raises(MalformedJSON, match="string or an integer"):
            jsonio.matrix_from_json(blob)
    assert jsonio.matrix_from_json({"field": {"kind": "Q"}, "entries": [[3]]}).entries == (
        (Fraction(3),),
    )
    assert jsonio.matrix_from_json({"field": {"kind": "GF", "p": 5}, "entries": [[7]]}).entries == (
        (2,),
    )


def test_subspace_round_trip_canonicalizes():
    rng = rng_for("subspace-json")
    gens = [random_matrix(Q, 2, 2, rng) for _ in range(3)]
    space = Subspace.span(gens)
    blob = jsonio.subspace_to_json(space)
    assert jsonio.subspace_from_json(blob) == space
    # arbitrary generating sets are accepted and canonicalized
    noisy = {
        "ambient": blob["ambient"],
        "basis": [jsonio.matrix_to_json(g) for g in gens + [gens[0] + gens[1]]],
    }
    assert jsonio.subspace_from_json(noisy) == space


def test_algebra_map_round_trip():
    b = random_invertible(GF4, 2, rng_for("map-json"))
    m = conjugation_map(b, FieldAutomorphism.frobenius(1))
    blob = jsonio.algebra_map_to_json(m)
    again = jsonio.algebra_map_from_json(blob)
    assert again == m
    assert again.twist == FieldAutomorphism.frobenius(1)


def test_algebra_map_schema_errors():
    blob = jsonio.algebra_map_to_json(
        AlgebraMap.from_function(2, Q, lambda u: u)
    )
    del blob["images"]["1,2"]
    with pytest.raises(MalformedJSON):
        jsonio.algebra_map_from_json(blob)


def test_algebra_map_grid_faults_are_malformed():
    blob = jsonio.algebra_map_to_json(AlgebraMap.from_function(2, Q, lambda u: u))
    blob["images"]["1,1"]["entries"][0][0] = "not a scalar"
    with pytest.raises(MalformedJSON, match="bad scalar text"):
        jsonio.algebra_map_from_json(blob)
    # every grid is checked before any scalar is parsed, so a later grid
    # fault is reported ahead of the bad scalar in image 1,1
    blob["images"]["2,2"]["entries"][1] = ["1"]
    with pytest.raises(MalformedJSON, match="entry grid does not match 'cols'"):
        jsonio.algebra_map_from_json(blob)
    blob["images"]["2,2"] = jsonio.matrix_to_json(Matrix.identity(Q, 3))
    with pytest.raises(MalformedJSON, match="image 2,2 is not 2x2"):
        jsonio.algebra_map_from_json(blob)


def test_algebra_map_rejects_image_keys_that_are_not_units():
    blob = jsonio.algebra_map_to_json(AlgebraMap.from_function(2, Q, lambda u: u))
    blob["images"]["3,3"] = jsonio.matrix_to_json(Matrix.identity(Q, 2))
    with pytest.raises(MalformedJSON, match="unexpected image '3,3': not a unit of a map with n = 2"):
        jsonio.algebra_map_from_json(blob)
    # the first unexpected key in document order is the one named
    images = blob["images"]
    blob["images"] = {"x": "junk", **images}
    with pytest.raises(MalformedJSON, match="unexpected image 'x'"):
        jsonio.algebra_map_from_json(blob)
    # keys are checked before any scalar is parsed
    blob["images"]["1,1"]["entries"][0][0] = "not a scalar"
    with pytest.raises(MalformedJSON, match="unexpected image 'x'"):
        jsonio.algebra_map_from_json(blob)
    # a missing unit is still reported as missing, ahead of the extra keys
    del blob["images"]["1,2"]
    with pytest.raises(MalformedJSON, match="missing image for unit 1,2"):
        jsonio.algebra_map_from_json(blob)


def test_twist_round_trip():
    for twist in (FieldAutomorphism.identity(), FieldAutomorphism.frobenius(1)):
        assert jsonio.automorphism_from_json(jsonio.automorphism_to_json(twist)) == twist
    assert jsonio.automorphism_from_json(None) == FieldAutomorphism.identity()
