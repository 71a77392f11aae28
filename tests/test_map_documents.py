"""Recovery from JSON map documents: the CLI parses the generator images,
certifies every other unit row on its texts, and keeps the error texts,
exit codes and their precedence of a document parsed whole."""

import json
from fractions import Fraction

import pytest

from liemat import (
    FieldAutomorphism,
    PrimeField,
    Rationals,
    conjugation_map,
    transpose_conjugation_map,
)
from liemat import jsonio, recovery
from liemat.cli import dispatch
from liemat.errors import LiematError, SingularMatrix
from liemat.fields import ExtensionField

from support import GF4, GF5, GF81, GF_LARGE, Q, random_invertible, random_matrix, rng_for

FIELDS = [Q, GF5, GF_LARGE, GF4, GF81]
FROBENIUS = FieldAutomorphism.frobenius(1)


def _map(field, n, anti, key, twist=None):
    """(Transpose-)conjugation by a seeded invertible matrix with four
    distinct entries, so that rows of the unit table repeat on every field."""
    rng = rng_for("map-doc", key, repr(field), n, anti)
    pool = [field.zero] + [field.random_scalar(rng) for _ in range(3)]
    while True:
        b = random_matrix(field, n, n, rng, lambda r: r.choice(pool))
        try:
            b.inverse()
        except SingularMatrix:
            continue
        return (transpose_conjugation_map if anti else conjugation_map)(b, twist)


def _command(anti):
    return "recover-anti" if anti else "recover-auto"


def _run(doc, command, tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    code = dispatch([command, "--in", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _first_and_later_rows(conjugator, anti):
    """The (unit key, row) positions of the unit table that open a key of
    ``recovery._row_classes``, and those that repeat one, each paired with
    the position that opened its key; in table order."""
    n = conjugator.nrows
    _values, units = recovery._row_classes(conjugator, anti)
    keys = [f"{i},{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    opened, firsts, laters = {}, [], []
    for key, (rw, ks) in zip(keys, units):
        for r, k in enumerate(ks):
            if (rw, k) in opened:
                laters.append(((key, r), opened[rw, k]))
            else:
                opened[rw, k] = (key, r)
                firsts.append((key, r))
    return firsts, laters


def _respell(field, text, rng):
    """Another spelling of the scalar ``text``: unreduced, padded, signed,
    a JSON integer, or a short coefficient list."""
    if isinstance(field, Rationals):
        a = Fraction(text)
        spellings = [f"{2 * a.numerator}/{2 * a.denominator}", f" {text}", f"{text} "]
        if a.denominator == 1:
            k = a.numerator
            spellings += [k, f"{k:+d}", f"{'-' if k < 0 else ''}000{abs(k)}"]
    elif isinstance(field, PrimeField):
        k = int(text)
        spellings = [f" {k}", f"000{k}", f"+{k}", k, str(k + field.p), str(k - field.p)]
    else:
        coeffs = json.loads(text)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        spellings = [str(coeffs).replace(" ", ""), "[ " + ", ".join(map(str, coeffs)) + " ]"]
        if len(coeffs) == 1:
            spellings += [coeffs[0], str(coeffs[0])]
    return rng.choice(spellings)


def _raised(call):
    try:
        call()
    except LiematError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


CASES = [(field, None) for field in FIELDS] + [(GF81, FROBENIUS)]


@pytest.mark.parametrize("anti", [False, True], ids=["auto", "anti"])
@pytest.mark.parametrize(("field", "twist"), CASES, ids=lambda x: repr(x) if x else "")
def test_respelled_documents_recover_as_the_map_in_memory(field, twist, anti, tmp_path, capsys):
    """Non-canonical spellings in rows that open a key and in rows that
    repeat one: the CLI answer is ``recover`` on the map in memory, bit for
    bit, and a wrong value in either kind of row fails the same way."""
    n = 5
    rng = rng_for("respell", repr(field), twist, anti)
    m = _map(field, n, anti, "respell", twist)
    want = recovery.recover(m, anti)
    doc = jsonio.algebra_map_to_json(m)
    firsts, laters = _first_and_later_rows(want.conjugator, anti)
    laters = [position for position, _first in laters]
    assert firsts and laters
    chosen = rng.sample(firsts, min(6, len(firsts))) + rng.sample(laters, min(6, len(laters)))
    for key, r in chosen:
        row = doc["images"][key]["entries"][r]
        row[:] = [_respell(field, t, rng) for t in row]
    code, out, err = _run(doc, _command(anti), tmp_path, capsys)
    assert code == 0, err
    outcome = json.loads(out)["outcome"]
    assert outcome["conjugator"] == jsonio.matrix_to_json(want.conjugator)
    assert outcome["kernel_vector"] == jsonio.matrix_to_json(want.kernel_vector)
    assert recovery.recover(jsonio.unparsed_map_from_json(doc), anti) == want
    for key, r in (chosen[0], chosen[-1]):  # a row that opens a key, one that repeats one
        wrong = json.loads(json.dumps(doc))
        row = wrong["images"][key]["entries"][r]
        value = field.add(field.parse_scalar(str(row[0])), field.one)
        row[0] = _respell(field, field.format_scalar(value), rng)
        expected = _raised(lambda: recovery.recover(jsonio.algebra_map_from_json(wrong), anti))
        assert expected is not None
        code, out, err = _run(wrong, _command(anti), tmp_path, capsys)
        assert (code, out, err.strip()) == (1, "", expected)


def _row(doc, position):
    key, r = position
    return doc["images"][key]["entries"][r]


def _malformed_as_parsed_whole(doc, tmp_path, capsys, command="recover-auto"):
    """The CLI fails on ``doc`` with exit 2 and the error of parsing it whole."""
    with pytest.raises(LiematError) as parsed_whole:
        jsonio.algebra_map_from_json(doc)
    expected = f"MalformedJSON: {parsed_whole.value}"
    code, out, err = _run(doc, command, tmp_path, capsys)
    assert (code, out, err.strip()) == (2, "", expected)
    return expected


@pytest.mark.parametrize("field", [Q, GF5, GF4], ids=repr)
@pytest.mark.parametrize("entry", [True, 1.0, None], ids=["bool", "float", "null"])
def test_a_json_value_in_a_repeated_row_is_malformed(field, entry, tmp_path, capsys):
    """A row that repeats a certified key, with one entry, a "1" where there
    is one, replaced by a JSON bool, float or null: exit 2 with the message
    of ``algebra_map_from_json``."""
    m = _map(field, 4, False, "json-value")
    doc = jsonio.algebra_map_to_json(m)
    _firsts, laters = _first_and_later_rows(recovery.recover(m, False).conjugator, False)
    row = _row(doc, laters[-1][0])
    row[next((j for j, t in enumerate(row) if t == "1"), 0)] = entry
    expected = _malformed_as_parsed_whole(doc, tmp_path, capsys)
    assert expected.startswith("MalformedJSON: entry must be a string or an integer")


@pytest.mark.parametrize("entry", [True, 1.0], ids=["bool", "float"])
def test_rows_of_json_integers_certify_no_later_row(entry, tmp_path, capsys):
    """A key opened by a row of JSON integers and repeated by the same row
    with a 1 spelled as a JSON bool or float, equal in Python: exit 2, since
    only rows of strings certify the rows that repeat them."""
    m = _map(GF5, 4, False, "json-integers")
    doc = jsonio.algebra_map_to_json(m)
    _firsts, laters = _first_and_later_rows(recovery.recover(m, False).conjugator, False)
    later, first = next((lt, ft) for lt, ft in laters if "1" in _row(doc, lt))
    for position in (first, later):
        _row(doc, position)[:] = [int(t) for t in _row(doc, position)]
    row = _row(doc, later)
    row[row.index(1)] = entry
    assert row == _row(doc, first)
    expected = _malformed_as_parsed_whole(doc, tmp_path, capsys)
    assert expected.startswith("MalformedJSON: entry must be a string or an integer")


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_a_bad_text_anywhere_outranks_a_wrong_value(field, tmp_path, capsys):
    """A wrong value in unit (1,1), in a generator image or in the last
    unit, with a bad text in unit (n,n): exit 2 with the first bad text of
    the document, as when the document is parsed whole."""
    n = 4
    for anti in (False, True):
        doc = jsonio.algebra_map_to_json(_map(field, n, anti, "precedence"))
        generator = f"1,{n}" if anti else f"{n},1"
        for wrong_key, bad_key in (("1,1", f"{n},{n}"), (generator, f"{n},{n}"), (f"{n},{n}", "1,1")):
            bad = json.loads(json.dumps(doc))
            row = bad["images"][wrong_key]["entries"][0]
            row[0] = field.format_scalar(field.add(field.parse_scalar(row[0]), field.one))
            bad["images"][bad_key]["entries"][n - 1][n - 1] = "not a scalar"
            expected = _malformed_as_parsed_whole(bad, tmp_path, capsys, _command(anti))
            assert expected.startswith("MalformedJSON: bad scalar text")


@pytest.mark.parametrize("field", [Q, GF5, GF_LARGE, GF81], ids=repr)
def test_a_scalar_past_the_int_digit_limit_is_malformed(field, tmp_path, capsys):
    """In a row that repeats a key and in a generator image."""
    m = _map(field, 4, False, "digits")
    doc = jsonio.algebra_map_to_json(m)
    _firsts, laters = _first_and_later_rows(recovery.recover(m, False).conjugator, False)
    huge = "1" + "0" * 5000
    for position in (laters[-1][0], ("1,2", 0)):
        bad = json.loads(json.dumps(doc))
        _row(bad, position)[0] = f"[{huge}]" if isinstance(field, ExtensionField) else huge
        expected = _malformed_as_parsed_whole(bad, tmp_path, capsys)
        assert expected.startswith("MalformedJSON: bad scalar text")


def _count_parsed(monkeypatch, field):
    parsed = []
    original = type(field).parse_scalars

    def parse_scalars(self, texts):
        parsed.append(len(texts))
        return original(self, texts)

    monkeypatch.setattr(type(field), "parse_scalars", parse_scalars)
    return parsed


def test_a_recovery_parses_the_generator_images_and_little_else(tmp_path, capsys, monkeypatch):
    """n = 16 over GF(5): at most n^3 scalars (the n generator images) and
    n per row class are parsed, not the n^4 of the table; the failure path
    parses each image once."""
    n, field = 16, GF5
    m = conjugation_map(random_invertible(field, n, rng_for("parse-count")))
    values, _units = recovery._row_classes(recovery.recover(m, False).conjugator, False)
    classes = n * len(values)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(jsonio.algebra_map_to_json(m)))
    parsed = _count_parsed(monkeypatch, field)
    assert dispatch(["recover-auto", "--in", str(path)]) == 0
    capsys.readouterr()
    assert sum(parsed) <= n**3 + n * classes < n**4
    parsed.clear()
    assert dispatch(["recover-anti", "--in", str(path)]) == 1
    assert capsys.readouterr().err.startswith("NotAnAntiAutomorphism:")
    assert sum(parsed) == n**4
