"""CLI dispatch: exit codes, report shapes, file round-trips."""

import argparse
import json
import os
import random
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from liemat import (
    ExtensionField,
    FieldAutomorphism,
    Matrix,
    conjugation_map,
    cyclic_permutation,
    decompose_lie_automorphism,
    matrix_unit,
    residual_trace_form_check,
    transpose_conjugation_map,
)
from liemat import centralizers, cli, errors, jsonio, presets, recovery, selftest
from liemat.cli import build_parser, dispatch
from liemat.errors import EnumerationTooLarge

from support import (
    GF4,
    GF5,
    GF81,
    GF_LARGE,
    Q,
    negated,
    plus_trace,
    random_invertible,
    rng_for,
)


def run_cli(argv, capsys):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_example(capsys):
    code, out = run_cli(["verify-example"], capsys)
    assert code == 0
    report = json.loads(out)  # stdout is exactly one JSON document
    assert report["outcome"]["verified"] is True
    # both fields carried the expected block conjugator
    for result in report["outcome"]["results"]:
        assert result["verified"] is True


def test_closure_preset(capsys):
    code, out = run_cli(
        ["closure", "--kind", "lie", "--n", "4", "--preset", "P,E11"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["dim"] == 16


def test_unit_presets_with_two_digit_indices(capsys):
    """``E<i>_<j>`` names any unit, so the generating pair {S, E(n,1)} can be
    given for n >= 10; ``E<i><j>`` keeps its single-digit meaning."""
    code, out = run_cli(["closure", "--kind", "associative", "--preset", "S,E10_1", "--n", "10"], capsys)
    assert code == 0 and json.loads(out)["outcome"]["dim"] == 100
    assert presets.preset_matrix("E10_12", Q, 12) == matrix_unit(Q, 12, 10, 12)
    assert presets.preset_matrix("E1_2", Q, 2) == presets.preset_matrix("E12", Q, 2)
    for token, n in (("E11_1", "10"), ("E1_11", "10"), ("E3_1", "2"), (f"E{'1' * 5000}_1", "3")):
        assert dispatch(["closure", "--preset", token, "--n", n]) == 1
        assert capsys.readouterr().err.startswith("IndexOutOfRange: ")
    for token in ("E101", "E0_1", "E1_0", "E1_", "E_1", "E01_1", "E1__1", "E1_2_3"):
        assert dispatch(["closure", "--preset", token, "--n", "10"]) == 2
        assert capsys.readouterr().err.startswith(f"MalformedJSON: unknown matrix preset '{token}'")


def test_bracket_round_trip(tmp_path, capsys):
    out_file = tmp_path / "bracket.json"
    code, out = run_cli(
        ["bracket", "--n", "3", "--preset", "E11,P", "--out", str(out_file)], capsys
    )
    assert code == 0
    matrix = jsonio.matrix_from_json(jsonio.load_path(out_file))
    expected = matrix_unit(Q, 3, 1, 2) - matrix_unit(Q, 3, 3, 1)
    assert matrix == expected
    # parse(print(x)) = x: feed the emitted matrix back in
    pair = [jsonio.matrix_to_json(matrix), jsonio.matrix_to_json(matrix)]
    in_file = tmp_path / "pair.json"
    in_file.write_text(json.dumps(pair))
    code, out = run_cli(["bracket", "--in", str(in_file)], capsys)
    assert code == 0
    assert jsonio.matrix_from_json(json.loads(out)["outcome"]["matrix"]).is_zero()


def test_closure_output_feeds_chain(tmp_path, capsys):
    out_file = tmp_path / "closure.json"
    code, _ = run_cli(
        ["closure", "--n", "2", "--preset", "E11", "--out", str(out_file)], capsys
    )
    assert code == 0
    code, out = run_cli(["chain", "--in", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["stabilization_index"] >= 1


def test_chain_and_nilpotency(capsys):
    code, out = run_cli(
        ["chain", "--n", "2", "--preset", "E11", "--field", "gf:5"], capsys
    )
    assert code == 0
    assert json.loads(out)["outcome"]["level_dims"] == [2, 2]
    code, out = run_cli(
        ["nilpotency", "--n", "3", "--preset", "E12,E13,E23"], capsys
    )
    assert code == 0
    outcome = json.loads(out)["outcome"]
    assert outcome["is_lie_nilpotent"] and outcome["index"] == 2


def test_hereditary(capsys):
    code, out = run_cli(
        ["hereditary", "--n", "2", "--preset", "E11", "--k", "2", "--prop", "D"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["outcome"]["dim"] == 4


def test_bounds_csv(tmp_path, capsys):
    csv_path = tmp_path / "bounds.csv"
    code, out = run_cli(
        ["bounds", "--max-n", "6", "--csv", str(csv_path)], capsys
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,k,index_dim_bound,conjectured_bound"
    assert len(lines) == 1 + 6 * 7 // 2
    rows = json.loads(out)["outcome"]["rows"]
    assert {"n": 5, "k": 1, "index_dim_bound": 7, "conjectured_bound": 11} in rows


def test_recover_auto_file_and_error_path(tmp_path, capsys):
    b = random_invertible(Q, 3, rng_for("cli-recover"))
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(jsonio.algebra_map_to_json(conjugation_map(b))))
    code, out = run_cli(["recover-auto", "--in", str(map_file)], capsys)
    assert code == 0
    assert json.loads(out)["outcome"]["verified"] is True

    # transpose map through the automorphism pipeline: domain error, exit 1
    code, _ = run_cli(["recover-auto", "--preset", "transpose", "--n", "3"], capsys)
    assert code == 1


def test_recover_auto_rank_two_unit_image_exit_1(tmp_path, capsys):
    doc = jsonio.algebra_map_to_json(conjugation_map(Matrix.identity(Q, 3)))
    rank_two = matrix_unit(Q, 3, 3, 1) + matrix_unit(Q, 3, 1, 3)
    doc["images"]["3,1"] = jsonio.matrix_to_json(rank_two)
    map_file = tmp_path / "rank-two.json"
    map_file.write_text(json.dumps(doc))
    assert dispatch(["recover-auto", "--in", str(map_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("NotAnAutomorphism: phi(E(n,1)) does not have rank 1")


def test_recover_auto_rejects_an_image_key_that_is_not_a_unit(tmp_path, capsys):
    doc = jsonio.algebra_map_to_json(conjugation_map(Matrix.identity(Q, 2)))
    doc["images"]["3,3"] = jsonio.matrix_to_json(Matrix.identity(Q, 2))
    map_file = tmp_path / "extra-key.json"
    map_file.write_text(json.dumps(doc))
    assert dispatch(["recover-auto", "--in", str(map_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("MalformedJSON: unexpected image '3,3'")


def _run_capped(argv, timeout=30):
    """``python -m liemat argv`` with a timeout and a 1 GiB address-space
    cap, so that a regression fails the test instead of hanging the suite
    or exhausting memory."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "liemat", *argv],
        capture_output=True, text=True, env=env, timeout=timeout, preexec_fn=cap_memory,
    )


def test_map_with_a_huge_n_and_no_images_fails_at_once(tmp_path):
    """The unit keys are formed one at a time, so the first missing one is
    reported before n^2 keys are built.  Run in a capped process."""
    map_file = tmp_path / "huge-n.json"
    map_file.write_text(json.dumps({"n": 10**6, "field": {"kind": "Q"}, "images": {}}))
    proc = _run_capped(["recover-auto", "--in", str(map_file)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("MalformedJSON: missing image for unit 1,1")


HUGE_AMBIENT = {"ambient": {"field": {"kind": "Q"}, "rows": 100000, "cols": 100000}, "basis": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--in", "{doc}"],
        ["nilpotency", "--in", "{doc}"],
        ["closure", "--preset", "P,E11", "--n", "100000"],
        ["chain", "--preset", "E11,E12", "--n", "100000"],
        ["recover-auto", "--preset", "identity", "--n", "100000"],
        ["hereditary", "--preset", "E11,E12,E21", "--n", "2", "--k", "1000000000", "--prop", "D"],
    ],
    ids=" ".join,
)
def test_sizes_past_the_enumeration_guard_fail_at_once(tmp_path, argv):
    """An input of more than ``ENUMERATION_GUARD`` scalars, n^2 for a
    matrix or an ambient space and n^4 for a map preset, or an enumeration
    of more tuples than that, is refused before any of it is built.  Run in
    a capped process."""
    doc = tmp_path / "huge-ambient.json"
    doc.write_text(json.dumps(HUGE_AMBIENT))
    proc = _run_capped([a.format(doc=doc) for a in argv])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("EnumerationTooLarge:")
    assert "exceed the guard of 1000000" in proc.stderr


def test_hereditary_tuples_longer_than_the_set_are_vacuous_at_once():
    """k > |H| leaves no admissible k-tuple for either property, so the
    whole space comes back without a k-tuple being formed."""
    for prop in "DL":
        proc = _run_capped(
            ["hereditary", "--preset", "E11", "--n", "2", "--k", "1000000000", "--prop", prop]
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["outcome"]["dim"] == 4


def test_default_moduli_of_large_or_deep_extensions():
    """GF(1000003^4) has no irreducible x^4 + c (1000003 = 3 mod 4), so the
    search starts past the binomials; degree 320 is refused before any
    irreducibility test."""
    proc = _run_capped(
        ["closure", "--preset", "E11", "--n", "2", "--field", "gfext:1000003:4"], timeout=10
    )
    assert proc.returncode == 0, proc.stderr
    field = json.loads(proc.stdout)["outcome"]["subspace"]["ambient"]["field"]
    assert field["modulus"] == [1, 1, 0, 0, 1]
    proc = _run_capped(
        ["closure", "--preset", "E11", "--n", "2", "--field", "gfext:2:320"], timeout=10
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("EnumerationTooLarge:")
    assert "Traceback" not in proc.stderr


def _bad_files(tmp_path):
    """Unreadable inputs, by kind: a directory, bytes that are not UTF-8,
    an integer past the digit limit and nesting past the parser's stack."""
    files = {"directory": tmp_path}
    for name, data in [
        ("non-utf8", b"[\xff\xfe]"),
        ("long-int", b"[" + b"1" * 5000 + b"]"),
        ("deep", b"[" * 200000 + b"]" * 200000),
    ]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_bytes(data)
    return files


@pytest.mark.parametrize(
    "argv",
    [
        ["closure", "--in", "{directory}"],
        ["closure", "--in", "{non-utf8}"],
        ["closure", "--in", "{long-int}"],
        ["recover-auto", "--in", "{deep}"],
        ["closure", "--in", "{missing}"],
        ["closure", "--preset", "P,E11", "--n", "2", "--out", "{missing}/x.json"],
        ["closure", "--preset", "P,E11", "--n", "2", "--out", "{directory}"],
        ["verify-example", "--out", "/dev/full"],
        ["bounds", "--max-n", "3", "--csv", "{missing}/x.csv"],
        ["bounds", "--max-n", "3", "--csv", "{directory}"],
    ],
    ids=" ".join,
)
def test_unreadable_inputs_and_unwritable_outputs_exit_2(tmp_path, capsys, argv):
    """A file that cannot be read or decoded, or an output that cannot be
    written, is a typed usage error; a failed write prints no report."""
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    paths = {**_bad_files(tmp_path), "missing": tmp_path / "missing"}
    code = dispatch([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    first = captured.err.splitlines()[0]
    assert first.split(":", 1)[0] in vars(errors), first
    assert "cannot write output" in first or "--in" in argv
    assert "Traceback" not in captured.err


def test_inputs_past_the_read_bound_exit_2(tmp_path, capsys, monkeypatch):
    """``load_path`` reads at most ``MAX_INPUT_CHARS`` characters, so a
    longer file, or /dev/zero, which never ends, is refused with exit 2;
    a file of exactly the bound is read.  The bound is set small here."""
    monkeypatch.setattr(jsonio, "MAX_INPUT_CHARS", 200)
    text = json.dumps([jsonio.matrix_to_json(cyclic_permutation(Q, 2))])
    path = tmp_path / "matrices.json"
    path.write_text(text.ljust(200))
    assert dispatch(["closure", "--in", str(path)]) == 0
    capsys.readouterr()
    paths = [path]
    if os.path.exists("/dev/zero"):
        paths.append("/dev/zero")
    path.write_text(text.ljust(201))
    for p in paths:
        assert dispatch(["closure", "--in", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "MalformedJSON: cannot read input: longer than 200 characters\n"


def test_presets_past_the_enumeration_guard_build_nothing(monkeypatch):
    """The guard sits in the preset builders, so library callers get it
    too: n^2 > 10^6 scalars for a matrix, n^4 for a map."""

    def refuse(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(presets, "cyclic_permutation", refuse)
    with pytest.raises(EnumerationTooLarge, match="1002001 scalars"):
        presets.preset_matrix("P", Q, 1001)
    assert presets.preset_matrix("E11", Q, 1) == Matrix.identity(Q, 1)
    monkeypatch.setattr(recovery, "matrix_unit", refuse)
    with pytest.raises(EnumerationTooLarge, match="1048576 scalars"):
        presets.preset_map("identity", Q, 32)


def test_recover_commands_on_twisted_maps(tmp_path, capsys):
    b = random_invertible(GF4, 3, rng_for("cli-twisted"))
    frob = FieldAutomorphism.frobenius(1)
    for command, make, other in (
        ("recover-auto", conjugation_map, "recover-anti"),
        ("recover-anti", transpose_conjugation_map, "recover-auto"),
    ):
        map_file = tmp_path / f"{command}.json"
        map_file.write_text(json.dumps(jsonio.algebra_map_to_json(make(b, frob))))
        assert dispatch([command, "--in", str(map_file)]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"]["verified"] is True
        assert dispatch([other, "--in", str(map_file)]) == 1
        assert capsys.readouterr().err.startswith("NotATwisted")


def test_recover_anti_symplectic(capsys):
    code, out = run_cli(["recover-anti", "--preset", "symplectic", "--n", "8"], capsys)
    assert code == 0
    outcome = json.loads(out)["outcome"]
    conj = jsonio.matrix_from_json(outcome["conjugator"])
    eye4 = Matrix.identity(Q, 4)
    for i in range(4):
        for j in range(4):
            assert conj[(i + 4, j)] == eye4[(i, j)]
            assert conj[(i, j + 4)] == -eye4[(i, j)]


def test_decompose(capsys):
    code, out = run_cli(["decompose", "--preset", "trace-shift", "--n", "2"], capsys)
    assert code == 0
    outcome = json.loads(out)["outcome"]
    assert outcome["sigma_kind"] == "automorphism"
    assert outcome["tau_coefficient"] == "1"
    assert outcome["residual_zero"] and outcome["tau_trace_shaped"]


@pytest.mark.parametrize("field", [Q, GF5, GF_LARGE, GF4, GF81], ids=repr)
def test_decompose_tau_trace_shaped_is_the_residual_check(tmp_path, capsys, field):
    # the report reads the key off the certificate; it must say what the
    # independent residual check says, on both branches, twisted or not
    n = 5 if field.characteristic != 5 else 4
    rng = rng_for("cli-tau", repr(field))
    b = random_invertible(field, n, rng)
    twists = [None] + ([FieldAutomorphism.frobenius(1)] if isinstance(field, ExtensionField) else [])
    for twist in twists:
        for sigma, eps in (
            (conjugation_map(b, twist), field.one),
            (negated(transpose_conjugation_map(b, twist)), field.neg(field.one)),
        ):
            while True:  # c != 0 with psi(I) = (eps + n*c)*I != 0
                c = field.random_scalar(rng)
                if not field.is_zero(c) and not field.is_zero(
                    field.add(eps, field.mul(field.from_int(n), c))
                ):
                    break
            psi = plus_trace(sigma, c)
            map_file = tmp_path / "psi.json"
            map_file.write_text(json.dumps(jsonio.algebra_map_to_json(psi)))
            assert dispatch(["decompose", "--in", str(map_file)]) == 0
            outcome = json.loads(capsys.readouterr().out)["outcome"]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                dec = decompose_lie_automorphism(psi)
            assert outcome["tau_trace_shaped"] is residual_trace_form_check(psi, dec.sigma_map())
            assert outcome["tau_trace_shaped"] is True


def _reports(argvs, capsys):
    """(exit code, report without its timing, stderr) of each command."""
    got = []
    for argv in argvs:
        code = dispatch(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.out) if captured.out else None
        if report:
            report.pop("timing_ms")
        got.append((code, report, captured.err))
    return got


def test_the_cached_parser_answers_like_fresh_ones(monkeypatch, capsys):
    # one parser serves every dispatch of a process; a usage error and then
    # two different commands must come out as they do from fresh parsers
    argvs = [
        ["closure", "--preset", "P,E11", "--n", "3", "--seed", "1"],
        ["closure", "--preset", "P,E11", "--n", "3", "--kind", "associative"],
        ["recover-anti", "--preset", "symplectic", "--n", "4"],
        ["closure", "--preset", "P,E11", "--n", "3"],
    ]
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()
    cached = _reports(argvs, capsys)
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert _reports(argvs, capsys) == cached
    assert [code for code, _, _ in cached] == [2, 0, 0, 0]
    assert cached[1][1]["outcome"]["kind"] == "associative"
    assert cached[3][1]["outcome"]["kind"] == "lie"


def test_malformed_inputs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert dispatch(["closure", "--in", str(bad)]) == 2
    capsys.readouterr()
    assert dispatch(["closure"]) == 2  # neither --in nor --preset
    capsys.readouterr()
    assert dispatch(["closure", "--in", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    empty_grid = tmp_path / "empty_grid.json"
    empty_grid.write_text(
        json.dumps([{"field": {"kind": "Q"}, "rows": 0, "cols": 2, "entries": []}])
    )
    assert dispatch(["closure", "--in", str(empty_grid)]) == 2
    assert capsys.readouterr().err.startswith("MalformedJSON: entry grid is empty")


def test_in_mixed_with_preset_flags_exit_2(tmp_path, capsys):
    gens = tmp_path / "g.json"
    gens.write_text(json.dumps([jsonio.matrix_to_json(matrix_unit(Q, 2, 1, 2))]))
    map_file = tmp_path / "m.json"
    map_file.write_text(
        json.dumps(jsonio.algebra_map_to_json(conjugation_map(Matrix.identity(Q, 2))))
    )
    mixes = {
        "--preset": ["--preset", "P,E12"],
        "--n": ["--n", "5"],
        "--field": ["--field", "gf:7"],
        "--preset, --n, --field": ["--preset", "P,E12", "--n", "5", "--field", "gf:7"],
    }
    for command, path in (("closure", gens), ("recover-auto", map_file), ("chain", gens)):
        for flags, extra in mixes.items():
            assert dispatch([command, "--in", str(path), *extra]) == 2, (command, extra)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"MalformedJSON: --in cannot be combined with {flags}")


def test_in_alone_and_preset_alone_are_unchanged(tmp_path, capsys):
    # --preset without --field is over Q, as with --field q
    code, default = run_cli(["closure", "--preset", "P,E12", "--n", "3"], capsys)
    assert code == 0
    code, explicit = run_cli(["closure", "--preset", "P,E12", "--n", "3", "--field", "q"], capsys)
    assert code == 0
    outcome = json.loads(default)["outcome"]
    assert outcome == json.loads(explicit)["outcome"]
    assert outcome["dim"] == 8 and outcome["subspace"]["ambient"]["field"] == {"kind": "Q"}
    code, out = run_cli(["closure", "--preset", "P,E12", "--n", "3", "--field", "gf:7"], capsys)
    assert code == 0
    assert json.loads(out)["outcome"]["subspace"]["ambient"]["field"] == {"kind": "GF", "p": 7}
    # --in alone reads everything from the file
    gens = tmp_path / "g.json"
    gens.write_text(json.dumps(
        [jsonio.matrix_to_json(m) for m in (cyclic_permutation(Q, 3), matrix_unit(Q, 3, 1, 2))]
    ))
    code, out = run_cli(["closure", "--in", str(gens)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == outcome and report["inputs"] == [str(gens)]


def test_index_errors_exit_1(capsys):
    for argv in (
        ["chain", "--n", "2", "--preset", "E12,E21", "--max-k", "0"],
        ["hereditary", "--n", "2", "--preset", "E11", "--k", "0", "--prop", "D"],
    ):
        assert dispatch(argv) == 1
        assert capsys.readouterr().err.startswith("InvalidIndex:")


def test_bounds_nonpositive_max_n_exit_2(capsys):
    for max_n in ("0", "-2"):
        assert dispatch(["bounds", "--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("MalformedJSON:") and captured.out == ""


def test_bounds_past_the_enumeration_guard_exit_1(capsys, monkeypatch):
    """max_n(max_n+1)/2 rows above ``ENUMERATION_GUARD`` are refused before
    any row is built."""

    def refuse(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(centralizers, "nilpotent_subalgebra_dim_bound", refuse)
    for max_n in ("100000", "1414"):  # 1414·1415/2 = 1,000,405
        assert dispatch(["bounds", "--max-n", max_n]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("EnumerationTooLarge:") and captured.out == ""


BOUNDS_UP_TO_6 = [
    (1, 1, 1, 1), (2, 1, 2, 2), (2, 2, 2, 2), (3, 1, 3, 4), (3, 2, 4, 4), (3, 3, 4, 4),
    (4, 1, 5, 7), (4, 2, 6, 7), (4, 3, 7, 7), (4, 4, 7, 7), (5, 1, 7, 11), (5, 2, 9, 11),
    (5, 3, 10, 11), (5, 4, 11, 11), (5, 5, 11, 11), (6, 1, 10, 16), (6, 2, 13, 16),
    (6, 3, 14, 16), (6, 4, 15, 16), (6, 5, 16, 16), (6, 6, 16, 16),
]


def test_bounds_rows_below_the_guard(capsys):
    for max_n in range(1, 7):
        code, out = run_cli(["bounds", "--max-n", str(max_n)], capsys)
        assert code == 0
        rows = json.loads(out)["outcome"]["rows"]
        keys = ("n", "k", "index_dim_bound", "conjectured_bound")
        assert [tuple(r[key] for key in keys) for r in rows] == [
            row for row in BOUNDS_UP_TO_6 if row[0] <= max_n
        ]


def test_frobenius_twist_outside_field_exit_1(tmp_path, capsys):
    identity_map = jsonio.algebra_map_to_json(conjugation_map(Matrix.identity(Q, 2)))
    for twist in ({"kind": "frobenius", "e": -3}, {"kind": "frobenius", "e": 1}):
        map_file = tmp_path / "twisted.json"
        map_file.write_text(json.dumps({**identity_map, "twist": twist}))
        assert dispatch(["recover-auto", "--in", str(map_file)]) == 1
        assert capsys.readouterr().err.startswith("IncompatibleAutomorphism:")


def test_division_by_zero_scalar_is_malformed(tmp_path, capsys):
    entry = jsonio.matrix_to_json(matrix_unit(Q, 2, 1, 1))
    entry["entries"][0][1] = "1/0"
    bad = tmp_path / "div0.json"
    bad.write_text(json.dumps([entry]))
    assert dispatch(["closure", "--in", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("MalformedJSON:")


def test_nonpositive_sizes_exit_2(tmp_path, capsys):
    for n in ("0", "-3"):
        assert dispatch(["closure", "--n", n, "--preset", "I"]) == 2
        assert capsys.readouterr().err.startswith("MalformedJSON:")
        assert dispatch(["recover-auto", "--n", n, "--preset", "identity"]) == 2
        assert capsys.readouterr().err.startswith("MalformedJSON:")
    empty_map = tmp_path / "empty_map.json"
    empty_map.write_text(json.dumps({"n": 0, "field": {"kind": "Q"}, "images": {}}))
    assert dispatch(["recover-auto", "--in", str(empty_map)]) == 2
    assert capsys.readouterr().err.startswith("MalformedJSON:")


def test_non_integer_sizes_exit_2(tmp_path, capsys):
    unit = jsonio.matrix_to_json(matrix_unit(Q, 1, 1, 1))
    identity_map = jsonio.algebra_map_to_json(conjugation_map(Matrix.identity(Q, 2)))
    space = {"ambient": {"field": {"kind": "Q"}, "rows": 1, "cols": 1}, "basis": [unit]}
    cases = [("closure", [{**unit, "rows": "abc"}])]
    for sizes in ({"rows": 1.9, "cols": True}, {"rows": True}, {"cols": "1"}, {"cols": 1.0}):
        cases.append(("closure", [{**unit, **sizes}]))
    for n in ("2", 2.0, True, None):
        cases.append(("recover-auto", {**identity_map, "n": n}))
    for sizes in ({"rows": 1.0}, {"cols": "1"}, {"rows": False}):
        cases.append(("nilpotency", {**space, "ambient": {**space["ambient"], **sizes}}))
    for command, doc in cases:
        path = tmp_path / "sizes.json"
        path.write_text(json.dumps(doc))
        assert dispatch([command, "--in", str(path)]) == 2, doc
        assert capsys.readouterr().err.startswith("MalformedJSON:")
    # the same documents with integer sizes are accepted
    for command, doc in (("closure", [unit]), ("recover-auto", identity_map), ("nilpotency", space)):
        path = tmp_path / "sizes.json"
        path.write_text(json.dumps(doc))
        assert dispatch([command, "--in", str(path)]) == 0
        capsys.readouterr()


def test_non_text_matrix_entries_exit_2(tmp_path, capsys):
    path = tmp_path / "entries.json"
    for field, entry in ((Q, 1.5), (GF5, 2.0), (GF4, [1, 1]), (Q, True), (GF5, None)):
        path.write_text(json.dumps([{"field": jsonio.field_to_json(field), "entries": [[entry]]}]))
        assert dispatch(["closure", "--in", str(path)]) == 2, (field, entry)
        assert capsys.readouterr().err.startswith("MalformedJSON: entry must be a string")
    # a JSON integer entry still parses
    path.write_text(json.dumps([{"field": {"kind": "Q"}, "entries": [[3]]}]))
    assert dispatch(["closure", "--in", str(path)]) == 0
    capsys.readouterr()


def test_bad_subspace_ambient_or_basis_exit_2(tmp_path, capsys):
    space = {"field": {"kind": "Q"}, "rows": 2, "cols": 2}
    docs = [
        ({"ambient": {**space, "rows": -2, "cols": -2}, "basis": []}, "ambient sizes"),
        ({"ambient": {**space, "rows": 0, "cols": 0}, "basis": []}, "ambient sizes"),
        ({"ambient": {**space, "rows": 1, "cols": 0}, "basis": []}, "ambient sizes"),
        ({"ambient": space, "basis": 5}, "'basis' must be a list"),
    ]
    path = tmp_path / "space.json"
    for doc, message in docs:
        path.write_text(json.dumps(doc))
        for command in ("chain", "nilpotency", "closure"):
            assert dispatch([command, "--in", str(path)]) == 2, (command, doc)
            err = capsys.readouterr().err
            assert err.startswith(f"MalformedJSON: {message}"), err


def test_symplectic_preset_odd_size_is_domain_error(capsys):
    code = dispatch(["recover-anti", "--preset", "symplectic", "--n", "3"])
    assert code == 1
    capsys.readouterr()


def test_nilpotency_accepts_subspace_file(tmp_path, capsys):
    from liemat import Subspace, matrix_unit as unit

    space = Subspace.span(
        [unit(Q, 3, 1, 2), unit(Q, 3, 1, 3), unit(Q, 3, 2, 3)]
    )
    f = tmp_path / "space.json"
    f.write_text(json.dumps(jsonio.subspace_to_json(space)))
    code, out = run_cli(["nilpotency", "--in", str(f)], capsys)
    assert code == 0
    outcome = json.loads(out)["outcome"]
    assert outcome["index"] == 2 and outcome["dim"] == 3


def test_selftest_command(capsys):
    code, out = run_cli(["selftest"], capsys)
    assert code == 0
    report = json.loads(out)  # stdout is exactly one JSON document
    assert report["outcome"]["ok"] is True
    assert any("GF(2) Lie-closure dims" in line for line in report["outcome"]["checks"])


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize(
    "check", [check for _, check in selftest.CHECKS], ids=[name for name, _ in selftest.CHECKS]
)
def test_selftest_check(check, seed):
    # each check of the CLI selftest on its own, with the runner's rng
    check(random.Random(seed))


def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys):
    unused = tmp_path / "x.json"
    unused.write_text("[]")
    for argv in (
        ["bounds", "--seed", "1"],
        ["closure", "--n", "3", "--preset", "P", "--seed", "1"],
        ["verify-example", "--in", str(unused)],
        ["selftest", "--in", str(unused)],
    ):
        assert dispatch(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err
    code, out = run_cli(["selftest", "--seed", "5"], capsys)
    assert code == 0 and json.loads(out)["outcome"]["ok"] is True


def test_readme_command_table_lists_the_parser_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.findall(r"^\| `([a-z-]+)` +\|", readme, flags=re.MULTILINE)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(table) == sorted(sub.choices)


SELFTEST_WITH_BROKEN_ADDITION = """
from liemat import selftest
from liemat.fields import PrimeField

PrimeField.add = lambda self, a, b: (a + b + 1) % self.p
selftest.CHECKS[:] = [check for check in selftest.CHECKS if check[0] == "field axioms"]
print(selftest.run())
"""


def test_selftest_fails_under_python_dash_o():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SELFTEST_WITH_BROKEN_ADDITION],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("FAIL field axioms: AssertionError:"), proc.stdout
    assert lines[-1] == "False"


def test_reports_are_deterministic(tmp_path, capsys):
    argv = ["closure", "--n", "3", "--preset", "P,E11"]
    code, out1 = run_cli(argv, capsys)
    assert code == 0
    code, out2 = run_cli(argv, capsys)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert r1 == r2


def test_zero_subspace_chain_and_nilpotency(tmp_path, capsys):
    z = tmp_path / "z.json"
    z.write_text(
        json.dumps({"ambient": {"field": {"kind": "Q"}, "rows": 2, "cols": 2}, "basis": []})
    )
    code, out = run_cli(["chain", "--in", str(z)], capsys)
    assert code == 0
    outcome = json.loads(out)["outcome"]
    assert outcome["level_dims"] == [4, 4] and outcome["stabilization_index"] == 1
    code, out = run_cli(["nilpotency", "--in", str(z)], capsys)
    assert code == 0
    outcome = json.loads(out)["outcome"]
    assert outcome["is_lie_nilpotent"] and outcome["index"] == 1 and outcome["dim"] == 0


def test_decompose_warnings_go_into_the_report(tmp_path, capsys):
    # GF(5) has order 5 < 2^(n-1) = 8, which decompose warns about
    b = random_invertible(GF5, 4, rng_for("cli-decompose-warning"))
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(jsonio.algebra_map_to_json(conjugation_map(b))))
    code = dispatch(["decompose", "--in", str(map_file)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    report = json.loads(captured.out)  # stdout is exactly one JSON document
    assert report["outcome"]["sigma_kind"] == "automorphism"
    assert len(report["warnings"]) == 1
    assert "field order 5 is below 2^(n-1) = 8" in report["warnings"][0]


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "liemat", "bounds", "--max-n", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outcome"]["rows"][0]["n"] == 1


def test_large_prime_fields_run_and_oversized_ones_exit_2(tmp_path, capsys):
    """A Mersenne prime above 2^60 is a field at once; a p at or above the
    limit of the exact primality test is malformed input, also in JSON."""
    argv = ["closure", "--preset", "P,E12", "--n", "3", "--field"]
    code, out = run_cli([*argv, "gf:2305843009213693951"], capsys)
    assert code == 0
    assert json.loads(out)["outcome"]["dim"] == 8
    too_big = "3317044064679887385961981"
    assert dispatch([*argv, f"gf:{too_big}"]) == 2
    assert capsys.readouterr().err.startswith("MalformedJSON: bad field flag")
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps([{"field": {"kind": "GF", "p": int(too_big)}, "entries": [[1]]}]))
    assert dispatch(["closure", "--in", str(doc)]) == 2
    assert capsys.readouterr().err.startswith("MalformedJSON: bad field descriptor")


def test_extension_of_a_large_prime_field_runs():
    """GF((2^61 - 1)^2) is built in O(log p) products; a separate process
    with a timeout, so that a regression to a search over GF(p) fails."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "liemat", "closure", "--preset", "P,E12", "--n", "3",
         "--field", "gfext:2305843009213693951:2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout)["outcome"]
    assert outcome["dim"] == 8
    assert outcome["subspace"]["ambient"]["field"]["modulus"] == [1, 0, 1]


def test_non_integer_field_parameters_exit_2(tmp_path, capsys):
    gf5_unit = jsonio.matrix_to_json(matrix_unit(GF5, 1, 1, 1))
    gf4_unit = jsonio.matrix_to_json(matrix_unit(GF4, 1, 1, 1))
    gf4 = gf4_unit["field"]
    gf4_map = jsonio.algebra_map_to_json(conjugation_map(Matrix.identity(GF4, 2)))

    def closure_doc(unit, **field):
        return [{**unit, "field": {**unit["field"], **field}}]

    def twisted_map(e):
        return {**gf4_map, "twist": {"kind": "frobenius", "e": e}}

    slots = [
        ("closure", lambda v: closure_doc(gf5_unit, p=v), 5.9),
        ("closure", lambda v: closure_doc(gf4_unit, p=v), 2.5),
        ("closure", lambda v: closure_doc(gf4_unit, m=v), 2.7),
        ("closure", lambda v: closure_doc(gf4_unit, modulus=[1, v, 1]), 1.0),
        ("recover-auto", twisted_map, 1.5),
    ]
    path = tmp_path / "params.json"
    for command, make, as_float in slots:
        for bad in (as_float, True, "1"):
            path.write_text(json.dumps(make(bad)))
            assert dispatch([command, "--in", str(path)]) == 2, make(bad)
            assert capsys.readouterr().err.startswith("MalformedJSON:")
    path.write_text(json.dumps(closure_doc(gf4_unit, modulus="111")))
    assert dispatch(["closure", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("MalformedJSON: 'modulus' must be a list")
    # the same slots with JSON integers are accepted
    for command, doc in (
        ("closure", closure_doc(gf5_unit, p=5)),
        ("closure", closure_doc(gf4_unit, p=2, m=2, modulus=gf4["modulus"])),
        ("recover-auto", twisted_map(0)),
    ):
        path.write_text(json.dumps(doc))
        assert dispatch([command, "--in", str(path)]) == 0, doc
        capsys.readouterr()
