"""SpanBuilder: edge cases, membership, and the invariants of the rows it
keeps: integer rows over Q, residue rows over GF(p) and raw-value rows over
GF(p^m), every one a sparse dict."""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liemat import ExtensionField, Matrix, Subspace, jsonio, lie
from liemat.matrices import (
    SpanBuilder,
    _RationalSpanBuilder,
    _ResidueSpanBuilder,
    _rref_in_place,
)

from support import (
    GF2,
    GF4,
    GF5,
    GF9,
    GF81,
    GF_LARGE,
    Q,
    _ReferenceSpan,
    reference_kernel_from_rref,
    reference_rref,
    rng_for,
)

GF2_17 = ExtensionField(2, 17)  # above the table limit: polynomial arithmetic
FIELDS = [Q, GF2, GF5, GF_LARGE, GF81, GF4, GF2_17]
PRIME_FIELDS = [GF2, GF5, GF_LARGE]
EXTENSION_FIELDS = [GF4, GF81, GF2_17]


def _big_fraction(rng):
    if rng.random() < 0.3:
        return Q.zero
    return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))


def _vector(field, length, rng):
    if field == Q:
        return [_big_fraction(rng) for _ in range(length)]
    return [field.random_scalar(rng) for _ in range(length)]


def _combination(field, vectors, rng):
    """A random linear combination of ``vectors``."""
    out = [field.zero] * len(vectors[0])
    for v in vectors:
        c = field.random_scalar(rng)
        out = [field.add(a, field.mul(c, b)) for a, b in zip(out, v)]
    return out


def _state(builder):
    return [dict(r) for r in builder.rows], list(builder.pivots)


def test_builder_over_q_keeps_integer_rows():
    assert type(SpanBuilder(Q, 3)) is _RationalSpanBuilder
    for field in PRIME_FIELDS:
        assert type(SpanBuilder(field, 3)) is _ResidueSpanBuilder
    for field in EXTENSION_FIELDS:
        assert type(SpanBuilder(field, 3)) is SpanBuilder


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_length_zero_vectors(field):
    builder = SpanBuilder(field, 0)
    assert not builder.insert([])
    assert builder.contains(())
    assert builder.dim == 0 and builder.sorted_rows() == ()
    assert _rref_in_place([], field) == []
    rows = [[], []]
    assert _rref_in_place(rows, field) == []
    assert rows == [(), ()]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_zero_vector(field):
    rng = rng_for("builder-zero", repr(field))
    zero = [field.zero] * 6
    builder = SpanBuilder(field, 6)
    assert not builder.insert(zero) and builder.contains(zero) and builder.dim == 0
    builder.insert(_vector(field, 6, rng))
    before = _state(builder)
    assert not builder.insert(zero) and builder.contains(zero)
    assert _state(builder) == before


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_vector_in_span_leaves_rows_alone(field):
    rng = rng_for("builder-in-span", repr(field))
    vectors = [_vector(field, 8, rng) for _ in range(4)]
    builder = SpanBuilder(field, 8)
    for v in vectors:
        builder.insert(v)
    before, rows = _state(builder), builder.sorted_rows()
    for _ in range(10):
        inside = _combination(field, vectors, rng)
        assert builder.contains(inside)
        assert not builder.insert(inside)
        assert _state(builder) == before and builder.sorted_rows() == rows


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_insertion_order_does_not_change_rows(field):
    rng = rng_for("builder-order", repr(field))
    vectors = [_vector(field, 10, rng) for _ in range(5)]
    vectors += [_combination(field, vectors[:3], rng), [field.zero] * 10]
    want = [list(v) for v in vectors]
    want_pivots = reference_rref(want, field)
    for _ in range(6):
        rng.shuffle(vectors)
        builder = SpanBuilder(field, 10)
        for v in vectors:
            builder.insert(v)
        assert builder.sorted_rows() == tuple(tuple(r) for r in want[: len(want_pivots)])
        assert sorted(builder.pivots) == want_pivots


def test_rational_rows_stay_primitive_with_positive_pivots():
    rng = rng_for("builder-primitive")
    for length in (1, 5, 12):
        builder = SpanBuilder(Q, length)
        vectors = [_vector(Q, length, rng) for _ in range(length + 2)]
        # scaled copies and combinations reduce to zero on the way in
        vectors += [[Fraction(-3, 7) * a for a in vectors[0]], _combination(Q, vectors[:2], rng)]
        rng.shuffle(vectors)
        for v in vectors:
            builder.insert(v)
            for row, p in zip(builder.rows, builder.pivots):
                assert all(isinstance(x, int) and x for x in row.values())
                assert row[p] > 0
                assert gcd(*row.values()) == 1
                assert not any(q in row for q in builder.pivots if q != p)
        assert builder.dim == length


def _leading_index(field, row):
    return next(j for j, a in enumerate(row) if not field.is_zero(a))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_contains_agrees_with_subspace_contains_vec(field):
    """``SpanBuilder.contains`` and ``Subspace.contains_vec`` against the
    independent ``_ReferenceSpan``, on a subspace that keeps the builder that
    made it (``Subspace.span``), one that builds its own from raw rows, and
    the full and zero subspaces."""
    rng = rng_for("builder-contains", repr(field))
    seen = set()
    for dim in (0, 1, 3, 6):
        vectors = [_vector(field, 9, rng) for _ in range(dim)]
        builder, reference = SpanBuilder(field, 9), _ReferenceSpan(field, 9)
        for v in vectors:
            builder.insert(v)
            reference.insert(v)
        kept = Subspace.span(
            [Matrix.from_vector(field, 3, 3, v) for v in vectors], field=field, shape=(3, 3)
        )
        lazy = Subspace(field, (3, 3), builder.sorted_rows())
        assert kept.rows == lazy.rows
        for _ in range(12):
            inside = bool(vectors) and rng.random() < 0.5
            vec = _combination(field, vectors, rng) if inside else _vector(field, 9, rng)
            want = reference.contains(vec)
            assert builder.contains(vec) == want
            assert kept.contains_vec(vec) == want and lazy.contains_vec(vec) == want
            seen.add(want)
        for space in (kept, lazy):
            assert space.pivots == tuple(_leading_index(field, row) for row in space.rows)
    assert seen == {True, False}
    vec = _vector(field, 9, rng)
    full, zero = Subspace.full(field, (3, 3)), Subspace.zero(field, (3, 3))
    assert full.contains_vec(vec) and full.pivots == tuple(range(9))
    assert zero.contains_vec([field.zero] * 9) and zero.pivots == ()
    assert zero.contains_vec(vec) == _ReferenceSpan(field, 9).contains(vec) == (
        all(map(field.is_zero, vec))
    )


def _sparse_vector(field, length, rng):
    """A vector with one to three nonzero entries."""
    vec = [field.zero] * length
    for j in rng.sample(range(length), rng.randint(1, min(3, length))):
        vec[j] = field.random_scalar(rng)
    return vec


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=repr)
@pytest.mark.parametrize("shape", ["dense", "sparse"])
def test_residue_builder_matches_reference_rref(field, shape):
    rng = rng_for("residue-builder", repr(field), shape)
    draw = _vector if shape == "dense" else _sparse_vector
    for length, count in ((1, 3), (6, 4), (9, 12), (16, 10)):
        vectors = [draw(field, length, rng) for _ in range(count)]
        vectors.append(_combination(field, vectors[:3], rng))
        builder = SpanBuilder(field, length)
        seen = []
        for v in vectors:
            probes = [draw(field, length, rng), _combination(field, seen or [v], rng)]
            for probe in probes:
                rows = [list(u) for u in seen + [probe]]
                want = len(reference_rref(rows, field)) == len(reference_rref([list(u) for u in seen], field))
                assert builder.contains(probe) == want
            before = builder.dim
            grew = builder.insert(v)
            seen.append(v)
            want_rows = [list(u) for u in seen]
            want_pivots = reference_rref(want_rows, field)
            assert builder.dim == len(want_pivots) and grew == (builder.dim > before)
            assert builder.sorted_rows() == tuple(tuple(r) for r in want_rows[: len(want_pivots)])
        rows = [list(v) for v in vectors]
        want = [list(v) for v in vectors]
        assert _rref_in_place(rows, field) == reference_rref(want, field)
        assert rows == [tuple(r) for r in want]


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=repr)
def test_residue_rows_have_pivot_one_and_reduced_entries(field):
    rng = rng_for("residue-rows", repr(field))
    for length in (1, 5, 12):
        builder = SpanBuilder(field, length)
        vectors = [_vector(field, length, rng) for _ in range(length + 2)]
        vectors += [_sparse_vector(field, length, rng) for _ in range(length)]
        rng.shuffle(vectors)
        for v in vectors:
            builder.insert(v)
            for row, p in zip(builder.rows, builder.pivots):
                assert row[p] == 1
                assert all(type(x) is int and 0 < x < field.p for x in row.values())
                assert not any(q in row for q in builder.pivots if q != p)
        assert builder.dim == length


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_sparse_coordinates_act_like_the_dense_vector(field):
    """A dict of coordinates (over Q, the integers of a multiple) inserts and
    tests like the dense vector it stands for."""
    rng = rng_for("builder-sparse-input", repr(field))
    dense, sparse = SpanBuilder(field, 9), SpanBuilder(field, 9)
    for _ in range(12):
        v = _sparse_vector(field, 9, rng) if rng.random() < 0.5 else _vector(field, 9, rng)
        coords = sparse.coordinates({j: a for j, a in enumerate(v) if not field.is_zero(a)})
        if field == Q:  # any multiple of the primitive coordinates
            assert all(type(x) is int for x in coords.values())
            assert not coords or gcd(*coords.values()) == 1
            coords = {j: -3 * x for j, x in coords.items()}
        kept = dict(coords)
        assert sparse.contains(coords) == dense.contains(v)
        assert coords == kept
        assert sparse.insert(coords) == dense.insert(v)
        assert coords == kept
        assert sparse.sorted_rows() == dense.sorted_rows()


def _coordinate(field):
    """(builder coordinate, raw value) pairs of ``field``, zero included:
    over Q any integer stands for a multiple of its raw value."""
    if field == Q:
        return st.integers(-6, 6).map(lambda x: (x, Fraction(x)))
    if isinstance(field, ExtensionField):
        coeffs = st.lists(st.integers(0, field.p - 1), min_size=field.m, max_size=field.m)
        return coeffs.map(lambda c: (field.coerce(c),) * 2)
    return st.integers(0, field.p - 1).map(lambda x: (x, x))


@st.composite
def _unit_path_cases(draw):
    """A field, a length and a sequence of sparse vectors with their dense
    raw forms: one-entry vectors (a zero value included) and vectors of
    several nonzero entries, so the rows they leave have one entry or
    several."""
    field = draw(st.sampled_from([Q, GF5, GF_LARGE, GF9, GF2_17]))
    length = draw(st.integers(1, 6))
    column = st.integers(0, length - 1)
    coordinate = _coordinate(field)
    one = st.dictionaries(column, coordinate, min_size=1, max_size=1)
    shapes = [one]
    if length > 1:
        nonzero = coordinate.filter(lambda pair: not field.is_zero(pair[1]))
        shapes.append(st.dictionaries(column, nonzero, min_size=2))
    vectors = []
    for entries in draw(st.lists(st.one_of(shapes), min_size=1, max_size=14)):
        dense = [field.zero] * length
        for j, (_, raw) in entries.items():
            dense[j] = raw
        vectors.append(({j: c for j, (c, _) in entries.items()}, dense))
    return field, length, vectors


@settings(max_examples=300)
@given(_unit_path_cases())
def test_contained_units_answer_like_the_dense_path(case):
    """``insert`` and ``contains`` settle a one-entry sparse vector whose
    column's row has one entry with no reduction.  A twin builder fed each
    vector's dense form, which never takes that path, gives the same answers
    and keeps the same rows, values and order, on every builder class."""
    field, length, vectors = case
    fast, twin = SpanBuilder(field, length), SpanBuilder(field, length)
    for sparse, dense in vectors:
        assert fast.contains(sparse) == twin.contains(dense)
        assert fast.insert(sparse) == twin.insert(dense)
        assert list(fast.by_pivot.items()) == list(twin.by_pivot.items())


def _small_matrix(field, n, rng, size):
    """An n x n matrix whose ``size`` random positions (repeats add up) hold
    1, -1 or 2, so that sums of products of its entries cancel often."""
    one = field.one
    small = [one, field.neg(one), field.add(one, one)]
    entries = [[field.zero] * n for _ in range(n)]
    for _ in range(size):
        i, k = rng.randrange(n), rng.randrange(n)
        entries[i][k] = field.add(entries[i][k], rng.choice(small))
    return Matrix(field, entries)


def _sum_cases(builder, sums):
    """The cases that the fresh dict of ``_image`` falls in, for counting."""
    field = builder.field
    if isinstance(field, ExtensionField):  # the finished image
        zero = not sums
    else:
        modulus = getattr(field, "p", 0)
        zero = sums and all((x % modulus if modulus else x) == 0 for x in sums.values())
        if len(sums) == 1 and zero and any(sums.values()):
            yield "one-entry sum, a nonzero multiple of p"
        if any(x < 0 or (modulus and x >= modulus) for x in sums.values()):
            yield "unreduced sum"
        if not modulus and gcd(*sums.values()) > 1:
            yield "common factor"
    if zero:
        yield "zero image"
    if len(sums) == 1 and len(builder.by_pivot.get(*sums, ())) == 1:
        yield "contained unit"


@pytest.mark.parametrize("field", [Q, GF5, GF_LARGE, GF9], ids=repr)
def test_fused_images_match_the_finished_images(field):
    """``insert(vec, op)`` and ``contains(vec, op)`` reduce an operator's
    image from the fresh dict of ``_image`` (over Q and GF(p) the int sums
    as they are: zeros, negatives, multiples of p and of a common factor),
    ``insert`` and ``contains`` of ``apply(op, vec)`` the finished image.
    Twin builders fed the same bracket and product images of n x n
    matrices from ``lie._operator``, at n = 1 and n = 3, give the same
    answers and keep the same rows, values and order, and the operator
    calls leave their vector as it was.  One builder gets each image as
    its operator and vector, or as the dense raw values of the matrix
    product, of length n^2.  The cases the sums and the dense vectors
    fall in are counted, so each one is met."""
    rng = rng_for("fused-images", repr(field))
    cases = Counter()
    for n in (1, 3):
        mats = [_small_matrix(field, n, rng, rng.randint(1, 4)) for _ in range(24)]
        if n == 3:
            # (a·E11 - a·E12)·(E11 + E21) is the one-entry sum a - a at E11:
            # 0 over Q, and over GF(p) the residues add up to p
            a = field.add(field.one, field.one)
            mats.append(Matrix(field, [[a, field.neg(a), field.zero]] + [[field.zero] * n] * 2))
            mats.append(Matrix(field, [[field.one] + [field.zero] * 2] * 2 + [[field.zero] * n]))
        coords = lie._coordinates(field, n, [m.vectorize() for m in mats])
        # op(coords[x]) is a multiple of [mats[x], mats[y]], or of mats[x]·mats[y]
        ops = {(y, kind): lie._operator(field, n, coords[y], kind)
               for y in range(len(mats)) for kind in (True, False)}
        keys = list(ops)
        unit = SpanBuilder(field, 1).coordinates({0: field.one})[0]
        for _ in range(16):
            fused, plain = SpanBuilder(field, n * n), SpanBuilder(field, n * n)
            for j in rng.sample(range(n * n), rng.randint(0, min(3, n * n))):
                assert fused.insert({j: unit}) == plain.insert({j: unit})
            steps = [(rng.choice(keys), rng.randrange(len(mats))) for _ in range(14)]
            if n == 3:
                steps.append(((len(mats) - 1, False), len(mats) - 2))  # the cancelling product
            for (y, kind), x in steps:
                op, vec = ops[y, kind], coords[x]
                kept = dict(vec)
                image = plain.apply(op, vec)
                if rng.random() < 0.25:
                    left, right = mats[x], mats[y]
                    given = ((lie.bracket(left, right) if kind else left * right).vectorize(),)
                    cases.update(_dense_cases(fused, *given))
                else:
                    given = vec, op
                    cases.update(_sum_cases(fused, fused._image(op, vec)))
                if rng.random() < 0.3:
                    assert fused.contains(*given) == plain.contains(image)
                else:
                    assert fused.insert(*given) == plain.insert(image)
                assert vec == kept
                assert list(fused.by_pivot.items()) == list(plain.by_pivot.items())
    expected = {"zero image", "contained unit", "dense zero", "dense contained unit", "dense other"}
    if field == Q:
        expected |= {"unreduced sum", "common factor"}
    elif not isinstance(field, ExtensionField):
        expected |= {"unreduced sum", "one-entry sum, a nonzero multiple of p"}
    assert expected <= set(cases), cases


def _dense_cases(builder, dense):
    """The case a dense vector of raw values falls in, for counting."""
    support = [j for j, x in enumerate(dense) if not builder.field.is_zero(x)]
    if not support:
        yield "dense zero"
    elif len(support) == 1 and len(builder.by_pivot.get(*support, ())) == 1:
        yield "dense contained unit"
    else:
        yield "dense other"


@pytest.mark.parametrize("field", EXTENSION_FIELDS, ids=repr)
def test_extension_rows_have_pivot_one_and_no_zeros(field):
    rng = rng_for("extension-rows", repr(field))
    for length in (1, 5, 12):
        builder = SpanBuilder(field, length)
        vectors = [_vector(field, length, rng) for _ in range(length + 2)]
        vectors += [_sparse_vector(field, length, rng) for _ in range(length)]
        rng.shuffle(vectors)
        for v in vectors:
            builder.insert(v)
            for row, p in zip(builder.rows, builder.pivots):
                assert type(row) is dict and row[p] == field.one
                assert not any(field.is_zero(x) for x in row.values())
                assert not any(q in row for q in builder.pivots if q != p)
        assert builder.dim == length


def _reference_annihilator(builder):
    """The span of the ``reference_kernel_from_rref`` vectors of the
    builder's RREF rows, reduced by ``reference_rref``."""
    rows = [list(r) for r in builder.sorted_rows()]
    pivots = sorted(builder.pivots)
    kernel = reference_kernel_from_rref(rows, pivots, builder.length, builder.field)
    return tuple(tuple(r) for r in kernel[: len(reference_rref(kernel, builder.field))])


def _check_annihilator(builder):
    perp = builder.annihilator()
    assert type(perp) is type(builder) and perp.length == builder.length
    assert perp.sorted_rows() == _reference_annihilator(builder)
    assert perp.dim + builder.dim == builder.length
    assert perp.annihilator().sorted_rows() == builder.sorted_rows()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("shape", ["dense", "sparse"])
def test_annihilator_matches_the_dense_kernel(field, shape):
    rng = rng_for("builder-annihilator", repr(field), shape)
    draw = _vector if shape == "dense" else _sparse_vector
    for length in (0, 1, 4, 9):
        empty, full = SpanBuilder(field, length), SpanBuilder(field, length)
        for j in range(length):
            full.insert([field.one if i == j else field.zero for i in range(length)])
        assert empty.annihilator().sorted_rows() == full.sorted_rows()
        assert full.annihilator().dim == 0
        _check_annihilator(empty)
        _check_annihilator(full)
        for count in range(1, length + 1):
            builder = SpanBuilder(field, length)
            vectors = [draw(field, length, rng) for _ in range(count)]
            vectors.append(_combination(field, vectors, rng))
            for v in vectors:
                builder.insert(v)
            _check_annihilator(builder)


def test_rational_annihilator_clears_different_denominators():
    """Rows whose pivots carry different denominators: the kernel vector of
    a free column is scaled by their lcm."""
    builder = SpanBuilder(Q, 5)
    for v in (
        [1, 0, 0, Fraction(1, 2), Fraction(1, 3)],
        [0, 1, 0, Fraction(-2, 3), Fraction(5, 4)],
        [0, 0, 1, Fraction(3, 5), Fraction(-7, 10**6)],
    ):
        builder.insert([Q.coerce(a) for a in v])
    assert sorted(row[p] for p, row in builder.by_pivot.items()) == [6, 12, 1000000]
    _check_annihilator(builder)
    perp = builder.annihilator()
    assert all(type(x) is int for row in perp.rows for x in row.values())


def test_rational_raw_values_are_fractions_in_lowest_terms():
    """A Q row whose denominator is 1 is read off with no gcd, and ±1
    shared: the raw values of every Q ``Subspace``, kernel vector and
    inverse are still ``Fraction``s in lowest terms, never ints, whatever
    the pivot entry of the builder row.  The JSON text of a fixed subject
    with entries 1, -1, 2 and 7/3 is as before."""
    rng = rng_for("rational-raw-values")
    gens = [
        Matrix(Q, [[2, 0, -2], [4, 0, 0]]),
        Matrix(Q, [[1, 3, 6], [2, 0, 0]]),
        Matrix(Q, [[0, 0, 0], [0, -1, 1]]),
        Matrix(Q, [[0, 3, 7], [0, 0, 0]]),
    ]
    space = Subspace.span(gens)
    assert sorted(row[p] for p, row in space._span().by_pivot.items()) == [1, 1, 3]
    assert json.dumps(jsonio.subspace_to_json(space)) == (
        '{"ambient": {"field": {"kind": "Q"}, "rows": 2, "cols": 3}, "basis": ['
        '{"field": {"kind": "Q"}, "rows": 2, "cols": 3, "entries": [["1", "0", "-1"], ["2", "0", "0"]]}, '
        '{"field": {"kind": "Q"}, "rows": 2, "cols": 3, "entries": [["0", "1", "7/3"], ["0", "0", "0"]]}, '
        '{"field": {"kind": "Q"}, "rows": 2, "cols": 3, "entries": [["0", "0", "0"], ["0", "1", "-1"]]}]}'
    )
    raws = [space.rows, space.annihilator().rows]
    denominators = set()
    for _ in range(6):
        m = Matrix(Q, [[rng.randint(-3, 3) * (rng.random() < 0.5) for _ in range(4)] for _ in range(4)])
        span = Subspace.span([m, m * m])
        denominators.update(row[p] for p, row in span._span().by_pivot.items())
        raws += [span.rows, span.annihilator().rows, m.rref()[0].entries]
        raws.append([v.vectorize() for v in m.kernel_vectors()])
    raws.append(Matrix(Q, [[2, 1], [1, 1]]).inverse().entries)
    raws.append(Matrix(Q, [[3, 1], [1, 1]]).inverse().entries)
    assert 1 in denominators and len(denominators) > 1
    for rows in raws:
        for x in (x for row in rows for x in row):
            assert type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


REIMPORT = """
import gc, importlib, sys
for _ in range(3):
    for name in [m for m in sys.modules if m == "liemat" or m.startswith("liemat.")]:
        del sys.modules[name]
    importlib.import_module("liemat.cli")
gc.collect()
print(sum(isinstance(o, type) and o.__name__ == "SpanBuilder" for o in gc.get_objects()))
"""


def test_reimported_package_copies_are_freed():
    """A copy of the package dropped from ``sys.modules`` is freed: nothing
    cached at import time, such as a subscripted typing alias, keeps its
    classes alive.  After three drop-and-reimport rounds, as a benchmark's
    timed set-up does, one ``SpanBuilder`` class is left."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", REIMPORT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]
