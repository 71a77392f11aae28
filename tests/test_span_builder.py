"""SpanBuilder: edge cases, membership, and the invariants of the integer
rows kept over Q and the residue rows kept over GF(p)."""

from fractions import Fraction
import math
from math import gcd

import pytest

from liemat import Subspace
from liemat.matrices import (
    SpanBuilder,
    _RationalSpanBuilder,
    _ResidueSpanBuilder,
    _rref_in_place,
)

from support import GF2, GF5, GF81, GF_LARGE, Q, reference_rref, rng_for

FIELDS = [Q, GF2, GF5, GF_LARGE, GF81]
PRIME_FIELDS = [GF2, GF5, GF_LARGE]


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
    return [dict(r) if isinstance(r, dict) else list(r) for r in builder.rows], list(builder.pivots)


def test_builder_over_q_keeps_integer_rows():
    assert type(SpanBuilder(Q, 3)) is _RationalSpanBuilder
    for field in PRIME_FIELDS:
        assert type(SpanBuilder(field, 3)) is _ResidueSpanBuilder
    assert type(SpanBuilder(GF81, 3)) is SpanBuilder


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


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_contains_agrees_with_subspace_contains_vec(field):
    rng = rng_for("builder-contains", repr(field))
    seen = set()
    for dim in (0, 1, 3, 6):
        vectors = [_vector(field, 9, rng) for _ in range(dim)]
        builder = SpanBuilder(field, 9)
        for v in vectors:
            builder.insert(v)
        space = Subspace(field, (3, 3), builder.sorted_rows())
        for _ in range(12):
            inside = bool(vectors) and rng.random() < 0.5
            vec = _combination(field, vectors, rng) if inside else _vector(field, 9, rng)
            got = builder.contains(vec)
            assert got == space.contains_vec(vec)
            seen.add(got)
    assert seen == {True, False}


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
        coords = {j: a for j, a in enumerate(v) if not field.is_zero(a)}
        if field == Q and coords:
            den = math.lcm(*(a.denominator for a in coords.values()))
            coords = {j: -3 * int(a * den) for j, a in coords.items()}
        kept = dict(coords)
        assert sparse.contains(coords) == dense.contains(v)
        assert coords == kept
        assert sparse.insert(coords) == dense.insert(v)
        assert coords == kept
        assert sparse.sorted_rows() == dense.sorted_rows()
