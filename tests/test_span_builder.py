"""SpanBuilder: edge cases, membership, and the invariants of the integer
rows kept over Q."""

from fractions import Fraction
from math import gcd

import pytest

from liemat import Subspace
from liemat.matrices import SpanBuilder, _RationalSpanBuilder, _rref_in_place

from support import GF5, GF81, GF_LARGE, Q, reference_rref, rng_for

FIELDS = [Q, GF5, GF_LARGE, GF81]


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
    for field in (GF5, GF_LARGE, GF81):
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
