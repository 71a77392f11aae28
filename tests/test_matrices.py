"""Matrix core: products, eliminations, generators, symplectic involution."""

import pytest
from hypothesis import given, strategies as st

from liemat import (
    ExtensionField,
    FieldAutomorphism,
    Matrix,
    basis_unit_vector,
    cyclic_permutation,
    kernel,
    matrix_unit,
    scalar_multiple_of_identity,
    symplectic_involution,
    upper_shift,
)
from liemat.errors import (
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    OddDimension,
    SingularMatrix,
)

from liemat.fields import TABLE_MAX_ORDER
from liemat.matrices import _rref_in_place

from support import (
    GF2,
    GF4,
    GF5,
    GF7,
    GF9,
    GF81,
    GF_LARGE,
    Q,
    mat,
    random_matrix,
    reference_kernel_from_rref,
    reference_rref,
    rng_for,
)


def E(n, i, j, field=Q):
    return matrix_unit(field, n, i, j)


def test_unit_product_rule():
    assert E(3, 1, 2) * E(3, 2, 3) == E(3, 1, 3)
    assert E(3, 1, 2) * E(3, 3, 1) == Matrix.zeros(Q, 3)
    x = random_matrix(Q, 3, 3, rng_for("unit-product"))
    assert x * Matrix.identity(Q, 3) == x


def test_generators():
    assert upper_shift(Q, 2) == mat(Q, [[0, 1], [0, 0]])
    p3 = cyclic_permutation(Q, 3)
    assert p3 == E(3, 1, 2) + E(3, 2, 3) + E(3, 3, 1)
    assert p3 == upper_shift(Q, 3) + E(3, 3, 1)
    # permutation matrix: one 1 per row and column
    assert p3 * p3.transpose() == Matrix.identity(Q, 3)
    # S^(n-1) E(n,1) = E(1,1)
    s = upper_shift(Q, 3)
    assert s**2 * E(3, 3, 1) == E(3, 1, 1)
    with pytest.raises(IndexOutOfRange):
        matrix_unit(Q, 3, 0, 1)
    with pytest.raises(IndexOutOfRange):
        matrix_unit(Q, 3, 1, 4)


def test_shape_and_field_guards():
    with pytest.raises(DimensionMismatch):
        mat(Q, [[1, 2]]) + mat(Q, [[1], [2]])
    with pytest.raises(DimensionMismatch):
        mat(Q, [[1, 2]]) * mat(Q, [[1, 2]])
    with pytest.raises(FieldMismatch):
        mat(Q, [[1]]) * mat(GF5, [[1]])
    with pytest.raises(DimensionMismatch):
        mat(Q, [[1, 2]]).trace()


def test_power():
    s = upper_shift(Q, 4)
    assert s**0 == Matrix.identity(Q, 4)
    assert s**3 == E(4, 1, 4)
    assert (s**4).is_zero()
    with pytest.raises(ValueError):
        s**-1


def test_rref_examples():
    eye = Matrix.identity(Q, 3)
    r, rank, pivots = eye.rref()
    assert (r, rank, pivots) == (eye, 3, [0, 1, 2])
    z = Matrix.zeros(Q, 2, 3)
    r, rank, pivots = z.rref()
    assert (r, rank, pivots) == (z, 0, [])
    r, rank, pivots = mat(Q, [[1, 2], [2, 4]]).rref()
    assert r == mat(Q, [[1, 2], [0, 0]])
    assert rank == 1 and pivots == [0]


def test_rref_idempotent_randomized():
    for field in (Q, GF5, GF4):
        rng = rng_for("rref", repr(field))
        for _ in range(25):
            m = random_matrix(field, 3, 4, rng)
            r, rank, piv = m.rref()
            r2, rank2, piv2 = r.rref()
            assert (r2, rank2, piv2) == (r, rank, piv)


def test_kernel_examples():
    assert kernel(Matrix.identity(Q, 4)).dim == 0
    # I8 - E(5,5): kernel is the fifth coordinate axis
    k = kernel(Matrix.identity(Q, 8) - E(8, 5, 5))
    assert k.dim == 1 and k.basis[0] == basis_unit_vector(Q, 8, 5)
    k2 = kernel(Matrix.identity(Q, 2) - E(2, 1, 1))
    assert k2.basis == [basis_unit_vector(Q, 2, 1)]
    # hand-solved 2x2 system: kernel of [[1,2],[2,4]] is span{(-2,1)}
    vecs = mat(Q, [[1, 2], [2, 4]]).kernel_vectors()
    assert len(vecs) == 1 and vecs[0] == mat(Q, [[-2], [1]])


def test_inverse_examples():
    assert Matrix.identity(Q, 3).inverse() == Matrix.identity(Q, 3)
    assert mat(Q, [[0, -1], [1, 0]]).inverse() == mat(Q, [[0, 1], [-1, 0]])
    assert mat(Q, [[1, 1], [0, 1]]).inverse() == mat(Q, [[1, -1], [0, 1]])
    with pytest.raises(SingularMatrix):
        mat(Q, [[1, 2], [2, 4]]).inverse()


def test_singular_kernel_rank_agree():
    for field in (Q, GF5):
        rng = rng_for("singular", repr(field))
        for _ in range(40):
            m = random_matrix(field, 4, 4, rng)
            rank = m.rank()
            kernel_dim = len(m.kernel_vectors())
            assert kernel_dim == 4 - rank
            try:
                m.inverse()
                invertible = True
            except SingularMatrix:
                invertible = False
            assert invertible == (rank == 4)


def test_trace_transpose_properties():
    rng = rng_for("trace")
    for _ in range(25):
        x = random_matrix(Q, 3, 3, rng)
        y = random_matrix(Q, 3, 3, rng)
        assert (x * y).trace() == (y * x).trace()
        assert (x * y).transpose() == y.transpose() * x.transpose()
        assert (x * y - y * x).trace() == Q.scalar(0)
    assert E(2, 1, 2).trace() == Q.scalar(0)
    st8 = upper_shift(Q, 8).transpose()
    expected = sum(
        (E(8, i + 1, i) for i in range(2, 8)), E(8, 2, 1)
    )
    assert st8 == expected


def test_entrywise_map():
    ident = FieldAutomorphism.identity()
    x = random_matrix(GF4, 2, 2, rng_for("entrywise"))
    assert x.map_entries(ident) == x
    frob = FieldAutomorphism.frobenius(1)
    zero_one = mat(GF4, [[1, 0], [1, 1]])
    assert zero_one.map_entries(frob) == zero_one  # 0/1 entries are fixed
    xval, one = GF4.scalar([0, 1]), GF4.scalar(1)
    m = Matrix(GF4, [[xval, one], [GF4.scalar(0), GF4.scalar([1, 1])]])
    assert m.map_entries(frob) == Matrix(
        GF4, [[GF4.scalar([1, 1]), one], [GF4.scalar(0), xval]]
    )


def test_entrywise_map_is_ring_homomorphism():
    frob = FieldAutomorphism.frobenius(1)
    rng = rng_for("entrywise-hom")
    for _ in range(25):
        x = random_matrix(GF4, 3, 3, rng)
        y = random_matrix(GF4, 3, 3, rng)
        assert (x * y).map_entries(frob) == x.map_entries(frob) * y.map_entries(frob)
        assert (x + y).map_entries(frob) == x.map_entries(frob) + y.map_entries(frob)


def test_symplectic_involution_known_values():
    st8 = upper_shift(Q, 8).transpose()
    phi = symplectic_involution(st8)
    expected = (
        E(8, 1, 2) + E(8, 2, 3) + E(8, 3, 4)
        + E(8, 5, 6) + E(8, 6, 7) + E(8, 7, 8) - E(8, 8, 1)
    )
    assert phi == expected
    assert symplectic_involution(Matrix.identity(Q, 8)) == Matrix.identity(Q, 8)
    assert phi**7 == -E(8, 5, 4)
    assert phi**7 * symplectic_involution(E(8, 1, 8)) == E(8, 5, 5)


@pytest.mark.parametrize("field", [Q, GF7], ids=repr)
def test_symplectic_involution_is_an_involution(field):
    rng = rng_for("symplectic", repr(field))
    for _ in range(100):
        x = random_matrix(field, 8, 8, rng)
        assert symplectic_involution(symplectic_involution(x)) == x


def test_symplectic_involution_antimultiplicative():
    rng = rng_for("symplectic-anti")
    for _ in range(30):
        x = random_matrix(GF7, 8, 8, rng)
        y = random_matrix(GF7, 8, 8, rng)
        assert symplectic_involution(x * y) == symplectic_involution(
            y
        ) * symplectic_involution(x)


def test_symplectic_involution_rejects_odd_sizes():
    with pytest.raises(OddDimension):
        symplectic_involution(Matrix.identity(Q, 3))


def test_scalar_multiple_detection():
    assert scalar_multiple_of_identity(Matrix.identity(Q, 3).scale("5/2")) == Q.coerce(
        "5/2"
    )
    assert scalar_multiple_of_identity(E(3, 1, 2)) is None
    assert scalar_multiple_of_identity(mat(Q, [[2, 0], [0, 3]])) is None


@given(st.integers(0, 7))
def test_power_matches_repeated_multiplication(e):
    p = cyclic_permutation(GF5, 3)
    expected = Matrix.identity(GF5, 3)
    for _ in range(e):
        expected = expected * p
    assert p**e == expected


@pytest.mark.parametrize("field", [Q, GF81], ids=repr)
def test_power_matches_repeated_products_and_skips_the_identity(field, monkeypatch):
    a = random_matrix(field, 4, 4, rng_for("power", repr(field)))
    expected = Matrix.identity(field, 4)
    products = []
    original = Matrix.__mul__

    def counting(self, other):
        products.append(1)
        return original(self, other)

    for e in range(6):
        products.clear()
        monkeypatch.setattr(Matrix, "__mul__", counting)
        power = a**e
        monkeypatch.setattr(Matrix, "__mul__", original)
        assert power == expected
        # squarings plus one product per set bit after the first
        assert len(products) == max(e.bit_length() - 1, 0) + max(bin(e).count("1") - 1, 0)
        expected = expected * a


# ``test_field_above_table_limit_agrees_with_oracle`` uses the same field
GF_UNTABLED = ExtensionField(2, 17)


def _random_rows(field, nrows, ncols, rng):
    return [list(row) for row in random_matrix(field, nrows, ncols, rng).entries]


def _rank_deficient(field, rng):
    product = random_matrix(field, 5, 2, rng) * random_matrix(field, 2, 5, rng)
    return [list(row) for row in product.entries]


def _duplicate_rows(field, rng):
    a, b, c = _random_rows(field, 3, 4, rng)
    return [a, b, list(a), c, list(b)]


def _leading_zero_rows(field, rng):
    rows = _random_rows(field, 3, 5, rng)
    for row in rows:
        row[0] = field.zero
    return [[field.zero] * 5, [field.zero] * 5, *rows]


ELIMINATION_SHAPES = {
    "empty": lambda field, rng: [],
    "zero 1x1": lambda field, rng: [[field.zero]],
    "wide 3x7": lambda field, rng: _random_rows(field, 3, 7, rng),
    "tall 7x3": lambda field, rng: _random_rows(field, 7, 3, rng),
    "square 4x4": lambda field, rng: _random_rows(field, 4, 4, rng),
    "rank-deficient 5x5": _rank_deficient,
    "duplicate rows": _duplicate_rows,
    "leading zero rows": _leading_zero_rows,
}


def _reference_inverse(rows, field):
    """The inverse's rows by the reference elimination, or None if singular."""
    n = len(rows)
    z, o = field.zero, field.one
    aug = [list(row) + [o if j == i else z for j in range(n)] for i, row in enumerate(rows)]
    if reference_rref(aug, field) != list(range(n)):
        return None
    return [row[n:] for row in aug]


@pytest.mark.parametrize("shape", list(ELIMINATION_SHAPES))
@pytest.mark.parametrize("field", [Q, GF2, GF5, GF_LARGE, GF4, GF9, GF81, GF_UNTABLED], ids=repr)
def test_eliminations_match_reference_rref(field, shape):
    assert GF_UNTABLED.order > TABLE_MAX_ORDER
    rng = rng_for("reference-rref", repr(field), shape)
    for _ in range(4):
        rows = ELIMINATION_SHAPES[shape](field, rng)
        want = [list(row) for row in rows]
        want_pivots = reference_rref(want, field)
        got = [list(row) for row in rows]
        assert _rref_in_place(got, field) == want_pivots
        assert [list(row) for row in got] == [list(row) for row in want]
        if not rows:
            continue
        m = Matrix(field, rows)
        assert m.rank() == len(want_pivots)
        kernel_rows = reference_kernel_from_rref(want, want_pivots, m.ncols, field)
        got_kernel = [[v for (v,) in vec.entries] for vec in m.kernel_vectors()]
        assert got_kernel == kernel_rows
        assert [list(map(type, vec)) for vec in got_kernel] == [
            list(map(type, vec)) for vec in kernel_rows
        ]
        if m.is_square:
            inverse = _reference_inverse(rows, field)
            if inverse is None:
                with pytest.raises(SingularMatrix):
                    m.inverse()
            else:
                assert [list(row) for row in m.inverse().entries] == inverse
