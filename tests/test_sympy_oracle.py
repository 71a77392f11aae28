"""Differential checks of products and eliminations against sympy's
DomainMatrix over QQ and GF(p), on seeded matrices up to 6x6 of full and
deficient rank."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from liemat import Matrix, PrimeField  # noqa: E402
from liemat.errors import SingularMatrix  # noqa: E402

from support import GF5, Q, rng_for  # noqa: E402

FIELDS = [Q, GF5, PrimeField(1000003)]
CASES_PER_FIELD = 40


def _domain(field):
    return sympy.QQ if field == Q else sympy.GF(field.p)


def to_domain_matrix(m: Matrix) -> DomainMatrix:
    dom = _domain(m.field)
    if m.field == Q:
        rows = [[dom(a.numerator, a.denominator) for a in row] for row in m.entries]
    else:
        rows = [[dom(a) for a in row] for row in m.entries]
    return DomainMatrix(rows, (m.nrows, m.ncols), dom)


def raw_rows(dm: DomainMatrix, field) -> list[list]:
    """sympy's entries as the library's raw values."""
    if field == Q:
        return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in dm.to_list()]
    return [[int(x) % field.p for x in row] for row in dm.to_list()]


def _entry(field, rng):
    if rng.random() < 0.4:
        return field.zero
    if field == Q:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randrange(field.p)


def _random(field, r, c, rng) -> Matrix:
    return Matrix(field, [[_entry(field, rng) for _ in range(c)] for _ in range(r)])


def seeded_matrices(field):
    """Random r x c matrices, every third one a product through a narrower
    inner size, so rank-deficient (singular, when square) cases occur."""
    rng = rng_for("sympy-oracle", repr(field))
    out = [Matrix.zeros(field, 3), Matrix.identity(field, 4)]
    for k in range(CASES_PER_FIELD):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        if k % 3 == 0:
            inner = rng.randint(1, min(r, c))
            out.append(_random(field, r, inner, rng) * _random(field, inner, c, rng))
        else:
            out.append(_random(field, r, c, rng))
    return out


@pytest.fixture(params=FIELDS, ids=repr)
def field(request):
    return request.param


def test_products_match_sympy(field):
    rng = rng_for("sympy-products", repr(field))
    for _ in range(CASES_PER_FIELD):
        r, k, c = (rng.randint(1, 6) for _ in range(3))
        a, b = _random(field, r, k, rng), _random(field, k, c, rng)
        want = to_domain_matrix(a) * to_domain_matrix(b)
        assert [list(row) for row in (a * b).entries] == raw_rows(want, field)


def test_rank_rref_and_pivots_match_sympy(field):
    for m in seeded_matrices(field):
        dm = to_domain_matrix(m)
        rref, rank, pivots = m.rref()
        want_rref, want_pivots = dm.rref()
        assert [list(row) for row in rref.entries] == raw_rows(want_rref, field)
        assert pivots == list(want_pivots)
        assert rank == m.rank() == dm.rank()


def test_inverse_matches_sympy(field):
    singular = 0
    for m in seeded_matrices(field):
        if not m.is_square:
            continue
        dm = to_domain_matrix(m)
        if dm.rank() < m.nrows:
            singular += 1
            with pytest.raises(SingularMatrix):
                m.inverse()
            continue
        assert [list(row) for row in m.inverse().entries] == raw_rows(dm.inv(), field)
    assert singular  # the seeds include singular square matrices


def test_kernel_span_matches_sympy(field):
    for m in seeded_matrices(field):
        vectors = m.kernel_vectors()
        want = to_domain_matrix(m).nullspace()
        assert len(vectors) == want.shape[0] == m.ncols - m.rank()
        if not vectors:
            continue
        stacked = Matrix(field, [[row[0] for row in v.entries] for v in vectors])
        # equal spans have equal reduced row-echelon forms
        got_rref, _ = to_domain_matrix(stacked).rref()
        want_rref, _ = want.rref()
        assert got_rref == want_rref
