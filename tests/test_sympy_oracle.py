"""Differential checks of products and eliminations against sympy's
DomainMatrix over QQ and GF(p), on seeded matrices up to 6x6 of full and
deficient rank, and over QQ also on matrices up to 12x24 whose entries have
numerators up to 10^12 and many distinct denominators up to 10^6, so the
integer rows of the rational elimination meet large lcms and gcds."""

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


# -- large rationals --------------------------------------------------------

BIG_NUMERATOR = 10**12
BIG_DENOMINATOR = 10**6


def _big_entry(rng):
    if rng.random() < 0.3:
        return Q.zero
    return Fraction(rng.randint(-BIG_NUMERATOR, BIG_NUMERATOR), rng.randint(1, BIG_DENOMINATOR))


def _big_random(r, c, rng) -> Matrix:
    return Matrix(Q, [[_big_entry(rng) for _ in range(c)] for _ in range(r)])


def big_rational_matrices():
    """Seeded Q matrices up to 12x24, square (6..12) and wide (up to 12x24).
    Every third one is rank-deficient by construction: a product through an
    inner size below min(r, c), or (square) a last row that is a combination
    of two others with large coefficients."""
    rng = rng_for("sympy-oracle-big")
    out = [_big_random(12, 24, rng), _big_random(12, 12, rng)]
    for k in range(16):
        r = rng.randint(6, 12)
        c = r if k % 2 else rng.randint(r, 24)
        if k % 3 == 0:
            inner = rng.randint(1, min(r, c) - 1)
            out.append(_big_random(r, inner, rng) * _big_random(inner, c, rng))
        elif k % 3 == 1 and r == c:
            rows = [list(row) for row in _big_random(r - 1, c, rng).entries]
            a, b = _big_entry(rng), _big_entry(rng)
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
            out.append(Matrix(Q, rows))
        else:
            out.append(_big_random(r, c, rng))
    return out


BIG_MATRICES = big_rational_matrices()


def test_big_rationals_rref_and_pivots_match_sympy():
    deficient = 0
    for m in BIG_MATRICES:
        dm = to_domain_matrix(m)
        rref, rank, pivots = m.rref()
        want_rref, want_pivots = dm.rref()
        assert [list(row) for row in rref.entries] == raw_rows(want_rref, Q)
        assert pivots == list(want_pivots)
        assert rank == dm.rank()
        deficient += rank < min(m.nrows, m.ncols)
    assert deficient >= len(BIG_MATRICES) // 4


def test_big_rationals_inverse_matches_sympy():
    inverted = singular = 0
    for m in BIG_MATRICES:
        if not m.is_square:
            continue
        dm = to_domain_matrix(m)
        if dm.rank() < m.nrows:
            singular += 1
            with pytest.raises(SingularMatrix):
                m.inverse()
            continue
        inverted += 1
        assert [list(row) for row in m.inverse().entries] == raw_rows(dm.inv(), Q)
    assert inverted and singular


def test_big_rationals_kernel_matches_sympy():
    for m in BIG_MATRICES:
        vectors = m.kernel_vectors()
        assert len(vectors) == to_domain_matrix(m).nullspace().shape[0]
        # the parametric kernel read off sympy's RREF: each free column set
        # to 1, each pivot column to minus that column's RREF entry
        want_rref, want_pivots = to_domain_matrix(m).rref()
        want_rows = raw_rows(want_rref, Q)
        free = [j for j in range(m.ncols) if j not in want_pivots]
        for v, f in zip(vectors, free):
            want = [Q.zero] * m.ncols
            want[f] = Q.one
            for row, p in zip(want_rows, want_pivots):
                want[p] = -row[f]
            assert [row[0] for row in v.entries] == want
