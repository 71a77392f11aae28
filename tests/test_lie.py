"""Brackets, left-normed products, closure engine, expansion identity."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from liemat import (
    Matrix,
    PrimeField,
    Subspace,
    bracket,
    centralizer_intersection_check,
    closure,
    cyclic_permutation,
    left_normed,
    leibniz_expansion_check,
    matrix_unit,
    upper_shift,
)
from liemat import lie
from liemat.matrices import SpanBuilder, _apply
from liemat.errors import EmptySequence, MixedShapes

from support import (
    GF2,
    GF5,
    GF7,
    GF9,
    GF4,
    GF81,
    GF_LARGE,
    Q,
    random_matrix,
    reference_ad_kernel,
    reference_closure,
    rng_for,
)


def E(n, i, j, field=Q):
    return matrix_unit(field, n, i, j)


def test_bracket_examples():
    n = 4
    p = cyclic_permutation(Q, n)
    assert bracket(E(n, 1, 1), p) == E(n, 1, 2) - E(n, n, 1)
    x = random_matrix(Q, 3, 3, rng_for("self-bracket"))
    assert bracket(x, x).is_zero()
    for i, j in [(2, 3), (3, 2)]:
        assert bracket(E(3, i, 1), E(3, 1, j)) == E(3, i, j)


_gf5_matrices = st.builds(
    lambda entries: Matrix(GF5, [entries[:3], entries[3:6], entries[6:]]),
    st.lists(st.integers(0, 4), min_size=9, max_size=9),
)


@given(_gf5_matrices, _gf5_matrices, _gf5_matrices, st.integers(0, 4))
def test_bracket_bilinear_and_antisymmetric(x, y, z, c):
    assert bracket(x, y) == -bracket(y, x)
    assert bracket(x + y.scale(c), z) == bracket(x, z) + bracket(y, z).scale(c)


def test_jacobi_identity():
    for field in (Q, GF5):
        rng = rng_for("jacobi", repr(field))
        for _ in range(30):
            x, y, z = (random_matrix(field, 3, 3, rng) for _ in range(3))
            total = (
                bracket(bracket(x, y), z)
                + bracket(bracket(y, z), x)
                + bracket(bracket(z, x), y)
            )
            assert total.is_zero()


def test_left_normed_examples():
    x = random_matrix(Q, 3, 3, rng_for("left-normed"))
    assert left_normed([x]) == x
    y = random_matrix(Q, 3, 3, rng_for("left-normed-2"))
    assert left_normed([x, Matrix.identity(Q, 3), y]).is_zero()
    # direct-multiplication oracle: [E12, E21] = E11 - E22, then
    # (E11 - E22) E12 - E12 (E11 - E22) = E12 + E12 = 2 E12
    lhs = left_normed([E(2, 1, 2), E(2, 2, 1), E(2, 1, 2)])
    step = E(2, 1, 2) * E(2, 2, 1) - E(2, 2, 1) * E(2, 1, 2)
    oracle = step * E(2, 1, 2) - E(2, 1, 2) * step
    assert lhs == oracle == E(2, 1, 2).scale(2)
    with pytest.raises(EmptySequence):
        left_normed([])


def test_closure_two_generators_fill_everything():
    result = closure([cyclic_permutation(Q, 4), E(4, 1, 1)], "lie")
    assert result.subspace.dim == 16 and result.subspace.is_full
    assert result.product_kind == "lie"


def test_closure_of_single_idempotent_unit():
    result = closure([E(3, 1, 1)], "lie")
    assert result.subspace == Subspace.span([E(3, 1, 1)])
    assert result.subspace.dim == 1


def test_closure_lie_of_shift_and_low_unit():
    # every element has zero trace, so this cannot be the full algebra;
    # the fixpoint dimension (computed, then frozen) is 5
    result = closure([upper_shift(Q, 3), E(3, 2, 1)], "lie")
    assert all(b.trace_raw() == 0 for b in result.subspace.basis)
    assert result.subspace.dim == 5 < 9


def test_closure_associative_of_shift_and_low_unit():
    # the span of all words in {S, E21} has row support inside rows 1..n-1,
    # so it cannot be full for n >= 3; frozen fixpoint dims below
    for n, expected in [(2, 4), (3, 6), (4, 9), (5, 12)]:
        result = closure([upper_shift(Q, n), E(n, 2, 1)], "associative")
        assert result.subspace.dim == expected
        if n >= 3:
            assert not result.subspace.is_full


def test_generation_at_scale_with_transposed_unit():
    # {S, E(n,1)} generates associatively; its Lie closure is trace-zero
    for n in range(2, 7):
        field = Q if n <= 4 else GF5
        s = upper_shift(field, n)
        en1 = matrix_unit(field, n, n, 1)
        assoc = closure([s, en1], "associative")
        assert assoc.subspace.is_full
        lie_res = closure([s, en1], "lie")
        assert all(field.is_zero(b.trace_raw()) for b in lie_res.subspace.basis)
        assert lie_res.subspace.dim <= n * n - 1


def test_closure_monotone_and_lie_inside_associative():
    rng = rng_for("closure-monotone")
    for _ in range(5):
        gens = [random_matrix(GF5, 3, 3, rng) for _ in range(2)]
        extra = random_matrix(GF5, 3, 3, rng)
        smaller = closure(gens, "lie").subspace
        bigger = closure(gens + [extra], "lie").subspace
        assert bigger.contains_subspace(smaller)
        assoc = closure(gens, "associative").subspace
        assert assoc.contains_subspace(smaller)


def _word_span_oracle(gens, kind):
    """Independent oracle: span of all products (or left-normed brackets)
    of generator words, lengthened until one full level adds nothing.

    If no word of length L+1 leaves the span of shorter words, neither
    does any longer word, so stopping there is sound.
    """
    from liemat.subspaces import SpanBuilder

    field = gens[0].field
    n = gens[0].nrows
    builder = SpanBuilder(field, n * n)
    frontier = list(gens)
    for m in frontier:
        builder.insert(m.vectorize())
    while frontier:
        grew = []
        for w in frontier:
            for g in gens:
                nxt = [bracket(w, g)] if kind == "lie" else [w * g, g * w]
                for m in nxt:
                    if builder.insert(m.vectorize()):
                        grew.append(m)
        frontier = grew
    return Subspace(field, (n, n), builder.sorted_rows())


@pytest.mark.parametrize("kind", ["lie", "associative"])
def test_closure_matches_word_span_oracle(kind):
    cases = [[cyclic_permutation(GF5, 3), E(3, 1, 1, GF5)]]
    rng = rng_for("closure-oracle", kind)
    for _ in range(4):
        cases.append([random_matrix(GF5, 3, 3, rng) for _ in range(2)])
    for gens in cases:
        assert closure(gens, kind).subspace == _word_span_oracle(gens, kind)


def _reference_cases():
    """Generator sets, by id, for the comparison with ``reference_closure``."""
    P, S = cyclic_permutation, upper_shift
    cases = []
    for field in (Q, GF2, GF5, GF9):
        for n in range(2, 7 if field != GF9 else 5):
            cases.append((f"P,E11 n={n} {field!r}", [P(field, n), E(n, 1, 1, field)]))
        for n in (3, 4):
            cases.append((f"S,E21 n={n} {field!r}", [S(field, n), E(n, 2, 1, field)]))
            cases.append((f"S,En1 n={n} {field!r}", [S(field, n), E(n, n, 1, field)]))
            cases.append((f"P,E12 n={n} {field!r}", [P(field, n), E(n, 1, 2, field)]))
        zero = Matrix.zeros(field, 3)
        units = [E(2, i, j, field) for i in (1, 2) for j in (1, 2)]
        cases += [
            (f"zero {field!r}", [zero]),
            (f"zero,E11 {field!r}", [zero, E(3, 1, 1, field)]),
            (f"all units {field!r}", units),
            (f"E11 {field!r}", [E(3, 1, 1, field)]),
            (f"P,E11,P duplicate {field!r}", [P(field, 3), E(3, 1, 1, field), P(field, 3)]),
            (f"S,E31,S+E31 dependent {field!r}",
             [S(field, 3), E(3, 3, 1, field), S(field, 3) + E(3, 3, 1, field)]),
        ]
        rng = rng_for("reference-closure", repr(field))
        for n in (2, 3, 4):
            pair = [random_matrix(field, n, n, rng) for _ in range(2)]
            cases.append((f"random n={n} {field!r}", pair))
    for field in (GF81, GF_LARGE):
        for n in (2, 3, 4):
            cases.append((f"P,E11 n={n} {field!r}", [P(field, n), E(n, 1, 1, field)]))
        cases.append((f"S,E21 n=4 {field!r}", [S(field, 4), E(4, 2, 1, field)]))
        cases.append((f"P,E12 n=4 {field!r}", [P(field, 4), E(4, 1, 2, field)]))
        rng = rng_for("reference-closure", repr(field))
        for n in (2, 3):
            pair = [random_matrix(field, n, n, rng) for _ in range(2)]
            cases.append((f"random n={n} {field!r}", pair))
    for field in (Q, GF5, GF_LARGE, GF81):
        rng = rng_for("reference-closure-dense", repr(field))
        pair = [random_matrix(field, 5, 5, rng) for _ in range(2)]
        cases.append((f"dense random n=5 {field!r}", pair))
    # many vanishing products: nilpotent units, and a generator whose first
    # row and column are zero, so that it kills E11 from both sides
    for field in (Q, GF2, GF5, GF81):
        rng = rng_for("reference-closure-vanishing", repr(field))
        hollow = random_matrix(field, 4, 4, rng)
        hollow = Matrix(field, [[0] * 4] + [[0, *row[1:]] for row in hollow.entries[1:]])
        cases += [
            (f"E12,E23 n=3 {field!r}", [E(3, 1, 2, field), E(3, 2, 3, field)]),
            (f"E12,E23,E34 n=4 {field!r}", [E(4, i, i + 1, field) for i in (1, 2, 3)]),
            (f"E11,hollow n=4 {field!r}", [E(4, 1, 1, field), hollow]),
            (f"S,hollow n=4 {field!r}", [S(field, 4), hollow]),
        ]
    return [pytest.param(gens, id=case_id) for case_id, gens in cases]


@pytest.mark.parametrize("kind", ["lie", "associative"])
@pytest.mark.parametrize("gens", _reference_cases())
def test_closure_matches_reference_sweep(gens, kind):
    result = closure(gens, kind)
    subspace, rounds = reference_closure(gens, kind)
    assert result.subspace.rows == subspace.rows
    assert result.rounds == rounds


@pytest.mark.parametrize("kind", ["lie", "associative"])
def test_closure_makes_no_dense_products(kind, monkeypatch):
    cases = [
        [cyclic_permutation(Q, 5), E(5, 1, 1)],
        [upper_shift(GF5, 4), E(4, 4, 1, GF5)],
        [E(3, 1, 2), E(3, 2, 3)],
        [random_matrix(GF81, 3, 3, rng_for("no-dense", kind)) for _ in range(2)],
    ]
    expected = [reference_closure(gens, kind) for gens in cases]

    def refuse(*args):
        raise AssertionError("dense product on the closure path")

    monkeypatch.setattr(Matrix, "__mul__", refuse)
    monkeypatch.setattr(lie, "bracket", refuse)
    for gens, (subspace, rounds) in zip(cases, expected):
        result = closure(gens, kind)
        assert result.subspace.rows == subspace.rows
        assert result.rounds == rounds


def _raw_operator(h, lie_kind):
    """``lie._operator`` of r -> [r, h] (``lie_kind``) or r -> r·h on raw
    values."""
    return lie._operator(h.field, h.nrows, lie._sparse(h.field, h.vectorize()), lie_kind)


@pytest.mark.parametrize("field", [Q, GF2, GF9, GF_LARGE, GF81], ids=repr)
def test_product_operators_match_dense_products(field):
    """The sparse operators give the dense products, on raw values
    (``_apply``) and in the builder's coordinates (``SpanBuilder.apply``)."""
    rng = rng_for("product-operators", repr(field))
    n = 3
    builder = SpanBuilder(field, n * n)
    hs = [random_matrix(field, n, n, rng) for _ in range(6)] + [E(n, 2, 3, field)]
    for h in hs:
        r = random_matrix(field, n, n, rng)
        r_vec = lie._sparse(field, r.vectorize())
        h_coords = builder.coordinates(lie._sparse(field, h.vectorize()))
        for dense, kind in ((r * h, False), (bracket(r, h), True)):
            op = _raw_operator(h, kind)
            want = lie._sparse(field, dense.vectorize())
            image = _apply(field, op, r_vec)
            assert all(not field.is_zero(a) for a in image.values())
            assert image == want
            coords_op = lie._operator(field, n, h_coords, kind)
            assert builder.apply(coords_op, builder.coordinates(r_vec)) == builder.coordinates(want)


FIVE_FIELDS = [Q, GF5, GF_LARGE, GF4, GF81]


def _as_matrix(field, op, size):
    """A ``SparseMap`` as its size x size matrix: column c is the image of
    unit c, ``_apply(op, {c: 1})``."""
    rows = [[field.zero] * size for _ in range(size)]
    for c in range(size):
        for r, a in _apply(field, op, {c: field.one}).items():
            rows[r][c] = a
    return Matrix(field, rows)


def _operator_cases(field, n, rng):
    """The zero, identity, unit and random h of ``n`` x ``n``, and a diagonal
    with a repeated entry, where [E_ik, h] = 0 for some i != k."""
    hs = [Matrix.zeros(field, n), Matrix.identity(field, n), E(n, 1, n, field), E(n, n, n, field)]
    hs += [random_matrix(field, n, n, rng) for _ in range(3)]
    if n > 1:
        d = random_matrix(field, n, n, rng).entries[0]
        hs.append(Matrix(field, [[d[0] if j == i else 0 for j in range(n)] for i in range(n)])
                  + E(n, 1, 1, field).scale(d[1]))
    return hs


@pytest.mark.parametrize("field", FIVE_FIELDS, ids=repr)
def test_operators_list_exactly_the_units_with_a_nonzero_image(field):
    """``_operator`` maps each unit E_c to the dense products E_c·h and
    [E_c, h], with no zero coefficient, a unit with a zero image to the
    empty vector, and does so in builder coordinates too (over Q the
    coordinates are a nonzero multiple of h)."""
    rng = rng_for("operator-units", repr(field))
    for n in range(1, 5):
        builder = SpanBuilder(field, n * n)
        for h in _operator_cases(field, n, rng):
            h_raw = lie._sparse(field, h.vectorize())
            for kind in (True, False):
                op = lie._operator(field, n, h_raw, kind)
                coords_op = lie._operator(field, n, builder.coordinates(h_raw), kind)
                for c in range(n * n):
                    unit = E(n, c // n + 1, c % n + 1, field)
                    want = lie._sparse(field, (bracket(unit, h) if kind else unit * h).vectorize())
                    assert _apply(field, op, {c: field.one}) == want
                    unit_coords = builder.coordinates({c: field.one})
                    assert builder.apply(coords_op, unit_coords) == builder.coordinates(want)


@pytest.mark.parametrize("field", FIVE_FIELDS, ids=repr)
def test_operators_hold_one_term_per_nonzero_of_h(field):
    """An operator is built from h's nonzeros alone: ``rows`` holds one term
    per nonzero, and so does ``cols`` for the bracket, none for the
    product."""
    rng = rng_for("operator-terms", repr(field))
    for n in range(1, 5):
        for h in _operator_cases(field, n, rng):
            h_raw = lie._sparse(field, h.vectorize())
            for kind in (True, False):
                units, rows, cols = lie._operator(field, n, h_raw, kind)
                assert len(units) == n * n and len(rows) == len(cols) == n
                assert sum(map(len, rows)) == len(h_raw)
                assert sum(map(len, cols)) == (len(h_raw) if kind else 0)


@pytest.mark.parametrize("field", FIVE_FIELDS, ids=repr)
def test_ad_operator_of_the_transpose_is_the_transposed_operator(field):
    """Under <F, r> = sum F_ij r_ij the adjoint of r -> [r, h] is
    F -> [F, hᵀ], the duality that ``ad_kernel`` rests on."""
    rng = rng_for("ad-duality", repr(field))
    for n in range(1, 5):
        hs = [random_matrix(field, n, n, rng) for _ in range(3)]
        hs += [E(n, 1, n, field), Matrix.identity(field, n), Matrix.zeros(field, n)]
        for h in hs:
            forward = _as_matrix(field, _raw_operator(h, True), n * n)
            adjoint = _as_matrix(field, _raw_operator(h.transpose(), True), n * n)
            assert adjoint == forward.transpose()


@pytest.mark.parametrize("field", FIVE_FIELDS, ids=repr)
def test_ad_kernel_follows_the_chain_order(field):
    """Asymmetric chains, alone and together, with and without a nonzero
    target, against the fold of preimages: r -> [r, x1, ..., xk] brackets
    with x1 first, so the adjoint chain must apply xkᵀ first.  Over Q the
    members also carry entries 1/2, -3/4 and 7/10^6, whose operators are
    nonzero multiples of r -> [r, xᵀ]."""
    rng = rng_for("ad-kernel-order", repr(field))
    for n in (2, 3):
        x1, x2, x3 = (random_matrix(field, n, n, rng) for _ in range(3))
        if field == Q:
            x1 = x1 + E(n, 1, 2).scale(Fraction(1, 2))
            x2 = x2 + E(n, 2, 1).scale(Fraction(-3, 4))
            x3 = x3 + E(n, n, n).scale(Fraction(7, 10**6))
        target = Subspace.span([random_matrix(field, n, n, rng) for _ in range(n)])
        for chains in ([(x1, x2)], [(x2, x3, x1)], [(x1, x2), (x3,), (x2, x3, x1)]):
            ops = [
                [lie.adjoint_operator(field, n, h) for h in lie._coordinates(field, n, [x.vectorize() for x in chain])]
                for chain in chains
            ]
            for t in (None, target):
                expected = reference_ad_kernel(chains, field, n, t)
                assert lie.ad_kernel(field, n, ops, t).rows == expected.rows


@pytest.mark.parametrize("field", [Q, GF2, GF5, GF_LARGE, GF81], ids=repr)
def test_integer_kernel_matches_raw_products(field):
    """``SpanBuilder.apply`` on ``SpanBuilder.coordinates`` gives the
    coordinates of the raw product: over Q its primitive multiple, over GF(p)
    its residues, over GF(p^m) the raw values."""
    rng = rng_for("integer-kernel", repr(field))
    builder = SpanBuilder(field, 9)
    if field == Q:  # lcm 9 clears the denominators, then the content 2 goes
        assert builder.coordinates({0: Fraction(4, 3), 2: Fraction(-2, 9)}) == {0: 6, 2: -1}
    n = 3
    hs = [random_matrix(field, n, n, rng) for _ in range(6)] + [E(n, 2, 3, field)]
    for h in hs:
        h_raw = lie._sparse(field, h.vectorize())
        r_raw = lie._sparse(field, random_matrix(field, n, n, rng).vectorize())
        r_int = builder.coordinates(r_raw)
        if field == Q:
            assert all(type(x) is int for x in r_int.values()) and gcd(*r_int.values()) == 1
        for kind in (True, False):
            raw = _apply(field, lie._operator(field, n, h_raw, kind), r_raw)
            op = lie._operator(field, n, builder.coordinates(h_raw), kind)
            assert builder.apply(op, r_int) == builder.coordinates(raw)


def _scaled(m, c):
    return m.scale(Fraction(c))


def _q_coefficient_cases():
    """Q generator sets with non-integer, negative and large-denominator
    coefficients, by id."""
    P, S = cyclic_permutation, upper_shift
    rng = rng_for("q-coefficients")
    mixed = _scaled(E(4, 1, 1), Fraction(-3, 4)) + _scaled(E(4, 2, 2), Fraction(2, 3))
    tiny = P(Q, 4) + _scaled(E(4, 3, 3), Fraction(7, 10**6))
    big = [
        Matrix(Q, [[Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) if rng.random() < 0.4 else 0
                    for _ in range(3)] for _ in range(3)])
        for _ in range(2)
    ]
    cases = [
        ("1/2 P, E11 n=5", [_scaled(P(Q, 5), Fraction(1, 2)), E(5, 1, 1)]),
        ("1/2 P, -3/4 E11 + 2/3 E22 n=4", [_scaled(P(Q, 4), Fraction(1, 2)), mixed]),
        ("P + 7/10^6 E33, -3/4 E11 + 2/3 E22 n=4", [tiny, mixed]),
        ("-5/7 S, 7/10^6 E21 n=4", [_scaled(S(Q, 4), Fraction(-5, 7)), _scaled(E(4, 2, 1), Fraction(7, 10**6))]),
        ("sparse big-denominator pair n=3", big),
        ("-3/4 E11 + 2/3 E22, 1/2 E33 - 5/3 E44 n=4",
         [mixed, _scaled(E(4, 3, 3), Fraction(1, 2)) + _scaled(E(4, 4, 4), Fraction(-5, 3))]),
    ]
    return [pytest.param(gens, id=case_id) for case_id, gens in cases]


@pytest.mark.parametrize("kind", ["lie", "associative"])
@pytest.mark.parametrize("gens", _q_coefficient_cases())
def test_closure_over_q_with_fractional_coefficients(gens, kind):
    result = closure(gens, kind)
    subspace, rounds = reference_closure(gens, kind)
    assert result.subspace.rows == subspace.rows
    assert result.rounds == rounds


@pytest.mark.parametrize("kind", ["lie", "associative"])
def test_closure_does_not_see_generator_scaling(kind):
    for n in (3, 5):
        want = closure([cyclic_permutation(Q, n), E(n, 1, 1)], kind)
        for c in (2, -1, Fraction(-3, 7), Fraction(1, 10**6)):
            got = closure([_scaled(cyclic_permutation(Q, n), c), E(n, 1, 1)], kind)
            assert got == want
            assert got.subspace.rows == want.subspace.rows and got.rounds == want.rounds


@pytest.mark.parametrize("kind", ["lie", "associative"])
def test_closure_entries_are_raw_values(kind):
    for gens in [[_scaled(upper_shift(Q, 4), Fraction(-2, 3)), E(4, 4, 1)],
                 [_scaled(cyclic_permutation(Q, 3), Fraction(5, 9)), E(3, 1, 1)]]:
        rows = closure(gens, kind).subspace.rows
        assert rows and all(type(a) is Fraction for row in rows for a in row)
    for field in (GF2, GF5, GF_LARGE):
        rng = rng_for("raw-entries", kind, repr(field))
        for gens in ([upper_shift(field, 4), E(4, 2, 1, field)],
                     [random_matrix(field, 3, 3, rng) for _ in range(2)]):
            rows = closure(gens, kind).subspace.rows
            assert rows and all(type(a) is int and 0 <= a < field.p for row in rows for a in row)


def test_closure_rounds_edge_cases():
    assert closure([Matrix.zeros(Q, 3)], "lie").rounds == 0
    units = [E(2, i, j) for i in (1, 2) for j in (1, 2)]
    assert closure(units, "associative").rounds == 0
    for kind in ("lie", "associative"):
        assert closure([E(3, 1, 1)], kind).rounds == 1


def test_spin_rounds_of_the_shift_cross_every_power_of_two():
    """The associative closure of {S} is {S, ..., S^(n-1)}: n - 2 spin levels
    add something, so ``rounds`` is (n - 2).bit_length() + 1, which passes
    the powers of two at n = 3, 4, 6 and 10."""
    for n in range(2, 13):
        gens = [upper_shift(Q, n)]
        result = closure(gens, "associative")
        subspace, rounds = reference_closure(gens, "associative")
        assert result.subspace.rows == subspace.rows and result.subspace.dim == n - 1
        assert result.rounds == rounds == (n - 2).bit_length() + 1


def _random_generator_sets(count):
    """Seeded sets of 1-3 n x n generators, n = 1..5, over GF(2), GF(3),
    GF(2^2) and Q.  Each generator is dense, strictly upper, sparse (one or
    two entries), zero, a duplicate of an earlier one, or a combination of
    the earlier ones."""
    rng = rng_for("spin-random-sets")
    fields = (GF2, PrimeField(3), GF4, Q)
    sets = []
    for t in range(count):
        field, n = fields[t % len(fields)], rng.randint(1, 5)
        if field == Q:
            def scalar():
                return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        else:
            def scalar():
                return field.random_scalar(rng)
        gens = []
        for _ in range(rng.randint(1, 3)):
            shapes = ("dense", "upper", "sparse", "zero") + (("duplicate", "dependent") if gens else ())
            shape = rng.choice(shapes)
            if shape == "duplicate":
                gens.append(rng.choice(gens))
            elif shape == "dependent":
                gens.append(sum((g.scale(scalar()) for g in gens[1:]), gens[0].scale(scalar())))
            else:
                cells = {
                    "dense": [(i, j) for i in range(n) for j in range(n)],
                    "upper": [(i, j) for i in range(n) for j in range(i + 1, n)],
                    "sparse": [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 2))],
                    "zero": [],
                }[shape]
                entries = [[0] * n for _ in range(n)]
                for i, j in cells:
                    entries[i][j] = scalar()
                gens.append(Matrix(field, entries))
        sets.append(gens)
    return sets


def test_spin_matches_the_reference_sweep_on_random_sets():
    for gens in _random_generator_sets(300):
        result = closure(gens, "associative")
        subspace, rounds = reference_closure(gens, "associative")
        assert result.subspace.rows == subspace.rows, gens
        assert result.rounds == rounds, gens


def test_spin_work_is_pinned(monkeypatch):
    """The spin forms |X|·dim products: 125 inserts for the associative
    closure of {S, E(8,1)} over GF(5), where the pairwise sweep made 841.
    It never sweeps or runs the separate certificate; the Lie closure does
    both."""
    counts = {"insert": 0, "_sweep": 0, "_certify_closed": 0}
    insert = SpanBuilder.insert

    def counted_insert(self, *args):
        counts["insert"] += 1
        return insert(self, *args)

    def refuse(*args):
        raise AssertionError("sweep or certificate on the associative path")

    with monkeypatch.context() as patched:
        patched.setattr(SpanBuilder, "insert", counted_insert)
        patched.setattr(lie, "_sweep", refuse)
        patched.setattr(lie, "_certify_closed", refuse)
        result = closure([upper_shift(GF5, 8), E(8, 8, 1, GF5)], "associative")
    assert result.subspace.is_full and counts["insert"] == 125

    def counted(name, fn):
        def hook(*args):
            counts[name] += 1
            return fn(*args)
        return hook

    for name in ("_sweep", "_certify_closed"):
        monkeypatch.setattr(lie, name, counted(name, getattr(lie, name)))
    assert closure([cyclic_permutation(GF5, 4), E(4, 1, 1, GF5)], "lie").subspace.is_full
    assert counts["_sweep"] and counts["_certify_closed"]


def _sl_basis(field, n):
    """E(i, j) for i != j and E(i, i) - E(n, n): a basis of sl_n."""
    units = [E(n, i, j, field) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return units + [E(n, i, i, field) - E(n, n, n, field) for i in range(1, n)]


def _ceiling_cases():
    """Traceless generator sets, by id, whose Lie closure the sweep may stop
    at the sl_n ceiling, and sets where it must not."""
    P = cyclic_permutation
    cases = []
    for field in (Q, GF5, GF4):
        for n in range(3, 8):
            cases.append((f"P,E12 n={n} {field!r}", [P(field, n), E(n, 1, 2, field)], "lie"))
    for field in (Q, GF2, GF5):
        for n in (2, 3):
            cases.append((f"sl_n basis n={n} {field!r}", _sl_basis(field, n), "lie"))
    for n in (2, 4):  # tr I = n = 0 in GF(2)
        I = Matrix.identity(GF2, n)
        cycle = [E(n, i, i % n + 1, GF2) for i in range(1, n + 1)]
        cases.append((f"I,P,E12 n={n} GF(2)", [I, P(GF2, n), E(n, 1, 2, GF2)], "lie"))
        cases.append((f"I,E12,E21 n={n} GF(2)", [I, E(n, 1, 2, GF2), E(n, 2, 1, GF2)], "lie"))
        cases.append((f"I,E12,..,En1 n={n} GF(2)", [I, *cycle], "lie"))
    cases.append(("I,P,E12 n=3 GF(2)", [Matrix.identity(GF2, 3), P(GF2, 3), E(3, 1, 2, GF2)], "lie"))
    for field in (Q, GF2, GF5):
        # closure sl_2 in the corner, strictly inside sl_3
        cases.append((f"E12,E21 n=3 {field!r}", [E(3, 1, 2, field), E(3, 2, 1, field)], "lie"))
        # traceless, but E12·E21 = E11: the associative closure leaves sl_n
        for n in (2, 3):
            cases.append((f"assoc E12,E21 n={n} {field!r}",
                          [E(n, 1, 2, field), E(n, 2, 1, field)], "associative"))
        cases.append((f"zero n=1 {field!r}", [Matrix.zeros(field, 1)], "lie"))
    return [pytest.param(gens, kind, id=case_id) for case_id, gens, kind in cases]


@pytest.mark.parametrize("gens, kind", _ceiling_cases())
def test_closure_stopped_at_the_sl_ceiling_matches_reference(gens, kind):
    """A sweep that reaches dim n^2 - 1 with traceless generators stops
    there, and counts the round whose certificate would pass."""
    result = closure(gens, kind)
    subspace, rounds = reference_closure(gens, kind)
    assert result.subspace.rows == subspace.rows
    assert result.rounds == rounds


def test_sl_ceiling_cases_reach_it():
    """The ceiling cases above include closures that are sl_n, from the
    start (``rounds`` 1) and after sweeps, and ones strictly inside it."""
    n = 3
    assert closure(_sl_basis(Q, n), "lie").rounds == 1
    assert closure(_sl_basis(GF2, 2), "lie").rounds == 1
    assert closure([cyclic_permutation(Q, 5), E(5, 1, 2)], "lie").subspace.dim == 24
    corner = closure([E(n, 1, 2), E(n, 2, 1)], "lie")
    assert corner.subspace.dim == 3 and corner.rounds == 2
    for m in (2, 4):
        I = Matrix.identity(GF2, m)
        cycle = [E(m, i, i % m + 1, GF2) for i in range(1, m + 1)]
        assert closure([I, *cycle], "lie").subspace.dim == m * m - 1
    assert closure([E(2, 1, 2), E(2, 2, 1)], "associative").subspace.is_full


def test_closure_benchmark_jobs_keep_rounds_and_dim():
    """``rounds`` and dim of the closure jobs of the benchmark, whose golden
    digests pin ``rounds``: the same generators, built here."""
    P, S = cyclic_permutation, upper_shift
    jobs = [
        ("lie", [P(Q, 8), E(8, 1, 1)], 9, 64),
        ("lie", [P(GF5, 8), E(8, 1, 1, GF5)], 9, 64),
        ("lie", [P(GF81, 6), E(6, 1, 1, GF81)], 7, 36),
        ("associative", [S(Q, 7), E(7, 7, 1)], 4, 49),
        ("associative", [S(GF5, 8), E(8, 8, 1, GF5)], 4, 64),
        ("lie", [P(Q, 7), E(7, 1, 2)], 11, 48),
        ("lie", [P(GF5, 7), E(7, 1, 2, GF5)], 11, 48),
        ("associative", [S(Q, 7), E(7, 2, 1)], 4, 18),
    ]
    for kind, gens, rounds, dim in jobs:
        result = closure(gens, kind)
        assert (result.rounds, result.subspace.dim) == (rounds, dim), (kind, gens[0].field)


def test_closure_rejects_mixed_input():
    with pytest.raises(MixedShapes):
        closure([], "lie")
    with pytest.raises(MixedShapes):
        closure([E(2, 1, 1), E(3, 1, 1)], "lie")


def test_leibniz_expansion_cases():
    rng = rng_for("leibniz")
    # k = 1 is the plain product rule
    for _ in range(10):
        r, s, x = (random_matrix(Q, 2, 2, rng) for _ in range(3))
        assert leibniz_expansion_check(r, s, [x])
    eye = Matrix.identity(Q, 3)
    xs = [random_matrix(Q, 3, 3, rng) for _ in range(3)]
    assert leibniz_expansion_check(eye, eye, xs)  # both sides vanish
    # k = 3 enumerates all 8 complementary index pairs
    for _ in range(10):
        r, s = random_matrix(GF7, 3, 3, rng), random_matrix(GF7, 3, 3, rng)
        xs = [random_matrix(GF7, 3, 3, rng) for _ in range(3)]
        assert leibniz_expansion_check(r, s, xs)
    with pytest.raises(EmptySequence):
        leibniz_expansion_check(eye, eye, [])


def test_centralizer_intersection_examples():
    s, e31 = upper_shift(Q, 3), E(3, 3, 1)
    intersection, central = centralizer_intersection_check([s, e31])
    assert central
    assert intersection == Subspace.span([Matrix.identity(Q, 3)])
    intersection, central = centralizer_intersection_check([Matrix.identity(Q, 3)])
    assert not central and intersection.is_full
    intersection, central = centralizer_intersection_check([E(2, 1, 1)])
    assert intersection.dim == 2 and not central


@pytest.mark.parametrize("field", [Q, GF2, GF5, GF9, GF_LARGE, GF81], ids=repr)
def test_centralizer_intersection_matches_reference(field):
    two_i = Matrix.identity(field, 3).scale(field.add(field.one, field.one))  # 0 over GF(2)
    cases = [
        [upper_shift(field, 3), matrix_unit(field, 3, 3, 1)],
        [Matrix.identity(field, 3)],
        [matrix_unit(field, 2, 1, 1)],
        [upper_shift(field, 3), two_i, matrix_unit(field, 3, 3, 1)],
        [two_i, matrix_unit(field, 3, 1, 2)],
    ]
    for gens in cases:
        n = gens[0].nrows
        intersection, _ = centralizer_intersection_check(gens)
        expected = reference_ad_kernel([(g,) for g in gens], field, n)
        assert intersection.rows == expected.rows
    # a scalar generator constrains nothing and still counts for generation
    assert centralizer_intersection_check(cases[3]) == centralizer_intersection_check(cases[0])
    assert centralizer_intersection_check(cases[0])[1]
