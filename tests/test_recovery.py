"""Conjugator recovery: roundtrips, classification, decomposition."""

import warnings

import pytest

from liemat import (
    AlgebraMap,
    ExtensionField,
    Field,
    FieldAutomorphism,
    LieDecomposition,
    Matrix,
    PrimeField,
    Scalar,
    basis_unit_vector,
    classify_map,
    conjugation_map,
    conjugator_from_images,
    decompose_lie_automorphism,
    matrix_unit,
    recover_antiautomorphism,
    recover_automorphism,
    recover_twisted_antiautomorphism,
    recover_twisted_automorphism,
    recovery,
    residual_trace_form_check,
    scalar_multiple_of_identity,
    symplectic_involution,
    transpose_conjugation_map,
    upper_shift,
)
from liemat.errors import (
    CharacteristicDividesN,
    EnumerationTooLarge,
    IncompatibleAutomorphism,
    NotAnAntiAutomorphism,
    NotAnAutomorphism,
    NotAnAutomorphismImagePair,
    NotATwistedAntiAutomorphism,
    NotATwistedAutomorphism,
    NotDecomposable,
    ResidualNotScalar,
)
from liemat import jsonio, matrices
from liemat.recovery import recover

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
    negated,
    plus_trace,
    random_invertible,
    random_matrix,
    reference_classify,
    reference_conjugation_map,
    reference_conjugator_from_images,
    repeating_invertible,
    rng_for,
)

GF3 = PrimeField(3)


def E(n, i, j, field=Q):
    return matrix_unit(field, n, i, j)


def identity_map(n, field=Q):
    return AlgebraMap.from_function(n, field, lambda u: u)


def transpose_map(n, field=Q):
    return AlgebraMap.from_function(n, field, lambda u: u.transpose())


def trace_shift_map(n, field=Q):
    eye = Matrix.identity(field, n)
    return AlgebraMap.from_function(n, field, lambda u: u + eye.scale(u.trace_raw()))


def singular_coefficient(field, n, eps):
    """The c with eps + n*c = 0, which makes sigma + c*tr(.)*I kill I."""
    return field.neg(field.mul(eps, field.inv(field.from_int(n))))


def test_conjugator_from_identity_images():
    s, e31 = upper_shift(Q, 3), E(3, 3, 1)
    result = conjugator_from_images(s, e31, 3)
    assert result.conjugator == Matrix.identity(Q, 3)
    assert result.kernel_vector == basis_unit_vector(Q, 3, 1)
    assert result.verified


def test_conjugator_from_hand_computed_images():
    # conjugation by B = [[1,1],[0,1]]: phi(S) = S (they commute);
    # phi(E21) = (I+E12) E21 (I-E12) = E21 + E11 - E22 - E12
    phi_s = E(2, 1, 2)
    phi_e21 = mat(Q, [[1, -1], [1, -1]])
    result = conjugator_from_images(phi_s, phi_e21, 2)
    assert result.verified
    b = mat(Q, [[1, 1], [0, 1]])
    assert scalar_multiple_of_identity(b.inverse() * result.conjugator) is not None
    # the deterministic kernel choice lands exactly on B here
    assert result.conjugator == b


def test_conjugator_from_images_can_return_the_inverse():
    b = random_invertible(GF7, 4, rng_for("return-inverse"))
    bm = conjugation_map(b)
    phi_s = bm.image(1, 2) + bm.image(2, 3) + bm.image(3, 4)
    plain = conjugator_from_images(phi_s, bm.image(4, 1), 4)
    result, inverse = conjugator_from_images(phi_s, bm.image(4, 1), 4, return_inverse=True)
    assert result == plain
    assert result.conjugator * inverse == Matrix.identity(GF7, 4)


def test_conjugator_from_images_rejects_garbage():
    with pytest.raises(NotAnAutomorphismImagePair):
        # shift images of a non-automorphism: I - M has zero kernel
        conjugator_from_images(Matrix.zeros(Q, 3), Matrix.zeros(Q, 3), 3)


def generator_pair(m, anti=False):
    """(phi(S), phi(E(n,1))) from the unit images, or (phi(S^T), phi(E(1,n)))
    for ``anti``: the pair ``recover`` passes to ``conjugator_from_images``."""
    n = m.n
    shift = Matrix.zeros(m.field, n)
    for i in range(1, n):
        shift = shift + (m.image(i + 1, i) if anti else m.image(i, i + 1))
    return shift, m.image(1, n) if anti else m.image(n, 1)


def _exact(m):
    """The entries of a matrix with their types: equal values held in
    different types differ."""
    return [[(type(a), a) for a in row] for row in m.entries]


def _outcome(build, phi_s, phi_en1, n):
    try:
        result, inverse = build(phi_s, phi_en1, n)
    except NotAnAutomorphismImagePair as exc:
        return "error", str(exc)
    return (
        _exact(result.conjugator),
        _exact(result.kernel_vector),
        result.verified,
        result.scalar_class,
        _exact(inverse),
    )


def assert_matches_reference(phi_s, phi_en1, n):
    """The rank-1 construction against the dense one: the same result and
    inverse, entry types included, or the same error text."""
    got = _outcome(
        lambda *args: conjugator_from_images(*args, return_inverse=True), phi_s, phi_en1, n
    )
    assert got == _outcome(reference_conjugator_from_images, phi_s, phi_en1, n)
    return got


def _outer(field, c, r):
    return Matrix(field, [[field.mul(a, b) for b in r] for a in c])


def _scalar_other_than_zero_and_one(field, rng):
    while True:
        t = field.random_scalar(rng)
        if not field.is_zero(t) and t != field.one:
            return t


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("field", [Q, GF5, GF_LARGE, GF4, GF81], ids=repr)
def test_conjugator_matches_the_dense_reference(field, n):
    rng = rng_for("rank-one-oracle", repr(field), n)
    b = random_invertible(field, n, rng)
    auto, anti = conjugation_map(b), transpose_conjugation_map(b)
    for m, is_anti in ((auto, False), (anti, True)):
        outcome = assert_matches_reference(*generator_pair(m, is_anti), n)
        assert outcome[2] is True
    assert_matches_reference(*generator_pair(anti), n)
    zero = Matrix.zeros(field, n)
    assert assert_matches_reference(zero, zero, n)[0] == "error"
    # rank 1 with r.u = t != 1: u = S^(n-1) t e_n = t e_1 and r = e_1
    t = _scalar_other_than_zero_and_one(field, rng)
    shift = upper_shift(field, n)
    assert assert_matches_reference(shift, E(n, n, 1, field).scale(t), n)[0] == "error"
    # rank 1 with r.u = 1 and A singular for n > 1: every column is e_1
    eye = Matrix.identity(field, n)
    outcome = assert_matches_reference(eye, E(n, 1, 1, field), n)
    assert (outcome[0] == "error") == (n > 1)
    # random rank-1 pairs, once as drawn and once with r rescaled to r.u = 1
    for _ in range(3):
        phi_s = random_matrix(field, n, n, rng)
        c = random_matrix(field, n, 1, rng).vectorize()
        r = random_matrix(field, 1, n, rng).vectorize()
        assert_matches_reference(phi_s, _outer(field, c, r), n)
        u = (phi_s ** (n - 1) * Matrix(field, [[a] for a in c])).vectorize()
        ru = field.dot(r, u)
        if not field.is_zero(ru):
            r = field.vec_scale(r, field.inv(ru))
            assert_matches_reference(phi_s, _outer(field, c, r), n)


@pytest.mark.parametrize("field", [Q, GF81], ids=repr)
def test_conjugator_for_n_equal_to_one(field):
    # phi(S) is the 1x1 zero and M = phi(E(1,1))
    zero, one = Matrix.zeros(field, 1), Matrix.identity(field, 1)
    result = conjugator_from_images(zero, one, 1)
    assert (result.conjugator, result.kernel_vector, result.verified) == (one, one, True)
    t = _scalar_other_than_zero_and_one(field, rng_for("n=1", repr(field)))
    for phi_e in (zero, one.scale(t)):
        with pytest.raises(NotAnAutomorphismImagePair, match="is invertible"):
            conjugator_from_images(zero, phi_e, 1)
        assert assert_matches_reference(zero, phi_e, 1)[0] == "error"
    for m in (identity_map(1, field), transpose_map(1, field)):
        assert recover(m, False).verified and recover(m, True).verified


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("field", [Q, GF5, GF4], ids=repr)
def test_conjugator_reports_a_pair_it_does_not_reproduce(field, n):
    # phi(S) = S + t E(n,n): r.u = 1 and A is invertible, but phi(S)^n c != 0
    t = _scalar_other_than_zero_and_one(field, rng_for("unverified", repr(field), n))
    phi_s = upper_shift(field, n) + E(n, n, n, field).scale(t)
    phi_e = E(n, n, 1, field)
    result = conjugator_from_images(phi_s, phi_e, n)
    assert result.verified is False
    assert assert_matches_reference(phi_s, phi_e, n)[2] is False
    # phi(S) = S and phi(E(n,1)) = e_n (e_1 + t e_j)^T: A = I, but
    # r.phi(S)^(n-j) c = t, so phi(E(n,1)) A != A E(n,1)
    shift = upper_shift(field, n)
    for j in range(2, n + 1):
        phi_e = E(n, n, 1, field) + E(n, n, j, field).scale(t)
        result = conjugator_from_images(shift, phi_e, n)
        assert result.conjugator == Matrix.identity(field, n)
        assert result.verified is False
        assert assert_matches_reference(shift, phi_e, n)[2] is False


def test_rank_two_unit_image_is_not_an_image_pair():
    n = 4
    rank_two = E(n, n, 1) + E(n, 1, n)
    with pytest.raises(NotAnAutomorphismImagePair, match=r"^phi\(E\(n,1\)\) does not have rank 1$"):
        conjugator_from_images(upper_shift(Q, n), rank_two, n)
    images = list(identity_map(n).images)
    images[(n - 1) * n] = rank_two  # the image of E(n,1)
    with pytest.raises(NotAnAutomorphism, match="does not have rank 1"):
        recover(AlgebraMap(n, Q, tuple(images)), False)


def test_conjugator_roundtrip_gf7():
    rng = rng_for("roundtrip-gf7")
    for _ in range(10):
        b = random_invertible(GF7, 4, rng)
        bm = conjugation_map(b)
        result = conjugator_from_images(
            bm.image(1, 2) + bm.image(2, 3) + bm.image(3, 4), bm.image(4, 1), 4
        )
        assert result.verified


def test_recover_automorphism_identity():
    result = recover_automorphism(identity_map(3))
    assert result.verified and result.conjugator == Matrix.identity(Q, 3)


def test_recover_automorphism_roundtrip_up_to_scalar():
    rng = rng_for("roundtrip-q3")
    for _ in range(5):
        b = random_invertible(Q, 3, rng)
        result = recover_automorphism(conjugation_map(b))
        assert result.verified
        assert scalar_multiple_of_identity(b.inverse() * result.conjugator) is not None


def test_recover_automorphism_rejects_transpose():
    with pytest.raises(NotAnAutomorphism):
        recover_automorphism(transpose_map(3))


def test_recover_automorphism_rejects_twisted_input():
    twisted = conjugation_map(
        random_invertible(GF4, 2, rng_for("twist-reject")),
        FieldAutomorphism.frobenius(1),
    )
    with pytest.raises(NotAnAutomorphism):
        recover_automorphism(twisted)


def test_map_rejects_twist_the_field_does_not_have():
    for field, e in [(Q, -3), (Q, 0), (GF5, 1), (GF4, 2), (GF4, -1), (GF9, 5)]:
        with pytest.raises(IncompatibleAutomorphism):
            conjugation_map(Matrix.identity(field, 2), FieldAutomorphism.frobenius(e))
    for field, e in [(GF4, 0), (GF4, 1), (GF9, 1)]:
        m = conjugation_map(Matrix.identity(field, 2), FieldAutomorphism.frobenius(e))
        assert m.twist.power == e


def test_recover_twisted_reduces_to_plain_on_identity_twist():
    b = random_invertible(GF5, 3, rng_for("twist-ident"))
    plain = recover_automorphism(conjugation_map(b))
    twisted = recover_twisted_automorphism(
        conjugation_map(b, FieldAutomorphism.identity())
    )
    assert plain.conjugator == twisted.conjugator


@pytest.mark.parametrize("field,n", [(GF4, 2), (GF9, 3)], ids=["GF4-n2", "GF9-n3"])
def test_twisted_roundtrips(field, n):
    frob = FieldAutomorphism.frobenius(1)
    rng = rng_for("twisted", repr(field), n)
    for _ in range(8):
        b = random_invertible(field, n, rng)
        auto = recover_twisted_automorphism(conjugation_map(b, frob))
        assert auto.verified
        assert scalar_multiple_of_identity(b.inverse() * auto.conjugator) is not None
        anti = recover_twisted_antiautomorphism(transpose_conjugation_map(b, frob))
        assert anti.verified
        assert scalar_multiple_of_identity(b.inverse() * anti.conjugator) is not None


def test_twisted_rejects_wrong_shape():
    b = random_invertible(GF4, 2, rng_for("twist-wrong"))
    frob = FieldAutomorphism.frobenius(1)
    with pytest.raises(NotATwistedAutomorphism):
        recover_twisted_automorphism(transpose_conjugation_map(b, frob))


def test_recover_takes_the_error_from_direction_and_twist():
    b = random_invertible(GF4, 3, rng_for("recover-errors"))
    frob = FieldAutomorphism.frobenius(1)
    for twist, auto_error, anti_error in (
        (None, NotAnAutomorphism, NotAnAntiAutomorphism),
        (frob, NotATwistedAutomorphism, NotATwistedAntiAutomorphism),
    ):
        auto, anti = conjugation_map(b, twist), transpose_conjugation_map(b, twist)
        assert recover(auto, anti=False) == recover_twisted_automorphism(auto)
        assert recover(anti, anti=True) == recover_twisted_antiautomorphism(anti)
        with pytest.raises(auto_error):
            recover(anti, anti=False)
        with pytest.raises(anti_error):
            recover(auto, anti=True)


def test_recover_antiautomorphism_transpose_m2():
    result = recover_antiautomorphism(transpose_map(2))
    assert result.conjugator == Matrix.identity(Q, 2)
    assert result.kernel_vector == basis_unit_vector(Q, 2, 1)
    assert result.verified


@pytest.mark.parametrize("field", [Q, GF7], ids=repr)
def test_recover_symplectic_involution(field):
    m = AlgebraMap.from_function(8, field, symplectic_involution)
    # known intermediate values along the construction
    phi_st = symplectic_involution(upper_shift(field, 8).transpose())
    assert phi_st**7 == -E(8, 5, 4, field)
    assert phi_st**7 * symplectic_involution(E(8, 1, 8, field)) == E(8, 5, 5, field)
    result = recover_antiautomorphism(m)
    assert result.verified
    assert result.kernel_vector == basis_unit_vector(field, 8, 5)
    minus_one = field.neg(field.one)
    expected = Matrix(
        field,
        [
            [field.zero] * 4
            + [minus_one if j == i else field.zero for j in range(4)]
            for i in range(4)
        ]
        + [
            [field.one if j == i else field.zero for j in range(4)]
            + [field.zero] * 4
            for i in range(4)
        ],
    )
    assert result.conjugator == expected


def test_recover_antiautomorphism_rejects_automorphism():
    with pytest.raises(NotAnAntiAutomorphism):
        recover_antiautomorphism(identity_map(3))


def test_scalar_ambiguity_of_conjugators():
    rng = rng_for("scalar-ambiguity")
    b = random_invertible(Q, 3, rng)
    m = conjugation_map(b)
    for lam in ("2", "-1", "7/3"):
        scaled = b.scale(lam)
        assert conjugation_map(scaled).images == m.images


def test_kernel_dimension_is_one_for_genuine_maps():
    rng = rng_for("kernel-dim")
    for field, n in [(Q, 3), (GF5, 4)]:
        b = random_invertible(field, n, rng)
        m = conjugation_map(b)
        phi_s = sum(
            (m.image(i, i + 1) for i in range(2, n)), m.image(1, 2)
        )
        big_m = phi_s ** (n - 1) * m.image(n, 1)
        assert (Matrix.identity(field, n) - big_m).rank() == n - 1


def test_classification():
    assert classify_map(identity_map(2)) == "automorphism"
    assert classify_map(transpose_map(2)) == "anti-automorphism"
    assert classify_map(trace_shift_map(2)) == "lie-automorphism"
    rng = rng_for("classify")
    b = random_invertible(GF5, 3, rng)
    assert classify_map(conjugation_map(b)) == "automorphism"
    assert classify_map(transpose_conjugation_map(b)) == "anti-automorphism"
    # a non-bijective additive map classifies as nothing
    squash = AlgebraMap.from_function(2, Q, lambda u: Matrix.zeros(Q, 2))
    assert classify_map(squash) is None
    # bijective but structureless
    scramble = AlgebraMap.from_function(
        2, Q, lambda u: u + u.transpose().scale(3) + E(2, 1, 1).scale(u.trace_raw())
    )
    assert classify_map(scramble) is None


def test_maps_past_the_enumeration_guard_build_no_image():
    # n^2 images of n^2 scalars: 31^4 < 10^6 < 32^4
    def refuse(u):
        raise AssertionError("an image was built")

    with pytest.raises(EnumerationTooLarge, match="1048576 scalars"):
        AlgebraMap.from_function(32, Q, refuse)


def test_decompose_identity():
    dec = decompose_lie_automorphism(identity_map(2))
    assert dec.sigma_kind == "automorphism"
    assert scalar_multiple_of_identity(dec.sigma_conjugator) is not None
    assert dec.tau_coefficient == Q.scalar(0)
    assert dec.residual_zero


@pytest.mark.parametrize("n", [2, 3])
def test_decompose_trace_shift(n):
    psi = trace_shift_map(n)
    dec = decompose_lie_automorphism(psi)
    assert dec.sigma_kind == "automorphism"
    assert dec.tau_coefficient == Q.scalar(1)
    assert dec.residual_zero
    sigma = dec.sigma_map()
    assert sigma.images == identity_map(n).images
    assert residual_trace_form_check(psi, sigma)


def test_decompose_negative_transpose():
    psi = AlgebraMap.from_function(3, Q, lambda u: -u.transpose())
    dec = decompose_lie_automorphism(psi)
    assert dec.sigma_kind == "negative-anti-automorphism"
    assert dec.sigma_conjugator == Matrix.identity(Q, 3)
    assert dec.tau_coefficient == Q.scalar(0)
    assert dec.residual_zero
    assert residual_trace_form_check(psi, dec.sigma_map())


def test_decompose_rejects_non_lie_maps():
    scramble = AlgebraMap.from_function(2, Q, lambda u: u + u.transpose().scale(3))
    with pytest.raises(NotDecomposable):
        decompose_lie_automorphism(scramble)


def test_decompose_characteristic_guard():
    psi = identity_map(5, GF5)
    with pytest.raises(CharacteristicDividesN):
        decompose_lie_automorphism(psi)


def test_decompose_warns_on_small_fields():
    from liemat import PrimeField

    gf2 = PrimeField(2)
    psi = identity_map(3, gf2)  # order 2 < 2^(3-1)
    with pytest.warns(UserWarning):
        dec = decompose_lie_automorphism(psi)
    assert dec.sigma_kind == "automorphism"


def test_residual_trace_checks():
    psi = trace_shift_map(2)
    assert residual_trace_form_check(psi, identity_map(2))
    # tau = tr: off-diagonal units map to 0, diagonal units agree
    with pytest.raises(ResidualNotScalar):
        residual_trace_form_check(transpose_map(2), identity_map(2))
    # residuals of brackets vanish: tau(x y - y x) = c tr([x, y]) = 0
    rng = rng_for("tau-brackets")
    for _ in range(10):
        x = random_invertible(Q, 2, rng)
        y = random_invertible(Q, 2, rng)
        commutator = x * y - y * x
        residual = psi.apply(commutator) - commutator
        assert residual.is_zero()


def test_twisted_roundtrip_higher_frobenius_power():
    from liemat import ExtensionField

    gf81 = ExtensionField(3, 4)
    for e in (1, 2, 3):
        frob = FieldAutomorphism.frobenius(e)
        rng = rng_for("gf81-twist", e)
        b = random_invertible(gf81, 2, rng)
        auto = recover_twisted_automorphism(conjugation_map(b, frob))
        assert auto.verified
        assert scalar_multiple_of_identity(b.inverse() * auto.conjugator) is not None


def test_decompose_with_nontrivial_conjugator():
    b = random_invertible(Q, 3, rng_for("decompose-conj"))
    b_inv = b.inverse()
    eye = Matrix.identity(Q, 3)
    psi = AlgebraMap.from_function(
        3, Q, lambda u: b * u * b_inv + eye.scale(u.trace_raw())
    )
    dec = decompose_lie_automorphism(psi)
    assert dec.sigma_kind == "automorphism"
    assert dec.tau_coefficient == Q.scalar(1)
    assert dec.residual_zero
    assert scalar_multiple_of_identity(b_inv * dec.sigma_conjugator) is not None
    assert residual_trace_form_check(psi, dec.sigma_map())


def test_decompose_negative_anti_with_conjugator_and_coefficient():
    b = random_invertible(Q, 3, rng_for("decompose-anti-conj"))
    b_inv = b.inverse()
    eye = Matrix.identity(Q, 3)
    psi = AlgebraMap.from_function(
        3, Q, lambda u: -(b * u.transpose() * b_inv) + eye.scale(u.trace_raw() * 2)
    )
    dec = decompose_lie_automorphism(psi)
    assert dec.sigma_kind == "negative-anti-automorphism"
    assert dec.tau_coefficient == Q.scalar(2)
    assert dec.residual_zero
    assert scalar_multiple_of_identity(b_inv * dec.sigma_conjugator) is not None
    assert residual_trace_form_check(psi, dec.sigma_map())


def test_decompose_twisted_automorphism():
    frob = FieldAutomorphism.frobenius(1)
    b = random_invertible(GF9, 2, rng_for("decompose-twisted"))
    psi = conjugation_map(b, frob)
    with pytest.warns(UserWarning):
        dec = decompose_lie_automorphism(psi)
    assert dec.sigma_kind == "automorphism"
    assert dec.tau_coefficient == GF9.scalar(0)
    assert dec.residual_zero
    assert scalar_multiple_of_identity(b.inverse() * dec.sigma_conjugator) is not None


def test_roundtrip_wide_grid_small_count():
    # broad-coverage version of the roundtrip invariant (full 200-sample
    # run on the acceptance grid lives in test_acceptance)
    for field in (Q, GF5, GF7, GF4):
        for n in (2, 3, 4, 5, 6):
            rng = rng_for("wide", repr(field), n)
            for _ in range(3):
                b = random_invertible(field, n, rng)
                auto = recover_automorphism(conjugation_map(b))
                assert auto.verified
                assert (
                    scalar_multiple_of_identity(b.inverse() * auto.conjugator)
                    is not None
                )
                anti = recover_antiautomorphism(transpose_conjugation_map(b))
                assert anti.verified
                assert (
                    scalar_multiple_of_identity(b.inverse() * anti.conjugator)
                    is not None
                )


def classification_cases(field, n, rng, twist=None):
    """Seeded maps of every kind classify_map tells apart, as (label, map)."""
    b = random_invertible(field, n, rng)
    auto = conjugation_map(b, twist)
    anti = transpose_conjugation_map(b, twist)
    neg_anti = negated(anti)
    c = field.random_scalar(rng)
    while field.is_zero(c):
        c = field.random_scalar(rng)
    yield "conjugation", auto
    yield "transpose-conjugation", anti
    yield "negated conjugation", negated(auto)
    yield "negated transpose-conjugation", neg_anti
    yield "conjugation + c*tr", plus_trace(auto, c)
    yield "negated transpose-conjugation + c*tr", plus_trace(neg_anti, c)
    if not field.characteristic or n % field.characteristic:
        for eps, sigma in ((field.one, auto), (field.neg(field.one), neg_anti)):
            label = f"eps + n*c = 0 ({field.format_scalar(eps)})"
            yield label, plus_trace(sigma, singular_coefficient(field, n, eps))
    zero = Matrix.zeros(field, n)
    yield "zero", AlgebraMap(n, field, (zero,) * (n * n), twist)
    yield "scrambled", AlgebraMap(
        n, field, tuple(random_matrix(field, n, n, rng) for _ in range(n * n)), twist
    )
    if n > 1:
        swapped = (auto.images[-1],) + auto.images[1:-1] + (auto.images[0],)
        yield "first and last unit images swapped", AlgebraMap(n, field, swapped, twist)
    if n >= 3:
        # near misses: one image off by c*I, at a unit outside the generating
        # set {E(i,i+1), E(i+1,i)} that classify_map takes x from
        shift = Matrix.identity(field, n).scale(c)
        for label, sigma, k in (
            ("conjugation + c*tr, E(1,n) image moved", plus_trace(auto, c), n - 1),
            ("negated transpose-conjugation, E(n,n) image moved", neg_anti, n * n - 1),
            # E(1,n) and E(n,1) are brackets of shift units in one direction
            # only, so these two tell both directions of the set apart
            ("negated transpose-conjugation + c*tr, E(n,1) image moved",
             plus_trace(neg_anti, c), (n - 1) * n),
        ):
            images = list(sigma.images)
            images[k] = images[k] + shift
            yield label, AlgebraMap(n, field, tuple(images), twist)


TWO_FORM_LABELS = {
    "conjugation",
    "negated transpose-conjugation",
    "conjugation + c*tr",
    "negated transpose-conjugation + c*tr",
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("field", [Q, GF2, GF3, GF5, GF7, GF9], ids=repr)
def test_decompose_and_classify_match_unit_pair_reference(field, n):
    rng = rng_for("classify-reference", repr(field), n)
    cases = list(classification_cases(field, n, rng))
    if field is GF9:
        twisted = classification_cases(field, n, rng, FieldAutomorphism.frobenius(1))
        cases += [(f"frobenius-twisted {label}", m) for label, m in twisted]
    decomposable = not field.characteristic or n % field.characteristic
    kinds = set()
    for label, m in cases:
        expected = reference_classify(m)
        assert classify_map(m) == expected, label
        kinds.add(expected)
        if not decomposable:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                dec = decompose_lie_automorphism(m)
            except NotDecomposable:
                dec = None
        bijective = not field.is_zero(m.image(1, 1).trace_raw())
        if label.removeprefix("frobenius-twisted ") in TWO_FORM_LABELS and bijective:
            assert dec is not None, label
        if dec is not None:
            # a verified branch must be a bracket-preserving bijection
            assert expected is not None, label
            psi = plus_trace(dec.sigma_map(), dec.tau_coefficient.value)
            assert psi.images == m.images, label
    # n = 1: every map is both, and automorphism takes precedence
    assert {"automorphism", "anti-automorphism" if n > 1 else "automorphism", None} <= kinds
    if field.characteristic != 2:
        assert "lie-automorphism" in kinds


@pytest.mark.parametrize("field", [Q, GF7, GF9], ids=repr)
def test_decompose_rejects_maps_that_kill_the_identity(field):
    n = 2 if field is GF9 else 3
    b = random_invertible(field, n, rng_for("decompose-singular", repr(field)))
    branches = [
        (field.one, conjugation_map(b)),
        (field.neg(field.one), negated(transpose_conjugation_map(b))),
    ]
    for eps, sigma in branches:
        psi = plus_trace(sigma, singular_coefficient(field, n, eps))
        assert psi.apply(Matrix.identity(field, n)).is_zero()
        with pytest.raises(NotDecomposable):
            decompose_lie_automorphism(psi)


def test_decompose_twisted_maps_with_trace_part():
    frob = FieldAutomorphism.frobenius(1)
    # n = 4: for n = 2, -X^T = J X J^(-1) - tr(X)*I, so both branches fit
    b = random_invertible(GF9, 4, rng_for("decompose-twisted-trace"))
    c = GF9.coerce((1, 1))
    for sigma, kind in (
        (conjugation_map(b, frob), "automorphism"),
        (negated(transpose_conjugation_map(b, frob)), "negative-anti-automorphism"),
    ):
        psi = plus_trace(sigma, c)
        with pytest.warns(UserWarning, match="inherits the map's twist"):
            dec = decompose_lie_automorphism(psi)
        assert dec.sigma_kind == kind and dec.tau_coefficient == GF9.scalar(c)
        assert dec.residual_zero and dec.twist == frob
        assert dec.sigma_map().images == sigma.images
        assert residual_trace_form_check(psi, dec.sigma_map())


def test_decompose_never_classifies(monkeypatch):
    def refuse(m):
        raise AssertionError("decompose called classify_map")

    monkeypatch.setattr(recovery, "classify_map", refuse)
    b = random_invertible(Q, 4, rng_for("decompose-no-classify"))
    for sigma in (conjugation_map(b), negated(transpose_conjugation_map(b))):
        dec = decompose_lie_automorphism(plus_trace(sigma, Q.coerce("3/2")))
        assert dec.residual_zero and dec.sigma_map().images == sigma.images


def _counting_products(monkeypatch):
    """A list that grows by one per ``Matrix.__mul__`` call from now on."""
    calls = []
    original = Matrix.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    return calls


def test_recover_automorphism_product_count(monkeypatch):
    # the conjugator, its generator check and, once that passes, its
    # inverse all come from matrix-vector products of the two Krylov
    # sequences: no full product is left
    gf81 = ExtensionField(3, 4)
    m = conjugation_map(random_invertible(gf81, 16, rng_for("mul-count")))
    calls = _counting_products(monkeypatch)
    assert recover_automorphism(m).verified
    assert len(calls) == 0


def test_classify_map_at_scale_forms_no_product(monkeypatch):
    # n = 16 is out of reach of the O(n^7) oracle: both ring kinds come
    # from a verified recovery, which forms no matrix product
    frob = FieldAutomorphism.frobenius(1)
    cases = [(field, None) for field in (Q, GF5, GF_LARGE, GF4, GF81)] + [(GF81, frob)]
    maps = []
    for field, twist in cases:
        rng = rng_for("classify-at-scale", repr(field), twist is not None)
        b = random_invertible(field, 16, rng)
        maps.append((conjugation_map(b, twist), "automorphism"))
        maps.append((transpose_conjugation_map(b, twist), "anti-automorphism"))
    calls = _counting_products(monkeypatch)
    for m, kind in maps:
        assert classify_map(m) == kind, (m, kind)
    assert len(calls) == 0


def test_classify_map_checks_brackets_on_a_generating_set(monkeypatch):
    n = 5
    b = random_invertible(Q, n, rng_for("classify-lie-products"))
    m = plus_trace(conjugation_map(b), Q.coerce("2/3"))
    calls = _counting_products(monkeypatch)
    assert classify_map(m) == "lie-automorphism"
    # two products per pair (x, y), x in the 2n - 2 generators of sl_n, y a
    # unit
    assert len(calls) <= 2 * (2 * n - 2) * n * n


@pytest.mark.parametrize("field", [Q, GF_LARGE, GF81], ids=repr)
def test_verified_recovery_does_no_elimination(monkeypatch, field):
    # a verified map takes A^(-1) from the left Krylov sequence, so neither
    # recover nor decompose runs an inverse or a row reduction
    b = random_invertible(field, 5, rng_for("no-elimination", repr(field)))
    twist = FieldAutomorphism.frobenius(1) if isinstance(field, ExtensionField) else None
    maps = [
        (conjugation_map(b, twist), False),
        (transpose_conjugation_map(b, twist), True),
    ]
    # eps + n*c is 11 and 4, nonzero in every characteristic here
    psis = [
        plus_trace(conjugation_map(b, twist), field.from_int(2)),
        plus_trace(negated(transpose_conjugation_map(b, twist)), field.one),
    ]

    def refuse(*args):
        raise AssertionError("a verified recovery eliminated")

    monkeypatch.setattr(Matrix, "inverse", refuse)
    monkeypatch.setattr(matrices, "_rref_in_place", refuse)
    for m, anti in maps:
        assert recover(m, anti).verified
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the twist note
        for psi, kind in zip(psis, ("automorphism", "negative-anti-automorphism")):
            assert decompose_lie_automorphism(psi).sigma_kind == kind


def _generator_images(b):
    """(b S b^(-1), b E(n,1) b^(-1)) by two products: the pair ``recover``
    builds from the table of conjugation by b, and from the table of
    transpose-conjugation alike, without forming either n^4-entry table."""
    n, b_inv = b.nrows, b.inverse()
    return b * upper_shift(b.field, n) * b_inv, b * matrix_unit(b.field, n, n, 1) * b_inv


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("field", [Q, GF5, GF_LARGE, GF4, GF81], ids=repr)
def test_left_krylov_inverse_is_the_inverse_at_scale(field, n):
    rng = rng_for("left-krylov", repr(field), n)
    for b in (random_invertible(field, n, rng), repeating_invertible(field, n, rng)):
        result, inverse = conjugator_from_images(*_generator_images(b), n, return_inverse=True)
        assert result.verified
        assert _exact(inverse) == _exact(result.conjugator.inverse())


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("field", [Q, GF5, GF_LARGE, GF4, GF81], ids=repr)
def test_unit_tables_match_the_dense_reference(field, n):
    rng = rng_for("unit-table-oracle", repr(field), n)
    twist = FieldAutomorphism.frobenius(1) if isinstance(field, ExtensionField) else None
    for b in (random_invertible(field, n, rng), repeating_invertible(field, n, rng)):
        for anti, make in ((False, conjugation_map), (True, transpose_conjugation_map)):
            expected = reference_conjugation_map(b, anti, twist)
            assert make(b, twist) == expected
            dec = LieDecomposition(
                sigma_kind="negative-anti-automorphism" if anti else "automorphism",
                sigma_conjugator=b,
                tau_coefficient=Scalar(field, field.zero),
                residual_zero=True,
                n=n,
                field=field,
                twist=expected.twist,
            )
            assert dec.sigma_map() == (negated(expected) if anti else expected)
    # phi(S) in one pass against the sum of the unit images, on a random table
    table = AlgebraMap(n, field, tuple(random_matrix(field, n, n, rng) for _ in range(n * n)))
    for anti in (False, True):
        assert recovery._extract_shift_image(table, anti) == generator_pair(table, anti)[0]


def _repeated_row(b, anti):
    """(unit index, row) of the first row of the table of b, in table
    order, that repeats an earlier row with a nonzero scalar and lies in no
    generator image.  Row r of b E(i,j) b^(-1) is b[r][i] times row j of
    b^(-1), so (j, b[r][i]) names it; any scalar multiple of b keys its
    table alike."""
    n = b.nrows
    generators = {(1, n)} | {(i + 1, i) for i in range(1, n)} if anti else (
        {(n, 1)} | {(i, i + 1) for i in range(1, n)}
    )
    seen = set()
    for index, (i, j) in enumerate((i, j) for i in range(1, n + 1) for j in range(1, n + 1)):
        col, rw = (j, i) if anti else (i, j)
        for r in range(n):
            key = (rw, b.entries[r][col - 1])
            if key in seen and (i, j) not in generators and not b.field.is_zero(key[1]):
                return index, r
            seen.add(key)
    raise AssertionError("the table has no repeated row outside the generator images")


def _perturbed(m, index, r):
    """m with 1 added to entry (r, 0) of unit image ``index``."""
    F = m.field
    rows = [list(row) for row in m.images[index].entries]
    rows[r][0] = F.add(rows[r][0], F.one)
    images = list(m.images)
    images[index] = Matrix(F, rows)
    return AlgebraMap(m.n, F, tuple(images), m.twist)


_UNIT_CHECK_FAILS = "^conjugation does not reproduce all unit images$"


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("field", [Q, GF5, GF_LARGE, GF81], ids=repr)
def test_unit_check_rejects_a_change_in_a_repeated_row(field, n):
    # the first row with each key is certified by is_scaled and the repeats
    # by equality with it: a change in a repeat must fail all the same
    b = repeating_invertible(field, n, rng_for("repeated-row", repr(field), n))
    for anti, make, error in (
        (False, conjugation_map, NotAnAutomorphism),
        (True, transpose_conjugation_map, NotAnAntiAutomorphism),
    ):
        m = make(b)
        assert recover(m, anti).verified
        bad = _perturbed(m, *_repeated_row(b, anti))
        with pytest.raises(error, match=_UNIT_CHECK_FAILS):
            recover(bad, anti)


@pytest.mark.parametrize("field", [GF4, GF81], ids=repr)
def test_unit_check_on_twisted_maps_rejects_a_change_in_a_repeated_row(field):
    b = repeating_invertible(field, 4, rng_for("repeated-row-twisted", repr(field)))
    frob = FieldAutomorphism.frobenius(1)
    for anti, make, recover_twisted, error in (
        (False, conjugation_map, recover_twisted_automorphism, NotATwistedAutomorphism),
        (True, transpose_conjugation_map, recover_twisted_antiautomorphism, NotATwistedAntiAutomorphism),
    ):
        m = make(b, frob)
        assert recover_twisted(m).verified
        with pytest.raises(error, match=_UNIT_CHECK_FAILS):
            recover_twisted(_perturbed(m, *_repeated_row(b, anti)))


def test_unit_check_with_all_distinct_entries():
    # every row is the first with its key, so each one meets is_scaled
    b = random_invertible(GF_LARGE, 4, rng_for("distinct-entries"))
    assert len({x for row in b.entries for x in row}) == 16
    n = b.nrows
    for anti, make, error in (
        (False, conjugation_map, NotAnAutomorphism),
        (True, transpose_conjugation_map, NotAnAntiAutomorphism),
    ):
        m = make(b)
        assert recover(m, anti).verified
        for i, j, r in ((1, 1, 0), (n, n, n - 1), (2, 4, 1)):  # no generator images
            with pytest.raises(error, match=_UNIT_CHECK_FAILS):
                recover(_perturbed(m, (i - 1) * n + j - 1, r), anti)


@pytest.mark.parametrize("field", [Q, GF5, GF_LARGE, GF81], ids=repr)
def test_unit_check_for_n_equal_to_one(field):
    # the one unit image is the generator image, so a change fails the build
    b = Matrix(field, [[field.from_int(2)]])
    for anti, make, error in (
        (False, conjugation_map, NotAnAutomorphism),
        (True, transpose_conjugation_map, NotAnAntiAutomorphism),
    ):
        m = make(b)
        assert m.images == (Matrix.identity(field, 1),)
        assert recover(m, anti).verified
        with pytest.raises(error):
            recover(_perturbed(m, 0, 0), anti)


def test_unit_check_compares_values_not_spellings():
    # a repeated row spelled "2/4" where its first occurrence reads "1/2"
    # parses to the same values and still verifies
    n = 4
    rng = rng_for("respelled-rows")
    for anti, make in ((False, conjugation_map), (True, transpose_conjugation_map)):
        while True:
            b = repeating_invertible(Q, n, rng)
            index, r = _repeated_row(b, anti)
            row = make(b).images[index].entries[r]
            if any(x.denominator > 1 for x in row):
                break
        doc = jsonio.algebra_map_to_json(make(b))
        unit = f"{index // n + 1},{index % n + 1}"
        entries = doc["images"][unit]["entries"]
        entries[r] = [f"{2 * x.numerator}/{2 * x.denominator}" for x in row]
        assert any(t != str(x) for t, x in zip(entries[r], row))
        m = jsonio.algebra_map_from_json(doc)
        assert recover(m, anti).verified


def test_unit_table_work_is_per_distinct_row(monkeypatch):
    # the n^4-entry table has at most n*d distinct rows, d the number of
    # distinct entries of the conjugator: conjugation_map scales each once,
    # and the unit check certifies each once by is_scaled.  The conjugator
    # build adds n is_scaled calls (the rank-1 check of phi(E(n,1))), and
    # n + 1 scalings besides the one inside each generic is_scaled.
    n = 16
    b = random_invertible(GF5, n, rng_for("work-count"))
    d = len({x for row in b.entries for x in row})
    assert d <= 5
    calls = {"is_scaled": 0, "vec_scale": 0}

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cls, name, wrapper)

    counting(Field, "is_scaled")
    counting(PrimeField, "vec_scale")
    m = conjugation_map(b)
    assert calls == {"is_scaled": 0, "vec_scale": n * d}
    calls.update(is_scaled=0, vec_scale=0)
    assert recover_automorphism(m).verified
    assert calls["is_scaled"] <= n * d + n
    assert calls["vec_scale"] <= calls["is_scaled"] + n + 1
