"""Subspace lattice: canonical spans, membership, sum/intersection, preimage."""

import itertools

import pytest

from liemat import (
    ExtensionField,
    Matrix,
    Subspace,
    bracket,
    centralizer_chain,
    kernel,
    matrix_unit,
    preimage,
    upper_shift,
)
from liemat.errors import MixedShapes
from liemat.matrices import SpanBuilder

from support import (
    GF2,
    GF4,
    GF5,
    GF81,
    GF_LARGE,
    Q,
    mat,
    random_matrix,
    reference_kernel_from_rref,
    reference_rref,
    rng_for,
)

FIVE_FIELDS = [Q, GF5, GF_LARGE, GF4, GF81]
SEVEN_FIELDS = FIVE_FIELDS + [GF2, ExtensionField(2, 17)]


def E(n, i, j, field=Q):
    return matrix_unit(field, n, i, j)


def diag_space():
    return Subspace.span([E(2, 1, 1), E(2, 2, 2)])


def test_span_examples():
    empty = Subspace.span([], field=Q, shape=(2, 2))
    assert empty.dim == 0 and empty == Subspace.zero(Q, (2, 2))
    dependent = Subspace.span([E(2, 1, 2), E(2, 1, 2).scale(2)])
    assert dependent.dim == 1
    assert diag_space().dim == 2
    assert diag_space().contains(mat(Q, [[3, 0], [0, -7]]))
    assert not diag_space().contains(E(2, 1, 2))


def test_span_needs_ambient_when_empty():
    with pytest.raises(MixedShapes):
        Subspace.span([])


def test_span_rejects_mixed_shapes():
    with pytest.raises(MixedShapes):
        Subspace.span([E(2, 1, 1), E(3, 1, 1)])
    with pytest.raises(MixedShapes):
        Subspace.span([E(2, 1, 1)], field=GF5, shape=(2, 2))
    with pytest.raises(MixedShapes):
        Subspace.span([E(2, 1, 1)], field=Q, shape=(3, 3))


def test_canonicality_under_permutation_and_rescaling():
    rng = rng_for("canonical")
    gens = [random_matrix(Q, 2, 3, rng) for _ in range(4)]
    reference = Subspace.span(gens)
    for perm in itertools.permutations(range(4)):
        assert Subspace.span([gens[i] for i in perm]) == reference
    scaled = [g.scale("3/2") for g in gens]
    assert Subspace.span(scaled) == reference


def test_contains_every_generator():
    rng = rng_for("contains")
    gens = [random_matrix(GF5, 3, 3, rng) for _ in range(5)]
    space = Subspace.span(gens)
    assert all(space.contains(g) for g in gens)


def test_lattice_examples():
    diag = diag_space()
    assert diag.intersect(diag) == diag
    swap_plus_identity = Subspace.span(
        [mat(Q, [[0, 1], [1, 0]]), Matrix.identity(Q, 2)]
    )
    # diagonals meet span{swap, I} exactly in the scalars
    inter = diag.intersect(swap_plus_identity)
    assert inter == Subspace.span([Matrix.identity(Q, 2)])
    assert Subspace.span([E(2, 1, 1)]).sum(Subspace.span([E(2, 2, 2)])) == diag


def test_dimension_formula_on_random_pairs():
    for field in FIVE_FIELDS:
        rng = rng_for("dim-formula", repr(field))
        for n, trials in ((2, 25), (3, 10)):
            for _ in range(trials):
                s, t = (
                    Subspace.span(
                        [random_matrix(field, n, n, rng) for _ in range(rng.randint(1, n * n - 1))]
                    )
                    for _ in range(2)
                )
                assert s.dim + t.dim == s.sum(t).dim + s.intersect(t).dim


def _random_subspaces(field, shape, rng):
    """The zero and full subspaces, and seeded spans of every size, some
    from rank-deficient generators."""
    r, c = shape
    spaces = [Subspace.zero(field, shape), Subspace.full(field, shape)]
    for k in range(1, r * c + 1):
        gens = [random_matrix(field, r, c, rng) for _ in range(k)]
        if k > 2:
            gens[-1] = gens[0] + gens[1]
        spaces.append(Subspace.span(gens))
    return spaces


@pytest.mark.parametrize("field", FIVE_FIELDS, ids=repr)
def test_annihilator_laws(field):
    rng = rng_for("annihilator", repr(field))
    shapes = [(n, n) for n in range(1, 4)] + [(2, 3)] + [(n, 1) for n in range(1, 5)]
    for shape in shapes:
        assert Subspace.zero(field, shape).annihilator() == Subspace.full(field, shape)
        assert Subspace.full(field, shape).annihilator() == Subspace.zero(field, shape)
        for space in _random_subspaces(field, shape, rng):
            dual = space.annihilator()
            assert dual.shape == shape and dual.field == field
            assert space.dim + dual.dim == space.ambient_dim
            for v in space.rows:
                for f in dual.rows:
                    acc = field.zero
                    for a, b in zip(v, f):
                        acc = field.add(acc, field.mul(a, b))
                    assert field.is_zero(acc)
            assert dual.annihilator() == space


@pytest.mark.parametrize("field", FIVE_FIELDS, ids=repr)
def test_annihilator_builder_is_kept(field, monkeypatch):
    """A level keeps the builder of its annihilator (the constraints that
    cut it out), and the annihilator keeps the level's builder, so neither
    is eliminated for again.  The kept builder spans what a fresh subspace
    of the level's rows computes."""
    rng = rng_for("annihilator-cache", repr(field))
    n = 3
    levels = centralizer_chain([upper_shift(field, n), matrix_unit(field, n, 1, n)]).levels
    spaces = list(levels) + _random_subspaces(field, (n, n), rng)[:6]
    fresh = [Subspace(field, (n, n), space.rows) for space in spaces]
    duals = [space.annihilator() for space in fresh]

    def refuse(*args):
        raise AssertionError("the annihilator was computed again")

    monkeypatch.setattr(SpanBuilder, "annihilator", refuse)
    for space, dual in zip(fresh, duals):
        assert space.annihilator() == dual
        assert space.annihilator().annihilator() == space
    for level, dual in zip(levels, duals):
        assert level.annihilator() == dual
        assert level.annihilator().annihilator() == level


@pytest.mark.parametrize("field", FIVE_FIELDS, ids=repr)
def test_intersect_matches_preimage_under_inclusion(field):
    """U ∩ W is the preimage of W under the inclusion of U, an elimination
    of its own (``preimage``'s stacked kernel)."""
    rng = rng_for("intersect-oracle", repr(field))
    for n in range(1, 5):
        for _ in range(6):
            s, t = (
                Subspace.span(
                    [random_matrix(field, n, n, rng) for _ in range(rng.randint(0, n * n))],
                    field=field,
                    shape=(n, n),
                )
                for _ in range(2)
            )
            assert s.intersect(t).rows == preimage(s.basis, s.basis, t).rows
            assert (s & t) == t.intersect(s)
    with pytest.raises(MixedShapes):
        Subspace.zero(field, (2, 2)).intersect(Subspace.zero(field, (2, 3)))


def test_sum_and_intersection_bounds():
    rng = rng_for("lattice-bounds")
    s = Subspace.span([random_matrix(GF5, 2, 2, rng) for _ in range(2)])
    t = Subspace.span([random_matrix(GF5, 2, 2, rng) for _ in range(2)])
    union = s.sum(t)
    meet = s.intersect(t)
    assert union.contains_subspace(s) and union.contains_subspace(t)
    assert s.contains_subspace(meet) and t.contains_subspace(meet)


def test_kernel_is_canonical_subspace():
    k = kernel(mat(Q, [[1, 2], [2, 4]]))
    assert k.shape == (2, 1) and k.dim == 1
    assert k.contains(mat(Q, [[-2], [1]]))


def test_preimage_examples():
    units = [E(2, i, j) for i in (1, 2) for j in (1, 2)]
    full = Subspace.full(Q, (2, 2))
    zero = Subspace.zero(Q, (2, 2))
    e11 = E(2, 1, 1)
    ad_images = [bracket(u, e11) for u in units]
    # target the full space: no constraint at all
    assert preimage(units, ad_images, full) == full
    # identity map: preimage of T is T itself (domain = full)
    diag = diag_space()
    assert preimage(units, units, diag) == diag
    # ad(E11) into zero: the diagonal matrices
    assert preimage(units, ad_images, zero) == diag


def test_preimage_respects_restricted_domain():
    # domain = span{E12}: [E12, E11] = -E12 is never diagonal except 0
    dom = [E(2, 1, 2)]
    images = [bracket(E(2, 1, 2), E(2, 1, 1))]
    out = preimage(dom, images, Subspace.zero(Q, (2, 2)))
    assert out.dim == 0


def _reference_preimage(domain_basis, images, target):
    """``preimage``'s stacked system, solved by ``reference_rref`` and read
    by ``reference_kernel_from_rref``."""
    field, r = target.field, len(domain_basis)
    img_vecs = [m.vectorize() for m in images]
    rows = [
        [v[k] for v in img_vecs] + [field.neg(b[k]) for b in target.rows]
        for k in range(target.ambient_dim)
    ]
    pivots = reference_rref(rows, field)
    out = []
    for sol in reference_kernel_from_rref(rows, pivots, r + target.dim, field):
        acc = Matrix.zeros(field, *target.shape)
        for c, b in zip(sol[:r], domain_basis):
            acc = acc + b.scale(c)
        out.append(acc)
    return Subspace.span(out, field=field, shape=target.shape)


@pytest.mark.parametrize("field", SEVEN_FIELDS, ids=repr)
def test_preimage_matches_the_dense_stacked_kernel(field):
    """Seeded maps from a span of random matrices into random targets, the
    zero target included, against the dense reading of the same system."""
    rng = rng_for("preimage-dense", repr(field))
    for n in range(1, 4):
        for _ in range(5):
            domain = Subspace.span(
                [random_matrix(field, n, n, rng) for _ in range(rng.randint(1, n * n))]
            ).basis
            if not domain:  # every draw was zero
                continue
            images = [random_matrix(field, n, n, rng) for _ in domain]
            if rng.random() < 0.5:
                images[-1] = images[0]
            target = Subspace.span(
                [random_matrix(field, n, n, rng) for _ in range(rng.randint(0, n * n - 1))],
                field=field,
                shape=(n, n),
            )
            got = preimage(domain, images, target)
            assert got.rows == _reference_preimage(domain, images, target).rows


def test_subspace_json_identity_independent_of_generator_presentation():
    rng = rng_for("presentation")
    gens = [random_matrix(Q, 2, 2, rng) for _ in range(3)]
    s1 = Subspace.span(gens)
    s2 = Subspace.span(gens + [gens[0] + gens[1]])
    assert s1 == s2 and hash(s1) == hash(s2)
