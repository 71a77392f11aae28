"""Centralizer chains, nilpotency reports, hereditary variants, bounds."""

import itertools
from collections import Counter

import pytest

from liemat import (
    ExtensionField,
    Matrix,
    Subspace,
    balanced_parts,
    bounds_table,
    centralizer_chain,
    centralizer_intersection_check,
    centralizer_product_check,
    centralizer_step,
    conjectured_dim_bound,
    extremal_block_algebra,
    hereditary_centralizer,
    left_normed,
    lie_centralizer,
    matrix_unit,
    nilpotency_report,
    nilpotent_subalgebra_dim_bound,
    permuted_insertion_check,
    preimage,
)
from liemat import centralizers, lie, matrices, subspaces
from liemat.matrices import SpanBuilder
from liemat.errors import (
    EnumerationTooLarge,
    InvalidComposition,
    InvalidIndex,
    MixedShapes,
    PreconditionViolated,
    check_guard,
)
from liemat.experiments import (
    char2_generation_dims,
    closure_index_observations,
    conjecture_evidence,
)

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
    reference_ad_kernel,
    reference_next_level,
    rng_for,
)


def E(n, i, j, field=Q):
    return matrix_unit(field, n, i, j)


def diagonals_m2():
    return Subspace.span([E(2, 1, 1), E(2, 2, 2)])


def test_first_centralizer_examples():
    assert lie_centralizer([Matrix.identity(Q, 3)], 1).is_full
    assert lie_centralizer([E(2, 1, 1)], 1) == diagonals_m2()
    assert lie_centralizer([E(2, 1, 1)], 2) == diagonals_m2()


def test_second_centralizer_against_finite_enumeration():
    # oracle over GF(5): enumerate all 625 matrices r and keep those with
    # [[r, E11], E11] = 0; the canonical span must match lie_centralizer
    e11 = E(2, 1, 1, GF5)
    survivors = []
    for a, b, c, d in itertools.product(range(5), repeat=4):
        r = mat(GF5, [[a, b], [c, d]])
        if left_normed([r, e11, e11]).is_zero():
            survivors.append(r)
    assert Subspace.span(survivors) == lie_centralizer([e11], 2)
    assert lie_centralizer([e11], 2).dim == 2


def test_chain_examples():
    chain = centralizer_chain([Matrix.identity(Q, 3)])
    assert chain.stabilization_index == 1 and chain.omega.is_full
    chain = centralizer_chain([E(2, 1, 1)])
    assert chain.stabilization_index == 1
    assert chain.omega == diagonals_m2()
    # strictly upper triangular in M3: identity sits in every level
    upper = [E(3, 1, 2), E(3, 1, 3), E(3, 2, 3)]
    chain = centralizer_chain(upper)
    eye = Matrix.identity(Q, 3)
    assert all(level.contains(eye) for level in chain.levels)


def test_chain_monotone_and_capped():
    rng = rng_for("chain-monotone")
    for _ in range(10):
        n = rng.randint(2, 3)
        mats = [random_matrix(GF5, n, n, rng) for _ in range(rng.randint(1, 3))]
        chain = centralizer_chain(mats)
        assert chain.stabilization_index <= n * n
        for lower, higher in zip(chain.levels, chain.levels[1:]):
            assert higher.contains_subspace(lower)
        assert chain.levels[chain.stabilization_index - 1] == chain.omega
        # one extra explicit iteration stays put
        assert centralizer_step(mats, chain.omega) == chain.omega


def test_chain_accepts_subspace_quantifier():
    space = Subspace.span([E(2, 1, 1), E(2, 1, 2)])
    chain = centralizer_chain(space)
    finite = centralizer_chain([E(2, 1, 1), E(2, 1, 2)])
    assert chain.omega == finite.omega
    assert lie_centralizer(space, 2) == lie_centralizer(
        [E(2, 1, 1), E(2, 1, 2)], 2
    )
    # multilinearity: quantifying over any spanning set gives one answer
    other = Subspace.span([E(2, 1, 1) + E(2, 1, 2), E(2, 1, 2).scale(3)])
    assert lie_centralizer(other, 2) == lie_centralizer(space, 2)


def test_zero_subspace_is_vacuous():
    # no member to bracket with: every level is the whole ambient space
    zero = Subspace.zero(GF5, (3, 3))
    chain = centralizer_chain(zero)
    assert [lvl.dim for lvl in chain.levels] == [9, 9]
    assert chain.stabilization_index == 1 and chain.omega.is_full
    assert lie_centralizer(zero, 4).is_full
    report = nilpotency_report(zero)
    assert report.is_lie_nilpotent and report.index == 1 and report.dim == 0
    with pytest.raises(MixedShapes):
        centralizer_chain([])
    with pytest.raises(MixedShapes):
        centralizer_chain(Subspace.zero(Q, (2, 3)))


def test_chain_over_extension_field():
    from support import GF4

    x = GF4.scalar([0, 1])
    h = mat(GF4, [[x, GF4.scalar(1)], [GF4.scalar(0), x * x]])
    chain = centralizer_chain([h])
    assert chain.levels[0].contains(Matrix.identity(GF4, 2))
    assert chain.stabilization_index <= 4
    for lower, higher in zip(chain.levels, chain.levels[1:]):
        assert higher.contains_subspace(lower)
    assert centralizer_product_check([h], 1, 2)


def test_chain_user_cap_too_small():
    with pytest.raises(ValueError):
        centralizer_chain([E(2, 1, 2), E(2, 2, 1)], max_k=0)


def test_index_errors_are_typed():
    h = [E(2, 1, 2), E(2, 2, 1)]
    for call in (
        lambda: lie_centralizer(h, 0),
        lambda: centralizer_chain(h).level(0),
        lambda: hereditary_centralizer(h, 0, "D"),
        lambda: centralizer_product_check(h, 0, 1),
        lambda: centralizer_product_check(h, 1, -1),
        lambda: centralizer_chain(h, max_k=0),
        lambda: centralizer_chain(h, max_k=-2),
    ):
        with pytest.raises(InvalidIndex):
            call()
    # the levels of {E12} have dimensions 2, 3, 4, 4: a cap of two levels
    # cannot see the repeat
    assert [lvl.dim for lvl in centralizer_chain([E(2, 1, 2)]).levels] == [2, 3, 4, 4]
    with pytest.raises(InvalidIndex, match="no stabilization"):
        centralizer_chain([E(2, 1, 2)], max_k=2)
    assert issubclass(InvalidIndex, ValueError)


# -- the stacked kernel against the fold of per-member preimages -------------

GF2_17 = ExtensionField(2, 17)  # above the table limit: polynomial arithmetic
ORACLE_FIELDS = [Q, GF2, GF5, GF9, GF_LARGE, GF81, GF2_17]


def _reference_chain(H):
    """Levels up to and including the first repeat, level by level."""
    members = H.basis if isinstance(H, Subspace) else list(H)
    levels = [reference_next_level(members)]
    while len(levels) < 2 or levels[-1] != levels[-2]:
        levels.append(reference_next_level(members, levels[-1]))
    return levels


def _oracle_subjects(field):
    """Named quantifier sets H, each a list of matrices or a Subspace."""
    def e(n, i, j):
        return matrix_unit(field, n, i, j)

    eye = Matrix.identity(field, 3)
    two = field.add(field.one, field.one)
    subjects = {
        "E11,E12 n=3": [e(3, 1, 1), e(3, 1, 2)],
        "zero,identity,duplicates n=3": [
            Matrix.zeros(field, 3), Matrix.identity(field, 3), e(3, 1, 2), e(3, 1, 2), e(3, 2, 3)
        ],
        "strictly upper n=3": [e(3, 1, 2), e(3, 1, 3), e(3, 2, 3)],
        "E12,E21 n=2": [e(2, 1, 2), e(2, 2, 1)],
        "only zero n=2": [Matrix.zeros(field, 2)],
        "subspace n=3": Subspace.span([e(3, 1, 1) + e(3, 1, 2), e(3, 2, 3), e(3, 3, 3)]),
        "block algebra (2,2) n=4": extremal_block_algebra(4, [2, 2], field),
        "only scalars n=3": [eye, Matrix.zeros(field, 3), eye.scale(two), eye],
        "subspace with identity n=3": Subspace.span([eye, e(3, 1, 2) + e(3, 2, 2), e(3, 2, 3)]),
        # sums of units: the constraint rows, and so the seeds of every
        # level above L_1, have several entries
        "sums of units n=3": [e(3, 1, 2) + e(3, 2, 3), e(3, 1, 3) + e(3, 3, 1) + e(3, 2, 2)],
        "sums of units n=4": [e(4, 1, 2) + e(4, 3, 4), e(4, 1, 3) + e(4, 2, 4), e(4, 4, 1) + e(4, 2, 2)],
        "upper sums n=4": [e(4, 1, 2) + e(4, 2, 3), e(4, 2, 3) + e(4, 3, 4), e(4, 1, 4)],
        # n entries, none on the diagonal: not a scalar
        "E12+E21 n=2": [e(2, 1, 2) + e(2, 2, 1)],
        "cyclic permutation n=3": [e(3, 1, 2) + e(3, 2, 3) + e(3, 3, 1)],
    }
    if two not in (field.zero, field.one):  # c·I with c outside {0, 1}
        subjects["2I,E12,E23 n=3"] = [eye.scale(two), e(3, 1, 2), e(3, 2, 3)]
    rng = rng_for("oracle-levels", repr(field))
    for n in range(1, 5):
        for trial in range(2):
            subjects[f"random n={n} #{trial}"] = [
                random_matrix(field, n, n, rng) for _ in range(rng.randint(1, 3))
            ]
    return subjects


ORACLE_CASES = [
    (field, name) for field in ORACLE_FIELDS for name in _oracle_subjects(field)
]


@pytest.mark.parametrize(
    "field,name", ORACLE_CASES, ids=[f"{f!r}-{name}" for f, name in ORACLE_CASES]
)
def test_levels_match_reference_fold(field, name):
    H = _oracle_subjects(field)[name]
    chain = centralizer_chain(H)
    assert [lvl.rows for lvl in chain.levels] == [lvl.rows for lvl in _reference_chain(H)]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_centralizer_step_matches_reference_on_arbitrary_targets(field):
    rng = rng_for("oracle-step", repr(field))
    for n in range(1, 5):
        subjects = []
        if n > 1:
            # sums of units occupy a few rows and columns, so each chain is
            # seeded with part of the target's constraint rows, which have
            # many entries when the target is spanned by dense matrices
            subjects.append([matrix_unit(field, n, 1, 2) + matrix_unit(field, n, 2, n), matrix_unit(field, n, n, 1)])
        for _ in range(3):
            members = [random_matrix(field, n, n, rng) for _ in range(rng.randint(1, 3))]
            gens = [random_matrix(field, n, n, rng) for _ in range(rng.randint(0, n * n))]
            target = Subspace.span(gens, field=field, shape=(n, n))
            for H in [members] + subjects:
                expected = reference_next_level(H, target)
                assert centralizer_step(H, target).rows == expected.rows
    with pytest.raises(MixedShapes):
        centralizer_step([Matrix.identity(field, 2)], Subspace.zero(field, (3, 3)))


def _annihilator_by_inserts(builder):
    """The annihilator as ``insert`` builds it from the kernel vectors."""
    perp = SpanBuilder(builder.field, builder.length)
    for _, v in builder.kernel():
        perp.insert(v)
    return perp


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_unit_row_annihilator_equals_the_insert_path(field, monkeypatch):
    """A builder whose rows each have a single entry (none, for the zero
    span) takes its annihilator's unit rows without an ``insert``, and gets
    the rows, their values and their order that the inserts give.  So the
    zero span's annihilator, which seeds every level L_1, costs O(n^2), not
    the O(n^4) of n^2 inserts."""
    rng = rng_for("unit-row-annihilator", repr(field))
    builders = []
    for length in (0, 1, 4, 9):
        builders.append(SpanBuilder(field, length))
        for _ in range(3):
            builder = SpanBuilder(field, length)
            for j in rng.sample(range(length), rng.randint(1, length) if length else 0):
                c = field.zero
                while field.is_zero(c):
                    c = field.random_scalar(rng)
                builder.insert([c if i == j else field.zero for i in range(length)])
            builders.append(builder)
    expected = [_annihilator_by_inserts(builder) for builder in builders]
    inserts = []
    insert = SpanBuilder.insert

    def counted(self, vec):
        inserts.append(vec)
        return insert(self, vec)

    monkeypatch.setattr(SpanBuilder, "insert", counted)
    for builder, by_inserts in zip(builders, expected):
        assert all(len(row) == 1 for row in builder.rows)
        perp = builder.annihilator()
        assert type(perp) is type(by_inserts) and perp.length == by_inserts.length
        assert list(perp.by_pivot.items()) == list(by_inserts.by_pivot.items())
    assert Subspace.zero(field, (5, 5)).annihilator() == Subspace.full(field, (5, 5))
    assert not inserts


FIVE_FIELDS = [Q, GF5, GF_LARGE, GF4, GF81]


def _nonzero(field, rng):
    c = field.zero
    while field.is_zero(c):
        c = field.random_scalar(rng)
    return c


@pytest.mark.parametrize("field", FIVE_FIELDS, ids=repr)
def test_mixed_row_annihilator_inserts_only_the_multi_entry_kernel_vectors(field, monkeypatch):
    """Builders whose rows mix one entry and several, sparse and dense.  A
    kernel vector with one entry is the unit e_f of a free column f that no
    row touches, so no other kernel vector has an entry at f: it is taken
    as a row as it is, and only the others reach ``insert``.  The rows,
    their values and their order are those that inserting every kernel
    vector gives, and (V^⊥)^⊥ = V."""
    rng = rng_for("mixed-row-annihilator", repr(field))
    builders = []
    for length in (0, 1, 4, 9):
        builders.append(SpanBuilder(field, length))
        for _ in range(8):
            # unit rows on some columns, two-entry and dense rows among some
            # others, and the rest untouched: free columns of both kinds
            columns = rng.sample(range(length), length)
            units = columns[: rng.randint(length > 3, length // 3)]
            block = columns[len(units) : rng.randint(len(units), max(length - 1, len(units)))]
            supports = [[j] for j in units]
            for _ in range(rng.randint(len(block) > 1, max(len(block) - 1, 0))):
                supports.append(rng.sample(block, rng.choice([2, len(block)])))
            builder = SpanBuilder(field, length)
            for support in rng.sample(supports, len(supports)):
                builder.insert([_nonzero(field, rng) if i in support else field.zero for i in range(length)])
            builders.append(builder)
    expected = [_annihilator_by_inserts(builder) for builder in builders]
    kernels = [list(builder.kernel()) for builder in builders]
    assert any(
        {len(v) == 1 for _, v in kernel} == {True, False} and {len(row) == 1 for row in builder.rows} == {True, False}
        for builder, kernel in zip(builders, kernels)
    )
    inserts = []
    insert = SpanBuilder.insert

    def counted(self, vec):
        inserts.append(vec)
        return insert(self, vec)

    for builder, by_inserts, kernel in zip(builders, expected, kernels):
        inserts.clear()
        with monkeypatch.context() as patched:
            patched.setattr(SpanBuilder, "insert", counted)
            perp = builder.annihilator()
        assert inserts == [v for _, v in kernel if len(v) > 1]
        assert type(perp) is type(by_inserts) and perp.length == by_inserts.length
        assert perp.sorted_rows() == by_inserts.sorted_rows()
        assert list(perp.by_pivot.items()) == list(by_inserts.by_pivot.items())
        assert perp.annihilator().sorted_rows() == builder.sorted_rows()


def _count_applications(field, monkeypatch):
    """The vectors that operators are applied to from now on, by
    ``SpanBuilder.apply`` or by ``insert`` and ``contains`` given an
    operator, in order."""
    builder_class = type(SpanBuilder(field, 1))
    apply = builder_class.apply
    applied = []

    def counted_apply(self, op, vec):
        applied.append(vec)
        return apply(self, op, vec)

    monkeypatch.setattr(builder_class, "apply", counted_apply)
    for name in ("insert", "contains"):

        def counted(self, vec, op=None, method=getattr(SpanBuilder, name)):
            if op is not None:
                applied.append(vec)
            return method(self, vec, op)

        monkeypatch.setattr(SpanBuilder, name, counted)
    return applied


@pytest.mark.parametrize("field", [Q, GF5, GF81], ids=repr)
def test_full_target_is_returned_with_no_application(field, monkeypatch):
    """{r : [r, x1, ..., xk] in M_n} = M_n, so a full target comes back as
    it is, with no operator applied, for any chains."""
    rng = rng_for("full-target", repr(field))
    n = 3
    full = Subspace.full(field, (n, n))
    H = [matrix_unit(field, n, 1, 2), matrix_unit(field, n, 2, 3) + matrix_unit(field, n, 3, 1)]
    H.append(random_matrix(field, n, n, rng))
    assert reference_next_level(H, full) == full
    coords = lie._coordinates(field, n, [m.vectorize() for m in H])
    ops = [lie.adjoint_operator(field, n, h) for h in coords]
    applied = _count_applications(field, monkeypatch)
    for chains in ([(op,) for op in ops], [(ops[0], ops[1]), (ops[2], ops[0], ops[1])], []):
        assert lie.ad_kernel(field, n, chains, full) is full
    assert centralizer_step(H, full) is full
    assert not applied


@pytest.mark.parametrize("n,parts,index", [(6, (2, 2, 2), 5), (8, (4, 4), 3)])
def test_block_algebra_chain_ends_at_the_full_space(n, parts, index):
    """A chain that reaches M_n repeats it as the full target, with the
    stabilization index and every level of the level-by-level oracle."""
    space = extremal_block_algebra(n, parts)
    chain = centralizer_chain(space)
    assert chain.levels[-1] == chain.levels[-2] and chain.levels[-1].is_full
    assert chain.stabilization_index == index and len(chain.levels) == index + 1
    members = space.basis
    prev = None
    for level in chain.levels:
        prev = reference_next_level(members, prev)
        assert level.rows == prev.rows


@pytest.mark.parametrize("field", [Q, GF5, GF81], ids=repr)
def test_level_one_applies_operators_only_to_the_units_they_move(field, monkeypatch):
    """L_1 of {E11, E12} at n = 6 seeds each member's operator only with the
    units it moves: E11ᵀ and E12ᵀ = E21 each have one nonzero row and one
    nonzero column, so 2n - 1 units each, not n^2."""
    n = 6
    H = [matrix_unit(field, n, 1, 1), matrix_unit(field, n, 1, 2)]
    expected = reference_next_level(H)
    assert centralizer_chain(H).levels[0].rows == expected.rows
    applied = _count_applications(field, monkeypatch)
    assert lie_centralizer(H, 1).rows == expected.rows
    assert 0 < len(applied) <= 2 * (2 * n - 1)


@pytest.mark.parametrize("field", [Q, GF5, GF81], ids=repr)
def test_pruned_seeds_insert_the_same_images_in_the_same_order(field, monkeypatch):
    """``ad_kernel`` seeds each chain only with the seeds its first operator
    does not send to 0, and stops a chain at an image that is 0.  The
    constraint builder it keeps must hold the rows, values and order that
    seeding every chain with every seed, in the seeds' order, gives."""
    rng = rng_for("pruned-seed-order", repr(field))
    n = 4
    builder_class = type(SpanBuilder(field, 1))
    apply, insert = builder_class.apply, SpanBuilder.insert

    def apply_to_nonzero(self, op, vec):
        assert vec, "an operator applied to an image that is already 0"
        return apply(self, op, vec)

    def insert_nonzero_image(self, vec, op=None):
        assert op is None or vec, "an operator applied to an image that is already 0"
        return insert(self, vec, op)

    def e(i, j):
        return matrix_unit(field, n, i, j)

    members = [e(1, 2) + e(2, 3), e(3, 4), e(4, 1) + e(1, 1), random_matrix(field, n, n, rng)]
    coords = lie._coordinates(field, n, [m.vectorize() for m in members])
    ops = [lie.adjoint_operator(field, n, h) for h in coords]
    chain_sets = ([(op,) for op in ops], [(ops[0], ops[1]), (ops[2],), (ops[1], ops[2], ops[0])])
    targets = [None, Subspace.span([e(1, 2), e(3, 3)])]
    targets += [Subspace.span([random_matrix(field, n, n, rng) for _ in range(d)]) for d in (3, 9)]
    for chains in chain_sets:
        for target in targets:
            seeds = (target or Subspace.zero(field, (n, n)))._perp_span().by_pivot.values()
            every = SpanBuilder(field, n * n)
            for chain in chains:
                for img in seeds:
                    for op in reversed(chain):
                        img = every.apply(op, img)
                    if img:
                        every.insert(img)
            with monkeypatch.context() as patched:
                patched.setattr(builder_class, "apply", apply_to_nonzero)
                patched.setattr(SpanBuilder, "insert", insert_nonzero_image)
                kept = lie.ad_kernel(field, n, chains, target)._perp_span()
            assert list(kept.by_pivot.items()) == list(every.by_pivot.items())


def test_scalar_members_get_no_operator(monkeypatch):
    """[r, c·I] = 0, so no chain entry point builds the operator of a
    scalar member; the oracle tests above show the answers are unchanged.
    A member reaches ``adjoint_operator`` in builder coordinates, which over
    GF(5) are its residues, so it is rebuilt as a matrix to be checked."""
    eye = Matrix.identity(GF5, 3)
    built = []
    adjoint = lie.adjoint_operator

    def recorded(field, n, h):
        built.append(Matrix.from_vector(field, n, n, [h.get(idx, 0) for idx in range(n * n)]))
        return adjoint(field, n, h)

    monkeypatch.setattr(lie, "adjoint_operator", recorded)
    H = [eye, E(3, 1, 2, GF5), eye.scale(2), E(3, 2, 3, GF5), Matrix.zeros(GF5, 3)]
    nilpotency_report(H)
    centralizer_step(H, Subspace.zero(GF5, (3, 3)))
    hereditary_centralizer(H, 2, "D")
    hereditary_centralizer(H, 2, "L")
    centralizer_intersection_check(H)
    assert built and all(matrices.scalar_multiple_of_identity(h) is None for h in built)


@pytest.mark.parametrize("field", [Q, GF_LARGE], ids=repr)
def test_block_algebra_report_does_only_the_work_sparsity_leaves(field, monkeypatch):
    """The report on the (4, 4) block algebra at n = 8, the largest chain
    benchmark subject, counted rather than timed, so it does not depend on
    the machine.  No operator is applied to a seed whose image is 0, each of
    the 17 members is scanned once, and no vector that ``insert`` or
    ``contains`` settles as a contained unit reaches an elimination.  Every
    image goes to ``insert`` with its operator; the hook forms the image on
    the side, with the unhooked ``apply``, to count it as a finished image
    is counted.  The counts repeat exactly and are pinned: 316 of the 389
    inserts are contained units.  16 of the 17 kernel vectors that span L_1
    have one entry and are taken as rows with no ``insert``, and the repeat
    level L_4 = M_n is the full target returned as it is."""
    space = extremal_block_algebra(8, (4, 4), field)
    counts = Counter()
    builder_class = type(SpanBuilder(field, 1))
    apply, eliminate, sparse = builder_class.apply, builder_class._eliminate, matrices._sparse
    insert, contains = SpanBuilder.insert, SpanBuilder.contains

    def contained_unit(builder, vec):
        if not (isinstance(vec, dict) and len(vec) == 1):
            return False
        (column,) = vec
        return column in builder.by_pivot and len(builder.by_pivot[column]) == 1

    def counted_apply(self, op, vec):
        image = apply(self, op, vec)
        counts["apply"] += 1
        counts["empty images"] += not image
        return image

    def counted_eliminate(self, w):
        counts["eliminated"] += 1
        counts["eliminated contained units"] += contained_unit(self, w)
        return eliminate(self, w)

    def image(self, vec, op):
        return vec if op is None else counted_apply(self, op, vec)

    def counted_insert(self, vec, op=None):
        counts["insert contained units"] += contained_unit(self, image(self, vec, op))
        grew = insert(self, vec, op)
        counts["insert"] += 1
        counts["grew"] += grew
        return grew

    def counted_contains(self, vec, op=None):
        counts["contains"] += 1
        counts["contains contained units"] += contained_unit(self, image(self, vec, op))
        return contains(self, vec, op)

    def counted_sparse(field, vec):
        counts["scans"] += 1
        return sparse(field, vec)

    monkeypatch.setattr(builder_class, "apply", counted_apply)
    monkeypatch.setattr(builder_class, "_eliminate", counted_eliminate)
    monkeypatch.setattr(SpanBuilder, "insert", counted_insert)
    monkeypatch.setattr(SpanBuilder, "contains", counted_contains)
    for module in (matrices, subspaces, lie, centralizers):
        if "_sparse" in vars(module):
            monkeypatch.setattr(module, "_sparse", counted_sparse)
    report = nilpotency_report(Subspace(space.field, space.shape, space.rows))
    assert [lvl.dim for lvl in report.chain.levels] == [17, 48, 64, 64] and report.index == 1
    assert counts == {
        "scans": 17,
        "apply": 388,
        "empty images": 0,
        "insert": 389,
        "insert contained units": 316,
        "grew": 64,
        "contains": 34,
        "contains contained units": 32,
        "eliminated": 75,
        "eliminated contained units": 0,
    }


def _reference_hereditary(H, k, prop):
    field, n = H[0].field, H[0].nrows

    def admissible(tup):
        if prop == "D":
            return len(set(tup)) == k
        return Subspace.span(list(tup)).dim == k

    chains = [tup for tup in itertools.product(H, repeat=k) if admissible(tup)]
    return reference_ad_kernel(chains, field, n)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@pytest.mark.parametrize("prop", ["D", "L"])
def test_hereditary_matches_reference(field, prop):
    rng = rng_for("oracle-hereditary", repr(field), prop)
    subjects = [
        [matrix_unit(field, 3, a, a) for a in (1, 2, 3)],
        [matrix_unit(field, 2, 1, 2), matrix_unit(field, 2, 2, 1), matrix_unit(field, 2, 1, 2)],
        # the identity is the sum of the other three: a scalar member that
        # still decides which tuples are independent
        [matrix_unit(field, 3, a, a) for a in (1, 2, 3)] + [Matrix.identity(field, 3)],
        [Matrix.identity(field, 2), matrix_unit(field, 2, 1, 2), matrix_unit(field, 2, 2, 1)],
        # sums of units: the first operator of a 3-chain meets some seeds
        [
            matrix_unit(field, 3, 1, 2) + matrix_unit(field, 3, 2, 3),
            matrix_unit(field, 3, 3, 1),
            matrix_unit(field, 3, 1, 1) + matrix_unit(field, 3, 1, 3),
        ],
    ]
    subjects += [
        [random_matrix(field, n, n, rng) for _ in range(rng.randint(2, 3))] for n in (2, 3)
    ]
    for H in subjects:
        for k in (1, 2, 3):
            expected = _reference_hereditary(H, k, prop)
            assert hereditary_centralizer(H, k, prop).rows == expected.rows
    # no admissible tuple: the quantifier is vacuous
    single = [matrix_unit(field, 2, 1, 1)]
    for k in (2, 3):
        space = hereditary_centralizer(single, k, prop)
        assert space.is_full and space == _reference_hereditary(single, k, prop)


@pytest.mark.parametrize("field", [Q, GF5, GF81], ids=repr)
def test_hereditary_chains_skip_images_the_next_operator_sends_to_zero(field, monkeypatch):
    """The hereditary benchmark subject, D at k = 2 over {E11, E22, E33} at
    n = 6, counted.  Each chain's first operator, r -> [r, E_bb], is
    applied to the 2n - 1 = 11 units of row and column b, and sends only
    E_bb to 0, by cancellation.  The second, r -> [r, E_aa], moves only E_ab
    and E_ba of the other ten images ±E_ik, so only those reach ``insert``
    with it: 78 applications, 6 of them 0, none at the second operator."""
    n = 6
    H = [matrix_unit(field, n, a, a) for a in (1, 2, 3)]
    expected = _reference_hereditary(H, 2, "D")
    builder_class = type(SpanBuilder(field, 1))
    apply, insert = builder_class.apply, SpanBuilder.insert
    counts = Counter()

    def counted_apply(self, op, vec):
        image = apply(self, op, vec)
        counts["apply"] += 1
        counts["empty images"] += not image
        return image

    def counted_insert(self, vec, op=None):
        if op is not None:
            counts["last operator"] += 1
            counts["last operator empty images"] += not counted_apply(self, op, vec)
        return insert(self, vec, op)

    monkeypatch.setattr(builder_class, "apply", counted_apply)
    monkeypatch.setattr(SpanBuilder, "insert", counted_insert)
    assert hereditary_centralizer(H, 2, "D").rows == expected.rows
    assert counts == {
        "apply": 78,
        "empty images": 6,
        "last operator": 12,
        "last operator empty images": 0,
    }


@pytest.mark.parametrize("field", [Q, GF5, GF_LARGE, GF81], ids=repr)
def test_levels_make_no_dense_kernels_or_raw_products(field, monkeypatch):
    """Levels run on the rows of ``SpanBuilder`` from start to finish: with
    the dense RREF ``_rref_in_place`` and the raw-value product ``_apply``
    refused, every chain operation still gives the oracle's answer, and a
    repeated member changes nothing.  ``SpanBuilder.kernel`` is the one
    kernel reader, so no dense kernel is left to refuse.  Over GF(p^m) the
    raw values are the builder's coordinates and ``SpanBuilder.apply`` is
    ``_apply``, so only the dense RREF is refused there."""
    rng = rng_for("no-dense-kernels", repr(field))

    def e(i, j):
        return matrix_unit(field, 3, i, j)

    upper = [e(1, 2), e(2, 3), e(1, 3)]
    block = Subspace.span([e(1, 1) + e(1, 2), e(2, 3), e(3, 3)])
    x, y = (random_matrix(field, 3, 3, rng) for _ in range(2))
    target, s, t = (
        Subspace.span([random_matrix(field, 3, 3, rng) for _ in range(k)]) for k in (4, 4, 5)
    )
    diagonal_and_unit = [e(1, 1), e(2, 2), e(1, 2), e(1, 1)]
    subjects = (upper, block, [x, y, x])
    chains = [_reference_chain(H) for H in subjects]
    index = next(k for k, lvl in enumerate(chains[0], 1) if all(map(lvl.contains, upper)))
    step = reference_next_level([x, y], target)
    hereditary = {prop: _reference_hereditary(diagonal_and_unit, 2, prop) for prop in "DL"}
    inter = reference_ad_kernel([(x,), (y,)], field, 3)
    meet = preimage(s.basis, s.basis, t)

    def refuse(*args):
        raise AssertionError("dense RREF or raw-value product on the level path")

    names = ["_rref_in_place"] + ([] if isinstance(field, ExtensionField) else ["_apply"])
    for module in (matrices, subspaces, lie, centralizers):
        for name in names:
            if name in vars(module):
                monkeypatch.setattr(module, name, refuse)

    for H, levels in zip(subjects, chains):
        assert [lvl.rows for lvl in centralizer_chain(H).levels] == [lvl.rows for lvl in levels]
    report = nilpotency_report(upper)
    assert report.index == index
    assert [lvl.rows for lvl in report.chain.levels] == [lvl.rows for lvl in chains[0]]
    repeated = nilpotency_report([x, y, x])
    assert [lvl.rows for lvl in repeated.chain.levels] == [lvl.rows for lvl in chains[2]]
    assert centralizer_step([x, y, x], target).rows == step.rows
    for prop, expected in hereditary.items():
        assert hereditary_centralizer(diagonal_and_unit, 2, prop).rows == expected.rows
    assert centralizer_intersection_check([x, y])[0].rows == inter.rows
    assert s.intersect(t).rows == meet.rows


def test_permuted_insertion():
    eye = Matrix.identity(Q, 2)
    assert permuted_insertion_check(eye, [E(2, 1, 2), E(2, 2, 1)], 1)
    r = mat(Q, [[2, 0], [0, 5]])
    assert permuted_insertion_check(r, [E(2, 1, 1), E(2, 1, 1)], 1)
    assert permuted_insertion_check(r, [E(2, 1, 1), E(2, 1, 1)], 2)
    with pytest.raises(PreconditionViolated):
        permuted_insertion_check(E(2, 1, 2), [E(2, 2, 1), E(2, 2, 1)], 1)
    with pytest.raises(ValueError):
        permuted_insertion_check(eye, [E(2, 1, 1)], 2)


def test_permuted_insertion_on_computed_basis():
    rng = rng_for("insertion-basis")
    mats = [random_matrix(GF5, 3, 3, rng) for _ in range(2)]
    level3 = lie_centralizer(mats, 3)
    for r in level3.basis:
        for xs in itertools.product(mats, repeat=3):
            for j in (1, 2, 3):
                assert permuted_insertion_check(r, list(xs), j)


def test_product_level_containment():
    assert centralizer_product_check([E(2, 1, 1)], 1, 1)
    assert centralizer_product_check([E(2, 1, 1)], 1, 2)
    rng = rng_for("product-theorem")
    mats = [random_matrix(GF5, 3, 3, rng) for _ in range(2)]
    assert centralizer_product_check(mats, 2, 2)
    # sampled mode draws random subspace elements
    assert centralizer_product_check(mats, 1, 2, samples=10, rng=rng_for("sampled"))


def test_first_centralizer_closed_under_products():
    # the classical centralizer is an algebra: exhaustive basis products
    rng = rng_for("l1-algebra")
    mats = [random_matrix(Q, 3, 3, rng)]
    l1 = lie_centralizer(mats, 1)
    for a in l1.basis:
        for b in l1.basis:
            assert l1.contains(a * b)


def test_hereditary_centralizers():
    # fewer elements than slots under distinctness: vacuous, full space
    assert hereditary_centralizer([E(2, 1, 1)], 2, "D").is_full
    # a single 1-tuple is distinct: same as the plain centralizer
    assert hereditary_centralizer([E(2, 1, 1)], 1, "D") == lie_centralizer(
        [E(2, 1, 1)], 1
    )
    # no linearly independent pair among parallel matrices
    parallel = [E(2, 1, 1), E(2, 1, 1).scale(2)]
    assert hereditary_centralizer(parallel, 2, "L").is_full
    # distinctness still admits the mixed tuples
    mixed = hereditary_centralizer(parallel, 2, "D")
    assert mixed == lie_centralizer([E(2, 1, 1)], 2)
    with pytest.raises(TypeError):
        hereditary_centralizer(diagonals_m2(), 1, "D")
    with pytest.raises(ValueError):
        hereditary_centralizer([E(2, 1, 1)], 1, "Z")


def test_hereditary_contains_plain_centralizer():
    rng = rng_for("hereditary-contains")
    for prop in ("D", "L"):
        for _ in range(5):
            mats = [random_matrix(GF5, 2, 2, rng) for _ in range(2)]
            for k in (1, 2):
                plain = lie_centralizer(mats, k)
                assert hereditary_centralizer(mats, k, prop).contains_subspace(plain)


def test_hereditary_enumeration_guard():
    mats = [E(2, 1, 1), E(2, 1, 2), E(2, 2, 1), E(2, 2, 2), Matrix.identity(Q, 2)]
    with pytest.raises(EnumerationTooLarge):
        hereditary_centralizer(mats * 4, 10, "D")


def test_huge_ambient_spaces_are_refused_before_any_level(monkeypatch):
    """Past ``ENUMERATION_GUARD`` scalars, n^2 > 10^6, every chain entry
    point refuses the subject before it forms a constraint; at the guard
    itself nothing is refused."""

    def refuse(*args):
        raise AssertionError("a level was computed")

    monkeypatch.setattr(centralizers, "ad_kernel", refuse)
    huge = Subspace.zero(Q, (1001, 1001))
    for call in (
        lambda: centralizer_chain(huge),
        lambda: nilpotency_report(huge),
        lambda: lie_centralizer(huge, 1),
        lambda: centralizer_step(huge, huge),
    ):
        with pytest.raises(EnumerationTooLarge, match="1002001 scalars"):
            call()
    check_guard(10**6, "at the guard")
    with pytest.raises(EnumerationTooLarge):
        check_guard(10**6 + 1, "past the guard")


def test_nilpotency_scalars():
    rep = nilpotency_report([Matrix.identity(Q, 2).scale(3)])
    assert rep.is_lie_nilpotent and rep.index == 1 and rep.is_omega_lie_nilpotent


def test_nilpotency_strictly_upper_m3():
    upper = [E(3, 1, 2), E(3, 1, 3), E(3, 2, 3)]
    # brute-force oracle: some bracket of two elements survives, every
    # left-normed product of three vanishes
    assert any(
        not left_normed([a, b]).is_zero() for a in upper for b in upper
    )
    assert all(
        left_normed([r, a, b]).is_zero()
        for r in upper
        for a in upper
        for b in upper
    )
    rep = nilpotency_report(upper)
    assert rep.is_lie_nilpotent and rep.index == 2
    assert rep.dim == 3


def test_nilpotency_negative_case():
    rep = nilpotency_report([E(2, 1, 2), E(2, 2, 1)])
    assert not rep.is_lie_nilpotent
    assert rep.index is None
    assert not rep.is_omega_lie_nilpotent
    assert rep.bound_comparison.within_conjectured_bound is None


def test_dim_bound_examples():
    assert nilpotent_subalgebra_dim_bound(8, 1) == 17
    assert nilpotent_subalgebra_dim_bound(3, 2) == 4
    assert nilpotent_subalgebra_dim_bound(2, 1) == 2
    assert conjectured_dim_bound(3) == 4


def partitions(n, max_parts, largest=None):
    """All partitions of n into at most max_parts positive parts."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, max_parts - 1, first):
            yield (first,) + rest


def test_dim_bound_closed_form_equals_brute_force():
    # sum of squares is symmetric in the parts, so maximizing over
    # partitions is maximizing over all compositions
    for n in range(1, 13):
        for k in range(1, n + 1):
            brute = max(
                (n * n - sum(p * p for p in parts)) // 2 + 1
                for parts in partitions(n, k + 1)
            )
            assert brute == nilpotent_subalgebra_dim_bound(n, k), (n, k)


def test_balanced_parts():
    assert balanced_parts(8, 2) == (4, 4)
    assert balanced_parts(5, 3) == (2, 2, 1)
    assert balanced_parts(3, 5) == (1, 1, 1)  # zeros dropped


def test_extremal_block_algebra_examples():
    ex = extremal_block_algebra(3, [1, 1, 1])
    assert ex.dim == 4
    rep = nilpotency_report(ex)
    assert rep.is_lie_nilpotent and rep.index <= 2
    with pytest.raises(InvalidComposition):
        extremal_block_algebra(3, [1, 1])
    with pytest.raises(InvalidComposition):
        extremal_block_algebra(3, [2, 0, 1])


def test_extremal_block_algebra_m8_split_in_half():
    for field in (Q, GF7):
        ex = extremal_block_algebra(8, [4, 4], field)
        assert ex.dim == 17 == nilpotent_subalgebra_dim_bound(8, 1)
    # measured index (recorded): the two-block algebra is commutative
    rep = nilpotency_report(extremal_block_algebra(8, [4, 4], GF7))
    assert rep.index == 1


def test_extremal_is_closed_under_brackets():
    ex = extremal_block_algebra(4, [2, 2])
    for a in ex.basis:
        for b in ex.basis:
            assert ex.contains(left_normed([a, b]))


def test_evidence_experiments_run():
    evidence = conjecture_evidence(4)
    assert evidence and all(
        rep.bound_comparison.within_conjectured_bound for _name, rep in evidence
    )
    observations = closure_index_observations(3)
    assert observations
    for _name, probe in observations:
        assert probe.closure_dim >= probe.subspace_dim
    dims = char2_generation_dims(3)
    assert [n for n, _ in dims] == [2, 3]


def test_bounds_table_shape():
    table = bounds_table(5)
    assert len(table) == 5 * 6 // 2
    assert table[0] == (1, 1, 1, 1)
    for n, k, g, c in table:
        assert g <= c or k >= 1  # recorded, never asserted beyond sanity
