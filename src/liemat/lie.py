"""Commutator brackets, left-normed products, sparse product operators,
and subalgebra closure.

``_operator`` builds every product operator, r -> [r, h] or r -> r·h, on
sparse row-major vectors in the coordinates of a ``SpanBuilder``: the
closure builds one for each element that a sweep multiplies by, and
``adjoint_operator`` one for the transpose of each x.  An operator holds
h's nonzeros by row (and, for the bracket, by column), each as a shift of
the unit index, so it is built in one pass over them; the image of a unit
is read off its row and column of h when the operator is applied.
``ad_kernel`` solves {r : [r, x1, ..., xk] in T for every chain} as one
annihilator, as centralizer levels need, with the ``adjoint_operator`` of
each x.  Work whose result is known is skipped.  A full target T = M_n
is its own answer.  Each x is scanned once into builder coordinates
(``_coordinates``).  Its operator is read off that scan, re-indexed to
xᵀ, and a scalar x = c·I, recognized on the same scan, gets none
(``_adjoint_operators``), since [r, c·I] = 0 makes every chain through
it constrain nothing.  A chain's first operator sends E_ik to 0
unless row k or column i of its matrix is nonempty, so a seed of T^⊥
whose support meets none of those rows and columns has the image 0.
``ad_kernel`` indexes the seeds by the rows and columns of their units
(``_seed_index``) and seeds each chain with the others alone, in their
order, so the same images are inserted in the same order; for T = 0 the
seeds are the units themselves.  Each later operator of a chain is
applied only to an image whose support meets one of its rows and columns
(``_meets``), and the last one's images go straight to
``SpanBuilder.insert`` with that operator.  The common centralizer of a
set X, {r : [r, x] = 0 for x in X}, is the first level L_1(X) of its
chain: one ``ad_kernel`` of the one-operator chains of X.

The closure engine keeps each of its independent products of a generator
set X sparse, with its operator, so every product it forms is one operator
application.  The associative closure is a spin (the MeatAxe's, Parker
1984): each level multiplies the vectors that the level before it added
by every generator (``_spin``), |X|·dim products in all.  A level that
adds nothing is the certificate V·X ⊆ V, as every vector of V has then
been multiplied by every generator.  Each Lie sweep brackets the
elements added by the previous sweep with every element before them, and
stops as soon as the span reaches its ceiling: the whole matrix space, or
sl_n = ker tr for traceless generators (n > 1), since tr[x, y] = 0 in
every characteristic.  Before each sweep the elements the last sweep
added (X, before the first) are bracketed with the generators alone: by
the spanning lemma, [V, X] ⊆ V proves that V is the closure (see
``_certify_closed``), so no sweep that adds nothing is ever run.  Both
ask the closure's own ``SpanBuilder`` whether a product lies in V, so no
``Subspace`` is built until the closure is returned.  An element's
operator is built when a sweep first needs it.

The closure keeps its elements in the coordinates of its ``SpanBuilder``
(``SpanBuilder.coordinates``): primitive integer vectors over Q (a nonzero
multiple spans the same line, so the spans, the product order and
``rounds`` are those of the raw values), residues over GF(p) and raw
values over GF(p^m).  Each product goes to the builder as its (operator,
vector) pair: ``SpanBuilder.insert`` reduces the image as it forms it,
with no finished image made first, and only a product that grows the span
is formed again (``SpanBuilder.apply``) to be kept.
``ad_kernel`` works in them too, with operators built on the coordinates
of xᵀ (``adjoint_operator``): each image is one constraint row, so a
nonzero multiple serves as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterable, Literal, Sequence

from .errors import DimensionMismatch, EmptySequence, MixedShapes
from .fields import Field
from .matrices import Matrix, SparseMap, SparseVec, _sparse
from .subspaces import SpanBuilder, Subspace


def bracket(x: Matrix, y: Matrix) -> Matrix:
    """The commutator [x, y] = xy - yx."""
    if not x.is_square:
        raise DimensionMismatch("brackets need square matrices")
    return x * y - y * x


def left_normed(xs: Sequence[Matrix]) -> Matrix:
    """[x1, x2, ..., xm] nested to the left: [[..[[x1,x2],x3]..], xm]."""
    if not xs:
        raise EmptySequence("left-normed product of an empty sequence")
    acc = xs[0]
    for x in xs[1:]:
        acc = bracket(acc, x)
    return acc


@lru_cache(maxsize=16)  # n^2 pairs each: keep a few sizes, not every one
def _units(n: int) -> tuple[tuple[int, int], ...]:
    """(i, k) = divmod(idx, n) of each unit index idx of the n x n units."""
    return tuple(divmod(idx, n) for idx in range(n * n))


def _operator(field: Field, n: int, h: SparseVec, lie: bool) -> SparseMap:
    """r -> r·h, or r -> [r, h] when ``lie``, as (``_units(n)``, rows,
    cols) from one pass over the nonzeros of h: the image of E_ik has b at
    its index plus d for each (d, b) in rows[k] + cols[i].

    E_ik·h has h[k][l] at (i, l), so rows[k] lists (l - k, h[k][l]).
    [E_ik, h] adds -h[m][i] at (m, k), so cols[i] lists ((m - i)·n,
    -h[m][i]), and is empty for the product.  At (i, k) h[k][k] and
    -h[i][i] just sum; the appliers drop a sum that is zero.
    """
    units = _units(n)
    rows = [()] * n
    cols = [()] * n
    neg = field.neg
    for idx, a in h.items():
        k, l = units[idx]
        rows[k] += ((l - k, a),)
        if lie:
            cols[l] += (((k - l) * n, neg(a)),)
    return units, rows, cols


def _ambient(mats: Sequence[Matrix]) -> tuple[Field, int]:
    """The field and size n of the one n x n matrix space that holds every
    matrix of a nonempty list; ``MixedShapes`` otherwise."""
    if mats:
        field, n = mats[0].field, mats[0].nrows
        if all(m.field == field and m.nrows == m.ncols == n for m in mats):
            return field, n
    raise MixedShapes("need one or more matrices of one square matrix space")


def _coordinates(field: Field, n: int, vectors: Iterable[Sequence]) -> list[SparseVec]:
    """Each row-major vectorized n x n matrix, scanned once, in the
    coordinates of a ``SpanBuilder`` of the n x n matrices."""
    to_coords = SpanBuilder(field, n * n).coordinates
    return [to_coords(_sparse(field, vec)) for vec in vectors]


def _is_scalar(h: SparseVec, n: int) -> bool:
    """Whether h, in the coordinates of ``_coordinates``, is c·I for some c,
    0 included: its entries are the n diagonal ones, all equal (the
    coordinates scale the raw values by one nonzero factor)."""
    if not h:
        return True
    c = h.get(0)
    return c is not None and len(h) == n and all(h.get(i * (n + 1)) == c for i in range(n))


def adjoint_operator(field: Field, n: int, h: SparseVec) -> SparseMap:
    """The adjoint of r -> [r, h] under <F, r> = sum F_ij r_ij, which is
    r -> [r, hᵀ], for h in the coordinates of ``_coordinates``: over Q a
    nonzero multiple of it, which spans the same images.  hᵀ is h with
    each E_ik re-indexed to E_ki; ``_operator`` visits the nonzeros of each
    row and column of hᵀ in the order a scan of hᵀ would."""
    return _operator(field, n, {idx % n * n + idx // n: a for idx, a in h.items()}, True)


def _adjoint_operators(field: Field, n: int, members: Sequence[SparseVec]) -> dict[int, SparseMap]:
    """The ``adjoint_operator`` of each member, given in the coordinates of
    ``_coordinates``, that is not a scalar c·I, by the member's index:
    [r, c·I] = 0, so a scalar member constrains nothing and gets no
    operator."""
    return {i: adjoint_operator(field, n, h) for i, h in enumerate(members) if not _is_scalar(h, n)}


def _seed_index(seeds: Sequence[SparseVec], n: int) -> tuple[list[set], list[set]]:
    """(by_row, by_col): the positions of the seeds with a unit E_ik in
    their support, under its row i and under its column k."""
    units = _units(n)
    by_row = [set() for _ in range(n)]
    by_col = [set() for _ in range(n)]
    for pos, seed in enumerate(seeds):
        for idx in seed:
            i, k = units[idx]
            by_row[i].add(pos)
            by_col[k].add(pos)
    return by_row, by_col


def ad_kernel(
    field: Field,
    n: int,
    chains: Sequence[Sequence[SparseMap]],
    target: Subspace | None = None,
) -> Subspace:
    """{r : [r, x1, ..., xk] in target for every chain}, as one annihilator.

    Each chain lists the ``adjoint_operator`` of x1, ..., xk (chains may
    differ in length); ``target=None`` means the zero subspace.  The adjoint
    of r -> [r, h] is F -> [F, hᵀ], so r meets a chain exactly when it is
    orthogonal to ad_{x1ᵀ}(...ad_{xkᵀ}(f)) for every f in a basis of
    target^⊥: the rows of the builder ``target`` keeps for its annihilator,
    for a level the constraints that cut it out.  Each image is inserted
    in the coordinates of one ``SpanBuilder`` of constraints, which
    applies the chain's last operator as it inserts, and the answer is
    their annihilator, which keeps them.

    A full target is returned as it is: every [r, x1, ..., xk] lies in
    M_n, so there is nothing to solve, and the level above M_n costs no
    annihilator and no dense rows.  Otherwise the first operator of a
    chain, of a matrix h, sends E_ik to 0 unless h's row k or column i is
    nonempty, so a seed f whose support meets none of those rows and
    columns has the image 0.  Each chain is seeded only with the others
    (``_seed_index``), in the seeds' order, so the same images are inserted
    in the same order.  Each later operator is applied only to an image
    that meets one of its nonempty rows and columns (``_meets``), as it
    sends the others to 0, so an image that meets none, 0 included, goes
    no further.
    """
    if target is None:
        target = Subspace.zero(field, (n, n))
    elif target.field != field or target.shape != (n, n):
        raise MixedShapes("target subspace outside the ambient space of the chains")
    elif target.is_full:
        return target
    seeds = list(target._perp_span().by_pivot.values())
    by_row, by_col = _seed_index(seeds, n)
    constraints = SpanBuilder(field, n * n)
    apply, insert = constraints.apply, constraints.insert
    for chain in chains:
        _, rows, cols = chain[-1]
        hit = set().union(*compress(by_col, rows), *compress(by_row, cols))
        # each operator but the last, in the order applied, with the next one
        steps = tuple(zip(chain[:0:-1], chain[-2::-1]))
        for img in map(seeds.__getitem__, sorted(hit)):
            for op, after in steps:
                img = apply(op, img)
                if not _meets(after, img):
                    break
            else:
                insert(img, chain[0])
    return Subspace._of(constraints.annihilator(), (n, n), perp=constraints)


def _meets(op: SparseMap, vec: SparseVec) -> bool:
    """Whether some unit E_ik in the support of ``vec`` has row k or column
    i of op's matrix nonempty; if none does, op(vec) = 0.  This is the test
    ``_seed_index`` makes for the seeds, one image at a time."""
    units, rows, cols = op
    return any(rows[k] or cols[i] for i, k in map(units.__getitem__, vec))


ProductKind = Literal["lie", "associative"]


@dataclass(frozen=True)
class ClosureResult:
    """The closure of a generator set X under one product.

    ``rounds`` counts the sweeps B_k = B_{k-1} + [B_{k-1}, B_{k-1}] (with
    B_{k-1}·B_{k-1} for the associative kind), starting from B_0 = span(X),
    until B_k is the whole matrix space or equals B_{k-1}.  It is 0 when
    span(X) is already full or zero, and 1 when span(X) is a proper, nonzero
    closed subspace.  The spin forms no B_k, but B_k spans the words of
    length <= 2^k and spin level j those of length <= j + 1: if D levels
    added something, B_k is the closure from k = D.bit_length() on.

    A closure that is not the whole space was certified before it was
    returned.  Either [V, X] ⊆ V (V·X ⊆ V: a spin level added nothing)
    holds for V = ``subspace``, which is spanned by products of generators
    and contains X; or the generators are traceless, n > 1, and the Lie
    closure V reached dimension n^2 - 1.  Then V = sl_n, which contains
    Lie(X) because tr[x, y] = 0, and is closed, so B_k = B_{k-1} one round
    after the sweep that reached it: ``rounds`` counts that round too.

    Every product is formed on sparse vectors by the operator r -> [r, h]
    (r -> r·h) of its right factor h, which holds h's nonzeros by row and
    column, so no dense matrix product is made; the vectors are in the
    coordinates of the closure's builder (see the module docstring).
    ``subspace`` holds raw values all the same: ``Fraction``s over Q,
    residues in [0, p) over GF(p).
    """

    subspace: Subspace
    rounds: int
    product_kind: ProductKind


def closure(generators: Sequence[Matrix], kind: ProductKind = "lie") -> ClosureResult:
    """Smallest subspace containing the generators and closed under the
    product.

    The associative kind does *not* adjoin the identity: if a generator
    set is supposed to produce 1, that must emerge from the products.
    """
    gens = list(generators)
    field, n = _ambient(gens)
    if kind not in ("lie", "associative"):
        raise ValueError(f"unknown product kind {kind!r}")

    full_dim = n * n
    lie = kind == "lie"
    # tr[x, y] = 0, so a Lie closure of traceless generators lies in sl_n
    in_sl = lie and n > 1 and all(field.is_zero(g.trace_raw()) for g in gens)
    ceiling = full_dim - 1 if in_sl else full_dim
    builder = SpanBuilder(field, full_dim)
    # independent representatives, insertion order, in builder coordinates
    basis = [u for u in _coordinates(field, n, map(Matrix.vectorize, gens)) if builder.insert(u)]
    generator_ops = [_operator(field, n, u, lie) for u in basis]  # r -> [r, u] or r -> r·u
    if not lie:
        rounds = _spin(builder, basis, generator_ops)
        return ClosureResult(Subspace._of(builder, (n, n)), rounds, kind)
    ops = list(generator_ops)  # ops[j] of basis[j], built when a sweep first needs it

    rounds = frontier_start = 0
    while basis and builder.dim < ceiling:
        rounds += 1
        if _certify_closed(builder, basis[frontier_start:], generator_ops):
            break
        frontier_end = len(basis)
        ops += [_operator(field, n, u, lie) for u in basis[len(ops):]]
        for op, u in _sweep(basis, ops, frontier_start, frontier_end):
            if builder.insert(u, op):
                basis.append(builder.apply(op, u))
                if builder.dim == ceiling:
                    break
        if len(basis) == frontier_end:
            raise AssertionError("a sweep after a failed certificate added nothing")
        frontier_start = frontier_end
    if builder.dim == ceiling < full_dim:
        rounds += 1  # the round whose certificate would pass: V = sl_n is closed
    return ClosureResult(Subspace._of(builder, (n, n)), rounds, kind)


def _spin(builder: SpanBuilder, level: list[SparseVec], generator_ops: list[SparseMap]) -> int:
    """Spin ``builder``'s span of ``level`` = X under the operators r -> r·x:
    each level keeps the products u·x, u added by the level before it, that
    grow the span, until it is full (mid-level too) or a level adds nothing.
    Returns ``rounds`` from the D levels that added something."""
    full_dim, depth = builder.length, 0
    while level and builder.dim < full_dim:
        level = [builder.apply(op, u) for u in level for op in generator_ops
                 if builder.dim < full_dim and builder.insert(u, op)]
        depth += bool(level)
    return depth.bit_length() + (0 < builder.dim < full_dim)


def _sweep(basis: list[SparseVec], ops: list[SparseMap], start: int, end: int):
    """Brackets of each frontier element basis[i], start <= i < end, with
    basis[j] for j < i, each as the (operator, vector) pair whose
    application forms it.

    Every other bracket of two elements of basis[:end] is zero, the
    negative of one of these, or was formed by an earlier sweep.
    """
    for i, u in enumerate(basis[start:end], start):
        for j in range(i):
            yield ops[j], u  # [u, basis[j]]


def _certify_closed(
    builder: SpanBuilder, frontier: list[SparseVec], generator_ops: list[SparseMap]
) -> bool:
    """Whether [V, X] ⊆ V, where V is the span of ``builder`` and X is given
    by its operators, tested on the ``frontier``: the elements the newest
    sweep added (X itself before the first).  Precondition: an earlier sweep
    bracketed every other element of V's basis with each generator, into V,
    as each sweep does with its frontier and every element before it, X
    included.  Each bracket is tested, as it is formed, with
    ``SpanBuilder.contains`` on the builder's own rows.

    Spanning lemma: Lie(X) is spanned by the left-normed brackets
    [x1, ..., xk] with each xi in X.  The closure engine builds V from
    brackets of generators, so V lies in the closure, and V contains X.  If
    the test passes, induction on k puts every left-normed bracket in V, so
    V is the closure.

    The newest elements are tested first, so a span that is not yet closed
    fails fast.
    """
    contains = builder.contains
    for u in reversed(frontier):
        for op in generator_ops:
            if not contains(u, op):
                return False
    return True


def leibniz_expansion_check(r: Matrix, s: Matrix, xs: Sequence[Matrix]) -> bool:
    """Executable witness for the product expansion of a left-normed bracket:

        [rs, x1, ..., xk] = sum over complementary increasing index sets
                            (I, J) of [r, x_I] * [s, x_J],

    with the empty bracket read as the element itself.  This is an algebra
    identity, so the check must come back True on any inputs; it exists so
    tests can exercise the expansion term by term.
    """
    if not xs:
        raise EmptySequence("expansion needs at least one argument")
    k = len(xs)
    lhs = left_normed([r * s, *xs])
    rhs = None
    for mask in range(2**k):
        left_args = [r] + [xs[i] for i in range(k) if mask >> i & 1]
        right_args = [s] + [xs[i] for i in range(k) if not mask >> i & 1]
        term = left_normed(left_args) * left_normed(right_args)
        rhs = term if rhs is None else rhs + term
    return lhs == rhs
