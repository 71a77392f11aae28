"""Commutator brackets, left-normed products, and subalgebra closure.

The closure engine grows a list of independent products of a generator
set X sweep by sweep.  Each sweep pairs the elements added by the previous
sweep with every element before them (one order per pair for the bracket,
both orders and the square for the associative product), and stops as
soon as the span is the whole matrix space.  Before each sweep the span V
is tested against the generators alone: [V, X] ⊆ V, or V·X ⊆ V.  By the
spanning lemma a pass proves that V is the closure (see
``_certify_closed``), so no sweep that adds nothing is ever run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .errors import DimensionMismatch, EmptySequence, MixedShapes
from .matrices import Matrix
from .subspaces import SpanBuilder, Subspace, preimage


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


ProductKind = Literal["lie", "associative"]


@dataclass(frozen=True)
class ClosureResult:
    """The closure of a generator set X under one product.

    ``rounds`` counts the sweeps B_k = B_{k-1} + [B_{k-1}, B_{k-1}] (with
    B_{k-1}·B_{k-1} for the associative kind), starting from B_0 = span(X),
    until B_k is the whole matrix space or equals B_{k-1}.  It is 0 when
    span(X) is already full or zero, and 1 when span(X) is a proper, nonzero
    closed subspace.

    A closure that is not the whole space was certified before it was
    returned: [V, X] ⊆ V (V·X ⊆ V) holds for V = ``subspace``, which is
    spanned by products of generators and contains X.
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
    if not gens:
        raise MixedShapes("closure needs at least one generator")
    field = gens[0].field
    n = gens[0].nrows
    if any(not g.is_square for g in gens):
        raise DimensionMismatch("closure needs square matrices")
    if any(g.field != field or g.nrows != n for g in gens):
        raise MixedShapes("generators do not share one ambient space")
    if kind not in ("lie", "associative"):
        raise ValueError(f"unknown product kind {kind!r}")

    builder = SpanBuilder(field, n * n)
    basis: list[Matrix] = []  # independent representatives, insertion order
    for g in gens:
        if builder.insert(g.vectorize()):
            basis.append(g)
    independent_gens = list(basis)

    full_dim = n * n
    rounds = 0
    frontier_start = 0
    while basis and builder.dim < full_dim:
        rounds += 1
        subspace = Subspace(field, (n, n), builder.sorted_rows())
        if _certify_closed(subspace, basis, independent_gens, kind):
            return ClosureResult(subspace=subspace, rounds=rounds, product_kind=kind)
        frontier_end = len(basis)
        for prod in _sweep(basis, frontier_start, frontier_end, kind):
            if builder.insert(prod.vectorize()):
                basis.append(prod)
                if builder.dim == full_dim:
                    break
        if len(basis) == frontier_end:
            raise AssertionError("a sweep after a failed certificate added nothing")
        frontier_start = frontier_end

    subspace = Subspace(field, (n, n), builder.sorted_rows())
    return ClosureResult(subspace=subspace, rounds=rounds, product_kind=kind)


def _sweep(basis: list[Matrix], start: int, end: int, kind: ProductKind):
    """Products of each frontier element basis[i], start <= i < end, with
    basis[j] for j < i, and for the associative kind also j = i.

    Every other product of two elements of basis[:end] is zero, the
    negative of one of these, or was formed by an earlier sweep.
    """
    for i in range(start, end):
        u = basis[i]
        if kind == "lie":
            for v in basis[:i]:
                yield bracket(u, v)
        else:
            for v in basis[:i]:
                yield u * v
                yield v * u
            yield u * u


def _certify_closed(
    subspace: Subspace, basis: list[Matrix], generators: list[Matrix], kind: ProductKind
) -> bool:
    """Whether [V, X] ⊆ V, or V·X ⊆ V for the associative kind, where V is
    ``subspace``, spanned by ``basis``, and X is ``generators``.

    Spanning lemma: Lie(X) is spanned by the left-normed brackets
    [x1, ..., xk] and Alg(X) by the words x1...xk, with each xi in X.  The
    closure engine builds V from products of generators, so V lies in the
    closure, and V contains X.  If the test passes, induction on k puts
    every left-normed bracket (every word) in V, so V is the closure.

    The newest elements are tested first, so a span that is not yet closed
    fails fast.
    """
    for u in reversed(basis):
        for x in generators:
            prod = bracket(u, x) if kind == "lie" else u * x
            if not subspace.contains_vec(prod.vectorize()):
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


def centralizer_intersection_check(generators: Sequence[Matrix]) -> tuple[Subspace, bool]:
    """Intersection of the centralizers of the given matrices, and whether
    that intersection is exactly the scalar matrices *because* the
    generators generate the full matrix algebra associatively.

    The second component is False whenever the generators fail to generate
    (then nothing is claimed about the intersection).
    """
    gens = list(generators)
    if not gens:
        raise MixedShapes("need at least one matrix")
    field = gens[0].field
    n = gens[0].nrows
    if any(g.field != field or not g.is_square or g.nrows != n for g in gens):
        raise MixedShapes("matrices do not share one ambient space")
    ambient = Subspace.full(field, (n, n))
    zero = Subspace.zero(field, (n, n))
    inter = ambient
    for g in gens:
        images = [bracket(b, g) for b in inter.basis]
        inter = preimage(inter.basis, images, zero)
    generates = closure(gens, "associative").subspace.is_full
    scalars = Subspace.span([Matrix.identity(field, n)])
    return inter, generates and inter == scalars
