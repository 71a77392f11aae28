"""Lie centralizer chains, nilpotency indices, and dimension bounds.

The k-th Lie centralizer of a set H of matrices is

    L_k(H) = { r : [r, x1, ..., xk] = 0 for all choices of x_i in H },

using left-normed brackets.  The levels ascend, stabilize at some index
t bounded by the ambient dimension, and their union (the omega level)
equals the stabilized level.  H may be given either as a finite set of
matrices or as a subspace; in the subspace case the brackets are
multilinear in each slot, so quantifying over a basis is exact.

Levels are computed iteratively: r lies in L_{k+1}(H) exactly when every
[r, h] lies in L_k(H).  Under <F, r> = sum F_ij r_ij the adjoint of
ad_h : r -> [r, h] is ad_{hᵀ}, so L_{k+1} is the annihilator of the
images ad_{hᵀ}(f), for every member h and every f in a basis of the
annihilator of L_k (``lie.ad_kernel``): the constraint rows that cut out
L_k, kept with it, so each level takes one kernel.  Each member is
scanned once, into builder coordinates (``_members``), and that scan
serves every use.  Each ad_{hᵀ} is a sparse operator
(``lie.adjoint_operator``) read off it once per chain, for each member
that the same scan shows is not a scalar c·I: [r, c·I] = 0, so a scalar
member adds no constraint, and a hereditary tuple that holds one is
dropped after its admissibility is decided (``lie._adjoint_operators``).
Hereditary centralizers apply the composed adjoint operators of the
admissible tuples in the same way.  On every level each operator is
seeded only with the constraint rows whose image can be nonzero, an image
that is a unit already in the span is settled with no reduction, and each
one-entry kernel vector of a level's annihilator is taken as a row with no
elimination, every one of them for the zero span (see ``lie`` and
``matrices``).  The level above M_n is M_n itself, returned with no
annihilator, so a chain that reaches M_n repeats it at no cost.  The
levels are the same RREF with less work.
``nilpotency_report`` passes its scan on to ``centralizer_chain`` and
tests every member, scalars included, on each level's builder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    ENUMERATION_GUARD,
    InvalidComposition,
    InvalidIndex,
    MalformedJSON,
    MixedShapes,
    PreconditionViolated,
    check_guard,
)
from .fields import Field
from .lie import _adjoint_operators, _coordinates, ad_kernel, closure, left_normed
from .matrices import Matrix, SparseVec, SpanBuilder, matrix_unit
from .subspaces import Subspace

# A string, so that no typing cache keeps this module's classes, and with them
# a copy of the package that was dropped from sys.modules, alive.
SubsetLike = "Sequence[Matrix] | Subspace"


class _Scan:
    """A quantifier set H scanned once: each member in the coordinates of a
    ``SpanBuilder`` of the n x n matrices (``lie._coordinates``)."""

    __slots__ = ("coords", "field", "n")

    def __init__(self, coords: list[SparseVec], field: Field, n: int):
        self.coords, self.field, self.n = coords, field, n

    def operators(self):
        """The members' ``adjoint_operator``s, scalars left out."""
        return _adjoint_operators(self.field, self.n, self.coords).values()


def _members(H: SubsetLike) -> _Scan:
    """The members to quantify over, each scanned once, with the field and
    size n of the square matrix space they live in: the elements of a
    finite set, or a basis of a subspace (sufficient by multilinearity of
    the bracket).  A subspace names its ambient space itself, so the zero
    subspace quantifies over nothing and every level is the whole space.
    An ambient space of more than ``ENUMERATION_GUARD`` scalars is refused
    (``check_guard``) before any member is scanned.  A scan is returned as
    it is, so a caller that scanned H passes the scan on."""
    if isinstance(H, _Scan):
        return H
    if isinstance(H, Subspace):
        vectors, field, (n, cols) = H.rows, H.field, H.shape
        square = n == cols
    else:
        mats = list(H)
        if not mats:
            raise MixedShapes("H must contain at least one matrix")
        field, n = mats[0].field, mats[0].nrows
        square = all(m.field == field and m.is_square and m.nrows == n for m in mats)
        vectors = map(Matrix.vectorize, mats)
    if not square:
        raise MixedShapes("H does not live in one square matrix space")
    check_guard(n * n, f"{n * n} scalars of a {n}x{n} matrix")
    return _Scan(_coordinates(field, n, vectors), field, n)


def _next_level(ops, field, n, prev: Subspace | None) -> Subspace:
    """prev=None computes L_1; otherwise the level above prev, from the
    members' ``adjoint_operator``s (a repeat adds no new constraint)."""
    return ad_kernel(field, n, [(op,) for op in ops], prev)


def _levels_until(scan: _Scan, upto: int) -> tuple[list[Subspace], int | None]:
    """Levels L_1..: stops after the first repeat or after `upto` levels.

    Returns (levels, t) where t is the 1-based stabilization index if the
    repeat was reached (levels then ends with L_{t+1} = L_t).
    """
    ops, field, n = scan.operators(), scan.field, scan.n
    levels = [_next_level(ops, field, n, None)]
    while len(levels) < upto:
        nxt = _next_level(ops, field, n, levels[-1])
        levels.append(nxt)
        if nxt == levels[-2]:
            return levels, len(levels) - 1
    return levels, None


def _level(levels: Sequence[Subspace], k: int) -> Subspace:
    """L_k from levels L_1.. that end at the first repeat or reach L_k."""
    return levels[min(k, len(levels)) - 1]


def _check_index(k: int) -> None:
    if k < 1:
        raise InvalidIndex(f"centralizer index must be at least 1, got {k}")


def centralizer_step(H: SubsetLike, target: Subspace) -> Subspace:
    """One chain iteration: {r : [r, h] in target for every h in H}.

    Feeding a level back in computes the level above it; useful for
    checking persistence past the stabilization point directly.
    """
    scan = _members(H)
    return _next_level(scan.operators(), scan.field, scan.n, target)


def lie_centralizer(H: SubsetLike, k: int) -> Subspace:
    """The k-th Lie centralizer of H."""
    _check_index(k)
    levels, _ = _levels_until(_members(H), k)
    return _level(levels, k)


@dataclass(frozen=True)
class CentralizerChain:
    """The ascending centralizer levels with their stabilization data.

    ``levels[i]`` is L_{i+1}(H); the list runs through the first repeated
    level, so ``levels[t] == levels[t-1]`` witnesses stabilization at the
    1-based index ``stabilization_index = t``.
    """

    levels: tuple[Subspace, ...]
    stabilization_index: int
    omega: Subspace

    def level(self, k: int) -> Subspace:
        """L_k(H) for any k >= 1 (constant from the stabilization on)."""
        _check_index(k)
        return _level(self.levels, k)


def centralizer_chain(H: SubsetLike, max_k: int | None = None) -> CentralizerChain:
    """Compute levels until two consecutive ones coincide.

    Stabilization is guaranteed no later than the ambient dimension n^2,
    which is the default cap.
    """
    if max_k is not None and max_k < 1:
        raise InvalidIndex(f"max_k must be at least 1, got {max_k}")
    scan = _members(H)
    cap = (scan.n * scan.n if max_k is None else max_k) + 1
    levels, t = _levels_until(scan, cap)
    if t is None:
        raise InvalidIndex(
            f"no stabilization within max_k={cap - 1} levels; "
            f"the chain is guaranteed to stabilize by n^2 = {scan.n * scan.n}"
        )
    return CentralizerChain(
        levels=tuple(levels), stabilization_index=t, omega=levels[t - 1]
    )


def permuted_insertion_check(r: Matrix, xs: Sequence[Matrix], j: int) -> bool:
    """Evaluate [x1, ..., xj, r, x_{j+1}, ..., xk] directly and report
    whether it vanishes.

    Requires r in L_k({distinct elements of xs}) first -- membership in
    the k-th centralizer of any superset implies that -- and raises
    PreconditionViolated otherwise.  Under the precondition the result is
    always True; the operation exists as an executable witness.
    """
    k = len(xs)
    if not 1 <= j <= k:
        raise ValueError(f"insertion position {j} outside [1, {k}]")
    distinct: list[Matrix] = []
    for x in xs:
        if x not in distinct:
            distinct.append(x)
    if not lie_centralizer(distinct, k).contains(r):
        raise PreconditionViolated(f"r is not in the {k}-th Lie centralizer")
    value = left_normed([*xs[:j], r, *xs[j:]])
    return value.is_zero()


def centralizer_product_check(
    H: SubsetLike,
    p: int,
    q: int,
    samples: int | None = None,
    rng=None,
) -> bool:
    """Check that products of L_p(H) and L_q(H) land in L_{p+q-1}(H).

    Exhaustive over basis pairs by default, which settles the statement
    for the whole subspaces by bilinearity; ``samples`` switches to that
    many random pairs of subspace elements (for larger ambients).
    """
    if p < 1 or q < 1:
        raise InvalidIndex(f"levels must be at least 1, got p={p}, q={q}")
    scan = _members(H)
    field, n = scan.field, scan.n
    levels, _ = _levels_until(scan, p + q - 1)
    lp, lq, target = (_level(levels, k) for k in (p, q, p + q - 1))
    if samples is None:
        pairs = itertools.product(lp.basis, lq.basis)
    else:
        if rng is None:
            raise ValueError("sampled mode needs an rng")

        def _random_element(space: Subspace) -> Matrix:
            acc = Matrix.zeros(field, n)
            for b in space.basis:
                acc = acc + b.scale(field.random_scalar(rng))
            return acc

        pairs = (
            (_random_element(lp), _random_element(lq)) for _ in range(samples)
        )
    return all(target.contains(r * s) for r, s in pairs)


_HEREDITARY_PROPS = {
    "D": "D",
    "distinct": "D",
    "L": "L",
    "independent": "L",
}

def hereditary_centralizer(H: Sequence[Matrix], k: int, prop: str) -> Subspace:
    """Centralizer quantified only over k-tuples from a finite H that
    satisfy a hereditary property: pairwise-distinct entries ("D") or
    linear independence of the tuple ("L").

    These properties are not multilinear, so there is no basis reduction:
    the tuples are enumerated directly, guarded against blowup.  With no
    admissible tuple the quantification is vacuous and the full ambient
    space is returned.
    """
    if isinstance(H, Subspace):
        raise TypeError("hereditary centralizers are defined for finite sets only")
    try:
        prop = _HEREDITARY_PROPS[prop]
    except KeyError:
        raise ValueError(f"unknown hereditary property {prop!r}") from None
    _check_index(k)
    members = list(H)
    scan = _members(members)
    field, n = scan.field, scan.n
    cap = min(k, ENUMERATION_GUARD.bit_length())  # 2^cap > the guard if cap < k
    check_guard(len(members) ** cap, f"{len(members)}^{k} tuples")
    if k > len(members):  # every k-tuple repeats a member: none is admissible
        return ad_kernel(field, n, [])

    def admissible(tup: tuple[Matrix, ...]) -> bool:
        if prop == "D":
            return all(
                tup[i] != tup[j] for i in range(k) for j in range(i + 1, k)
            )
        stacked = Matrix._make(field, tuple(x.vectorize() for x in tup))
        return stacked.rank() == k

    ops = _adjoint_operators(field, n, scan.coords)  # a tuple with a scalar member constrains nothing
    chains = [
        [ops[i] for i in tup]
        for tup in itertools.product(range(len(members)), repeat=k)
        if all(i in ops for i in tup) and admissible(tuple(members[i] for i in tup))
    ]
    return ad_kernel(field, n, chains)


# ---------------------------------------------------------------------------
# nilpotency reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundComparison:
    """Recorded (never asserted) comparison against the dimension bounds."""

    ambient_size: int
    dim: int
    measured_index: int | None
    index_dim_bound: int | None
    conjectured_bound: int
    within_index_bound: bool | None
    within_conjectured_bound: bool | None


@dataclass(frozen=True)
class NilpotencyReport:
    subject: SubsetLike
    is_lie_nilpotent: bool
    index: int | None
    is_omega_lie_nilpotent: bool
    dim: int
    chain: CentralizerChain
    bound_comparison: BoundComparison


def nilpotency_report(subject: SubsetLike) -> NilpotencyReport:
    """Least k with H contained in L_k(H), if any.

    The search is complete: levels stabilize by the ambient dimension d,
    and containment in the omega level coincides with Lie-nilpotency of
    some index <= d, so "not found by stabilization" means "not
    Lie-nilpotent".
    """
    scan = _members(subject)
    chain = centralizer_chain(scan)
    field, n, coords = scan.field, scan.n, scan.coords

    def holds_members(level: Subspace) -> bool:
        return all(map(level._span().contains, coords))

    index = next(
        (k for k in range(1, chain.stabilization_index + 1) if holds_members(chain.levels[k - 1])),
        None,
    )
    is_omega = holds_members(chain.omega)
    if (index is not None) != is_omega:
        raise AssertionError("omega-nilpotency must coincide with bounded index")
    if isinstance(subject, Subspace):
        dim = subject.dim
    else:
        dim = sum(map(SpanBuilder(field, n * n).insert, coords))
    g_bound = (
        nilpotent_subalgebra_dim_bound(n, index) if index is not None else None
    )
    conj = conjectured_dim_bound(n)
    bounds = BoundComparison(
        ambient_size=n,
        dim=dim,
        measured_index=index,
        index_dim_bound=g_bound,
        conjectured_bound=conj,
        within_index_bound=(dim <= g_bound) if g_bound is not None else None,
        within_conjectured_bound=(dim <= conj) if is_omega else None,
    )
    return NilpotencyReport(
        subject=subject,
        is_lie_nilpotent=index is not None,
        index=index,
        is_omega_lie_nilpotent=is_omega,
        dim=dim,
        chain=chain,
        bound_comparison=bounds,
    )


# ---------------------------------------------------------------------------
# dimension bounds and the extremal construction
# ---------------------------------------------------------------------------

def nilpotent_subalgebra_dim_bound(n: int, k: int) -> int:
    """Sharp upper bound for the dimension of a Lie-nilpotent subalgebra
    of index k inside the n-by-n matrices:

        (n^2 - (k+1-r) q^2 - r (q+1)^2) / 2 + 1,   n = (k+1) q + r.

    Equals the maximum of (n^2 - sum of part squares)/2 + 1 over all
    splittings of n into k+1 nonnegative parts (the balanced splitting
    maximizes).
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    q, r = divmod(n, k + 1)
    num = n * n - (k + 1 - r) * q * q - r * (q + 1) * (q + 1)
    if num % 2:
        raise AssertionError("bound numerator must be even")
    return num // 2 + 1


def conjectured_dim_bound(n: int) -> int:
    """Conjectural cap 1 + (n^2 - n)/2 for omega-Lie-nilpotent sub-Lie-
    algebras; recorded as evidence only, never asserted as a theorem."""
    if n < 1:
        raise ValueError("need n >= 1")
    return 1 + (n * n - n) // 2


def balanced_parts(n: int, pieces: int) -> tuple[int, ...]:
    """n split into `pieces` nearly equal positive parts (zeros dropped)."""
    if n < 1 or pieces < 1:
        raise ValueError("need n >= 1 and pieces >= 1")
    q, r = divmod(n, pieces)
    parts = (q + 1,) * r + (q,) * (pieces - r)
    return tuple(p for p in parts if p > 0)


def extremal_block_algebra(n: int, parts: Sequence[int], field=None) -> Subspace:
    """Scalar multiples of the identity plus all strictly-upper-block
    matrix units for the given diagonal block sizes.

    This realizes the dimension (n^2 - sum of part squares)/2 + 1 that the
    closed-form bound predicts for the matching index.
    """
    from .fields import Rationals

    parts = tuple(parts)
    if not parts or any((not isinstance(p, int)) or p < 1 for p in parts) or sum(parts) != n:
        raise InvalidComposition(f"{parts!r} is not a positive composition of {n}")
    if field is None:
        field = Rationals()
    gens = [Matrix.identity(field, n)]
    starts = [0]
    for p in parts:
        starts.append(starts[-1] + p)
    for bi in range(len(parts)):
        for bj in range(bi + 1, len(parts)):
            for a in range(starts[bi], starts[bi + 1]):
                for b in range(starts[bj], starts[bj + 1]):
                    gens.append(matrix_unit(field, n, a + 1, b + 1))
    return Subspace.span(gens)


# ---------------------------------------------------------------------------
# recorded-evidence probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosureIndexProbe:
    """Observed data for one subspace V: its own nilpotency index, and the
    dimension and index of the associative subalgebra V generates.

    Whether the generated subalgebra's index admits a bound f(k, d) is an
    open question; these records are evidence, not a claim.
    """

    ambient_dim: int
    subspace_dim: int
    subspace_index: int | None
    closure_dim: int
    closure_index: int | None


def associative_closure_probe(V: Subspace) -> ClosureIndexProbe:
    base = nilpotency_report(V)
    generated = closure(V.basis, "associative").subspace
    gen_report = nilpotency_report(generated)
    return ClosureIndexProbe(
        ambient_dim=V.ambient_dim,
        subspace_dim=V.dim,
        subspace_index=base.index,
        closure_dim=generated.dim,
        closure_index=gen_report.index,
    )


def bounds_table(max_n: int) -> list[tuple[int, int, int, int]]:
    """Rows (n, k, index-k dimension bound, conjectured omega bound) for
    1 <= k <= n <= max_n, at most ``ENUMERATION_GUARD`` of them."""
    if max_n < 1:
        raise MalformedJSON(f"table size max_n must be positive, got {max_n}")
    count = max_n * (max_n + 1) // 2
    check_guard(count, f"{count} rows for max_n={max_n}")
    return [
        (n, k, nilpotent_subalgebra_dim_bound(n, k), conjectured_dim_bound(n))
        for n in range(1, max_n + 1)
        for k in range(1, n + 1)
    ]
