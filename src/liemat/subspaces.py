"""Canonical subspaces of matrix (or column-vector) spaces.

A subspace is stored as the unique reduced row-echelon basis of the
row-major vectorizations of its elements, so equality of subspaces is
structural equality of bases and every construction is reproducible
bit-for-bit regardless of generator order.  Every basis is reduced by
``matrices.SpanBuilder``, the package's one elimination, and membership
and pivots are answered by a builder of the rows: the one that made the
subspace, kept by ``Subspace._of``, or one built from the rows on first
use.  V^⊥ is read off that builder's rows (``SpanBuilder.annihilator``),
and V and V^⊥ each keep the other's builder.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import MixedShapes
from .fields import Field
from .matrices import Matrix, SpanBuilder, _span_of


class Subspace:
    """A linear subspace of the matrices of one shape over one field."""

    __slots__ = ("field", "shape", "rows", "_basis_cache", "_builder", "_perp")

    def __init__(self, field: Field, shape: tuple[int, int], rows: tuple[tuple, ...]):
        self.field = field
        self.shape = shape
        self.rows = rows
        self._basis_cache = None
        self._builder = None
        self._perp = None  # the builder of the annihilator, once known

    @staticmethod
    def _of(builder: SpanBuilder, shape: tuple[int, int], perp: SpanBuilder | None = None) -> "Subspace":
        """The span of ``builder``, which the subspace keeps for its
        membership tests, and ``perp`` if it spans the annihilator; nothing
        may insert into either builder afterwards."""
        space = Subspace(builder.field, shape, builder.sorted_rows())
        space._builder = builder
        space._perp = perp
        return space

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def span(
        generators: Iterable[Matrix],
        *,
        field: Field | None = None,
        shape: tuple[int, int] | None = None,
    ) -> "Subspace":
        """Smallest subspace containing the generators.

        ``field``/``shape`` fix the ambient space when the generator list
        may be empty.
        """
        gens = list(generators)
        if gens:
            if field is not None and field != gens[0].field:
                raise MixedShapes("explicit field conflicts with the generators")
            if shape is not None and shape != (gens[0].nrows, gens[0].ncols):
                raise MixedShapes("explicit shape conflicts with the generators")
            field = gens[0].field
            shape = (gens[0].nrows, gens[0].ncols)
        elif field is None or shape is None:
            raise MixedShapes("empty span needs an explicit ambient space")
        builder = SpanBuilder(field, shape[0] * shape[1])
        for g in gens:
            if g.field != field or (g.nrows, g.ncols) != shape:
                raise MixedShapes(
                    f"generator {g.nrows}x{g.ncols}/{g.field!r} in ambient "
                    f"{shape}/{field!r}"
                )
            builder.insert(g.vectorize())
        return Subspace._of(builder, shape)

    @staticmethod
    def zero(field: Field, shape: tuple[int, int]) -> "Subspace":
        return Subspace(field, shape, ())

    @staticmethod
    def full(field: Field, shape: tuple[int, int]) -> "Subspace":
        n = shape[0] * shape[1]
        z, o = field.zero, field.one
        rows = tuple(
            tuple(o if j == i else z for j in range(n)) for i in range(n)
        )
        return Subspace(field, shape, rows)

    # -- inspection -------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def ambient_dim(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    @property
    def basis(self) -> list[Matrix]:
        if self._basis_cache is None:
            r, c = self.shape
            self._basis_cache = [
                Matrix.from_vector(self.field, r, c, row) for row in self.rows
            ]
        return self._basis_cache

    def _check_ambient(self, other: "Subspace") -> None:
        if self.field != other.field or self.shape != other.shape:
            raise MixedShapes(f"{self.shape}/{self.field!r} vs {other.shape}/{other.field!r}")

    def _span(self) -> SpanBuilder:
        """The builder of the rows, made from them on first use."""
        if self._builder is None:
            self._builder = _span_of(self.field, self.ambient_dim, self.rows)
        return self._builder

    def _perp_span(self) -> SpanBuilder:
        """The builder of the annihilator, made from ``_span`` on first use."""
        if self._perp is None:
            self._perp = self._span().annihilator()
        return self._perp

    @property
    def pivots(self) -> tuple[int, ...]:
        """The leading column of each row."""
        return tuple(sorted(self._span().by_pivot))

    def contains_vec(self, vec: Sequence) -> bool:
        return self._span().contains(vec)

    def contains(self, x: Matrix) -> bool:
        if x.field != self.field or (x.nrows, x.ncols) != self.shape:
            raise MixedShapes("element shape does not match the ambient space")
        return self.contains_vec(x.vectorize())

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vec(row) for row in other.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.shape, self.rows))

    def __repr__(self):
        return f"<subspace dim {self.dim} of {self.shape[0]}x{self.shape[1]} over {self.field!r}>"

    # -- lattice operations -------------------------------------------------------

    def annihilator(self) -> "Subspace":
        """V^⊥ = {f : sum f_i v_i = 0 for every v in V}, in the same ambient
        shape: the kernel of the RREF rows, canonicalized like any span.
        The pairing is nondegenerate, so (V^⊥)^⊥ = V, which costs no
        elimination, and dim V + dim V^⊥ is the ambient dimension."""
        return Subspace._of(self._perp_span(), self.shape, perp=self._span())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        builder = _span_of(self.field, self.ambient_dim, self.rows + other.rows)
        return Subspace._of(builder, self.shape)

    __or__ = sum

    def intersect(self, other: "Subspace") -> "Subspace":
        """U ∩ W = (U^⊥ + W^⊥)^⊥."""
        self._check_ambient(other)
        return self.annihilator().sum(other.annihilator()).annihilator()

    __and__ = intersect


def kernel(x: Matrix) -> Subspace:
    """The right kernel {v : Xv = 0} as a subspace of column vectors."""
    return Subspace.span(
        x.kernel_vectors(), field=x.field, shape=(x.ncols, 1)
    )


def preimage(
    domain_basis: Sequence[Matrix],
    images: Sequence[Matrix],
    target: Subspace,
) -> Subspace:
    """{v in span(domain_basis) : L(v) in target} for the linear map L
    sending domain_basis[i] to images[i].

    One kernel computation on the stacked system: coefficients c over the
    domain basis and t over the target basis with
    sum c_i vec(images[i]) - sum t_j b_j = 0, read off a ``SpanBuilder`` of
    its rows (``SpanBuilder.kernel``).
    """
    if len(domain_basis) != len(images):
        raise MixedShapes("domain basis and image list differ in length")
    if not domain_basis:
        return Subspace.zero(target.field, target.shape)
    F = domain_basis[0].field
    dom_shape = (domain_basis[0].nrows, domain_basis[0].ncols)
    for m in domain_basis:
        if m.field != F or (m.nrows, m.ncols) != dom_shape:
            raise MixedShapes("mixed shapes in domain basis")
    for m in images:
        if m.field != target.field or (m.nrows, m.ncols) != target.shape:
            raise MixedShapes("image outside the target's ambient space")
    if target.is_full:
        return Subspace.span(domain_basis)
    r = len(domain_basis)
    img_vecs = [m.vectorize() for m in images]
    neg = F.neg
    rows = (
        [v[k] for v in img_vecs] + [neg(b[k]) for b in target.rows]
        for k in range(target.ambient_dim)
    )
    system = _span_of(F, r + target.dim, rows)
    out = []
    for f, sol in system.kernel():
        terms = [domain_basis[i].scale(c) for i, c in system._raw_items(sol, f) if i < r]
        if terms:
            out.append(sum(terms[1:], terms[0]))
    return Subspace.span(out, field=F, shape=dom_shape)
