"""Dense exact matrices over one field, with the eliminations the rest of
the package is built on: reduced row-echelon form, kernels, inverses, and
the standard generator matrices (units, shift, cyclic permutation) plus the
symplectic involution.

``SpanBuilder`` is the package's one Gauss-Jordan elimination: RREF,
kernels, inverses and every canonical span in ``subspaces`` run on it, and
``SpanBuilder.contains`` tests membership against its rows, as every
``Subspace`` does.  Its rows are sparse dicts in the builder's
coordinates: fraction-free integers over Q (``_RationalSpanBuilder``),
residues over GF(p) (``_ResidueSpanBuilder``) and raw values over
GF(p^m).  ``SpanBuilder.apply`` forms an operator's image in the same
coordinates, and ``insert(vec, op)`` and ``contains(vec, op)`` reduce it
as they form it: the closure's products and certificate and the
centralizer levels' images go through them.  ``SpanBuilder.kernel``
reads the kernel of the rows off them, the one kernel reader:
``annihilator`` keeps its vectors in a builder, while
``Matrix.kernel_vectors`` and ``subspaces.preimage`` take their raw
values.  A kernel vector with a single entry is the unit of a free
column that no row touches, already a reduced row with that pivot, and
no other kernel vector has an entry there, so ``annihilator`` takes it
as it is and ``insert``s only the others.  For the zero span, whose
annihilator seeds every centralizer level L_1, that is every kernel
vector: O(length), where inserts that each scan every earlier row for
back-substitution cost O(length^2).
Everywhere else Q entries are ``Fraction``s; a row over denominator 1
becomes them with no gcd (``_raw_items``).

Entries are stored as raw field values in nested tuples; a matrix never
mutates after construction.  Matrix units use the 1-based mathematical
convention ``E(i, j)``; plain element access is 0-based Python.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import attrgetter
from typing import Sequence

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    OddDimension,
    SingularMatrix,
)
from .fields import _FRAC_ONE, Field, FieldAutomorphism, PrimeField, Rationals, Scalar


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field: Field, rows: Sequence[Sequence]):
        data = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        if not data or not data[0]:
            raise DimensionMismatch("matrices must have positive dimensions")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise DimensionMismatch("ragged rows")
        self.field = field
        self.nrows = len(data)
        self.ncols = width
        self.entries = data

    @classmethod
    def _make(cls, field: Field, data: tuple) -> "Matrix":
        """Internal fast path: data is already a tuple-of-tuples of raws."""
        m = object.__new__(cls)
        m.field = field
        m.nrows = len(data)
        m.ncols = len(data[0])
        m.entries = data
        return m

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int | None = None) -> "Matrix":
        ncols = nrows if ncols is None else ncols
        z = field.zero
        return Matrix._make(field, tuple((z,) * ncols for _ in range(nrows)))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix._make(
            field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
        )

    @staticmethod
    def from_vector(field: Field, nrows: int, ncols: int, vec: Sequence) -> "Matrix":
        vec = tuple(vec)
        if len(vec) != nrows * ncols:
            raise DimensionMismatch(
                f"vector of length {len(vec)} cannot fill {nrows}x{ncols}"
            )
        return Matrix._make(
            field,
            tuple(vec[r * ncols : (r + 1) * ncols] for r in range(nrows)),
        )

    # -- basics ---------------------------------------------------------------

    def _check_same_space(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return Scalar(self.field, self.entries[i][j])

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_space(other)
        add = self.field.add
        return Matrix._make(
            self.field,
            tuple(
                tuple(add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_space(other)
        sub = self.field.sub
        return Matrix._make(
            self.field,
            tuple(
                tuple(sub(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix._make(
            self.field, tuple(tuple(neg(a) for a in row) for row in self.entries)
        )

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        mul = self.field.mul
        return Matrix._make(
            self.field, tuple(tuple(mul(c, a) for a in row) for row in self.entries)
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.field != other.field:
                raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
            if self.ncols != other.nrows:
                raise DimensionMismatch(
                    f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}"
                )
            dot = self.field.dot
            cols = tuple(zip(*other.entries))
            return Matrix._make(
                self.field,
                tuple(tuple(dot(row, col) for col in cols) for row in self.entries),
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, e: int) -> "Matrix":
        if not self.is_square:
            raise DimensionMismatch("powers need a square matrix")
        if e < 0:
            raise ValueError("negative powers are not supported; invert first")
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return Matrix.identity(self.field, self.nrows) if result is None else result

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        fmt = self.field.format_scalar
        rows = "; ".join(" ".join(fmt(a) for a in row) for row in self.entries)
        return f"<{self.nrows}x{self.ncols} over {self.field!r}: {rows}>"

    def is_zero(self) -> bool:
        z = self.field.is_zero
        return all(z(a) for row in self.entries for a in row)

    # -- shape-level operations ------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix._make(self.field, tuple(zip(*self.entries)))

    def trace(self) -> Scalar:
        return Scalar(self.field, self.trace_raw())

    def trace_raw(self):
        if not self.is_square:
            raise DimensionMismatch("trace needs a square matrix")
        add = self.field.add
        acc = self.field.zero
        for i in range(self.nrows):
            acc = add(acc, self.entries[i][i])
        return acc

    def vectorize(self) -> tuple:
        """Row-major flattening; the single vectorization convention
        shared by subspaces, closures, and centralizers."""
        return tuple(a for row in self.entries for a in row)

    def map_entries(self, f: FieldAutomorphism) -> "Matrix":
        apply = f.apply
        F = self.field
        return Matrix._make(
            F, tuple(tuple(apply(F, a) for a in row) for row in self.entries)
        )

    def column(self, j: int) -> "Matrix":
        """Column j (0-based) as an n-by-1 matrix."""
        return Matrix._make(self.field, tuple((row[j],) for row in self.entries))

    # -- eliminations -----------------------------------------------------------

    def rref(self) -> tuple["Matrix", int, list[int]]:
        """Reduced row-echelon form, rank, and 0-based pivot columns."""
        rows = [list(r) for r in self.entries]
        pivots = _rref_in_place(rows, self.field)
        R = Matrix._make(self.field, tuple(tuple(r) for r in rows))
        return R, len(pivots), pivots

    def kernel_vectors(self) -> list["Matrix"]:
        """Basis of the right kernel as column vectors.

        Deterministic parametric form: one vector per free column in
        increasing order, with that free variable set to 1
        (``SpanBuilder.kernel``).
        """
        span = _span_of(self.field, self.ncols, self.entries)
        return [
            Matrix._make(self.field, tuple((a,) for a in span._dense(v, f)))
            for f, v in span.kernel()
        ]

    def rank(self) -> int:
        return _span_of(self.field, self.ncols, self.entries).dim

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise DimensionMismatch("inverse needs a square matrix")
        F = self.field
        n = self.nrows
        z, o = F.zero, F.one
        aug = [
            list(self.entries[i]) + [o if j == i else z for j in range(n)]
            for i in range(n)
        ]
        pivots = _rref_in_place(aug, F)
        if pivots != list(range(n)):
            raise SingularMatrix(f"rank {len(pivots)} < {n}")
        inv = Matrix._make(F, tuple(tuple(row[n:]) for row in aug))
        if (self * inv) != Matrix.identity(F, n):
            raise AssertionError("inverse verification failed")
        return inv


def _rref_in_place(rows: list[Sequence], field: Field) -> list[int]:
    """Reduced row-echelon form of raw-valued rows, in place: the rows go
    through a ``SpanBuilder`` and come back sorted by pivot, zero rows last.
    Returns the pivot columns in increasing order."""
    builder = _span_of(field, len(rows[0]) if rows else 0, rows)
    rows[:] = builder.sorted_rows() + ((field.zero,) * builder.length,) * (len(rows) - builder.dim)
    return sorted(builder.by_pivot)


def _span_of(field: Field, length: int, rows) -> "SpanBuilder":
    """A ``SpanBuilder`` of the given vectors."""
    builder = SpanBuilder(field, length)
    for row in rows:
        builder.insert(row)
    return builder


SparseVec = dict  # column (row-major i*n + k for a matrix) -> nonzero value
SparseMap = tuple  # (units, rows, cols): unit idx maps as ``lie._operator`` says


def _sparse(field: Field, vec: Sequence) -> SparseVec:
    """A dense vector of raw values as a sparse one."""
    is_zero = field.is_zero
    return {i: a for i, a in enumerate(vec) if not is_zero(a)}


def _apply(field: Field, op: SparseMap, vec: SparseVec) -> SparseVec:
    """op(vec) on raw values."""
    units, rows, cols = op
    add, mul = field.add, field.mul
    out: SparseVec = {}
    for idx, a in vec.items():
        i, k = units[idx]
        for d, b in rows[k] + cols[i]:
            key = idx + d
            out[key] = add(out[key], mul(a, b)) if key in out else mul(a, b)
    return {key: a for key, a in out.items() if not field.is_zero(a)}


def _int_sums(op: SparseMap, vec: SparseVec) -> SparseVec:
    """op(vec) as plain int sums, zeros included, for an ``op`` on integer
    coordinates."""
    units, rows, cols = op
    out: SparseVec = {}
    get = out.get
    for idx, a in vec.items():
        i, k = units[idx]
        for d, b in rows[k] + cols[i]:
            key = idx + d
            out[key] = get(key, 0) + a * b
    return out


class SpanBuilder:
    """Incrementally maintained RREF span of vectors.

    ``insert`` reduces a vector against the current rows, and on growth
    normalizes it and back-substitutes into the existing rows, so the rows
    stay a reduced echelon basis at all times.  ``by_pivot`` holds them by
    pivot column, in insertion order; ``sorted_rows`` sorts them by pivot and
    reads the canonical basis off.  ``contains`` is the reduction alone, a
    membership test that leaves the span as it is.  A vector with one
    nonzero entry whose column's row has one entry is a multiple of that
    row, a unit in the span: ``insert`` and ``contains`` settle it with no
    copy and no elimination (``_reduced``).  Most images of a centralizer
    level are such units.

    A row is a sparse dict from column to nonzero coordinate.  The rows are
    in reduced echelon form, so subtracting one from a vector leaves the
    vector's other pivot coordinates alone: a vector is reduced once by the
    row of each pivot column it starts with, and the work is in the rows'
    nonzeros, not in the dimension of the span.

    A vector is a dense sequence of raw values, or a sparse dict in the
    builder's own coordinates (``coordinates``); ``apply`` forms an
    operator's image in the same coordinates, so the closure engine works in
    them throughout.  Given an operator too, ``insert(vec, op)`` and
    ``contains(vec, op)`` work on ``apply(op, vec)``, reduced from the fresh
    dict of ``_image``: over Q and GF(p) the operator's int sums as they
    are, with no mod-p pass, zero filter or content gcd and no copy, which
    ``_eliminate`` takes as well as the finished image (over Q a multiple
    of it spans the same line); over GF(p^m) the image itself, not copied.
    A sum of one entry settles as a one-entry vector does, and a zero sum
    is the zero image.
    ``SpanBuilder(field, length)`` picks the coordinates from the field:

    - Q: ``_RationalSpanBuilder``, fraction-free integer rows;
    - GF(p): ``_ResidueSpanBuilder``, residue rows and int arithmetic;
    - GF(p^m): this class, raw values and the field's arithmetic.
    """

    def __new__(cls, field: Field, length: int):
        if cls is SpanBuilder:
            if isinstance(field, Rationals):
                cls = _RationalSpanBuilder
            elif isinstance(field, PrimeField):
                cls = _ResidueSpanBuilder
        return object.__new__(cls)

    def __init__(self, field: Field, length: int):
        self.field = field
        self.length = length
        self.by_pivot: dict[int, dict] = {}  # pivot column -> row

    @property
    def dim(self) -> int:
        return len(self.by_pivot)

    @property
    def rows(self) -> list[dict]:
        return list(self.by_pivot.values())

    @property
    def pivots(self) -> list[int]:
        return list(self.by_pivot)

    def insert(self, vec: Sequence | SparseVec, op: SparseMap | None = None) -> bool:
        """Add ``vec``, or ``op(vec)``, to the span; True if the dimension
        grew."""
        w = self._reduced(vec, op)
        if not w:
            return False
        self._add_row(w, min(w))
        return True

    def contains(self, vec: Sequence | SparseVec, op: SparseMap | None = None) -> bool:
        """Whether ``vec``, or ``op(vec)``, lies in the span; the span does
        not change."""
        return not self._reduced(vec, op)

    def _reduced(self, vec: Sequence | SparseVec, op: SparseMap | None) -> SparseVec:
        """``vec``, or ``op(vec)``, reduced against the rows; empty iff it
        lies in the span.  The image is ``_image``'s fresh dict and a dense
        vector is scanned into a fresh one, both reduced as they are; a
        caller's dict is copied first.  A one-entry vector whose column's
        row has one entry too is a multiple of that row, a unit, so it is
        settled with no copy and no elimination (``*w`` is its one column)."""
        if op is not None:
            w = self._image(op, vec)
        elif isinstance(vec, dict):
            w = vec
        else:
            w = self.coordinates(_sparse(self.field, vec))
        if len(w) == 1 and len(self.by_pivot.get(*w, ())) == 1:
            return {}
        return self._eliminate(dict(w) if w is vec else w)

    def coordinates(self, vec: SparseVec) -> SparseVec:
        """The builder's coordinates of a sparse vector of raw values: here
        the raw values themselves."""
        return vec

    def apply(self, op: SparseMap, vec: SparseVec) -> SparseVec:
        """op(vec) in the builder's coordinates, for an ``op`` with
        coefficients in those coordinates too."""
        return _apply(self.field, op, vec)

    # op(vec) as a fresh dict that ``_eliminate`` may take as it is: here
    # the image itself
    _image = apply

    def _eliminate(self, w: SparseVec) -> SparseVec:
        F, by_pivot = self.field, self.by_pivot
        submul, zero = F.vec_submul, F.zero
        get = w.get
        for q in [j for j in w if j in by_pivot]:
            row = by_pivot[q]
            u = list(map(get, row, repeat(zero)))
            w.update(zip(row, submul(u, w[q], row.values())))
        return {j: x for j, x in w.items() if x != zero}

    def _add_row(self, w: SparseVec, pivot: int) -> None:
        """Add a reduced vector with its first nonzero entry at ``pivot``,
        normalized, and clear that column in the other rows."""
        F, by_pivot = self.field, self.by_pivot
        submul, zero = F.vec_submul, F.zero
        c = w[pivot]
        if c != F.one:
            w = dict(zip(w, F.vec_scale(w.values(), F.inv(c))))
        for row in by_pivot.values():
            c = row.get(pivot)
            if c is not None:
                new = submul(list(map(row.get, w, repeat(zero))), c, w.values())
                row.update(zip(w, new))
                for j in compress(w, map(zero.__eq__, new)):
                    del row[j]
        by_pivot[pivot] = w

    def kernel(self):
        """Yield (f, v) for each free column f in increasing order: v is the
        vector of {v : sum row_j v_j = 0 for every row} with v_f = 1 and 0
        at the other free columns, in the builder's coordinates.  The rows
        are reduced, so v is read off their entries in column f:
        v_q = -row_q[f] / row_q[q] for each pivot q (``_kernel_vector``)."""
        by_pivot = self.by_pivot
        in_column: dict[int, list] = {}  # free column -> [(pivot, entry)]
        for q, row in by_pivot.items():
            for j, x in row.items():
                if j != q:
                    in_column.setdefault(j, []).append((q, x))
        for f in range(self.length):
            if f not in by_pivot:
                yield f, self._kernel_vector(f, in_column.get(f, ()))

    def annihilator(self) -> "SpanBuilder":
        """A builder of the same class spanning the ``kernel`` vectors, in
        the same coordinates.  A kernel vector with a single entry is the
        unit e_f of a free column f that no row touches, so no other kernel
        vector has an entry at f: e_f is a reduced row with pivot f, and
        inserting the others neither changes it nor reduces them by it.
        The builder takes each such vector as it is and inserts the others,
        in kernel order, so it keeps the rows, and their order, that
        inserting every kernel vector gives; for the zero span, no row at
        all, every kernel vector is a unit."""
        perp = SpanBuilder(self.field, self.length)
        for f, v in self.kernel():
            if len(v) == 1:
                perp.by_pivot[f] = v
            else:
                perp.insert(v)
        return perp

    def _kernel_vector(self, f: int, entries) -> SparseVec:
        """The kernel vector of free column f, given the (pivot q, row_q[f])
        pairs of the rows with an entry in that column."""
        neg = self.field.neg
        return {f: self.field.one, **{q: neg(x) for q, x in entries}}

    def _raw_items(self, row: SparseVec, pivot: int):
        """The (column, raw value) pairs of a row, or of a kernel vector
        with its free column as ``pivot``."""
        return row.items()

    def _dense(self, row: SparseVec, pivot: int) -> tuple:
        """A row, or a kernel vector, as a dense tuple of raw values."""
        dense = [self.field.zero] * self.length
        for j, a in self._raw_items(row, pivot):
            dense[j] = a
        return tuple(dense)

    def sorted_rows(self) -> tuple[tuple, ...]:
        return tuple(self._dense(self.by_pivot[p], p) for p in sorted(self.by_pivot))


class _ResidueSpanBuilder(SpanBuilder):
    """``SpanBuilder`` over GF(p) on residue rows with pivot entry 1.

    A vector is reduced with plain int arithmetic, w[j] - c·y for each
    nonzero y of a row, and taken mod p once per coordinate at the end;
    ``apply`` sums as ints too and takes each sum mod p once, and
    ``_image`` leaves the sums as they are, for ``_eliminate``'s one pass.
    """

    def apply(self, op: SparseMap, vec: SparseVec) -> SparseVec:
        p = self.field.p
        return {key: r for key, x in _int_sums(op, vec).items() if (r := x % p)}

    _image = staticmethod(_int_sums)

    def _kernel_vector(self, f: int, entries) -> SparseVec:
        p = self.field.p
        return {f: 1, **{q: p - x for q, x in entries}}

    def _eliminate(self, w: SparseVec) -> SparseVec:
        p, by_pivot = self.field.p, self.by_pivot
        get = w.get
        for q in [j for j in w if j in by_pivot]:
            c = w[q]
            for j, y in by_pivot[q].items():
                w[j] = get(j, 0) - c * y
        return {j: r for j, x in w.items() if (r := x % p)}

    def _add_row(self, w: SparseVec, pivot: int) -> None:
        p, by_pivot = self.field.p, self.by_pivot
        c = w[pivot]
        if c != 1:
            c = pow(c, -1, p)
            w = {j: x * c % p for j, x in w.items()}
        for row in by_pivot.values():
            c = row.get(pivot)
            if c:
                for j, y in w.items():
                    x = (row.get(j, 0) - c * y) % p
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        by_pivot[pivot] = w


class _RationalSpanBuilder(SpanBuilder):
    """``SpanBuilder`` over Q on fraction-free integer rows.

    The coordinates of a vector are the integers of its primitive multiple,
    which spans the same line.  A row is a primitive integer vector.  Its
    pivot entry is positive and is the row's denominator: the row's value
    is ``row / row[pivot]``, so the reduced echelon basis is kept exactly,
    with one denominator per row.

    A vector is reduced by integer cross-multiplication, w <- (d/g)·w -
    (c/g)·row with g = gcd(d, c) for the row's denominator d and the entry
    c of w at the row's pivot (no rescaling of w when d divides c), and
    divided by its content once, when it becomes a row.  Back-substitution
    into the existing rows works the same way, and divides each changed
    row by its content.  ``_raw_items`` is the one place where entries
    become ``Fraction``s: a row over denominator 1 holds its values as
    they are, so they need no gcd, and its ±1 entries share one
    ``Fraction`` each.
    """

    def coordinates(self, vec: SparseVec) -> SparseVec:
        den = lcm(*map(_denominator, vec.values()))
        if den == 1:
            return _primitive({j: a._numerator for j, a in vec.items()})
        return _primitive({j: a._numerator * (den // a._denominator) for j, a in vec.items()})

    def apply(self, op: SparseMap, vec: SparseVec) -> SparseVec:
        """op(vec) divided by its content."""
        return _primitive({key: x for key, x in _int_sums(op, vec).items() if x})

    _image = staticmethod(_int_sums)  # a multiple of the image serves as well

    def _kernel_vector(self, f: int, entries) -> SparseVec:
        """Scaled by the lcm L of the rows' denominators d_q = row_q[q], so
        its entry L at f is its denominator, as a row's pivot entry is."""
        by_pivot = self.by_pivot
        den = lcm(*(by_pivot[q][q] for q, _ in entries))
        return {f: den, **{q: -(den // by_pivot[q][q]) * x for q, x in entries}}

    def _eliminate(self, w: SparseVec) -> SparseVec:
        by_pivot = self.by_pivot
        for q in [j for j in w if j in by_pivot]:
            row = by_pivot[q]
            c, d = w[q], row[q]
            g = gcd(d, c)
            c //= g
            if d != g:
                m = d // g
                w = {j: x * m for j, x in w.items()}
            get = w.get
            for j, y in row.items():
                w[j] = get(j, 0) - c * y
        return {j: x for j, x in w.items() if x}

    def _add_row(self, v: SparseVec, pivot: int) -> None:
        g = gcd(*v.values())
        if v[pivot] < 0:
            g = -g
        new = {j: x // g for j, x in v.items()} if g != 1 else v
        d = new[pivot]
        by_pivot = self.by_pivot
        for q, row in by_pivot.items():
            c = row.get(pivot)
            if c:
                g = gcd(d, c)
                c //= g
                if d != g:
                    m = d // g
                    row = {j: x * m for j, x in row.items()}
                for j, y in new.items():
                    x = row.get(j, 0) - c * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                if row[q] != 1:  # the content divides the pivot entry
                    row = _primitive(row)
                by_pivot[q] = row
        by_pivot[pivot] = new

    def _raw_items(self, row: SparseVec, pivot: int):
        d = row[pivot]
        if d == 1:  # integer entries: no gcd, and the units shared
            return ((j, _UNIT_FRACTIONS.get(x) or Fraction(x)) for j, x in row.items())
        return ((j, Fraction(x, d)) for j, x in row.items())


def _primitive(w: SparseVec) -> SparseVec:
    """An integer vector divided by its content."""
    g = gcd(*w.values())
    return {j: x // g for j, x in w.items()} if g > 1 else w


_denominator = attrgetter("_denominator")  # Fraction's slot, behind its property
_UNIT_FRACTIONS = {1: _FRAC_ONE, -1: -_FRAC_ONE}


# ---------------------------------------------------------------------------
# standard generators
# ---------------------------------------------------------------------------

def matrix_unit(field: Field, n: int, i: int, j: int) -> Matrix:
    """E(i, j): a single 1 at row i, column j (1-based)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"unit index ({i},{j}) outside [1,{n}]")
    z, o = field.zero, field.one
    return Matrix._make(
        field,
        tuple(
            tuple(o if (r == i - 1 and c == j - 1) else z for c in range(n))
            for r in range(n)
        ),
    )


def upper_shift(field: Field, n: int) -> Matrix:
    """The superdiagonal shift E(1,2) + E(2,3) + ... + E(n-1,n)."""
    z, o = field.zero, field.one
    return Matrix._make(
        field,
        tuple(tuple(o if c == r + 1 else z for c in range(n)) for r in range(n)),
    )


def cyclic_permutation(field: Field, n: int) -> Matrix:
    """The full-cycle permutation matrix: upper shift plus E(n,1)."""
    z, o = field.zero, field.one
    return Matrix._make(
        field,
        tuple(
            tuple(o if (c == r + 1 or (r == n - 1 and c == 0)) else z for c in range(n))
            for r in range(n)
        ),
    )


def basis_unit_vector(field: Field, n: int, i: int) -> Matrix:
    """e_i as an n-by-1 column (1-based)."""
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"index {i} outside [1,{n}]")
    z, o = field.zero, field.one
    return Matrix._make(field, tuple((o if r == i - 1 else z,) for r in range(n)))


def symplectic_involution(x: Matrix) -> Matrix:
    """The standard symplectic involution on 2m-by-2m matrices.

    In m-by-m blocks it sends [[U, P], [Q, V]] to
    [[V^T, -P^T], [-Q^T, U^T]]; it is an anti-automorphism of order two.
    """
    if not x.is_square:
        raise DimensionMismatch("symplectic involution needs a square matrix")
    n = x.nrows
    if n % 2:
        raise OddDimension(f"size {n} is odd")
    m = n // 2
    e = x.entries
    neg = x.field.neg
    rows = []
    for r in range(m):
        # row r of [V^T | -P^T]: V^T[r][c] = V[c][r] = e[m+c][m+r]
        rows.append(
            tuple(e[m + c][m + r] for c in range(m))
            + tuple(neg(e[c][m + r]) for c in range(m))
        )
    for r in range(m):
        # row r of [-Q^T | U^T]: Q^T[r][c] = Q[c][r] = e[m+c][r]
        rows.append(
            tuple(neg(e[m + c][r]) for c in range(m))
            + tuple(e[c][r] for c in range(m))
        )
    return Matrix._make(x.field, tuple(rows))


def scalar_multiple_of_identity(x: Matrix):
    """Return the raw scalar c with x = c*I, or None if x is not scalar."""
    if not x.is_square:
        return None
    F = x.field
    c = x.entries[0][0]
    for i in range(x.nrows):
        row = x.entries[i]
        for j in range(x.ncols):
            if i == j:
                if row[j] != c:
                    return None
            elif not F.is_zero(row[j]):
                return None
    return c
