"""Constructive recovery of conjugating matrices.

An additive map on the n-by-n matrices is represented by the images of
the n^2 matrix units, optionally together with an entrywise field
automorphism twist (for maps that are only semilinear over the field).

For a genuine automorphism the conjugator is rebuilt, Skolem-Noether
style, from just two images.  phi(E_{n,1}) = c r^T has rank 1, so with
u = phi(S)^(n-1) c the matrix M = phi(S)^(n-1) phi(E_{n,1}) is u r^T:
I - M is singular exactly when r.u = 1, and its kernel is then the line
through u.  With lambda the last nonzero entry of u,

    A = [ phi(S)^(n-1) c | phi(S)^(n-2) c | ... | c ] / lambda,

and then phi(X) = A X A^(-1) throughout.  The Krylov sequence c, phi(S) c,
..., phi(S)^n c carries the construction and the check of the two
generator images: n matrix-vector products and no matrix power.  Once
the check passes, the left sequence lambda r^T phi(S)^k, k < n, is the
rows of A^(-1), so a verified recovery does no elimination at all.

Anti-automorphisms run the same pipeline on the transposed generators
S^T and E_{1,n} and conjugate X^T.  Since S, E_{n,1}, S^T, E_{1,n} have
only 0/1 entries, an entrywise twist is invisible on the inputs and the
construction carries over verbatim.  ``recover`` is that one pipeline,
and the four ``recover_*`` functions are aliases that call it with their
direction; the two untwisted ones refuse a twisted map first.

Every recovery re-verifies the conjugation formula on all n^2 units once
the two generator images verify; the ``verified`` flag is never assumed.
Row r of A E(i,j) A^(-1) is A[r][i] times row j of A^(-1), so the
n^4-entry unit table has at most n*d distinct rows, d the number of
distinct entries of A.  The check certifies the first image row of each
with ``is_scaled`` and compares the repeats with it; ``conjugation_map``
forms each row once and shares it.  Conjugators are unique only up to a
nonzero scalar.

A map document as read (``jsonio.UnparsedMap``) goes through the same
pipeline: only the n images that phi(S) and phi(E(n,1)) need are parsed,
and every other row is certified on its texts by ``Field.texts_scaled``,
or parsed where that kernel cannot tell.  A failure parses the whole
document first, so a bad scalar text outranks a recovery error, as it
does when the map is parsed before it is recovered.

Verification is also the certificate for the decomposition of a Lie
automorphism psi as sigma + c*tr(.)*I: sigma is recovered from the
shifted unit images psi(E(i,j)) - c*delta_ij*I, for sigma an automorphism
(eps = 1) or the negative of an anti-automorphism (eps = -1).  A branch
that verifies proves that form, and every map of that form preserves
brackets.  It is bijective iff psi(I) = (eps + n*c)*I = tr(psi(E(1,1)))*I
is nonzero.  ``classify_map`` reads both ring kinds off ``recover`` and
checks brackets only against a Lie generating set of units.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Callable, Literal

from .errors import (
    CharacteristicDividesN,
    DimensionMismatch,
    FieldMismatch,
    LiematError,
    MixedShapes,
    NotAnAntiAutomorphism,
    NotAnAutomorphism,
    NotAnAutomorphismImagePair,
    NotATwistedAntiAutomorphism,
    NotATwistedAutomorphism,
    NotDecomposable,
    ResidualNotScalar,
    SingularMatrix,
    check_guard,
)
from .fields import Field, FieldAutomorphism, Scalar
from .matrices import Matrix, matrix_unit, scalar_multiple_of_identity

if TYPE_CHECKING:
    from .jsonio import UnparsedMap

SCALAR_CLASS_NOTE = "any nonzero scalar multiple of the conjugator verifies identically"


class AlgebraMap:
    """An additive map on n-by-n matrices, given by its unit images.

    The map acts as X |-> sum f(x_ij) * images[i,j] where f is the twist
    (identity unless the map is semilinear).  Nothing structural beyond
    additivity is assumed; multiplicativity and friends are classified or
    verified, never taken on faith.
    """

    __slots__ = ("n", "field", "images", "twist")

    def __init__(
        self,
        n: int,
        field: Field,
        images: tuple[Matrix, ...],
        twist: FieldAutomorphism | None = None,
    ):
        if len(images) != n * n:
            raise MixedShapes(f"expected {n * n} unit images, got {len(images)}")
        for m in images:
            if m.field != field:
                raise FieldMismatch("image field differs from the map's field")
            if m.nrows != n or m.ncols != n:
                raise DimensionMismatch("image is not n-by-n")
        self.n = n
        self.field = field
        self.images = images
        self.twist = twist if twist is not None else FieldAutomorphism.identity()
        self.twist.check_field(field)

    @staticmethod
    def from_function(
        n: int,
        field: Field,
        fn: Callable[[Matrix], Matrix],
        twist: FieldAutomorphism | None = None,
    ) -> "AlgebraMap":
        """E(i, j) -> fn(E(i, j)): n^4 scalars, refused past the guard."""
        check_guard(n**4, f"{n**4} scalars of the {n * n} unit images")
        images = tuple(
            fn(matrix_unit(field, n, i, j))
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        )
        return AlgebraMap(n, field, images, twist)

    def image(self, i: int, j: int) -> Matrix:
        """The image of E(i, j), 1-based."""
        return self.images[(i - 1) * self.n + (j - 1)]

    def apply(self, x: Matrix) -> Matrix:
        if x.field != self.field or x.nrows != self.n or x.ncols != self.n:
            raise MixedShapes("argument does not match the map's ambient space")
        F = self.field
        n = self.n
        twist = self.twist
        acc = [[F.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                c = twist.apply(F, x.entries[i][j])
                if F.is_zero(c):
                    continue
                img = self.images[i * n + j].entries
                for r in range(n):
                    acc_r = acc[r]
                    img_r = img[r]
                    for s in range(n):
                        v = img_r[s]
                        if not F.is_zero(v):
                            acc_r[s] = F.add(acc_r[s], F.mul(c, v))
        return Matrix._make(F, tuple(tuple(row) for row in acc))

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraMap)
            and self.n == other.n
            and self.field == other.field
            and self.twist == other.twist
            and self.images == other.images
        )

    def __repr__(self):
        return f"<map on {self.n}x{self.n} over {self.field!r}, twist={self.twist.kind}>"


def conjugation_map(b: Matrix, twist: FieldAutomorphism | None = None) -> AlgebraMap:
    """X |-> B X_f B^(-1) as an AlgebraMap (ring automorphism)."""
    return AlgebraMap(b.nrows, b.field, _unit_images(b, False), twist)


def transpose_conjugation_map(b: Matrix, twist: FieldAutomorphism | None = None) -> AlgebraMap:
    """X |-> B X_f^T B^(-1) as an AlgebraMap (ring anti-automorphism)."""
    return AlgebraMap(b.nrows, b.field, _unit_images(b, True), twist)


def _row_classes(a: Matrix, transposed: bool) -> tuple[list, list[tuple[int, tuple]]]:
    """A's distinct entries, numbered once, and for each unit image of
    conjugation by A in table order (E(j,i) for E(i,j) when ``transposed``)
    the pair (j, numbers of A's column i): row r of A E(i,j) A^(-1) is
    A[r][i] times row j of A^(-1), keyed by j and the number of A[r][i]."""
    numbers: dict = {}
    classes = [[numbers.setdefault(x, len(numbers)) for x in row] for row in a.entries]
    columns, n = list(zip(*classes)), a.nrows
    units = ((j, i) if transposed else (i, j) for i in range(n) for j in range(n))
    return list(numbers), [(rw, columns[col]) for col, rw in units]


def _unit_images(b: Matrix, transposed: bool) -> tuple[Matrix, ...]:
    """The unit images of X |-> B X B^(-1) (B X^T B^(-1) when
    ``transposed``); the images share one tuple per distinct row."""
    F = b.field
    values, units = _row_classes(b, transposed)
    scaled = [[tuple(F.vec_scale(row, c)) for c in values] for row in b.inverse().entries]
    return tuple(Matrix._make(F, tuple(map(scaled[rw].__getitem__, ks))) for rw, ks in units)


@dataclass(frozen=True)
class RecoveryResult:
    conjugator: Matrix
    kernel_vector: Matrix
    verified: bool
    scalar_class: str = SCALAR_CLASS_NOTE


_NO_KERNEL = "I - phi(S)^(n-1) phi(E(n,1)) is invertible"


def _rank_one_factors(m: Matrix) -> tuple[tuple, tuple, object] | None:
    """(c, row, a) with m = c row^T / a: c is m's first nonzero column, a
    its first nonzero entry and row the row of a.  None for m = 0, and
    NotAnAutomorphismImagePair when m's rank is above 1; every entry is
    checked."""
    F = m.field
    is_zero = F.is_zero
    c = next((col for col in zip(*m.entries) if not all(map(is_zero, col))), None)
    if c is None:
        return None
    i0 = next(i for i, a in enumerate(c) if not is_zero(a))
    row, a_inv = m.entries[i0], F.inv(c[i0])
    is_scaled, mul = F.is_scaled, F.mul
    if not all(is_scaled(v, mul(a, a_inv), row) for v, a in zip(m.entries, c)):
        raise NotAnAutomorphismImagePair("phi(E(n,1)) does not have rank 1")
    return c, row, c[i0]


def conjugator_from_images(
    phi_s: Matrix, phi_en1: Matrix, n: int, *, return_inverse: bool = False
) -> RecoveryResult | tuple[RecoveryResult, Matrix]:
    """Rebuild a conjugator from the images of the shift S and of E(n,1),
    by the rank-1 construction of the module docstring.

    The kernel vector is u / lambda, the vector ``kernel_vectors`` gives
    for I - M: the free column of its RREF is u's last nonzero coordinate.
    ``verified`` reports whether conjugation reproduces the two inputs
    themselves, by two O(n^2) tests on the Krylov sequence: phi(S) A = A S
    iff phi(S)^n c = 0, and phi(E(n,1)) A = A E(n,1) iff h_k = 0 for
    k < n-1, where h_k = r.phi(S)^k c.  Fails with
    NotAnAutomorphismImagePair when phi(E(n,1)) is zero or has rank above
    1, when I - M is invertible, or when the assembled matrix is singular;
    each way the inputs cannot be generator images of an automorphism.

    With ``return_inverse`` the result comes paired with the conjugator's
    inverse.  For verified inputs that is the left Krylov sequence
    lambda [r; r phi(S); ...; r phi(S)^(n-1)]: its row k times column j of A
    is h_(k+n-j), which the checks above proved to be 1 for j = k+1 and 0
    otherwise, so it is A^(-1) with no elimination.  Unverified inputs
    take ``Matrix.inverse``, which also decides the singular case.
    """
    if phi_s.nrows != n or phi_s.ncols != n:
        raise DimensionMismatch("phi(S) is not n-by-n")
    if phi_en1.nrows != n or phi_en1.ncols != n:
        raise DimensionMismatch("phi(E(n,1)) is not n-by-n")
    if phi_s.field != phi_en1.field:
        raise FieldMismatch("images live over different fields")
    F = phi_s.field
    factors = _rank_one_factors(phi_en1)
    if factors is None:
        raise NotAnAutomorphismImagePair(_NO_KERNEL)
    c, row, a = factors  # phi(E(n,1)) = c r^T with r = row / a
    dot, is_zero = F.dot, F.is_zero
    krylov = F.krylov(phi_s.entries, c, n + 1)  # krylov[k] = phi(S)^k c
    u = krylov[n - 1]
    if dot(row, u) != a:  # r.u != 1
        raise NotAnAutomorphismImagePair(_NO_KERNEL)
    lam = next(x for x in reversed(u) if not is_zero(x))
    lam_inv = F.inv(lam)
    columns = [F.vec_scale(krylov[k], lam_inv) for k in range(n - 1, -1, -1)]
    conjugator = Matrix._make(F, tuple(zip(*columns)))
    a_vec = Matrix._make(F, tuple((x,) for x in columns[0]))
    verified = all(map(is_zero, krylov[n])) and all(
        is_zero(dot(row, krylov[k])) for k in range(n - 1)
    )
    result = RecoveryResult(conjugator=conjugator, kernel_vector=a_vec, verified=verified)
    if verified:
        if not return_inverse:
            return result
        start = F.vec_scale(row, F.div(lam, a))  # lambda r
        rows = F.krylov(tuple(zip(*phi_s.entries)), start, n)
        return result, Matrix._make(F, tuple(map(tuple, rows)))
    try:
        conj_inv = conjugator.inverse()
    except SingularMatrix as exc:
        raise NotAnAutomorphismImagePair("assembled conjugator is singular") from exc
    return (result, conj_inv) if return_inverse else result


def _extract_shift_image(m: AlgebraMap | UnparsedMap, transposed: bool) -> Matrix:
    """phi(S) = sum of the images of the superdiagonal units, or phi(S^T)
    from the subdiagonal ones: one ``vec_sum`` per row."""
    n, F = m.n, m.field
    if n == 1:  # empty sum
        return Matrix.zeros(F, 1)
    terms = (m.image(i + 1, i) if transposed else m.image(i, i + 1) for i in range(1, n))
    rows = zip(*(t.entries for t in terms))  # row r of every term
    return Matrix._make(F, tuple(tuple(F.vec_sum(row)) for row in rows))


def _verify_all_units(
    m: AlgebraMap | UnparsedMap, conjugator: Matrix, conj_inv: Matrix, transposed: bool
) -> bool:
    """Does A E(i,j) A^(-1) (or A E(j,i) A^(-1) for anti-maps) reproduce
    every unit image?  The twist never shows: units have 0/1 entries.

    Every image row with one key of ``_row_classes`` is the same scaled row
    of A^(-1), so a row equal to a certified row of its key passes.  Any
    other row is certified by ``is_scaled`` on raw values, or by
    ``texts_scaled`` on the texts of an unparsed map.  A row of texts that
    kernel cannot settle is parsed and checked by ``is_scaled``, and
    certifies no other row: a certified row of texts is all strings, so a
    JSON number, bool or null never passes by equality with it."""
    F = m.field
    if isinstance(m, AlgebraMap):
        grids, scaled = (image.entries for image in m.images), F.is_scaled
    else:
        grids, scaled = m.grids, F.texts_scaled
    a_inv = conj_inv.entries
    values, units = _row_classes(conjugator, transposed)
    certified = [[None] * len(values) for _ in a_inv]
    for grid, (rw, ks) in zip(grids, units):
        done, a_row = certified[rw], a_inv[rw]
        for row, k in zip(grid, ks):
            if row == done[k]:
                continue
            c = values[k]
            ok = scaled(row, c, a_row)
            if ok is None:
                ok = F.is_scaled(m.parse_row(row), c, a_row)
            elif ok:
                done[k] = row
            if not ok:
                return False
    return True


# (anti, identity twist) -> the typed error of a failed recovery
_RECOVERY_ERRORS = {
    (False, True): NotAnAutomorphism,
    (False, False): NotATwistedAutomorphism,
    (True, True): NotAnAntiAutomorphism,
    (True, False): NotATwistedAntiAutomorphism,
}
_RECOVERY_FAILURES = tuple(_RECOVERY_ERRORS.values())


def recover(m: AlgebraMap | UnparsedMap, anti: bool) -> RecoveryResult:
    """Conjugator A with phi(X) = A X_f A^(-1), or A X_f^T A^(-1) if ``anti``.

    The one recovery pipeline behind the CLI, the decomposition, the
    classification and the four ``recover_*`` aliases, in three stages:

    1. the generator images phi(S) and phi(E(n,1)), or phi(S^T) and
       phi(E(1,n)) if ``anti``;
    2. ``conjugator_from_images`` on them, with its inverse;
    3. the unit check ``_verify_all_units``, only once the two-image
       certificate ``verified`` holds: phi(S) is a sum of unit images and
       phi(E(n,1)) is one, so an unverified A cannot reproduce them all.

    A failure raises NotAnAutomorphism or NotAnAntiAutomorphism for an
    untwisted map, and the NotATwisted... error of the same direction for
    a twisted one.  On an unparsed map any failure, an invalid twist
    included, first parses the whole document, so its first bad scalar
    text raises MalformedJSON instead.
    """
    error = _RECOVERY_ERRORS[anti, m.twist.is_identity_kind]
    try:
        m.twist.check_field(m.field)
        n, phi_shift = m.n, _extract_shift_image(m, transposed=anti)
        phi_unit = m.image(1, n) if anti else m.image(n, 1)
        try:
            result, conj_inv = conjugator_from_images(phi_shift, phi_unit, n, return_inverse=True)
        except NotAnAutomorphismImagePair as exc:
            raise error(str(exc)) from exc
        if not result.verified or not _verify_all_units(m, result.conjugator, conj_inv, anti):
            raise error("conjugation does not reproduce all unit images")
        return result
    except LiematError:
        if not isinstance(m, AlgebraMap):
            m.parsed()
        raise


def recover_automorphism(m: AlgebraMap) -> RecoveryResult:
    """Conjugator for a map expected to be an (untwisted) automorphism."""
    if not m.twist.is_identity_kind:
        raise NotAnAutomorphism(
            "map carries a twist; use recover_twisted_automorphism"
        )
    return recover(m, False)


def recover_twisted_automorphism(m: AlgebraMap) -> RecoveryResult:
    """Conjugator for a twisted (semilinear) ring automorphism: ``recover``
    as it is, since its stages only ever see 0/1-entried inputs, on which
    the twist acts trivially."""
    return recover(m, False)


def recover_antiautomorphism(m: AlgebraMap) -> RecoveryResult:
    """Conjugator A with phi(X) = A X^T A^(-1) for an anti-automorphism."""
    if not m.twist.is_identity_kind:
        raise NotAnAntiAutomorphism(
            "map carries a twist; use recover_twisted_antiautomorphism"
        )
    return recover(m, True)


def recover_twisted_antiautomorphism(m: AlgebraMap) -> RecoveryResult:
    """Conjugator for a twisted anti-automorphism, phi(X) = A X_f^T A^(-1)."""
    return recover(m, True)


# ---------------------------------------------------------------------------
# classification and Lie-automorphism decomposition
# ---------------------------------------------------------------------------

MapKind = Literal["automorphism", "anti-automorphism", "lie-automorphism"]


def _is_bijective(m: AlgebraMap) -> bool:
    rows = tuple(img.vectorize() for img in m.images)
    return Matrix._make(m.field, rows).rank() == m.n * m.n


def classify_map(m: AlgebraMap) -> MapKind | None:
    """The strongest structure the unit-image table satisfies, or None."""
    # By Skolem-Noether a bijection (anti-)multiplicative on the units is a
    # (transpose-)conjugation, which the recovery rebuilds and verifies.
    for anti, kind in ((False, "automorphism"), (True, "anti-automorphism")):
        try:
            recover(m, anti)
        except _RECOVERY_FAILURES:
            continue
        return kind
    if not _is_bijective(m):
        return None
    # The x with phi[x, y] = [phi x, phi y] for every unit y form a Lie
    # subalgebra (Jacobi and additivity), and X0 = {E(i,i+1), E(i+1,i)}
    # Lie-generates sl_n: [E(i,j), E(j,k)] = E(i,k) for i != k, and
    # [E(i,i+1), E(i+1,i)] = E(i,i) - E(i+1,i+1).  So if X0 passes, all of
    # sl_n does, and so does E(1,1), which needs no check: M_n = sl_n +
    # K*E(1,1) in every characteristic (tr E(1,1) = 1), E(1,1) pairs with s
    # in sl_n by antisymmetry, phi[E(1,1), s] = -phi[s, E(1,1)] =
    # [phi E(1,1), phi s], and with c*E(1,1) both sides are 0.  Units have
    # 0/1 entries, so the twist never shows.
    n, zero = m.n, Matrix.zeros(m.field, m.n)
    x0 = [u for i in range(1, n) for u in ((i, i + 1), (i + 1, i))]
    units = range(1, n + 1)
    for (i, j), k, l in product(x0, units, units):
        pij, pkl = m.image(i, j), m.image(k, l)
        # [E(i,j), E(k,l)] = delta_jk E(i,l) - delta_li E(k,j)
        bracket = (m.image(i, l) if j == k else zero) - (m.image(k, j) if l == i else zero)
        if pij * pkl - pkl * pij != bracket:
            return None
    return "lie-automorphism"


@dataclass(frozen=True)
class LieDecomposition:
    """psi = sigma + tau, with sigma conjugation-shaped and tau = c * tr.

    ``sigma_kind`` records whether sigma is an automorphism or the
    negative of an anti-automorphism; ``sigma_conjugator`` is the
    recovered conjugating matrix for sigma (for the negative kind, for
    -sigma); ``residual_zero`` certifies that sigma + c*tr(.)*I
    reproduces psi on every matrix unit, which the recovery of sigma
    verified, so a returned decomposition always has it set.
    """

    sigma_kind: Literal["automorphism", "negative-anti-automorphism"]
    sigma_conjugator: Matrix
    tau_coefficient: Scalar
    residual_zero: bool
    n: int
    field: Field
    twist: FieldAutomorphism

    def sigma_map(self) -> AlgebraMap:
        """sigma reassembled from its conjugator."""
        if self.sigma_kind == "automorphism":
            return conjugation_map(self.sigma_conjugator, self.twist)
        anti = transpose_conjugation_map(self.sigma_conjugator, self.twist)
        images = tuple(-img for img in anti.images)
        return AlgebraMap(self.n, self.field, images, self.twist)


def _warn_classification_hypotheses(m: AlgebraMap) -> None:
    n, F = m.n, m.field
    if n >= 3 and F.order is not None and F.order < 2 ** (n - 1):
        warnings.warn(
            f"field order {F.order} is below 2^(n-1) = {2 ** (n - 1)}; the "
            "two-form description of bracket-preserving maps is not "
            "guaranteed, proceeding since verification is self-certifying",
            stacklevel=3,
        )
    if n == 2 and F.characteristic == 2:
        warnings.warn(
            "characteristic 2 with n = 2 is outside the guaranteed range; "
            "proceeding since verification is self-certifying",
            stacklevel=3,
        )


def decompose_lie_automorphism(m: AlgebraMap) -> LieDecomposition:
    """Split a bracket-preserving bijection as sigma + c*tr(.)*I.

    The trace of psi(E(1,1)) determines c for each shape of sigma
    (conjugation has trace-1 unit images, eps = 1; negated
    transpose-conjugation trace -1, eps = -1): c = (tr psi(E(1,1)) - eps)/n.
    Both candidates are tried in that order, and a candidate survives only
    if the conjugator recovered from psi(E(i,j)) - c*delta_ij*I (negated
    for eps = -1) reproduces every one of them; that verification is the
    certificate, and a map of this form preserves brackets.  Such a map is
    bijective iff psi(I) = (eps + n*c)*I = tr(psi(E(1,1)))*I is nonzero,
    so a zero trace raises NotDecomposable without trying a branch, as
    does a map on which neither branch verifies.  The hypothesis
    warnings (small field, characteristic 2 with n = 2) and the twist
    warning are emitted first.
    """
    n, F = m.n, m.field
    if F.characteristic and n % F.characteristic == 0:
        raise CharacteristicDividesN(
            f"characteristic {F.characteristic} divides n = {n}"
        )
    _warn_classification_hypotheses(m)
    if not m.twist.is_identity_kind:
        warnings.warn(
            "the residual trace functional inherits the map's twist; it is "
            "linear only up to that field automorphism",
            stacklevel=2,
        )
    trace_e11 = m.image(1, 1).trace_raw()
    if F.is_zero(trace_e11):
        raise NotDecomposable(
            "tr psi(E(1,1)) = 0: any sigma + c*tr(.)*I with that trace sends I "
            "to 0, so it is not bijective"
        )
    n_inv = F.inv(F.from_int(n))
    for anti, sigma_kind in ((False, "automorphism"), (True, "negative-anti-automorphism")):
        eps = F.neg(F.one) if anti else F.one
        c = F.mul(F.sub(trace_e11, eps), n_inv)
        # sigma's unit images: psi(E(i,j)) - c * delta_ij * I, negated when anti
        sigma_images = list(m.images)
        if not F.is_zero(c):
            shift = Matrix.identity(F, n).scale(c)
            for i in range(n):
                sigma_images[i * n + i] = sigma_images[i * n + i] - shift
        if anti:
            sigma_images = [-img for img in sigma_images]
        try:
            rec = recover(AlgebraMap(n, F, tuple(sigma_images), m.twist), anti)
        except _RECOVERY_FAILURES:
            continue
        return LieDecomposition(
            sigma_kind=sigma_kind,
            sigma_conjugator=rec.conjugator,
            tau_coefficient=Scalar(F, c),
            residual_zero=True,
            n=n,
            field=F,
            twist=m.twist,
        )
    raise NotDecomposable("neither decomposition branch verified")


def residual_trace_form_check(m: AlgebraMap, sigma: AlgebraMap) -> bool:
    """Check the trace shape of the residual functional tau = psi - sigma.

    Each unit residual psi(E(i,j)) - sigma(E(i,j)) must be a scalar
    multiple of the identity (ResidualNotScalar otherwise); the check
    returns whether those scalars vanish off the diagonal and agree on it,
    i.e. tau(X) depends on X only through tr(X).
    """
    if (m.n, m.field) != (sigma.n, sigma.field):
        raise MixedShapes("psi and sigma live on different ambient spaces")
    F = m.field
    tau = {}
    for i in range(1, m.n + 1):
        for j in range(1, m.n + 1):
            res = m.image(i, j) - sigma.image(i, j)
            c = scalar_multiple_of_identity(res)
            if c is None:
                raise ResidualNotScalar(
                    f"residual at unit ({i},{j}) is not a scalar multiple of I"
                )
            tau[i, j] = c
    ok_off = all(
        F.is_zero(tau[i, j])
        for i in range(1, m.n + 1)
        for j in range(1, m.n + 1)
        if i != j
    )
    ok_diag = all(tau[i, i] == tau[1, 1] for i in range(1, m.n + 1))
    return ok_off and ok_diag
