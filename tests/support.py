"""Shared helpers for the test suite."""

import itertools
import random

from liemat import (
    AlgebraMap,
    ExtensionField,
    Matrix,
    PrimeField,
    Rationals,
    Subspace,
    bracket,
    left_normed,
    matrix_unit,
    preimage,
    upper_shift,
)
from liemat.errors import NotAnAutomorphismImagePair, SingularMatrix
from liemat.recovery import RecoveryResult
from liemat.sampling import random_invertible, random_matrix

Q = Rationals()
GF2 = PrimeField(2)
GF5 = PrimeField(5)
GF7 = PrimeField(7)
GF4 = ExtensionField(2, 2)
GF9 = ExtensionField(3, 2)
GF81 = ExtensionField(3, 4)
GF_LARGE = PrimeField(1000003)


def rng_for(*key) -> random.Random:
    """Stable per-case seed derived from a readable key."""
    return random.Random("/".join(str(k) for k in key))


def mat(field, rows) -> Matrix:
    return Matrix(field, rows)


def _products(u, v, kind):
    if kind == "lie":
        yield bracket(u, v)
    else:
        yield u * v
        yield v * u


class _ReferenceSpan:
    """A span kept as the RREF rows of ``reference_rref``, recomputed from
    scratch whenever a vector outside the span is added; independent of
    ``SpanBuilder``."""

    def __init__(self, field, length):
        self.field, self.length = field, length
        self.rows, self.pivots = [], []

    def _reduced(self, vec):
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if not self.field.is_zero(vec[p]):
                vec = self.field.vec_submul(vec, vec[p], row)
        return vec

    def contains(self, vec):
        return all(map(self.field.is_zero, self._reduced(vec)))

    def insert(self, vec):
        if self.contains(vec):
            return False
        rows = self.rows + [list(vec)]
        self.pivots = reference_rref(rows, self.field)
        self.rows = rows[: len(self.pivots)]
        return True


def reference_closure(gens, kind):
    """Closure by exhaustive sweeps, as ``(subspace, rounds)``.

    Each sweep multiplies every element added by the previous sweep with
    every generator and every element present when the sweep began, and
    the sweeps stop when the span is full or a sweep adds nothing; that
    count is ``rounds``.  A pairwise check of all basis products then
    certifies the fixpoint.  Slow and simple: the oracle for ``closure``.
    The span is kept by ``reference_rref``, not by ``SpanBuilder``.
    """
    field = gens[0].field
    n = gens[0].nrows
    span = _ReferenceSpan(field, n * n)
    basis = [g for g in gens if span.insert(g.vectorize())]
    rounds = 0
    frontier_start = 0
    while frontier_start < len(basis) and len(span.rows) < n * n:
        rounds += 1
        frontier_end = len(basis)
        for u in basis[frontier_start:frontier_end]:
            for v in itertools.chain(gens, basis[:frontier_end]):
                for prod in _products(u, v, kind):
                    if span.insert(prod.vectorize()):
                        basis.append(prod)
        if len(basis) == frontier_end:
            break
        frontier_start = frontier_end
    if len(span.rows) < n * n:
        for i, u in enumerate(basis):
            start = i + 1 if kind == "lie" else 0  # brackets are antisymmetric
            for v in basis[start:]:
                for prod in _products(u, v, kind):
                    assert span.contains(prod.vectorize()), "reference closure is not closed"
    return Subspace(field, (n, n), tuple(tuple(r) for r in span.rows)), rounds


def reference_rref(rows, field):
    """Full Gauss-Jordan on a list of raw-valued rows, in place, column by
    column; returns the pivot columns.  The batch elimination that
    ``SpanBuilder`` replaced inside ``_rref_in_place``: the oracle for it.

    Pivot choice is the first nonzero entry scanning top to bottom, which
    is deterministic and all that exact arithmetic needs.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    is_zero = field.is_zero
    inv = field.inv
    vec_scale = field.vec_scale
    vec_submul = field.vec_submul
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r][c]
        if lead != field.one:
            rows[r] = vec_scale(rows[r], inv(lead))
        for i in range(nrows):
            if i != r and not is_zero(rows[i][c]):
                rows[i] = vec_submul(rows[i], rows[i][c], rows[r])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def reference_kernel_from_rref(rows, pivots, ncols, field):
    """The right kernel of RREF rows with the given pivot columns, densely:
    one vector per free column f in increasing order, with v_f = 1, the
    other free entries 0 and v_q = -rows[i][f] at the i-th pivot q.  The
    dense reading that ``SpanBuilder.kernel`` replaced: the oracle for it."""
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, q in enumerate(pivots):
            vec[q] = field.neg(rows[r][f])
        out.append(vec)
    return out


def reference_ad_kernel(chains, field, n, target=None):
    """{r : [r, x1, ..., xk] in target for every chain (x1, ..., xk)}, by a
    fold over the chains: each step keeps the preimage of the target under
    r -> [r, x1, ..., xk] inside the current space, with the images formed
    as dense bracket products.  ``target=None`` means zero.  The oracle for
    ``lie.ad_kernel``."""
    if target is None:
        target = Subspace.zero(field, (n, n))
    space = Subspace.full(field, (n, n))
    for chain in chains:
        basis = space.basis
        space = preimage(basis, [left_normed([b, *chain]) for b in basis], target)
    return space


def reference_next_level(members, prev=None):
    """The centralizer level above ``prev`` (L_1 for None) as a fold of
    per-member preimages over bracket images."""
    field, n = members[0].field, members[0].nrows
    return reference_ad_kernel([(h,) for h in members], field, n, prev)


def reference_classify(m):
    """Classification of an AlgebraMap by brute force: bijectivity from the
    rank of the unit images, then (anti-)multiplicativity and bracket
    preservation on every pair of unit images, O(n^7) in all.  The oracle
    for ``classify_map``."""
    n, field = m.n, m.field
    rows = [img.vectorize() for img in m.images]
    if Matrix(field, rows).rank() < n * n:
        return None
    zero = Matrix.zeros(field, n)
    mult = anti = lie = True
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        pij, pkl = m.image(i, j), m.image(k, l)
        prod_img = m.image(i, l) if j == k else zero  # E(i,j) E(k,l)
        rev_img = m.image(k, j) if l == i else zero  # E(k,l) E(i,j)
        ab, ba = pij * pkl, pkl * pij
        mult = mult and ab == prod_img
        anti = anti and ba == prod_img
        lie = lie and ab - ba == prod_img - rev_img
        if not (mult or anti or lie):
            return None
    if mult:
        return "automorphism"
    if anti:
        return "anti-automorphism"
    return "lie-automorphism" if lie else None


def reference_conjugator_from_images(phi_s, phi_en1, n):
    """``conjugator_from_images`` by the dense construction, as
    ``(result, inverse)``: M = phi(S)^(n-1) phi(E(n,1)) by n-1 products, a
    the first vector of ``kernel_vectors`` of I - M, the columns
    phi(S)^k phi(E(n,1)) a built by products, highest power first, and
    ``verified`` from the products phi(S) A, A S, phi(E(n,1)) A and
    A E(n,1).  The oracle for the rank-1 construction on image pairs whose
    phi(E(n,1)) has rank at most 1."""
    field = phi_s.field
    m = phi_en1
    for _ in range(n - 1):
        m = phi_s * m
    kernel_basis = (Matrix.identity(field, n) - m).kernel_vectors()
    if not kernel_basis:
        raise NotAnAutomorphismImagePair("I - phi(S)^(n-1) phi(E(n,1)) is invertible")
    a_vec = kernel_basis[0]
    columns = [phi_en1 * a_vec]
    for _ in range(n - 1):
        columns.append(phi_s * columns[-1])
    columns.reverse()
    conjugator = Matrix(field, [[col.entries[r][0] for col in columns] for r in range(n)])
    try:
        conj_inv = conjugator.inverse()
    except SingularMatrix as exc:
        raise NotAnAutomorphismImagePair("assembled conjugator is singular") from exc
    verified = (
        phi_s * conjugator == conjugator * upper_shift(field, n)
        and phi_en1 * conjugator == conjugator * matrix_unit(field, n, n, 1)
    )
    return RecoveryResult(conjugator, a_vec, verified), conj_inv


def plus_trace(sigma, c):
    """sigma + c*tr(.)*I, keeping sigma's twist."""
    n = sigma.n
    shift = Matrix.identity(sigma.field, n).scale(c)
    images = tuple(
        img + shift if k % (n + 1) == 0 else img for k, img in enumerate(sigma.images)
    )
    return AlgebraMap(n, sigma.field, images, sigma.twist)


def negated(m):
    return AlgebraMap(m.n, m.field, tuple(-img for img in m.images), m.twist)


def reference_conjugation_map(b, transposed=False, twist=None):
    """X -> B X B^(-1), or B X^T B^(-1) when ``transposed``, as an
    AlgebraMap built densely: the image A E(i,j) A^(-1) is the outer
    product of A's column i with A^(-1)'s row j, n^2 products per unit and
    no row shared between images.  The oracle for ``conjugation_map`` and
    ``transpose_conjugation_map``."""
    field, n = b.field, b.nrows
    b_inv = b.inverse().entries

    def image(i, j):  # 0-based
        return Matrix(field, [[field.mul(row[i], x) for x in b_inv[j]] for row in b.entries])

    units = [(j, i) if transposed else (i, j) for i in range(n) for j in range(n)]
    return AlgebraMap(n, field, tuple(image(i, j) for i, j in units), twist)


def repeating_invertible(field, n, rng):
    """An invertible matrix with entries in {0, 1, 2}: few distinct
    entries, so its conjugation table repeats rows."""
    while True:
        m = random_matrix(field, n, n, rng, lambda r: field.from_int(r.randrange(3)))
        try:
            m.inverse()
        except SingularMatrix:
            continue
        return m


def oracle_mul(field, a, b):
    """Product in GF(p^m) by schoolbook convolution and long division by
    the monic modulus, independent of the library's kernels and tables."""
    p, m, mod = field.p, field.m, field.modulus
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k] % p
        for i, f in enumerate(mod):
            prod[k - m + i] -= c * f
    return tuple(c % p for c in prod[:m])


def oracle_inv(field, a):
    """a^(q-2) by repeated squaring with ``oracle_mul``."""
    result, e = field.one, field.order - 2
    while e:
        if e & 1:
            result = oracle_mul(field, result, a)
        a = oracle_mul(field, a, a)
        e >>= 1
    return result


def oracle_add(field, a, b, sign=1):
    """a + sign*b, coefficientwise."""
    return tuple((x + sign * y) % field.p for x, y in zip(a, b))


def oracle_dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        acc = oracle_add(field, acc, oracle_mul(field, a, b))
    return acc


__all__ = [
    "GF2",
    "GF4",
    "GF5",
    "GF7",
    "GF9",
    "GF81",
    "GF_LARGE",
    "Q",
    "mat",
    "oracle_add",
    "oracle_dot",
    "oracle_inv",
    "oracle_mul",
    "random_invertible",
    "random_matrix",
    "reference_ad_kernel",
    "reference_classify",
    "reference_closure",
    "reference_conjugation_map",
    "reference_conjugator_from_images",
    "reference_next_level",
    "reference_rref",
    "repeating_invertible",
    "rng_for",
]
