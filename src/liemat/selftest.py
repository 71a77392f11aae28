"""In-process invariant suite behind the ``selftest`` CLI command.

A trimmed, dependency-free version of the pytest suite: every module's
core invariants at sizes that finish in a few seconds.  Each check either
returns (optionally with an informational note) or raises, and the runner
passes one line per check, note included, to its ``out`` callback.
"""

from __future__ import annotations

import random
from typing import Callable

from .centralizers import (
    balanced_parts,
    centralizer_chain,
    centralizer_product_check,
    extremal_block_algebra,
    nilpotency_report,
    nilpotent_subalgebra_dim_bound,
)
from .errors import SingularMatrix
from .experiments import char2_generation_dims
from .fields import ExtensionField, FieldAutomorphism, PrimeField, Rationals
from .lie import bracket, centralizer_intersection_check, closure, leibniz_expansion_check
from .matrices import (
    Matrix,
    cyclic_permutation,
    matrix_unit,
    symplectic_involution,
    upper_shift,
)
from .recovery import (
    conjugation_map,
    recover_antiautomorphism,
    recover_automorphism,
    transpose_conjugation_map,
)
from .sampling import random_invertible, random_matrix
from .matrices import scalar_multiple_of_identity

_FIELDS = lambda: [Rationals(), PrimeField(5), ExtensionField(2, 2)]  # noqa: E731


def _require(condition: bool) -> None:
    """``assert`` that ``python -O`` does not strip."""
    if not condition:
        raise AssertionError


def _check_field_axioms(rng):
    for F in _FIELDS():
        for _ in range(250):
            a, b, c = (F.random_scalar(rng) for _ in range(3))
            _require(F.add(a, b) == F.add(b, a))
            _require(F.mul(F.add(a, b), c) == F.add(F.mul(a, c), F.mul(b, c)))
            if not F.is_zero(a):
                _require(F.mul(a, F.inv(a)) == F.one)


def _check_frobenius_bijection(rng):
    for F in (ExtensionField(2, 2), ExtensionField(3, 2)):
        f = FieldAutomorphism.frobenius(1)
        seen = {f.apply(F, e) for e in F.elements()}
        _require(len(seen) == F.order)
        for _ in range(50):
            a, b = F.random_scalar(rng), F.random_scalar(rng)
            _require(f.apply(F, F.mul(a, b)) == F.mul(f.apply(F, a), f.apply(F, b)))
            _require(f.apply(F, F.add(a, b)) == F.add(f.apply(F, a), f.apply(F, b)))


def _check_eliminations(rng):
    for F in _FIELDS():
        for _ in range(20):
            m = random_matrix(F, 4, 4, rng)
            r1, rank, _ = m.rref()
            r2, rank2, _ = r1.rref()
            _require(r1 == r2 and rank == rank2)
            kernel_dim = len(m.kernel_vectors())
            _require(kernel_dim == 4 - rank)
            singular = rank < 4
            try:
                m.inverse()
                inverted = True
            except SingularMatrix:
                inverted = False
            _require(inverted == (not singular))


def _check_symplectic(rng):
    for F in (Rationals(), PrimeField(7)):
        for _ in range(25):
            x = random_matrix(F, 8, 8, rng)
            y = random_matrix(F, 8, 8, rng)
            _require(symplectic_involution(symplectic_involution(x)) == x)
            _require(
                symplectic_involution(x * y) == symplectic_involution(y) * symplectic_involution(x)
            )


def _check_jacobi(rng):
    F = PrimeField(5)
    for _ in range(50):
        x, y, z = (random_matrix(F, 3, 3, rng) for _ in range(3))
        total = (
            bracket(bracket(x, y), z)
            + bracket(bracket(y, z), x)
            + bracket(bracket(z, x), y)
        )
        _require(total.is_zero())


def _check_generation(rng):
    for F in (Rationals(), PrimeField(5), PrimeField(7)):
        res = closure([cyclic_permutation(F, 3), matrix_unit(F, 3, 1, 1)], "lie")
        _require(res.subspace.is_full)
        assoc = closure([upper_shift(F, 3), matrix_unit(F, 3, 3, 1)], "associative")
        _require(assoc.subspace.is_full)
    inter, central = centralizer_intersection_check(
        [upper_shift(Rationals(), 3), matrix_unit(Rationals(), 3, 3, 1)]
    )
    _require(central and inter.dim == 1)


def _check_leibniz(rng):
    F = PrimeField(5)
    for _ in range(40):
        k = rng.randint(1, 3)
        r, s = random_matrix(F, 3, 3, rng), random_matrix(F, 3, 3, rng)
        xs = [random_matrix(F, 3, 3, rng) for _ in range(k)]
        _require(leibniz_expansion_check(r, s, xs))


def _check_chains(rng):
    for F in (PrimeField(5), Rationals()):
        for _ in range(6):
            n = rng.randint(2, 3)
            H = [random_matrix(F, n, n, rng) for _ in range(rng.randint(1, 2))]
            chain = centralizer_chain(H)
            eye = Matrix.identity(F, n)
            _require(chain.levels[0].contains(eye))
            _require(chain.stabilization_index <= n * n)
            for lo, hi in zip(chain.levels, chain.levels[1:]):
                _require(hi.contains_subspace(lo))
            _require(centralizer_product_check(H, 1, 2))


def _check_bounds(rng):
    for n in range(1, 9):
        for k in range(1, n + 1):
            best = max(
                (n * n - sum(p * p for p in parts)) // 2 + 1
                for parts in _partitions(n, k + 1)
            )
            _require(best == nilpotent_subalgebra_dim_bound(n, k))
    ex = extremal_block_algebra(4, balanced_parts(4, 2))
    rep = nilpotency_report(ex)
    _require(rep.is_lie_nilpotent and rep.index <= 1)
    _require(ex.dim == nilpotent_subalgebra_dim_bound(4, 1))


def _partitions(n, max_parts, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, max_parts - 1, first):
            yield (first,) + rest


def _check_recovery(rng):
    for F in (Rationals(), PrimeField(5), ExtensionField(2, 2)):
        for n in (2, 3):
            for _ in range(3):
                b = random_invertible(F, n, rng)
                auto = recover_automorphism(conjugation_map(b))
                _require(auto.verified)
                _require(scalar_multiple_of_identity(b.inverse() * auto.conjugator) is not None)
                anti = recover_antiautomorphism(transpose_conjugation_map(b))
                _require(anti.verified)


def _check_char2_probe(rng):
    dims = char2_generation_dims(3)
    _require(all(isinstance(d, int) and d >= 1 for _, d in dims))
    return f"informational: GF(2) Lie-closure dims of {{P, E11}}: {dims}"


CHECKS: list[tuple[str, Callable]] = [
    ("field axioms", _check_field_axioms),
    ("frobenius bijection", _check_frobenius_bijection),
    ("eliminations", _check_eliminations),
    ("symplectic involution", _check_symplectic),
    ("jacobi identity", _check_jacobi),
    ("two-generator generation", _check_generation),
    ("bracket product expansion", _check_leibniz),
    ("centralizer chain laws", _check_chains),
    ("dimension bounds", _check_bounds),
    ("conjugator recovery roundtrip", _check_recovery),
    ("char-2 closure probe", _check_char2_probe),
]


def run(seed: int = 0, out=print) -> bool:
    ok = True
    for name, check in CHECKS:
        rng = random.Random(seed)
        try:
            note = check(rng)
        except Exception as exc:  # report every failure, keep going
            ok = False
            out(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            out(f"ok   {name}" + (f" ({note})" if note else ""))
    return ok
