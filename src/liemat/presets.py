"""Named matrices and maps addressable from the command line.

Preset tokens:

* ``I``            identity
* ``S``            superdiagonal shift
* ``St``           its transpose (subdiagonal shift)
* ``P``            full-cycle permutation (shift plus E(n,1))
* ``E<i><j>``      matrix unit with single-digit indices, e.g. ``E11``, ``E21``
* ``E<i>_<j>``     matrix unit with any positive indices, e.g. ``E10_1``

Map presets build full unit-image tables: ``transpose``, ``symplectic``
(even n), ``identity``, and ``trace-shift`` (X + tr(X) I, a bracket-
preserving map that is not multiplicative).
"""

from __future__ import annotations

import re

from .errors import MalformedJSON, check_guard
from .fields import Field
from .matrices import (
    Matrix,
    cyclic_permutation,
    matrix_unit,
    symplectic_involution,
    upper_shift,
)
from .recovery import AlgebraMap

_UNIT_RE = re.compile(r"^E(?:([1-9])([1-9])|([1-9][0-9]*)_([1-9][0-9]*))$")


def _check_size(n: int) -> None:
    if n <= 0:
        raise MalformedJSON(f"matrix size n must be positive, got {n}")


def preset_matrix(token: str, field: Field, n: int) -> Matrix:
    _check_size(n)
    check_guard(n * n, f"{n * n} scalars of a {n}x{n} matrix")
    token = token.strip()
    if token == "I":
        return Matrix.identity(field, n)
    if token == "S":
        return upper_shift(field, n)
    if token == "St":
        return upper_shift(field, n).transpose()
    if token == "P":
        return cyclic_permutation(field, n)
    m = _UNIT_RE.match(token)
    if m:
        i, j = (int(g) for g in m.groups() if g)
        return matrix_unit(field, n, i, j)
    raise MalformedJSON(f"unknown matrix preset {token!r}")


def preset_matrices(tokens: str, field: Field, n: int) -> list[Matrix]:
    return [preset_matrix(tok, field, n) for tok in tokens.split(",") if tok.strip()]


def preset_map(token: str, field: Field, n: int) -> AlgebraMap:
    _check_size(n)
    token = token.strip()
    if token == "identity":
        return AlgebraMap.from_function(n, field, lambda u: u)
    if token == "transpose":
        return AlgebraMap.from_function(n, field, lambda u: u.transpose())
    if token == "symplectic":
        return AlgebraMap.from_function(n, field, symplectic_involution)
    if token == "trace-shift":
        return AlgebraMap.from_function(
            n, field, lambda u: u + Matrix.identity(field, n).scale(u.trace_raw())
        )
    raise MalformedJSON(f"unknown map preset {token!r}")
