"""Recorded-evidence experiments.

Two statements in scope are open: the conjectural cap 1 + (n^2 - n)/2 on
the dimension of omega-Lie-nilpotent sub-Lie-algebras, and the existence
of an index bound f(k, d) for the associative subalgebra generated by a
Lie-nilpotent subspace.  The functions here *measure* and record; nothing
in this module asserts either statement.
"""

from __future__ import annotations

import csv

from .centralizers import (
    ClosureIndexProbe,
    NilpotencyReport,
    associative_closure_probe,
    balanced_parts,
    bounds_table,
    extremal_block_algebra,
    nilpotency_report,
)
from .fields import Field, PrimeField, Rationals
from .lie import closure
from .matrices import Matrix, cyclic_permutation, matrix_unit
from .subspaces import Subspace


def _strictly_upper(field: Field, n: int) -> Subspace:
    return Subspace.span(
        [
            matrix_unit(field, n, i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        ]
    )


def omega_nilpotent_corpus(max_n: int = 5) -> list[tuple[str, Subspace]]:
    """Small omega-Lie-nilpotent sub-Lie-algebras with known provenance:
    scalars, strictly upper triangular matrices, and the extremal block
    algebras for every balanced splitting."""
    Q = Rationals()
    corpus: list[tuple[str, Subspace]] = []
    for n in range(2, max_n + 1):
        corpus.append((f"scalars-{n}", Subspace.span([Matrix.identity(Q, n)])))
        corpus.append((f"strict-upper-{n}", _strictly_upper(Q, n)))
        for k in range(1, n):
            parts = balanced_parts(n, k + 1)
            corpus.append(
                (f"block-{n}-{'x'.join(map(str, parts))}", extremal_block_algebra(n, parts))
            )
    return corpus


def conjecture_evidence(max_n: int = 5) -> list[tuple[str, NilpotencyReport]]:
    """Dimension-vs-conjectured-bound evidence for the corpus, as
    (description, report) pairs; ``report.bound_comparison`` holds the
    comparison."""
    return [(name, nilpotency_report(space)) for name, space in omega_nilpotent_corpus(max_n)]


def closure_index_observations(max_n: int = 4) -> list[tuple[str, ClosureIndexProbe]]:
    """Observed (k, d, index) data for associative closures of Lie-
    nilpotent subspaces, as (description, probe) pairs; logged without
    extrapolation."""
    rows = []
    for n in range(2, max_n + 1):
        subjects = [
            (f"strict-upper-{n}", _strictly_upper(Rationals(), n)),
            (f"block-{n}-balanced", extremal_block_algebra(n, balanced_parts(n, 2))),
        ]
        rows += [(name, associative_closure_probe(space)) for name, space in subjects]
    return rows


def char2_generation_dims(max_n: int = 4) -> list[tuple[int, int]]:
    """Dimensions of the Lie closure of {P, E(1,1)} over GF(2).

    Whether the pair generates in characteristic 2 is open (the proof in
    scope divides by 2); these are measurements only.
    """
    F2 = PrimeField(2)
    out = []
    for n in range(2, max_n + 1):
        res = closure([cyclic_permutation(F2, n), matrix_unit(F2, n, 1, 1)], "lie")
        out.append((n, res.subspace.dim))
    return out


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_bounds_csv(path, max_n: int) -> None:
    _write_csv(path, ["n", "k", "index_dim_bound", "conjectured_bound"], bounds_table(max_n))


def write_evidence_csv(path, max_n: int = 5) -> None:
    _write_csv(
        path,
        ["description", "field", "n", "dim", "measured_index", "conjectured_bound", "within_bound"],
        (
            [name, repr(rep.subject.field), bc.ambient_size, bc.dim,
             bc.measured_index, bc.conjectured_bound, bc.within_conjectured_bound]
            for name, rep in conjecture_evidence(max_n)
            for bc in (rep.bound_comparison,)
        ),
    )


def write_closure_observations_csv(path, max_n: int = 4) -> None:
    _write_csv(
        path,
        ["description", "ambient_dim", "subspace_dim", "subspace_index",
         "closure_dim", "closure_index"],
        (
            [name, probe.ambient_dim, probe.subspace_dim,
             probe.subspace_index, probe.closure_dim, probe.closure_index]
            for name, probe in closure_index_observations(max_n)
        ),
    )
