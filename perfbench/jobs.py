"""The three workloads of the liemat benchmark: their jobs, the inputs the
jobs get, and the checks their outputs must pass.

Every check is computed here, from the inputs or from closed forms, with
its own small exact arithmetic (``Arith``) instead of the library's field
methods.  A check returns a problem (``None`` when the output is right)
and a canonical text of the output; the harness compares a digest of that
text with the golden record in ``golden.json``.

Only the recovery workload depends on the seed: seed ``s`` draws its
conjugators from instance ``s % INSTANCES``, so every seed has a golden
record.  The closure and chain jobs are fixed objects of the theory.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import liemat
import liemat.cli
from liemat import ExtensionField, Matrix, PrimeField, Rationals, Subspace, jsonio
from liemat.errors import SingularMatrix

INSTANCES = 32


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], Any]  # the timed call into liemat
    check: Callable[[Any], tuple]  # output -> (problem or None, canonical text)


def instance_key(workload: str, seed: int) -> str:
    return str(seed % INSTANCES) if workload == "recovery" else "fixed"


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Construct the fields and inputs of one workload; recovery also
    writes its map files into ``workdir``."""
    if workload == "closure":
        return _closure_jobs()
    if workload == "chain":
        return _chain_jobs()
    if workload == "recovery":
        return _recovery_jobs(seed % INSTANCES, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# independent exact arithmetic for the checks
# ---------------------------------------------------------------------------

class Arith:
    """Raw-value arithmetic of Q, GF(p) or GF(p^m), written from the field's
    parameters only, so a defect in the library's kernels cannot hide."""

    def __init__(self, field):
        self.p = getattr(field, "p", 0)
        self.modulus = getattr(field, "modulus", None)
        if self.modulus is None:
            self.zero, self.one = 0, 1
            self.key = f"GF({self.p})" if self.p else "Q"
        else:
            m = len(self.modulus) - 1
            self.zero, self.one = (0,) * m, (1,) + (0,) * (m - 1)
            self.key = f"GF({self.p}^{m})/{list(self.modulus)}"

    def add(self, a, b):
        if self.modulus is not None:
            return tuple((x + y) % self.p for x, y in zip(a, b))
        return (a + b) % self.p if self.p else a + b

    def mul(self, a, b):
        if self.modulus is None:
            return (a * b) % self.p if self.p else a * b
        p, mod = self.p, self.modulus
        m = len(mod) - 1
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        for k in range(2 * m - 2, m - 1, -1):  # x^m = -(lower terms), mod is monic
            c = conv[k] % p
            for i in range(m + 1):
                conv[k - m + i] -= c * mod[i]
        return tuple(v % p for v in conv[:m])

    def is_zero(self, a) -> bool:
        return a == self.zero

    def fmt(self, a) -> str:
        return "[" + ",".join(map(str, a)) + "]" if self.modulus is not None else str(a)

    def parse(self, text: str):
        if self.modulus is not None:
            return tuple(int(c) % self.p for c in text.strip("[]").split(","))
        return int(text) % self.p if self.p else Fraction(text)

    def rows_text(self, rows) -> str:
        return ";".join(",".join(map(self.fmt, row)) for row in rows)


def _echelon_problem(rows, ar: Arith) -> str | None:
    """None when ``rows`` is a reduced row-echelon basis."""
    pivots = []
    for row in rows:
        lead = next((i for i, a in enumerate(row) if not ar.is_zero(a)), None)
        if lead is None or (pivots and lead <= pivots[-1]):
            return "basis is not in echelon form"
        if row[lead] != ar.one:
            return "pivot entry is not 1"
        pivots.append(lead)
    for c in pivots:
        if sum(not ar.is_zero(row[c]) for row in rows) != 1:
            return "pivot column is not reduced"
    return None


def _subspace_text(space, ar: Arith) -> str:
    return f"{ar.key}|{space.shape}|{ar.rows_text(space.rows)}"


def _proportional(found_rows, b: Matrix, ar: Arith) -> bool:
    """Is ``found`` a nonzero scalar multiple of ``b``?"""
    want = [a for row in b.entries for a in row]
    got = [a for row in found_rows for a in row]
    k = next(i for i, a in enumerate(want) if not ar.is_zero(a))
    if len(got) != len(want) or ar.is_zero(got[k]):
        return False
    return all(ar.mul(g, want[k]) == ar.mul(got[k], w) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# closure: the worklist sweep, SpanBuilder.insert and sparse products
# ---------------------------------------------------------------------------

def _full_algebra(n):
    def expect(space, ar):
        unit = [tuple(ar.one if j == i else ar.zero for j in range(n * n)) for i in range(n * n)]
        return None if list(space.rows) == unit else f"expected all {n * n} matrix units"
    return expect


def _trace_zero_algebra(n):
    """sl_n: the only subspace of dimension n^2 - 1 made of trace-zero matrices."""
    def expect(space, ar):
        if space.dim != n * n - 1:
            return f"dim {space.dim}, expected {n * n - 1}"
        for row in space.rows:
            tr = ar.zero
            for i in range(n):
                tr = ar.add(tr, row[i * n + i])
            if not ar.is_zero(tr):
                return "basis element with nonzero trace"
        return _echelon_problem(space.rows, ar)
    return expect


def _shift_e21_algebra(n):
    """The associative algebra generated by S and E(2,1).  Words in them span
    E(1,c), E(2,c) and the powers S^k, so it is the set of matrices whose
    rows 3..n are zero on and below the diagonal and constant along each
    superdiagonal: dimension 2n + (n - 3) = 3n - 3, within the cap n(n - 1)."""
    def expect(space, ar):
        if space.dim != 3 * n - 3 or space.dim > n * (n - 1):
            return f"dim {space.dim}, expected {3 * n - 3}"
        for row in space.rows:
            for i in range(2, n):
                for j in range(n):
                    want = ar.zero if j <= i else row[2 * n + 2 + (j - i)]
                    if row[i * n + j] != want:
                        return "basis element outside the generated algebra"
        return _echelon_problem(space.rows, ar)
    return expect


def _closure_job(kind, label, gens, expect):
    ar = Arith(gens[0].field)

    def check(result):
        if result.product_kind != kind:
            return f"product kind {result.product_kind!r}", ""
        problem = expect(result.subspace, ar)
        return problem, f"{kind}|rounds={result.rounds}|{_subspace_text(result.subspace, ar)}"

    return Job(label, lambda: liemat.closure(gens, kind), check)


def _closure_jobs() -> list[Job]:
    Q, F5, F81 = Rationals(), PrimeField(5), ExtensionField(3, 4)
    P, E, S = liemat.cyclic_permutation, liemat.matrix_unit, liemat.upper_shift
    jobs = []
    for F, n in ((Q, 8), (F5, 8), (F81, 6)):
        jobs.append(_closure_job("lie", f"lie P,E11 n={n} {F!r}", [P(F, n), E(F, n, 1, 1)], _full_algebra(n)))
    for F, n in ((Q, 7), (F5, 8)):
        jobs.append(_closure_job("associative", f"assoc S,E{n}1 n={n} {F!r}", [S(F, n), E(F, n, n, 1)], _full_algebra(n)))
    for F in (Q, F5):
        jobs.append(_closure_job("lie", f"lie P,E12 n=7 {F!r}", [P(F, 7), E(F, 7, 1, 2)], _trace_zero_algebra(7)))
    jobs.append(_closure_job("associative", "assoc S,E21 n=7 Q", [S(Q, 7), E(Q, 7, 2, 1)], _shift_e21_algebra(7)))
    return jobs


# ---------------------------------------------------------------------------
# chain: centralizer levels, preimage and elimination on n^2-row systems
# ---------------------------------------------------------------------------

# Levels of the extremal block algebras, recorded when the benchmark was
# defined; their dimension and index follow from the closed forms below.
BLOCK_LEVEL_DIMS = {(6, (2, 2, 2)): [5, 13, 24, 32, 36, 36], (8, (4, 4)): [17, 48, 64, 64]}


def _nilpotency_job(n, parts, field) -> Job:
    space = liemat.extremal_block_algebra(n, parts, field)
    ar = Arith(field)
    dim = (n * n - sum(p * p for p in parts)) // 2 + 1
    index = len(parts) - 1
    level_dims = BLOCK_LEVEL_DIMS[n, parts]

    def check(rep):
        found = [lvl.dim for lvl in rep.chain.levels]
        bc = rep.bound_comparison
        text = (
            f"{rep.is_lie_nilpotent}|{rep.index}|{rep.is_omega_lie_nilpotent}|{rep.dim}|"
            f"{rep.chain.stabilization_index}|{bc.index_dim_bound}|{bc.conjectured_bound}|"
            + "|".join(_subspace_text(lvl, ar) for lvl in rep.chain.levels)
        )
        if (rep.dim, rep.index, rep.is_lie_nilpotent) != (dim, index, True):
            return f"dim {rep.dim} index {rep.index}, expected {dim} and {index}", text
        if found != level_dims:
            return f"level dims {found}, expected {level_dims}", text
        for lvl in rep.chain.levels:
            problem = _echelon_problem(lvl.rows, ar)
            if problem:
                return problem, text
        return None, text

    # a fresh Subspace per call, so no pass reuses the basis another one cached
    return Job(
        f"nilpotency {parts} n={n} {field!r}",
        lambda: liemat.nilpotency_report(Subspace(space.field, space.shape, space.rows)),
        check,
    )


def _centralizer_e11_e12_job(n) -> Job:
    """L_1({E11, E12}) is cut out by r_i1 = 0 (i != 1), r_1j = 0 (j != 1),
    r_22 = r_11 and r_2j = 0 (j != 2): dimension 1 + (n-1)(n-2).  Every
    [r, E11] and [r, E12] with r in L_1 lies in L_1 only when it is 0, so
    L_2 = L_1 and the chain stabilizes at index 1."""
    Q = Rationals()
    ar = Arith(Q)
    gens = [liemat.matrix_unit(Q, n, 1, 1), liemat.matrix_unit(Q, n, 1, 2)]
    dim = 1 + (n - 1) * (n - 2)

    def in_level(row):
        r = [row[i * n:(i + 1) * n] for i in range(n)]
        return (
            all(r[i][0] == 0 for i in range(1, n))
            and all(r[0][j] == 0 for j in range(1, n))
            and r[1][1] == r[0][0]
            and all(r[1][j] == 0 for j in range(n) if j != 1)
        )

    def check(chain):
        text = f"{chain.stabilization_index}|" + "|".join(_subspace_text(lvl, ar) for lvl in chain.levels)
        found = [lvl.dim for lvl in chain.levels]
        if found != [dim, dim] or chain.stabilization_index != 1:
            return f"levels {found} t={chain.stabilization_index}, expected [{dim}, {dim}] t=1", text
        if not all(in_level(row) for row in chain.levels[0].rows):
            return "level element outside L_1", text
        return _echelon_problem(chain.levels[0].rows, ar), text

    return Job(f"centralizer_chain E11,E12 n={n} Q", lambda: liemat.centralizer_chain(gens), check)


def _hereditary_job(n) -> Job:
    """For diagonal units [E_ij, E_aa, E_bb] = (d_ja - d_ia)(d_jb - d_ib) E_ij,
    which is nonzero only for {i, j} = {a, b}; over distinct pairs from
    {E11, E22, E33} the space is all of M_n except E_ab, a != b <= 3."""
    Q = Rationals()
    ar = Arith(Q)
    gens = [liemat.matrix_unit(Q, n, a, a) for a in (1, 2, 3)]
    banned = [a * n + b for a in range(3) for b in range(3) if a != b]

    def check(space):
        text = _subspace_text(space, ar)
        if space.dim != n * n - len(banned):
            return f"dim {space.dim}, expected {n * n - len(banned)}", text
        if any(row[k] != 0 for row in space.rows for k in banned):
            return "element with an off-diagonal entry among the first three units", text
        return _echelon_problem(space.rows, ar), text

    return Job(f"hereditary D k=2 E11,E22,E33 n={n} Q", lambda: liemat.hereditary_centralizer(gens, 2, "D"), check)


def _chain_jobs() -> list[Job]:
    Q, big = Rationals(), PrimeField(1000003)
    jobs = [_nilpotency_job(n, parts, F) for n, parts in ((6, (2, 2, 2)), (8, (4, 4))) for F in (Q, big)]
    jobs.append(_centralizer_e11_e12_job(6))
    jobs.append(_hereditary_job(6))
    return jobs


# ---------------------------------------------------------------------------
# recovery: dense maps, JSON input, the CLI and classification
# ---------------------------------------------------------------------------

def _draw(F, rng):
    if isinstance(F, Rationals):
        return Fraction(rng.randint(-9, 9))
    if isinstance(F, ExtensionField):
        return tuple(rng.randrange(F.p) for _ in range(F.m))
    return rng.randrange(F.p)


def _draw_invertible(F, n, rng) -> Matrix:
    while True:
        b = Matrix(F, [[_draw(F, rng) for _ in range(n)] for _ in range(n)])
        try:
            b.inverse()
        except SingularMatrix:
            continue
        return b


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = liemat.cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _write_map(path: Path, amap) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonio.algebra_map_to_json(amap), fh)


def _cli_recovery_job(label, command, path, b) -> Job:
    ar = Arith(b.field)

    def check(res):
        code, out, err = res
        if code != 0:
            return f"exit {code}: {err.strip()}", ""
        outcome = json.loads(out)["outcome"]
        text = json.dumps(outcome, sort_keys=True)
        rows = [[ar.parse(a) for a in row] for row in outcome["conjugator"]["entries"]]
        if not outcome["verified"] or not _proportional(rows, b, ar):
            return "conjugator is not a scalar multiple of the seeded b", text
        return None, text

    return Job(label, lambda: _run_cli([command, "--in", str(path)]), check)


def _negative_job(label, path) -> Job:
    def check(res):
        code, _out, err = res
        text = f"{code}|{err.strip()}"
        if code != 1 or not err.startswith("NotAnAutomorphism:"):
            return f"expected exit 1 with NotAnAutomorphism, got {text}", text
        return None, text

    return Job(label, lambda: _run_cli(["recover-auto", "--in", str(path)]), check)


def _decompose(psi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the small-field hypothesis note on GF(5)
        return liemat.decompose_lie_automorphism(psi)


def _decompose_job(F, n, rng) -> Job:
    """psi = conj_b + c*tr(.)*I with 1 + n*c != 0, which keeps psi bijective."""
    b = _draw_invertible(F, n, rng)
    while True:
        c = F.coerce(_draw(F, rng)) if not isinstance(F, Rationals) else Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if not F.is_zero(c) and not F.is_zero(F.add(F.one, F.mul(F.from_int(n), c))):
            break
    conj = liemat.conjugation_map(b)
    shift = Matrix.identity(F, n).scale(c)
    images = tuple(img + shift if k % (n + 1) == 0 else img for k, img in enumerate(conj.images))
    psi = liemat.AlgebraMap(n, F, images)
    ar = Arith(F)

    def check(dec):
        text = f"{dec.sigma_kind}|{ar.fmt(dec.tau_coefficient.value)}|{dec.residual_zero}|{ar.rows_text(dec.sigma_conjugator.entries)}"
        if dec.sigma_kind != "automorphism" or dec.tau_coefficient.value != c or not dec.residual_zero:
            return f"got {dec.sigma_kind} with tau {ar.fmt(dec.tau_coefficient.value)}, expected automorphism and {ar.fmt(c)}", text
        if not _proportional(dec.sigma_conjugator.entries, b, ar):
            return "sigma's conjugator is not a scalar multiple of b", text
        return None, text

    return Job(f"decompose n={n} {F!r}", lambda: _decompose(psi), check)


def _recovery_jobs(instance: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"liemat-perfbench-recovery-{instance}")
    fields = [Rationals(), PrimeField(5), PrimeField(1000003), ExtensionField(2, 2), ExtensionField(3, 4)]
    workdir.mkdir(parents=True, exist_ok=True)
    jobs, negative = [], None
    for k, F in enumerate(fields):
        b = _draw_invertible(F, 16, rng)
        for command, make in (("recover-auto", liemat.conjugation_map), ("recover-anti", liemat.transpose_conjugation_map)):
            path = workdir / f"{k}-{command}.json"
            _write_map(path, make(b))
            jobs.append(_cli_recovery_job(f"{command} n=16 {F!r}", command, path, b))
            if command == "recover-anti" and isinstance(F, PrimeField) and F.p == 5:
                negative = path
    for F, n in ((fields[0], 5), (fields[1], 6), (fields[2], 6), (fields[4], 5)):
        jobs.append(_decompose_job(F, n, rng))
    jobs.append(_negative_job("recover-auto on the anti map n=16 GF(5)", negative))
    return jobs
