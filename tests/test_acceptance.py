"""Acceptance criteria, one test per numbered criterion.

Each test prints one ``ACCEPTANCE n (...): PASS|FAIL`` line before its
assertions so the verdict is visible even when an assertion fires.

Criterion 3 note: its associative half requires dim <closure of {S, E21}>
= n^2 for n in 2..6.  That is mathematically unattainable for n >= 3:
the row support of a product lies inside the row support of its left
factor, so every word in {S, E21} is supported on rows 1..n-1 and the
closure dimension is capped at n(n-1).  The assertion is kept as stated
and fails with the measured dimensions; the generating pair {S, E(n,1)}
satisfies both halves (verified in test_lie.py).
"""

import itertools
import time

from liemat import (
    Matrix,
    balanced_parts,
    basis_unit_vector,
    centralizer_step,
    centralizer_chain,
    closure,
    conjugation_map,
    cyclic_permutation,
    decompose_lie_automorphism,
    extremal_block_algebra,
    left_normed,
    leibniz_expansion_check,
    lie_centralizer,
    matrix_unit,
    nilpotency_report,
    nilpotent_subalgebra_dim_bound,
    recover_antiautomorphism,
    recover_automorphism,
    residual_trace_form_check,
    scalar_multiple_of_identity,
    symplectic_involution,
    transpose_conjugation_map,
    upper_shift,
)
from liemat.cli import dispatch
from liemat.recovery import AlgebraMap
from liemat.experiments import (
    write_bounds_csv,
    write_closure_observations_csv,
    write_evidence_csv,
)

from support import GF4, GF5, GF7, Q, partitions, random_invertible, random_matrix, rng_for


def announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{suffix}")
    return ok


def test_criterion_1_symplectic_example(capsys):
    started = time.perf_counter()
    ok = True
    for field in (Q, GF7):
        m = AlgebraMap.from_function(8, field, symplectic_involution)
        phi_st = symplectic_involution(upper_shift(field, 8).transpose())
        ok &= phi_st**7 * symplectic_involution(
            matrix_unit(field, 8, 1, 8)
        ) == matrix_unit(field, 8, 5, 5)
        result = recover_antiautomorphism(m)
        ok &= result.verified  # all 64 units re-checked inside
        ok &= result.kernel_vector == basis_unit_vector(field, 8, 5)
        minus_one = field.neg(field.one)
        expected = Matrix(
            field,
            [
                [field.zero] * 4
                + [minus_one if j == i else field.zero for j in range(4)]
                for i in range(4)
            ]
            + [
                [field.one if j == i else field.zero for j in range(4)]
                + [field.zero] * 4
                for i in range(4)
            ],
        )
        ok &= result.conjugator == expected
    ok &= dispatch(["verify-example"]) == 0
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    with capsys.disabled():
        announce(1, "symplectic example reproduction", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_2_two_generator_lie_closure(capsys):
    started = time.perf_counter()
    ok = True
    for field in (Q, GF5, GF7):
        for n in range(2, 7):
            result = closure(
                [cyclic_permutation(field, n), matrix_unit(field, n, 1, 1)], "lie"
            )
            ok &= result.subspace.dim == n * n
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    with capsys.disabled():
        announce(2, "Lie closure of {P, E11} is everything", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_3_shift_and_low_unit_closures(capsys):
    lie_ok = True
    assoc_dims = {}
    for n in range(2, 7):
        s, e21 = upper_shift(Q, n), matrix_unit(Q, n, 2, 1)
        lie_result = closure([s, e21], "lie")
        lie_ok &= all(Q.is_zero(b.trace_raw()) for b in lie_result.subspace.basis)
        lie_ok &= lie_result.subspace.dim <= n * n - 1
        assoc_dims[n] = closure([s, e21], "associative").subspace.dim
    assoc_ok = all(dim == n * n for n, dim in assoc_dims.items())
    ok = lie_ok and assoc_ok
    with capsys.disabled():
        announce(
            3,
            "{S, E21} closures",
            ok,
            f"lie half {'ok' if lie_ok else 'FAILED'}; associative dims "
            f"{assoc_dims} vs required n^2 (unattainable for n >= 3: every "
            "word in {S, E21} has row support inside rows 1..n-1)",
        )
    assert lie_ok
    assert assoc_ok, (
        "associative closure of {S, E21} measured dims "
        f"{assoc_dims}; dim n^2 is impossible for n >= 3 because every word "
        "has row support inside rows 1..n-1, capping the dimension at "
        "n(n-1); the pair {S, E(n,1)} does satisfy both halves, see "
        "test_lie.py::test_generation_at_scale_with_transposed_unit"
    )


def test_criterion_4_conjugator_roundtrip(capsys):
    started = time.perf_counter()
    samples = 200
    ok = True
    for field in (Q, GF5, GF4):
        for n in (2, 3, 4, 5):
            rng = rng_for("acceptance-4", repr(field), n)
            eye = Matrix.identity(field, n)
            for _ in range(samples):
                b = random_invertible(field, n, rng)
                b_inv = b.inverse()

                auto_map = conjugation_map(b)
                result = recover_automorphism(auto_map)
                ok &= result.verified
                ok &= scalar_multiple_of_identity(b_inv * result.conjugator) is not None
                phi_s = sum(
                    (auto_map.image(i, i + 1) for i in range(2, n)),
                    auto_map.image(1, 2),
                )
                m_mat = phi_s ** (n - 1) * auto_map.image(n, 1)
                ok &= (eye - m_mat).rank() == n - 1

                anti_map = transpose_conjugation_map(b)
                anti = recover_antiautomorphism(anti_map)
                ok &= anti.verified
                ok &= scalar_multiple_of_identity(b_inv * anti.conjugator) is not None
                phi_st = sum(
                    (anti_map.image(i + 1, i) for i in range(2, n)),
                    anti_map.image(2, 1),
                )
                m_anti = phi_st ** (n - 1) * anti_map.image(1, n)
                ok &= (eye - m_anti).rank() == n - 1
                if not ok:
                    break
    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    with capsys.disabled():
        announce(
            4,
            "Skolem-Noether roundtrips, 200 per field and size",
            ok,
            f"{elapsed:.1f}s",
        )
    assert ok


def _chain_corpus():
    rng = rng_for("acceptance-chain-corpus")
    corpus = []
    for i in range(100):
        field = GF5 if i % 2 == 0 else Q
        n = rng.randint(2, 4)
        count = rng.randint(1, 3)
        corpus.append([random_matrix(field, n, n, rng) for _ in range(count)])
    return corpus


def test_criterion_5_chain_laws(capsys):
    started = time.perf_counter()
    ok = True
    for mats in _chain_corpus():
        n = mats[0].nrows
        field = mats[0].field
        chain = centralizer_chain(mats)
        ok &= chain.levels[0].contains(Matrix.identity(field, n))
        ok &= chain.stabilization_index <= n * n
        for lower, higher in zip(chain.levels, chain.levels[1:]):
            ok &= higher.contains_subspace(lower)
        level = chain.omega
        for _ in range(3):
            level = centralizer_step(mats, level)
            ok &= level == chain.omega
        if not ok:
            break
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        announce(5, "centralizer chain laws on 100 random sets", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_6_products_and_expansion(capsys):
    started = time.perf_counter()
    ok = True
    # product containment, exhaustive over basis pairs, p + q <= 5
    for mats in _chain_corpus():
        chain = centralizer_chain(mats)
        for p, q in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1),
                     (1, 4), (2, 3), (3, 2), (4, 1)]:
            lp, lq = chain.level(p), chain.level(q)
            target = chain.level(p + q - 1)
            for r, s in itertools.product(lp.basis, lq.basis):
                if not target.contains(r * s):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    # expansion identity on 500 seeded random instances, k <= 4
    rng = rng_for("acceptance-leibniz")
    for i in range(500):
        field = GF5 if i % 2 == 0 else Q
        n = rng.randint(2, 4)
        k = rng.randint(1, 4)
        r = random_matrix(field, n, n, rng)
        s = random_matrix(field, n, n, rng)
        xs = [random_matrix(field, n, n, rng) for _ in range(k)]
        ok &= leibniz_expansion_check(r, s, xs)
        if not ok:
            break
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        announce(
            6, "level products and bracket expansion", ok, f"{elapsed:.1f}s"
        )
    assert ok


def test_criterion_7_insertions_vanish(capsys):
    started = time.perf_counter()
    ok = True
    rng = rng_for("acceptance-insertions")
    for case in range(12):
        field = GF5 if case % 2 == 0 else Q
        n = rng.randint(2, 3)
        mats = [random_matrix(field, n, n, rng) for _ in range(rng.randint(1, 2))]
        for k in (1, 2, 3):
            basis = lie_centralizer(mats, k).basis
            for r in basis:
                for xs in itertools.product(mats, repeat=k):
                    for j in range(1, k + 1):
                        value = left_normed([*xs[:j], r, *xs[j:]])
                        ok &= value.is_zero()
        if not ok:
            break
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        announce(7, "permuted insertions vanish", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_8_dimension_bounds(capsys):
    started = time.perf_counter()
    ok = True
    # closed form against exhaustive search (partitions; the summed squares
    # are symmetric, so this covers every composition)
    for n in range(1, 13):
        for k in range(1, n + 1):
            brute = max(
                (n * n - sum(p * p for p in parts)) // 2 + 1
                for parts in partitions(n, k + 1)
            )
            ok &= brute == nilpotent_subalgebra_dim_bound(n, k)
    # sharpness witnesses: balanced block algebras hit the bound and are
    # Lie-nilpotent of index at most k
    for n in range(2, 7):
        for k in range(1, n + 1):
            parts = balanced_parts(n, k + 1)
            witness = extremal_block_algebra(n, parts)
            ok &= witness.dim == nilpotent_subalgebra_dim_bound(n, k)
            report = nilpotency_report(witness)
            ok &= report.is_lie_nilpotent and report.index <= k
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        announce(8, "dimension bounds and sharpness witnesses", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_9_decompositions(capsys):
    started = time.perf_counter()
    ok = True
    for n in (2, 3):
        eye = Matrix.identity(Q, n)
        psi = AlgebraMap.from_function(
            n, Q, lambda u, eye=eye: u + eye.scale(u.trace_raw())
        )
        dec = decompose_lie_automorphism(psi)
        ok &= dec.sigma_kind == "automorphism"
        ok &= dec.tau_coefficient == Q.scalar(1)
        ok &= dec.residual_zero
        sigma = dec.sigma_map()
        ok &= sigma.images == AlgebraMap.from_function(n, Q, lambda u: u).images
        ok &= residual_trace_form_check(psi, sigma)
        # exact reproduction on every unit
        shift = eye
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = sigma.image(i, j) + (shift if i == j else Matrix.zeros(Q, n))
                ok &= psi.image(i, j) == expected
    neg_transpose = AlgebraMap.from_function(3, Q, lambda u: -u.transpose())
    dec = decompose_lie_automorphism(neg_transpose)
    ok &= dec.sigma_kind == "negative-anti-automorphism"
    ok &= dec.tau_coefficient == Q.scalar(0)
    ok &= dec.residual_zero
    ok &= residual_trace_form_check(neg_transpose, dec.sigma_map())
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        announce(9, "Lie-automorphism decompositions", ok, f"{elapsed:.1f}s")
    assert ok


def test_note_recorded_evidence_experiments(tmp_path, capsys):
    # open statements are probed, recorded to CSV, and never asserted
    started = time.perf_counter()
    bounds_csv = tmp_path / "bounds.csv"
    evidence_csv = tmp_path / "evidence.csv"
    closure_csv = tmp_path / "closure_observations.csv"
    write_bounds_csv(bounds_csv, 8)
    write_evidence_csv(evidence_csv, 4)
    write_closure_observations_csv(closure_csv, 3)
    ok = all(
        path.exists() and len(path.read_text().strip().splitlines()) > 1
        for path in (bounds_csv, evidence_csv, closure_csv)
    )
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        announce(
            "note", "recorded-evidence experiments emit CSV", ok, f"{elapsed:.1f}s"
        )
    assert ok
