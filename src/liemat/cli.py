"""Command-line front-end.

Each subcommand is declared once, in ``build_parser``, with exactly the
flags its handler reads: every command takes ``--out FILE``; the eight
that read a subject or a map take ``--in FILE`` or ``--preset`` with
``--field`` and ``--n`` (mixing ``--in`` with any of the other three is a
usage error); ``selftest`` alone takes ``--seed``.

Every subcommand prints one JSON document, its run report, to stdout:

    {"command": ..., "inputs": [...], "outcome": {...}, "timing_ms": ...,
     "warnings": [...]}

where ``warnings`` holds the text of every warning the command raised
(on failure they follow the typed error line on stderr).  ``--out FILE``
first writes the primary artifact (matrix, subspace, recovery result,
...) as JSON that the same tool accepts back; a failed write prints no
report.  Exit codes: 0 success, 1 domain error, 2 malformed input, usage,
or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
import warnings

from . import jsonio
from .centralizers import (
    bounds_table,
    centralizer_chain,
    hereditary_centralizer,
    nilpotency_report,
)
from .errors import LiematError, MalformedJSON
from .experiments import write_bounds_csv
from .fields import PrimeField, Rationals
from .lie import bracket, closure
from .matrices import Matrix, basis_unit_vector, symplectic_involution
from .presets import preset_map, preset_matrices
from .recovery import (
    AlgebraMap,
    decompose_lie_automorphism,
    recover,
)
from .selftest import run as run_selftest
from .subspaces import Subspace


def _infile(args):
    """The ``--in`` path, or None for a ``--preset`` run.  ``--in`` names
    the whole input, so combining it with a preset flag is a usage error."""
    if args.infile:
        mixed = [flag for flag, value in
                 (("--preset", args.preset), ("--n", args.n), ("--field", args.field))
                 if value is not None]
        if mixed:
            raise MalformedJSON(f"--in cannot be combined with {', '.join(mixed)}")
    return args.infile


def _preset_args(args):
    """(field, n) of a ``--preset`` run, which needs both flags; the field
    defaults to Q."""
    if not args.preset:
        raise MalformedJSON("supply --in or --preset")
    field = jsonio.parse_field_flag("q" if args.field is None else args.field)
    if args.n is None:
        raise MalformedJSON("--preset needs --n")
    return field, args.n


def _load_subject(args):
    """Finite set or subspace, preserving which one was given."""
    if _infile(args):
        data = jsonio.load_path(args.infile)
        if isinstance(data, dict) and "ambient" in data:
            return jsonio.subspace_from_json(data)
        return jsonio.matrix_list_from_json(data)
    return preset_matrices(args.preset, *_preset_args(args))


def _load_matrices(args) -> list[Matrix]:
    subject = _load_subject(args)
    return subject.basis if isinstance(subject, Subspace) else subject


def _load_map(args, from_json=jsonio.algebra_map_from_json):
    if _infile(args):
        return from_json(jsonio.load_path(args.infile))
    return preset_map(args.preset, *_preset_args(args))


def _cmd_bracket(args):
    mats = _load_matrices(args)
    if len(mats) != 2:
        raise MalformedJSON("bracket needs exactly two matrices")
    artifact = jsonio.matrix_to_json(bracket(mats[0], mats[1]))
    return {"matrix": artifact}, artifact


def _cmd_closure(args):
    result = closure(_load_matrices(args), args.kind)
    artifact = jsonio.subspace_to_json(result.subspace)
    outcome = {
        "kind": result.product_kind,
        "dim": result.subspace.dim,
        "rounds": result.rounds,
        "subspace": artifact,
    }
    return outcome, artifact


def _cmd_chain(args):
    chain = centralizer_chain(_load_subject(args), args.max_k)
    artifact = jsonio.subspace_to_json(chain.omega)
    outcome = {
        "level_dims": [lvl.dim for lvl in chain.levels],
        "stabilization_index": chain.stabilization_index,
        "omega": artifact,
    }
    return outcome, artifact


def _cmd_nilpotency(args):
    rep = nilpotency_report(_load_subject(args))
    outcome = {
        "is_lie_nilpotent": rep.is_lie_nilpotent,
        "index": rep.index,
        "is_omega_lie_nilpotent": rep.is_omega_lie_nilpotent,
        "dim": rep.dim,
        "bound_comparison": dataclasses.asdict(rep.bound_comparison),
    }
    return outcome, outcome


def _cmd_hereditary(args):
    space = hereditary_centralizer(_load_matrices(args), args.k, args.prop)
    artifact = jsonio.subspace_to_json(space)
    return {"dim": space.dim, "subspace": artifact}, artifact


def _cmd_bounds(args):
    table = bounds_table(args.max_n)
    if args.csv:
        write_bounds_csv(args.csv, args.max_n)
    outcome = {
        "rows": [
            {"n": n, "k": k, "index_dim_bound": g, "conjectured_bound": c}
            for n, k, g, c in table
        ]
    }
    return outcome, outcome


def _cmd_recover(args):
    # a document is recovered from its generator images, the rest checked on its texts
    result = recover(_load_map(args, jsonio.unparsed_map_from_json), anti=args.anti)
    outcome = {
        "conjugator": jsonio.matrix_to_json(result.conjugator),
        "kernel_vector": jsonio.matrix_to_json(result.kernel_vector),
        "verified": result.verified,
        "scalar_class": result.scalar_class,
    }
    return outcome, outcome


def _cmd_decompose(args):
    dec = decompose_lie_automorphism(_load_map(args))
    outcome = {
        "sigma_kind": dec.sigma_kind,
        "sigma_conjugator": jsonio.matrix_to_json(dec.sigma_conjugator),
        "tau_coefficient": dec.field.format_scalar(dec.tau_coefficient.value),
        "residual_zero": dec.residual_zero,
        # the certificate of the decomposition: psi(E(i,j)) - c*delta_ij*I
        # is sigma(E(i,j)) on every unit, so tau = c*tr(.)*I exactly
        "tau_trace_shaped": dec.residual_zero,
    }
    return outcome, outcome


def _cmd_verify_example(args):
    """The symplectic involution of size 8 over Q and GF(7): its conjugator
    is the block matrix [[0, -I4], [I4, 0]], its kernel vector e5."""
    results = []
    for field in (Rationals(), PrimeField(7)):
        m = AlgebraMap.from_function(8, field, symplectic_involution)
        result = recover(m, anti=True)
        expected = Matrix(
            field,
            [[0] * 4 + [-1 if j == i else 0 for j in range(4)] for i in range(4)]
            + [[1 if j == i else 0 for j in range(4)] + [0] * 4 for i in range(4)],
        )
        results.append(
            {
                "field": jsonio.field_to_json(field),
                "conjugator": jsonio.matrix_to_json(result.conjugator),
                "kernel_vector": jsonio.matrix_to_json(result.kernel_vector),
                "verified": result.verified
                and result.conjugator == expected
                and result.kernel_vector == basis_unit_vector(field, 8, 5),
            }
        )
    outcome = {"results": results, "verified": all(r["verified"] for r in results)}
    if not outcome["verified"]:
        raise LiematError("symplectic example did not verify")
    return outcome, outcome


def _cmd_selftest(args):
    collected = []
    ok = run_selftest(args.seed, out=collected.append)
    outcome = {"ok": ok, "checks": collected}
    if not ok:
        raise LiematError("selftest failed:\n" + "\n".join(collected))
    return outcome, outcome


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liemat",
        description="exact matrix Lie-algebra computations: closures, "
        "centralizer chains, nilpotency bounds, and conjugator recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    matrix_names = "comma-separated matrix names"
    map_presets = "map preset: identity | transpose | symplectic | trace-shift"

    def command(name, handler, help, preset_help=None):
        """Declare a subcommand; ``preset_help`` marks one that reads input."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--out", dest="outfile", help="write the artifact JSON here")
        if preset_help:
            p.add_argument("--in", dest="infile", help="input JSON file")
            p.add_argument("--preset", help=preset_help)
            p.add_argument("--field", help="q (the default) | gf:p | gfext:p:m[:modulus]")
            p.add_argument("--n", type=int, default=None, help="matrix size for presets")
        return p

    command("bracket", _cmd_bracket, "commutator of two matrices",
            "two comma-separated matrix names, e.g. E11,P")
    p = command("closure", _cmd_closure, "Lie or associative subalgebra closure",
                "comma-separated generator names, e.g. P,E11")
    p.add_argument("--kind", choices=["lie", "associative"], default="lie")
    p = command("chain", _cmd_chain, "Lie centralizer chain of a finite set", matrix_names)
    p.add_argument("--max-k", type=int, default=None)
    command("nilpotency", _cmd_nilpotency, "Lie-nilpotency report for a set or subspace",
            matrix_names)
    p = command("hereditary", _cmd_hereditary,
                "centralizer restricted to D- or L-tuples", matrix_names)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prop", choices=["D", "L"], required=True)
    p = command("bounds", _cmd_bounds, "dimension-bound table")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--csv", help="also write the table as CSV")
    command("recover-auto", _cmd_recover, "conjugator of a (possibly twisted) automorphism",
            map_presets).set_defaults(anti=False)
    command("recover-anti", _cmd_recover,
            "conjugator of a (possibly twisted) anti-automorphism",
            map_presets).set_defaults(anti=True)
    command("decompose", _cmd_decompose, "split a bracket-preserving map as sigma + c*tr(.)*I",
            map_presets)
    command("verify-example", _cmd_verify_example,
            "reproduce the built-in size-8 symplectic-involution recovery")
    p = command("selftest", _cmd_selftest, "run the in-process invariant suite")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized parts")
    return parser


# one parser per process: parsing keeps no state in it, and building it
# costs more than most commands on small inputs
_parser = functools.cache(build_parser)


def dispatch(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.perf_counter()
    error = None
    # warnings go into the report, so stdout stays one JSON document
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome, artifact = args.handler(args)
            elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
            if args.outfile:
                with open(args.outfile, "w", encoding="utf-8") as fh:
                    json.dump(artifact, fh, sort_keys=True, indent=1)
        except MalformedJSON as exc:
            error, code = f"{type(exc).__name__}: {exc}", 2
        except LiematError as exc:
            error, code = f"{type(exc).__name__}: {exc}", 1
        except OSError as exc:  # inputs are read by jsonio, so this is a write
            error, code = f"MalformedJSON: cannot write output: {exc}", 2
        except (TypeError, ValueError) as exc:
            error, code = f"{type(exc).__name__}: {exc}", 2
    notes = [str(w.message) for w in caught]
    if error is not None:
        print("\n".join([error] + notes), file=sys.stderr)
        return code
    report = {
        "command": args.command,
        "inputs": [p for p in [getattr(args, "infile", None)] if p],
        "outcome": outcome,
        "timing_ms": elapsed_ms,
        "warnings": notes,
    }
    print(json.dumps(report, sort_keys=True))
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
