"""The benchmark tracer (``perfbench/tracing.py``) wraps library functions
by name, looking each one up with ``vars(owner)[attr]``.  A refactor that
moves or renames one of them breaks ``run.py --trace 1`` with a
``KeyError``; these checks catch that without running the benchmark.  The
name checks only import the module; one test installs the tracer around a
few small calls and uninstalls it again."""

import importlib.util
from pathlib import Path

import pytest

from liemat import ExtensionField, PrimeField, Rationals, cyclic_permutation, fields, lie, matrix_unit
from liemat.matrices import SpanBuilder
from liemat.sampling import random_invertible

from support import rng_for

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_names_an_attribute_of_its_owner(tracing):
    missing = [f"{owner.__name__}.{attr}" for _name, owner, attr, *_ in tracing.SPANS
               if attr not in vars(owner)]
    assert not missing


def test_every_field_kernel_is_defined_on_a_field_class(tracing):
    classes = [fields.Field, *_subclasses(fields.Field)]
    missing = [attr for _stem, attr, _terms in tracing.FIELD_KERNELS
               if not any(attr in vars(cls) for cls in classes)]
    assert not missing


def test_insert_is_defined_on_span_builder_only():
    """The tracer wraps ``SpanBuilder.insert``; an override in a subclass
    would run unwrapped.  ``contains`` is the same reduction and is kept
    on the base class too."""
    for name in ("insert", "contains"):
        assert name in vars(SpanBuilder)
        assert not [cls.__name__ for cls in _subclasses(SpanBuilder) if name in vars(cls)]


@pytest.mark.parametrize("kind", ["lie", "associative"])
@pytest.mark.parametrize("field", [Rationals(), PrimeField(5)], ids=repr)
def test_every_closure_insert_is_traced(tracing, field, kind, monkeypatch):
    """Every vector a closure adds to its span, each generator and each
    product a Lie sweep yields or the associative spin forms, goes through
    ``SpanBuilder.insert``, the one insert the tracer wraps: a plain hook on
    an untraced run counts one call for each, and the traced run of the same
    closure counts as many."""
    gens = [cyclic_permutation(field, 4), matrix_unit(field, 4, 1, 1)]
    counts = {"insert": 0, "products": 0}
    insert, sweep = SpanBuilder.insert, lie._sweep

    def counted_insert(self, *args):
        counts["insert"] += 1
        return insert(self, *args)

    def counted_sweep(*args):
        for pair in sweep(*args):
            counts["products"] += 1
            yield pair

    with monkeypatch.context() as patched:
        patched.setattr(SpanBuilder, "insert", counted_insert)
        patched.setattr(lie, "_sweep", counted_sweep)
        hooked = lie.closure(gens, kind)
    assert counts["insert"] > hooked.subspace.dim
    if kind == "lie":
        assert counts["insert"] == len(gens) + counts["products"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_job(0)
        traced = lie.closure(gens, kind)
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert traced == hooked
    assert tracer.counts["subspaces.insert.calls"] == counts["insert"]


@pytest.mark.parametrize(
    "field", [Rationals(), PrimeField(5), ExtensionField(3, 2), ExtensionField(2, 17)], ids=repr
)
def test_wrapped_kernels_take_what_the_library_passes(tracing, field):
    """The wrappers count the terms of a vector kernel with ``len``, so the
    library must hand those kernels sized sequences.  A closure and an
    inverse run traced on every kind of field, and everything is put back."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_job(0)
        lie.closure([cyclic_permutation(field, 3), matrix_unit(field, 3, 1, 1)])
        random_invertible(field, 4, rng_for("traced", repr(field))).inverse()
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert tracer.counts["subspaces.insert.calls"] and tracer.counts["lie.closure.calls"]


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *_subclasses(sub)]
    return out
