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
    would run unwrapped."""
    assert "insert" in vars(SpanBuilder)
    assert not [cls.__name__ for cls in _subclasses(SpanBuilder) if "insert" in vars(cls)]


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
