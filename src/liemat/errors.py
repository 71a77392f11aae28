"""Typed errors shared by every module, and the size guard that raises
:class:`EnumerationTooLarge`.

Each class name doubles as the stable error code the CLI prints, so the
names follow the domain vocabulary rather than the usual ``...Error``
suffix convention.
"""

ENUMERATION_GUARD = 10**6


class LiematError(Exception):
    """Base class for all domain errors raised by this package."""


class DivisionByZero(LiematError, ZeroDivisionError):
    """Division by, or inversion of, the zero element of a field."""


class FieldMismatch(LiematError):
    """Operands belong to different fields."""


class IncompatibleAutomorphism(LiematError):
    """A Frobenius twist was requested on a field that has none, or with a
    power outside ``[0, m)`` on GF(p^m)."""


class DimensionMismatch(LiematError):
    """Matrix shapes are incompatible for the requested operation."""


class IndexOutOfRange(LiematError, IndexError):
    """Matrix-unit index outside ``[1, n]``."""


class SingularMatrix(LiematError):
    """Inverse requested for a matrix of deficient rank."""


class OddDimension(LiematError):
    """The symplectic involution needs an even matrix size."""


class MixedShapes(LiematError):
    """Subspace or closure inputs do not share one ambient space."""


class EmptySequence(LiematError):
    """A left-normed product or expansion got an empty argument list."""


class PreconditionViolated(LiematError):
    """A checked precondition (e.g. centralizer membership) failed."""


class InvalidIndex(LiematError, ValueError):
    """A centralizer level, product level or chain cap below 1, or a chain
    that does not stabilize within the requested cap."""


class EnumerationTooLarge(LiematError):
    """A tuple enumeration or a table would exceed the configured guard."""


def check_guard(count: int, what: str) -> None:
    """Refuse ``count`` > ``ENUMERATION_GUARD`` items before any is built."""
    if count > ENUMERATION_GUARD:
        raise EnumerationTooLarge(f"{what} exceed the guard of {ENUMERATION_GUARD}")


class InvalidComposition(LiematError):
    """Block sizes are not positive integers summing to n."""


class NotAnAutomorphismImagePair(LiematError):
    """The two given matrices are not generator images of any automorphism."""


class NotAnAutomorphism(LiematError):
    """Conjugation by the recovered matrix does not reproduce the map."""


class NotATwistedAutomorphism(LiematError):
    """Twisted conjugation by the recovered matrix does not reproduce the map."""


class NotAnAntiAutomorphism(LiematError):
    """Transpose-conjugation by the recovered matrix does not reproduce the map."""


class NotATwistedAntiAutomorphism(LiematError):
    """Twisted transpose-conjugation does not reproduce the map."""


class NotDecomposable(LiematError):
    """Neither decomposition branch verified for a bracket-preserving map."""


class CharacteristicDividesN(LiematError):
    """The field characteristic divides the matrix size, so the trace
    coefficient cannot be isolated."""


class ResidualNotScalar(LiematError):
    """A residual that must be a scalar multiple of the identity is not."""


class MalformedJSON(LiematError):
    """Input text is not valid JSON or breaks the documented schema, or the
    command line is unusable: a bad flag, or a file that cannot be read or written."""
