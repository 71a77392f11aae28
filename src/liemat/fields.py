"""Exact field arithmetic over the rationals, GF(p), and GF(p^m).

Every field is an immutable descriptor object whose methods operate on
*raw* element values:

* ``Rationals``       -- :class:`fractions.Fraction` (always lowest terms),
* ``PrimeField(p)``   -- residues ``int`` in ``[0, p)``,
* ``ExtensionField``  -- coefficient tuples of length ``m`` over GF(p),
  ascending degree, reduced modulo a monic irreducible polynomial.

Matrix and subspace code calls the field methods directly on raw values;
:class:`Scalar` wraps a ``(field, value)`` pair with operator overloading
for the public API.  All values are immutable and safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import DivisionByZero, FieldMismatch, IncompatibleAutomorphism

_FRAC_ZERO = Fraction(0)
_FRAC_ONE = Fraction(1)


def is_prime(n: int) -> bool:
    """Trial-division primality test; the fields in scope keep p small."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficient tuples in ascending degree
# ---------------------------------------------------------------------------

def _poly_trim(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim([c % p for c in out])


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> tuple[int, ...]:
    # mod is monic
    a = list(c % p for c in a)
    dm = len(mod) - 1
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k] % p
        if c:
            for i in range(dm + 1):
                a[k - dm + i] = (a[k - dm + i] - c * mod[i]) % p
    return _poly_trim(a[:dm])


def _poly_sub(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _poly_trim([c % p for c in out])


def _poly_divmod(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [c % p for c in a]
    quo = [0] * max(1, len(a) - len(b) + 1)
    lead_inv = pow(b[-1], -1, p)
    for k in range(len(rem) - 1, len(b) - 2, -1):
        c = (rem[k] * lead_inv) % p
        if c:
            quo[k - len(b) + 1] = c
            for i, bi in enumerate(b):
                rem[k - len(b) + 1 + i] = (rem[k - len(b) + 1 + i] - c * bi) % p
    return _poly_trim(quo), _poly_trim(rem)


def _poly_gcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    while b:
        lead_inv = pow(b[-1], -1, p)
        monic_b = tuple((c * lead_inv) % p for c in b)
        a, b = b, _poly_mod(a, monic_b, p)
    if a:
        lead_inv = pow(a[-1], -1, p)
        a = tuple((c * lead_inv) % p for c in a)
    return a


def _poly_powmod(base: tuple[int, ...], e: int, mod: Sequence[int], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = _poly_mod(base, mod, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), mod, p)
        base = _poly_mod(_poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p).

    Degree 2 and 3 are settled by a root search; in general the
    Frobenius-gcd criterion is used: f of degree m is irreducible iff
    x^(p^m) = x mod f and gcd(x^(p^(m/q)) - x, f) = 1 for every prime
    divisor q of m.
    """
    m = len(modulus) - 1
    if m < 1 or modulus[-1] % p != 1:
        return False
    mod = tuple(c % p for c in modulus)
    if m == 1:
        return True
    if m <= 3:
        for a in range(p):
            acc = 0
            for c in reversed(mod):
                acc = (acc * a + c) % p
            if acc == 0:
                return False
        return True
    x = (0, 1)
    if _poly_powmod(x, p**m, mod, p) != _poly_mod(x, mod, p):
        return False
    for q in _prime_divisors(m):
        h = _poly_powmod(x, p ** (m // q), mod, p)
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        if _poly_gcd(_poly_trim(diff), mod, p) != (1,):
            return False
    return True


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Deterministic default modulus: the first monic irreducible of degree m,
    enumerating the low coefficients (c0, ..., c_{m-1}) as base-p digits."""
    for k in range(p**m):
        coeffs = []
        kk = k
        for _ in range(m):
            coeffs.append(kk % p)
            kk //= p
        candidate = tuple(coeffs) + (1,)
        if is_irreducible(candidate, p):
            return candidate
    raise ValueError(f"no irreducible polynomial of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Field:
    """Shared interface of the concrete field classes.

    Raw-value methods (``add``, ``mul``, ...) never allocate wrappers, so
    matrix kernels stay cheap; ``scalar``/``parse_scalar`` produce
    :class:`Scalar` objects for the public surface.
    """

    zero: object
    one: object
    characteristic: int
    order: int | None  # None for infinite fields

    # -- raw arithmetic -----------------------------------------------------

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def from_int(self, k: int):
        raise NotImplementedError

    def coerce(self, value):
        """Normalize ints / strings / Scalars / raw values to a raw value."""
        raise NotImplementedError

    # -- vector kernels (hot paths; overridden where a faster idiom exists) --

    def dot(self, u: Sequence, v: Sequence):
        acc = self.zero
        for a, b in zip(u, v):
            acc = self.add(acc, self.mul(a, b))
        return acc

    def vec_scale(self, u: Sequence, c) -> list:
        return [self.mul(c, a) for a in u]

    def vec_submul(self, u: Sequence, c, v: Sequence) -> list:
        """u - c*v, elementwise."""
        return [self.sub(a, self.mul(c, b)) for a, b in zip(u, v)]

    # -- text & sampling ----------------------------------------------------

    def format_scalar(self, a) -> str:
        raise NotImplementedError

    def parse_scalar(self, text: str):
        raise NotImplementedError

    def random_scalar(self, rng):
        raise NotImplementedError

    def elements(self) -> Iterator:
        raise ValueError(f"{self!r} is not finite")

    def scalar(self, value) -> "Scalar":
        return Scalar(self, self.coerce(value))

    def check_same(self, other: "Field") -> None:
        if self != other:
            raise FieldMismatch(f"{self!r} vs {other!r}")


class Rationals(Field):
    """The field of rational numbers with exact Fraction arithmetic."""

    characteristic = 0
    order = None
    zero = _FRAC_ZERO
    one = _FRAC_ONE

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise DivisionByZero("1/0 over Q")
        return 1 / a

    def div(self, a, b):
        if not b:
            raise DivisionByZero(f"{a}/0 over Q")
        return a / b

    def is_zero(self, a) -> bool:
        return not a

    def from_int(self, k: int):
        return Fraction(k)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, Scalar):
            value.field.check_same(self)
            return value.value
        if isinstance(value, (int, str)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def dot(self, u, v):
        # skipping zero terms dodges a Fraction normalization per entry
        return sum((a * b for a, b in zip(u, v) if a and b), _FRAC_ZERO)

    def vec_scale(self, u, c):
        return [c * a if a else a for a in u]

    def vec_submul(self, u, c, v):
        return [a - c * b if b else a for a, b in zip(u, v)]

    def format_scalar(self, a) -> str:
        return str(a)

    def parse_scalar(self, text: str):
        return Fraction(text.strip())

    def random_scalar(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """GF(p) for a prime p, residues stored in [0, p)."""

    order: int

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"1/0 over GF({self.p})")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a) -> bool:
        return a == 0

    def from_int(self, k: int):
        return k % self.p

    def coerce(self, value):
        if isinstance(value, bool):
            raise TypeError("bool is not a field element")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Scalar):
            value.field.check_same(self)
            return value.value
        if isinstance(value, str):
            return int(value) % self.p
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def dot(self, u, v):
        return sum(map(int.__mul__, u, v)) % self.p

    def vec_scale(self, u, c):
        p = self.p
        return [(c * a) % p if a else 0 for a in u]

    def vec_submul(self, u, c, v):
        p = self.p
        return [(a - c * b) % p if b else a for a, b in zip(u, v)]

    def format_scalar(self, a) -> str:
        return str(a)

    def parse_scalar(self, text: str):
        return int(text.strip()) % self.p

    def random_scalar(self, rng):
        return rng.randrange(self.p)

    def elements(self):
        return iter(range(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField(Field):
    """GF(p^m), m >= 2, as GF(p)[x] modulo a monic irreducible polynomial.

    Elements are coefficient tuples of length m in ascending degree.  When
    no modulus is supplied, the lexicographically smallest irreducible one
    is chosen so that runs are reproducible.
    """

    order: int

    def __init__(self, p: int, m: int, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 2:
            raise ValueError("extension degree must be at least 2")
        if modulus is None:
            modulus = smallest_irreducible(p, m)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.modulus = modulus
        self.characteristic = p
        self.order = p**m
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        # x^k mod modulus for k = m .. 2m-2, padded to length m
        table = []
        for k in range(m, 2 * m - 1):
            red = _poly_mod([0] * k + [1], modulus, p)
            table.append(tuple(red) + (0,) * (m - len(red)))
        self._xpow = tuple(table)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        p, m = self.p, self.m
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        out = conv[:m]
        for k in range(m, 2 * m - 1):
            ck = conv[k] % p
            if ck:
                t = self._xpow[k - m]
                for i in range(m):
                    ti = t[i]
                    if ti:
                        out[i] += ck * ti
        return tuple(v % p for v in out)

    def inv(self, a):
        if not any(a):
            raise DivisionByZero(f"1/0 over {self!r}")
        p, m = self.p, self.m
        # extended Euclid in GF(p)[x]: track r_i = s_i * a (mod modulus)
        r0, s0 = _poly_trim(list(a)), (1,)
        r1, s1 = self.modulus, ()
        while r1:
            q, rem = _poly_divmod(r0, r1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, p), p)
        # r0 is a nonzero constant because the modulus is irreducible
        c_inv = pow(r0[0], -1, p)
        out = _poly_mod(tuple((c * c_inv) % p for c in s0), self.modulus, p)
        return tuple(out) + (0,) * (m - len(out))

    def is_zero(self, a) -> bool:
        return not any(a)

    def from_int(self, k: int):
        return (k % self.p,) + (0,) * (self.m - 1)

    def coerce(self, value):
        if isinstance(value, (tuple, list)):
            vals = [int(v) % self.p for v in value]
            if len(vals) > self.m:
                raise ValueError(f"coefficient vector longer than degree {self.m}")
            return tuple(vals) + (0,) * (self.m - len(vals))
        if isinstance(value, bool):
            raise TypeError("bool is not a field element")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Scalar):
            value.field.check_same(self)
            return value.value
        if isinstance(value, str):
            return self.parse_scalar(value)
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def pow_int(self, a, e: int):
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def format_scalar(self, a) -> str:
        return "[" + ",".join(str(c) for c in a) + "]"

    def parse_scalar(self, text: str):
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError(f"bad extension-field literal {text!r}")
            inner = text[1:-1].strip()
            parts = [s for s in inner.split(",") if s.strip()] if inner else []
            return self.coerce([int(s) for s in parts])
        return self.from_int(int(text))

    def random_scalar(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.m))

    def elements(self):
        for combo in itertools.product(range(self.p), repeat=self.m):
            yield combo

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.m == self.m
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("GFext", self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.m})"


# ---------------------------------------------------------------------------
# field automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldAutomorphism:
    """Identity, or a Frobenius power x -> x^(p^e) on an extension field."""

    kind: str  # "identity" | "frobenius"
    power: int = 0

    @staticmethod
    def identity() -> "FieldAutomorphism":
        return FieldAutomorphism("identity", 0)

    @staticmethod
    def frobenius(e: int) -> "FieldAutomorphism":
        return FieldAutomorphism("frobenius", e)

    @property
    def is_identity_kind(self) -> bool:
        return self.kind == "identity"

    def check_field(self, field: Field) -> None:
        """Raise unless this automorphism exists on ``field``: a Frobenius
        power needs an extension field GF(p^m) and a power in [0, m)."""
        if self.kind == "identity":
            return
        if self.kind != "frobenius":
            raise ValueError(f"unknown automorphism kind {self.kind!r}")
        if not isinstance(field, ExtensionField):
            raise IncompatibleAutomorphism(
                f"Frobenius twist is not available on {field!r}"
            )
        if not 0 <= self.power < field.m:
            raise IncompatibleAutomorphism(
                f"Frobenius power {self.power} outside [0, {field.m})"
            )

    def apply(self, field: Field, value):
        if self.kind == "identity":
            return value
        self.check_field(field)
        return field.pow_int(value, field.p**self.power)


def apply_field_automorphism(x: "Scalar", f: FieldAutomorphism) -> "Scalar":
    """Apply an automorphism to a wrapped scalar."""
    return Scalar(x.field, f.apply(x.field, x.value))


# ---------------------------------------------------------------------------
# scalar wrapper
# ---------------------------------------------------------------------------

class Scalar:
    """A single field element: a field descriptor plus a raw value.

    Supports the usual operators; mixed-field operands raise
    :class:`FieldMismatch` and inverting zero raises :class:`DivisionByZero`.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value

    def _raw(self, other):
        if isinstance(other, Scalar):
            self.field.check_same(other.field)
            return other.value
        return self.field.coerce(other)

    def __add__(self, other):
        return Scalar(self.field, self.field.add(self.value, self._raw(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return Scalar(self.field, self.field.sub(self.value, self._raw(other)))

    def __rsub__(self, other):
        return Scalar(self.field, self.field.sub(self._raw(other), self.value))

    def __mul__(self, other):
        return Scalar(self.field, self.field.mul(self.value, self._raw(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Scalar(self.field, self.field.div(self.value, self._raw(other)))

    def __rtruediv__(self, other):
        return Scalar(self.field, self.field.div(self._raw(other), self.value))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.value))

    def is_zero(self) -> bool:
        return self.field.is_zero(self.value)

    def apply(self, f: FieldAutomorphism) -> "Scalar":
        return apply_field_automorphism(self, f)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        try:
            return self.value == self.field.coerce(other)
        except (TypeError, ValueError, FieldMismatch):
            return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return self.field.format_scalar(self.value)
