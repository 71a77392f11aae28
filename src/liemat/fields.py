"""Exact field arithmetic over the rationals, GF(p), and GF(p^m).

Every field is an immutable descriptor object whose methods operate on
*raw* element values:

* ``Rationals``       -- :class:`fractions.Fraction` (always lowest terms);
  ``dot``, ``is_scaled`` and ``krylov`` compute on integer numerators and
  denominators, and ``texts_scaled`` on the integers of plain texts,
* ``PrimeField(p)``   -- residues ``int`` in ``[0, p)``,
* ``ExtensionField``  -- coefficient tuples of length ``m`` over GF(p),
  ascending degree, reduced modulo a monic irreducible polynomial.  Up to
  order ``TABLE_MAX_ORDER`` = 2^16 the arithmetic is lookups in log,
  antilog and Zech tables built once per (p, modulus), and dot products
  sum the table products coefficientwise; larger extension fields use
  the polynomial kernels of :mod:`liemat.polynomials`.  The tables map
  tuples, so raw values are tuples either way.

Matrix and subspace code calls the field methods directly on raw values;
:class:`Scalar` wraps a ``(field, value)`` pair with operator overloading
for the public API.  All values are immutable and safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence

from .errors import DivisionByZero, FieldMismatch, IncompatibleAutomorphism, check_guard
from .polynomials import (
    _poly_invmod,
    _poly_mod,
    _poly_mulmod,
    _poly_powmod,
    _prime_divisors,
    is_irreducible,
    smallest_irreducible,
)

_FRAC_ZERO = Fraction(0)
_FRAC_ONE = Fraction(1)


def _plain_rational(text: str) -> tuple[int, int] | None:
    """The numerator and denominator of a plain ASCII [-]digits[/digits]
    text, as written; None for any other text."""
    num, slash, den = text.partition("/")
    if (
        text.isascii()
        and (num[1:] if num[:1] == "-" else num).isdigit()
        and (den.isdigit() or not slash)
    ):
        return int(num), int(den) if slash else 1
    return None


# Deterministic Miller-Rabin: the first 13 primes as bases decide every
# n below psi_13, the least strong pseudoprime to all of them (Sorenson &
# Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3_317_044_064_679_887_385_961_981  # psi_13


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below
    ``PRIMALITY_LIMIT``; raises ValueError at or above it."""
    if n >= PRIMALITY_LIMIT:
        raise ValueError(
            f"{n} is at or above {PRIMALITY_LIMIT}, the limit of the exact primality test"
        )
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Field:
    """Shared interface of the concrete field classes.

    Raw-value methods (``add``, ``mul``, ...) never allocate wrappers, so
    matrix kernels stay cheap; ``scalar``/``parse_scalar`` produce
    :class:`Scalar` objects for the public surface.

    The vector kernels ``dot``, ``vec_scale``, ``vec_submul``,
    ``is_scaled`` (is v == c*u?), ``vec_sum`` and ``krylov``, and the batch
    parser ``parse_scalars``, have generic definitions here in terms of
    the scalar methods; a field overrides them where a faster idiom
    exists.  ``texts_scaled`` asks ``is_scaled`` of texts before they are
    parsed; it may answer None (cannot tell without parsing), which is
    all the generic definition does.
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

    def is_scaled(self, v: Sequence, c, u: Sequence) -> bool:
        """Is v == c*u, elementwise?"""
        return list(v) == self.vec_scale(u, c)

    def texts_scaled(self, texts: Sequence, c, u: Sequence) -> bool | None:
        """Is ``parse_scalars(texts)`` == c*u, elementwise, asked of the
        texts as read?  True only when every text is a string that
        ``parse_scalar`` reads to its entry of c*u; False when some text
        reads to another value; None when the field cannot tell without
        parsing, as for a spelling it does not read here or an entry that
        is not a string."""
        return None

    def vec_sum(self, vectors: Sequence[Sequence]) -> list:
        """The elementwise sum of one or more vectors."""
        ones = (self.one,) * len(vectors)
        return [self.dot(col, ones) for col in zip(*vectors)]

    def krylov(self, rows: Sequence[Sequence], v: Sequence, count: int) -> list[list]:
        """v, M v, ..., M^(count-1) v for the square matrix M with ``rows``."""
        dot = self.dot
        out = [list(v)]
        for _ in range(count - 1):
            v = out[-1]
            out.append([dot(row, v) for row in rows])
        return out

    # -- text & sampling ----------------------------------------------------

    def format_scalar(self, a) -> str:
        raise NotImplementedError

    def parse_scalar(self, text: str):
        raise NotImplementedError

    def parse_scalars(self, texts: Sequence[str]) -> list:
        """``parse_scalar`` of each text, in order.

        Map documents repeat few distinct texts: over an infinite field, or
        one with fewer elements than there are texts, each distinct text is
        parsed once and its immutable value shared.  Otherwise each text is
        parsed in turn, which is cheaper when most texts differ."""
        parse = self.parse_scalar
        if self.order is not None and self.order >= len(texts):
            return [parse(t) for t in texts]
        parsed = dict.fromkeys(texts)
        for t in parsed:
            parsed[t] = parse(t)
        return [parsed[t] for t in texts]

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

    # The integer kernels read the _numerator/_denominator slots behind
    # Fraction's public properties, whose Python-level getters would double
    # their cost.

    def dot(self, u, v):
        # num/den over a running common denominator; one normalization per call
        num, den = 0, 1
        for a, b in zip(u, v):
            an = a._numerator
            if an:
                bn = b._numerator
                if bn:
                    d = a._denominator * b._denominator
                    if den % d:
                        g = gcd(den, d)
                        num = num * (d // g) + an * bn * (den // g)
                        den = den // g * d
                    else:
                        num += an * bn * (den // d)
        return Fraction(num, den) if num else _FRAC_ZERO

    def vec_scale(self, u, c):
        return [c * a if a else a for a in u]

    def is_scaled(self, v, c, u):
        # a == c*b  iff  a.n * c.d * b.d == c.n * b.n * a.d (denominators > 0)
        if len(v) != len(u):
            return False
        cn, cd = c._numerator, c._denominator
        for a, b in zip(v, u):
            if a._numerator * cd * b._denominator != cn * b._numerator * a._denominator:
                return False
        return True

    def texts_scaled(self, texts, c, u):
        # plain texts cross-multiplied as in ``is_scaled``; no Fraction is built
        if len(texts) != len(u):
            return False
        cn, cd = c._numerator, c._denominator
        try:
            for t, b in zip(texts, u):
                plain = _plain_rational(t)
                if plain is None or not plain[1]:
                    return None
                if plain[0] * cd * b._denominator != cn * b._numerator * plain[1]:
                    return False
        except (AttributeError, ValueError):  # not a string; past the int digit limit
            return None
        return True

    def krylov(self, rows, v, count):
        # fraction-free: M = N/D and each vector x/e with N and x integer,
        # so a step is one integer product and one gcd over the new vector
        den = lcm(*(a._denominator for row in rows for a in row))
        num = [[a._numerator * (den // a._denominator) for a in row] for row in rows]
        e = lcm(*(a._denominator for a in v))
        x = [a._numerator * (e // a._denominator) for a in v]
        out = [list(v)]
        for _ in range(count - 1):
            x = [sum(map(int.__mul__, row, x)) for row in num]
            g = gcd(*x, e * den)
            x, e = [a // g for a in x], e * den // g
            out.append([Fraction(a, e) if a else _FRAC_ZERO for a in x])
        return out

    def format_scalar(self, a) -> str:
        return str(a)

    def parse_scalar(self, text: str):
        # a plain text skips Fraction's text parser
        plain = _plain_rational(text)
        return Fraction(*plain) if plain else Fraction(text.strip())

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

    def vec_sum(self, vectors):
        p = self.p
        return [sum(col) % p for col in zip(*vectors)]

    def texts_scaled(self, texts, c, u):
        # every text ``parse_scalar`` reads; str.strip refuses a non-string
        try:
            values = list(map(int, map(str.strip, texts)))
        except (TypeError, ValueError):
            return None
        scaled, p = self.vec_scale(u, c), self.p
        # residue texts read to themselves; other integers are reduced first
        return values == scaled or [a % p for a in values] == scaled

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


# Extension fields up to this order compute by lookup tables (O(q) memory
# and set-up time); larger ones keep the polynomial kernels.
TABLE_MAX_ORDER = 1 << 16
# (p, modulus) -> the table attributes of an ExtensionField, built once
_TABLES: dict[tuple, dict] = {}


def _packed_multiples(vec, p: int, width: int) -> list[int]:
    """c * vec mod p as one int with ``width``-bit slots, for each digit c."""
    return [sum((c * t % p) << (width * i) for i, t in enumerate(vec)) for c in range(p)]


class ExtensionField(Field):
    """GF(p^m), m >= 2, as GF(p)[x] modulo a monic irreducible polynomial.

    Elements are coefficient tuples of length m in ascending degree.  When
    no modulus is supplied, the lexicographically smallest irreducible one
    is chosen so that runs are reproducible.

    Up to order ``TABLE_MAX_ORDER`` all arithmetic is table lookups,
    after Huber, "Some comments on Zech's logarithms", IEEE Trans. IT
    1990.  The tables are keyed by the tuples themselves and built once
    per (p, modulus); g is the first primitive element in ``elements()``
    order.

    * ``_log`` maps g^k to k and zero to the sentinel Z = 2q - 3, which
      exceeds every sum of two true logarithms.  ``_exp[k]`` is g^k below
      Z and zero from Z to 2Z, so a product is ``_exp[log a + log b]``
      with no test for zero.
    * ``_zech[d] = log(1 + g^d)`` gives a + b = g^(log a + _zech[log b -
      log a]).  It repeats with period q - 1 over twice that length, so
      every difference that arises indexes it directly.
    * ``_text`` and ``_names`` map each element's text to the element and
      back, so ``parse_scalar`` and ``format_scalar`` are lookups.

    Larger fields compute with polynomial kernels on the same tuples.
    """

    order: int
    # empty until the tables exist: building ``_text`` formats every element
    _names: dict = {}

    def __new__(cls, p: int, m: int, modulus: Sequence[int] | None = None):
        # m > 16 means q > 2^16 without building p**m for a huge m
        if cls is ExtensionField and (m > 16 or p**m > TABLE_MAX_ORDER):
            cls = _PolynomialExtensionField
        return super().__new__(cls)

    def __init__(self, p: int, m: int, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 2:
            raise ValueError("extension degree must be at least 2")
        cost = m**3 * p.bit_length()  # of one irreducibility test, O(m^3 log p)
        check_guard(cost, f"{cost} steps of a degree-{m} irreducibility test over GF({p})")
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
        key = (p, modulus)
        if key not in _TABLES:
            _TABLES[key] = self._build_tables()
        vars(self).update(_TABLES[key])

    def _build_tables(self) -> dict:
        """The attributes behind the table-driven arithmetic (see above)."""
        p, m, q = self.p, self.m, self.order
        cofactors = [(q - 1) // r for r in _prime_divisors(q - 1)]
        g = next(
            e for e in self.elements()
            if any(e) and all(_poly_powmod(e, k, self.modulus, p) != (1,) for k in cofactors)
        )
        # times g is GF(p)-linear, g*a = sum_i a_i (g x^i), so with every
        # c (g x^i) packed into an int a power costs m lookups
        w = (m * p).bit_length()
        x_powers = [self.zero[:i] + (1,) + self.zero[i + 1:] for i in range(m)]
        steps = [_packed_multiples(_poly_mulmod(g, x, p, m, self._xpow), p, w) for x in x_powers]
        mask = (1 << w) - 1
        powers = [self.one]
        for _ in range(q - 2):
            s = sum([step[c] for step, c in zip(steps, powers[-1])])
            powers.append(tuple([((s >> (w * j)) & mask) % p for j in range(m)]))

        zlog = 2 * q - 3
        log = {e: k for k, e in enumerate(powers)}
        log[self.zero] = zlog
        text = {self.format_scalar(e): e for e in log}
        return {
            "_log": log,
            "_exp": (powers * 2)[:zlog] + [self.zero] * (zlog + 1),
            "_zech": [log[((e[0] + 1) % p,) + e[1:]] for e in powers] * 2,
            "_zlog": zlog,
            # log(-1): -1 = g^((q-1)/2) in odd characteristic, 1 in characteristic 2
            "_neg_log": 0 if p == 2 else (q - 1) // 2,
            "_text": text,
            "_names": {e: t for t, e in text.items()},
        }

    def add(self, a, b):
        log, z = self._log, self._zlog
        la, lb = log[a], log[b]
        if la == z:
            return b
        if lb == z:
            return a
        return self._exp[la + self._zech[lb - la]]

    def sub(self, a, b):
        log, z = self._log, self._zlog
        lb = log[b]
        if lb == z:
            return a
        lnb = lb + self._neg_log
        la = log[a]
        if la == z:
            return self._exp[lnb]
        return self._exp[la + self._zech[lnb - la]]

    def neg(self, a):
        return self._exp[self._log[a] + self._neg_log]

    def mul(self, a, b):
        log = self._log
        return self._exp[log[a] + log[b]]

    def inv(self, a):
        la = self._log[a]
        if la == self._zlog:
            raise DivisionByZero(f"1/0 over {self!r}")
        return self._exp[self.order - 1 - la]

    def dot(self, u, v):
        # as ``vec_sum``: products by the tables, one reduction per coefficient
        if not u:
            return self.zero
        log, exp, p = self._log, self._exp, self.p
        products = [exp[log[a] + log[b]] for a, b in zip(u, v)]
        return tuple([sum(cs) % p for cs in zip(*products)])

    def vec_scale(self, u, c):
        exp, lc = self._exp, self._log[c]
        return [exp[k + lc] for k in map(self._log.__getitem__, u)]

    def vec_submul(self, u, c, v):
        log, exp, zech, z = self._log, self._exp, self._zech, self._zlog
        lc = log[c]
        if lc == z:
            return list(u)
        lnc = (lc + self._neg_log) % (self.order - 1)  # log(-c)
        # a - c*b = a + g^t with t = log b + log(-c)
        return [
            a if (lb := log[b]) == z
            else exp[lb + lnc] if (la := log[a]) == z
            else exp[la + zech[lb + lnc - la]]
            for a, b in zip(u, v)
        ]

    def vec_sum(self, vectors):
        # coefficientwise: a sum needs no table, so this serves every GF(p^m)
        p = self.p
        return [tuple([sum(cs) % p for cs in zip(*col)]) for col in zip(*vectors)]

    def texts_scaled(self, texts, c, u):
        # the table's own texts; any other spelling is left to the parser
        try:
            values = list(map(self._text.__getitem__, texts))
        except (KeyError, TypeError):  # TypeError: an unhashable JSON value
            return None
        return values == self.vec_scale(u, c)

    def is_zero(self, a) -> bool:
        return not any(a)

    def from_int(self, k: int):
        return (k % self.p,) + (0,) * (self.m - 1)

    def coerce(self, value):
        if isinstance(value, tuple):
            k = self._log.get(value)
            if k is not None:
                return self._exp[k]
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
        text = self._names.get(a)
        if text is not None:
            return text
        return "[" + ",".join(str(c) for c in a) + "]"

    def parse_scalar(self, text: str):
        hit = self._text.get(text)
        if hit is not None:
            return hit
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

    def __reduce__(self):
        # copies and pickles go through the constructor and its table cache
        return (ExtensionField, (self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.m})"


class _PolynomialExtensionField(ExtensionField):
    """GF(p^m) above ``TABLE_MAX_ORDER``: the same tuples, computed by
    polynomial kernels.  Its empty tables make the ``coerce``,
    ``parse_scalar`` and ``format_scalar`` fast paths miss."""

    _log: dict = {}
    _text: dict = {}

    def _build_tables(self) -> dict:
        return {}

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
        return _poly_mulmod(a, b, self.p, self.m, self._xpow)

    def inv(self, a):
        if not any(a):
            raise DivisionByZero(f"1/0 over {self!r}")
        return _poly_invmod(a, self.modulus, self.p)

    dot = Field.dot
    vec_scale = Field.vec_scale
    vec_submul = Field.vec_submul
    texts_scaled = Field.texts_scaled


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
