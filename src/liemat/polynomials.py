"""Polynomial arithmetic over GF(p) on coefficient tuples in ascending
degree: irreducibility and the default moduli of GF(p^m), and the
residue kernels that build its tables and serve the fields too large
for them."""

from __future__ import annotations

from typing import Sequence


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
    """Irreducibility of a monic polynomial over GF(p), by the Frobenius-gcd
    criterion (Rabin): f of degree m is irreducible iff x^(p^m) = x mod f
    and gcd(x^(p^(m/q)) - x, f) = 1 for every prime divisor q of m.  It
    takes O(m log p) products mod f, so p may be large.
    """
    m = len(modulus) - 1
    if m < 1 or modulus[-1] % p != 1:
        return False
    mod = tuple(c % p for c in modulus)
    if m == 1:
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
    enumerating the low coefficients (c0, ..., c_{m-1}) as base-p digits.
    The first p are the binomials x^m + c: some is irreducible iff every prime
    r | m divides p - 1, and p = 1 (mod 4) if 4 | m (Lidl & Niederreiter,
    *Finite Fields*, Thm 3.75, with -c primitive); else they are skipped."""
    binomials = all((p - 1) % r == 0 for r in _prime_divisors(m)) and (m % 4 or p % 4 == 1)
    for k in range(0 if binomials else p, p**m):
        coeffs = []
        kk = k
        for _ in range(m):
            coeffs.append(kk % p)
            kk //= p
        candidate = tuple(coeffs) + (1,)
        if is_irreducible(candidate, p):
            return candidate
    raise ValueError(f"no irreducible polynomial of degree {m} over GF({p})")


def _poly_mulmod(a, b, p: int, m: int, xpow) -> tuple[int, ...]:
    """Product of two residues modulo a monic modulus of degree m, as
    length-m tuples: convolution, then x^k (k >= m) replaced by its
    reduction ``xpow[k - m]``."""
    conv = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    out = conv[:m]
    for k in range(m, 2 * m - 1):
        ck = conv[k] % p
        if ck:
            t = xpow[k - m]
            for i in range(m):
                ti = t[i]
                if ti:
                    out[i] += ck * ti
    return tuple(v % p for v in out)


def _poly_invmod(a, modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Inverse of a nonzero residue modulo an irreducible monic modulus, by
    extended Euclid in GF(p)[x]: track r_i = s_i * a (mod modulus)."""
    r0, s0 = _poly_trim(list(a)), (1,)
    r1, s1 = modulus, ()
    while r1:
        q, rem = _poly_divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, p), p)
    # r0 is a nonzero constant because the modulus is irreducible
    c_inv = pow(r0[0], -1, p)
    out = _poly_mod(tuple((c * c_inv) % p for c in s0), modulus, p)
    return tuple(out) + (0,) * (len(modulus) - 1 - len(out))
