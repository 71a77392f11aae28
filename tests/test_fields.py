"""Field arithmetic: exactness, canonical forms, automorphisms."""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from liemat import (
    ExtensionField,
    Field,
    FieldAutomorphism,
    Matrix,
    PrimeField,
    Scalar,
    apply_field_automorphism,
    is_irreducible,
    smallest_irreducible,
)
from liemat.errors import (
    DivisionByZero, EnumerationTooLarge, FieldMismatch, IncompatibleAutomorphism,
)
from liemat.fields import PRIMALITY_LIMIT, is_prime
from liemat.polynomials import _poly_mod, _poly_mul

from support import (
    GF4, GF5, GF9, Q, oracle_add, oracle_dot, oracle_inv, oracle_mul, random_matrix, rng_for,
)


def test_rational_examples():
    assert Q.scalar("1/2") + Q.scalar("1/3") == Q.scalar("5/6")
    assert Q.scalar(7) / Q.scalar(-2) == Q.scalar("-7/2")
    assert (Q.scalar("2/4")).value == Fraction(1, 2)  # lowest terms


def test_prime_field_examples():
    assert GF5.scalar(3) * GF5.scalar(4) == GF5.scalar(2)  # 12 mod 5
    assert GF5.scalar(2).inverse() == GF5.scalar(3)
    assert GF5.coerce(-1) == 4


def brute_gf_mul(field, a, b):
    """Oracle: plain polynomial multiplication followed by reduction."""
    prod = _poly_mul(a, b, field.p)
    red = _poly_mod(prod, field.modulus, field.p)
    return tuple(red) + (0,) * (field.m - len(red))


def test_gf4_multiplication_against_brute_force():
    # x * x = x + 1 with modulus x^2 + x + 1, and the whole table
    x = GF4.coerce([0, 1])
    assert GF4.mul(x, x) == GF4.coerce([1, 1])
    for a in GF4.elements():
        for b in GF4.elements():
            assert GF4.mul(a, b) == brute_gf_mul(GF4, a, b)


def test_gf9_multiplication_against_brute_force():
    for a in GF9.elements():
        for b in GF9.elements():
            assert GF9.mul(a, b) == brute_gf_mul(GF9, a, b)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.scalar(1) / Q.scalar(0)
    with pytest.raises(DivisionByZero):
        GF5.inv(0)
    with pytest.raises(DivisionByZero):
        GF4.inv(GF4.zero)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Q.scalar(1) + GF5.scalar(1)


def test_field_axioms_randomized():
    # randomized pass: >= 1000 samples per field
    for field in (Q, GF5, GF4, GF9):
        rng = rng_for("axioms", repr(field))
        for _ in range(1000):
            a, b, c = (field.random_scalar(rng) for _ in range(3))
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c)
            )
            if not field.is_zero(a):
                assert field.mul(a, field.inv(a)) == field.one


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_scalar_operators(a, b, c):
    sa, sb, sc = Q.scalar(a), Q.scalar(b), Q.scalar(c)
    assert (sa + sb) * sc == sa * sc + sb * sc
    assert sa - sa == Q.scalar(0)


def test_frobenius_examples():
    ident = FieldAutomorphism.identity()
    assert apply_field_automorphism(Q.scalar("7/3"), ident) == Q.scalar("7/3")
    frob = FieldAutomorphism.frobenius(1)
    x4 = GF4.scalar([0, 1])
    assert apply_field_automorphism(x4, frob) == GF4.scalar([1, 1])  # x^2 = x+1
    x9 = GF9.scalar([0, 1])
    assert apply_field_automorphism(x9, frob) == GF9.scalar([0, 2])  # x^3 = 2x


def test_frobenius_rejected_outside_extensions():
    frob = FieldAutomorphism.frobenius(1)
    with pytest.raises(IncompatibleAutomorphism):
        frob.apply(Q, Fraction(1))
    with pytest.raises(IncompatibleAutomorphism):
        frob.apply(GF5, 3)


@pytest.mark.parametrize(
    "field",
    [GF4, ExtensionField(2, 3), GF9, ExtensionField(5, 2), ExtensionField(3, 4)],
    ids=lambda f: repr(f),
)
def test_frobenius_is_field_automorphism_on_full_enumeration(field):
    # every field here has order <= 81; all element pairs are checked
    assert field.order <= 81
    elements = list(field.elements())
    for e in range(field.m):
        frob = FieldAutomorphism.frobenius(e)
        image = {a: frob.apply(field, a) for a in elements}
        assert len(set(image.values())) == field.order  # bijective
        for a in elements:
            for b in elements:
                assert image[field.add(a, b)] == field.add(image[a], image[b])
                assert image[field.mul(a, b)] == field.mul(image[a], image[b])


def test_frobenius_power_zero_acts_as_identity():
    frob0 = FieldAutomorphism.frobenius(0)
    for a in GF9.elements():
        assert frob0.apply(GF9, a) == a


def test_primality_checked():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        ExtensionField(4, 2)


def _trial_division(n):
    return n >= 2 and (n < 4 or n % 2 != 0) and all(n % f for f in range(3, math.isqrt(n) + 1, 2))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(2 * 10**5) if is_prime(n) != _trial_division(n)] == []


@pytest.mark.parametrize("bits", [64, 80])
def test_is_prime_agrees_with_sympy(bits):
    """Seeded draws, the next primes after them, and products of two primes
    of half the size, which have no small factor."""
    sympy = pytest.importorskip("sympy")
    rng = rng_for("miller-rabin", bits)
    draws = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(300)]
    draws += [sympy.nextprime(n) for n in draws[:40]]
    draws += [
        sympy.nextprime(rng.getrandbits(bits // 2)) * sympy.nextprime(rng.getrandbits(bits // 2))
        for _ in range(40)
    ]
    assert [n for n in draws if is_prime(n) != sympy.isprime(n)] == []
    assert sum(map(is_prime, draws)) >= 40


def test_is_prime_rejects_strong_pseudoprimes():
    """3215031751 is a strong pseudoprime to the bases 2, 3, 5, 7;
    3825123056546413051 to every prime base up to 31; psi_12 to every
    prime base up to 37, and only the base 41 shows it composite."""
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)


def test_large_primes_are_fields_at_once():
    for p in (2**61 - 1, 10**18 + 3):
        assert is_prime(p)
        field = PrimeField(p)
        assert field.mul(field.inv(2), 2) == 1


def test_is_prime_refuses_beyond_its_exact_range():
    """psi_13, the least strong pseudoprime to every prime base up to 41,
    is where the deterministic test stops being exact."""
    for n in (PRIMALITY_LIMIT, PRIMALITY_LIMIT + 2, 2**127 - 1):
        with pytest.raises(ValueError, match="limit of the exact primality test"):
            is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)


def test_modulus_validation():
    # x^2 + 1 factors over GF(2); x^2 + x + 1 does not
    with pytest.raises(ValueError):
        ExtensionField(2, 2, [1, 0, 1])
    assert ExtensionField(2, 2, [1, 1, 1]).modulus == (1, 1, 1)
    assert not is_irreducible((1, 0, 1), 2)
    assert is_irreducible((1, 1, 1), 2)


def _monic(p, m):
    """Every monic polynomial of degree m over GF(p), low coefficient first."""
    return [(*low, 1) for low in itertools.product(range(p), repeat=m)]


def _times(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def test_irreducibility_matches_brute_force_factoring():
    """Every monic polynomial of degree 2 and 3 over GF(p), p <= 11, against
    the products of two monic factors of positive degree."""
    for p in (2, 3, 5, 7, 11):
        for m in (2, 3):
            reducible = {_times(f, g, p) for f in _monic(p, 1) for g in _monic(p, m - 1)}
            for f in _monic(p, m):
                assert is_irreducible(f, p) == (f not in reducible), (f, p)


def test_default_moduli_are_deterministic():
    assert smallest_irreducible(2, 2) == (1, 1, 1)  # x^2+x+1
    assert smallest_irreducible(2, 3) == (1, 1, 0, 1)  # x^3+x+1
    assert smallest_irreducible(3, 2) == (1, 0, 1)  # x^2+1
    assert ExtensionField(2, 2).modulus == smallest_irreducible(2, 2)
    # degree-4 path exercises the gcd-based irreducibility test
    f = ExtensionField(2, 4)
    assert len(f.modulus) == 5 and f.modulus[-1] == 1
    for a in f.elements():
        if not f.is_zero(a):
            assert f.mul(a, f.inv(a)) == f.one


def test_default_moduli_match_the_plain_enumeration():
    """Skipping the binomials x^m + c where none is irreducible changes no
    default modulus: the first irreducible in base-p digit order, c0 fastest."""
    for p in (q for q in range(2, 50) if is_prime(q)):
        for m in range(2, 7):
            if p**m > 3 * 10**6:
                continue
            first = next(
                f for digits in itertools.product(range(p), repeat=m)
                if is_irreducible(f := (*reversed(digits), 1), p)
            )
            assert smallest_irreducible(p, m) == first, (p, m)


def test_extension_degrees_past_the_guard_are_refused():
    """An irreducibility test of degree m costs O(m^3 log p), so a degree
    whose m^3 * bitlength(p) exceeds the enumeration guard is refused
    before any search, with or without a modulus."""
    for p, m in [(2, 100), (2, 320), (3, 80)]:
        with pytest.raises(EnumerationTooLarge, match="irreducibility test"):
            ExtensionField(p, m)
    with pytest.raises(EnumerationTooLarge):
        ExtensionField(2, 100, [1] + [0] * 99 + [1])
    assert ExtensionField(2, 17).modulus == (1, 0, 0, 1) + (0,) * 13 + (1,)


def test_scalar_text_round_trip():
    for field, texts in [
        (Q, ["0", "3", "-7/2", "5/6"]),
        (GF5, ["0", "1", "4"]),
        (GF4, ["[0,0]", "[1,0]", "[0,1]", "[1,1]"]),
    ]:
        for text in texts:
            value = field.parse_scalar(text)
            assert field.parse_scalar(field.format_scalar(value)) == value


@pytest.mark.parametrize(
    "field", [GF4, ExtensionField(3, 4), ExtensionField(2, 17)], ids=repr
)
def test_extension_format_scalar_is_the_bracketed_coefficients(field):
    rng = rng_for("format", repr(field))
    values = [field.random_scalar(rng) for _ in range(50)] + [field.zero, field.one]
    if field.order <= 81:
        values += list(field.elements())
    for a in values:
        assert field.format_scalar(a) == "[" + ",".join(map(str, a)) + "]"
    # a tuple that is not a reduced element is not in the table either
    assert field.format_scalar((7,) * field.m) == "[" + ",".join(["7"] * field.m) + "]"


def test_scalar_wrapper_hash_and_repr():
    s = GF4.scalar([1, 1])
    assert repr(s) == "[1,1]"
    assert hash(s) == hash(GF4.scalar([1, 1]))
    assert Scalar(Q, Fraction(2)) == Q.scalar(2)


# -- table-driven GF(p^m) against the independent oracle in support.py ------

GF81 = ExtensionField(3, 4)


@pytest.mark.parametrize(
    "field",
    [GF4, ExtensionField(2, 3), GF9, ExtensionField(5, 2), GF81],
    ids=lambda f: repr(f),
)
def test_extension_arithmetic_exhaustive_against_oracle(field):
    elements = list(field.elements())
    for a in elements:
        assert field.neg(a) == oracle_add(field, field.zero, a, -1)
        if any(a):
            assert field.inv(a) == oracle_inv(field, a)
        for b in elements:
            assert field.add(a, b) == oracle_add(field, a, b)
            assert field.sub(a, b) == oracle_add(field, a, b, -1)
            assert field.mul(a, b) == oracle_mul(field, a, b)
    # the vector kernels: shift k pairs every element with every other
    for k, c in enumerate(elements):
        shifted = elements[k:] + elements[:k]
        assert field.dot(elements, shifted) == oracle_dot(field, elements, shifted)
        assert field.vec_scale(elements, c) == [oracle_mul(field, c, a) for a in elements]
        assert field.vec_submul(shifted, c, elements) == [
            oracle_add(field, a, oracle_mul(field, c, b), -1)
            for a, b in zip(shifted, elements)
        ]


@pytest.mark.parametrize("field", [GF4, ExtensionField(5, 2), GF81], ids=lambda f: repr(f))
def test_dot_at_packing_width_boundary(field):
    # every coefficient p - 1 makes the unreduced coefficient sums largest
    top = (field.p - 1,) * field.m
    square = oracle_mul(field, top, top)
    for length in (0, 1, 1024, 1025):
        expected = tuple(length * c % field.p for c in square)
        assert field.dot([top] * length, [top] * length) == expected
    assert field.dot([], []) == field.zero


@pytest.mark.parametrize("field", [GF4, ExtensionField(5, 2), GF81], ids=lambda f: repr(f))
def test_dot_of_random_vectors_agrees_with_oracle(field):
    rng = rng_for("dot-lengths", repr(field))
    for length in (0, 1, 16, 1024, 1025):
        u = [field.random_scalar(rng) for _ in range(length)]
        v = [field.random_scalar(rng) for _ in range(length)]
        assert field.dot(u, v) == oracle_dot(field, u, v)


def test_field_above_table_limit_agrees_with_oracle():
    from liemat.fields import TABLE_MAX_ORDER

    field = ExtensionField(2, 17)
    assert field.order > TABLE_MAX_ORDER
    rng = rng_for("polynomial-kernels", repr(field))
    for _ in range(20):
        a, b, c = (field.random_scalar(rng) for _ in range(3))
        assert field.add(a, b) == oracle_add(field, a, b)
        assert field.sub(a, b) == oracle_add(field, a, b, -1)
        assert field.neg(a) == oracle_add(field, field.zero, a, -1)
        assert field.mul(a, b) == oracle_mul(field, a, b)
        if any(a):
            assert field.mul(a, field.inv(a)) == field.one
        u = [field.random_scalar(rng) for _ in range(5)]
        v = [field.random_scalar(rng) for _ in range(5)]
        assert field.dot(u, v) == oracle_dot(field, u, v)
        assert field.vec_scale(u, c) == [oracle_mul(field, c, x) for x in u]
        assert field.vec_submul(u, c, v) == [
            oracle_add(field, x, oracle_mul(field, c, y), -1) for x, y in zip(u, v)
        ]
    assert field.coerce([1, 1]) == (1, 1) + (0,) * 15
    assert field.parse_scalar("[0,1]") == (0, 1) + (0,) * 15


@pytest.mark.parametrize("field", [GF9, ExtensionField(2, 17)], ids=lambda f: repr(f))
def test_extension_fields_pickle_and_copy(field):
    for twin in (pickle.loads(pickle.dumps(field)), copy.deepcopy(field)):
        assert twin == field and type(twin) is type(field)
        a = field.random_scalar(rng_for("pickle", repr(field)))
        assert twin.mul(a, a) == field.mul(a, a)


def test_noncanonical_coerce_and_parse_inputs():
    cases = [
        (GF9.coerce([1, 2]), (1, 2)),
        (GF9.coerce((1,)), (1, 0)),
        (GF9.coerce(()), (0, 0)),
        (GF9.coerce((-1, 4)), (2, 1)),
        (GF9.coerce([5, -7]), (2, 2)),
        (GF9.coerce((True, False)), (1, 0)),
        (GF9.coerce((1.0, 2)), (1, 2)),
        (GF9.coerce(7), (1, 0)),
        (GF9.coerce("[1, 2]"), (1, 2)),
        (GF81.coerce((2, 1)), (2, 1, 0, 0)),
        (GF9.parse_scalar("[1, 2]"), (1, 2)),
        (GF9.parse_scalar(" [1,2] "), (1, 2)),
        (GF9.parse_scalar("[4,-1]"), (1, 2)),
        (GF9.parse_scalar("[]"), (0, 0)),
        (GF9.parse_scalar("7"), (1, 0)),
        (GF9.parse_scalar("-1"), (2, 0)),
        (GF9.parse_scalar("[1,2]"), (1, 2)),
    ]
    for got, want in cases:
        assert got == want
        assert type(got) is tuple and all(type(c) is int for c in got)
    with pytest.raises(TypeError):
        GF9.coerce(True)
    with pytest.raises(ValueError):
        GF9.coerce((1, 2, 0))
    with pytest.raises(ValueError):
        GF9.parse_scalar("[1,2")


# -- the integer kernels over Q against plain Fraction arithmetic -----------

# zeros, signs, small and large denominators
fractions_q = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=12),
    st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**18),
)


@given(st.lists(st.tuples(fractions_q, fractions_q), max_size=12))
def test_rational_dot_matches_fraction_sum(pairs):
    u, v = [a for a, _ in pairs], [b for _, b in pairs]
    got = Q.dot(u, v)
    assert type(got) is Fraction and got == sum((a * b for a, b in pairs), Fraction(0))
    if not got:
        assert got is Q.zero  # the shared zero, not a fresh Fraction per call


@given(
    st.lists(fractions_q, max_size=8),
    fractions_q,
    st.integers(min_value=0, max_value=8),
    fractions_q,
)
def test_rational_is_scaled_matches_building_the_product(u, c, k, noise):
    scaled = [c * b for b in u]
    assert Q.is_scaled(scaled, c, u)
    assert Q.is_scaled(tuple(scaled), c, u)
    perturbed = list(scaled)
    if k < len(perturbed):
        perturbed[k] += noise
    assert Q.is_scaled(perturbed, c, u) == (perturbed == scaled)
    assert not Q.is_scaled(scaled + [Fraction(0)], c, u)


rational_texts = st.one_of(
    st.sampled_from(["0", "-0", "1", "-7/2", " 5/6 ", "+3", "10/4", "-12/16", "0.25", "1e3"]),
    fractions_q.map(str),
)


@given(st.lists(rational_texts, max_size=20).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=30) if pool else st.just([])
))
def test_rational_parse_scalars_matches_parse_scalar(texts):
    got = Q.parse_scalars(texts)
    assert got == [Q.parse_scalar(t) for t in texts]
    assert all(type(a) is Fraction for a in got)
    # a repeated text is parsed once and its value shared
    first = {}
    for text, value in zip(texts, got):
        assert first.setdefault(text, value) is value


def _parsed(parse, text):
    """The value of ``parse(text)`` with its type, or the type it raised."""
    try:
        value = parse(text)
    except Exception as exc:
        return "raised", type(exc)
    return type(value), value


def _fraction_text(text):
    return Fraction(text.strip())


# the [-]digits[/digits] fast path must agree with Fraction(text.strip()) on
# every text, in value and type or in the type of what it raises
@given(st.one_of(
    st.text(alphabet="0123456789-/+_ .e\u0663\x1c", max_size=12),
    st.fractions().map(str),
))
def test_rational_parse_scalar_matches_fraction_text(text):
    assert _parsed(Q.parse_scalar, text) == _parsed(_fraction_text, text)


@pytest.mark.parametrize("text", [
    "+3", "--3", "-0", "007/010", "1_0", "\u0663", " 5/3 ", "1.5", "1e3", "3/0",
    "\x1c5", "-", "/", "3/", "/3", "-3/-4", "1/2/3", "-7/2", "0/5",
])
def test_rational_parse_scalar_edge_cases(text):
    assert _parsed(Q.parse_scalar, text) == _parsed(_fraction_text, text)


_SUM_FIELDS = [Q, GF5, PrimeField(1000003), GF4, GF81, ExtensionField(2, 17)]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("field", _SUM_FIELDS, ids=repr)
def test_vec_sum_matches_matrix_addition(field, n):
    rng = rng_for("vec-sum", repr(field), n)
    for count in (1, 2, n + 1):
        terms = [random_matrix(field, n, n, rng) for _ in range(count)]
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        for row, want in zip(zip(*(t.entries for t in terms)), total.entries):
            assert field.vec_sum(row) == list(want)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("field", _SUM_FIELDS, ids=repr)
def test_krylov_matches_repeated_products(field, n):
    rng = rng_for("krylov", repr(field), n)
    m = random_matrix(field, n, n, rng)
    v = Matrix(field, [[field.random_scalar(rng)] for _ in range(n)])
    for start in (v, Matrix.zeros(field, n, 1)):
        want = [start]
        for _ in range(n):
            want.append(m * want[-1])
        got = field.krylov(m.entries, [row[0] for row in start.entries], n + 1)
        assert [[(type(a), a) for a in vec] for vec in got] == [
            [(type(row[0]), row[0]) for row in w.entries] for w in want
        ]


_BAD_TEXTS = ["abc", "1/0", "1/", "", "1//2", "[1,0]", "[1,0", "[a]", "1.5"]


@pytest.mark.parametrize("bad", ["abc", "1/0", "1/", "", "1//2", "[1,0]"])
def test_parse_scalars_raises_what_parse_scalar_raises(bad):
    with pytest.raises(Exception) as single:
        Q.parse_scalar(bad)
    with pytest.raises(type(single.value)):
        Q.parse_scalars(["1", bad, "1"])


@pytest.mark.parametrize(
    "field",
    [Q, GF5, PrimeField(1000003), GF4, GF81, ExtensionField(2, 17)],
    ids=lambda f: repr(f),
)
def test_parse_scalars_raises_what_parse_scalar_raises_on_every_field(field):
    """Both sides of the rule: a few texts, parsed in turn, and more texts
    than the field has elements, parsed once per distinct text."""
    raised = 0
    for bad in _BAD_TEXTS:
        try:
            field.parse_scalar(bad)
        except Exception as exc:
            raised += 1
            for texts in (["1", bad, "1"], ["1", bad] + ["0"] * ((field.order or 0) + 1)):
                with pytest.raises(type(exc)):
                    field.parse_scalars(texts)
    assert raised >= 4


def _counting_parser(monkeypatch, field):
    """Count the calls of ``parse_scalar`` on ``field``'s class."""
    calls = []
    original = type(field).parse_scalar

    def parse_scalar(self, text):
        calls.append(text)
        return original(self, text)

    monkeypatch.setattr(type(field), "parse_scalar", parse_scalar)
    return calls


@pytest.mark.parametrize("field", [GF5, GF4], ids=repr)
def test_small_field_parse_scalars_shares_one_value_per_text(field, monkeypatch):
    """More texts than field elements: each distinct text is parsed once,
    and its value shared; a padded text parses off the lookup tables to a
    fresh value each time, so sharing shows."""
    rng = rng_for("parse-small", repr(field))
    pool = [field.format_scalar(a) for a in field.elements()]
    pool += [f" {t} " for t in pool] + [str(10**20 + k) for k in range(3)]
    texts = [rng.choice(pool) for _ in range(4 * field.order)]
    want = [field.parse_scalar(t) for t in texts]
    calls = _counting_parser(monkeypatch, field)
    got = field.parse_scalars(texts)
    assert got == want
    assert sorted(calls) == sorted(set(texts))
    first = {}
    for text, value in zip(texts, got):
        assert first.setdefault(text, value) is value


def test_large_prime_field_parse_scalars_parses_each_text(monkeypatch):
    """Fewer texts than field elements: each text is parsed in turn, to the
    values it had before."""
    field = PrimeField(1000003)
    rng = rng_for("parse-large")
    pool = [str(rng.randrange(-10**7, 10**7)) for _ in range(50)] + ["0", " 7 ", "-1"]
    texts = [rng.choice(pool) for _ in range(400)]
    want = [int(t) % 1000003 for t in texts]
    calls = _counting_parser(monkeypatch, field)
    assert field.parse_scalars(texts) == want
    assert calls == texts


# -- the kernel contract on every benchmark field ----------------------------

@pytest.mark.parametrize(
    "field",
    [Q, GF5, PrimeField(1000003), GF4, GF81, ExtensionField(2, 17)],
    ids=lambda f: repr(f),
)
def test_is_scaled_and_parse_scalars_agree_with_the_scalar_kernels(field):
    rng = rng_for("kernel-contract", repr(field))
    for _ in range(40):
        u = [field.random_scalar(rng) for _ in range(rng.randint(0, 6))]
        if u and rng.random() < 0.3:
            u[rng.randrange(len(u))] = field.zero
        c = field.zero if rng.random() < 0.2 else field.random_scalar(rng)
        scaled = field.vec_scale(u, c)
        assert field.is_scaled(tuple(scaled), c, u)
        if u:
            k = rng.randrange(len(u))
            other = list(scaled)
            other[k] = field.add(other[k], field.one)
            assert not field.is_scaled(other, c, u)
        texts = [field.format_scalar(a) for a in u + scaled + u]
        assert field.parse_scalars(texts) == [field.parse_scalar(t) for t in texts]
    assert field.parse_scalars([]) == []


def _spellings(field, a):
    """Texts that ``parse_scalar`` reads to ``a``: its canonical text, padded
    ones, and those of the plain grammar or not that spell it otherwise."""
    text = field.format_scalar(a)
    out = [text, f" {text}", f"{text}\n", f"\u2003{text}"]
    if field == Q:
        num, den = a.numerator, a.denominator
        out += [f"{2 * num}/{2 * den}", f"{3 * num}/{3 * den}" if num else "-0/7"]
        if den == 1:
            out += [f"{num:+d}", f"{num}.0", f"{'-' if num < 0 else ''}00{abs(num)}"]
    elif isinstance(field, PrimeField):
        out += [f"+{a}", f"00{a}", str(a + field.p), str(a - field.p), f"{a + field.p:_}"]
    else:
        coeffs = list(a)
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        out += [
            "[" + ",".join(map(str, coeffs)) + "]",
            "[ " + ", ".join(map(str, coeffs)) + " ]",
            "[" + ",".join(str(x + field.p) for x in coeffs) + "]",
        ]
        if len(coeffs) == 1:
            out += [str(coeffs[0]), str(coeffs[0] - field.p)]
    return out


_NOT_SCALARS = ["abc", "1/0", "0/0", "", "[1,0", "1//2", "1" + "0" * 5000]
_NOT_STRINGS = [1, True, 1.0, None, [1, 0]]


@pytest.mark.parametrize(
    "field",
    [Q, GF5, PrimeField(1000003), GF4, GF81, ExtensionField(2, 17)],
    ids=lambda f: repr(f),
)
def test_texts_scaled_agrees_with_is_scaled_on_the_parsed_texts(field):
    """``texts_scaled`` answers None, or what ``is_scaled`` answers on the
    parsed texts; True never for a text that does not parse or an entry
    that is not a string; and a bool on canonical texts wherever the field
    has a text kernel."""
    rng = rng_for("texts-scaled", repr(field))
    kernel = type(field).texts_scaled is not Field.texts_scaled
    settled = 0
    for _ in range(120):
        u = [field.random_scalar(rng) for _ in range(rng.randint(0, 6))]
        if u and rng.random() < 0.3:
            u[rng.randrange(len(u))] = field.zero
        c = field.zero if rng.random() < 0.15 else field.random_scalar(rng)
        want = field.vec_scale(u, c)
        if u and rng.random() < 0.4:
            k = rng.randrange(len(u))
            want[k] = field.add(want[k], field.one)
        canonical = [field.format_scalar(a) for a in want]
        expected = field.is_scaled(want, c, u)
        got = field.texts_scaled(canonical, c, u)
        assert got is expected if kernel else got is None
        texts = [rng.choice(_spellings(field, a)) for a in want]
        got = field.texts_scaled(texts, c, u)
        assert got is None or got is field.is_scaled(field.parse_scalars(texts), c, u), texts
        settled += got is not None
        if u:
            k = rng.randrange(len(u))
            for bad in (rng.choice(_NOT_SCALARS), rng.choice(_NOT_STRINGS)):
                spoiled = texts[:k] + [bad] + texts[k + 1:]
                assert field.texts_scaled(spoiled, c, u) is not True, spoiled
            if expected:
                spoiled = canonical[:k] + [rng.choice(_NOT_STRINGS)] + canonical[k + 1:]
                assert field.texts_scaled(spoiled, c, u) is None, spoiled
    assert settled > 10 if kernel else settled == 0
