import random

import pytest
from hypothesis import given, strategies as st

from blockdet.ring import (
    PolynomialRing,
    PrimeField,
    RingMismatchError,
    RingValue,
    ZZ,
    parse_ring,
    poly_degree,
    poly_is_monic,
)
from oracles import exquo

PZ = PolynomialRing("z")
PA = PolynomialRing("a")
F7 = PrimeField(7)
F10007 = PrimeField(10007)


def test_integer_examples():
    assert ZZ.from_int(3) + ZZ.from_int(-5) == ZZ.from_int(-2)
    assert ZZ.from_int(6) * ZZ.from_int(7) == ZZ.from_int(42)


def test_prime_field_examples():
    assert F7.from_int(5) + F7.from_int(4) == F7.from_int(2)
    assert F10007.from_int(10006) * F10007.from_int(10006) == F10007.one


def test_poly_examples():
    a = PA.gen
    one = PA.one
    assert (a + one) + (-a) == one
    z = PZ.gen
    assert z * z == RingValue(PZ, (0, 0, 1))


def test_prime_field_modulus_must_be_prime():
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        PrimeField(1)
    PrimeField(2)
    PrimeField(10007)


def test_prime_field_rejects_moduli_past_the_miller_rabin_bound():
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin for every
    # base 2..37, so no modulus from there on can be certified.
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    with pytest.raises(ValueError):
        PrimeField(psi12)
    with pytest.raises(ValueError):
        parse_ring(f"mod:{psi12}")
    assert PrimeField(2**61 - 1).p == 2**61 - 1


def test_descriptor_mismatch_raises():
    with pytest.raises(RingMismatchError):
        ZZ.from_int(1) + F7.from_int(1)
    with pytest.raises(RingMismatchError):
        PZ.one * PA.one


def test_poly_canonical_form():
    assert RingValue(PZ, (1, 2, 0, 0)).payload == (1, 2)
    assert RingValue(PZ, ()).payload == ()
    assert RingValue(PZ, (0, 0)).payload == ()
    assert (RingValue(PZ, (1, 1)) - RingValue(PZ, (0, 1))).payload == (1,)


def test_poly_rejects_non_integer_coefficients():
    for payload in ((2.5,), (1, 0.0), (1, "2"), 2.5):
        with pytest.raises(TypeError):
            RingValue(PZ, payload)


def test_monic():
    assert poly_is_monic(RingValue(PZ, (3, 0, 1)))
    assert not poly_is_monic(RingValue(PZ, (1, 2)))
    assert poly_is_monic(PZ.one)
    assert not poly_is_monic(PZ.from_int(-1))
    assert not poly_is_monic(PZ.zero)
    with pytest.raises(ValueError):
        poly_is_monic(F7.one)


def test_poly_degree():
    assert poly_degree(PZ.zero) == -1
    assert poly_degree(PZ.one) == 0
    assert poly_degree(RingValue(PZ, (0, 0, 7))) == 2


def _random_value(ring, rng):
    if isinstance(ring, PrimeField):
        return ring.from_int(rng.randrange(ring.p))
    if isinstance(ring, PolynomialRing):
        return RingValue(ring, tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(0, 5))))
    return ring.from_int(rng.randrange(-999, 1000))


@pytest.mark.parametrize("ring", [ZZ, F10007, PZ], ids=lambda r: r.label)
def test_ring_axioms_randomized(ring):
    rng = random.Random(20161004)
    zero, one = ring.zero, ring.one
    for _ in range(1000):
        x, y, z = (_random_value(ring, rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + zero == x
        assert x * one == x
        assert x * zero == zero
        assert x + (-x) == zero


@pytest.mark.parametrize("ring", [F7, F10007], ids=lambda r: r.label)
def test_prime_field_always_reduced(ring):
    rng = random.Random(3)
    for _ in range(500):
        x, y = _random_value(ring, rng), _random_value(ring, rng)
        for v in (x + y, x * y, -x, x - y):
            assert 0 <= v.payload < ring.p


coeffs = st.lists(st.integers(min_value=-50, max_value=50), max_size=6)


@given(coeffs, coeffs, coeffs)
def test_exact_quotient_undoes_multiplication_and_never_rounds(ca, cb, cr):
    a, b = PZ.canonical(ca), PZ.canonical(cb)
    if not b:
        with pytest.raises(ZeroDivisionError):
            exquo(PZ, a, b)
        return
    assert exquo(PZ, PZ.pmul(a, b), b) == a
    # A nonzero remainder of lower degree than b: b does not divide a*b + r.
    r = PZ.canonical(cr[: len(b) - 1]) if len(b) > 1 else PZ.canonical([c % b[0] for c in cr])
    if r:
        with pytest.raises(ArithmeticError):
            exquo(PZ, PZ.padd(PZ.pmul(a, b), r), b)
    for ring in (ZZ, F10007):
        x, y = ring.int_payload(sum(ca)), ring.int_payload(sum(cb) or 1)
        assert exquo(ring, ring.pmul(x, y), y) == x
        with pytest.raises(ZeroDivisionError):
            exquo(ring, x, ring.int_payload(0))
    with pytest.raises(ArithmeticError):
        exquo(ZZ, 7, 2)


@given(coeffs)
def test_poly_parse_format_roundtrip(ca):
    v = RingValue(PZ, tuple(ca))
    assert RingValue(PZ, PZ.parse_payload(PZ.format_payload(v.payload))) == v


def test_parse_ring_labels():
    assert parse_ring("int") == ZZ
    assert parse_ring("mod:7") == F7
    assert parse_ring("poly:a") == PA
    for bad in ("", "mod:", "mod:abc", "poly:", "float"):
        with pytest.raises(ValueError):
            parse_ring(bad)


def test_ring_label_roundtrip():
    for ring in (ZZ, F7, F10007, PZ, PA):
        assert parse_ring(ring.label) == ring


def test_immutability():
    v = ZZ.from_int(5)
    with pytest.raises(AttributeError):
        v.payload = 6
