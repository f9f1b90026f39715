import random

import pytest
from hypothesis import given, strategies as st

from blockdet.matrix import Matrix
from blockdet.ring import (
    PolynomialRing,
    PrimeField,
    RingMismatchError,
    RingValue,
    ZZ,
    parse_int,
    parse_ring,
)
from oracles import exquo

PZ = PolynomialRing("z")
PA = PolynomialRing("a")
F7 = PrimeField(7)
F10007 = PrimeField(10007)


def test_integer_examples():
    assert ZZ.padd(3, -5) == -2
    assert ZZ.pmul(6, 7) == 42


@pytest.mark.parametrize("text, value", [("0", 0), ("-3", -3), ("+3", 3), ("007", 7), ("-007", -7), ("10007", 10007)])
def test_parse_int_reads_a_sign_and_ascii_digits(text, value):
    assert parse_int(text) == value == int(text)


# int() itself reads the first five, as 10, 3, 2, 3 and 3.
@pytest.mark.parametrize("text", ["1_0", "\u0663", "\uff12", " 3", "3\n", "", "+", "-", "--3", "+-3", "0x1", "1.0", "²"])
def test_parse_int_rejects_all_else_with_the_message_of_int(text):
    with pytest.raises(ValueError) as exc:
        parse_int(text)
    assert str(exc.value) == f"invalid literal for int() with base 10: {text!r}"


def test_ring_text_reads_integers_by_parse_int():
    assert (ZZ.parse_payload("-007"), PA.parse_payload("+1,-0,2"), parse_ring("mod:0007")) == (-7, (1, 0, 2), F7)
    for ring, token in ((ZZ, "1_0"), (F7, "\u0663"), (PA, "1,1_0"), (PA, "1, 2")):
        with pytest.raises(ValueError):
            ring.parse_payload(token)
    with pytest.raises(ValueError, match="bad prime-field descriptor 'mod:1_0007'"):
        parse_ring("mod:1_0007")


def test_prime_field_examples():
    assert F7.padd(5, 4) == 2
    assert F10007.pmul(10006, 10006) == 1


def test_poly_examples():
    a = RingValue(PA, (0, 1)).payload
    assert PA.padd(PA.padd(a, (1,)), PA.pneg(a)) == (1,)
    assert PZ.pmul((0, 1), (0, 1)) == (0, 0, 1)


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
    # A value enters a matrix only over its own ring, and matrices combine
    # only over one ring.
    with pytest.raises(RingMismatchError):
        Matrix(ZZ, [[RingValue(F7, 1)]])
    with pytest.raises(RingMismatchError):
        Matrix(PZ, [[1]]) * Matrix(PA, [[1]])


def test_poly_canonical_form():
    assert RingValue(PZ, (1, 2, 0, 0)).payload == (1, 2)
    assert RingValue(PZ, ()).payload == ()
    assert RingValue(PZ, (0, 0)).payload == ()
    assert PZ.psub((1, 1), (0, 1)) == (1,)


def test_poly_rejects_non_integer_coefficients():
    for payload in ((2.5,), (1, 0.0), (1, "2"), 2.5):
        with pytest.raises(TypeError):
            RingValue(PZ, payload)


def _random_payload(ring, rng):
    if isinstance(ring, PrimeField):
        return rng.randrange(ring.p)
    if isinstance(ring, PolynomialRing):
        return ring.canonical(tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(0, 5))))
    return rng.randrange(-999, 1000)


@pytest.mark.parametrize("ring", [ZZ, F10007, PZ], ids=lambda r: r.label)
def test_ring_axioms_randomized(ring):
    # On the payload operations that the kernels and matrix arithmetic run.
    rng = random.Random(20161004)
    add, mul, neg = ring.padd, ring.pmul, ring.pneg
    zero, one = ring.int_payload(0), ring.int_payload(1)
    for _ in range(1000):
        x, y, z = (_random_payload(ring, rng) for _ in range(3))
        assert add(add(x, y), z) == add(x, add(y, z))
        assert add(x, y) == add(y, x)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, y) == mul(y, x)
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert add(x, zero) == x
        assert mul(x, one) == x
        assert mul(x, zero) == zero
        assert add(x, neg(x)) == zero
        assert ring.psub(x, y) == add(x, neg(y))


@pytest.mark.parametrize("ring", [F7, F10007], ids=lambda r: r.label)
def test_prime_field_always_reduced(ring):
    rng = random.Random(3)
    for _ in range(500):
        x, y = _random_payload(ring, rng), _random_payload(ring, rng)
        for v in (ring.padd(x, y), ring.pmul(x, y), ring.pneg(x), ring.psub(x, y)):
            assert 0 <= v < ring.p


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
    v = RingValue(ZZ, 5)
    with pytest.raises(AttributeError):
        v.payload = 6
