"""Exact commutative base rings: integers, prime fields, and univariate
integer polynomials.

The rings and their elements, ``RingValue``, are immutable values on the
``Frozen`` base, as are ``Matrix``, ``BlockMatrix`` and ``Condition``: each
is equal only to an instance of its own class with equal fields, hashes as
the tuple of those fields, and raises ``AttributeError`` on assigning or
deleting any attribute.  Every payload is canonical, as ``ring.canonical``
makes it: a plain ``int`` over ``int``, one in ``[0, p)`` over ``mod:p``,
and an int tuple with no trailing zeros over ``poly:``.  So zero is the one
falsy payload of each ring, and kernels test it by truthiness.  A
``RingValue`` boxes a payload only at the API edge: the determinants of
``matrix.det_commutative`` are returned boxed, and ``Matrix(ring, rows)``
unboxes entries given boxed.  The records of ``verify`` and ``ncdet`` are
``NamedTuple``s.
"""

from __future__ import annotations

# The comparison methods of one value class, made for each class from its
# fields as ``dataclasses`` makes them: a code object of its own keeps every
# attribute read in it specialised to that one class.  One __eq__ shared by
# every class, reading the fields through a method, took about 40 % longer
# to compare two distinct values on CPython 3.11.
_METHODS = """\
def __eq__(self, other):
    if self is other:
        return True
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented


def __hash__(self):
    return hash(({mine}))
"""


class Frozen:
    """Base of the immutable value types.

    A subclass names its compared fields in ``_fields`` and sets its
    attributes in ``__init__`` with ``object.__setattr__`` (a trusted
    constructor may fill ``__dict__`` directly).  It is then equal only to
    an instance of its own class with equal fields, hashes as the tuple of
    those fields, prints as ``Name(field=value, ...)`` unless it says
    otherwise, and raises ``AttributeError`` on assigning or deleting any
    attribute.  Instances keep a ``__dict__``, so a value may cache
    what it derives from its fields there; pickling and ``copy.deepcopy``
    restore that dict directly.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "_fields" in cls.__dict__:
            code = _METHODS.format(mine="".join(f"self.{f}, " for f in cls._fields),
                                   theirs="".join(f"other.{f}, " for f in cls._fields))
            methods = {}
            exec(code, {}, methods)
            cls.__eq__, cls.__hash__ = methods["__eq__"], methods["__hash__"]

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RingMismatchError(ValueError):
    """Raised when two values from different rings are combined."""


# psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to
# every base 2..37 (Sorenson and Webster 2015).
_MILLER_RABIN_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin with bases 2..37, exact for n < psi_12.
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_int(text: str) -> int:
    """``text`` as an int: an optional sign, then ASCII digits 0-9 only, not
    the ``_``, other digits or spaces ``int`` takes; else ``int``'s error."""
    if text.isascii() and (text.isdigit() or text[:1] in "+-" and text[1:].isdigit()):
        return int(text)
    raise ValueError(f"invalid literal for int() with base 10: {text!r}")


def _poly_trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class Ring(Frozen):
    """Base class for ring descriptors.

    Subclasses implement payload-level arithmetic, which the matrix
    algorithms use directly.
    """

    label: str

    # payload protocol
    def canonical(self, payload):
        raise NotImplementedError

    def int_payload(self, k: int):
        raise NotImplementedError

    def padd(self, a, b):
        raise NotImplementedError

    def pmul(self, a, b):
        raise NotImplementedError

    def pneg(self, a):
        raise NotImplementedError

    def psub(self, a, b):
        return self.padd(a, self.pneg(b))

    def format_payload(self, a) -> str:
        raise NotImplementedError

    def parse_payload(self, token: str):
        """The payload a text token spells, an int here, not yet canonical:
        the matrix it goes into canonicalises it (``canonical``); raises
        ``ValueError`` on a malformed token."""
        return parse_int(token)


class IntegerRing(Ring):
    label = "int"
    _fields = ()

    def canonical(self, payload):
        if not isinstance(payload, int):
            raise TypeError(f"integer payload required, got {type(payload).__name__}")
        return int(payload)

    def int_payload(self, k: int) -> int:
        return k

    def padd(self, a, b):
        return a + b

    def pmul(self, a, b):
        return a * b

    def pneg(self, a):
        return -a

    def psub(self, a, b):
        return a - b

    def format_payload(self, a) -> str:
        return str(a)


class PrimeField(Ring):
    _fields = ("p",)

    def __init__(self, p: int):
        if p >= _MILLER_RABIN_BOUND:
            raise ValueError(f"modulus {p} is too large to certify as prime")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        object.__setattr__(self, "p", p)

    @property
    def label(self) -> str:
        return f"mod:{self.p}"

    def canonical(self, payload):
        if not isinstance(payload, int):
            raise TypeError(f"integer payload required, got {type(payload).__name__}")
        return payload % self.p

    def int_payload(self, k: int) -> int:
        return k % self.p

    def padd(self, a, b):
        return (a + b) % self.p

    def pmul(self, a, b):
        return a * b % self.p

    def pneg(self, a):
        return -a % self.p

    def psub(self, a, b):
        return (a - b) % self.p

    def format_payload(self, a) -> str:
        return str(a)


class PolynomialRing(Ring):
    """Univariate polynomials with integer coefficients.

    Payloads are coefficient tuples, constant term first, with no trailing
    zeros; the zero polynomial is the empty tuple.
    """

    _fields = ("variable",)

    def __init__(self, variable: str = "z"):
        object.__setattr__(self, "variable", variable)

    @property
    def label(self) -> str:
        return f"poly:{self.variable}"

    def canonical(self, payload):
        coeffs = (payload,) if isinstance(payload, int) else tuple(payload)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {type(c).__name__}")
        return _poly_trim(map(int, coeffs))

    def int_payload(self, k: int) -> tuple[int, ...]:
        return (k,) if k else ()

    def padd(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly_trim(out)

    def pmul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly_trim(out)

    def pneg(self, a):
        return tuple(-c for c in a)

    def format_payload(self, a) -> str:
        if not a:
            return "0"
        return ",".join(str(c) for c in a)

    def parse_payload(self, token: str) -> tuple[int, ...]:
        return tuple(map(parse_int, token.split(",")))


class RingValue(Frozen):
    """Immutable ring element, and the one way to build one: ``payload`` is
    made canonical by ``ring.canonical``.  It has no arithmetic: all of it
    is the payload operations ``ring.padd``, ``pmul``, ``psub``, ``pneg``."""

    _fields = ("ring", "payload")

    def __init__(self, ring: Ring, payload):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", ring.canonical(payload))

    def __repr__(self):
        return f"<{self.ring.label}: {self.ring.format_payload(self.payload)}>"

    def __str__(self):
        return self.ring.format_payload(self.payload)


ZZ = IntegerRing()


def parse_ring(label: str) -> Ring:
    """Parse a ring descriptor: ``int``, ``mod:p`` or ``poly:v``."""
    label = label.strip()
    if label == "int":
        return ZZ
    if label.startswith("mod:"):
        try:
            p = parse_int(label[4:])
        except ValueError:
            raise ValueError(f"bad prime-field descriptor {label!r}") from None
        return PrimeField(p)
    if label.startswith("poly:"):
        var = label[5:]
        if not var:
            raise ValueError("polynomial ring descriptor needs a variable name")
        return PolynomialRing(var)
    raise ValueError(f"unknown ring descriptor {label!r}")
