"""Exact complex scalars: Gaussian rationals ``(a + b*i) / d``.

A :class:`ComplexRational` stores three Python ints ``a``, ``b``, ``d`` with
``d > 0`` and ``gcd(a, b, d) == 1``, so every value has exactly one stored
form: one shared denominator for the real and the imaginary part, as in
FLINT's ``fmpq_poly``.  Arithmetic works on the integers and normalises once
per result; ``Fraction`` objects appear only at the boundary (``.re``,
``.im``, ``norm2``, formatting).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_new = object.__new__


def _exact(a: int, b: int, d: int) -> "ComplexRational":
    """Trusted constructor: the triple is already normalised."""
    z = _new(ComplexRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> "ComplexRational":
    """Normalise a triple with d > 0 by its common content."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(ComplexRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def numerators(values) -> tuple[list[tuple[int, int]], int]:
    """The values as Gaussian integers ``(a, b)`` over one common
    denominator ``d``, the least: ``value = (a + b*i) / d`` for each."""
    d = lcm(*[z._d for z in values])
    return [(z._a * s, z._b * s) for z in values for s in (d // z._d,)], d


def _sum(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> "ComplexRational":
    """(a1 + b1*i)/d1 + (a2 + b2*i)/d2 for normalised operands, d1 != d2."""
    g = gcd(d1, d2)
    if g == 1:
        # coprime denominators: the sum is already in lowest terms
        return _exact(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
    s, t = d1 // g, d2 // g
    a, b = a1 * t + a2 * s, b1 * t + b2 * s
    # over the lcm s * d2, only primes of g can divide the content
    g = gcd(a, b, g)
    return _exact(a // g, b // g, s * (d2 // g))


class ComplexRational:
    """Gaussian rational ``(a + b*i) / d`` in lowest terms.

    Immutable in the way ``Fraction`` is: the public attributes ``re`` and
    ``im`` are read-only and derived, and the stored integers are private.
    Equality is exact; there is no tolerance anywhere on this backend.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            p, q = re.numerator, re.denominator
            r, s = im.numerator, im.denominator
            # reduced parts over their lcm share no common content
            d = q * (s // gcd(q, s))
            a, b = p * (d // q), r * (d // s)
        z = _new(cls)
        z._a = a
        z._b = b
        z._d = d
        return z

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, int):
            return _exact(int(value), 0, 1)
        if isinstance(value, Fraction):
            return _exact(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot coerce {type(value).__name__} to ComplexRational")

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def conjugate(self) -> "ComplexRational":
        return _exact(self._a, -self._b, self._d)

    def norm2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as Fraction.__float__ is
        return complex(self._a / self._d, self._b / self._d)

    def __add__(self, other):
        if other.__class__ is not ComplexRational:
            other = ComplexRational.coerce(other)
        d = self._d
        if d == other._d:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _sum(self._a, self._b, d, other._a, other._b, other._d)

    __radd__ = __add__

    def __neg__(self):
        return _exact(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if other.__class__ is not ComplexRational:
            other = ComplexRational.coerce(other)
        d = self._d
        if d == other._d:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _sum(self._a, self._b, d, -other._a, -other._b, other._d)

    def __rsub__(self, other):
        return ComplexRational.coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not ComplexRational:
            other = ComplexRational.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        if b2:
            if b1:
                a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            else:
                a, b = a1 * a2, a1 * b2
        else:
            a, b = a1 * a2, b1 * a2
        return _reduced(a, b, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not ComplexRational:
            other = ComplexRational.coerce(other)
        a2, b2 = other._a, other._b
        n = a2 * a2 + b2 * b2
        if not n:
            raise ZeroDivisionError("division by zero ComplexRational")
        a1, b1, d2 = self._a, self._b, other._d
        # (a1 + b1 i) (a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        return _reduced(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n
        )

    def __rtruediv__(self, other):
        return ComplexRational.coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return ComplexRational(1) / self ** (-k)
        result = ComplexRational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, ComplexRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                not self._b
                and self._a == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        if not self._b:
            # real values hash like the equal Fraction or int
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(c) -> str:
    """Render a coefficient in the series-literal grammar, or a ``complex``
    coefficient of a float series as a float pair."""
    if isinstance(c, ComplexRational):
        if not c.im:
            return format_fraction(c.re)
        if not c.re:
            return f"{format_fraction(c.im)}*i"
        sign = "+" if c.im > 0 else "-"
        return f"({format_fraction(c.re)}{sign}{format_fraction(abs(c.im))}*i)"
    z = complex(c)
    if z.imag == 0.0:
        return repr(z.real)
    return f"({z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}*i)"
