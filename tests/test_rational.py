"""Gaussian-rational scalars against an independent reference.

The reference keeps a value as a pair of ``Fraction`` objects and does the
textbook arithmetic on them; ``ComplexRational`` stores ``(a + b*i) / d`` as
three integers.  Every operation must agree with the reference exactly.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crjets.rational import ComplexRational as CR


class Ref:
    """Gaussian rational as a (re, im) pair of Fractions."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(value):
        if isinstance(value, Ref):
            return value
        return Ref(value)

    def __add__(self, other):
        other = Ref.of(other)
        return Ref(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = Ref.of(other)
        return Ref(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = Ref.of(other)
        return Ref(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        other = Ref.of(other)
        n = other.re * other.re + other.im * other.im
        return Ref(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __neg__(self):
        return Ref(-self.re, -self.im)

    def conjugate(self):
        return Ref(self.re, -self.im)

    def norm2(self):
        return self.re * self.re + self.im * self.im

    def power(self, k):
        out = Ref(1)
        for _ in range(abs(k)):
            out = out * self
        return Ref(1) / out if k < 0 else out


def ref_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def ref_str(re: Fraction, im: Fraction) -> str:
    """The series-literal rendering of a scalar, written out independently."""
    if not im:
        return ref_fraction(re)
    if not re:
        return f"{ref_fraction(im)}*i"
    sign = "+" if im > 0 else "-"
    return f"({ref_fraction(re)}{sign}{ref_fraction(abs(im))}*i)"


def same(c: CR, r: Ref) -> bool:
    return c.re == r.re and c.im == r.im


fractions = st.builds(
    Fraction,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=1, max_value=60),
)
small_ints = st.integers(min_value=-50, max_value=50)
pairs = st.tuples(fractions, fractions)
operands = st.one_of(
    pairs.map(lambda p: ("cr", p)),
    small_ints.map(lambda n: ("int", n)),
    fractions.map(lambda q: ("frac", q)),
)


def build(op):
    kind, value = op
    if kind == "cr":
        return CR(*value), Ref(*value)
    return value, Ref(value)


@settings(max_examples=200, deadline=None)
@given(pairs, operands)
def test_ring_operations_match_reference(p, op):
    x, rx = CR(*p), Ref(*p)
    y, ry = build(op)
    assert same(x + y, rx + ry)
    assert same(y + x, ry + rx)
    assert same(x - y, rx - ry)
    assert same(y - x, ry - rx)
    assert same(x * y, rx * ry)
    assert same(y * x, ry * rx)
    assert same(-x, -rx)
    assert same(x.conjugate(), rx.conjugate())
    assert x.norm2() == rx.norm2()
    assert isinstance(x.norm2(), Fraction)


@settings(max_examples=200, deadline=None)
@given(pairs, operands)
def test_division_matches_reference(p, op):
    x, rx = CR(*p), Ref(*p)
    y, ry = build(op)
    if ry.norm2():
        assert same(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if rx.norm2():
        assert same(y / x, ry / rx)
    else:
        with pytest.raises(ZeroDivisionError):
            y / x


@settings(max_examples=150, deadline=None)
@given(pairs, st.integers(min_value=-6, max_value=6))
def test_powers_match_reference(p, k):
    x, rx = CR(*p), Ref(*p)
    if k < 0 and not rx.norm2():
        with pytest.raises(ZeroDivisionError):
            x**k
        return
    assert same(x**k, rx.power(k))


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_stored_triple_is_normalised(p, q):
    x, y = CR(*p), CR(*q)
    for c in (x, y, x + y, x - y, x * y, -x, x.conjugate()) + ((x / y,) if y else ()):
        assert c._d > 0
        assert gcd(c._a, c._b, c._d) == 1


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_equality_and_hash(p, q):
    x, y = CR(*p), CR(*q)
    rebuilt = (x + y) - y
    assert rebuilt == x
    assert hash(rebuilt) == hash(x)
    assert (x == y) == (p == q)
    re, im = p
    if not im:
        assert x == re
        assert hash(x) == hash(re)
        if re.denominator == 1:
            assert x == re.numerator
    else:
        assert x != re
    assert x.__eq__("1") is NotImplemented


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_parts_are_read_only_fractions(p):
    x = CR(*p)
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert (x.re, x.im) == p
    with pytest.raises(AttributeError):
        x.re = 0
    with pytest.raises(AttributeError):
        x.im = 0
    with pytest.raises(AttributeError):
        x.extra = 0


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_str_matches_reference_formatter(p):
    x = CR(*p)
    assert str(x) == ref_str(*p)
    assert repr(x) == f"ComplexRational({p[0]!r}, {p[1]!r})"


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_to_complex_and_flags(p):
    x = CR(*p)
    assert x.to_complex() == complex(float(p[0]), float(p[1]))
    assert x.is_zero == (p == (0, 0))
    assert bool(x) == (p != (0, 0))


def test_constructor_accepts_what_fraction_accepts():
    assert CR("1/3", "-2/6") == CR(Fraction(1, 3), Fraction(-1, 3))
    assert CR(0.5, 2) == CR(Fraction(1, 2), 2)
    assert CR(True) == 1
    assert CR.coerce(Fraction(3, 6)) == CR(Fraction(1, 2))
    with pytest.raises(TypeError):
        CR.coerce(0.5)
    with pytest.raises(TypeError):
        CR(1) ** Fraction(1, 2)


def test_division_by_zero_raises():
    for num in (CR(1, 1), 1, Fraction(1, 2)):
        with pytest.raises(ZeroDivisionError):
            num / CR(0)
    with pytest.raises(ZeroDivisionError):
        CR(1) / 0
    with pytest.raises(ZeroDivisionError):
        CR(0) ** -1
