"""Exact scalar arithmetic: rationals, Gaussian rationals, dual numbers.

Every module in this package computes over an exact field.  The two fields
supported are Q (python Fractions) and Q(i) (GaussianRational below); a value
whose imaginary part is zero is always normalised back down to a Fraction, so
equality and hashing are field-independent.

Dual numbers (a + b*d with d^2 = 0) are used for exact Jacobian ranks of
rational parameterizations; they are a testing device, not part of the
geometry.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to Fraction")


@dataclass(frozen=True)
class GaussianRational:
    """An element a + b*i of Q(i), with exact Fraction parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    @staticmethod
    def _coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(_as_fraction(x), Fraction(0))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return canon_scalar(GaussianRational(self.re + o.re, self.im + o.im))

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return canon_scalar(GaussianRational(self.re - o.re, self.im - o.im))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return canon_scalar(GaussianRational(o.re - self.re, o.im - self.im))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return canon_scalar(
            GaussianRational(
                self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
            )
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return canon_scalar(
            GaussianRational(
                (self.re * o.re + self.im * o.im) / n,
                (self.im * o.re - self.re * o.im) / n,
            )
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


Scalar = Union[Fraction, GaussianRational]

I = GaussianRational(Fraction(0), Fraction(1))
ZERO = Fraction(0)
ONE = Fraction(1)


def canon_scalar(x: Scalar) -> Scalar:
    """Normalise: Gaussian rationals with zero imaginary part become Fractions."""
    if isinstance(x, GaussianRational) and x.im == 0:
        return x.re
    if isinstance(x, int):
        return Fraction(x)
    return x


def parse_scalar(s: str) -> Scalar:
    """Parse "3/4", "-2", "1/2+3/4i", "i", "-i", "2-i", "1i"; anything else,
    a value that is not a string or a zero denominator included, raises
    ValueError."""
    if not isinstance(s, str):
        raise ValueError(f'a scalar is a string such as "3/4", not {s!r}')
    return nonzero_denominator(_parse_scalar, s)


def nonzero_denominator(parse, s):
    """parse(s), with a zero denominator refused as a ValueError."""
    try:
        return parse(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def _parse_scalar(s: str) -> Scalar:
    s = s.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    if not s.endswith("i"):
        return Fraction(s)
    body = s[:-1]
    re_part, im_part = None, body
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/":
            re_part, im_part = body[:pos], body[pos:]
            break
    re_f = Fraction(re_part) if re_part else Fraction(0)
    if im_part in ("", "+"):
        im_f = Fraction(1)
    elif im_part == "-":
        im_f = Fraction(-1)
    else:
        im_f = Fraction(im_part)
    return canon_scalar(GaussianRational(re_f, im_f))


def format_scalar(x: Scalar) -> str:
    return str(canon_scalar(x))


_EXACT = (int, Fraction, GaussianRational)


@dataclass(frozen=True)
class Dual:
    """Dual number a + b*d, d^2 = 0, over any of the exact scalars.

    An exact scalar operand x of +, -, * and / acts directly on a and b,
    as the dual number (x, 0) would.  Where a b part is zero, the sums,
    products and quotients it enters are skipped, and a b part they would
    make zero is ZERO."""

    a: Scalar
    b: Scalar

    @staticmethod
    def _coerce(x):
        if isinstance(x, Dual):
            return x
        if isinstance(x, _EXACT):
            return _dual(canon_scalar(x), ZERO)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Dual):
            return _dual(self.a + other.a, self.b + other.b if other.b else self.b)
        if isinstance(other, _EXACT):
            return _dual(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _dual(-self.a, -self.b if self.b else ZERO)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return _dual(self.a - other.a, self.b - other.b if other.b else self.b)
        if isinstance(other, _EXACT):
            return _dual(self.a - other, self.b)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _EXACT):
            return _dual(other - self.a, -self.b if self.b else ZERO)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            a, b, c, d = self.a, self.b, other.a, other.b
            if not d:
                return _dual(a * c, b * c if b else ZERO)
            return _dual(a * c, a * d + b * c if b else a * d)
        if isinstance(other, _EXACT):
            return _dual(self.a * other, self.b * other if self.b else ZERO)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            a, b, c, d = self.a, self.b, other.a, other.b
            q = a / c
            if not d:
                return _dual(q, b / c if b else ZERO)
            return _dual(q, (b - q * d) / c)
        if isinstance(other, _EXACT):
            return _dual(self.a / other, self.b / other if self.b else ZERO)
        return NotImplemented

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b


_new, _setattr = object.__new__, object.__setattr__


def _dual(a: Scalar, b: Scalar) -> Dual:
    """Dual(a, b), built without the dataclass __init__."""
    x = _new(Dual)
    _setattr(x, "a", a)
    _setattr(x, "b", b)
    return x


def matrix_rank(rows) -> int:
    """Rank of a matrix of exact scalars by Gaussian elimination.  Rows of
    ints and Fractions are scaled to ints by the lcm of their denominators,
    and each row below the pivot becomes pivot * row - entry * (pivot row),
    divided by the gcd of its entries; over Q(i), each row below the pivot
    loses its multiple (entry / pivot) of the pivot row."""
    m = [list(r) for r in rows]
    ints = all(isinstance(x, (int, Fraction)) for r in m for x in r)
    for k, r in enumerate(m):
        if ints:
            d = math.lcm(*(x.denominator for x in r))
            m[k] = [x.numerator * (d // x.denominator) for x in r]
        else:  # no int / int quotient, which would be a float
            m[k] = [canon_scalar(x) for x in r]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        pv = top[col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            if f != 0 and ints:
                row = [pv * x - f * y for x, y in zip(m[r], top)]
                g = math.gcd(*row)
                m[r] = [x // g for x in row] if g > 1 else row
            elif f != 0:
                factor = f / pv
                m[r] = [x - factor * y for x, y in zip(m[r], top)]
        rank += 1
        if rank == len(m):
            break
    return rank
