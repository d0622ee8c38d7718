"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored in the power basis 1, z, ..., z^(phi(n)-1), reduced
modulo the n-th cyclotomic polynomial, with big-rational coefficients.
Equality is structural (same order, same reduced coefficients), so
"is this value real" is an exact decision, never an approximation.

The textual coefficient grammar used by all file formats lives here too:
signed rational-coefficient polynomials in the symbol ``z``, e.g. ``"1"``,
``"-z"``, ``"z^2"``, ``"1/2*z - 3"``.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

__all__ = [
    "CycloNum",
    "cyclotomic_polynomial",
    "euler_phi",
    "parse_cyclo",
    "format_cyclo",
]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _poly_trim(out)


def _poly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _poly_trim(out)


def _poly_divmod(
    num: Sequence[Fraction], den: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    inv_lead = 1 / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] * inv_lead
        if c == 0:
            continue
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    return _poly_trim(q), _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic.

    Computed by the recursive quotient Phi_n = (x^n - 1) / prod Phi_d over
    proper divisors d of n.

    >>> [int(c) for c in cyclotomic_polynomial(3)]
    [1, 1, 1]
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(poly)


def _reduce(order: int, raw: Iterable[Rational]) -> tuple[Fraction, ...]:
    """Reduce a raw coefficient sequence modulo Phi_order, pad to phi(order)."""
    phi = euler_phi(order)
    coeffs = _poly_trim([Fraction(c) for c in raw])
    if len(coeffs) > phi:
        _, coeffs = _poly_divmod(coeffs, list(cyclotomic_polynomial(order)))
    coeffs += [Fraction(0)] * (phi - len(coeffs))
    return tuple(coeffs)


class CycloNum:
    """An exact element of Q(zeta_n) in canonical reduced form.

    Immutable and hashable; arithmetic via the usual operators. Operands
    must share an order (use :meth:`lift` first); plain ints and Fractions
    are coerced as rational constants.

    >>> z = CycloNum.zeta(3)
    >>> z * z * z == CycloNum.one(3)
    True
    >>> z + z * z
    CycloNum(3, '-1')
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Rational]):
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", _reduce(order, coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeta(cls, order: int, exponent: int = 1) -> "CycloNum":
        """The root of unity zeta_order ** exponent."""
        exponent %= order
        raw = [Fraction(0)] * exponent + [Fraction(1)]
        return cls(order, raw)

    @classmethod
    def from_rational(cls, order: int, value: Rational) -> "CycloNum":
        return cls(order, [Fraction(value)])

    @classmethod
    def zero(cls, order: int) -> "CycloNum":
        return cls(order, [])

    @classmethod
    def one(cls, order: int) -> "CycloNum":
        return cls(order, [Fraction(1)])

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "CycloNum | None":
        if isinstance(other, CycloNum):
            if other.order != self.order:
                raise ValueError(
                    f"order mismatch: {self.order} vs {other.order}; lift first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(self.order, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloNum(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloNum(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloNum(self.order, _poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse, by the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        # xgcd of self (as a polynomial) with the irreducible Phi_n.
        r0 = list(cyclotomic_polynomial(self.order))
        r1 = _poly_trim(list(self.coeffs))
        s0: list[Fraction] = []
        s1: list[Fraction] = [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is a nonzero constant gcd; divide it out.
        g = r0[0]
        return CycloNum(self.order, [c / g for c in s0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        acc = CycloNum.one(self.order)
        base = self
        while exponent:
            if exponent & 1:
                acc = acc * base
            base = base * base
            exponent >>= 1
        return acc

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "CycloNum":
        """Complex conjugation restricted to Q(zeta_n): zeta -> zeta^(n-1)."""
        n = self.order
        raw = [Fraction(0)] * n
        for k, c in enumerate(self.coeffs):
            raw[(n - k) % n] += c
        return CycloNum(n, raw)

    def is_real(self) -> bool:
        return self.conjugate() == self

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def lift(self, new_order: int) -> "CycloNum":
        """The same field element in Q(zeta_new) via zeta_old = zeta_new^(new/old)."""
        if new_order % self.order != 0:
            raise ValueError(
                f"new order {new_order} is not a multiple of {self.order}"
            )
        ratio = new_order // self.order
        raw = [Fraction(0)] * (len(self.coeffs) * ratio)
        for k, c in enumerate(self.coeffs):
            raw[k * ratio] = c
        return CycloNum(new_order, raw)

    def as_root_of_unity(self) -> int | None:
        """The exponent k with self == zeta_n^k, or None if self is no such power."""
        power = CycloNum.one(self.order)
        z = CycloNum.zeta(self.order)
        for k in range(self.order):
            if self == power:
                return k
            power = power * z
        return None

    def approx(self) -> complex:
        """Floating-point embedding (reporting only, never used in logic)."""
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(float(c) * z**k for k, c in enumerate(self.coeffs))

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(self.order, other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return format_cyclo(self)

    def __repr__(self):
        return f"CycloNum({self.order}, {format_cyclo(self)!r})"


# -- textual grammar ---------------------------------------------------------

# One signed term. Every part is optional, so parse_cyclo rejects a match with
# neither a number nor ``z``, and an unsigned match after the first term.
_TERM = re.compile(
    r"\s*(?P<sign>[-+]?)\s*(?:(?P<num>\d+(?:/\d+)?)\s*\*?)?"
    r"\s*(?:(?P<z>z)(?:\s*\^\s*(?P<exp>\d+))?)?\s*"
)


def check_order(value, name: str = "order") -> int:
    """``value`` itself if it is an integer >= 1 (not a bool); else ValueError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def parse_cyclo(order: int, text: str) -> CycloNum:
    """Parse the coefficient grammar: signed rational polynomials in ``z``.

    A literal is a sequence of terms ``[sign] [num ["*"]] ["z" ["^" digits]]``,
    where ``num`` is ``p`` or ``p/q`` and a term has a number, ``z`` or both.
    Every term after the first needs a sign; whitespace may go between
    tokens. Exponents are reduced mod ``order`` as they are read (exact,
    since z^order = 1), so a huge exponent costs no more than a small one.
    A zero denominator raises ValueError like any other malformed literal.

    >>> parse_cyclo(3, "1/2*z - 3").coeffs
    (Fraction(-3, 1), Fraction(1, 2))
    """
    check_order(order)
    if not isinstance(text, str):
        raise ValueError(f"cyclotomic literal must be a string, got {text!r}")
    raw: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not (m["num"] or m["z"]) or (pos and not m["sign"]):
            raise ValueError(f"bad cyclotomic literal {text!r} at position {pos}")
        try:
            coeff = Fraction(m["num"] or 1)
        except ZeroDivisionError:
            raise ValueError(
                f"zero denominator in cyclotomic literal {text!r} at position {pos}"
            ) from None
        if m["sign"] == "-":
            coeff = -coeff
        exponent = int(m["exp"] or 1) % order if m["z"] else 0
        raw[exponent] = raw.get(exponent, Fraction(0)) + coeff
        pos = m.end()

    if not raw:
        raise ValueError("empty cyclotomic literal")
    size = max(raw) + 1
    coeffs = [raw.get(k, Fraction(0)) for k in range(size)]
    return CycloNum(order, coeffs)


def _format_coeff(c: Fraction) -> str:
    return str(c) if c.denominator != 1 else str(c.numerator)


def format_cyclo(x: CycloNum) -> str:
    """Canonical text form: descending powers of ``z``, round-trips via parse.

    Exact powers of zeta print as ``z^k`` even when the reduced basis form
    would be longer (e.g. ``z^2`` rather than ``-z - 1`` at order 3).

    >>> format_cyclo(CycloNum(3, [Fraction(-3), Fraction(1, 2)]))
    '1/2*z - 3'
    """
    k = x.as_root_of_unity()
    if k is not None and k >= 2:
        return f"z^{k}"
    parts: list[str] = []
    for k in range(len(x.coeffs) - 1, -1, -1):
        c = x.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = _format_coeff(mag)
        else:
            zpart = "z" if k == 1 else f"z^{k}"
            body = zpart if mag == 1 else f"{_format_coeff(mag)}*{zpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts) if parts else "0"
