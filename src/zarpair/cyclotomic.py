"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is integer numerators over one positive denominator in the power
basis 1, z, ..., z^(phi(n)-1) modulo Phi_n, as ANTIC's ``nf_elem`` (Hart,
"ANTIC: Algebraic Number Theory In C", 2015). The form is canonical, so
equality is structural and "is this value real" is an exact decision, never
an approximation. A per-order table of z^j mod Phi_n reduces every product,
conjugate and lift, and recognises a root of unity with one lookup.

The textual coefficient grammar used by all file formats lives here too:
signed rational-coefficient polynomials in the symbol ``z``, e.g. ``"1"``,
``"-z"``, ``"z^2"``, ``"1/2*z - 3"``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

__all__ = [
    "CycloNum",
    "cyclotomic_polynomial",
    "det2",
    "dot",
    "euler_phi",
    "parse_cyclo",
    "format_cyclo",
]

# Largest order of any element, file or character: it bounds the n x phi(n)
# table an order keeps and the phi(n)^2 cost of a product. 840 = lcm(1..8)
# admits every order up to 8 and the orders their values lift to.
MAX_ORDER = 840


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending, monic.

    Computed by the recursive quotient Phi_n = (x^n - 1) / prod Phi_d over
    proper divisors d of n, each monic, so every division is exact in Z.

    >>> cyclotomic_polynomial(3)
    (1, 1, 1)
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_polynomial(d)
            deg = len(den) - 1
            quot = [0] * (len(poly) - deg)
            for i in range(len(quot) - 1, -1, -1):
                c = quot[i] = poly[i + deg]
                for j in range(deg):
                    poly[i + j] -= c * den[j]
            assert not any(poly[:deg])
            poly = quot
    return tuple(poly)


def euler_phi(n: int) -> int:
    """phi(n), the degree of Phi_n."""
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=64)
def _powers(n: int) -> tuple[tuple[int, ...], ...]:
    """Row j is z^j mod Phi_n as phi(n) integers, for 0 <= j < n."""
    phi_n = cyclotomic_polynomial(n)
    rows, row = [], (1,) + (0,) * (len(phi_n) - 2)
    for _ in range(n):
        rows.append(row)
        top = row[-1]
        row = tuple(a - top * b for a, b in zip((0,) + row[:-1], phi_n))
    return tuple(rows)


@lru_cache(maxsize=64)
def _roots(n: int) -> dict[tuple[int, ...], int]:
    """The numerators of zeta_n^k (over denominator 1), mapped to k."""
    return {row: k for k, row in enumerate(_powers(n))}


# Residue maps send Q(zeta_n) to F_p for incidence decisions that take no
# inverse (see realization._point_groups). Their primes lie above this floor,
# so that a prime dividing a denominator or a norm is rare; tests lower it to
# force such primes and key collisions.
_PRIME_FLOOR = 1 << 20


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % d for d in range(2, isqrt(m) + 1))


class _ResidueMap:
    """The ring map zeta_n -> r from Q(zeta_n) to F_p, p = 1 (mod n) prime and r
    a primitive n-th root of unity mod p, defined on the elements whose
    denominator p does not divide.

    p does not divide n, so r is a root of Phi_n mod p: the map respects the
    reduction mod Phi_n, and sums and products go to sums and products. A
    polynomial identity between exact values, such as a vanishing
    determinant, therefore holds between their images, and a nonzero image
    proves the exact value nonzero.
    """

    __slots__ = ("p", "_powers")

    def __init__(self, n: int, p: int):
        factors = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
        r = next(
            r for r in (pow(a, (p - 1) // n, p) for a in range(2, p))
            if all(pow(r, n // q, p) != 1 for q in factors)
        )
        self.p = p
        self._powers = tuple(pow(r, k, p) for k in range(euler_phi(n)))

    def __call__(self, x: "CycloNum") -> int | None:
        """sum(num_i r^i) / den mod p, or None when p divides den."""
        p = self.p
        den = x._den % p
        if not den:
            return None
        total = sum(map(mul, x._num, self._powers))
        return total % p if den == 1 else total * pow(den, -1, p) % p

    def vector(self, xs: Sequence["CycloNum"]) -> tuple[int, ...] | None:
        """The images of ``xs``, or None when any of them has none."""
        out = tuple(map(self, xs))
        return None if None in out else out


def _residue_map(order: int, index: int) -> _ResidueMap:
    """The residue map of the index-th prime p = 1 (mod order) above
    _PRIME_FLOOR, made on first use."""
    return _nth_residue_map(order, index, _PRIME_FLOOR)


@lru_cache(maxsize=256)
def _nth_residue_map(order: int, index: int, floor: int) -> _ResidueMap:
    if index:
        p = _nth_residue_map(order, index - 1, floor).p + order
    else:
        p = floor + 1 + (-floor) % order
    while not _is_prime(p):
        p += order
    return _ResidueMap(order, p)


@lru_cache(maxsize=64)
def _fold_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row j is the nonzero entries of z^j mod Phi_n as (index, value) pairs."""
    return tuple(
        tuple((i, b) for i, b in enumerate(row) if b) for row in _powers(n)
    )


def _fold(n: int, raw: Sequence[int]) -> tuple[int, ...]:
    """Integers indexed by exponent, of any length, reduced mod Phi_n."""
    phi = euler_phi(n)
    if len(raw) <= phi:
        return tuple(raw) + (0,) * (phi - len(raw))
    rows = _fold_rows(n)
    out = list(raw[:phi])
    for k in range(phi, len(raw)):
        c = raw[k]
        if c:
            for i, b in rows[k % n]:
                out[i] += c * b
    return tuple(out)


def _substitute(n: int, x: Sequence[int], step: int) -> tuple[int, ...]:
    """Numerators of x(z^step) in Q(zeta_n)."""
    raw = [0] * n
    for j, c in enumerate(x):
        raw[j * step % n] += c
    return _fold(n, raw)


def _new(order: int, num: Sequence[int], den: int) -> "CycloNum":
    """The element num / den (den > 0) at ``order``, in canonical form."""
    g = gcd(den, *num) if den != 1 else 1
    x = object.__new__(CycloNum)
    _set_order(x, order)
    _set_num(x, tuple(num) if g == 1 else tuple([c // g for c in num]))
    _set_den(x, den // g)
    return x


def _sum_of_products(terms: Sequence[tuple[int, "CycloNum", "CycloNum"]]) -> "CycloNum":
    """sum(sign * x * y) over ``terms`` of (sign, x, y), with one fold and one gcd.

    Each product's numerators are scaled to the lcm of the products'
    denominators, so every convolution lands in one integer buffer; when
    every denominator is 1 there is nothing to scale.
    """
    first = terms[0][1]
    order, den = first.order, 1
    for _, x, y in terms:
        if x.order != order or y.order != order:
            other = y.order if x.order == order else x.order
            raise ValueError(f"order mismatch: {order} vs {other}; lift first")
        d = x._den * y._den
        if d != 1:
            den = lcm(den, d)
    raw = [0] * (2 * len(first._num) - 1)
    for sign, x, y in terms:
        scale = sign if den == 1 else sign * den // (x._den * y._den)
        ys = y._num
        i = 0
        for c in x._num:
            if c:
                c *= scale
                j = i
                for d in ys:
                    raw[j] += c * d
                    j += 1
            i += 1
    return _new(order, _fold(order, raw), den)


def dot(xs: Sequence["CycloNum"], ys: Sequence["CycloNum"]) -> "CycloNum":
    """sum(x * y for x, y in zip(xs, ys)), as one exact accumulation.

    >>> z = CycloNum.zeta(3)
    >>> dot([z, CycloNum.one(3)], [z, z])
    CycloNum(3, '-1')
    """
    if not xs or len(xs) != len(ys):
        raise ValueError(
            f"dot needs two non-empty sequences of one length, got {len(xs)} and {len(ys)}"
        )
    return _sum_of_products([(1, x, y) for x, y in zip(xs, ys)])


def det2(a: "CycloNum", b: "CycloNum", c: "CycloNum", d: "CycloNum") -> "CycloNum":
    """The determinant a * d - b * c of [[a, b], [c, d]], as one exact accumulation."""
    return _sum_of_products([(1, a, d), (-1, b, c)])


class CycloNum:
    """An exact element of Q(zeta_n): integer numerators over one denominator.

    ``_num`` holds the phi(n) numerators and ``_den`` the positive common
    denominator; ``coeffs`` gives the quotients as Fractions. Immutable and
    hashable; arithmetic via the usual operators. Operands must share an
    order (use :meth:`lift` first); plain ints and Fractions are coerced as
    rational constants.

    >>> z = CycloNum.zeta(3)
    >>> z * z * z == CycloNum.one(3)
    True
    >>> z + z * z
    CycloNum(3, '-1')
    """

    __slots__ = ("order", "_num", "_den")

    def __new__(cls, order: int, coeffs: Iterable[Rational]):
        check_order(order)
        values = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in values))
        raw = [c.numerator * (den // c.denominator) for c in values]
        return _new(order, _fold(order, raw), den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The reduced power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self._den) for c in self._num)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeta(cls, order: int, exponent: int = 1) -> "CycloNum":
        """The root of unity zeta_order ** exponent."""
        return _new(check_order(order), _powers(order)[exponent % order], 1)

    @classmethod
    def from_rational(cls, order: int, value: Rational) -> "CycloNum":
        return cls(order, [value])

    @classmethod
    def zero(cls, order: int) -> "CycloNum":
        return cls(order, [])

    @classmethod
    def one(cls, order: int) -> "CycloNum":
        return cls.zeta(order, 0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "CycloNum | None":
        if isinstance(other, CycloNum):
            if other.order != self.order:
                raise ValueError(f"order mismatch: {self.order} vs {other.order}; lift first")
            return other
        if isinstance(other, (int, Fraction)):
            num = (other.numerator,) + (0,) * (len(self._num) - 1)
            return _new(self.order, num, other.denominator)
        return None

    def _combine(self, other: "CycloNum", sign: int) -> "CycloNum":
        """self + sign * other over the product of the denominators."""
        da, db = self._den, other._den
        num = [a * db + sign * b * da for a, b in zip(self._num, other._num)]
        return _new(self.order, num, da * db)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, [-c for c in self._num], self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum_of_products([(1, self, other)])

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse, by a fraction-free extended Euclidean algorithm
        against Phi_n: each remainder r = s * a mod Phi_n is an integer polynomial
        freed of its content, the last is a constant c, and 1 / (a / d) = d * s / c."""
        r0, s0, r1, s1 = list(cyclotomic_polynomial(self.order)), [], list(self._num), [1]
        while r1 and not r1[-1]:
            r1.pop()
        if not r1:
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        while len(r1) > 1:
            while len(r0) >= len(r1):  # cancel the leading term of r0
                k, l0, l1 = len(r0) - len(r1), r0[-1], r1[-1]
                r0 = [l1 * c for c in r0]
                s0 = [l1 * c for c in s0] + [0] * (len(s1) + k - len(s0))
                for i, c in enumerate(r1, k):
                    r0[i] -= l0 * c
                for i, c in enumerate(s1, k):
                    s0[i] -= l0 * c
                while not r0[-1]:
                    r0.pop()
            g = gcd(*r0, *s0)
            r0, s0, r1, s1 = r1, s1, [c // g for c in r0], [c // g for c in s0]
        d = self._den if r1[0] > 0 else -self._den
        return _new(self.order, [d * c for c in _fold(self.order, s1)], abs(r1[0]))

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
        return _new(n, _substitute(n, self._num, n - 1), self._den)

    def is_real(self) -> bool:
        return self.conjugate() == self

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def lift(self, new_order: int) -> "CycloNum":
        """The same field element in Q(zeta_new) via zeta_old = zeta_new^(new/old)."""
        check_order(new_order, "new order")
        if new_order % self.order != 0:
            raise ValueError(f"new order {new_order} is not a multiple of {self.order}")
        step = new_order // self.order
        return _new(new_order, _substitute(new_order, self._num, step), self._den)

    def as_root_of_unity(self) -> int | None:
        """The exponent k with self == zeta_n^k, or None if self is no such power."""
        return _roots(self.order).get(self._num) if self._den == 1 else None

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return (self.order, self._num, self._den) == (other.order, other._num, other._den)

    def __hash__(self):
        return hash((self.order, self._num, self._den))

    def __bool__(self):
        return any(self._num)

    def __str__(self):
        return format_cyclo(self)

    def __repr__(self):
        return f"CycloNum({self.order}, {format_cyclo(self)!r})"


# _new fills the slots through their descriptors, past CycloNum.__setattr__.
_set_order, _set_num, _set_den = (
    CycloNum.__dict__[slot].__set__ for slot in CycloNum.__slots__
)


# -- textual grammar ---------------------------------------------------------

# One signed term. Every part is optional, so parse_cyclo rejects a match with
# neither a number nor ``z``, and an unsigned match after the first term.
_TERM = re.compile(
    r"\s*(?P<sign>[-+]?)\s*(?:(?P<num>\d+(?:/\d+)?)\s*\*?)?"
    r"\s*(?:(?P<z>z)(?:\s*\^\s*(?P<exp>\d+))?)?\s*"
)


def check_order(value, name: str = "order") -> int:
    """``value`` itself if it is an int (not a bool) in 1..MAX_ORDER; else ValueError."""
    if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= MAX_ORDER:
        raise ValueError(
            f"{name} must be an integer from 1 to {MAX_ORDER}, got {value!r}"
        )
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
    if not text:
        raise ValueError("empty cyclotomic literal")
    raw: list[Rational] = [0] * order
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
        raw[exponent] += coeff
        pos = m.end()
    return CycloNum(order, raw)


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
    text = ""
    for k, c in reversed(list(enumerate(x.coeffs))):
        if c:
            power = "" if k == 0 else "z" if k == 1 else f"z^{k}"
            mag = str(abs(c)) if abs(c) != 1 or not power else ""
            text += (" - " if text else "-") if c < 0 else (" + " if text else "")
            text += "*".join(part for part in (mag, power) if part)
    return text or "0"
