"""Exact cyclotomic arithmetic: worked examples and field laws.

Derived expectations are cross-checked against the floating-point
embedding, which is independent of the reduction path.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from unittest.mock import patch

import pytest
import sympy
from genutil import approx, cyclo_text
from hypothesis import example, given, settings, strategies as st

from zarpair import cyclotomic
from zarpair.cyclotomic import (
    CycloNum,
    _powers,
    _residue_map,
    cyclotomic_polynomial,
    det2,
    dot,
    euler_phi,
    format_cyclo,
    parse_cyclo,
)

Z3 = CycloNum.zeta(3)


def close(x: CycloNum, value: complex, tol: float = 1e-9) -> bool:
    return abs(approx(x) - value) < tol


class TestConstruction:
    def test_zeta_cubed_is_one(self):
        assert CycloNum(3, [0, 0, 0, 1]) == CycloNum.one(3)
        assert parse_cyclo(3, "z^3") == CycloNum.one(3)

    def test_minimal_polynomial_vanishes(self):
        assert parse_cyclo(3, "z^2 + z + 1").is_zero()

    def test_exponents_add_mod_order(self):
        assert Z3 * Z3**2 == CycloNum.one(3)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            CycloNum(0, [1])
        with pytest.raises(ValueError):
            CycloNum(-3, [1])
        with pytest.raises(ValueError):
            parse_cyclo(0, "z^5")

    def test_coeff_length_is_phi(self):
        assert len(CycloNum.zeta(12).coeffs) == euler_phi(12) == 4
        assert len(CycloNum.one(1).coeffs) == 1

    def test_cyclotomic_polynomials(self):
        assert [int(c) for c in cyclotomic_polynomial(1)] == [-1, 1]
        assert [int(c) for c in cyclotomic_polynomial(2)] == [1, 1]
        assert [int(c) for c in cyclotomic_polynomial(3)] == [1, 1, 1]
        assert [int(c) for c in cyclotomic_polynomial(6)] == [1, -1, 1]
        assert [int(c) for c in cyclotomic_polynomial(12)] == [1, 0, -1, 0, 1]


class TestArithmetic:
    def test_add_primitive_roots(self):
        assert Z3 + Z3**2 == CycloNum.from_rational(3, -1)

    def test_inverse_of_zeta(self):
        assert Z3.inverse() == Z3**2
        assert Z3.inverse() * Z3 == CycloNum.one(3)

    def test_product_one_plus_zeta_times_minus_zeta(self):
        # oracle: numeric embedding of (1 + zeta) * (-zeta)
        product = (1 + Z3) * (-Z3)
        assert close(product, (1 + approx(Z3)) * (-approx(Z3)))
        assert product == CycloNum.one(3)

    def test_inverse_of_zero_fails(self):
        with pytest.raises(ZeroDivisionError):
            CycloNum.zero(3).inverse()

    def test_order_mismatch_fails(self):
        with pytest.raises(ValueError, match="order mismatch"):
            Z3 + CycloNum.zeta(4)

    def test_rational_coercion(self):
        assert Z3 * 2 - Fraction(1, 2) == CycloNum(3, [Fraction(-1, 2), 2])


class TestConjugation:
    def test_conjugate_of_zeta(self):
        assert Z3.conjugate() == Z3**2

    def test_rationals_fixed(self):
        assert CycloNum.from_rational(3, -1).conjugate() == -1

    def test_involution(self):
        x = 1 + 2 * Z3
        assert x.conjugate().conjugate() == x

    def test_is_real(self):
        assert not Z3.is_real()
        assert CycloNum.one(3).is_real()
        assert (Z3 + Z3**2).is_real()


class TestLift:
    def test_minus_one_to_order_six(self):
        assert CycloNum.from_rational(2, -1).lift(6) == CycloNum.zeta(6, 3)

    def test_identity_lift(self):
        assert Z3.lift(3) == Z3

    def test_zeta3_to_order_six(self):
        lifted = Z3.lift(6)
        assert lifted == CycloNum.zeta(6, 2)
        # oracle: zeta_6^2 satisfies x^2 + x + 1 = 0 in Q(zeta_6)
        assert (lifted * lifted + lifted + 1).is_zero()

    def test_non_multiple_fails(self):
        with pytest.raises(ValueError):
            Z3.lift(4)


class TestRootOfUnity:
    def test_powers(self):
        assert (Z3**2).as_root_of_unity() == 2
        assert CycloNum.one(3).as_root_of_unity() == 0

    def test_one_plus_zeta_is_no_power(self):
        x = 1 + Z3
        # oracle: compare against all three powers directly
        for k in range(3):
            assert x != Z3**k
        assert x.as_root_of_unity() is None


class TestRootTable:
    def test_every_power_is_recognised(self):
        for n in range(1, 61):
            for k in range(n):
                assert CycloNum.zeta(n, k).as_root_of_unity() == k
            # |1 + zeta_n| = 2 cos(pi / n) is 1 only at n = 3, where it is -zeta^2
            assert (1 + CycloNum.zeta(n)).as_root_of_unity() is None
            assert (CycloNum.zeta(n) / 2).as_root_of_unity() is None

    def test_order_840_is_one_lookup(self):
        # the order-linear scan took about 11 s for these two calls
        start = time.perf_counter()
        assert format_cyclo(parse_cyclo(840, "z + 1")) == "z + 1"
        assert parse_cyclo(840, "z^839").as_root_of_unity() == 839
        assert time.perf_counter() - start < 5


class TestGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1", CycloNum.one(3)),
            ("-z", -Z3),
            ("z^2", Z3**2),
            ("1/2*z - 3", CycloNum(3, [Fraction(-3), Fraction(1, 2)])),
            ("  z ^ 2+ z +1 ", CycloNum.zero(3)),
            ("2z", 2 * Z3),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_cyclo(3, text) == expected

    @pytest.mark.parametrize(
        "bad", ["", "z^", "* z", "1 + + 2", "w", "z 2", "1 2", "1/0", "z + 3/0*z^2"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_cyclo(3, bad)

    def test_huge_exponent_reduced_mod_order(self):
        # exponents far beyond any list that fits in memory
        for exponent in (10**30 - 1, 10**30):
            x = parse_cyclo(3, f"z^{exponent}")
            assert x == CycloNum.zeta(3, exponent % 3)
            assert parse_cyclo(3, format_cyclo(x)) == x

    def test_power_form_preferred(self):
        assert format_cyclo(Z3**2) == "z^2"
        assert format_cyclo(Z3) == "z"
        assert format_cyclo(CycloNum.zero(3)) == "0"


# -- randomized laws ----------------------------------------------------------

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])


@st.composite
def cyclo_numbers(draw, order=None):
    n = order if order is not None else draw(orders)
    coeffs = draw(
        st.lists(small_fractions, min_size=euler_phi(n), max_size=euler_phi(n))
    )
    return CycloNum(n, coeffs)


@given(orders.flatmap(lambda n: st.tuples(
    cyclo_numbers(order=n), cyclo_numbers(order=n), cyclo_numbers(order=n)
)))
def test_field_laws(triple):
    x, y, z = triple
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inverse() == CycloNum.one(x.order)


@given(orders.flatmap(lambda n: st.tuples(
    cyclo_numbers(order=n), cyclo_numbers(order=n)
)))
def test_conjugation_is_field_automorphism(pair):
    x, y = pair
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert x.conjugate().conjugate() == x


@given(cyclo_numbers())
def test_is_real_iff_fixed_by_conjugation(x):
    assert x.is_real() == (x.conjugate() == x)


@given(cyclo_numbers(order=3))
def test_order_three_reals_are_exactly_the_rationals(x):
    assert x.is_real() == x.is_rational()


@given(st.tuples(cyclo_numbers(order=3), cyclo_numbers(order=3)),
       st.sampled_from([6, 9, 12]))
def test_lift_is_injective_ring_morphism(pair, target):
    x, y = pair
    assert x.lift(target) * y.lift(target) == (x * y).lift(target)
    assert x.lift(target) + y.lift(target) == (x + y).lift(target)
    if x != y:
        assert x.lift(target) != y.lift(target)


@given(cyclo_numbers())
def test_format_parse_round_trip(x):
    assert parse_cyclo(x.order, format_cyclo(x)) == x


@given(cyclo_numbers())
def test_numeric_embedding_tracks_conjugation(x):
    assert abs(approx(x.conjugate()) - approx(x).conjugate()) < 1e-9


# -- the grammar against an arithmetic oracle ---------------------------------

gaps = st.text(alphabet=" \t", max_size=2)


@st.composite
def literals(draw, order):
    """A literal built term by term, with its value summed independently of
    the parser: sign * coefficient * zeta^e per term."""
    text, value = draw(gaps), CycloNum.zero(order)
    for i in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["+", "-"] if i else ["", "+", "-"]))
        tokens, coeff, exponent = [sign], Fraction(1), 0
        has_num, has_z = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
        if has_num:
            p = draw(st.integers(0, 10**6))
            q = draw(st.none() | st.integers(1, 10**6))
            tokens.append(str(p) if q is None else f"{p}/{q}")
            coeff = Fraction(p, q or 1)
            if draw(st.booleans()):
                tokens.append("*")
        if has_z:
            tokens.append("z")
            exponent = draw(st.none() | st.integers(0, 10**6))
            if exponent is None:
                exponent = 1
            else:
                tokens += ["^", str(exponent)]
        text += "".join(token + draw(gaps) for token in tokens if token)
        value += (-coeff if sign == "-" else coeff) * CycloNum.zeta(order, exponent)
    return text, value


@given(orders.flatmap(literals))
def test_parse_matches_term_by_term_sum(case):
    text, expected = case
    assert parse_cyclo(expected.order, text) == expected


@given(cyclo_text, orders)
@example("1/0", 3)
def test_parse_returns_or_raises_value_error(text, order):
    try:
        x = parse_cyclo(order, text)
    except ValueError:
        return
    assert isinstance(x, CycloNum) and x.order == order


# -- sympy as an independent oracle -------------------------------------------

X = sympy.Symbol("x")


def to_sympy(x: CycloNum):
    return sum(sympy.Rational(c.numerator, c.denominator) * X**k for k, c in enumerate(x.coeffs))


def from_sympy(order: int, expr) -> CycloNum:
    coeffs = sympy.Poly(expr, X).all_coeffs()[::-1]
    return CycloNum(order, [Fraction(int(c.p), int(c.q)) for c in coeffs])


def test_cyclotomic_polynomials_match_sympy():
    for n in range(1, 121):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in expected)


@settings(deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    cyclo_numbers(order=n), cyclo_numbers(order=n)
)))
def test_product_and_inverse_match_sympy(pair):
    x, y = pair
    phi_n = sympy.cyclotomic_poly(x.order, X)
    assert x * y == from_sympy(x.order, sympy.rem(to_sympy(x) * to_sympy(y), phi_n, X))
    if not x.is_zero():
        assert x.inverse() == from_sympy(x.order, sympy.invert(to_sympy(x), phi_n, X))


# -- the accumulation kernel: dot, det2 and * ----------------------------------


@st.composite
def kernel_operands(draw, count):
    """``count`` elements of one order in 1..30: zeros, rationals and full
    elements whose coefficients have mixed denominators."""
    n = draw(st.integers(1, 30))
    zero = st.just(CycloNum.zero(n))
    rational = small_fractions.map(lambda c: CycloNum.from_rational(n, c))
    return [draw(zero | rational | cyclo_numbers(order=n)) for _ in range(count)]


def sympy_value(order: int, expr) -> CycloNum:
    return from_sympy(order, sympy.rem(sympy.expand(expr), sympy.cyclotomic_poly(order, X), X))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: kernel_operands(2 * k)))
def test_dot_matches_operators_and_sympy(operands):
    k = len(operands) // 2
    xs, ys = operands[:k], operands[k:]
    expected = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        expected = expected + x * y
    assert dot(xs, ys) == expected
    assert repr(dot(xs, ys)) == repr(expected)
    n = xs[0].order
    assert dot(xs, ys) == sympy_value(n, sum(to_sympy(x) * to_sympy(y) for x, y in zip(xs, ys)))


@settings(max_examples=50, deadline=None)
@given(kernel_operands(4))
def test_det2_and_product_match_operators_and_sympy(operands):
    a, b, c, d = operands
    n = a.order
    assert det2(a, b, c, d) == a * d - b * c
    assert str(det2(a, b, c, d)) == str(a * d - b * c)
    assert det2(a, b, c, d) == sympy_value(n, to_sympy(a) * to_sympy(d) - to_sympy(b) * to_sympy(c))
    assert det2(a, b, c, d) == -det2(b, a, d, c)
    assert a * b == sympy_value(n, to_sympy(a) * to_sympy(b))
    assert a * b == dot([a], [b])


def test_kernel_on_mixed_denominators():
    # 1/2 * z * 1/3 + 1/4 * 1/5: the common denominator is lcm(6, 20) = 60
    z = CycloNum.zeta(3)
    half_z, third = z * Fraction(1, 2), CycloNum.from_rational(3, Fraction(1, 3))
    quarter, fifth = (CycloNum.from_rational(3, Fraction(1, q)) for q in (4, 5))
    assert dot([half_z, quarter], [third, fifth]).coeffs == (Fraction(1, 20), Fraction(1, 6))
    assert det2(half_z, quarter, fifth, third).coeffs == (Fraction(-1, 20), Fraction(1, 6))


def test_kernel_order_mismatch_raises():
    z3, z6 = CycloNum.zeta(3), CycloNum.zeta(6)
    for call in (
        lambda: dot([z3, z3], [z3, z6]),
        lambda: dot([z6], [z3]),
        lambda: det2(z3, z3, z3, z6),
        lambda: det2(z6, z3, z3, z3),
        lambda: z3 * z6,
    ):
        with pytest.raises(ValueError, match="order mismatch"):
            call()


# -- the kernel against its earlier form ---------------------------------------


def reference_fold(n, raw):
    """The earlier _fold, kept verbatim as a reference."""
    rows = _powers(n)
    phi = len(rows[0])
    out = list(raw[:phi]) + [0] * (phi - len(raw))
    for k in range(phi, len(raw)):
        if raw[k]:
            out = [a + raw[k] * b for a, b in zip(out, rows[k % n])]
    return tuple(out)


def reference_new(order, num, den):
    """The earlier _new, kept verbatim as a reference."""
    g = gcd(den, *num) if den != 1 else 1
    x = object.__new__(CycloNum)
    object.__setattr__(x, "order", order)
    object.__setattr__(x, "_num", tuple(num) if g == 1 else tuple([c // g for c in num]))
    object.__setattr__(x, "_den", den // g)
    return x


def reference_sum_of_products(terms):
    """The earlier _sum_of_products, kept verbatim as a reference."""
    first = terms[0][1]
    order, den = first.order, 1
    for _, x, y in terms:
        if x.order != order or y.order != order:
            other = y.order if x.order == order else x.order
            raise ValueError(f"order mismatch: {order} vs {other}; lift first")
        den = lcm(den, x._den * y._den)
    raw = [0] * (2 * len(first._num) - 1)
    for sign, x, y in terms:
        scale = sign * den // (x._den * y._den)
        ys = y._num
        for i, c in enumerate(x._num):
            if c:
                c *= scale
                for j, d in enumerate(ys, i):
                    raw[j] += c * d
    return reference_new(order, reference_fold(order, raw), den)


@contextmanager
def reference_kernel():
    """Run the block on the reference kernel: every product, dot, det2,
    inverse and construction goes through it."""
    with patch.multiple(
        cyclotomic,
        _fold=reference_fold,
        _new=reference_new,
        _sum_of_products=reference_sum_of_products,
    ):
        yield


def canonical(x):
    return (x.order, x._num, x._den)


@st.composite
def parity_operands(draw):
    """An order in {1, 2, 3, 4, 5, 7, 12}, eight elements of it (zeros,
    negative and non-unit-denominator coefficients, integer ones) and an
    unreduced integer coefficient list up to twice the order long."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 12]))
    phi = euler_phi(n)
    integral = st.lists(st.integers(-3, 3), min_size=phi, max_size=phi).map(
        lambda c: CycloNum(n, c)
    )
    element = st.just(CycloNum.zero(n)) | integral | cyclo_numbers(order=n)
    raw = draw(st.lists(st.integers(-3, 3), max_size=2 * n))
    return n, [draw(element) for _ in range(8)], raw


@settings(max_examples=60, deadline=None)
@given(parity_operands(), st.integers(1, 4))
def test_kernel_matches_its_reference(operands, k):
    """dot on 1-4 terms, det2, *, inverse, construction and conjugation
    give the reference kernel's canonical form."""
    n, xs, raw = operands
    a, b, c, d = xs[:4]

    def results():
        out = [dot(xs[:k], xs[4:4 + k]), det2(a, b, c, d), a * b, CycloNum(n, raw)]
        out += [a.conjugate(), b.lift(2 * n)]
        out += [x.inverse() for x in (a, d) if not x.is_zero()]
        return [canonical(x) for x in out]

    with reference_kernel():
        expected = results()
    assert results() == expected


def test_kernel_matches_its_reference_on_mixed_orders():
    z3, z4 = CycloNum.zeta(3), CycloNum(4, [1, Fraction(-1, 2)])
    for call in (
        lambda: dot([z3, z3], [z3, z4]),
        lambda: dot([z4], [z3]),
        lambda: det2(z3, z3, z3, z4),
        lambda: det2(z4, z3, z3, z3),
        lambda: z3 * z4,
    ):
        with pytest.raises(ValueError) as live:
            call()
        with reference_kernel(), pytest.raises(ValueError) as reference:
            call()
        assert str(live.value) == str(reference.value)


def test_kernel_matches_sympy_at_larger_orders():
    """A few products and dots at orders 5, 7 and 12 against sympy."""
    for n in (5, 7, 12):
        x = CycloNum(n, [Fraction(1, 2), -3, 0, Fraction(-2, 3)])
        y = CycloNum(n, [0, Fraction(5, 4), 0, 1])
        z = CycloNum(n, [-1] * euler_phi(n))
        assert x * y == sympy_value(n, to_sympy(x) * to_sympy(y))
        assert dot([x, y, z], [z, x, y]) == sympy_value(
            n, to_sympy(x) * to_sympy(z) + to_sympy(y) * to_sympy(x) + to_sympy(z) * to_sympy(y)
        )
        assert det2(x, y, z, x) == sympy_value(
            n, to_sympy(x) ** 2 - to_sympy(y) * to_sympy(z)
        )


def test_dot_needs_non_empty_sequences_of_one_length():
    z = CycloNum.zeta(3)
    with pytest.raises(ValueError):
        dot([], [])
    with pytest.raises(ValueError):
        dot([z, z], [z])


@settings(max_examples=60, deadline=None)
@given(kernel_operands(2), st.integers(0, 2))
def test_residue_map_is_a_ring_homomorphism(operands, index):
    """zeta -> r sends sums, products and inverses to their images in F_p,
    at the first primes p = 1 (mod n) above 2^20."""
    x, y = operands
    n = x.order
    res = _residue_map(n, index)
    p = res.p
    assert p > 1 << 20 and (p - 1) % n == 0 and sympy.isprime(p)
    if index:
        assert p > _residue_map(n, index - 1).p
    rx, ry = res(x), res(y)
    if rx is None or ry is None:
        return  # p divides a denominator: no image
    assert res(x + y) == (rx + ry) % p
    assert res(x * y) == rx * ry % p
    assert res(dot([x, y], [y, x])) == 2 * rx * ry % p
    assert res(CycloNum.zeta(n)) ** n % p == 1
    if not x.is_zero() and rx:
        assert res(x.inverse()) * rx % p == 1


def test_residue_map_has_no_image_for_denominators_divisible_by_p():
    p = _residue_map(3, 0).p
    assert _residue_map(3, 0)(CycloNum(3, [1, Fraction(1, p)])) is None
    assert _residue_map(3, 1)(CycloNum(3, [1, Fraction(1, p)])) is not None
    assert _residue_map(3, 0).vector([CycloNum.one(3), CycloNum(3, [Fraction(2, p)])]) is None


def test_residue_root_is_primitive():
    """r is a primitive n-th root of unity mod p, so zeta_n^k for
    0 <= k < n map to n distinct residues."""
    for n in (1, 2, 3, 4, 12, 60, 839, 840):
        res = _residue_map(n, 0)
        images = {res(CycloNum.zeta(n, k)) for k in range(n)}
        assert len(images) == n
