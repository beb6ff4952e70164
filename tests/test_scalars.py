"""Field axioms and serialization for the exact scalar type.

sympy's symbolic arithmetic over Q(i, sqrt2) serves as the independent
oracle for the randomized algebra checks.
"""
import random
from fractions import Fraction

import pytest
import sympy

from dunkldirac.scalars import (ExactScalar, IUNIT, ONE, SQRT2, ZERO,
                                as_fraction, format_fraction, rat,
                                sqrt_in_real_subfield)


def to_sympy(x: ExactScalar):
    a, b, c, d = x.a, x.b, x.c, x.d
    return (sympy.Rational(a.numerator, a.denominator)
            + sympy.Rational(b.numerator, b.denominator) * sympy.sqrt(2)
            + sympy.I * (sympy.Rational(c.numerator, c.denominator)
                         + sympy.Rational(d.numerator, d.denominator)
                         * sympy.sqrt(2)))


def eq_sympy(x: ExactScalar, expr) -> bool:
    return sympy.simplify(to_sympy(x) - expr) == 0


def random_scalar(rng, zero_ok=True) -> ExactScalar:
    while True:
        comps = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(4)]
        x = ExactScalar(*comps)
        if zero_ok or not x.is_zero():
            return x


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == rat(2)


def test_inverse_of_one_plus_sqrt2():
    x = ONE + SQRT2
    inv = x.inverse()
    # expansion oracle: (1 + sqrt2)(-1 + sqrt2) = 1
    assert x * ExactScalar(-1, 1) == ONE
    assert inv == ExactScalar(-1, 1)


def test_conjugation_on_i_sqrt2():
    x = IUNIT * SQRT2
    assert x.conjugate() == ExactScalar(0, 0, 0, -1)
    assert x.conjugate() == -x


def test_surd_conjugation_is_field_automorphism():
    rng = random.Random(7)
    for _ in range(200):
        x, y = random_scalar(rng), random_scalar(rng)
        assert (x * y).surd_conjugate() == x.surd_conjugate() * y.surd_conjugate()
        assert (x + y).surd_conjugate() == x.surd_conjugate() + y.surd_conjugate()
        assert x.surd_conjugate().surd_conjugate() == x


def test_field_axioms_randomized():
    # 10^4 random nonzero elements: x * x^-1 == 1, plus ring identities
    rng = random.Random(20220214)
    for _ in range(10_000):
        x = random_scalar(rng, zero_ok=False)
        assert x * x.inverse() == ONE
    for _ in range(300):
        x, y, z = (random_scalar(rng) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x + (-x) == ZERO


def test_arithmetic_matches_sympy_oracle():
    # division through sympy radsimp is slow; 12 draws keep this under 10s
    rng = random.Random(99)
    for _ in range(12):
        x, y = random_scalar(rng), random_scalar(rng)
        assert eq_sympy(x + y, to_sympy(x) + to_sympy(y))
        assert eq_sympy(x * y, to_sympy(x) * to_sympy(y))
        assert eq_sympy(x.conjugate(), sympy.conjugate(to_sympy(x)))
        if not y.is_zero():
            assert eq_sympy(x / y, to_sympy(x) / to_sympy(y))


def test_to_complex_within_ulps():
    import math
    assert ExactScalar(Fraction(1, 2)).to_complex() == 0.5
    assert SQRT2.to_complex() == math.sqrt(2)
    assert IUNIT.to_complex() == 1j
    x = ExactScalar(Fraction(1, 3), Fraction(-2, 7), 1, Fraction(5, 11))
    approx = x.to_complex()
    exact = complex(1 / 3 - 2 / 7 * math.sqrt(2), 1 + 5 / 11 * math.sqrt(2))
    assert abs(approx - exact) <= 4e-16 * max(1.0, abs(exact))


def test_to_complex_past_float_range():
    import math
    huge = 10 ** 331
    # components or denominators past float range, values inside it
    assert ExactScalar(Fraction(huge + 1, huge)).to_complex() == 1.0
    assert ExactScalar(0, 0, Fraction(1, 10 ** 400)).to_complex() == 0j
    x = ExactScalar(Fraction(-(2 ** 1100) - 1, 2 ** 1100),
                    Fraction(10 ** 400 + 7, 10 ** 398))
    assert x.to_complex() == complex(-1.0 + 100 * math.sqrt(2))
    # at most one rounding each of p / den and q / den, then two float steps
    y = ExactScalar(0, 0, Fraction(huge // 3, huge),
                    Fraction(huge, 7 * huge + 1))
    z = y.to_complex()
    assert z.real == 0.0
    assert abs(z.imag - (1 / 3 + math.sqrt(2) / 7)) <= 4e-16
    # below 2^53 the float formula is kept bit for bit; for these
    # components p / den + q / den * sqrt2 would round differently
    p, q, den = -2154112740058294, 4036189520298237, 4226470459498410
    w = ExactScalar(Fraction(p, den), Fraction(q, den))
    assert (w._p, w._q, w._den) == (p, q, den)
    assert w.to_complex() == complex((p + q * 1.4142135623730951) / den)
    assert w.to_complex() != complex(p / den + q / den * 1.4142135623730951)
    # values past float range raise
    for big in (ExactScalar(10 ** 400), ExactScalar(0, 0, 0, -2 ** 1030),
                ExactScalar(Fraction(10 ** 700, 10 ** 300))):
        with pytest.raises(OverflowError, match="past float range"):
            big.to_complex()


def test_rational_string_rules():
    assert format_fraction(Fraction(3, 4)) == "3/4"
    assert format_fraction(Fraction(5)) == "5"
    assert as_fraction("-7/2") == Fraction(-7, 2)
    with pytest.raises(ValueError):
        as_fraction("1/0")
    with pytest.raises(ValueError):
        as_fraction("x")


def test_sign_real():
    assert (SQRT2 - 1).sign_real() == 1
    assert (rat(Fraction(3, 2)) - SQRT2).sign_real() == 1
    assert (SQRT2 - rat(Fraction(3, 2))).sign_real() == -1
    assert (rat(-2) + SQRT2).sign_real() == -1
    assert ZERO.sign_real() == 0
    with pytest.raises(ValueError):
        IUNIT.sign_real()


def test_sqrt_in_real_subfield():
    assert sqrt_in_real_subfield(rat(4)) == rat(2)
    assert sqrt_in_real_subfield(rat(2)) == SQRT2
    assert sqrt_in_real_subfield(rat(8)) == 2 * SQRT2
    assert sqrt_in_real_subfield(rat(Fraction(9, 4))) == rat(Fraction(3, 2))
    assert sqrt_in_real_subfield(rat(3)) is None
    # (1 + sqrt2)^2 = 3 + 2 sqrt2
    assert sqrt_in_real_subfield(ExactScalar(3, 2)) == ONE + SQRT2
    assert sqrt_in_real_subfield(rat(-1)) is None


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        ExactScalar("1/0")

