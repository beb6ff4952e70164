"""Exact scalars: the field Q(i, sqrt2).

ExactScalar is the coefficient type of every algebra in the package, and
the entry type that matrices are built from and read back as.
The field is the smallest extension of Q containing i and sqrt(2); that is
enough for the normalized reflection lifts (which divide by |alpha|) and
for the spinor matrices of every built-in root system.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, inf

SQRT2_FLOAT = 1.4142135623730951
# integers below 2^FLOAT_BITS convert to float, and p + q * SQRT2_FLOAT
# for two of them stays below 2^1024, the top of the float range
FLOAT_BITS = 1022


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to Fraction.

    Raises ValueError on malformed input, including zero denominators.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {x!r}") from exc
    raise ValueError(f"not a rational: {x!r}")


def _surd_float(p: int, q: int, den: int) -> float:
    """(p + q sqrt2) / den as a float: on floats while p, q and den are in
    float range, else from the quotients p / den and q / den of Python
    ints, each rounded once.  Raises OverflowError when the value itself
    is past float range."""
    if max(abs(p), abs(q), den).bit_length() <= FLOAT_BITS:
        return (p + q * SQRT2_FLOAT) / den
    try:
        x = p / den + q / den * SQRT2_FLOAT
    except OverflowError:
        x = inf
    if abs(x) == inf:
        top = max(abs(p), abs(q)).bit_length() - den.bit_length()
        raise OverflowError(f"a value near 2^{top} is past float range")
    return x


def format_fraction(x: Fraction) -> str:
    """Render p/q, omitting the denominator when it is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _gcd5(a: int, b: int, c: int, d: int, e: int) -> int:
    return gcd(gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d))), e)


class ExactScalar:
    """(a + b*sqrt2) + i*(c + d*sqrt2) with rational a, b, c, d.

    Stored as four integers over a common positive denominator, fully
    reduced, so equality and hashing are structural.
    """

    __slots__ = ("_p", "_q", "_r", "_s", "_den")

    def __init__(self, a=0, b=0, c=0, d=0):
        fa, fb, fc, fd = (as_fraction(a), as_fraction(b),
                          as_fraction(c), as_fraction(d))
        den = 1
        for f in (fa, fb, fc, fd):
            den = den * f.denominator // gcd(den, f.denominator)
        self._p = int(fa * den)
        self._q = int(fb * den)
        self._r = int(fc * den)
        self._s = int(fd * den)
        self._den = den
        self._reduce()

    def _reduce(self) -> None:
        if self._den < 0:
            self._p, self._q, self._r, self._s, self._den = (
                -self._p, -self._q, -self._r, -self._s, -self._den)
        g = _gcd5(self._p, self._q, self._r, self._s, self._den)
        if g > 1:
            self._p //= g
            self._q //= g
            self._r //= g
            self._s //= g
            self._den //= g

    @staticmethod
    def _raw(p: int, q: int, r: int, s: int, den: int) -> "ExactScalar":
        self = object.__new__(ExactScalar)
        self._p, self._q, self._r, self._s, self._den = p, q, r, s, den
        self._reduce()
        return self

    # -- component access (as Fractions, per the public contract) --

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._den)

    @property
    def c(self) -> Fraction:
        return Fraction(self._r, self._den)

    @property
    def d(self) -> Fraction:
        return Fraction(self._s, self._den)

    # -- predicates --

    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0 and self._r == 0 and self._s == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_real(self) -> bool:
        return self._r == 0 and self._s == 0

    def is_rational(self) -> bool:
        return self._q == 0 and self._r == 0 and self._s == 0

    # -- arithmetic --

    @staticmethod
    def _coerce(x):
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction)):
            f = as_fraction(x)
            return ExactScalar._raw(f.numerator, 0, 0, 0, f.denominator)
        return None

    def __add__(self, other):
        o = ExactScalar._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._den, o._den
        return ExactScalar._raw(
            self._p * d2 + o._p * d1,
            self._q * d2 + o._q * d1,
            self._r * d2 + o._r * d1,
            self._s * d2 + o._s * d1,
            d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar._raw(-self._p, -self._q, -self._r, -self._s,
                                self._den)

    def __sub__(self, other):
        o = ExactScalar._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = ExactScalar._coerce(other)
        if o is None:
            return NotImplemented
        p1, q1, r1, s1 = self._p, self._q, self._r, self._s
        p2, q2, r2, s2 = o._p, o._q, o._r, o._s
        if q1 == r1 == s1 == 0 and q2 == r2 == s2 == 0:
            return ExactScalar._raw(p1 * p2, 0, 0, 0, self._den * o._den)
        return ExactScalar._raw(
            p1 * p2 + 2 * q1 * q2 - r1 * r2 - 2 * s1 * s2,
            p1 * q2 + q1 * p2 - r1 * s2 - s1 * r2,
            p1 * r2 + r1 * p2 + 2 * (q1 * s2 + s1 * q2),
            p1 * s2 + s1 * p2 + q1 * r2 + r1 * q2,
            self._den * o._den)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        p, q, r, s, den = self._p, self._q, self._r, self._s, self._den
        # den^2 |x|^2 = E + F sqrt2, always nonzero for x != 0
        e = p * p + 2 * q * q + r * r + 2 * s * s
        f = 2 * (p * q + r * s)
        norm = e * e - 2 * f * f
        return ExactScalar._raw(
            den * (p * e - 2 * q * f),
            den * (q * e - p * f),
            -den * (r * e - 2 * s * f),
            -den * (s * e - r * f),
            norm)

    def __truediv__(self, other):
        o = ExactScalar._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def conjugate(self) -> "ExactScalar":
        """Complex conjugation: i -> -i."""
        return ExactScalar._raw(self._p, self._q, -self._r, -self._s,
                                self._den)

    def sign_real(self) -> int:
        """Exact sign of a real field element; raises if imaginary part != 0."""
        if self._r != 0 or self._s != 0:
            raise ValueError(f"sign of non-real scalar: {self}")
        p, q = self._p, self._q
        if p == 0 and q == 0:
            return 0
        if p >= 0 and q >= 0:
            return 1
        if p <= 0 and q <= 0:
            return -1
        # opposite signs: compare p^2 against 2 q^2
        t = p * p - 2 * q * q
        # t == 0 impossible (sqrt2 irrational)
        if p > 0:
            return 1 if t > 0 else -1
        return 1 if t < 0 else -1

    # -- structure --

    def __eq__(self, other):
        o = ExactScalar._coerce(other)
        if o is None:
            return NotImplemented
        return (self._p == o._p and self._q == o._q and self._r == o._r
                and self._s == o._s and self._den == o._den)

    def __hash__(self):
        return hash((self._p, self._q, self._r, self._s, self._den))

    # -- conversions --

    def to_complex(self) -> complex:
        den = self._den
        return complex(_surd_float(self._p, self._q, den),
                       _surd_float(self._r, self._s, den))

    def __str__(self):
        terms = []
        for coef, unit in ((self.a, ""), (self.b, "sqrt2"),
                           (self.c, "i"), (self.d, "i*sqrt2")):
            if coef == 0:
                continue
            if unit == "":
                body = format_fraction(coef)
            elif coef == 1:
                body = unit
            elif coef == -1:
                body = "-" + unit
            else:
                body = f"{format_fraction(coef)}*{unit}"
            terms.append(body)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def __repr__(self):
        return f"ExactScalar({self})"


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
SQRT2 = ExactScalar(0, 1)
IUNIT = ExactScalar(0, 0, 1)
HALF = ExactScalar(Fraction(1, 2))


def rat(x) -> ExactScalar:
    """Rational-valued ExactScalar from int, Fraction or 'p/q' string."""
    f = as_fraction(x)
    return ExactScalar._raw(f.numerator, 0, 0, 0, f.denominator)


def as_scalar(x) -> ExactScalar:
    """Pass an ExactScalar through; coerce an int, Fraction or 'p/q'
    string with rat()."""
    return x if isinstance(x, ExactScalar) else rat(x)


# -- sparse combinations: dicts basis key -> nonzero coefficient ---------------


def accumulate(acc: dict, key, val) -> None:
    """acc[key] += val, dropping the entry when it cancels."""
    cur = acc.get(key)
    new = val if cur is None else cur + val
    if new.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = new


def sparse_product(a: dict, b: dict, rule) -> dict:
    """Bilinear product of two sparse combinations, as a new dict.

    rule(i, j) returns (sign, k) with e_i e_j = sign * e_k for basis keys
    i, j, k and sign +-1, or sign 0 (k unused) when e_i e_j = 0.
    """
    out: dict = {}
    for i, vi in a.items():
        for j, vj in b.items():
            sign, k = rule(i, j)
            if not sign:
                continue
            v = vi * vj
            if sign < 0:
                v = -v
            # accumulate() inlined: this loop carries every Clifford
            # product of the cover scans
            cur = out.get(k)
            new = v if cur is None else cur + v
            if new.is_zero():
                out.pop(k, None)
            else:
                out[k] = new
    return out


class Combination:
    """An element of an exact algebra: a sparse combination of basis
    elements with a bilinear product.

    coeffs maps basis keys to nonzero ExactScalars.  A subclass supplies
    _ctx() (what two elements of one algebra share), _like(coeffs) (a
    sibling element from a dict that already has no zeros) and _rule, the
    sparse_product basis rule, callable as self._rule(i, j).  Combining
    elements of two different algebras raises ValueError.
    """

    __slots__ = ("coeffs",)

    def _coerce(self, other):
        """other as an element of this algebra."""
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with "
                            f"{type(other).__name__}")
        if other._ctx() != self._ctx():
            raise ValueError(f"{type(self).__name__}s of different algebras")
        return other

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in self._coerce(other).coeffs.items():
            accumulate(out, k, v)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def scale(self, s):
        s = as_scalar(s)
        if s.is_zero():
            return self._like({})
        return self._like({k: v * s for k, v in self.coeffs.items()})

    def __mul__(self, other):
        """The algebra product with an element; scale() with a scalar."""
        if not isinstance(other, Combination):
            return self.scale(other)
        return self._like(sparse_product(
            self.coeffs, self._coerce(other).coeffs, self._rule))

    __rmul__ = scale

    def commutator(self, other):
        return self * other - other * self

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.coeffs == other.coeffs


def sqrt_in_real_subfield(x: ExactScalar):
    """Exact square root of a nonnegative real field element, if it stays
    in Q(sqrt2).  Returns the nonnegative root or None.

    Solves (u + v sqrt2)^2 = a + b sqrt2 over Q.
    """
    if not x.is_real():
        raise ValueError("square root of non-real scalar")
    sgn = x.sign_real()
    if sgn < 0:
        return None
    if sgn == 0:
        return ZERO
    a, b = x.a, x.b
    # u^2 + 2 v^2 = a, 2 u v = b.  u^2 and 2v^2 are the roots of
    # z^2 - a z + b^2 / 2 = 0.
    disc = a * a - 2 * b * b
    sd = _fraction_sqrt(disc)
    if sd is None:
        return None
    for u2 in ((a + sd) / 2, (a - sd) / 2):
        su = _fraction_sqrt(u2)
        if su is None:
            continue
        if su == 0:
            if b != 0:
                continue
            v2 = a / 2
            sv = _fraction_sqrt(v2)
            if sv is None:
                continue
            cand = ExactScalar(0, sv)
        else:
            v = b / (2 * su)
            cand = ExactScalar(su, v)
        if cand * cand == x and cand.sign_real() >= 0:
            return cand
    return None


def _fraction_sqrt(f: Fraction):
    """Exact rational square root, or None."""
    if f < 0:
        return None
    num, den = f.numerator, f.denominator
    rn = _isqrt_exact(num)
    rd = _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n: int):
    from math import isqrt
    r = isqrt(n)
    return r if r * r == n else None
