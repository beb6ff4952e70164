"""Exact matrices over Q(i, sqrt2) and their elimination.

A matrix is one positive integer denominator `den` over a numpy integer
array `num` that holds only its live component planes: `comps` lists, in
increasing order, the components among 0..3 (1, sqrt2, i and i*sqrt2)
that are nonzero somewhere in the matrix, and num has shape
(len(comps), rows, cols), plane k holding component comps[k] of every
entry.  A component that is zero everywhere has no plane, so a real
matrix is one plane and the zero matrix none.  The form is canonical:
den > 0, no plane is all zero, the gcd of den and every entry of num is
1, and num is int64 exactly when every |entry| < 2^62, otherwise an
`object` array of Python ints.  So equality and hashing are structural
on (shape, den, comps, num).  Only this module reads the layout; other
modules reach a component through `Matrix.plane` or keep `comps` beside
the planes they pass back to `Matrix._make`.

A product is one integer matmul A_x @ B_y per live pair of components,
x of A and y of B, added times +-1 or +-2 (e_x e_y in the table of the
basis) into component x ^ y; a component no pair reaches gets no plane
and is never computed, and one that cancels is dropped by `_make`.  A
bit bound on the operands (see `_fits`) picks how they run.
When it proves every operand, partial sum and result an integer below
2^53, the planes run as float64 BLAS products cast back to int64:
float64 holds every such integer exactly, so no summation order rounds.
Otherwise, when the bound proves that no sum overflows int64, they run in
int64, and else on `object` arrays, slower but exact.  So no float ever
decides a value: floats that round appear only in `to_complex`, which
feeds reports and eigenvalue guesses.

Every linear combination is one `signed_sum` of (c, M) terms, c an int
or an ExactScalar, a scalar multiple (`Matrix.scale`) included: one lcm
denominator, one numerator over the components the terms reach,
accumulated in int64 or else on `object` arrays, and one
canonicalisation.  A sum of T >= 2 Kronecker products a_t (x) b_t is
one product (see `sum_of_krons`): the a_t read row-major as columns
against the b_t read row-major as rows, over their lcm denominators.
Entry ((i, k), (j, l)) of the sum is entry ((i, j), (k, l)) of the
product, so the sum is the product's entries permuted and keeps its
canonical form.

Many products of blocks of one shape are one `stacked_product`: the left
blocks one above the next times the right blocks side by side, block
(i, j) of the result being the (i, j) product, run in pieces of at most
`GEMM_MADDS` multiply-adds each.  `vanishing_sums` decides many signed
sums of blocks at once, one gather of their numerators over one lcm
denominator.  Matrices are joined by `stack`.  `_common` is the int64
proof of every linear combination, scalar multiples included, and of
every stack and gather, and `_fits` that of every product and Kronecker
product: each proves that int64 holds the result or else sends it to
`object` arrays.

Rank, kernel and the Sylvester positivity test all run through one
Gauss-Jordan elimination over the field, on the {column: ExactScalar}
rows of `Matrix.rows`.  No denominator is cleared: every ExactScalar
is kept reduced, and each entry of a partially reduced matrix is a
ratio of minors of the input (Edmonds 1967), so entry sizes stay
polynomial without fraction-free steps.
"""
from __future__ import annotations

from math import gcd, lcm

import numpy as np

from .scalars import (FLOAT_BITS, SQRT2_FLOAT, ExactScalar, ZERO, ONE,
                      accumulate, as_scalar)

# int64 arrays hold entries below 2^62 in absolute value, so the sum or
# difference of two of them still fits
_LIMIT = 1 << 62

# e_a * e_b = _COEF[a][a ^ b] * e_(a ^ b), for the basis e_0..e_3 = 1,
# sqrt2, i, i*sqrt2
_COEF = ((1, 1, 1, 1), (2, 1, 2, 1), (-1, -1, 1, 1), (-2, -1, 2, 1))
_ALL = (0, 1, 2, 3)


def _by_pairs(ca, cb, product, shape, den) -> "Matrix":
    """The canonical form of the sum over positions i of ca and j of cb
    of _COEF[x][x ^ y] * product(i, j) in component x ^ y, x = ca[i] and
    y = cb[j], over den; shape is the 2-d shape of each term.  Only the
    components some pair reaches get a plane.  product returns a fresh
    array, which the scaling and the accumulation may overwrite."""
    planes = {}
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            coef, term = _COEF[x][x ^ y], product(i, j)
            if coef != 1:
                term *= coef
            if x ^ y in planes:
                planes[x ^ y] += term
            else:
                planes[x ^ y] = term
    comps = tuple(sorted(planes))
    if not comps:
        return Matrix(*shape)
    num = (planes[comps[0]][None] if len(comps) == 1
           else np.stack([planes[c] for c in comps]))
    return Matrix._make(num, den, comps)


def _gemm(lhs: np.ndarray, rhs: np.ndarray, exact_float: bool):
    """lhs @ rhs, cast back to int64 when exact_float: the caller then
    passes float64 planes of integers under the 53-bit bound of `_fits`."""
    prod = lhs @ rhs
    return prod.astype(np.int64) if exact_float else prod


class Matrix:
    """Exact matrix num / den over Q(i, sqrt2); immutable.

    num holds one plane per live component, component comps[k] in plane
    k (see the module docstring); `plane(c)` reads component c whether
    live or not.  `bits` is the bit length of the largest |entry| of num.
    """

    __slots__ = ("nrows", "ncols", "den", "num", "bits", "comps")

    def __init__(self, nrows: int, ncols: int):
        """The zero matrix: no planes."""
        self._set(np.zeros((0, nrows, ncols), dtype=np.int64), 1, 0, ())

    def _set(self, num, den, bits, comps) -> None:
        num.flags.writeable = False
        self.nrows, self.ncols = num.shape[1], num.shape[2]
        self.num, self.den, self.bits, self.comps = num, den, bits, comps

    @staticmethod
    def _build(num, den, bits, comps) -> "Matrix":
        out = object.__new__(Matrix)
        out._set(num, den, bits, comps)
        return out

    @staticmethod
    def _make(num: np.ndarray, den: int, comps: tuple = _ALL) -> "Matrix":
        """The canonical form of num / den, for den > 0 and num holding
        the planes of comps in order: drop the planes that are all zero,
        divide out the gcd of den and the rest, then store int64 exactly
        when every entry fits."""
        if not comps:
            return Matrix(num.shape[1], num.shape[2])
        # the largest |entry| per plane, with no |num| copy
        peaks = np.maximum(num.max(axis=(1, 2), initial=0),
                           -num.min(axis=(1, 2), initial=0)).tolist()
        live = [k for k, p in enumerate(peaks) if p]
        if not live:
            return Matrix(num.shape[1], num.shape[2])
        if len(live) < len(comps):
            num, comps = num[live], tuple(comps[k] for k in live)
        g = den
        for plane in num:  # stop reducing once g is 1
            if g == 1:
                break
            g = gcd(g, int(np.gcd.reduce(plane, axis=None)))
        if g != 1:
            num, den = num // g, den // g
        peak = max(peaks) // g
        if num.dtype == object:
            if peak < _LIMIT:
                num = num.astype(np.int64)
        elif peak >= _LIMIT:
            num = num.astype(object)
        return Matrix._build(num, den, peak.bit_length(), comps)

    # -- construction --

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._make(np.eye(n, dtype=np.int64)[None], 1, (0,))

    @staticmethod
    def from_row_dicts(nrows: int, ncols: int, dicts) -> "Matrix":
        """Build from one {column: entry} dict per row; entries are
        coerced via as_scalar() and zeros are dropped."""
        dicts = list(dicts)
        if len(dicts) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(dicts)}")
        ii, jj, vals = [], [], []
        for i, row in enumerate(dicts):
            for j, v in row.items():
                if not 0 <= j < ncols:
                    raise ValueError(f"column {j} outside 0..{ncols - 1}")
                v = as_scalar(v)
                if not v.is_zero():
                    ii.append(i)
                    jj.append(j)
                    vals.append(v)
        den = lcm(*(v._den for v in vals))
        parts = [[x * (den // v._den) for x in (v._p, v._q, v._r, v._s)]
                 for v in vals]
        comps = tuple(c for c in _ALL if any(p[c] for p in parts))
        big = any(abs(x) >= _LIMIT for p in parts for x in p)
        num = np.zeros((len(comps), nrows, ncols),
                       dtype=object if big else np.int64)
        if vals:
            num[:, ii, jj] = np.array(parts, dtype=num.dtype).T[list(comps)]
        return Matrix._make(num, den, comps)

    @staticmethod
    def from_rows(data) -> "Matrix":
        """Build from a list of lists; entries coerced via as_scalar()."""
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        return Matrix.from_row_dicts(nrows, ncols,
                                     (dict(enumerate(row)) for row in data))

    # -- reading entries --

    def plane(self, c: int) -> np.ndarray:
        """The numerator of component c (0..3: 1, sqrt2, i, i*sqrt2) as a
        rows x cols array over den; a zero int64 array when c is not
        live.  Read-only."""
        if c in self.comps:
            return self.num[self.comps.index(c)]
        out = np.zeros(self.shape, dtype=np.int64)
        out.flags.writeable = False
        return out

    def _entries(self):
        """(row, col, [p, q, r, s]) of each nonzero entry, row-major; the
        entry is (p + q sqrt2 + i (r + s sqrt2)) / den."""
        ii, jj = np.nonzero(self.num.any(axis=0))
        vals = np.zeros((4, len(ii)), dtype=self.num.dtype)
        vals[list(self.comps)] = self.num[:, ii, jj]
        return zip(ii.tolist(), jj.tolist(), vals.T.tolist())

    @property
    def rows(self) -> list:
        """Fresh {column: ExactScalar} dicts of the nonzero entries."""
        out = [{} for _ in range(self.nrows)]
        den = self.den
        for i, j, v in self._entries():
            out[i][j] = ExactScalar._raw(*v, den)
        return out

    def _scalar(self, values) -> ExactScalar:
        """The scalar over den with the given values of the live
        components and zero elsewhere."""
        v = [0] * 4
        for c, x in zip(self.comps, values):
            v[c] = int(x)
        return ExactScalar._raw(*v, self.den)

    def get(self, i: int, j: int) -> ExactScalar:
        return self._scalar(self.num[:, i, j].tolist())

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return not self.comps

    # -- algebra --

    def __add__(self, other: "Matrix") -> "Matrix":
        return signed_sum(((1, self), (1, other)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return signed_sum(((1, self), (-1, other)))

    def __neg__(self) -> "Matrix":
        return Matrix._build(-self.num, self.den, self.bits, self.comps)

    def add_to_diagonal(self, s) -> "Matrix":
        """self + s * I, for a square matrix."""
        return signed_sum(((1, self),
                           (as_scalar(s), Matrix.identity(self.nrows))))

    def scale(self, s) -> "Matrix":
        """s * self, the one-term `signed_sum`."""
        return signed_sum(((as_scalar(s), self),))

    def _fits(self, other: "Matrix", k: int, limit: int = 62) -> bool:
        """True when every sum of k terms a * c * b, for entries a of self
        and b of other and c a coefficient of the multiplication table, over
        at most four components, stays below 2^(limit - 1) in absolute value.

        Proof: |a| < 2^bits(A), |b| < 2^bits(B), |c| <= 2 and k < 2^bitlen(k);
        one output entry is a sum of at most 4k such terms, so its partial
        sums are below 4k * 2 * 2^(bits(A) + bits(B)) < 2^(bits(A) + bits(B)
        + bitlen(k) + 3) <= 2^(limit - 1) when bits(A) + bits(B) + bitlen(k)
        + 4 <= limit.  An `object` array has bits >= 63 and never fits.
        A product sums the k terms a * b of each live pair of components,
        scales the sum by c and adds it into one output component: every
        value it forms is, up to c, a sum of a subset of the 4k terms.

        limit = 62 keeps int64 sums from overflowing.  limit = 53 makes the
        products exact in float64: each operand and each term a * b is an
        integer below 2^(bits(A) + bits(B)) <= 2^52, and each partial sum,
        in whatever order or grouping a BLAS kernel forms it, FMA included,
        is such a subset sum, so below 2^52 too.  Float64 represents every
        integer below 2^53 exactly, so no step rounds and the cast back to
        int64 is exact.
        """
        return self.bits + other.bits + k.bit_length() + 4 <= limit

    def _operands(self, other: "Matrix", k: int):
        a, b = self.num, other.num
        if not self._fits(other, k):
            a, b = a.astype(object), b.astype(object)
        return a, b

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if not self.comps or not other.comps:
            return Matrix(self.nrows, other.ncols)
        a, b = self._operands(other, self.ncols)
        exact_float = self._fits(other, self.ncols, 53)
        dtype = np.float64 if exact_float else a.dtype
        lhs = [p.astype(dtype, copy=False) for p in a]
        rhs = [p.astype(dtype, copy=False) for p in b]
        return _by_pairs(self.comps, other.comps,
                         lambda i, j: _gemm(lhs[i], rhs[j], exact_float),
                         (self.nrows, other.ncols), self.den * other.den)

    def kron(self, other: "Matrix") -> "Matrix":
        (r1, c1), (r2, c2) = self.shape, other.shape
        a, b = self._operands(other, 1)
        return _by_pairs(self.comps, other.comps,
                         lambda i, j: (a[i][:, None, :, None] * b[j][:, None])
                         .reshape(r1 * r2, c1 * c2),
                         (r1 * r2, c1 * c2), self.den * other.den)

    def dagger(self) -> "Matrix":
        """Conjugate transpose: the planes transposed, the i and i*sqrt2
        planes negated."""
        num = self.num.transpose(0, 2, 1)
        if self.comps and self.comps[-1] >= 2:
            num = num * np.array([1 - (c & 2) for c in self.comps]).reshape(
                -1, 1, 1)
        return Matrix._build(num, self.den, self.bits, self.comps)

    def trace(self):
        return self._scalar(
            self.num.diagonal(axis1=1, axis2=2).sum(axis=1).tolist())

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.shape == other.shape and self.den == other.den
                and self.comps == other.comps
                and np.array_equal(self.num, other.num))

    def is_scalar_multiple_of_identity(self):
        """Return the scalar if self == s*I, else None."""
        if self.nrows != self.ncols:
            return None
        s = self.get(0, 0) if self.nrows else ZERO
        return s if self == Matrix.identity(self.nrows).scale(s) else None

    # -- conversions --

    def to_dense(self):
        return [[row.get(j, ZERO) for j in range(self.ncols)]
                for row in self.rows]

    def to_complex(self):
        """Complex float array, each entry rounded as ExactScalar.to_complex
        rounds it: from its own reduced components and denominator, and
        through it when num or den is past float range."""
        if max(self.bits, self.den.bit_length()) > FLOAT_BITS:
            return np.array([x.to_complex() for row in self.to_dense()
                             for x in row], dtype=complex).reshape(self.shape)
        arr = np.zeros(self.shape, dtype=complex)
        if not self.comps:
            return arr
        num = self.num
        if self.den >= _LIMIT:
            num = num.astype(object)
        g = np.gcd(np.gcd.reduce(num, axis=0), self.den)
        d = (self.den // g).astype(float)
        planes = dict(zip(self.comps, (num // g).astype(float)))

        def part(lo, hi):
            # (p_lo + p_hi sqrt2) / d, a missing plane read as zero
            x, y = planes.get(lo), planes.get(hi)
            if y is not None:
                y = y * SQRT2_FLOAT
                x = y if x is None else x + y
            return 0.0 if x is None else x / d
        arr.real, arr.imag = part(0, 1), part(2, 3)
        return arr

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def _parts(coef) -> tuple:
    """(den, ((x, v), ...)): an int or ExactScalar coef over its
    denominator, as the numerator v of each nonzero component x."""
    if isinstance(coef, int):
        return 1, ((0, coef),)
    vals = (coef._p, coef._q, coef._r, coef._s)
    return coef._den, tuple((x, v) for x, v in enumerate(vals) if v)


def _common(terms, weight: int = 1) -> tuple:
    """(den, comps, peak, wide) to read the (c_j, M_j) terms, c_j an int or
    an ExactScalar, over one denominator in sums of weight: den the lcm of
    the d_j = den(c_j) den_j, comps the components the c_j M_j reach, peak
    = max_j(bits_j + bitlen(|c_j| den / d_j)) and wide = peak +
    bitlen(weight) > 62, where |c| = |p| + 2|q| + |r| + 2|s| for c = (p +
    q sqrt2 + i (r + s sqrt2)) / den(c).  Every linear combination, stack
    and gather of this module runs on `object` arrays when wide, else in
    int64.

    Proof: component z of c_j M_j over den sums, over the components x of
    c_j with numerator v_x, _COEF[x][z] v_x (den / d_j) times an entry of
    M_j, below 2^bits_j; |_COEF[x][z]| <= 2, and 2 only for odd x.  So
    every multiplier, term and partial sum of it is below |c_j| (den /
    d_j) 2^bits_j < 2^peak.  A sum of such terms whose integer
    coefficients add up to at most weight in absolute value, and each of
    its partial sums, is below 2^(peak + bitlen(weight)), at most 2^62
    unless wide.  For c_j = +-1 this is M_j's own bound.
    """
    parts = [(_parts(c), m) for c, m in terms]
    den = lcm(*(cden * m.den for (cden, _), m in parts))
    peak = max(m.bits + (sum(abs(v) << (x & 1) for x, v in cp)
                         * (den // (cden * m.den))).bit_length()
               for (cden, cp), m in parts)
    comps = tuple(sorted({x ^ y for (_, cp), m in parts for x, _ in cp
                          for y in m.comps}))
    return den, comps, peak, peak + weight.bit_length() > 62


def _planes(mat: Matrix, den: int, comps: tuple, wide: bool,
            coef=1) -> np.ndarray:
    """The numerator of coef * mat over den (see `_common`), component x of
    coef times plane y of mat adding into component x ^ y by _COEF, on one
    plane per component of comps, a plane it lacks reading zero; on
    `object` arrays when wide.  A fresh array, or mat.num (read-only)."""
    term = mat.num.astype(object) if wide else mat.num
    cden, parts = _parts(coef)
    scale = den // (cden * mat.den)
    if [x for x, _ in parts] == [0] and mat.comps == comps:
        k = parts[0][1] * scale  # a rational coef moves no component
        return term if k == 1 else term * k
    out = np.zeros((len(comps), *mat.shape), dtype=term.dtype)
    for x, v in parts:
        k = np.array([_COEF[x][x ^ y] * v * scale for y in mat.comps],
                     dtype=term.dtype)
        out[[comps.index(x ^ y) for y in mat.comps]] += k[:, None, None] * term
    return out


def _signed_numerator(terms):
    """(num, den, comps): num / den is the sum of c * M over the (c, M)
    terms, c an int or an ExactScalar and every M of one shape, on one
    plane per component of comps; num is not canonical.  The k nonzero
    terms add by the rule of `_common` with weight k."""
    terms = list(terms)
    if not terms:
        raise ValueError("a sum needs at least one term")
    shape = terms[0][1].shape
    for _, mat in terms:
        if mat.shape != shape:
            raise ValueError(f"shape mismatch {shape} vs {mat.shape}")
    terms = [(coef, mat) for coef, mat in terms if coef and mat.comps]
    if not terms:
        return np.zeros((0, *shape), dtype=np.int64), 1, ()
    den, comps, _, wide = _common(terms, len(terms))
    num = None
    for coef, mat in terms:
        term = _planes(mat, den, comps, wide, coef)
        if num is None:
            # mat.num is read-only: the accumulator owns its array
            num = term.copy() if term is mat.num else term
        else:
            num += term
    return num, den, comps


def signed_sum(terms) -> Matrix:
    """The exact sum of c * M over the (c, M) pairs of terms, c an int or
    an ExactScalar, put in canonical form once (see `_signed_numerator`)."""
    return Matrix._make(*_signed_numerator(terms))


def first_nonzero(terms):
    """(row, col) of the first nonzero entry, row-major, of the sum of the
    (c, M) terms, as `signed_sum` reads them, or None when it is zero; the
    sum is never canonicalised."""
    num = _signed_numerator(terms)[0]
    spots = np.flatnonzero(num.any(axis=0))
    return divmod(int(spots[0]), num.shape[2]) if spots.size else None


def _joined(mats, axis: int) -> tuple:
    """(num, den, comps, peak) of the matrices of mats one above the next
    (axis 0) or side by side (axis 1), each read by `_common` with
    coefficient 1; num is not canonical."""
    den, comps, peak, wide = _common([(1, m) for m in mats])
    num = np.concatenate([_planes(m, den, comps, wide) for m in mats],
                         axis=axis + 1)
    return num, den, comps, peak


def stack(mats, axis: int) -> Matrix:
    """The matrices of mats one above the next (axis 0) or side by side
    (axis 1), in canonical form (see `_joined`); one matrix is returned as
    it is."""
    mats = list(mats)
    if len(mats) == 1:
        return mats[0]
    if any(m.shape[1 - axis] != mats[0].shape[1 - axis] for m in mats):
        raise ValueError("shape mismatch in concatenation")
    num, den, comps, _ = _joined(mats, axis)
    return Matrix._make(num, den, comps)


def _operand(mats, axis: int) -> Matrix:
    """`stack(mats, axis)` as a product's operand only: not canonical, and
    `bits` is the bound peak rather than the entries' bit length, which is
    all `_fits` reads."""
    if len(mats) == 1:
        return mats[0]
    num, den, comps, peak = _joined(mats, axis)
    return Matrix._build(num, den, peak, comps)


def _reshaped(mat: Matrix, rows: int, cols: int) -> Matrix:
    """mat's entries read row-major into a rows x cols matrix, canonical
    as mat is: den, bits and comps do not depend on the shape."""
    num = mat.num.reshape(len(mat.comps), rows, cols)
    return Matrix._build(num, mat.den, mat.bits, mat.comps)


# the most multiply-adds one GEMM of `stacked_product` may run: 80^3, as
# the 80 x 80 blocks of the S4 degree-3 verify run take.  On a 2-core host
# with two OpenBLAS threads, a float GEMM of 1.06M multiply-adds (120 x 20
# @ 20 x 440) took a median 0.24 ms and up to 24 ms, against 63 us on one
# thread, while one of 352,000 (40 x 20 @ 20 x 440) took 16 us on either:
# a stack past the cap is split rather than formed whole.
GEMM_MADDS = 80 ** 3


def stacked_product(lefts, rights) -> Matrix:
    """[L_1; ...; L_p] @ [R_1 | ... | R_q] for the p matrices lefts, all
    of one shape r x k, and the q matrices rights, all k x c: block (i, j)
    of the canonical (p r) x (q c) result is L_i @ R_j.

    Every product runs through `Matrix.__matmul__` and its proved bounds,
    on runs of the stacks small enough that no GEMM exceeds `GEMM_MADDS`
    multiply-adds when one pair of blocks does not: all of rights against
    as many of lefts as fit, or else one of lefts against as many of
    rights as fit.  The pieces are joined by `stack`."""
    lefts, rights = list(lefts), list(rights)
    for mats in (lefts, rights):
        if any(m.shape != mats[0].shape for m in mats):
            raise ValueError("stacked blocks differ in shape")
    (r, k), c = lefts[0].shape, rights[0].ncols
    pair = max(1, r * k * c)
    if len(rights) * pair <= GEMM_MADDS:
        rows, cols = GEMM_MADDS // (len(rights) * pair), len(rights)
    else:
        rows, cols = 1, max(1, GEMM_MADDS // pair)
    runs = [_operand(rights[j:j + cols], 1)
            for j in range(0, len(rights), cols)]
    return stack((stack([_operand(lefts[i:i + rows], 0) @ run
                         for run in runs], 1)
                  for i in range(0, len(lefts), rows)), 0)


def vanishing_sums(mats, shape, index, coef) -> np.ndarray:
    """Whether each of S signed sums of blocks vanishes, as a length-S
    bool array.

    Each matrix of mats is cut into blocks of shape (r, c), read row-major
    over its blocks and mat after mat as B_0, B_1, ...; sum s is
    sum_t coef[s, t] B_index[s, t] over the S x T integer arrays index and
    coef (a zero coefficient pads a shorter sum).  All blocks are read
    over the lcm denominator, so each sum is one gather of its blocks'
    numerators, summed in int64 unless `_common` with weight the largest
    sum of |coef[s, t]| over t rules it out.  Each gather reads a matrix in
    place, through its (comps, rows, r, cols, c) view, with no copy.
    """
    index, coef = np.asarray(index), np.asarray(coef)
    r, c = shape
    if not r * c or not len(index):
        return np.ones(len(index), dtype=bool)
    if any(m.nrows % r or m.ncols % c for m in mats):
        raise ValueError(f"a matrix does not split into {r} x {c} blocks")
    weight = int(np.abs(coef).sum(axis=1).max(initial=0))
    den, comps, _, wide = _common([(1, m) for m in mats], weight)
    dtype = object if wide else np.int64
    coef = coef.astype(dtype)
    total = np.zeros((len(index), len(comps), r, c), dtype)
    end = 0
    for m in mats:
        rows, cols = m.nrows // r, m.ncols // c
        start, end = end, end + rows * cols
        view = _planes(m, den, comps, wide).reshape(len(comps), rows, r,
                                                    cols, c)
        for t, at in enumerate(index.T):
            mine = (start <= at) & (at < end)
            mine = slice(None) if mine.all() else mine  # no masked copy
            i, j = np.divmod(at[mine] - start, cols)
            term = view[:, i, :, j, :]  # a fresh array, safe to scale
            if (coef[mine, t] != 1).any():
                term *= coef[mine, t, None, None, None]
            total[mine] += term
    return ~total.any(axis=(1, 2, 3))


def sum_of_krons(pairs) -> Matrix:
    """The exact sum of a.kron(b) over the (a, b) pairs, every a of one
    shape (r1, c1) and every b of another (r2, c2).

    One pair is `Matrix.kron`.  T >= 2 pairs are one product P @ Q, P the
    (r1 c1) x T matrix whose column t is a_t read row-major and Q the
    T x (r2 c2) matrix whose row t is b_t read row-major: (P @ Q)[(i, j),
    (k, l)] = sum_t a_t[i, j] b_t[k, l], which is entry ((i, k), (j, l))
    of the sum.  So the sum's entries are a permutation of the product's,
    and the product's canonical den, bits and comps are the sum's: the
    permuted planes need no second canonicalisation.  P and Q are
    `_operand`s over `_common`, and the product runs through
    `Matrix.__matmul__` and its proved bounds, with k = T.
    """
    (a, b), *rest = pairs
    if not rest:
        return a.kron(b)
    (r1, c1), (r2, c2) = a.shape, b.shape
    prod = (_operand([_reshaped(a, r1 * c1, 1) for a, _ in pairs], 1)
            @ _operand([_reshaped(b, 1, r2 * c2) for _, b in pairs], 0))
    k = len(prod.comps)
    num = prod.num.reshape(k, r1, c1, r2, c2).transpose(0, 1, 3, 2, 4)
    return Matrix._build(num.reshape(k, r1 * r2, c1 * c2), prod.den,
                         prod.bits, prod.comps)


# -- elimination over the field ----------------------------------------------


def _reduce(m: Matrix, diagonal: bool = False):
    """Gauss-Jordan elimination of m over the field.

    Returns (u, pivots): u holds the reduced rows as {column: ExactScalar}
    dicts, each pivot entry 1 and the only nonzero entry of its column,
    and pivots lists (row, col, value) per pivot, value being the entry
    before its row was scaled to 1.  A column's pivot is its first nonzero
    entry at or below the current row, swapped up.  With diagonal=True the
    pivots are the diagonal entries, never swapped, and elimination stops
    at the first zero one; the k-th leading principal minor of m is then
    the product of the first k pivot values.
    """
    u = m.rows
    pivots = []
    for col in range(m.ncols):
        prow = len(pivots)
        if prow == len(u):
            break
        if diagonal:
            if col not in u[prow]:
                break
            piv = prow
        else:
            piv = next((i for i in range(prow, len(u)) if col in u[i]),
                       None)
            if piv is None:
                continue
        pval = u[piv][col]
        inv = pval.inverse()
        pivot_row = {j: v * inv for j, v in u[piv].items()}
        u[piv] = u[prow]
        u[prow] = pivot_row
        for i, row in enumerate(u):
            x = row.get(col)
            if x is None or i == prow:
                continue
            neg = -x
            for j, v in pivot_row.items():
                accumulate(row, j, neg * v)
        pivots.append((prow, col, pval))
    return u, pivots


def rank(m: Matrix) -> int:
    return len(_reduce(m)[1])


def kernel(m: Matrix) -> Matrix:
    """Right kernel basis, ncols x k.

    Free coordinates carry an identity block: for the j-th free column f_j
    the basis vector has entry 1 at f_j and 0 at the other free columns, so
    coordinates w.r.t. this basis can be read off the free rows.  The
    reduced rows give the rest: pivot row r with pivot column c puts
    -u[r][f_j] at row c.
    """
    u, pivots = _reduce(m)
    pivot_cols = {c for _, c, _ in pivots}
    free_cols = [j for j in range(m.ncols) if j not in pivot_cols]
    index = {f: k for k, f in enumerate(free_cols)}
    out = [{} for _ in range(m.ncols)]
    for f, k in index.items():
        out[f] = {k: ONE}
    for r, c, _ in pivots:
        out[c] = {index[j]: -v for j, v in u[r].items() if j != c}
    return Matrix.from_row_dicts(m.ncols, len(free_cols), out)


def intersection_dim(a: Matrix, b: Matrix) -> int:
    """dim(colspace(a) & colspace(b)) by inclusion-exclusion on ranks.

    The engine never calls it; it stays as a library entry point that the
    benchmark tracer (`perfbench/tracer.py`) wraps by name."""
    ra, rb = rank(a), rank(b)
    return ra + rb - rank(stack([a, b], 1))


def is_positive_definite(h: Matrix) -> bool:
    """Exact Sylvester test: all leading principal minors > 0, that is,
    every diagonal pivot > 0.

    Requires a Hermitian matrix; pivots are checked to be real and their
    signs evaluated exactly in Q(sqrt2).
    """
    if h.nrows != h.ncols:
        raise ValueError("not square")
    if h != h.dagger():
        raise ValueError("not Hermitian")
    _, pivots = _reduce(h, diagonal=True)
    return (len(pivots) == h.nrows
            and all(p.sign_real() > 0 for _, _, p in pivots))

