"""Exact matrices over Q(i, sqrt2) and their elimination.

A matrix is one positive integer denominator `den` over a numpy integer
array `num` of shape (4, rows, cols): num[0..3] hold the 1, sqrt2, i and
i*sqrt2 components of every entry.  The form is canonical: den > 0, the
gcd of den and every entry of num is 1, and num is int64 exactly when
every |entry| < 2^62, otherwise an `object` array of Python ints.  So
equality and hashing are structural on (shape, den, num).

A product is one integer matmul of A's nonzero components, side by side,
against a block matrix of +-B and +-2B blocks read off the multiplication
table of the basis.  A bit bound on the operands (see `_fits`) picks how
it runs.  When it proves every operand, partial sum and result an integer
below 2^53, the integer arrays run as one float64 BLAS product and the
result is cast back to int64: float64 holds every such integer exactly,
so no rounding can happen in any summation order.  Otherwise, when the
bound proves that no sum overflows int64, the product runs in int64, and
else on `object` arrays, slower but exact.  So no float ever decides a
value: the float64 arrays only ever carry integers proved below 2^53, and
floats that round appear only in `to_complex`, which feeds reports and
eigenvalue guesses.

Every linear combination, a pairwise sum included, is one `signed_sum`:
one lcm denominator, one numerator accumulated in int64 under a proved
62-bit bound (see `_signed_numerator`) or else on `object` arrays, and
one canonicalisation.

Rank, kernel, leading minors and the Sylvester positivity test all run
through one Gauss-Jordan elimination over the field, on the
{column: ExactScalar} rows of `Matrix.rows`.  No denominator is cleared:
every ExactScalar is kept reduced, and each entry of a partially reduced
matrix is a ratio of minors of the input (Edmonds 1967), so entry sizes
stay polynomial without fraction-free steps.
"""
from __future__ import annotations

from math import gcd, lcm

import numpy as np

from .scalars import (SQRT2_FLOAT, ExactScalar, ZERO, ONE, accumulate,
                      as_scalar)

# int64 arrays hold entries below 2^62 in absolute value, so the sum or
# difference of two of them still fits
_LIMIT = 1 << 62

# e_a * e_b = _COEF[a][c] * e_c with b = _IDX[a][c] = a ^ c, for the basis
# e_0..e_3 = 1, sqrt2, i, i*sqrt2
_IDX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_COEF = np.array([[1, 1, 1, 1], [2, 1, 2, 1],
                  [-1, -1, 1, 1], [-2, -1, 2, 1]], dtype=np.int64)
# complex conjugation flips the sign of the i and i*sqrt2 components
_CONJ = np.array([1, 1, -1, -1], dtype=np.int64).reshape(4, 1, 1)


def _companion(b: np.ndarray, comps: list) -> np.ndarray:
    """Per component a in comps, the four arrays _COEF[a][c] * b[a ^ c]:
    left-multiplying them by a's array gives e_a * B per output c."""
    return _COEF[comps][:, :, None, None] * b[_IDX[comps]]


def _gemm(lhs: np.ndarray, rhs: np.ndarray, exact_float: bool):
    """lhs @ rhs on integer arrays; as a float64 BLAS product cast back to
    int64 when exact_float, which the caller sets only under the 53-bit
    bound of `Matrix._fits`."""
    if exact_float:
        return (lhs.astype(np.float64) @ rhs.astype(np.float64)).astype(
            np.int64)
    return lhs @ rhs


class Matrix:
    """Exact matrix num / den over Q(i, sqrt2); immutable.

    `bits` (the bit length of the largest |entry| of num) and `comps`
    (the indices of the nonzero components) are derived from num.
    """

    __slots__ = ("nrows", "ncols", "den", "num", "bits", "comps")

    def __init__(self, nrows: int, ncols: int):
        """The zero matrix."""
        self._set(np.zeros((4, nrows, ncols), dtype=np.int64), 1, 0, ())

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
    def _make(num: np.ndarray, den: int) -> "Matrix":
        """The canonical form of num / den, for den > 0: divide out the
        common gcd, then store int64 exactly when every entry fits."""
        if den != 1:
            g = int(np.gcd.reduce(num, axis=None))
            if g == 0:
                return Matrix(num.shape[1], num.shape[2])
            g = gcd(den, g)
            if g != 1:
                num = num // g
                den //= g
        peaks = np.abs(num).reshape(4, -1).max(axis=1, initial=0).tolist()
        peak = max(peaks)
        if num.dtype == object:
            if peak < _LIMIT:
                num = num.astype(np.int64)
        elif peak >= _LIMIT:
            num = num.astype(object)
        return Matrix._build(num, den, peak.bit_length(),
                             tuple(c for c, p in enumerate(peaks) if p))

    # -- construction --

    @staticmethod
    def identity(n: int) -> "Matrix":
        num = np.zeros((4, n, n), dtype=np.int64)
        num[0] = np.eye(n, dtype=np.int64)
        return Matrix._make(num, 1)

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
        comps = [[x * (den // v._den) for x in (v._p, v._q, v._r, v._s)]
                 for v in vals]
        big = any(abs(x) >= _LIMIT for c in comps for x in c)
        num = np.zeros((4, nrows, ncols),
                       dtype=object if big else np.int64)
        if vals:
            num[:, ii, jj] = np.array(comps, dtype=num.dtype).T
        return Matrix._make(num, den)

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

    def _entries(self):
        """(row, col, [p, q, r, s]) of each nonzero entry, row-major; the
        entry is (p + q sqrt2 + i (r + s sqrt2)) / den."""
        ii, jj = np.nonzero(self.num.any(axis=0))
        vals = self.num[:, ii, jj].T.tolist()
        return zip(ii.tolist(), jj.tolist(), vals)

    @property
    def rows(self) -> list:
        """Fresh {column: ExactScalar} dicts of the nonzero entries."""
        out = [{} for _ in range(self.nrows)]
        den = self.den
        for i, j, v in self._entries():
            out[i][j] = ExactScalar._raw(*v, den)
        return out

    def get(self, i: int, j: int) -> ExactScalar:
        return ExactScalar._raw(*self.num[:, i, j].tolist(), self.den)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def nnz(self) -> int:
        return int(np.count_nonzero(self.num.any(axis=0)))

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
        return self + Matrix.identity(self.nrows).scale(s)

    def scale(self, s) -> "Matrix":
        """s * self: component c is the sum over nonzero components a of s
        of s_a * _COEF[a][c] * num[a ^ c], one multiply for a rational s;
        int64 under `_fits` with k = 1 and s's components as B's entries."""
        s = as_scalar(s)
        sc, num = (s._p, s._q, s._r, s._s), self.num
        if self.bits + max(map(abs, sc)).bit_length() + 5 > 62:
            num = num.astype(object)
        parts = [np.array([sc[a] * c for c in _COEF[a].tolist()],
                          dtype=num.dtype)[:, None, None] * num[_IDX[a]]
                 for a in range(4) if sc[a]]
        return (Matrix._make(sum(parts[1:], parts[0]), self.den * s._den)
                if parts else Matrix(self.nrows, self.ncols))

    def _fits(self, other: "Matrix", k: int, limit: int = 62) -> bool:
        """True when every sum of k terms a * c * b, for entries a of self
        and b of other and c a coefficient of the multiplication table, over
        at most four components, stays below 2^(limit - 1) in absolute value.

        Proof: |a| < 2^bits(A), |b| < 2^bits(B), |c| <= 2 and k < 2^bitlen(k);
        one output entry is a sum of at most 4k such terms, so its partial
        sums are below 4k * 2 * 2^(bits(A) + bits(B)) < 2^(bits(A) + bits(B)
        + bitlen(k) + 3) <= 2^(limit - 1) when bits(A) + bits(B) + bitlen(k)
        + 4 <= limit.  An `object` array has bits >= 63 and never fits.

        limit = 62 keeps int64 sums from overflowing.  limit = 53 makes the
        product exact in float64: each operand (a, or c * b) and each term
        a * c * b is an integer below 2^(bits(A) + bits(B) + 1) <= 2^52, and
        each partial sum, in whatever order or grouping a BLAS kernel forms
        it, FMA included, is a sum of a subset of the terms, so below 2^52
        too.  Float64 represents every integer below 2^53 exactly, so no
        step rounds and the cast back to int64 is exact.
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
        r, k, n = self.nrows, self.ncols, other.ncols
        ca, cb = self.comps, other.comps
        if not ca or not cb:
            return Matrix(r, n)
        a, b = self._operands(other, k)
        exact_float = self._fits(other, k, 53)
        if ca == cb == (0,):
            prod = _gemm(a[0], b[0], exact_float)
            out = np.zeros((4, r, n), dtype=prod.dtype)
            out[0] = prod
        else:
            ca = list(ca)
            lhs = a[ca].transpose(1, 0, 2).reshape(r, len(ca) * k)
            rhs = _companion(b, ca).transpose(0, 2, 1, 3).reshape(
                len(ca) * k, 4 * n)
            out = _gemm(lhs, rhs, exact_float).reshape(r, 4, n).transpose(
                1, 0, 2)
        return Matrix._make(out, self.den * other.den)

    def kron(self, other: "Matrix") -> "Matrix":
        (r1, c1), (r2, c2) = self.shape, other.shape
        if not self.comps or not other.comps:
            return Matrix(r1 * r2, c1 * c2)
        a, b = self._operands(other, 1)
        ca = list(self.comps)
        prod = (a[ca][:, None, :, None, :, None]
                * _companion(b, ca)[:, :, None, :, None, :]).sum(axis=0)
        return Matrix._make(prod.reshape(4, r1 * r2, c1 * c2),
                            self.den * other.den)

    def transpose(self) -> "Matrix":
        return Matrix._build(self.num.transpose(0, 2, 1), self.den,
                             self.bits, self.comps)

    def dagger(self) -> "Matrix":
        """Conjugate transpose."""
        return Matrix._build((self.num * _CONJ).transpose(0, 2, 1),
                             self.den, self.bits, self.comps)

    def trace(self):
        t = self.num.diagonal(axis1=1, axis2=2).sum(axis=1)
        return ExactScalar._raw(*(int(x) for x in t), self.den)

    def key(self):
        """Hashable canonical form (shape, den, entries)."""
        num = self.num
        body = (tuple(num.ravel().tolist()) if num.dtype == object
                else num.tobytes())
        return (self.shape, self.den, body)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.shape == other.shape and self.den == other.den
                and np.array_equal(self.num, other.num))

    def __hash__(self):
        return hash(self.key())

    def is_scalar_multiple_of_identity(self):
        """Return the scalar if self == s*I, else None."""
        if self.nrows != self.ncols:
            return None
        if self.nrows == 0:
            return ZERO
        s = self.get(0, 0)
        expect = Matrix.identity(self.nrows).scale(s)
        return s if self == expect else None

    # -- conversions --

    def to_dense(self):
        return [[row.get(j, ZERO) for j in range(self.ncols)]
                for row in self.rows]

    def to_complex(self):
        """Complex float array, each entry rounded as ExactScalar.to_complex
        rounds it: from its own reduced components and denominator."""
        num = self.num
        if self.den >= _LIMIT:
            num = num.astype(object)
        g = np.gcd(np.gcd.reduce(num, axis=0), self.den)
        p = (num // g).astype(float)
        d = (self.den // g).astype(float)
        arr = np.zeros(self.shape, dtype=complex)
        arr.real = (p[0] + p[1] * SQRT2_FLOAT) / d
        arr.imag = (p[2] + p[3] * SQRT2_FLOAT) / d
        return arr

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def _signed_numerator(terms):
    """(num, den), num / den being the sum of sign * M over the (sign, M)
    pairs of terms (signs +-1, one shape), read one at a time; num is not
    canonical.  den is the lcm of the denominators read so far.

    With k nonzero terms read, the sum runs in int64 while peak + bitlen(k)
    <= 62, for peak = max_j(bits_j + bitlen(den / den_j)), and on `object`
    arrays from the first term that breaks it (peak and k only grow).
    Proof: a term's entries rescaled to den are below 2^bits_j * (den /
    den_j) < 2^peak, so every partial sum, rescaled or not, is below
    k * 2^peak < 2^(bitlen(k) + peak) <= 2^62.
    """
    num, den, peak, sizes = None, 1, 0, []
    for sign, mat in terms:
        if num is None:
            num = np.zeros((4, *mat.shape), dtype=np.int64)
        if mat.shape != num.shape[1:]:
            raise ValueError(f"shape mismatch {num.shape[1:]} vs {mat.shape}")
        if not mat.comps:
            continue
        top = lcm(den, mat.den)
        if top != den:
            peak = max((b + (top // d).bit_length() for b, d in sizes),
                       default=0)
        sizes.append((mat.bits, mat.den))
        peak = max(peak, mat.bits + (top // mat.den).bit_length())
        wide = peak + len(sizes).bit_length() > 62
        term = mat.num.astype(object) if wide else mat.num
        if top != mat.den:
            term = term * (top // mat.den)
        if wide:
            num = num.astype(object, copy=False)
        if top != den:
            num *= top // den
        (np.add if sign > 0 else np.subtract)(num, term, out=num)
        den = top
    if num is None:
        raise ValueError("a sum needs at least one term")
    return num, den


def signed_sum(terms) -> Matrix:
    """The exact sum of sign * M over the (sign, M) pairs of terms, put in
    canonical form once (see `_signed_numerator`)."""
    return Matrix._make(*_signed_numerator(terms))


def first_nonzero(terms):
    """(row, col) of the first nonzero entry, row-major, of the signed sum
    of terms, or None when it is zero; the sum is never canonicalised."""
    num = _signed_numerator(terms)[0]
    spots = np.flatnonzero(num.any(axis=0))
    return divmod(int(spots[0]), num.shape[2]) if spots.size else None


def hstack(*mats: Matrix) -> Matrix:
    """The concatenation [A | B | ...], formed on `object` arrays."""
    if any(mm.nrows != mats[0].nrows for mm in mats):
        raise ValueError("row mismatch in concatenation")
    den = lcm(*(mm.den for mm in mats))
    return Matrix._make(np.concatenate(
        [mm.num.astype(object) * (den // mm.den) for mm in mats], axis=2), den)


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
    """dim(colspace(a) & colspace(b)) by inclusion-exclusion on ranks."""
    ra, rb = rank(a), rank(b)
    return ra + rb - rank(hstack(a, b))


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

