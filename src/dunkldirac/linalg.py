"""Sparse exact matrices and fraction-free elimination.

Matrices hold ExactScalar entries in row dicts; stored zeros are never
kept, so equality is structural.  Rank, kernel, determinant and the
Sylvester positivity test all run through one Bareiss driver after
clearing denominators, which keeps intermediate entries polynomially
sized.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from .scalars import ExactScalar, ZERO, ONE, as_scalar, rat


class Matrix:
    """Sparse matrix over ExactScalar."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)]

    # -- construction --

    @staticmethod
    def identity(n: int) -> "Matrix":
        m = Matrix(n, n)
        for i in range(n):
            m.rows[i][i] = ONE
        return m

    @staticmethod
    def from_rows(data) -> "Matrix":
        """Build from a list of lists; entries coerced via as_scalar()."""
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        m = Matrix(nrows, ncols)
        for i, row in enumerate(data):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                m.set(i, j, v)
        return m

    def set(self, i: int, j: int, v) -> None:
        v = as_scalar(v)
        if v.is_zero():
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = v

    def get(self, i: int, j: int):
        return self.rows[i].get(j, ZERO)

    def copy(self) -> "Matrix":
        m = Matrix(self.nrows, self.ncols)
        m.rows = [dict(r) for r in self.rows]
        return m

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    # -- algebra --

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        out = self.copy()
        for i, row in enumerate(other.rows):
            orow = out.rows[i]
            for j, v in row.items():
                w = orow.get(j)
                s = v if w is None else w + v
                if s.is_zero():
                    orow.pop(j, None)
                else:
                    orow[j] = s
        return out

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        out = Matrix(self.nrows, self.ncols)
        out.rows = [{j: -v for j, v in r.items()} for r in self.rows]
        return out

    def scale(self, s) -> "Matrix":
        s = as_scalar(s)
        out = Matrix(self.nrows, self.ncols)
        if s.is_zero():
            return out
        out.rows = [{j: s * v for j, v in r.items()} for r in self.rows]
        return out

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = Matrix(self.nrows, other.ncols)
        for i, arow in enumerate(self.rows):
            if not arow:
                continue
            acc: dict = {}
            for k, av in arow.items():
                brow = other.rows[k]
                for j, bv in brow.items():
                    prod = av * bv
                    cur = acc.get(j)
                    acc[j] = prod if cur is None else cur + prod
            out.rows[i] = {j: v for j, v in acc.items() if not v.is_zero()}
        return out

    def transpose(self) -> "Matrix":
        out = Matrix(self.ncols, self.nrows)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out.rows[j][i] = v
        return out

    def dagger(self) -> "Matrix":
        """Conjugate transpose."""
        out = Matrix(self.ncols, self.nrows)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out.rows[j][i] = v.conjugate()
        return out

    def kron(self, other: "Matrix") -> "Matrix":
        out = Matrix(self.nrows * other.nrows, self.ncols * other.ncols)
        for i1, r1 in enumerate(self.rows):
            for j1, v1 in r1.items():
                for i2, r2 in enumerate(other.rows):
                    orow = out.rows[i1 * other.nrows + i2]
                    for j2, v2 in r2.items():
                        p = v1 * v2
                        if not p.is_zero():
                            orow[j1 * other.ncols + j2] = p
        return out

    def trace(self):
        t = ZERO
        for i in range(min(self.nrows, self.ncols)):
            v = self.rows[i].get(i)
            if v is not None:
                t = t + v
        return t

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.shape == other.shape
                and all(a == b for a, b in zip(self.rows, other.rows)))

    def __hash__(self):
        return hash((self.shape,
                     tuple(tuple(sorted(r.items())) for r in self.rows)))

    def is_scalar_multiple_of_identity(self):
        """Return the scalar if self == s*I, else None."""
        if self.nrows != self.ncols:
            return None
        if self.nrows == 0:
            return ZERO
        s = self.get(0, 0)
        expect = Matrix.identity(self.nrows).scale(s)
        return s if self == expect else None

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    # -- conversions --

    def to_dense(self):
        return [[self.get(i, j) for j in range(self.ncols)]
                for i in range(self.nrows)]

    def to_complex(self):
        import numpy as np
        arr = np.zeros((self.nrows, self.ncols), dtype=complex)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                arr[i, j] = v.to_complex()
        return arr

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


# -- fraction-free elimination ---------------------------------------------


def _den_lcm(rows) -> int:
    """Least common multiple of the entry denominators of some row dicts."""
    return lcm(*(v._den for row in rows for v in row.values()))


def _clear_denominators(m: Matrix) -> Matrix:
    """Scale each row by a positive integer so entries lie in Z[i, sqrt2]."""
    out = m.copy()
    for row in out.rows:
        d = _den_lcm([row])
        if d != 1:
            s = rat(d)
            for j in list(row):
                row[j] = row[j] * s
    return out


def _cleared(m: Matrix):
    """(d * m, d) for the common denominator d of all entries of m."""
    d = _den_lcm(m.rows)
    return (m.scale(d) if d != 1 else m.copy()), d


def _divexact(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    z = x / y
    if z._den != 1:
        raise ArithmeticError("non-exact division in fraction-free step")
    return z


def _bareiss_step(u: Matrix, prow: int, col: int, prev: ExactScalar):
    """One fraction-free elimination step on all rows below prow.

    Rows with a zero pivot-column entry still get the pval/prev rescale;
    Bareiss exactness relies on updating the whole remaining block.
    """
    pivot_row = u.rows[prow]
    pval = pivot_row[col]
    same_scale = pval == prev
    for i in range(prow + 1, u.nrows):
        row = u.rows[i]
        xval = row.pop(col, None)
        if xval is None:
            if same_scale or not row:
                continue
            for j in list(row):
                v = _divexact(row[j] * pval, prev)
                if v.is_zero():
                    del row[j]
                else:
                    row[j] = v
            continue
        cols = set(row) | set(pivot_row)
        cols.discard(col)
        for j in cols:
            a = row.get(j, ZERO)
            b = pivot_row.get(j, ZERO)
            v = _divexact(a * pval - xval * b, prev)
            if v.is_zero():
                row.pop(j, None)
            else:
                row[j] = v
    return pval


def _bareiss(u: Matrix, diagonal: bool = False):
    """Fraction-free elimination of u in place, one pivot at a time.

    Yields (row, col, swapped) for each pivot before eliminating below
    it, so a caller may stop early.  A column's pivot is its first nonzero
    entry at or below the current row, swapped up; with diagonal=True the
    pivots are the diagonal entries, never swapped, and elimination stops
    at the first zero one.  By Sylvester's identity the k-th pivot is then
    the k-th leading principal minor of u.
    """
    prev = ONE
    prow = 0
    for col in range(u.ncols):
        if prow == u.nrows:
            return
        if diagonal:
            if col not in u.rows[prow]:
                return
            piv = prow
        else:
            piv = next((i for i in range(prow, u.nrows) if col in u.rows[i]),
                       None)
            if piv is None:
                continue
        if piv != prow:
            u.rows[prow], u.rows[piv] = u.rows[piv], u.rows[prow]
        yield prow, col, piv != prow
        prev = _bareiss_step(u, prow, col, prev)
        prow += 1


def echelon(m: Matrix):
    """Fraction-free row echelon form.

    Returns (U, pivots) where pivots is a list of (row, col) pairs; U is a
    working copy with entries in Z[i, sqrt2].
    """
    u = _clear_denominators(m)
    return u, [(r, c) for r, c, _ in _bareiss(u)]


def rank(m: Matrix) -> int:
    return len(echelon(m)[1])


def kernel(m: Matrix) -> Matrix:
    """Right kernel basis, ncols x k.

    Free coordinates carry an identity block: for the j-th free column f_j
    the basis vector has entry 1 at f_j and 0 at the other free columns, so
    coordinates w.r.t. this basis can be read off the free rows.
    """
    u, pivots = echelon(m)
    pivot_cols = {c for _, c in pivots}
    free_cols = [j for j in range(m.ncols) if j not in pivot_cols]
    out = Matrix(m.ncols, len(free_cols))
    for k, f in enumerate(free_cols):
        x = {f: ONE}
        for (r, c) in reversed(pivots):
            acc = None
            row = u.rows[r]
            for j, v in row.items():
                if j == c:
                    continue
                xv = x.get(j)
                if xv is not None:
                    t = v * xv
                    acc = t if acc is None else acc + t
            if acc is not None and not acc.is_zero():
                x[c] = -acc / row[c]
        for j, v in x.items():
            if not v.is_zero():
                out.rows[j][k] = v
    return out


def hstack(*mats: Matrix) -> Matrix:
    """The concatenation [A | B | ...]."""
    nrows = mats[0].nrows
    total = sum(mm.ncols for mm in mats)
    cat = Matrix(nrows, total)
    off = 0
    for mm in mats:
        if mm.nrows != nrows:
            raise ValueError("row mismatch in concatenation")
        for i, row in enumerate(mm.rows):
            for j, v in row.items():
                cat.rows[i][off + j] = v
        off += mm.ncols
    return cat


def column_space_rank(*mats: Matrix) -> int:
    """Rank of the concatenation [A | B | ...]."""
    return rank(hstack(*mats))


def intersection_dim(a: Matrix, b: Matrix) -> int:
    """dim(colspace(a) & colspace(b)) by inclusion-exclusion on ranks."""
    ra, rb = rank(a), rank(b)
    return ra + rb - column_space_rank(a, b)


def is_positive_definite(h: Matrix) -> bool:
    """Exact Sylvester test: all leading principal minors > 0.

    Requires a Hermitian matrix; minors are checked to be real and their
    signs evaluated exactly in Q(sqrt2).
    """
    if h.nrows != h.ncols:
        raise ValueError("not square")
    if h != h.dagger():
        raise ValueError("not Hermitian")
    # global denominator clearing keeps minors positive-scaled
    u, _ = _cleared(h)
    positive = 0
    for k, _, _ in _bareiss(u, diagonal=True):
        if u.rows[k][k].sign_real() <= 0:
            return False
        positive += 1
    return positive == h.nrows


def leading_principal_minors(h: Matrix):
    """Exact leading principal minors d_1..d_n via Bareiss pivots.

    Returns None entries past the first singular leading block.
    """
    if h.nrows != h.ncols:
        raise ValueError("square matrix required")
    u, d = _cleared(h)
    # the pivot at step k is the (k+1)-st leading minor of u = d*h
    minors = [u.rows[k][k] * rat(Fraction(1, d ** (k + 1)))
              for k, _, _ in _bareiss(u, diagonal=True)]
    return minors + [None] * (h.nrows - len(minors))


def determinant(m: Matrix) -> ExactScalar:
    """Exact determinant via fraction-free elimination with row swaps."""
    if m.nrows != m.ncols:
        raise ValueError("not square")
    if m.nrows == 0:
        return ONE
    u, d = _cleared(m)
    sign = 1
    for k, col, swapped in _bareiss(u):
        if col != k:
            return ZERO
        if swapped:
            sign = -sign
    n = m.nrows
    det = u.rows[n - 1].get(n - 1, ZERO) * rat(Fraction(1, d ** n))
    return -det if sign < 0 else det
