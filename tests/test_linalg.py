"""Exact matrix layer: elimination against a naive Fraction oracle, and
the integer component arithmetic against sympy."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from dunkldirac.linalg import (Matrix, _operand, _reduce,
                               _signed_numerator, first_nonzero,
                               intersection_dim,
                               is_positive_definite, kernel, rank,
                               signed_sum, stack, stacked_product,
                               sum_of_krons, vanishing_sums)
from dunkldirac.scalars import ExactScalar, ONE, SQRT2, ZERO, rat

from oracles import rational


def random_matrix(rng, nrows, ncols, density=0.6):
    rows = [{} for _ in range(nrows)]
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                rows[i][j] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Matrix.from_row_dicts(nrows, ncols, rows)


def naive_rank_fraction(dense):
    """Plain Gaussian elimination over Fraction as the independent oracle."""
    rows = [list(r) for r in dense]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_rank_matches_fraction_oracle():
    rng = random.Random(31)
    for _ in range(60):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, nr, nc)
        dense = [[rational(m.get(i, j)) for j in range(nc)]
                 for i in range(nr)]
        assert rank(m) == naive_rank_fraction(dense)


def test_kernel_is_annihilated_and_full():
    rng = random.Random(77)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 8)
        m = random_matrix(rng, nr, nc)
        k = kernel(m)
        assert (m @ k).is_zero()
        assert rank(m) + k.ncols == nc
        assert rank(k) == k.ncols


def test_kernel_free_rows_identity():
    m = Matrix.from_rows([[1, 2, 3], [0, 0, 0]])
    k = kernel(m)
    assert k.ncols == 2
    # column 0 is pivot; free columns 1, 2 carry the identity
    assert k.get(1, 0) == ONE and k.get(2, 0).is_zero()
    assert k.get(1, 1).is_zero() and k.get(2, 1) == ONE


def test_matmul_and_kron():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b) == Matrix.from_rows([[2, 1], [4, 3]])
    k = a.kron(Matrix.identity(2))
    assert k.shape == (4, 4)
    assert k.get(0, 0) == ONE and k.get(1, 1) == ONE
    assert k.get(0, 2) == rat(2) and k.get(2, 0) == rat(3)


def test_irrational_entries_exact():
    m = Matrix.from_rows([[ExactScalar(0, 1), ExactScalar(1)],
                          [ExactScalar(1), ExactScalar(0, -1)]])
    assert rank(m) == 2
    m2 = Matrix.from_rows([[ExactScalar(0, 1), ExactScalar(2)],
                           [ExactScalar(1), ExactScalar(0, 1)]])
    # rows proportional: sqrt2 * (1, sqrt2) = (sqrt2, 2)
    assert rank(m2) == 1
    k = kernel(m2)
    assert (m2 @ k).is_zero() and k.ncols == 1


def random_hermitian_surd(rng, n):
    """Symmetric over Q(sqrt2): entry (i, j) has denominator d_i d_j, so
    the rows carry different denominators; a random diagonal shift makes
    about half of them positive definite."""
    dens = [rng.randint(1, 5) for _ in range(n)]
    shift = rng.choice((0, 8))
    rows = [{} for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = ExactScalar(Fraction(rng.randint(-4, 4), dens[i] * dens[j]),
                            Fraction(rng.randint(-2, 2), dens[i] * dens[j]))
            if i == j:
                v = v + shift
            rows[i][j] = v
            rows[j][i] = v
    return Matrix.from_row_dicts(n, n, rows)


def to_sympy(x: ExactScalar):
    import sympy
    r2 = sympy.sqrt(2)
    return sum(sympy.Rational(f.numerator, f.denominator) * unit
               for f, unit in zip((x.a, x.b, x.c, x.d),
                                  (1, r2, sympy.I, sympy.I * r2)))


def to_sympy_matrix(m: Matrix):
    import sympy
    return sympy.Matrix([[to_sympy(m.get(i, j)) for j in range(m.ncols)]
                         for i in range(m.nrows)])


def sympy_is_zero(x) -> bool:
    """Exact zero test for a sympy expression in Q(i, sqrt2), radical
    denominators included."""
    return sympy.expand(sympy.radsimp(x)) == 0


def test_rank_and_kernel_match_sympy_over_the_field():
    """rank and the kernel basis against sympy over Q(i, sqrt2).  sympy's
    nullspace() sets each vector to 1 on its free variable and 0 on the
    other free variables, as kernel() does, so the bases agree entry by
    entry."""
    rng = random.Random(91)
    mats = [random_q_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            for _ in range(6)]
    # rank-deficient products through an inner dimension of 1 or 2
    for _ in range(5):
        r, k, n = rng.randint(2, 4), rng.randint(1, 2), rng.randint(2, 5)
        mats.append(random_q_matrix(rng, r, k) @ random_q_matrix(rng, k, n))
    i = ExactScalar(0, 0, 1)
    # column 0 is zero in row 0, so its pivot is swapped up from row 1
    swap = Matrix.from_rows([[0, 1, SQRT2, i], [2, 0, 1, 0],
                             [4, 1, 2 + SQRT2, i]])
    assert swap.get(0, 0).is_zero()
    # the first pivot is 1 + i sqrt2
    cplx = Matrix.from_rows([[ExactScalar(1, 0, 0, 1), 2, 0],
                             [3, ExactScalar(0, 1), i]])
    assert not cplx.get(0, 0).is_real()
    mats += [swap, cplx]
    for m in mats:
        sm = to_sympy_matrix(m)
        assert rank(m) == sm.rank(iszerofunc=sympy_is_zero)
        want = sm.nullspace(iszerofunc=sympy_is_zero)
        k = kernel(m)
        assert k.shape == (m.ncols, len(want))
        for j, v in enumerate(want):
            assert all(sympy_is_zero(to_sympy(k.get(r, j)) - v[r])
                       for r in range(m.ncols))


def leading_minors(h):
    """The leading principal minors of h up to its first singular leading
    block, as running products of the diagonal pivots of `_reduce`."""
    minors, d = [], ONE
    for _, _, p in _reduce(h, diagonal=True)[1]:
        d = d * p
        minors.append(d)
    return minors


def test_positive_definite():
    assert is_positive_definite(Matrix.identity(3))
    assert not is_positive_definite(Matrix.from_rows([[1, 2], [2, 1]]))
    g = Matrix.from_rows([[Fraction(5, 4), Fraction(-1, 4)],
                          [Fraction(-1, 4), Fraction(5, 4)]])
    assert is_positive_definite(g)
    minors = leading_minors(g)
    assert minors[0] == rat(Fraction(5, 4))
    assert minors[1] == rat(Fraction(24, 16))
    # Hermitian with sqrt2: [[2, sqrt2], [sqrt2, 2]] has minors 2, 2
    h = Matrix.from_rows([[rat(2), SQRT2], [SQRT2, rat(2)]])
    assert is_positive_definite(h)
    with pytest.raises(ValueError):
        is_positive_definite(Matrix.from_rows([[0, 1], [0, 0]]))
    # sympy's leading minors as the oracle, up to the first zero one
    import sympy
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        h = random_hermitian_surd(rng, n)
        sm = to_sympy_matrix(h)
        want = []
        for k in range(1, n + 1):
            d = sympy.expand(sm[:k, :k].det(method="berkowitz"))
            if d == 0:
                break
            want.append(d)
        got = leading_minors(h)
        assert len(got) == len(want)
        assert all(sympy.expand(to_sympy(x) - w) == 0
                   for x, w in zip(got, want))
        assert is_positive_definite(h) == (len(want) == n
                                           and all(w > 0 for w in want))


def test_intersection_dim():
    a = Matrix.from_rows([[1, 0], [0, 1], [0, 0]])
    b = Matrix.from_rows([[0], [1], [1]])
    assert rank(stack([a, b], 1)) == 3
    assert intersection_dim(a, b) == 0
    c = Matrix.from_rows([[1], [1], [0]])
    assert intersection_dim(a, c) == 1


def test_scalar_multiple_detection():
    m = Matrix.identity(4).scale(Fraction(-3, 2))
    assert m.is_scalar_multiple_of_identity() == rat(Fraction(-3, 2))
    m = m + Matrix.from_row_dicts(4, 4, [{1: 1}, {}, {}, {}])
    assert m.is_scalar_multiple_of_identity() is None


# -- the integer component kernel -------------------------------------------


def random_q_matrix(rng, nrows, ncols, big=0):
    """Random entries with all four components drawn independently over
    denominators 1..6, so rows mix denominators; big shifts every
    numerator left by that many bits."""
    def part():
        return Fraction(rng.randint(-5, 5) << big, rng.randint(1, 6))
    rows = [{j: ExactScalar(part(), part(), part(), part())
             for j in range(ncols) if rng.random() < 0.8}
            for _ in range(nrows)]
    return Matrix.from_row_dicts(nrows, ncols, rows)


def sympy_equal(m: Matrix, want) -> bool:
    got = to_sympy_matrix(m)
    return got.shape == want.shape and all(
        sympy.expand(x - y) == 0 for x, y in zip(got, want))


def test_array_arithmetic_matches_sympy_oracle():
    rng = random.Random(2024)
    for _ in range(12):
        r, k, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a, b = random_q_matrix(rng, r, k), random_q_matrix(rng, k, n)
        c = random_q_matrix(rng, r, k)
        s = ExactScalar(*(Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                          for _ in range(4)))
        sa, sb, sc = (to_sympy_matrix(x) for x in (a, b, c))
        assert sympy_equal(a @ b, sa * sb)
        assert sympy_equal(a + c, sa + sc)
        assert sympy_equal(a - c, sa - sc)
        assert sympy_equal(a.scale(s), sa * to_sympy(s))
        assert sympy_equal(a.kron(b), sympy.kronecker_product(sa, sb))
        assert sympy_equal(a.dagger(), sa.H)
        sq = random_q_matrix(rng, r, r)
        assert sq.add_to_diagonal(s) == sq + Matrix.identity(r).scale(s)
        want = to_sympy_matrix(sq).trace()
        assert sympy.expand(to_sympy(sq.trace()) - want) == 0


def test_products_beyond_the_int64_bound_take_the_object_path():
    rng = random.Random(40)
    for _ in range(4):
        a = random_q_matrix(rng, 3, 3, big=40)
        b = random_q_matrix(rng, 3, 2, big=40)
        assert a.bits >= 41 and b.bits >= 41
        assert not a._fits(b, a.ncols)
        prod = a @ b
        assert prod.num.dtype == object
        assert sympy_equal(prod, to_sympy_matrix(a) * to_sympy_matrix(b))
        assert sympy_equal(a.kron(b), sympy.kronecker_product(
            to_sympy_matrix(a), to_sympy_matrix(b)))
        # the difference cancels back below 2^62: int64 again
        small = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
        assert ((prod + small) - prod).num.dtype == np.int64


def assert_live_planes(m: Matrix):
    """One plane per live component, in increasing order, none all zero."""
    assert m.num.shape == (len(m.comps), m.nrows, m.ncols)
    assert list(m.comps) == sorted(set(m.comps)) and set(m.comps) <= {
        0, 1, 2, 3}
    assert all(plane.any() for plane in m.num)


def assert_canonical(m: Matrix):
    assert_live_planes(m)
    assert m.den > 0
    entries = [int(x) for x in m.num.ravel()]
    assert math.gcd(m.den, *entries) == 1
    fits = all(abs(x) < 2 ** 62 for x in entries)
    assert m.num.dtype == (np.int64 if fits else object)


def test_canonical_form():
    rng = random.Random(8)
    for _ in range(10):
        a = random_q_matrix(rng, 3, 3)
        b = random_q_matrix(rng, 3, 3, big=70)
        for m in (a, b, a @ b, a + b, b - b, a.kron(b), b.dagger(),
                  a.scale(Fraction(6, 7))):
            assert_canonical(m)
        # the same matrix by different routes
        routes = [a,
                  Matrix.from_rows(a.to_dense()),
                  Matrix.from_row_dicts(3, 3, a.rows),
                  (a.scale(3) + a.scale(-2)),
                  a.dagger().dagger(),
                  a @ Matrix.identity(3),
                  (a - b) + b,
                  a.kron(Matrix.identity(1))]
        for m in routes:
            assert m == a and m.num.dtype == a.num.dtype
        # each entry of the float array is rounded from its own reduced form
        arr = a.to_complex()
        assert all(arr[i, j] == a.get(i, j).to_complex()
                   for i in range(3) for j in range(3))
    big = Matrix.from_rows([[2 ** 63, 1], [0, ExactScalar(0, 0, 0, -2 ** 80)]])
    assert_canonical(big)
    assert big.num.dtype == object and big == Matrix.from_rows(
        [[2 ** 63, 1], [0, ExactScalar(0, 0, 0, -2 ** 80)]])
    assert big.scale(Fraction(1, 2 ** 80)).num.dtype == object
    third = Matrix.from_rows([[Fraction(2 ** 63, 3), 0]])
    assert third.num.dtype == object and third.den == 3
    back = third.scale(Fraction(3, 8))
    assert back.num.dtype == np.int64 and back.den == 1
    assert back == Matrix.from_rows([[2 ** 60, 0]])
    zero = a - a
    assert zero == Matrix(3, 3) and zero.den == 1 and zero.is_zero()


def test_to_complex_past_float_range_rounds_each_entry_as_its_scalar():
    huge = 10 ** 331
    m = Matrix.from_rows([[Fraction(1, 3), Fraction(huge + 1, huge)],
                          [ExactScalar(0, Fraction(7, 2 ** 1100)),
                           ExactScalar(Fraction(2 ** 1030 + 1, 2 ** 1020),
                                       0, 0, 1)]])
    assert max(m.bits, m.den.bit_length()) > 1022
    arr = m.to_complex()
    assert arr.shape == (2, 2)
    assert all(arr[i, j] == m.get(i, j).to_complex()
               for i in range(2) for j in range(2))
    assert arr[0, 0] == 1 / 3 and arr[0, 1] == 1.0
    with pytest.raises(OverflowError, match="past float range"):
        Matrix.from_rows([[1, 2 ** 1030]]).to_complex()


# -- the float64 path under the 53-bit bound -----------------------------------


def q_matrix_from_components(comps) -> Matrix:
    """The integer matrix sum_c comps[c] * e_c over the basis 1, sqrt2, i,
    i*sqrt2; comps is one array of shape (rows, cols) per component."""
    num = np.zeros((4,) + np.shape(comps[0]), dtype=np.int64)
    num[:len(comps)] = comps
    return Matrix._make(num, 1)


def through_the_object_path(a: Matrix, b: Matrix) -> Matrix:
    """a @ b with a scaled past 2^62 first, so that the product runs on
    Python ints, then scaled back; the scaling may divide at most 2^2 (of
    a denominator up to 60) out of a."""
    big = Fraction(2 ** max(40, 66 - a.bits))
    wide = a.scale(big)
    assert wide.num.dtype == object
    return (wide @ b).scale(1 / big)


@pytest.fixture
def gemm_paths(monkeypatch):
    """The exact_float flag of every product, in call order."""
    import dunkldirac.linalg as linalg
    seen, gemm = [], linalg._gemm

    def spy(lhs, rhs, exact_float):
        seen.append(exact_float)
        return gemm(lhs, rhs, exact_float)

    monkeypatch.setattr(linalg, "_gemm", spy)
    return seen


def extreme_entries(rng, shape, bits):
    """Random entries of magnitude near 2^bits - 1, the first one exactly
    that, so the matrix has bit length `bits`."""
    top = 2 ** bits - 1
    vals = np.array([rng.choice((-1, 1)) * rng.randint(top - 1000, top)
                     for _ in range(int(np.prod(shape)))], dtype=np.int64)
    vals[0] = top
    return vals.reshape(shape)


def test_real_product_at_the_53_bit_bound_runs_in_float(gemm_paths):
    # bits 23 + 23 + bitlen(4) + 4 = 53: exactly at the bound
    rng = random.Random(53)
    a = q_matrix_from_components([extreme_entries(rng, (3, 4), 23)])
    b = q_matrix_from_components([extreme_entries(rng, (4, 5), 23)])
    assert (a.bits, b.bits, a.comps, b.comps) == (23, 23, (0,), (0,))
    assert a._fits(b, 4, 53) and not a._fits(b, 4, 52)
    prod = a @ b
    assert gemm_paths == [True]
    assert prod.num.dtype == np.int64
    assert prod == through_the_object_path(a, b)
    want = (np.array(a.num[0], dtype=object)
            @ np.array(b.num[0], dtype=object))
    assert prod.num[0].tolist() == want.tolist()


def test_field_product_at_the_53_bit_bound_runs_in_float(gemm_paths):
    # all four components; bits 24 + 22 + bitlen(5) + 4 = 53
    rng = random.Random(54)
    a = q_matrix_from_components(
        [extreme_entries(rng, (3, 5), 24) for _ in range(4)])
    b = q_matrix_from_components(
        [extreme_entries(rng, (5, 2), 22) for _ in range(4)])
    assert (a.bits, b.bits, a.comps, b.comps) == (24, 22, (0, 1, 2, 3),
                                                  (0, 1, 2, 3))
    assert a._fits(b, 5, 53) and not a._fits(b, 5, 52)
    prod = a @ b
    # one float product per live pair of components
    assert gemm_paths == [True] * 16
    assert prod == through_the_object_path(a, b)
    assert sympy_equal(prod, to_sympy_matrix(a) * to_sympy_matrix(b))


def test_product_above_the_bound_where_float_rounds_stays_exact(gemm_paths):
    # bits 25 + 24 + bitlen(3) + 4 = 55.  The bound keeps one bit of
    # slack (its partial sums stay below 2^52), so at 54 no product can
    # round yet; at 55 this one does.  Its real part is
    # sum_k a0 b0 + 2 a1 b1 - a2 b2 - 2 a3 b3 with every term positive,
    # an odd integer above 2^53.
    top_a, top_b = 2 ** 25 - 1, 2 ** 24 - 1
    row = np.full((1, 3), top_a)
    col = np.full((3, 1), top_b)
    a0 = row.copy()
    a0[0, 0] -= 1          # one even term makes the sum odd
    a = q_matrix_from_components([a0, row, row, row])
    b = q_matrix_from_components([col, col, -col, -col])
    assert (a.bits, b.bits) == (25, 24)
    assert not a._fits(b, 3, 54) and a._fits(b, 3, 55)
    # the float64 GEMM of these stacked operands rounds
    lhs = np.hstack([a.num[0], a.num[1], a.num[2], a.num[3]])
    rhs = np.vstack([b.num[0], 2 * b.num[1], -b.num[2], -2 * b.num[3]])
    exact = int((lhs.astype(object) @ rhs.astype(object))[0, 0])
    assert exact > 2 ** 53 and exact % 2 == 1
    floated = lhs.astype(np.float64) @ rhs.astype(np.float64)
    assert int(floated[0, 0]) != exact
    # the product takes the int64 path, one product per live pair of
    # components, and stays exact
    prod = a @ b
    assert gemm_paths == [False] * 16
    assert prod.num.dtype == np.int64
    assert int(prod.num[0, 0, 0]) == exact
    assert prod == through_the_object_path(a, b)
    assert sympy_equal(prod, to_sympy_matrix(a) * to_sympy_matrix(b))


# -- products by live component pairs ------------------------------------------

# the 15 nonempty subsets of the components 1, sqrt2, i, i*sqrt2
SUBSETS = [tuple(c for c in range(4) if mask >> c & 1)
           for mask in range(1, 16)]


def subset_matrix(rng, nrows, ncols, comps) -> Matrix:
    """Random entries over denominators 1..6 whose nonzero components are
    exactly comps: entry (0, 0) has every one of them nonzero."""
    def part(c, first):
        if c not in comps:
            return 0
        return Fraction(rng.randint(1, 5) if first else rng.randint(-5, 5),
                        rng.randint(1, 6))
    m = Matrix.from_row_dicts(nrows, ncols, [
        {j: ExactScalar(*(part(c, (i, j) == (0, 0)) for c in range(4)))
         for j in range(ncols)} for i in range(nrows)])
    assert m.comps == comps
    return m


def lifted(m: Matrix, bits: int) -> Matrix:
    """m times a prime above every denominator, so that its numerator
    keeps its gcd with den and has bit length bits or bits + 1."""
    return m.scale(sympy.prevprime(2 ** (bits - m.bits + 1)))


def dense_product(a: Matrix, b: Matrix) -> Matrix:
    """a @ b entry by entry in ExactScalar arithmetic."""
    da, db = a.to_dense(), b.to_dense()
    return Matrix.from_rows([[sum((da[i][t] * db[t][j]
                                   for t in range(a.ncols)), ZERO)
                              for j in range(b.ncols)]
                             for i in range(a.nrows)])


def dense_kron(a: Matrix, b: Matrix) -> Matrix:
    da, db = a.to_dense(), b.to_dense()
    return Matrix.from_rows([[x * y for x in ra for y in rb]
                             for ra in da for rb in db])


@pytest.mark.parametrize("path", ["float64", "int64", "object"])
def test_products_of_every_pair_of_component_subsets(gemm_paths, path):
    """@ and kron on every pair of nonempty component subsets (15 x 15),
    with mixed denominators, under each of the three bounds: one GEMM per
    live pair, only reachable components in the result, canonical form,
    and the same matrix as the object path and entrywise ExactScalar
    arithmetic; a sample is checked against sympy."""
    rng = random.Random({"float64": 53, "int64": 62, "object": 63}[path])
    pairs = [(ca, cb) for ca in SUBSETS for cb in SUBSETS]
    sample = set(rng.sample(pairs, 4))
    for ca, cb in pairs:
        a = subset_matrix(rng, 2, 3, ca)
        b = subset_matrix(rng, 3, 2, cb)
        if path == "int64":  # bits(A) + bits(B) + bitlen(3) + 4 is 57 or 58
            a = lifted(a, 51 - b.bits)
        elif path == "object":  # entries of A past 2^62
            a = lifted(a, 70)
        assert a.comps == ca
        assert a._fits(b, 3, 53) == (path == "float64")
        assert a._fits(b, 3) == (path != "object")
        del gemm_paths[:]
        prod = a @ b
        assert gemm_paths == [path == "float64"] * (len(ca) * len(cb))
        assert set(prod.comps) <= {x ^ y for x in ca for y in cb}
        kron = a.kron(b)
        for m in (prod, kron):
            assert_canonical(m)
        assert prod == through_the_object_path(a, b) == dense_product(a, b)
        assert kron == dense_kron(a, b)
        if (ca, cb) in sample:
            sa, sb = to_sympy_matrix(a), to_sympy_matrix(b)
            assert sympy_equal(prod, sa * sb)
            assert sympy_equal(kron, sympy.kronecker_product(sa, sb))


def test_a_reachable_component_that_cancels_is_not_live():
    i = ExactScalar(0, 0, 1)
    # 1 * 1 + i * i: two pairs reach component 1 and cancel there
    zero = Matrix.from_rows([[1, i]]) @ Matrix.from_rows([[1], [i]])
    assert_canonical(zero)
    assert zero == Matrix(1, 1) and zero.comps == () and zero.den == 1
    # (1/2 + i/2)(1 - i) = 1: the i parts cancel and the 2 divides out
    half = Matrix.from_rows([[ExactScalar(Fraction(1, 2), 0, Fraction(1, 2))]])
    one = half @ Matrix.from_rows([[ExactScalar(1, 0, -1)]])
    assert_canonical(one)
    assert one == Matrix.identity(1) and one.comps == (0,) and one.den == 1
    # (1 + i)(1 - i) = 2 keeps one plane by product, scaling, kron and sum
    one_i, conj = (Matrix.from_rows([[ExactScalar(1, 0, s)]]) for s in (1, -1))
    two = Matrix.from_rows([[2]])
    for got in (one_i @ conj, one_i.scale(ExactScalar(1, 0, -1)),
                one_i.kron(conj), one_i + conj):
        assert got == two and got.num.shape == (1, 1, 1)
    # (1 + sqrt2)(1 - sqrt2) = -1 on 2 x 2 blocks: the sqrt2 planes cancel
    s, t = (Matrix.identity(2).scale(ExactScalar(1, q)) for q in (1, -1))
    assert (s @ t).num.shape == (1, 2, 2) and s @ t == Matrix.identity(
        2).scale(-1)


# -- the live-plane layout -----------------------------------------------------


def dense_sum(*signed):
    """The entrywise sum of sign * dense matrix over (sign, dense) pairs."""
    rows, cols = len(signed[0][1]), len(signed[0][1][0])
    return [[sum((d[i][j] if sign > 0 else -d[i][j] for sign, d in signed),
                 ZERO) for j in range(cols)] for i in range(rows)]


@pytest.mark.parametrize("wide", [False, True], ids=["int64", "object"])
def test_every_routine_keeps_only_live_planes(wide):
    """Every routine that returns a matrix, on operands whose live
    components run over all 15 nonempty sets, with int64 numerators and
    with `object` numerators above 62 bits: each result holds exactly
    len(comps) planes, none all zero, and its entries match the
    reference built from `rows` in ExactScalar arithmetic; products also
    match sympy on a sample."""
    rng = random.Random(1523 + wide)
    sample = set(rng.sample(range(len(SUBSETS)), 3))
    zero = Matrix(2, 3)
    assert zero.num.shape == (0, 2, 3) and zero.comps == ()
    assert zero.rows == [{}, {}] and zero.get(1, 2) == ZERO
    assert not zero.to_complex().any()
    for n, ca in enumerate(SUBSETS):
        cb = SUBSETS[(7 * n + 3) % 15]
        a = subset_matrix(rng, 2, 3, ca)
        c = subset_matrix(rng, 2, 3, cb)
        if wide:
            a = lifted(a, 70)
            assert a.num.dtype == object and a.comps == ca
        b = subset_matrix(rng, 3, 3, SUBSETS[(4 * n + 1) % 15])
        da, db, dc = a.to_dense(), b.to_dense(), c.to_dense()
        assert_canonical(a)
        # reading entries: get, rows, to_complex and equality
        assert all(a.get(i, j) == da[i][j] for i in range(2)
                   for j in range(3))
        assert Matrix.from_row_dicts(2, 3, a.rows) == a
        assert a == Matrix.from_rows(da)
        assert a != c or ca == cb
        arr = a.to_complex()
        assert all(arr[i, j] == da[i][j].to_complex() for i in range(2)
                   for j in range(3))
        # sums, scaling, conjugate transpose and trace
        s = ExactScalar(*(Fraction(rng.randint(1, 5), rng.randint(1, 4))
                          if k in cb else 0 for k in range(4)))
        checks = [
            (a + c, dense_sum((1, da), (1, dc))),
            (a - c, dense_sum((1, da), (-1, dc))),
            (signed_sum([(1, a), (-1, c), (-1, a)]), dense_sum((-1, dc))),
            (a.scale(s), [[s * x for x in row] for row in da]),
            (a.dagger(), [[da[i][j].conjugate() for i in range(2)]
                          for j in range(3)]),
            (stack([a, c, zero], 1), [ra + rc + [ZERO] * 3
                                      for ra, rc in zip(da, dc)]),
            (stack([a, zero, c], 0), da + [[ZERO] * 3] * 2 + dc),
            (a @ b, dense_product(a, b).to_dense()),
            (a.kron(c), dense_kron(a, c).to_dense()),
            (sum_of_krons([(a, c), (c, a), (zero, a)]),
             dense_sum((1, dense_kron(a, c).to_dense()),
                       (1, dense_kron(c, a).to_dense()))),
            # transposed planes, which the row-major reading must copy
            (sum_of_krons([(a.dagger(), c.dagger()),
                           (c.dagger(), a.dagger())]),
             dense_sum((1, dense_kron(a.dagger(), c.dagger()).to_dense()),
                       (1, dense_kron(c.dagger(), a.dagger()).to_dense()))),
        ]
        for got, want in checks:
            assert_canonical(got)
            assert got.to_dense() == want
        assert (b.trace() == b.get(0, 0) + b.get(1, 1) + b.get(2, 2))
        spot = next(((i, j) for i in range(2) for j in range(3)
                     if da[i][j] != dc[i][j]), None)
        assert first_nonzero([(1, a), (-1, c)]) == spot
        assert first_nonzero([(1, a), (1, zero), (-1, a)]) is None
        if n in sample:
            sa, sb, sc = (to_sympy_matrix(x) for x in (a, b, c))
            assert sympy_equal(a @ b, sa * sb)
            assert sympy_equal(a.kron(c), sympy.kronecker_product(sa, sc))


# -- the one sum kernel ------------------------------------------------------


def test_signed_sum_matches_a_pairwise_fold_and_sympy():
    # all four components, denominators 1..6 mixed within and across terms
    rng = random.Random(1414)
    for _ in range(8):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        terms = [(rng.choice((1, -1)), random_q_matrix(rng, r, c))
                 for _ in range(rng.randint(1, 5))]
        got = signed_sum(terms)
        assert_canonical(got)
        fold = terms[0][1] if terms[0][0] > 0 else -terms[0][1]
        for sign, m in terms[1:]:
            fold = fold + m if sign > 0 else fold - m
        assert got == fold
        want = sum((to_sympy_matrix(m) * sign for sign, m in terms),
                   sympy.zeros(r, c))
        assert sympy_equal(got, want)


def peaked(bits: int, den: int, sign: int = 1) -> Matrix:
    """A 1x2 matrix over den whose numerator has bit length exactly bits
    and is prime to den."""
    top = 2 ** bits - 1
    while math.gcd(top, den) != 1:
        top -= 2
    num = np.zeros((4, 1, 2), dtype=np.int64)
    num[0, 0] = [sign * top, 1]
    num[3, 0, 1] = -top
    m = Matrix._make(num, den)
    assert (m.bits, m.den) == (bits, den)
    return m


def python_sum(terms):
    """The exact sum, term by term on Python ints: (numerator lists, den)."""
    den = math.lcm(*(m.den for _, m in terms))
    rows, cols = terms[0][1].shape
    num = [[[0] * cols for _ in range(rows)] for _ in range(4)]
    for sign, m in terms:
        f = sign * (den // m.den)
        for c in range(4):
            for i in range(m.nrows):
                for j in range(m.ncols):
                    num[c][i][j] += f * int(m.plane(c)[i, j])
    return num, den


@pytest.mark.parametrize("top_bits, dtype", [(58, np.int64), (59, object)])
def test_signed_sum_takes_int64_exactly_up_to_the_62_bit_bound(top_bits,
                                                                dtype):
    # lcm den 3: the top_bits term over den 1 is rescaled by 3 (bitlen 2)
    # and the (top_bits + 1)-bit term over den 3 by 1 (bitlen 1), so the
    # peak is top_bits + 2; three terms add bitlen(3) = 2.  58 gives 62,
    # at the bound; 59 gives 63, past it.
    terms = [(1, peaked(top_bits, 1)), (1, peaked(top_bits + 1, 3)),
             (-1, peaked(50, 3, -1))]
    num, den, comps = _signed_numerator(terms)
    assert num.dtype == dtype and den == 3 and comps == (0, 3)
    want, den = python_sum(terms)
    assert num.tolist() == [want[c] for c in comps]
    assert not any(map(any, want[1] + want[2]))
    got = signed_sum(terms)
    assert_canonical(got)
    assert got == Matrix._make(np.array(want, dtype=object), den)
    # a stack adds nothing, weight 1: one bit more on both terms gives the
    # peak top_bits + 3, so 61 at 58 and 62, past the bound, at 59
    mats = [peaked(top_bits + 1, 1), peaked(top_bits + 2, 3)]
    assert _operand(mats, 0).num.dtype == dtype
    assert stack(mats, 0) == Matrix.from_rows(
        [[m.get(0, j) for j in range(2)] for m in mats])


def test_signed_sum_of_a_cancelling_combination_is_the_canonical_zero():
    rng = random.Random(99)
    a = random_q_matrix(rng, 2, 3)
    b = random_q_matrix(rng, 2, 3, big=70)
    zero = signed_sum([(1, a), (1, b), (-1, a), (-1, b), (1, Matrix(2, 3))])
    assert zero == Matrix(2, 3) and zero.den == 1 and zero.is_zero()
    assert zero.num.dtype == np.int64 and zero.bits == 0
    assert first_nonzero([(1, a), (1, b), (-1, b), (-1, a)]) is None
    assert signed_sum([(-1, Matrix(2, 3))]) == Matrix(2, 3)
    # the first nonzero entry, row-major, of the difference
    c = a + Matrix.from_row_dicts(2, 3, [{}, {1: rat("1/9")}])
    assert first_nonzero([(1, c), (-1, a)]) == (1, 1)


def test_signed_sum_rejects_a_shape_mismatch_and_an_empty_sum():
    with pytest.raises(ValueError, match="shape mismatch"):
        signed_sum([(1, Matrix(2, 3)), (1, Matrix(3, 2))])
    with pytest.raises(ValueError, match="shape mismatch"):
        Matrix.identity(2) + Matrix.identity(3)
    with pytest.raises(ValueError):
        signed_sum([])


# -- Kronecker sums as one product ---------------------------------------------


class Slices:
    """The slice dimensions a zero-term kron_sum reads its shapes from."""
    max_degree = 3

    @staticmethod
    def dim(m: int) -> int:
        return 0 if m < 0 else 2 * m + 1


def test_kron_sum_is_the_sum_of_its_krons():
    """polyrep.kron_sum of 0, 1 and 3 terms, on rectangular blocks of shift
    -1, against the explicit sum of Matrix.kron.  The blocks mix
    denominators 1..6 and all four components, and one entry of the first
    block, 2^61 + 1 over denominator 1, passes 62 bits once rescaled to
    the common denominator, so the stacked blocks run on `object`
    arrays."""
    from dunkldirac.polyrep import kron_sum
    rng = random.Random(1806)
    keys = [1, 2, 3]
    big = {m: Matrix.from_rows([[2 ** 61 + 1] + [0] * m] + [
        [ExactScalar(rng.randint(-3, 3), rng.randint(-3, 3),
                     rng.randint(-3, 3), rng.randint(-3, 3))
         for _ in range(m + 1)] for _ in range(m - 1)]) for m in keys}
    blocks = [big] + [{m: random_q_matrix(rng, m, m + 1) for m in keys}
                      for _ in range(2)]
    mats = [random_q_matrix(rng, 2, 3) for _ in range(3)]
    terms = [(blk.__getitem__, mat) for blk, mat in zip(blocks, mats)]
    for m in keys:
        stacked = [blk[m] for blk in blocks]
        assert len({a.den for a in stacked}) > 1
        assert _operand(stacked, 0).num.dtype == object
        assert _signed_numerator([(1, a) for a in stacked])[0].dtype == object
    for count in (0, 1, 3):
        op = kron_sum(Slices, -1, keys, terms[:count])
        assert op.shift == -1 and list(op.blocks) == keys
        for m in keys:
            got = op.blocks[m]
            assert_canonical(got)
            if count:
                assert got == signed_sum(
                    (1, blk[m].kron(mat)) for blk, mat in
                    zip(blocks[:count], mats))
            else:
                assert got == Matrix(Slices.dim(m - 1), Slices.dim(m))


def scale_through_kron(m: Matrix, s) -> Matrix:
    """s * m as a Kronecker product with a 1x1 matrix, the reference."""
    s = rat(s) if not isinstance(s, ExactScalar) else s
    return m.kron(Matrix._make(np.array([s._p, s._q, s._r, s._s],
                                        dtype=object).reshape(4, 1, 1),
                               s._den))


def test_scale_matches_the_kron_form_and_sympy():
    rng = random.Random(2718)
    scalars = [ExactScalar(0), ExactScalar(Fraction(-3, 4)),
               ExactScalar(0, Fraction(5, 3)), ExactScalar(0, 0, 1),
               ExactScalar(0, 0, 0, Fraction(-7, 2)),
               ExactScalar(*(Fraction(rng.randint(-9, 9), rng.randint(1, 8))
                             for _ in range(4))),
               ExactScalar(Fraction(2 ** 70, 3), 0, -1, 2 ** 65)]
    for big in (0, 70):
        a = random_q_matrix(rng, 3, 2, big=big)
        for s in scalars:
            got = a.scale(s)
            assert_canonical(got)
            assert got == scale_through_kron(a, s)
            assert sympy_equal(got, to_sympy_matrix(a) * to_sympy(s))
    assert Matrix(2, 2).scale(SQRT2) == Matrix(2, 2)
    assert Matrix.identity(2).scale(ZERO) == Matrix(2, 2)


# -- stacked products and signed gather-sums ------------------------------------


def block_of(m: Matrix, i: int, j: int, r: int, c: int) -> Matrix:
    """Block (i, j) of m cut into r x c blocks."""
    return Matrix.from_rows([row[j * c:(j + 1) * c]
                             for row in m.to_dense()[i * r:(i + 1) * r]])


@pytest.mark.parametrize("cap", [512_000, 130, 60, 12, 1])
def test_stacked_product_blocks_are_the_products(monkeypatch, cap):
    """Block (i, j) of stacked_product is lefts[i] @ rights[j] and the
    result is canonical, whether it runs whole (the real cap), rights
    whole against two lefts at a time (130), rights whole against one
    left (60), or one pair at a time (12, the cost of a pair, and 1, below
    it); no GEMM exceeds the cap unless one pair does.  The blocks mix
    denominators and components, one left holds entries past 2^62 and one
    right is zero."""
    from dunkldirac import linalg
    rng = random.Random(2904)
    lefts = [random_q_matrix(rng, 2, 3) for _ in range(3)]
    lefts.append(random_q_matrix(rng, 2, 3, big=62))
    rights = [random_q_matrix(rng, 3, 2) for _ in range(4)] + [Matrix(3, 2)]
    gemm, madds = linalg._gemm, []

    def record_gemm(lhs, rhs, exact_float):
        madds.append(lhs.shape[0] * lhs.shape[1] * rhs.shape[1])
        return gemm(lhs, rhs, exact_float)

    monkeypatch.setattr(linalg, "GEMM_MADDS", cap)
    monkeypatch.setattr(linalg, "_gemm", record_gemm)
    got = stacked_product(lefts, rights)
    assert max(madds) <= max(cap, 2 * 3 * 2)
    assert_canonical(got)
    assert got.shape == (8, 10)
    for i, a in enumerate(lefts):
        for j, b in enumerate(rights):
            assert block_of(got, i, j, 2, 2) == a @ b
    with pytest.raises(ValueError, match="differ in shape"):
        stacked_product([Matrix(2, 3), Matrix(3, 3)], rights)


def test_vanishing_sums_match_signed_sums():
    """Each signed gather-sum of blocks, taken over two matrices cut into
    2 x 2 blocks, decides exactly what the signed_sum of the same scaled
    blocks does: sums that cancel and sums that do not, a coefficient of
    2, and zero coefficients padding the shorter sums.  With entries near
    2^59 over denominators 1..6 the rescaled sums pass 2^62 and run on
    `object` arrays, as does a sum of 2^64, which int64 would wrap to
    zero."""
    rng = random.Random(2905)
    sums = [[(1, 0), (-1, 0)], [(1, 2), (1, 6), (-1, 2), (-1, 6)],
            [(2, 1), (-1, 1), (-1, 1)], [(1, 3)], [(1, 4), (-1, 5)],
            [(1, 0), (1, 1)], [(1, 6), (-1, 6), (1, 5)]]
    width = max(len(t) for t in sums)
    index = [[k for _, k in t] + [0] * (width - len(t)) for t in sums]
    coef = [[c for c, _ in t] + [0] * (width - len(t)) for t in sums]
    for big in (0, 59):
        mats = [random_q_matrix(rng, 4, 6, big=big),
                random_q_matrix(rng, 2, 2, big=big)]
        blocks = [block_of(mats[0], i, j, 2, 2)
                  for i in range(2) for j in range(3)] + [mats[1]]
        got = vanishing_sums(mats, (2, 2), index, coef)
        want = [signed_sum([(1, blocks[k].scale(c)) for c, k in t]).is_zero()
                for t in sums]
        assert got.tolist() == want
        assert want == [True, True, True, False, False, False, False]
    # 8 * 2^61 = 32 * 2^59 = 2^64 wraps to zero in int64: only the object
    # path sees that the sum does not vanish.  2^59 alone has the peak 61,
    # inside the bound, so only the weight 32 of the sum sends it there.
    for entry, weight in ((2 ** 61, 8), (2 ** 59, 32)):
        assert vanishing_sums([Matrix.from_rows([[entry]])], (1, 1), [[0]],
                              [[weight]]).tolist() == [False]
    assert vanishing_sums([Matrix(0, 3)], (0, 3), [[0]], [[1]]).tolist() \
        == [True]
    with pytest.raises(ValueError, match="does not split"):
        vanishing_sums([Matrix(3, 3)], (2, 2), [[0]], [[1]])
