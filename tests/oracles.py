"""Oracles shared by the test modules.

Each re-derives a value the engine's checks do not need, so it lives with
the tests rather than in the package: a record list's verdict, the
classical harmonic dimensions, the adjointness of x_i and y_i under the
contravariant form, the conjugacy classes of a reflection group, the
graded star of the Clifford algebra, and the helpers that compare graded
operators, key matrices and read rational scalars.
"""
from fractions import Fraction
from math import comb

import numpy as np

from dunkldirac.clifford import CliffordElement
from dunkldirac.polyrep import contravariant_form


def report_passes(records: list) -> bool:
    return all(r["status"] == "pass" for r in records)


def classical_harmonic_dim(n: int, m: int) -> int:
    """dim of degree-m harmonics for the ordinary Laplacian, trivial tau."""
    below = comb(m - 2 + n - 1, n - 1) if m >= 2 else 0
    return comb(m + n - 1, n - 1) - below


def adjointness_check(family) -> bool:
    """x_i^dagger G_{m+1} = G_m y_i for all i and all degrees below the top."""
    for m in range(family.max_degree):
        g_low = contravariant_form(family, m)
        g_high = contravariant_form(family, m + 1)
        for i in range(1, family.n + 1):
            lhs = family.x_op(i).blocks[m].dagger() @ g_high
            rhs = g_low @ family.y_op(i).blocks[m + 1]
            if lhs != rhs:
                return False
    return True


def conjugacy_classes(group) -> list:
    """Sorted element-index lists, ordered by least element."""
    mul, inv = group.mul_table, group.inv_table
    return [list(c) for c in sorted(
        {tuple(np.unique(mul[mul[:, i], inv]).tolist())
         for i in range(group.order)})]


def star(x: CliffordElement) -> CliffordElement:
    """The anti-linear anti-involution epsilon o reversal: a monomial of
    degree k times (-1)^(k(k+1)/2), its coefficient conjugated."""
    return CliffordElement(x.n, {
        m: v.conjugate() * (-1) ** (m.bit_count() * (m.bit_count() + 1) // 2)
        for m, v in x.coeffs.items()})


def same_operator(a, b) -> bool:
    """Whether two graded operators know the same degrees and agree on
    each of them."""
    return list(a.blocks) == list(b.blocks) and a.matches(b)


def matrix_key(m):
    """Hashable canonical form of an exact matrix: two matrices are equal
    exactly when their shapes, denominators, live planes and entries are."""
    return (m.shape, m.den, m.comps, tuple(m.num.ravel().tolist()))


def rational(x) -> Fraction:
    """The value of a rational scalar."""
    assert x.is_rational(), x
    return x.a
