"""Clifford algebra on n Euclidean generators and its spinor representation.

Monomials c_S are encoded as bitmasks over sorted index sets; the product
sign counts the transpositions needed to merge two sorted monomials, with
c_i^2 = +1.  The spinor representation is the standard Fock-space model
with Pauli-type matrices; for odd n the last generator is the signed
product of the others ("+" class).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import Matrix, signed_sum, stacked_product, vanishing_sums
from .scalars import Combination, IUNIT, ONE, ZERO, as_scalar


def _merge_sign_and_mask(s: int, t: int) -> tuple[int, int]:
    """Multiply monomials c_S * c_T: returns (sign, mask of S xor T)."""
    sign = 1
    cur = s
    while t:
        low = t & -t
        t ^= low
        # bits of cur strictly above this generator
        above = cur & ~((low << 1) - 1)
        if above.bit_count() & 1:
            sign = -sign
        cur ^= low
    return sign, cur


def _mask_indices(mask: int):
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


class CliffordElement(Combination):
    """Element of the Clifford algebra: dict bitmask -> ExactScalar.

    A scalar operand of +, - or == stands for that multiple of 1.
    """

    __slots__ = ("n",)

    _rule = staticmethod(_merge_sign_and_mask)

    def __init__(self, n: int, coeffs: dict | None = None):
        self.n = n
        coeffs = coeffs or {}
        if any(m >> n for m in coeffs):
            raise ValueError(f"generator index beyond n={n}")
        self.coeffs = {m: v for m, v in coeffs.items() if not v.is_zero()}

    @staticmethod
    def scalar(n: int, v) -> "CliffordElement":
        return CliffordElement(n, {0: as_scalar(v)})

    @staticmethod
    def generator(n: int, i: int) -> "CliffordElement":
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range")
        return CliffordElement(n, {1 << (i - 1): ONE})

    @staticmethod
    def monomial(n: int, indices, coeff=ONE) -> "CliffordElement":
        bits = [1 << (i - 1) for i in indices]
        if len(set(bits)) < len(bits):
            raise ValueError("repeated index in monomial")
        return CliffordElement(n, {sum(bits): coeff})

    def _ctx(self):
        return self.n

    def _like(self, coeffs: dict) -> "CliffordElement":
        out = CliffordElement(self.n)
        out.coeffs = coeffs
        return out

    def _coerce(self, other):
        if not isinstance(other, Combination):
            other = CliffordElement.scalar(self.n, other)
        return super()._coerce(other)

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for m in sorted(self.coeffs):
            v = self.coeffs[m]
            mono = " ".join(f"c{i}" for i in _mask_indices(m))
            if m == 0:
                bits.append(str(v))
            elif v == ONE:
                bits.append(mono)
            elif v == -ONE:
                bits.append(f"-{mono}")
            elif v.is_rational() or v.is_real() or v in (IUNIT, -IUNIT):
                sv = str(v)
                if " " in sv:
                    sv = f"({sv})"
                bits.append(f"{sv} {mono}")
            else:
                bits.append(f"({v}) {mono}")
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

    __repr__ = __str__


def vector_embed(n: int, vec) -> CliffordElement:
    """iota: R^n -> degree-1 Clifford elements, e_i -> c_i."""
    if len(vec) != n:
        raise ValueError("vector length mismatch")
    return CliffordElement(n, {1 << i: as_scalar(v)
                               for i, v in enumerate(vec)})


@lru_cache(maxsize=None)
def _product_table(n: int):
    """(sign, mask) arrays of c_S * c_T, indexed [S, T] over blade masks."""
    size = 1 << n
    table = np.array([_merge_sign_and_mask(s, t) for s in range(size)
                      for t in range(size)], dtype=np.int64)
    return table[:, 0].reshape(size, size), table[:, 1].reshape(size, size)


def right_multipliers(rows: Matrix):
    """R(x) for each row x of rows, coefficient rows over the blade masks of
    n generators: the exact 2^n x 2^n matrix with y x = y R(x) for every
    such row y.  R(x)[S, U] = sign(c_S c_T) x_T for T = S xor U, one signed
    gather of x's row, so x's canonical form as a 1-row matrix gives R(x)'s
    den, bits and comps."""
    signs, masks = _product_table(rows.ncols.bit_length() - 1)
    gather = np.take_along_axis(signs, masks, axis=1)
    for i in range(rows.nrows):
        x = Matrix._make(rows.num[:, i:i + 1], rows.den, rows.comps)
        yield Matrix._build(gather * x.num[:, 0, masks], x.den, x.bits,
                            x.comps)


def monomial_product_check(images) -> bool:
    """Whether images[a] @ images[b] = sign(c_a c_b) images[a ^ b] for
    every pair of blade masks a, b, images[S] being the matrix of the
    blade c_S in a representation of the Clifford algebra on n generators.

    One `stacked_product` of the 2^n images one above the next with the
    same images side by side holds every product, block (a, b); each is
    compared with the signed image that `_product_table` names by one
    signed gather-sum (`linalg.vanishing_sums`)."""
    size = len(images)
    signs, masks = _product_table(size.bit_length() - 1)
    pairs = np.arange(size * size)
    index = np.stack([pairs, size * size + masks.ravel()], axis=1)
    coef = np.stack([np.ones_like(pairs), -signs.ravel()], axis=1)
    return bool(vanishing_sums([stacked_product(images, images), *images],
                               images[0].shape, index, coef).all())


def anticommutator_check(n: int) -> bool:
    """c_i c_j + c_j c_i = 2 delta_ij for all pairs."""
    gens = [CliffordElement.generator(n, i) for i in range(1, n + 1)]
    return all(ci * cj + cj * ci == (2 if i == j else 0)
               for i, ci in enumerate(gens) for j, cj in enumerate(gens))


class SpinorRep:
    """Spinor representation sigma of the Clifford algebra, dim 2^floor(n/2).

    Even n: Jordan-Wigner chains of Pauli matrices (entries 0, +-1, +-i).
    Odd n = 2k+1: sigma(c_n) := i^k sigma(c_1) ... sigma(c_2k), the "+"
    equivalence class.
    """

    def __init__(self, n: int):
        self.n = n
        k = n // 2
        self.dim = 1 << k
        px = Matrix.from_rows([[0, 1], [1, 0]])
        py = Matrix.from_rows([[ZERO, -IUNIT], [IUNIT, ZERO]])
        pz = Matrix.from_rows([[1, 0], [0, -1]])
        i2 = Matrix.identity(2)
        gens = []
        for j in range(1, k + 1):
            for p in (px, py):
                m = Matrix.identity(1)
                for slot in range(1, k + 1):
                    m = m.kron(pz if slot < j else p if slot == j else i2)
                gens.append(m)
        if n % 2 == 1:
            last = Matrix.identity(self.dim)
            for g in gens:
                last = last @ g
            gens.append(last.scale((ONE, IUNIT, -ONE, -IUNIT)[k % 4]))
        self.generators = gens
        self._cache: dict = {}

    def sigma(self, elem: CliffordElement) -> Matrix:
        """Matrix of a Clifford element."""
        if elem.n != self.n:
            raise ValueError("generator count mismatch")
        return signed_sum([(1, Matrix(self.dim, self.dim))] + [
            (1, self._monomial_matrix(mask).scale(v))
            for mask, v in elem.coeffs.items()])

    def _monomial_matrix(self, mask: int) -> Matrix:
        m = self._cache.get(mask)
        if m is None:
            m = Matrix.identity(self.dim)
            for i in _mask_indices(mask):
                m = m @ self.generators[i - 1]
            self._cache[mask] = m
        return m
