"""Clifford algebra tests.

The multiplication oracle here is deliberately naive: monomials are kept as
explicit index lists and products are sorted one adjacent transposition at a
time, cancelling equal neighbours via c_i^2 = 1.  Slow but independent of the
bitmask implementation.
"""
import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from dunkldirac.clifford import (
    CliffordElement,
    SpinorRep,
    _product_table,
    anticommutator_check,
    monomial_product_check,
    right_multipliers,
    vector_embed,
)
from dunkldirac.linalg import Matrix
from dunkldirac.scalars import HALF, IUNIT, ONE, SQRT2, ZERO, rat

from oracles import star


def naive_mul_word(word):
    """Sort a generator word by adjacent swaps; return (sign, tuple) or None
    for the zero element (never happens with c_i^2 = 1)."""
    w = list(word)
    sign = 1
    # bubble sort, flipping sign per swap
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(w):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                sign = -sign
                changed = True
            elif w[i] == w[i + 1]:
                del w[i:i + 2]
                changed = True
            else:
                i += 1
    return sign, tuple(w)


def naive_product(n, terms_a, terms_b):
    """terms_*: list of (coeff, index tuple).  Returns dict tuple -> coeff."""
    acc = {}
    for ca, wa in terms_a:
        for cb, wb in terms_b:
            sign, w = naive_mul_word(list(wa) + list(wb))
            c = ca * cb
            if sign < 0:
                c = -c
            cur = acc.get(w, ZERO) + c
            if cur.is_zero():
                acc.pop(w, None)
            else:
                acc[w] = cur
    return acc


def to_naive(e):
    return [(v, tuple(i + 1 for i in range(e.n) if m >> i & 1))
            for m, v in e.coeffs.items()]


def random_element(n, rng, nterms=3):
    e = CliffordElement(n)
    for _ in range(nterms):
        idxs = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        coeff = (rat(rng.randint(-4, 4)) + SQRT2 * rng.randint(-2, 2)
                 + IUNIT * rng.randint(-3, 3))
        e = e + CliffordElement.monomial(n, idxs, coeff)
    return e


def test_generator_relations():
    for n in (1, 2, 3, 4, 5):
        assert anticommutator_check(n)


def test_frozen_products():
    n = 3
    c = lambda *ix: CliffordElement.monomial(n, ix)
    # c1c3 * c2c3 = -c1c2
    assert c(1, 3) * c(2, 3) == -c(1, 2)
    # (c_i c_j)^2 = -1 for i != j
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                b = c(i, j)
                assert b * b == CliffordElement.scalar(n, -1)
    # top element squared: (c1c2c3)^2 = -1 (reversal sign at degree 3)
    top = c(1, 2, 3)
    assert top * top == CliffordElement.scalar(n, -1)
    # degree-4 top element squares to +1
    c4 = CliffordElement.monomial(4, (1, 2, 3, 4))
    assert c4 * c4 == CliffordElement.scalar(4, 1)


def test_mul_against_naive_oracle():
    rng = random.Random(7041)
    for n in (2, 3, 4, 5):
        for _ in range(40):
            a = random_element(n, rng)
            b = random_element(n, rng)
            got = {w: c for c, w in to_naive(a * b)}
            want = naive_product(n, to_naive(a), to_naive(b))
            assert got == want


@pytest.mark.parametrize("n", range(1, 7))
def test_blade_sign_table_is_associative(n):
    """sign(S, T) sign(S xor T, U) == sign(T, U) sign(S, T xor U) over all
    triples of blade masks: the one assumption under the cocycle table's
    derivation along BFS words."""
    signs, masks = _product_table(n)
    every = np.arange(1 << n)[:, None, None]
    left = signs[:, :, None] * signs[masks]
    right = signs[None, :, :] * signs[every, masks[None, :, :]]
    assert left.shape == (1 << n,) * 3
    assert np.array_equal(left, right)


def test_right_multipliers_act_by_the_clifford_product():
    rng = random.Random(5521)
    for n in (1, 2, 3, 4):
        size = 1 << n
        xs = [random_element(n, rng) for _ in range(6)]
        xs[0] = xs[0] * SQRT2 * HALF + CliffordElement.scalar(n, rat("1/3"))
        rows = Matrix.from_row_dicts(len(xs), size, (x.coeffs for x in xs))
        for x, r in zip(xs, right_multipliers(rows)):
            assert r == Matrix.from_row_dicts(size, size, [
                (CliffordElement(n, {s: ONE}) * x).coeffs
                for s in range(size)])
            y = random_element(n, rng)
            got = Matrix.from_row_dicts(1, size, [y.coeffs]) @ r
            assert got == Matrix.from_row_dicts(1, size, [(y * x).coeffs])


def test_vector_embedding():
    # iota(v)^2 = |v|^2 for the unit vector (e1 - e2)/sqrt(2)
    n = 3
    h = HALF * SQRT2
    v = vector_embed(n, [h, -h, ZERO])
    assert v * v == CliffordElement.scalar(n, 1)
    # bilinear: iota(u) iota(v) + iota(v) iota(u) = 2 <u, v>
    u = vector_embed(n, [1, 2, -1])
    w = vector_embed(n, [3, 0, 1])
    assert u * w + w * u == CliffordElement.scalar(n, 2 * (3 + 0 - 1))


def test_spinorial_norm_of_unit_vector_products():
    # products of unit vectors have norm N(eta) = eta* eta = +-1
    n = 3
    h = HALF * SQRT2
    a = vector_embed(n, [h, -h, ZERO])
    b = vector_embed(n, [ZERO, h, -h])
    eta = a * b
    assert star(eta) * eta == CliffordElement.scalar(n, 1)
    assert star(a) * a == CliffordElement.scalar(n, -1)


def test_print_and_parse_roundtrip():
    n = 3
    e = (CliffordElement.monomial(n, (1, 2), rat("3/2"))
         - CliffordElement.generator(n, 3)
         + CliffordElement.scalar(n, rat("1/2") + SQRT2)
         + CliffordElement.monomial(n, (1, 2, 3), IUNIT * rat("1/4")))
    s = str(e)
    assert "c1 c2" in s


def test_spinor_rep_pauli_for_n2():
    rep = SpinorRep(2)
    assert rep.dim == 2
    px = Matrix.from_rows([[0, 1], [1, 0]])
    py = Matrix.from_rows([[ZERO, -IUNIT], [IUNIT, ZERO]])
    assert rep.sigma(CliffordElement.generator(2, 1)) == px
    assert rep.sigma(CliffordElement.generator(2, 2)) == py


def test_spinor_rep_dimensions_and_relations():
    for n in (1, 2, 3, 4, 5):
        rep = SpinorRep(n)
        assert rep.dim == 1 << (n // 2)
        eye2 = Matrix.identity(rep.dim).scale(2)
        for i in range(1, n + 1):
            gi = rep.sigma(CliffordElement.generator(n, i))
            # Hermitian generators
            assert gi.dagger() == gi
            for j in range(1, n + 1):
                gj = rep.sigma(CliffordElement.generator(n, j))
                want = eye2 if i == j else Matrix(rep.dim, rep.dim)
                assert gi @ gj + gj @ gi == want


def conjugate_reversal(x):
    """Anti-linear reversal: a monomial of degree k times (-1)^(k(k-1)/2),
    its coefficient conjugated.  With c_i^2 = +1 the spinor matrices of the
    generators are Hermitian, so this (not star) matches the matrix
    adjoint; the two agree on the even subalgebra."""
    return CliffordElement(x.n, {
        m: v.conjugate() * (-1) ** (m.bit_count() * (m.bit_count() - 1) // 2)
        for m, v in x.coeffs.items()})


def test_spinor_rep_is_multiplicative_and_star_compatible():
    rng = random.Random(3317)
    for n in (2, 3, 4):
        rep = SpinorRep(n)
        for _ in range(15):
            a = random_element(n, rng)
            b = random_element(n, rng)
            assert rep.sigma(a * b) == rep.sigma(a) @ rep.sigma(b)
            # adjoint matches the anti-linear reversal for every element,
            # and the graded star only on the even subalgebra
            assert rep.sigma(a).dagger() == rep.sigma(conjugate_reversal(a))
            ev = CliffordElement(n, {m: v for m, v in (a * b).coeffs.items()
                                     if m.bit_count() % 2 == 0})
            assert rep.sigma(ev).dagger() == rep.sigma(star(ev))


def test_spinor_image_is_one_sum_of_scaled_monomials():
    rng = random.Random(4242)
    for n in (2, 3, 4):
        rep = SpinorRep(n)
        assert rep.sigma(CliffordElement(n)) == Matrix(rep.dim, rep.dim)
        for _ in range(5):
            a = random_element(n, rng)
            chained = Matrix(rep.dim, rep.dim)
            for mask, v in a.coeffs.items():
                chained = chained + rep._monomial_matrix(mask).scale(v)
            assert rep.sigma(a) == chained


def per_pair_clifford_suite(n: int, sig) -> list:
    """The clifford suite with its monomial check as the plain loop over
    all 4^n pairs of blades, each product formed on its own: the
    reference for the stacked check."""
    from dunkldirac.polyrep import _check_record
    blades = [CliffordElement(n, {mask: ONE}) for mask in range(1 << n)]
    images = [sig.sigma(x) for x in blades]
    herm = all(images[1 << i].dagger() == images[1 << i] for i in range(n))
    mult = all(sig.sigma(xa * xb) == images[a] @ images[b]
               for a, xa in enumerate(blades) for b, xb in enumerate(blades))
    return [_check_record("generator anticommutation relations",
                          anticommutator_check(n)),
            _check_record("spinor images of the generators are Hermitian",
                          herm),
            _check_record("spinor representation respects every "
                          "monomial product", mult)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_stacked_monomial_check_matches_the_pairwise_loop(n):
    """The clifford suite, whose monomial check reads all 4^n products off
    one stacked product, gives records JSON-equal to the pairwise loop,
    for the ranks of S3, B2, B3, S4 and I2(4) and beyond; at n = 6 the
    stacked product runs in five pieces under the GEMM cap."""
    from dunkldirac.cli import _suite_clifford
    sig = SpinorRep(n)
    got = _suite_clifford(SimpleNamespace(n=n, spin=sig), None)
    want = per_pair_clifford_suite(n, sig)
    assert json.dumps(got) == json.dumps(want)
    assert all(r["status"] == "pass" for r in got)


@pytest.mark.parametrize("n", [2, 4])
def test_monomial_check_catches_one_wrong_entry(n):
    """One entry of one blade's spinor image off by one: the stacked check
    fails, as does the pairwise comparison of the same images."""
    sig = SpinorRep(n)
    size = 1 << n
    images = [sig.sigma(CliffordElement(n, {mask: ONE}))
              for mask in range(size)]
    assert monomial_product_check(images)
    images[size - 1] = images[size - 1] + Matrix.from_row_dicts(
        sig.dim, sig.dim, [{0: 1}] + [{}] * (sig.dim - 1))
    assert not monomial_product_check(images)
    signs, masks = _product_table(n)
    assert not all(images[a] @ images[b]
                   == images[masks[a, b]].scale(int(signs[a, b]))
                   for a in range(size) for b in range(size))


def test_spinor_rep_odd_n_last_generator():
    # for n = 2k+1 the adjoined generator is i^k c_1 ... c_2k
    for n in (3, 5):
        k = n // 2
        rep = SpinorRep(n)
        prod = Matrix.identity(rep.dim)
        for i in range(1, 2 * k + 1):
            prod = prod @ rep.sigma(CliffordElement.generator(n, i))
        phase = ONE
        for _ in range(k):
            phase = phase * IUNIT
        assert rep.sigma(CliffordElement.generator(n, n)) == prod.scale(phase)
