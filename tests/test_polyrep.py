"""Polynomial realization tests.

Oracles: sympy implements an independent Dunkl operator (symbolic division
with remainder check) and the substitution action, and is the polynomial
algebra the tests feed through the blocks; contravariant forms are
checked against the direct Dunkl-word definition and hand-computed frozen
values; harmonic dimensions against the classical binomial formula.
"""

import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import sympy as sp

from dunkldirac.linalg import Matrix, is_positive_definite
from dunkldirac.polyrep import (
    ModuleFamily,
    _rec,
    center_op,
    contravariant_form,
    custom_rep,
    graded_sum,
    harmonic_subspace,
    kron_sum,
    rca_relation_check,
    reflection_rep,
    s_op,
    sign_rep,
    trivial_rep,
)
from dunkldirac.roots import ParamFunction, root_system
from dunkldirac.scalars import ONE, ZERO, ExactScalar, rat

from oracles import (adjointness_check, classical_harmonic_dim, matrix_key,
                     rational, same_operator)


def params(rs, spec):
    return ParamFunction.from_config(spec, rs)


# -- sympy bridges -------------------------------------------------------------


def sym_vars(n):
    return sp.symbols(f"x1:{n + 1}")


def monomial(e, xs):
    return sp.Mul(*(x ** d for x, d in zip(xs, e)))


def sym(v):
    """An exact scalar as a sympy number."""
    r2 = sp.sqrt(2)
    return (sp.Rational(v.a) + sp.Rational(v.b) * r2
            + sp.I * (sp.Rational(v.c) + sp.Rational(v.d) * r2))


def exact(c):
    """A sympy number a + b sqrt2, a and b rational, as an exact scalar."""
    c = sp.expand(c)
    b = c.coeff(sp.sqrt(2))
    a = sp.expand(c - b * sp.sqrt(2))
    return ExactScalar(Fraction(int(a.p), int(a.q)),
                       Fraction(int(b.p), int(b.q)))


def random_poly(rng, fam, m, xs, terms=4):
    """A nonzero homogeneous degree-m polynomial with random rational
    coefficients on up to `terms` distinct monomials."""
    monos = fam._monos[m]
    return sp.Add(*(sp.Rational(rng.choice([-1, 1]) * rng.randint(1, 12), 3)
                    * monomial(e, xs)
                    for e in rng.sample(monos, min(terms, len(monos)))))


def to_sympy(fam, col, m, xs):
    """The degree-m polynomial whose coefficient on the k-th monomial of
    fam is entry k of the one-column matrix col."""
    return sp.expand(sp.Add(*(sym(col.get(k, 0)) * monomial(e, xs)
                              for k, e in enumerate(fam._monos[m]))))


def coefficients(fam, f, m, xs):
    """The homogeneous degree-m polynomial f as its coefficient column over
    the degree-m monomials of fam."""
    poly = sp.Poly(f, *xs)
    return Matrix.from_row_dicts(len(fam._monos[m]), 1, [
        {0: exact(poly.coeff_monomial(e))} for e in fam._monos[m]])


def sympy_act(g, expr, xs):
    # (w.f)(x) = f(w^{-1} x); w orthogonal, so (w^{-1})_{kl} = w_{lk}
    n = len(xs)
    subs = {xs[k]: sum((sym(g.get(l, k)) * xs[l] for l in range(n)),
                       sp.Integer(0))
            for k in range(n)}
    return sp.expand(sp.sympify(expr).subs(subs, simultaneous=True))


def substituted_block(fam, g, m, xs):
    """The C[x] block of the matrix g on degree m by sympy substitution:
    column k holds the coefficients of g.x^e, x^e the k-th monomial."""
    monos = fam._monos[m]
    images = [sp.Poly(sympy_act(g, monomial(e, xs), xs), *xs) for e in monos]
    return Matrix.from_row_dicts(len(monos), len(monos), [
        {k: exact(img.coeff_monomial(f)) for k, img in enumerate(images)}
        for f in monos])


def sympy_dunkl(i, expr, rs, param, xs):
    out = sp.diff(expr, xs[i])
    for r, c in enumerate(param.per_root(rs)):
        c = rational(c)
        if c == 0:
            continue
        alpha = rs.positive_roots[r]
        ai = rational(alpha[i])
        if ai == 0:
            continue
        form = sp.Integer(0)
        for k, v in enumerate(alpha):
            if not v.is_zero():
                f = rational(v)
                form += sp.Rational(f.numerator, f.denominator) * xs[k]
        diff = sp.expand(expr - sympy_act(rs.reflection(r), expr, xs))
        q, rem = sp.div(diff, form, *xs, domain="QQ")
        assert rem == 0
        out += sp.Rational(c.numerator, c.denominator) \
            * sp.Rational(ai.numerator, ai.denominator) * q
    return sp.expand(out)


# -- the group action -----------------------------------------------------------


SQRT2_DIHEDRAL = {"roots": [["1", "0"], ["0", "1"], ["1/2*sqrt2", "1/2*sqrt2"],
                            ["1/2*sqrt2", "-1/2*sqrt2"]]}


def test_group_action_matches_sympy_substitution():
    """The C[x] block of every group element, trivial tau, on degrees 0-4:
    the identity, each reflection read off its divided difference, and
    the products along BFS words."""
    for name in ("S3", "B2", SQRT2_DIHEDRAL):
        rs = root_system(name)
        fam = ModuleFamily(rs, params(rs, "1/3"), "trivial", max_degree=4)
        xs = sym_vars(rs.n)
        for w, g in enumerate(fam.group.matrices):
            op = fam.w_op(w)
            for m in range(5):
                assert op.blocks[m] == substituted_block(fam, g, m, xs), \
                    (rs.name, w, m)


def one_minus_times_divided(fam, r, m, column):
    """1 - v(x) D_a on degree m, v(x) = sum_p v_p x_p for the n-entry list
    column and D_a the memoised divided difference of root r."""
    if m == 0:
        return Matrix.identity(1)
    v = Matrix.from_rows([[e] for e in column])
    return Matrix.identity(len(fam._monos[m])) - (
        fam._steps[m].up_all @ v.kron(fam._divided[r][m]))


def test_reflection_read_off_the_coroot_fails_on_short_roots():
    """Negative control for s_a = 1 - a(x) D_a: with the coroot a^v in
    place of a the block is wrong on B2's short roots, where a^v = 2a, and
    right on its long ones, where a^v = a."""
    rs = root_system("B2")
    fam = ModuleFamily(rs, params(rs, "1/3"), "trivial", max_degree=3)
    xs = sym_vars(rs.n)
    short = []
    for r, root in enumerate(rs.positive_roots):
        w = fam.group.reflection_element_index(r)
        want = [substituted_block(fam, rs.reflection(r), m, xs)
                for m in range(4)]
        for m in range(4):
            assert one_minus_times_divided(fam, r, m, root) == want[m]
            assert fam.w_op(w).blocks[m] == want[m]
        wrong = [one_minus_times_divided(fam, r, m, rs.coroots[r])
                 for m in range(4)]
        is_short = tuple(rs.coroots[r]) != tuple(root)
        if is_short:
            short.append(r)
            assert all(wrong[m] != want[m] for m in range(1, 4)), r
        else:
            assert wrong == want, r
    assert len(short) == 2


def test_group_action_is_left_action():
    """w_op(u) w_op(v) = w_op(uv) on every block, for every pair of S3
    elements with the reflection tau."""
    rs = root_system("S3")
    fam = ModuleFamily(rs, params(rs, "1/3"), "reflection", max_degree=3)
    grp = fam.group
    for u in range(grp.order):
        for v in range(grp.order):
            lhs = fam.w_op(u) @ fam.w_op(v)
            assert list(lhs.blocks) == [0, 1, 2, 3]
            assert lhs.matches(fam.w_op(grp.mul(u, v))), (u, v)


# -- Dunkl operators -----------------------------------------------------------


def through_block(fam, op, f, xs):
    """op applied to f (x) 1, f a homogeneous sympy polynomial and tau one
    dimensional: f's coefficient column through op's block, read back."""
    m = sp.Poly(f, *xs).total_degree()
    img = op.blocks[m] @ coefficients(fam, f, m, xs)
    return to_sympy(fam, img, m + op.shift, xs)


def test_dunkl_frozen_values_s2():
    rs = root_system("S2")
    fam = ModuleFamily(rs, params(rs, "1/4"), "trivial", max_degree=2)
    x1, x2 = xs = sym_vars(2)
    # hand values: D_1 x_1 = 1 + c, D_1 x_2 = -c on the single root e1 - e2
    y1 = fam.y_op(1)
    assert through_block(fam, y1, x1, xs) == sp.Rational(5, 4)
    assert through_block(fam, y1, x2, xs) == sp.Rational(-1, 4)
    fam0 = ModuleFamily(rs, params(rs, 0), "trivial", max_degree=2)
    assert through_block(fam0, fam0.y_op(1), x1 * x1, xs) == 2 * x1


def negated(param):
    return ParamFunction({k: -v for k, v in param.values.items()})


def test_dunkl_matches_sympy_oracle():
    """Every column of y_op(i).blocks[m], m = 1..3, against the sympy Dunkl
    operator at c on the monomial: with trivial tau at c, and with sign
    tau at -c, where tau(s_a) = -1 flips the divided-difference term
    back.  B2 has two orbits with couplings of both signs."""
    cases = (("S3", "1/2"), ("B2", {"short": "1/3", "long": "-1/2"}))
    for name, spec in cases:
        rs = root_system(name)
        c = params(rs, spec)
        xs = sym_vars(rs.n)
        fams = [ModuleFamily(rs, c, "trivial", max_degree=3),
                ModuleFamily(rs, negated(c), "sign", max_degree=3)]
        for m in (1, 2, 3):
            for e in fams[0]._monos[m]:
                f = monomial(e, xs)
                for i in range(rs.n):
                    want = sympy_dunkl(i, f, rs, c, xs)
                    for fam in fams:
                        got = through_block(fam, fam.y_op(i + 1), f, xs)
                        assert got == want, (name, fam.tau.name, e, i)


def test_dunkl_lowers_degree_exactly():
    rs = root_system("S3")
    c = params(rs, "2/3")
    fam = ModuleFamily(rs, c, "trivial", max_degree=4)
    xs = sym_vars(3)
    x1, x2, x3 = xs
    out = through_block(fam, fam.y_op(2), x1 ** 2 * x2 * x3, xs)
    assert out != 0 and sp.Poly(out, *xs).total_degree() == 3
    # a random polynomial, not only a monomial, through the block
    rng = random.Random(7)
    for m in (2, 3, 4):
        f = random_poly(rng, fam, m, xs)
        assert through_block(fam, fam.y_op(2), f, xs) \
            == sympy_dunkl(1, f, rs, c, xs)


# -- tau representations -------------------------------------------------------


def test_builtin_reps():
    rs = root_system("S3")
    grp = rs.group()
    for rep, dim in ((trivial_rep(grp), 1), (sign_rep(grp), 1),
                     (reflection_rep(grp), 3)):
        assert rep.dim == dim
        for u in range(grp.order):
            for v in range(grp.order):
                assert rep.mat(grp.mul(u, v)) == rep.mat(u) @ rep.mat(v)
            # unitary for the invariant form = identity
            assert rep.mat(u).dagger() @ rep.mat(u) == Matrix.identity(dim)
    sg = sign_rep(grp)
    refl_idx = grp.reflection_element_index(0)
    assert sg.mat(refl_idx).get(0, 0) == -ONE


@pytest.mark.parametrize("name", ["B3", "S4"])
def test_sign_rep_matches_sympy_determinant(name):
    grp = root_system(name).group()
    sg = sign_rep(grp)
    for w, m in enumerate(grp.matrices):
        dense = sp.Matrix([[sp.Rational(rational(m.get(i, j)))
                            for j in range(m.ncols)] for i in range(m.nrows)])
        want = dense.det()
        assert want in (1, -1)
        assert sg.mat(w) == Matrix.from_rows([[int(want)]])


def test_custom_rep_roundtrip_and_validation():
    rs = root_system("B2")
    grp = rs.group()
    simples = rs.simple_root_indices()
    mats = {i: rs.reflection(i) for i in simples}
    rep = custom_rep(grp, mats, name="ambient")
    assert rep.mats == reflection_rep(grp).mats
    bad = dict(mats)
    bad[simples[0]] = Matrix.identity(2).scale(2)
    try:
        custom_rep(grp, bad)
        assert False, "expected rejection"
    except ValueError:
        pass
    try:
        custom_rep(grp, {simples[0]: mats[simples[0]]})
        assert False, "expected missing-generator rejection"
    except ValueError as e:
        assert "simple roots" in str(e)


def test_custom_rep_refuses_involutions_that_break_the_braid_relation():
    """Two reflections of the plane whose mirrors meet at 45 degrees: each
    squares to 1, but their product has order 4, so (s t)^3 = 1 fails and
    the S3 relations do not hold.  The per-(element, simple reflection)
    check names a failing pair."""
    rs = root_system("S3")
    grp = rs.group()
    s, t = rs.simple_root_indices()
    flip = Matrix.from_rows([[1, 0], [0, -1]])
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    assert flip @ flip == swap @ swap == Matrix.identity(2)
    assert (flip @ swap) @ (flip @ swap) != Matrix.identity(2)
    with pytest.raises(ValueError, match=r"not a representation at pair "
                                         r"\(\d+, \d+\)"):
        custom_rep(grp, {s: flip, t: swap})
    # an accepted tau is a homomorphism on every pair, not only on the
    # (element, simple reflection) pairs the check reads
    rep = custom_rep(grp, {s: -Matrix.identity(2), t: -Matrix.identity(2)})
    for u in range(grp.order):
        for v in range(grp.order):
            assert rep.mat(grp.mul(u, v)) == rep.mat(u) @ rep.mat(v)


# -- module family and graded operators ----------------------------------------


def test_slice_dims():
    from math import comb
    rs = root_system("S3")
    c = params(rs, "1/2")
    for tau, d in (("trivial", 1), ("sign", 1), ("reflection", 3)):
        fam = ModuleFamily(rs, c, tau, max_degree=4)
        for m in range(5):
            assert fam.dim(m) == comb(m + 2, 2) * d
    assert fam.dim(-1) == 0 and fam.dim(-5) == 0
    try:
        fam.dim(5)
        assert False
    except ValueError:
        pass


def test_graded_operator_window_semantics():
    rs = root_system("S2")
    fam = ModuleFamily(rs, params(rs, "1/2"), "trivial", max_degree=4)
    x1, y1 = fam.x_op(1), fam.y_op(1)
    assert list(x1.blocks) == [0, 1, 2, 3]
    assert list(y1.blocks) == [0, 1, 2, 3, 4]
    assert y1.blocks[0].shape == (0, 1)
    assert list((x1 @ y1).blocks) == [0, 1, 2, 3, 4]
    assert list((y1 @ x1).blocks) == [0, 1, 2, 3]
    assert list(y1.commutator(x1).blocks) == [0, 1, 2, 3]
    lap = fam.laplacian()
    assert lap.shift == -2 and list(lap.blocks) == [0, 1, 2, 3, 4]
    try:
        x1 + y1
        assert False
    except ValueError as e:
        assert "shift" in str(e)
    x5 = x1 @ x1 @ x1 @ x1 @ x1
    assert list(x5.blocks) == []  # fully clipped at the top of the window
    try:
        x5.matches(x5)
        assert False
    except ValueError as e:
        assert "common" in str(e)


# -- blocks built on first read -------------------------------------------------


class EagerOp:
    """Reference: the eager dict algebra, which builds every block when an
    operator is formed and keeps a key only where the whole chain knows
    it."""

    def __init__(self, family, shift, blocks):
        self.family, self.shift, self.blocks = family, shift, blocks

    @classmethod
    def of(cls, op):
        return cls(op.family, op.shift, dict(op.blocks.items()))

    def block(self, m):
        if m >= 0:
            return self.blocks.get(m)
        t = m + self.shift
        if t > self.family.max_degree:
            return None
        return Matrix(self.family.dim(t) if t >= 0 else 0, 0)

    def __add__(self, other):
        return EagerOp(self.family, self.shift,
                       {m: self.blocks[m] + other.blocks[m]
                        for m in self.blocks if m in other.blocks})

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        return EagerOp(self.family, self.shift,
                       {m: b.scale(s) for m, b in self.blocks.items()})

    def __matmul__(self, other):
        out = {}
        for m, b in other.blocks.items():
            a = self.block(m + other.shift)
            if a is not None:
                out[m] = a @ b
        return EagerOp(self.family, self.shift + other.shift, out)

    def commutator(self, other):
        return (self @ other) - (other @ self)

    def kron(self, family, mat):
        return EagerOp(family, self.shift,
                       {m: b.kron(mat) for m, b in self.blocks.items()})


def _expressions(x, y, w, lift, pair):
    """Composites at the top of the window, through degrees below 0, and
    on the spinor-tensored slices, built with either algebra."""
    return {
        "[x1, y2]": x(1).commutator(y(2)),
        "[x1 x2, y1 y2]": (x(1) @ x(2)).commutator(y(1) @ y(2)),
        "x1^4, clipped away": x(1) @ x(1) @ x(1) @ x(1),
        "x1^4 y1, through degree -1": x(1) @ x(1) @ x(1) @ x(1) @ y(1),
        "x1^5 y1, past the top": x(1) @ x(1) @ x(1) @ x(1) @ x(1) @ y(1),
        "y1 y2 x1": y(1) @ y(2) @ x(1),
        "x2 y1 y2": x(2) @ y(1) @ y(2),
        "signed sum": (x(1) @ y(1)).scale(3) - (y(2) @ x(2)) + -w(1),
        "lifted": (lift(y(1) @ x(2)) @ lift(x(1))
                   - lift(w(2) @ x(2) @ y(2) @ x(1))),
        "paired": pair(x(1), 1) @ pair(y(2), 2) + lift(x(2) @ y(1)),
        "[paired, lifted]": pair(y(1) @ y(2), 1).commutator(lift(x(2))),
    }


@pytest.mark.parametrize("name, c", [("S3", "1/3"),
                                     ("B2", {"long": "1/3", "short": "1/5"})])
def test_lazy_blocks_match_the_eager_algebra(name, c):
    from dunkldirac.clifford import CliffordElement
    from dunkldirac.diracops import build_context
    rs = root_system(name)
    dctx = build_context(rs, params(rs, c), 3, "trivial")
    fam, n = dctx.family, dctx.n

    def gen(i):
        return CliffordElement.generator(n, i)

    lazy = _expressions(fam.x_op, fam.y_op, fam.w_op, dctx.lift,
                        lambda op, i: dctx.pair(op, gen(i)))
    eye = Matrix.identity(dctx.spin.dim)
    ref = _expressions(
        lambda i: EagerOp.of(fam.x_op(i)), lambda i: EagerOp.of(fam.y_op(i)),
        lambda k: EagerOp.of(fam.w_op(k)),
        lambda op: op.kron(dctx.module, eye),
        lambda op, i: op.kron(dctx.module, dctx.spin.sigma(gen(i))))
    assert not ref["x1^4, clipped away"].blocks
    assert list(ref["x1^4 y1, through degree -1"].blocks) == [0]
    assert not ref["x1^5 y1, past the top"].blocks
    for key, op in lazy.items():
        want = ref[key]
        assert op.shift == want.shift, key
        assert list(op.blocks) == sorted(want.blocks), key
        assert all(op.blocks[m] == b for m, b in want.blocks.items()), key


def test_reading_one_block_builds_no_other_degree():
    from dunkldirac.diracops import build_context
    rs = root_system("S3")
    dctx = build_context(rs, params(rs, "1/6"), 4, "trivial")
    casimir = dctx.casimir
    casimir.blocks[1]
    assert list(casimir.blocks._memo) == [1]
    assert list(dctx.ama.omega.blocks._memo) == [1]
    assert list(casimir.blocks) == [0, 1, 2, 3, 4]
    # once every block exists the builder, and what it holds, is dropped
    assert all(b.shape == (dctx.module.dim(m),) * 2
               for m, b in casimir.blocks.items())
    assert casimir.blocks.build is None


def test_a_long_sum_reads_a_block_without_deep_recursion():
    rs = root_system("S3")
    fam = ModuleFamily(rs, params(rs, "1/3"), "trivial", max_degree=3)
    order = fam.group.order
    total = fam.w_op(0)
    for k in range(1, 2000):
        total = total + fam.w_op(k % order)
    want = fam.w_op(0).blocks[2]
    for k in range(1, 2000):
        want = want + fam.w_op(k % order).blocks[2]
    assert total.blocks[2] == want



def test_a_family_is_built_lazily():
    rs = root_system("S3")
    fam = ModuleFamily(rs, params(rs, "1/3"), "trivial", max_degree=3)
    assert "matrices" not in vars(fam.group)
    assert not fam._steps._memo
    assert not any(memo._memo for memo in fam._divided)
    fam.y_op(1)
    assert not any(memo._memo for memo in fam._divided)


@pytest.mark.parametrize("name", ["S3", "B3", "S4", SQRT2_DIHEDRAL],
                         ids=["S3", "B3", "S4", "I2(4)-sqrt2"])
def test_group_blocks_along_bfs_words_match_substitution(name):
    """Every element's block, a product along its BFS word for all but the
    reflections and the identity, against its sympy-substituted C[x]
    block tensored with tau(w), for the built-in taus and a custom one."""
    rs = root_system(name)
    grp = rs.group()
    for w in range(1, grp.order):
        assert grp.mul(grp.parents[w], grp.reflection_element_index(
            grp.words[w][-1])) == w
    flip = Matrix.from_rows([[-1, 0], [0, 1]])
    custom = custom_rep(grp, {r: flip for r in rs.simple_root_indices()},
                        form=Matrix.from_rows([[1, 0], [0, 2]]),
                        name="sign + trivial")
    xs = sym_vars(rs.n)
    fams = [ModuleFamily(rs, params(rs, "1/3"), tau, max_degree=3)
            for tau in ("trivial", "sign", "reflection", custom)]
    for w, g in enumerate(grp.matrices):
        for m in range(4):
            want = substituted_block(fams[0], g, m, xs)
            for fam in fams:
                op = fam.w_op(w)
                assert list(op.blocks) == [0, 1, 2, 3]
                assert op.blocks[m] == want.kron(fam.tau.mat(w))


def test_kron_sum_without_terms_is_zero_on_its_keys():
    rs = root_system("S3")
    fam = ModuleFamily(rs, params(rs, "1/3"), "reflection", max_degree=3)
    op = kron_sum(fam, -1, [1, 3], [])
    assert list(op.blocks) == [1, 3] and op.shift == -1
    for m in (1, 3):
        assert op.blocks[m] == Matrix(fam.dim(m - 1), fam.dim(m))


def test_dunkl_operators_share_the_divided_differences(monkeypatch):
    """y_1..y_n, every D_a and every group element read one memoised D_a
    block per root and degree: the Leibniz builder runs once per root and
    per d_i, n + |Phi+| memos, and makes each (root, degree) block once."""
    built, memos = [], []
    leibniz = ModuleFamily._leibniz

    def spy(self, g, kappa):
        memos.append((g, kappa))
        blocks = leibniz(self, g, kappa)
        build = blocks.build

        def counted(m):
            built.append((g, kappa, m))
            return build(m)
        blocks.build = counted
        return blocks

    monkeypatch.setattr(ModuleFamily, "_leibniz", spy)
    rs = root_system("S4")
    fam = ModuleFamily(rs, params(rs, "1/3"), "reflection", max_degree=3)
    for m in range(4):
        for i in range(1, rs.n + 1):
            fam.y_op(i).blocks[m]
        for memo in fam._divided:
            memo[m]
        for w in range(fam.group.order):
            fam.w_op(w).blocks[m]
    divided = [(rs.reflection(r), Matrix.from_rows([rs.coroots[r]]))
               for r in range(len(rs.positive_roots))]
    assert len(memos) == rs.n + len(divided)
    for g, kappa in divided:
        assert sorted(m for h, k, m in built
                      if (h, k) == (g, kappa)) == [0, 1, 2, 3]
    # the rest are the blocks of the n partial derivatives, once each
    assert len(built) == (len(divided) + rs.n) * 4
    assert len({(matrix_key(g), matrix_key(k), m)
                for g, k, m in built}) == len(built)


def test_euler_operator_at_c0():
    rs = root_system("A1")
    fam = ModuleFamily(rs, params(rs, 0), "trivial", max_degree=4)
    op = fam.x_op(1) @ fam.y_op(1)
    assert op.blocks[3] == Matrix.identity(1).scale(3)
    rs3 = root_system("S3")
    fam3 = ModuleFamily(rs3, params(rs3, 0), "trivial", max_degree=3)
    euler = graded_sum(fam3.x_op(i) @ fam3.y_op(i) for i in (1, 2, 3))
    for m in euler.blocks:
        assert euler.blocks[m] == Matrix.identity(fam3.dim(m)).scale(m)


# -- the defining relations -----------------------------------------------------


def test_rca_relation_check_passes():
    cases = (("S3", "1/2", "trivial", 4),
             ("S2", 0, "trivial", 4),
             ("S3", "1/3", "reflection", 3),
             ("B2", {"short": "1/2", "long": "-1/3"}, "sign", 3))
    for name, spec, tau, deg in cases:
        rs = root_system(name)
        fam = ModuleFamily(rs, params(rs, spec), tau, max_degree=deg)
        report = rca_relation_check(fam)
        assert report["pass"], report["failures"]
        assert report["checks"] > 0 and report["failures"] == []


def test_rca_negative_control():
    # dropping one reflection term from a Dunkl operator must break [y1, x2]
    rs = root_system("S2")
    fam = ModuleFamily(rs, params(rs, "1/2"), "trivial", max_degree=3)
    alpha = rs.positive_roots[0]
    y1 = fam.y_op(1)
    broken = y1 - kron_sum(fam, -1, y1.blocks, [
        (fam._divided[0].__getitem__,
         Matrix.identity(1).scale(rat("1/2") * alpha[0]))])
    comm = broken.commutator(fam.x_op(2))
    assert not comm.matches(s_op(fam, 2, 1))
    bad = comm.first_mismatch(s_op(fam, 2, 1))
    assert bad is not None and bad[0] == 0


def assert_rca_fails_at_a_crossing(g, kappa):
    """rca_relation_check on S3, c = 1/3, with D_a of the first root built
    from g and kappa: it fails, and at a [y_i, x_j] record."""
    rs = root_system("S3")
    c = params(rs, "1/3")
    assert rca_relation_check(ModuleFamily(rs, c, "trivial", 3))["pass"]
    fam = ModuleFamily(rs, c, "trivial", max_degree=3)
    fam._divided[0] = fam._leibniz(g, kappa)
    report = rca_relation_check(fam)
    assert not report["pass"]
    assert any(re.fullmatch(r"\[y\d,x\d\]", f["relation"])
               for f in report["failures"])


def test_rca_check_catches_a_wrong_leibniz_coefficient():
    """D_a with kappa = 2 a^v for one root, in place of the a^v that makes
    it (1 - s_a)/a(x): the relation suite fails at a [y_i, x_j] record,
    although the reflection s_a = 1 - a(x) D_a is read off the same wrong
    D_a.  That is the error a remainder check on the division by a(x)
    stood for."""
    rs = root_system("S3")
    assert_rca_fails_at_a_crossing(
        rs.reflection(0), Matrix.from_rows([rs.coroots[0]]).scale(2))


def test_rca_check_catches_a_divided_difference_built_with_g_one():
    """D_a with g = 1 in place of s_a, the right a^v kept: a derivative
    along a^v rather than a divided difference, caught the same way."""
    rs = root_system("S3")
    assert_rca_fails_at_a_crossing(
        Matrix.identity(rs.n), Matrix.from_rows([rs.coroots[0]]))


def block_by_block_mismatch(lhs, rhs):
    """The comparison as it was before sums were tested in one pass: build
    both blocks of each common degree and diff them."""
    for m in [m for m in lhs.blocks if m in rhs.blocks]:
        a, b = lhs.blocks[m], rhs.blocks[m]
        if a != b:
            spot = divmod(int(np.flatnonzero((a - b).num.any(axis=0))[0]),
                          a.ncols)
            return (m, spot, a.get(*spot), b.get(*spot))
    return None


def test_first_mismatch_matches_the_block_by_block_compare():
    rs = root_system("S3")
    fam = ModuleFamily(rs, params(rs, "1/2"), "trivial", max_degree=3)
    x, y = fam.x_op, fam.y_op
    # a corrupted S_12, as in the angular momentum negative control
    bad_s = s_op(fam, 1, 2) + fam.identity_op().scale(rat("1/7"))

    def pairs():
        return [
            (bad_s, s_op(fam, 2, 1)),
            (y(1).commutator(x(2)), bad_s),
            (y(1) @ x(2) - x(2) @ y(1) + bad_s, s_op(fam, 1, 2).scale(2)),
            # x1 y1 vanishes on degree 0 only, so the witness sits higher
            (x(1) @ y(1), fam.scalar_op(0)),
            (y(2).commutator(x(2)), s_op(fam, 2, 2)),
        ]

    got = [lhs.first_mismatch(rhs) for lhs, rhs in pairs()]
    want = [block_by_block_mismatch(lhs, rhs) for lhs, rhs in pairs()]
    assert got == want
    assert [g[0] for g in got[:4]] == [0, 0, 0, 1] and got[4] is None


def test_a_passing_comparison_of_pending_sums_builds_neither_side():
    rs = root_system("S3")
    fam = ModuleFamily(rs, params(rs, "1/3"), "trivial", max_degree=3)
    lhs = fam.y_op(2).commutator(fam.x_op(1))
    rhs = s_op(fam, 2, 1) + fam.scalar_op(0)
    records = []
    _rec(records, "[y2, x1] = S21", lhs, rhs)
    assert records[0]["status"] == "pass"
    assert not lhs.blocks._memo and not rhs.blocks._memo
    # the operands of both sums are built as a block read would build them
    assert sorted(fam.y_op(2).blocks._memo) == [0, 1, 2, 3]
    # a failing one reads both blocks of the first differing degree only
    _rec(records, "[y2, x1] = -S21", lhs, -rhs)
    assert records[1]["witness"]["degree"] == 0
    assert list(lhs.blocks._memo) == [0] == list(rhs.blocks._memo)


def test_a_comparison_without_common_degrees_raises():
    rs = root_system("S3")
    fam = ModuleFamily(rs, params(rs, "1/3"), "trivial", max_degree=3)
    x1 = fam.x_op(1)
    clipped = x1 @ x1 @ x1 @ x1
    assert not clipped.blocks
    with pytest.raises(ValueError, match="no common valid degrees"):
        clipped.first_mismatch(clipped)
    with pytest.raises(ValueError, match="no common valid degrees"):
        (clipped + clipped).matches(clipped - clipped)


def test_s_matrix_symmetry_and_center():
    rs = root_system("S3")
    fam = ModuleFamily(rs, params(rs, "1/2"), "trivial", max_degree=3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert same_operator(s_op(fam, i, j), s_op(fam, j, i))
    # sum_i S_ii = n + 2Z as matrices
    total = None
    for i in range(1, 4):
        t = fam.y_op(i).commutator(fam.x_op(i))
        total = t if total is None else total + t
    rhs = fam.scalar_op(3) + center_op(fam).scale(2)
    assert total.matches(rhs)


def test_dunkl_equivariance():
    for name, spec, tau in (("S3", "1/2", "reflection"),
                            ("B2", {"short": "1/3", "long": "1"}, "sign")):
        rs = root_system(name)
        fam = ModuleFamily(rs, params(rs, spec), tau, max_degree=3)
        grp = fam.group
        for r in range(len(rs.positive_roots)):
            wi = grp.reflection_element_index(r)
            w = grp.matrices[wi]
            wop = fam.w_op(wi)
            winv = fam.w_op(grp.inv(wi))
            for i in range(rs.n):
                rhs = None
                # w e_i is column i of the matrix
                for k in range(rs.n):
                    vk = w.get(k, i)
                    if vk.is_zero():
                        continue
                    term = fam.y_op(k + 1).scale(vk)
                    rhs = term if rhs is None else rhs + term
                lhs = wop @ fam.y_op(i + 1) @ winv
                assert lhs.matches(rhs)


# -- harmonics ------------------------------------------------------------------


def harmonic_dims(fam):
    return [harmonic_subspace(fam, m).ncols
            for m in range(fam.max_degree + 1)]


def test_harmonic_dims_classical():
    rs = root_system("S3")
    fam = ModuleFamily(rs, params(rs, 0), "trivial", max_degree=4)
    assert harmonic_dims(fam) == [1, 3, 5, 7, 9]
    for m in range(5):
        assert harmonic_dims(fam)[m] == classical_harmonic_dim(3, m)
    rs2 = root_system("S2")
    fam2 = ModuleFamily(rs2, params(rs2, 0), "trivial", max_degree=5)
    assert harmonic_dims(fam2) == [classical_harmonic_dim(2, m)
                                   for m in range(6)]


def test_harmonic_basis_is_exact_kernel():
    rs = root_system("S3")
    fam = ModuleFamily(rs, params(rs, "1/3"), "reflection", max_degree=3)
    assert harmonic_subspace(fam, 0).ncols == fam.dim(0)
    for m in range(4):
        basis = harmonic_subspace(fam, m)
        image = fam.laplacian().blocks[m] @ basis
        assert image.is_zero()


# -- contravariant form ----------------------------------------------------------


def test_contravariant_frozen_s2():
    rs = root_system("S2")
    fam = ModuleFamily(rs, params(rs, "1/4"), "trivial", max_degree=2)
    g1 = contravariant_form(fam, 1)
    assert g1 == Matrix.from_rows([["5/4", "-1/4"], ["-1/4", "5/4"]])
    fam0 = ModuleFamily(rs, params(rs, 0), "trivial", max_degree=2)
    assert contravariant_form(fam0, 1) == Matrix.identity(2)
    # c = 0 pairing is the factorial form <d^a x^b> = a! delta_ab
    g2 = contravariant_form(fam0, 2)
    assert g2 == Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 2]])


def test_contravariant_matches_direct_definition():
    rs = root_system("S3")
    fam = ModuleFamily(rs, params(rs, "1/3"), "reflection", max_degree=2)
    for m in (1, 2):
        got = contravariant_form(fam, m)
        dim = fam.dim(m)
        direct = [{} for _ in range(dim)]
        form = fam.tau.form
        for row, (e, t) in enumerate(product(fam._monos[m],
                                             range(fam.tau.dim))):
            # chain of Dunkl matrices for the word D^e, top degree down
            op = None
            deg = m
            for p in range(fam.n):
                for _ in range(e[p]):
                    blk = fam.y_op(p + 1).blocks[deg]
                    op = blk if op is None else blk @ op
                    deg -= 1
            for col in range(dim):
                acc = ZERO
                for r in range(fam.tau.dim):
                    v = op.get(r, col)
                    if not v.is_zero():
                        acc = acc + form.get(t, r) * v
                direct[row][col] = acc
        assert got == Matrix.from_row_dicts(dim, dim, direct)


def test_adjointness():
    for name, spec, tau in (("S3", "1/2", "trivial"),
                            ("B2", {"short": "1/4", "long": "1/3"}, "sign")):
        rs = root_system(name)
        fam = ModuleFamily(rs, params(rs, spec), tau, max_degree=3)
        assert adjointness_check(fam)


def test_positivity():
    assert is_positive_definite(Matrix.identity(3))
    assert not is_positive_definite(Matrix.from_rows([[1, 2], [2, 1]]))
    rs = root_system("S2")
    fam = ModuleFamily(rs, params(rs, "1/4"), "trivial", max_degree=2)
    assert is_positive_definite(contravariant_form(fam, 1))
    neg = ModuleFamily(rs, params(rs, -2), "trivial", max_degree=2)
    assert not is_positive_definite(contravariant_form(neg, 1))
