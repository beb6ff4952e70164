"""Standard modules for the rational Cherednik algebra as graded matrices.

A ModuleFamily packages the module C[x_1..x_n] tensor tau, truncated at a
top degree N, together with the operators acting on it: multiplication x_i
(degree +1), Dunkl operators y_i (degree -1), and the group action (degree
0).  Each atomic block is a `kron_sum` of C[x] blocks with tau matrices, the
one builder that also attaches the spinors in diracops; a sum of two or
more Kronecker terms is one exact product (`linalg.sum_of_krons`).  A
group element other than a reflection or the identity is the product of
its BFS parent's operator and a reflection's, which is exact because pi
and tau are representations.  Each operator is a GradedOperator: one
exact matrix per source degree, with a block present only where both
source and target degrees sit inside the truncation window.  Identity checks quantify over the block keys both sides
share, so a composite that would need data above degree N loses those keys
instead of producing wrong matrices.  The keys are fixed when an operator
is formed, but a block is built only on its first read and then kept (a
DegreeMemo): the operator algebra composes builders, so a check that reads
one degree slice builds that slice alone.  A block of a sum is one
`linalg.signed_sum`; a comparison first tests lhs - rhs, one signed sum of
both sides' pending terms, for zero, building both blocks only to read a
witness.  The family keeps its per-degree data (the divided-difference
blocks, contravariant forms, harmonic bases) in the same memo.

Degrees below zero are genuinely zero dimensional rather than truncated:
block(m) for m < 0 is a synthesized matrix with zero columns, which makes
compositions like x_i y_i exact all the way down to degree 0.

The Dunkl operator acts on f tensor u by

    y (f (x) u) = d_y f (x) u + sum_a c_a <a, y> (f - s_a f)/a(x) (x) tau(s_a) u

Its C[x] blocks, the derivatives d_i and divided differences D_a, come
from Leibniz rules in one variable,

    d_i (x_p f) = delta_ip f + x_p d_i f
    D_a (x_p f) = a^v_p f + (s_a.x_p) D_a f

each block a few exact products of the block one degree down and two 0/1
index maps (see `ModuleFamily._leibniz`): no polynomial is formed and
nothing is divided by a(x).  A reflection's C[x] block is read off the
same memoised D_a, as s_a = 1 - a(x) D_a (see `ModuleFamily.w_op`).
"""

from collections import namedtuple
from collections.abc import Mapping
from functools import partial
from itertools import chain

from .linalg import (Matrix, first_nonzero, is_positive_definite, kernel,
                     signed_sum, stack, sum_of_krons)
from .scalars import ONE, as_scalar


# -- W-representations for the tensor factor ---------------------------------


class TauRep:
    """Finite-dimensional W-representation with an invariant Hermitian form.

    mats[k] is the matrix of the k-th group element (indices of the
    ReflectionGroup enumeration); form defaults to the identity.
    """

    __slots__ = ("name", "dim", "mats", "form")

    def __init__(self, name: str, dim: int, mats, form=None):
        self.name = name
        self.dim = dim
        self.mats = list(mats)
        self.form = form if form is not None else Matrix.identity(dim)
        if self.form.dagger() != self.form:
            raise ValueError("tau form is not Hermitian")
        if form is not None and not is_positive_definite(form):
            raise ValueError("form is not positive definite")

    def mat(self, w_index: int) -> Matrix:
        return self.mats[w_index]


def trivial_rep(group) -> TauRep:
    one = Matrix.identity(1)
    return TauRep("trivial", 1, [one] * group.order)


def sign_rep(group) -> TauRep:
    return TauRep("sign", 1, [Matrix.from_rows([[group.det(i)]])
                              for i in range(group.order)])


def reflection_rep(group) -> TauRep:
    """The ambient action of W on R^n."""
    return TauRep("reflection", group.rs.n, group.matrices)


def custom_rep(group, simple_mats: dict, form=None,
               name: str = "custom") -> TauRep:
    """Representation from matrices for the simple reflections.

    simple_mats maps simple-root indices to matrices; the extension rho to
    all of W goes along words in the simple generators, and both the
    homomorphism property and invariance of the supplied form are verified.

    The homomorphism check is rho(u s) = rho(u) rho(s) for every element u
    and every simple reflection s, one product per pair.  That implies
    rho(u v) = rho(u) rho(v) for all u, v, by induction on the length of a
    word for v in the simple reflections: for v = 1 it holds as rho(1) =
    1, and for v = v' s, rho(u v' s) = rho(u v') rho(s) = rho(u) rho(v')
    rho(s) = rho(u) rho(v' s): the first and last steps are the check,
    at u v' and at v', and the middle one is the induction hypothesis.
    """
    rs = group.rs
    simples = rs.simple_root_indices()
    if set(simple_mats) != set(simples):
        raise ValueError(f"need matrices exactly for simple roots {simples}")
    dim = simple_mats[simples[0]].nrows
    if dim < 1:
        raise ValueError("a custom tau needs dimension at least 1")
    for what, mat in chain(((f"matrix {r}", simple_mats[r]) for r in simples),
                           [("form", form)] if form is not None else ()):
        if mat.shape != (dim, dim):
            raise ValueError(
                f"{what} is {mat.nrows} x {mat.ncols}, expected {dim} x {dim}"
                f" (tau's dimension, the rows of matrix {simples[0]})")
    gen_elems = [group.reflection_element_index(i) for i in simples]
    mats: list = [None] * group.order
    mats[0] = Matrix.identity(dim)
    frontier = [0]
    while frontier:
        nxt = []
        for ei in frontier:
            for si, root_idx in zip(gen_elems, simples):
                h = group.mul(ei, si)
                if mats[h] is None:
                    mats[h] = mats[ei] @ simple_mats[root_idx]
                    nxt.append(h)
        frontier = nxt
    if any(m is None for m in mats):
        raise ValueError("simple reflections do not generate the group")
    for u in range(group.order):
        for s in gen_elems:
            if mats[group.mul(u, s)] != mats[u] @ mats[s]:
                raise ValueError(
                    f"matrices are not a representation at pair ({u}, {s})")
    rep = TauRep(name, dim, mats, form)
    for si in gen_elems:
        if mats[si].dagger() @ rep.form @ mats[si] != rep.form:
            raise ValueError("form is not W-invariant")
    return rep


def builtin_rep(group, name: str) -> TauRep:
    if name == "trivial":
        return trivial_rep(group)
    if name == "sign":
        return sign_rep(group)
    if name == "reflection":
        return reflection_rep(group)
    raise ValueError(f"unknown built-in representation {name!r}")


# -- graded operators ---------------------------------------------------------


class DegreeMemo(Mapping):
    """Read-only map over a fixed, ascending set of degrees.  The value at
    m is made by build(m) on its first read and kept; once every value
    exists the builder, and whatever it holds, is dropped."""

    __slots__ = ("_keys", "_memo", "build")

    def __init__(self, keys, build):
        self._keys, self._memo = tuple(keys), {}
        self.build = build if self._keys else None

    def __getitem__(self, m):
        got = self._memo.get(m)
        if got is None:
            if m not in self._keys:
                raise KeyError(m)
            got = self._memo[m] = self.build(m)
            if len(self._memo) == len(self._keys):
                self.build = None
        return got

    def peek(self, m):
        """For a key m, the value if built, else the builder that makes it."""
        return self._memo.get(m, self.build)

    def __contains__(self, m) -> bool:
        return m in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class GradedOperator:
    """Per-degree exact matrices with a fixed degree shift.

    blocks[m] maps the degree-m slice into degree m + shift.  The key set
    is fixed at construction: only source degrees where the operator is
    honestly known, decided without building any block.  Each block is
    built by build(m) on its first read (see DegreeMemo), so a check that
    reads one slice builds that slice of every operand and no other.
    Negative source degrees are zero dimensional and synthesized on
    demand, so they never constrain compositions.
    """

    __slots__ = ("family", "shift", "blocks")

    def __init__(self, family: "ModuleFamily", shift: int, keys, build):
        self.family = family
        self.shift = shift
        self.blocks = DegreeMemo(keys, build)

    def block(self, m: int) -> Matrix:
        """Block m; below degree 0 a synthesized zero-column matrix."""
        if m >= 0:
            return self.blocks[m]
        return Matrix(self.family.dim(m + self.shift), 0)

    def _need_same(self, other, want_shift=True):
        if self.family is not other.family:
            raise ValueError("operators live on different module families")
        if want_shift and self.shift != other.shift:
            raise ValueError(
                f"degree shift mismatch: {self.shift} vs {other.shift}")

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        return _signed_sum([(1, self), (1, other)])

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return _signed_sum([(1, self), (-1, other)])

    def __neg__(self) -> "GradedOperator":
        return GradedOperator(self.family, self.shift, self.blocks,
                              lambda m: -self.blocks[m])

    def scale(self, s) -> "GradedOperator":
        s = as_scalar(s)
        return GradedOperator(self.family, self.shift, self.blocks,
                              lambda m: self.blocks[m].scale(s))

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        """self composed after other; keys survive only when the chain does."""
        self._need_same(other, want_shift=False)
        t = other.shift
        keys = [m for m in other.blocks if m + t in self.blocks or m + t < 0
                and m + t + self.shift <= self.family.max_degree]
        return GradedOperator(self.family, self.shift + t, keys,
                              lambda m: self.block(m + t) @ other.blocks[m])

    def commutator(self, other: "GradedOperator") -> "GradedOperator":
        return (self @ other) - (other @ self)

    def anticommutator(self, other: "GradedOperator") -> "GradedOperator":
        return (self @ other) + (other @ self)

    def matches(self, other: "GradedOperator") -> bool:
        """Equality on the degrees both sides know about."""
        return self.first_mismatch(other) is None

    def first_mismatch(self, other: "GradedOperator"):
        """(degree, (row, col), lhs, rhs) of the first difference, or None."""
        self._need_same(other)
        common = [m for m in self.blocks if m in other.blocks]
        if not common:
            raise ValueError("no common valid degrees to compare")
        for m in common:
            spot = first_nonzero(chain(_terms(self, m, 1),
                                       _terms(other, m, -1)))
            if spot is not None:
                a, b = self.blocks[m], other.blocks[m]
                return (m, spot, a.get(*spot), b.get(*spot))
        return None


class _Sum(list):
    """Block builder of the sum of its (sign, op) terms."""

    def __call__(self, m: int) -> Matrix:
        return signed_sum((s, op.blocks[m]) for s, op in self)


def _terms(op: GradedOperator, m: int, sign: int):
    """sign * block m of op as signed blocks; a pending sum stays unbuilt."""
    pending = op.blocks.peek(m)
    if isinstance(pending, _Sum):
        return ((sign * s, o.blocks[m]) for s, o in pending)
    return [(sign, op.blocks[m])]


def _signed_sum(terms) -> GradedOperator:
    """The sum of sign * op over (sign, op) pairs, signs +-1, on the keys
    every operand knows.  An operand still built as a sum is spliced in, not
    nested: a block of a k-term sum reads at one recursion depth for any k."""
    lead = terms[0][1]
    flat = _Sum()
    for sign, op in terms:
        lead._need_same(op)
        build = op.blocks.build
        if isinstance(build, _Sum):
            flat += build if sign > 0 else [(-s, o) for s, o in build]
        else:
            flat.append((sign, op))
    keys = sorted(set(lead.blocks).intersection(*(o.blocks for _, o in terms)))
    return GradedOperator(lead.family, lead.shift, keys, flat)


def graded_sum(ops, empty=None):
    """The sum of the operators in the order given; empty if there are none."""
    terms = [(1, op) for op in ops]
    return _signed_sum(terms) if terms else empty


def kron_sum(family, shift: int, keys, terms) -> GradedOperator:
    """The operator on family, of the given shift and keys, whose block m
    is the sum of block(m).kron(mat) over the (block, mat) terms, block
    being a function of the source degree.  A block is one exact
    `linalg.sum_of_krons`: for two or more terms one product of the
    stacked blocks against the stacked matrices, whose entries are those
    of the sum in another order; a one-term block is its Kronecker block,
    and no terms give zero blocks."""
    terms = list(terms)

    def build(m):
        if not terms:
            return Matrix(family.dim(m + shift), family.dim(m))
        return sum_of_krons([(block(m), mat) for block, mat in terms])
    return GradedOperator(family, shift, keys, build)


def _zero(op: GradedOperator) -> GradedOperator:
    """The zero operator on the blocks of op."""
    fam, shift = op.family, op.shift
    return GradedOperator(fam, shift, op.blocks,
                          lambda m: Matrix(fam.dim(m + shift), fam.dim(m)))


def _check_record(check_id: str, ok: bool, witness=None,
                  status=None) -> dict:
    """One {check_id, status, witness} record; status is pass or fail by
    ok unless given."""
    return {"check_id": check_id,
            "status": status or ("pass" if ok else "fail"),
            "witness": witness}


def _witness(m: int, entry, lhs, rhs) -> dict:
    """Witness of a failed comparison on degree m; entry is (row, col) or
    None for a whole-slice value."""
    return {"degree": m, "entry": None if entry is None else list(entry),
            "lhs": str(lhs), "rhs": str(rhs)}


def _rec(records: list, check_id: str, lhs: GradedOperator,
         rhs: GradedOperator) -> None:
    """Append one record for lhs == rhs; a failure's witness pins the
    first differing entry."""
    bad = lhs.first_mismatch(rhs)
    records.append(_check_record(check_id, bad is None,
                                 None if bad is None else _witness(*bad)))


# -- the module family --------------------------------------------------------


# the 0/1 C[x] maps between two adjacent degrees; see ModuleFamily._step
_Step = namedtuple("_Step", "ups up_all downs down_all")


def _zero_one(nrows: int, ncols: int, spots) -> Matrix:
    """The nrows x ncols matrix with a 1 at each (row, col) of spots."""
    rows = [{} for _ in range(nrows)]
    for i, j in spots:
        rows[i][j] = 1
    return Matrix.from_row_dicts(nrows, ncols, rows)


def _bump(e: tuple, p: int, d: int) -> tuple:
    """The exponent tuple e with d added at position p."""
    return e[:p] + (e[p] + d,) + e[p + 1:]


class ModuleFamily:
    """Truncated standard module M_c(tau) = C[x] tensor tau with cached
    operator matrices.

    Each atomic operator is a `kron_sum` of C[x]-only blocks with tau
    matrices: x_i = X_i (x) 1, y_i = d_i (x) 1 + sum_a c_a <a, e_i> D_a (x)
    tau(s_a), and s_a = (1 - a(x) D_a) (x) tau(s_a) for a reflection.  X_i
    is an index map (see `_step`); d_i and D_a are `_leibniz` blocks, by
    the rules

        d_i (x_p f) = delta_ip f + x_p d_i f      g = 1,    kappa = e_i
        D_a (x_p f) = a^v_p f + (s_a.x_p) D_a f   g = s_a,  kappa = a^v

    with g.x_p = sum_j g_jp x_j.  The D_a blocks, shared by every y_i and
    every reflection, are kept per root and degree; the d_i blocks by the
    y_i that reads them.  The other group elements are as in `w_op`.
    """

    def __init__(self, rs, param, tau, max_degree: int = 6):
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        self.rs = rs
        self.group = rs.group()
        self.param = param
        self.tau = tau if isinstance(tau, TauRep) else \
            builtin_rep(self.group, tau)
        self.n = rs.n
        self.max_degree = max_degree
        self._monos = []
        self._mono_pos = []
        for m in range(max_degree + 1):
            monos = sorted(_monomials(self.n, m), reverse=True)
            self._monos.append(monos)
            self._mono_pos.append({e: k for k, e in enumerate(monos)})
        self._ops: dict = {}
        self._steps = DegreeMemo(range(1, max_degree + 1), self._step)
        self._divided = [self._leibniz(rs.reflection(r),
                                       Matrix.from_rows([rs.coroots[r]]))
                         for r in range(len(rs.positive_roots))]
        degrees = range(max_degree + 1)
        self._gram = DegreeMemo(degrees, partial(_gram_block, self))
        self._harmonics = DegreeMemo(
            degrees, lambda m: kernel(self.laplacian().blocks[m]))
        self._cs = param.per_root(rs)
        self._tau_one = Matrix.identity(self.tau.dim)

    # -- bases ---------------------------------------------------------------

    def dim(self, m: int) -> int:
        if m < 0:
            return 0
        if m > self.max_degree:
            raise ValueError(f"degree {m} beyond truncation {self.max_degree}")
        return len(self._monos[m]) * self.tau.dim

    # -- C[x] blocks -----------------------------------------------------------

    def _step(self, m: int) -> _Step:
        """The 0/1 C[x] maps between degrees m - 1 and m, read through the
        memo self._steps: ups[j] = X_j, multiplication by x_j from degree
        m - 1 up; downs[p] = S_p from degree m down, x^e -> x^(e - e_p) on
        the monomials whose first nonzero exponent is p and 0 on the
        others; and their stacks up_all = [X_1 | ... | X_n] and down_all =
        [S_1; ...; S_n]."""
        up, down = self._mono_pos[m], self._mono_pos[m - 1]
        ups = [_zero_one(len(up), len(down), [
            (up[_bump(e, j, 1)], k) for k, e in enumerate(down)])
            for j in range(self.n)]
        spots = [[] for _ in range(self.n)]
        for k, e in enumerate(up):
            p = next(j for j, d in enumerate(e) if d)
            spots[p].append((down[_bump(e, p, -1)], k))
        downs = [_zero_one(len(down), len(up), s) for s in spots]
        return _Step(ups, stack(ups, 1), downs, stack(downs, 0))

    def _leibniz(self, g: Matrix, kappa: Matrix):
        """The C[x] blocks on degrees 0..N, in a DegreeMemo, of the
        operator A of degree -1 with A 1 = 0 and

            A (x_p f) = kappa_p f + (g.x_p) A f     for every p and f,

        g.x_p = sum_j g_jp x_j, g an n x n matrix and kappa a 1 x n row.

        A degree-m monomial is x_p times the degree-(m - 1) monomial S_p
        sends it to, p its first nonzero exponent, so A_m = sum_p (kappa_p
        S_p + L_p A_(m-1) S_p), L_p = sum_j g_jp X_j multiplying by g.x_p.
        With the stacks of `_step`, and g_jp A_(m-1) block (j, p) of
        g (x) A_(m-1), that is one Kronecker product and two exact
        products per degree:

            A_m = ([X_1 | ... | X_n] (g (x) A_(m-1)) + kappa (x) 1)
                  [S_1; ...; S_n]

        The product rule is d_i's: g = 1, kappa = e_i.  For D_a f = (f -
        s_a f)/a(x), adding and subtracting (s_a.x_p) f,

            D_a (x_p f) = ((x_p - s_a.x_p) f + (s_a.x_p) (f - s_a f))/a(x)
                        = a^v_p f + (s_a.x_p) D_a f,

        because x_p - s_a.x_p = a^v_p a(x) identically: s_a = 1 - a^v a^T
        gives s_a.x_p = x_p - a_p a^v(x), and a_p a^v(x) = a^v_p a(x) as
        the coroot a^v = 2 a/|a|^2 is a multiple of a.  So g = s_a and
        kappa = a^v, and by induction on the degree from D_a 1 = 0 every
        D_a f is a polynomial: nothing is divided and no remainder can
        arise.
        """
        def build(m):
            if m == 0:
                return Matrix(0, 1)
            low = kappa.kron(Matrix.identity(len(self._monos[m - 1])))
            if m > 1:
                low += self._steps[m - 1].up_all @ g.kron(blocks[m - 1])
            return low @ self._steps[m].down_all
        blocks = DegreeMemo(range(self.max_degree + 1), build)
        return blocks

    def _tensored(self, key, shift: int, terms) -> GradedOperator:
        """The cached kron_sum of the (C[x] block, tau matrix) pairs that
        terms() gives, on the source degrees m with m + shift <= N."""
        return self._cached(key, lambda: kron_sum(
            self, shift, range(min(self.max_degree - shift,
                                   self.max_degree) + 1), terms()))

    def _cached(self, key, make) -> GradedOperator:
        op = self._ops.get(key)
        if op is None:
            op = self._ops[key] = make()
        return op

    # -- atomic operators ------------------------------------------------------

    def x_op(self, i: int) -> GradedOperator:
        """Multiplication by x_i, 1-based: X_i tensor 1."""
        return self._tensored(("x", i), 1, lambda: [
            (lambda m: self._steps[m + 1].ups[i - 1], self._tau_one)])

    def y_op(self, i: int) -> GradedOperator:
        """Dunkl operator along e_i, 1-based: d_i tensor 1 plus, per root
        a, D_a tensor c_a <a, e_i> tau(s_a)."""
        def terms():
            e_i = Matrix.from_row_dicts(1, self.n, [{i - 1: 1}])
            out = [(self._leibniz(Matrix.identity(self.n), e_i)
                    .__getitem__, self._tau_one)]
            for r, c in enumerate(self._cs):
                weight = c * self.rs.positive_roots[r][i - 1]
                if not weight.is_zero():
                    s_r = self.group.reflection_element_index(r)
                    out.append((self._divided[r].__getitem__,
                                self.tau.mat(s_r).scale(weight)))
            return out
        return self._tensored(("y", i), -1, terms)

    def w_op(self, w_index: int) -> GradedOperator:
        """pi(w) tensor tau(w) on every slice.

        The identity is `identity_op`.  A reflection s_a is (1 - a(x) D_a)
        (x) tau(s_a), exact as D_a f = (f - s_a f)/a(x); on degree m, a(x)
        D_a is [X_1 | ... | X_n] (a (x) D_a), a the root as a column, one
        product with the memoised D_a block.  Any other w is w_op(p) @
        w_op(s_r) along its BFS word, words[w] = words[p] + (r,): one exact
        matmul per block, exact as pi and tau are representations, (pi(p)
        (x) tau(p)) (pi(s_r) (x) tau(s_r)) = pi(p s_r) (x) tau(p s_r);
        `custom_rep` checks that a custom tau is one."""
        word = self.group.words[w_index]
        if not word:
            return self.identity_op()
        if len(word) > 1:
            return self._cached(("w", w_index), lambda: self.w_op(
                self.group.parents[w_index]) @ self.reflection_op(word[-1]))

        def block(m):
            if m == 0:
                return Matrix.identity(1)
            a = Matrix.from_rows([[v] for v in self.rs.positive_roots[word[0]]])
            return Matrix.identity(len(self._monos[m])) - (
                self._steps[m].up_all @ a.kron(self._divided[word[0]][m]))
        return self._tensored(("w", w_index), 0, lambda: [
            (block, self.tau.mat(w_index))])

    def reflection_op(self, root_idx: int) -> GradedOperator:
        return self.w_op(self.group.reflection_element_index(root_idx))

    def scalar_op(self, v) -> GradedOperator:
        v = as_scalar(v)
        return self._cached(("scalar", v), lambda: GradedOperator(
            self, 0, range(self.max_degree + 1),
            lambda m: Matrix.identity(self.dim(m)).scale(v)))

    def identity_op(self) -> GradedOperator:
        return self.scalar_op(ONE)

    # -- composites ------------------------------------------------------------

    def laplacian(self) -> GradedOperator:
        """Dunkl Laplacian sum_i y_i^2, shift -2, valid on all degrees."""
        return self._cached("lap", lambda: graded_sum(
            self.y_op(i) @ self.y_op(i) for i in range(1, self.n + 1)))

    def from_group_algebra(self, coeffs: dict) -> GradedOperator:
        """Operator of sum_w coeffs[w] . w for element indices w."""
        return graded_sum((self.w_op(w).scale(v)
                           for w, v in sorted(coeffs.items())),
                          self.scalar_op(0))


def _monomials(n: int, m: int):
    if n == 1:
        yield (m,)
        return
    for first in range(m, -1, -1):
        for rest in _monomials(n - 1, m - first):
            yield (first,) + rest


# -- relation machinery --------------------------------------------------------


def s_op(family: ModuleFamily, i: int, j: int) -> GradedOperator:
    """Matrix of S_ij = delta_ij + sum_a c_a <a, y_j> <x_i, a_v> s_a.

    Symmetric in (i, j); equals the commutator [y_i, x_j] on the module.
    Indices are 1-based.
    """
    rs = family.rs
    weights = [(r, c * rs.positive_roots[r][j - 1] * rs.coroots[r][i - 1])
               for r, c in enumerate(family._cs)]
    return graded_sum([family.scalar_op(1 if i == j else 0)]
                      + [family.reflection_op(r).scale(w)
                         for r, w in weights if not w.is_zero()])


def center_op(family: ModuleFamily) -> GradedOperator:
    """Matrix of the central sum of reflections sum_a c_a s_a."""
    return graded_sum((family.reflection_op(r).scale(c)
                       for r, c in enumerate(family._cs) if not c.is_zero()),
                      family.scalar_op(0))


def rca_relation_check(family: ModuleFamily) -> dict:
    """Exact verification of the defining commutation relations.

    Checks, blockwise on every shared degree: [x_i, x_j] = 0,
    [y_i, y_j] = 0, [y_i, x_j] = S_ji, and sum_i S_ii = n + 2 Z.
    """
    n = family.n
    records: list = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            xx = family.x_op(i).commutator(family.x_op(j))
            _rec(records, f"[x{i},x{j}]", xx, _zero(xx))
            yy = family.y_op(i).commutator(family.y_op(j))
            _rec(records, f"[y{i},y{j}]", yy, _zero(yy))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            _rec(records, f"[y{i},x{j}]",
                 family.y_op(i).commutator(family.x_op(j)),
                 s_op(family, j, i))
    trace = graded_sum(family.y_op(i).commutator(family.x_op(i))
                       for i in range(1, n + 1))
    _rec(records, "sum_i S_ii = n + 2Z",
         trace, family.scalar_op(n) + center_op(family).scale(2))
    failures = [{"relation": r["check_id"], **r["witness"]}
                for r in records if r["status"] == "fail"]
    return {"pass": not failures, "checks": len(records),
            "failures": failures}


# -- harmonics and the contravariant form ---------------------------------------


def harmonic_subspace(family: ModuleFamily, m: int) -> Matrix:
    """Exact kernel basis of the Dunkl Laplacian on the degree-m slice,
    computed once per degree."""
    return family._harmonics[m]


def contravariant_form(family: ModuleFamily, m: int) -> Matrix:
    """Gram matrix of the pairing that makes y_i adjoint to x_i.

    G_0 is the invariant form on tau; for higher degrees each basis vector
    x^a tensor u with first nonzero exponent at p satisfies
    G_m(x^a u, v) = G_{m-1}(x^{a-e_p} u, y_p v), pulling one variable off at
    a time.  Equivalently G_m(x^a u, x^b v) pairs u against the degree-0
    component of the Dunkl word D^a applied to x^b v.
    """
    return family._gram[m]


def _gram_block(family: ModuleFamily, k: int) -> Matrix:
    """G_k, read through the memo family._gram; see contravariant_form.

    Row (e, t) of G_k, p the first nonzero exponent of e, is row (e - e_p,
    t) of G_(k-1) Y_p, Y_p the block of y_(p+1) on degree k, and the 0/1
    map (S_p (x) 1)^dagger of `ModuleFamily._step` moves it there: G_k =
    sum_p (S_p (x) 1)^dagger G_(k-1) Y_p."""
    if k == 0:
        return family.tau.form
    prev = family._gram[k - 1]
    mat = signed_sum(
        (1, s.kron(family._tau_one).dagger()
         @ (prev @ family.y_op(p + 1).blocks[k]))
        for p, s in enumerate(family._steps[k].downs))
    if mat.dagger() != mat:
        raise RuntimeError("contravariant form came out non-Hermitian")
    return mat
