"""Dirac-type operators on the spinor-twisted polynomial modules.

Every operator here lives on the blocks X_m tensor S, where X_m is a
degree slice of a truncated standard module and S is the spinor module of
dimension 2^floor(n/2).  The graded-operator algebra from polyrep is
reused verbatim by presenting the tensored slices as a module family of
their own, so all window bookkeeping (top-degree clipping, shift
accounting) carries over unchanged.  Arithmetic stays exact over
Q(i, sqrt2); floats appear only in reported spectra and as rounded
eigenvalue candidates that an exact kernel then confirms or discards.

Contents: the degree-preserving Dirac element sum_{i<j} M_ij c_i c_j with
its overlap-partitioned square, the twisted family (D - phi) + rho(C) for
admissible twists, bracket identities for the raising and lowering odd
elements, the witness recursion for the lifted center, the harmonic
slices with their form data, kernel cohomology on them, central
characters refined over the isotypic pieces that the twisted class sums
cut out, unitary spectra, and the rescaling search that produces twists
with nonzero kernel cohomology.  Each harmonic slice is made once, in
`DiracContext.slices`, and each twisted operator's block restricted to it
once, in `DiracOperator.restricted`, where every verb on the slice reads it.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .scalars import (SQRT2_FLOAT, ExactScalar, ZERO, ONE, HALF, SQRT2,
                      as_scalar, rat, sqrt_in_real_subfield)
from .linalg import (Matrix, first_nonzero, is_positive_definite, kernel,
                     rank)
from .clifford import CliffordElement, SpinorRep, vector_embed
from .cover import (PinCover, HatElement, is_admissible, ztilde, build_C2,
                    build_T, build_T_bullet, build_Z3)
from .polyrep import (DegreeMemo, GradedOperator, ModuleFamily,
                      _check_record, _rec, _witness, _zero, graded_sum,
                      harmonic_subspace, contravariant_form, kron_sum)
from .angmom import AmaContext


class SpinModule:
    """Slice bookkeeping for X tensor S.

    The graded-operator algebra consults its family only for slice
    dimensions and the truncation bound, so this thin wrapper is all it
    needs to run unchanged on tensored blocks.
    """

    __slots__ = ("base", "sdim", "max_degree")

    def __init__(self, base: ModuleFamily, sdim: int):
        self.base = base
        self.sdim = sdim
        self.max_degree = base.max_degree

    def dim(self, m: int) -> int:
        return self.base.dim(m) * self.sdim


class DiracContext:
    """An angular momentum context joined with its pin cover and spinor
    factor.

    Owns the cover (for twisted group algebra elements), the spinor
    representation, the distinguished twist C2, memoized lifts of the
    scalar-side operators onto the tensored slices, and their `slices`.
    """

    def __init__(self, ama: AmaContext):
        self.ama = ama
        self.family = ama.family
        self.rs = ama.rs
        self.n = ama.n
        self.cover = PinCover(self.rs)
        self.spin = SpinorRep(self.n)
        self.module = SpinModule(self.family, self.spin.dim)
        self.slices = DegreeMemo(range(self.family.max_degree + 1),
                                 self._slice)

    def _slice(self, m: int) -> "HarmonicSlice":
        eye = Matrix.identity(self.spin.dim)
        b = harmonic_subspace(self.family, m)
        bs = b.kron(eye)
        if b.ncols:
            gx = b.dagger() @ contravariant_form(self.family, m) @ b
            if is_positive_definite(gx):
                om = _restrict(self.casimir.blocks[m],
                               bs).is_scalar_multiple_of_identity()
                return HarmonicSlice(b, bs, gx.kron(eye), om)
        return HarmonicSlice(b, bs)

    # -- lifting ---------------------------------------------------------------

    def lift(self, op: GradedOperator) -> GradedOperator:
        """op tensor identity on the spinor factor."""
        return self.spin_sum([(op, CliffordElement.scalar(self.n, 1))])

    def spin_sum(self, terms) -> GradedOperator:
        """sum op tensor sigma(elem) over the (op, elem) terms, in the order
        given, on the keys of the plain sum of the ops; the zero operator
        when there are none.  It is `polyrep.kron_sum`, the builder that
        tensors tau onto C[x], applied to the sigma images."""
        terms = [(op, self.spin.sigma(elem)) for op, elem in terms]
        plain = graded_sum((op for op, _ in terms), self.family.scalar_op(0))
        return kron_sum(self.module, plain.shift, plain.blocks,
                        [(op.block, mat) for op, mat in terms])

    @cached_property
    def c2(self) -> HatElement:
        """The distinguished twist C2 of the coupling, built once."""
        return build_C2(self.cover, self.family.param)

    @cached_property
    def z3(self) -> HatElement:
        """The central cubic term Z3 of the coupling, built once; a build
        that raises stores nothing."""
        return build_Z3(self.cover, self.family.param)

    @cached_property
    def identity(self) -> GradedOperator:
        return self.lift(self.family.identity_op())

    def scalar(self, v) -> GradedOperator:
        return self.lift(self.family.scalar_op(v))

    def group_factor(self, elem: HatElement) -> GradedOperator:
        """The plain part of elem acting on X, trivially on S."""
        return self.lift(self.family.from_group_algebra(elem.p))

    def rho(self, elem: HatElement) -> GradedOperator:
        """The diagonal action of a cover-algebra element.

        Twisted parts act on X through the projected group element and on
        S through the canonical Clifford lift; the plain half of the
        algebra acts by zero.
        """
        terms = elem.rho_terms()
        return self.spin_sum((self.family.w_op(k), terms[k])
                             for k in sorted(terms))

    def _cvec(self, i: int) -> CliffordElement:
        return CliffordElement.generator(self.n, i)

    def _cpair(self, i: int, j: int) -> CliffordElement:
        return CliffordElement.monomial(self.n, (i, j))

    # -- the distinguished elements ----------------------------------------------

    @cached_property
    def dirac(self) -> GradedOperator:
        """sum_{i<j} M_ij tensor c_i c_j, degree preserving."""
        return self.spin_sum((self.ama.M(i, j), self._cpair(i, j))
                             for i in range(1, self.n + 1)
                             for j in range(i + 1, self.n + 1))

    @cached_property
    def phi(self) -> GradedOperator:
        """Z + (n-2)/2 on X, trivially on S; the square-completion shift."""
        return self.lift(self.ama.Z) \
            + self.scalar(rat(self.n - 2) * rat("1/2"))

    @cached_property
    def dirac0(self) -> GradedOperator:
        """The plain shifted operator: dirac - phi."""
        return self.dirac - self.phi

    @cached_property
    def casimir(self) -> GradedOperator:
        """Omega tensor 1."""
        return self.lift(self.ama.omega)

    @cached_property
    def lowering(self) -> GradedOperator:
        """sum_i y_i tensor c_i, odd, degree -1."""
        return self.spin_sum((self.family.y_op(i), self._cvec(i))
                             for i in range(1, self.n + 1))

    @cached_property
    def raising(self) -> GradedOperator:
        """sum_i x_i tensor c_i, odd, degree +1."""
        return self.spin_sum((self.family.x_op(i), self._cvec(i))
                             for i in range(1, self.n + 1))

    @cached_property
    def simple_reflection_actions(self) -> list:
        """(r, diagonal action of the lift of s_r) per simple root r."""
        group = self.cover.group
        return [(r, self.rho(HatElement(
                    self.cover, m={group.reflection_element_index(r): ONE})))
                for r in self.rs.simple_root_indices()]


def build_context(rs, param, max_degree: int, tau) -> DiracContext:
    return DiracContext(AmaContext(ModuleFamily(rs, param, tau,
                                                max_degree=max_degree)))


@dataclass(frozen=True)
class DiracOperator:
    """A member of the twisted family: (dirac - phi) + rho(twist).

    Immutable after build; blocks preserve degree, so every slice can be
    analyzed independently.  `restricted[m]` is op's block restricted to
    `ctx.slices[m].spin_basis`, made on first read and kept, so the
    unitarity, spectrum and cohomology verbs restrict each slice once.
    """

    ctx: DiracContext
    name: str
    twist: HatElement
    rho_twist: GradedOperator
    op: GradedOperator

    @cached_property
    def restricted(self) -> DegreeMemo:
        # cached_property writes __dict__, which frozen=True leaves open
        return DegreeMemo(self.ctx.slices, lambda m: _restrict(
            self.op.blocks[m], self.ctx.slices[m].spin_basis))


def build_dirac(dctx: DiracContext, twist: HatElement,
                name: str = "C") -> DiracOperator:
    """Validate admissibility and assemble the twisted operator."""
    ok, failures = is_admissible(twist)
    if not ok:
        raise ValueError("twist element is not admissible: "
                         + "; ".join(failures))
    rc = dctx.rho(twist)
    return DiracOperator(dctx, name, twist, rc, dctx.dirac0 + rc)


# -- squares -------------------------------------------------------------------


def dirac_square_check(dctx: DiracContext) -> list:
    """The square of the Dirac element against its index-partition pieces.

    The product (M_ij c_i c_j)(M_kl c_k c_l) is grouped by the overlap
    size of {i,j} and {k,l}; each partial sum is pinned to its closed
    form, the three reassemble the square, and the shifted square
    collapses to the Casimir plus one.
    """
    records: list = []
    n = dctx.n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    sigma = {q: dctx.spin_sum((dctx.ama.M(i, j) @ dctx.ama.M(k, l),
                               dctx._cpair(i, j) * dctx._cpair(k, l))
                              for (i, j) in pairs for (k, l) in pairs
                              if len({i, j} & {k, l}) == q) for q in (0, 1, 2)}
    d = dctx.dirac
    square = d @ d
    minus_msquare = dctx.lift(dctx.ama.msquare).scale(-1)
    overlap1 = d.scale(n - 2) + d.anticommutator(dctx.lift(dctx.ama.Z))
    _rec(records, "overlap-0 partial sum vanishes",
         sigma[0], _zero(sigma[0]))
    _rec(records, "overlap-2 partial sum = -(angular momentum square)",
         sigma[2], minus_msquare)
    _rec(records, "overlap-1 partial sum = (n-2) dirac + {dirac, Z}",
         sigma[1], overlap1)
    _rec(records, "square = sum of the partial sums",
         square, sigma[0] + sigma[1] + sigma[2])
    _rec(records, "square closed form", square, minus_msquare + overlap1)
    _rec(records, "shifted square = casimir + 1",
         dctx.dirac0 @ dctx.dirac0, dctx.casimir + dctx.identity)
    return records


# -- frames --------------------------------------------------------------------


def _frame(n: int, corner) -> list:
    """The n x n identity with its top-left block replaced by corner."""
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for i, corner_row in enumerate(corner):
        for j, v in enumerate(corner_row):
            rows[i][j] = v
    return rows


def rotation_frame(n: int) -> list:
    """Exact 45 degree rotation in the (1,2) plane; identity elsewhere."""
    r = SQRT2 * HALF
    return _frame(n, [[r, r], [-r, r]])


def swap_frame(n: int) -> list:
    """Coordinates 1 and 2 exchanged."""
    return _frame(n, [[ZERO, ONE], [ONE, ZERO]])


def flip_frame(n: int) -> list:
    """First coordinate negated."""
    return _frame(n, [[-ONE]])


def dirac_in_basis(dctx: DiracContext, rows) -> GradedOperator:
    """The Dirac element rebuilt from the frame e'_i = sum_k rows[i][k] e_k.

    No orthogonality is assumed: orthonormal frames reproduce the standard
    element, skew frames visibly do not.
    """
    n = dctx.n
    xs, ys, cs = [], [], []
    for i in range(n):
        row = [as_scalar(v) for v in rows[i]]
        if len(row) != n:
            raise ValueError("frame rows must have n entries")
        coords = [(k + 1, v) for k, v in enumerate(row) if not v.is_zero()]
        if not coords:
            raise ValueError("zero row in the change of frame")
        xs.append(graded_sum(dctx.family.x_op(k).scale(v) for k, v in coords))
        ys.append(graded_sum(dctx.family.y_op(k).scale(v) for k, v in coords))
        cs.append(vector_embed(n, row))
    return dctx.spin_sum(((xs[i] @ ys[j]) - (xs[j] @ ys[i]), cs[i] * cs[j])
                         for i in range(n) for j in range(i + 1, n))


def basis_independence_check(dctx: DiracContext) -> list:
    """The Dirac element does not move under orthonormal frame changes and
    commutes with the diagonal action of every simple reflection lift."""
    records: list = []
    if dctx.n >= 2:
        _rec(records, "frame swap(1,2)",
             dirac_in_basis(dctx, swap_frame(dctx.n)), dctx.dirac)
        _rec(records, "frame flip(e1)",
             dirac_in_basis(dctx, flip_frame(dctx.n)), dctx.dirac)
        _rec(records, "frame rotation by pi/4 in (1,2)",
             dirac_in_basis(dctx, rotation_frame(dctx.n)), dctx.dirac)
    z = _zero(dctx.dirac)
    for r, refl in dctx.simple_reflection_actions:
        _rec(records, f"[dirac, diagonal lift of s[{r}]] = 0",
             dctx.dirac.commutator(refl), z)
    return records


def rho_invariance_check(dop: DiracOperator) -> list:
    """The twisted operator commutes with every diagonal generator, the
    extension factor included when -1 lies in the group."""
    dctx = dop.ctx
    records: list = []
    z = _zero(dop.op)
    for r, refl in dctx.simple_reflection_actions:
        _rec(records, f"[D_{dop.name}, diagonal lift of s[{r}]] = 0",
             dop.op.commutator(refl), z)
    if dctx.cover.has_g():
        gact = dctx.rho(HatElement.g(dctx.cover))
        _rec(records, f"[D_{dop.name}, extension factor] = 0",
             dop.op.commutator(gact), z)
    return records


# -- odd companions ------------------------------------------------------------


def scasimir_check(dctx: DiracContext) -> list:
    """Identities tying the Dirac element to its odd companions.

    The bracket of the lowering and raising elements recovers
    -2 dirac + n + 2Z; the odd Casimir S = ([lower, raise] - 1)/2 pairs
    with the Dirac element to the constant 1/2 + phi; both odd squares
    collapse onto the sl(2) ladder."""
    records: list = []
    low = dctx.lowering
    high = dctx.raising
    br = low.commutator(high)
    zl = dctx.lift(dctx.ama.Z)
    _rec(records, "[lower, raise] = -2 dirac + n + 2 Z",
         br, dctx.dirac.scale(-2) + dctx.scalar(dctx.n) + zl.scale(2))
    s = (br - dctx.identity).scale(HALF)
    _rec(records, "odd casimir + dirac = 1/2 + phi",
         s + dctx.dirac, dctx.scalar(HALF) + dctx.phi)
    _rec(records, "lower^2 = 2 Y",
         low @ low, dctx.lift(dctx.ama.Y).scale(2))
    _rec(records, "raise^2 = -2 X",
         high @ high, dctx.lift(dctx.ama.X).scale(-2))
    return records


# -- the coordinate decomposition of the distinguished twist --------------------


def c2_decomposition_check(dctx: DiracContext) -> list:
    """The distinguished twist through its coordinate pieces.

    The image of the half-sum expands as sum_i T_i c_i; the image of its
    square expands as sum_{i<j} [T_i, T_j] c_i c_j plus the central
    element Z3; the twisted operator is the Dirac element with modified
    angular momenta plus Z3 - phi.
    """
    records: list = []
    cov = dctx.cover
    par = dctx.family.param
    n = dctx.n
    # build_T takes 0-based coordinates; Clifford generators are 1-based
    ts = [build_T(cov, par, i) for i in range(n)]
    for i in range(n):
        records.append(_check_record(f"T[{i}] root-side variant agrees",
                                     build_T_bullet(cov, par, i) == ts[i]))
    _rec(records, "half-sum image = sum T_i c_i",
         dctx.rho(ztilde(cov, par)),
         dctx.spin_sum((dctx.family.from_group_algebra(ts[i].p),
                        dctx._cvec(i + 1)) for i in range(n)))
    # [T_i, T_j] on X, keyed by the 1-based generator pair (i, j)
    comms = {(i + 1, j + 1): dctx.family.from_group_algebra(
                 ts[i].commutator(ts[j]).p)
             for i in range(n) for j in range(i + 1, n)}
    c2 = dctx.c2
    z3 = dctx.group_factor(dctx.z3)
    _rec(records, "twist image = sum [T_i, T_j] c_i c_j + Z3",
         dctx.rho(c2),
         z3 + dctx.spin_sum((t, dctx._cpair(*ij)) for ij, t in comms.items()))
    dop = build_dirac(dctx, c2, name="C2")
    _rec(records, "twisted operator = modified angular momenta + Z3 - phi",
         dop.op, z3 - dctx.phi + dctx.spin_sum(
             (dctx.ama.M(*ij) + t, dctx._cpair(*ij))
             for ij, t in comms.items()))
    return records


def vogan_witness_check(dctx: DiracContext, twist: HatElement) -> list:
    """Witness recursion for the lifted center, to the second power.

    gamma = rho(twist^2) - 1 and a_1 = D/2 - rho(twist) satisfy
    casimir tensor 1 = gamma + {D, a_1}; higher powers follow from
    a_{m+1} = a_m gamma + a_1 gamma^m + 2 D a_m a_1.
    """
    records: list = []
    dop = build_dirac(dctx, twist)
    d = dop.op
    gamma = dctx.rho(twist * twist) - dctx.identity
    a1 = d.scale(HALF) - dop.rho_twist
    _rec(records, "witness commutes with the operator",
         a1.commutator(d), _zero(d))
    om = dctx.casimir
    om_pow = om
    gam_pow = gamma
    a_m = a1
    for p in (1, 2):
        if p > 1:
            a_m = (a_m @ gamma) + (a1 @ gam_pow) + ((d @ a_m) @ a1).scale(2)
            gam_pow = gam_pow @ gamma
            om_pow = om_pow @ om
        _rec(records,
             f"casimir^{p} = gamma^{p} + {{D, witness {p}}}",
             om_pow, gam_pow + d.anticommutator(a_m))
    return records


# -- exact restriction utilities -------------------------------------------------


def _solve_columns(basis: Matrix, target: Matrix) -> Matrix:
    """Exact solution X of basis @ X = target, read off identity rows.

    Contract: every column k of basis has a row equal to the unit vector
    e_k.  Kernel bases carry one on each free row, and Kronecker products
    with I_S and products of such bases keep them.  Such a row i makes
    row i of basis @ X equal row k of X, so X is target read at those rows
    and is unique.  basis @ X == target is then checked exactly; a column
    without an identity row, or a target outside the span, raises
    RuntimeError.
    """
    unit = (basis.num != 0).sum(axis=(0, 2)) == 1
    ii, kk = np.nonzero(unit[:, None] & (basis.plane(0) == basis.den))
    ks, first = np.unique(kk, return_index=True)
    if len(ks) != basis.ncols:
        raise RuntimeError("restriction failed: basis lacks an identity "
                           "row for some column")
    sol = Matrix._make(target.num[:, ii[first]], target.den, target.comps)
    if basis @ sol != target:
        raise RuntimeError("restriction failed verification")
    return sol


def _restrict(block: Matrix, basis: Matrix) -> Matrix:
    """Matrix of an invariant operator block in the given column basis."""
    return _solve_columns(basis, block @ basis)


@dataclass(frozen=True)
class HarmonicSlice:
    """One harmonic slice, made once by `DiracContext.slices`: its basis b
    in X_m and spin_basis = b tensor I_S.  When the slice is unitary (not
    empty, and b^dagger G_m b positive definite by the exact Sylvester
    test), form is that form tensored with the spinor form, the identity,
    and omega the Casimir scalar on spin_basis, None if the Casimir acts
    by no scalar; on other slices both are None.  An operator's block on
    spin_basis is made once, in `DiracOperator.restricted`."""

    basis: Matrix
    spin_basis: Matrix
    form: Matrix | None = None
    omega: ExactScalar | None = None

    def scalar_omega(self) -> ExactScalar:
        """omega, on a unitary slice; RuntimeError when it is None."""
        if self.omega is None:
            raise RuntimeError("Casimir is not scalar on the slice; scalar "
                               "spectra need an irreducible twist of the "
                               "module")
        return self.omega


# -- kernel cohomology -----------------------------------------------------------


@dataclass
class CohomologyResult:
    """Kernel-versus-image data for one harmonic degree slice.

    dim_h = dim_ker - dim_overlap always; kernel_basis columns live in the
    slice coordinates.  omega_scalar is the scalar action of the Casimir
    on the kernel when the kernel is nonzero.  exact is always True; it is
    kept because the perfbench workloads and the tests read it.
    """

    degree: int
    dim_space: int
    dim_ker: int
    dim_im: int
    dim_overlap: int
    dim_h: int
    kernel_basis: Matrix | None
    omega_scalar: ExactScalar | None
    exact: bool = True


def dirac_cohomology(dop: DiracOperator, m: int) -> CohomologyResult:
    """Kernel modulo (kernel meet image) on the degree-m harmonic slice.

    The operator preserves the slice because the angular momenta and the
    group action both commute with the Laplacian; all ranks are exact.
    The overlap is dim(ker r meet im r) = rank r - rank r^2: r maps ker r^2
    onto ker r meet im r, and the kernel of that map is ker r.  r is the
    slice block `dop.restricted[m]`, restricted once per operator.
    """
    dctx = dop.ctx
    bs = dctx.slices[m].spin_basis
    d = bs.ncols
    if d == 0:
        return CohomologyResult(m, 0, 0, 0, 0, 0, Matrix(bs.nrows, 0), None)
    r = dop.restricted[m]
    ker = kernel(r)
    dim_ker = ker.ncols
    dim_im = d - dim_ker
    overlap = dim_im - rank(r @ r) if dim_ker and dim_im else 0
    kb = bs @ ker
    om = None
    if dim_ker:
        om = _restrict(dctx.casimir.blocks[m],
                       kb).is_scalar_multiple_of_identity()
    return CohomologyResult(m, d, dim_ker, dim_im, overlap,
                            dim_ker - overlap, kb, om)


# -- isotypic machinery ----------------------------------------------------------


# the basis 1, sqrt2, i, i sqrt2 as complex floats, and its image under
# the Galois twist sqrt2 -> -sqrt2
_BASES = np.array([[1, SQRT2_FLOAT, 1j, 1j * SQRT2_FLOAT],
                   [1, -SQRT2_FLOAT, 1j, -1j * SQRT2_FLOAT]])


def _eigensplit(r: Matrix):
    """Exact eigenspace decomposition of r = num / den.

    For an eigenvalue s of r in the field, den * s is an eigenvalue of
    num, so an algebraic integer, and its real and imaginary parts are
    a + b sqrt2 / 2 with integers a and b.  With x = den * s and x' its
    sqrt2-conjugate, an eigenvalue of num with sqrt2 negated,
    a = (x + x') / 2 and b = (x - x') / sqrt2.  Candidates come from
    rounding these over every pair of float eigenvalues, best-rounded
    first; each is kept when its exact kernel is nonzero, until the
    kernels fill the space.

    Returns (eigenvalue, kernel basis) pairs, ordered by the first float
    eigenvalue of num nearest each, or None when the verified eigenspaces
    fail to fill the space (an eigenvalue outside the field, or an
    operator that is not semisimple over the field).
    """
    d = r.nrows
    s = r.is_scalar_multiple_of_identity()
    if s is not None:
        return [(s, Matrix.identity(d))] if d else []
    x, xc = np.linalg.eigvals(np.tensordot(_BASES[:, list(r.comps)],
                                           r.num.astype(float), 1))
    a = (x[:, None] + xc) / 2
    b = (x[:, None] - xc) / SQRT2_FLOAT
    ra, rb = np.rint(a), np.rint(b)
    err = abs(a - ra) + abs(b - rb)
    cands = np.stack([ra.real, rb.real, ra.imag, rb.imag], axis=-1)
    order = np.argsort(err, axis=None, kind="stable")
    spaces = []
    total = 0
    for key in dict.fromkeys(tuple(map(int, c)) for c in
                             cands.reshape(-1, 4)[order].tolist()):
        s = ExactScalar._raw(2 * key[0], key[1], 2 * key[2], key[3],
                             2 * r.den)
        es = kernel(r.add_to_diagonal(-s))
        if es.ncols:
            spaces.append((s, es))
            total += es.ncols
            if total == d:
                break
    if total != d:
        return None
    return sorted(spaces, key=lambda sp: int(np.argmin(
        abs(x - r.den * sp[0].to_complex()))))


def _isotypic_pieces(dctx: DiracContext, kb: Matrix, m: int):
    """Joint eigenspaces of the twisted class sums on an invariant space.

    The class sums span the center of the twisted cover algebra, so their
    joint eigenspaces are exactly the isotypic components; the extension
    factor joins the list when -1 lies in the group.  Returns bases in
    kb-coordinates, or None when an eigenspace split fails.
    """
    d = kb.ncols
    ops = [dctx.rho(HatElement(dctx.cover, m=md)).blocks[m]
           for md in dctx.cover.tilde_classes]
    if dctx.cover.has_g():
        ops.append(dctx.rho(HatElement.g(dctx.cover)).blocks[m])
    pieces = [Matrix.identity(d)]
    for a in ops:
        ak = _restrict(a, kb)
        nxt = []
        for p in pieces:
            if p.ncols == 1:
                nxt.append(p)
                continue
            split = _eigensplit(_restrict(ak, p))
            if split is None:
                return None
            nxt.extend(p @ e for _, e in split)
        pieces = nxt
    return pieces


def central_character_check(dop: DiracOperator, m: int) -> dict:
    """Center-minus-transport annihilates the kernel, refined isotypically.

    The exact content: (casimir tensor 1) - (rho(twist)^2 - 1) restricted
    to ker vanishes, and the point reflection acts on ker by its predicted
    sign when -1 lies in the group.  The kernel is then split into
    isotypic pieces, the joint eigenspaces of the twisted class sums, and
    the normalized trace of the transported Casimir is matched per piece,
    a failure's witness listing the pieces that fail; when an eigenvalue
    split fails, "isotypic" says so and no per-piece record is added.
    """
    dctx = dop.ctx
    records: list = []
    coh = dirac_cohomology(dop, m)
    out = {"records": records, "cohomology": coh, "isotypic": []}
    if coh.dim_ker == 0:
        out["isotypic"] = "empty kernel"
        return out
    kb = coh.kernel_basis
    rsq = dop.rho_twist @ dop.rho_twist
    prod = (dctx.casimir - rsq + dctx.identity).blocks[m] @ kb
    spot = first_nonzero([(1, prod)])
    records.append(_check_record(
        "casimir matches the transported twist square on ker", spot is None,
        None if spot is None else _witness(m, spot, prod.get(*spot), ZERO)))
    if dctx.cover.has_g():
        w0 = dctx.cover.group.minus_identity_index()
        point = dctx.lift(dctx.family.w_op(w0)).blocks[m]
        got = _restrict(point, kb).is_scalar_multiple_of_identity()
        tau_sc = dctx.family.tau.mat(w0).is_scalar_multiple_of_identity()
        if tau_sc is not None:
            want = tau_sc if m % 2 == 0 else -tau_sc
            okp = got is not None and got == want
            records.append(_check_record(
                "point reflection acts on ker by its predicted sign", okp,
                None if okp else _witness(m, None, got, want)))
    pieces = _isotypic_pieces(dctx, kb, m)
    if pieces is None:
        out["isotypic"] = "not computed (eigenvalue recognition failed)"
        return out
    iso = []
    for p in pieces:
        pb = kb @ p
        dp = p.ncols
        val = ((_restrict(rsq.blocks[m], pb).trace() - rat(dp))
               * rat(Fraction(1, dp)))
        oms = _restrict(dctx.casimir.blocks[m],
                        pb).is_scalar_multiple_of_identity()
        okp = oms is not None and val == oms
        iso.append({"dim": dp, "character_value": str(val),
                    "omega_scalar": str(oms) if oms is not None else None,
                    "status": "pass" if okp else "fail"})
    out["isotypic"] = iso
    failing = [{k: v for k, v in piece.items() if k != "status"}
               for piece in iso if piece["status"] == "fail"]
    records.append(_check_record(
        "normalized-trace character values match per isotypic piece",
        not failing, {"pieces": failing} if failing else None))
    return out


# -- unitary structure and spectra ------------------------------------------------


def _float_exponent(a: np.ndarray) -> int:
    """The binary exponent of the largest real or imaginary part of a,
    clamped to +-1000 so that 2 to its power is a normal float, when it
    lies outside 2^+-500; else 0.  Dividing a by 2 to that power is exact
    in float64 and brings its largest part near 1, so float products of
    such arrays neither overflow nor underflow; arrays within 2^+-500 are
    left as they are, their results bit for bit."""
    top = max(np.abs(a.real).max(initial=0), np.abs(a.imag).max(initial=0))
    e = int(np.frexp(top)[1])
    return max(-1000, min(e, 1000)) if abs(e) > 500 else 0


def unitarity(dop: DiracOperator, m: int) -> dict:
    """Form positivity, self-adjointness and scalar Casimir data on one
    harmonic slice for its block r = `dop.restricted[m]`, all exact, and
    for the zero twist r r = (Casimir + 1) I.  A unitary slice on which the
    Casimir acts by no scalar raises RuntimeError."""
    dctx = dop.ctx
    sl = dctx.slices[m]
    if sl.form is None:
        return {"degree": m, "dim": sl.spin_basis.ncols, "unitary": False,
                "status": "non-unitary, skipped" if sl.basis.ncols
                else "empty slice"}
    om = sl.scalar_omega()
    r = dop.restricted[m]
    lam = dctx.ama.h_scalar(m)
    out = {"degree": m, "dim": r.nrows, "unitary": True, "status": "ok",
           "self_adjoint": (r.dagger() @ sl.form) == (sl.form @ r),
           "omega_scalar": str(om),
           "lambda": str(lam) if lam is not None else None,
           "omega_matches_lambda":
               None if lam is None else om == lam * (lam - rat(2)),
           "chi_plus_one_nonneg": (om + ONE).sign_real() >= 0}
    if dop.twist.is_zero():
        out["square_is_casimir_plus_one"] = (
            r @ r == Matrix.identity(r.nrows).scale(om + ONE))
    return out


def unitarity_and_spectrum(dop: DiracOperator, m: int) -> dict:
    """`unitarity` plus the float spectrum of the block r it read, empty
    when the slice is not unitary, through a Cholesky conjugation so the
    float solve sees an honestly Hermitian matrix; when the float Gram
    matrix is too ill-conditioned to factor, a self-adjoint r gives its
    spectrum directly.  The float arrays are first scaled by powers of
    two, which is exact, when their entries are far from 1.  A value past
    float range raises OverflowError."""
    out = unitarity(dop, m)
    out["spectrum"] = []
    if not out["unitary"]:
        return out
    # G / 4^k has Cholesky factor L / 2^k, and the similarity by it is
    # the similarity by L; r / 2^e has spectrum spec / 2^e
    g = dop.ctx.slices[m].form.to_complex()
    rc = dop.restricted[m].to_complex()
    k, e = _float_exponent(g) // 2, _float_exponent(rc)
    rc = rc * 0.5 ** e
    try:
        gl = np.linalg.cholesky(g * 0.25 ** k)
    except np.linalg.LinAlgError:
        # the exact test proved G positive definite, so its float image
        # lost the parts that make it so (entries far above its smallest
        # eigenvalue): read the spectrum off r, real as r is self-adjoint
        if not out["self_adjoint"]:
            raise
        eig = np.linalg.eigvals(rc).real
    else:
        herm = gl.conj().T @ rc @ np.linalg.inv(gl.conj().T)
        eig = np.linalg.eigvalsh((herm + herm.conj().T) / 2)
    out["spectrum"] = sorted((eig * 2.0 ** e).tolist())
    return out


# -- the rescaling search ----------------------------------------------------------


def nonzero_cohomology_search(dctx: DiracContext, m: int, seed: HatElement,
                              seed_name: str = "C"):
    """Rescale an admissible seed until the kernel cohomology turns on.

    Returns (scale, sign, CohomologyResult) for the first member of the
    rescaled pair sign * scale * seed with nonzero kernel cohomology.  The
    candidate scales are sqrt(Casimir scalar + 1) / u over the nonzero real
    eigenvalues u of the seed action, read exactly off each isotypic piece
    of the slice, or off the whole slice when the isotypic split fails.
    The search never falls back to floats.  When it finds no exact scale it
    raises a one-line RuntimeError that starts "degree m:" and names the
    reason:

    - sqrt(Casimir + 1) is not in Q(sqrt2);
    - the seed action does not split on k of n pieces;
    - no rescaled twist gives kernel cohomology.
    """
    ok, failures = is_admissible(seed)
    if not ok:
        raise ValueError("seed element is not admissible: "
                         + "; ".join(failures))
    sl = dctx.slices[m]
    if sl.basis.ncols == 0:
        raise ValueError(f"empty harmonic slice at degree {m}")
    if sl.form is None:
        raise ValueError("slice is not unitary; the rescaling argument "
                         "needs a positive form")
    bs, om = sl.spin_basis, sl.omega
    if om is None:
        raise RuntimeError("Casimir is not scalar on the slice")
    r0 = _restrict(dctx.rho(seed).blocks[m], bs)
    if r0.is_zero():
        raise RuntimeError("seed element acts by zero on the slice; "
                           "choose another admissible element")
    root = sqrt_in_real_subfield(om + ONE)
    if root is None:
        raise RuntimeError(f"degree {m}: sqrt(Casimir + 1) = "
                           f"sqrt({om + ONE}) is not in Q(sqrt2)")
    # eigenvalues of the seed action, piecewise: class sums split the slice
    # with tame eigenvalues, and a central seed acts on each piece through
    # the multiplicity space alone, usually as an exact scalar; a
    # self-adjoint seed action has real eigenvalues only
    pieces = _isotypic_pieces(dctx, bs, m) or [Matrix.identity(bs.ncols)]
    exact_us: list = []
    unsplit = 0
    for p in pieces:
        split = _eigensplit(_restrict(r0, p))
        if split is None:
            unsplit += 1
            continue
        for val, _basis in split:
            if val.is_real() and not val.is_zero() and val not in exact_us:
                exact_us.append(val)
    for u in exact_us:
        scale = root / u
        if scale.sign_real() < 0:
            scale = -scale
        for sign in (1, -1):
            cand = seed.scale(scale if sign > 0 else -scale)
            dop = build_dirac(dctx, cand, name=f"scaled {seed_name}")
            coh = dirac_cohomology(dop, m)
            if coh.dim_h > 0:
                return (scale, sign, coh)
    if unsplit:
        raise RuntimeError(f"degree {m}: the seed action does not split "
                           f"on {unsplit} of {len(pieces)} pieces")
    raise RuntimeError(f"degree {m}: no rescaled twist gave kernel "
                       "cohomology")
