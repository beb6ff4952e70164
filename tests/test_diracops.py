"""Dirac elements on spinor-twisted modules: squares, frames, odd
companions, the coordinate decomposition of the distinguished twist,
kernel cohomology, and the rescaling search.

Frozen matrices and scalars below come from independent hand
computations recorded next to each assertion; structural identities are
checked through the report records of the module under test.
"""
import math
import random
from fractions import Fraction

import pytest
import sympy

from dunkldirac import diracops
from dunkldirac.clifford import CliffordElement
from dunkldirac.cover import HatElement, build_C2, jm_symmetric_elements
from dunkldirac.diracops import (
    basis_independence_check,
    build_context,
    build_dirac,
    c2_decomposition_check,
    central_character_check,
    dirac_cohomology,
    dirac_in_basis,
    dirac_square_check,
    flip_frame,
    nonzero_cohomology_search,
    rho_invariance_check,
    rotation_frame,
    scasimir_check,
    swap_frame,
    unitarity_and_spectrum,
    vogan_witness_check,
    _eigensplit,
    _solve_columns,
)
from dunkldirac.linalg import Matrix, intersection_dim, kernel, rank, stack
from dunkldirac.roots import ParamFunction, root_system
from dunkldirac.scalars import ExactScalar, IUNIT, ONE, SQRT2, ZERO, rat
from oracles import report_passes
from test_linalg import (random_q_matrix, sympy_is_zero, to_sympy,
                         to_sympy_matrix)

_CTX: dict = {}


def ctx(name, c, deg, tau="trivial"):
    key = (name, str(c), deg, tau)
    got = _CTX.get(key)
    if got is None:
        rs = root_system(name)
        got = build_context(rs, ParamFunction.from_config(c, rs), deg, tau)
        _CTX[key] = got
    return got


def zero_twist_op(dctx):
    return build_dirac(dctx, HatElement.zero(dctx.cover), name="0")


# -- the element itself ---------------------------------------------------------


def test_plane_free_dirac_matrix():
    """Degree-1 block for the rank-one symmetric group on R^2 at zero
    coupling.

    The single angular momentum sends x1 to -x2 and x2 to x1, so its
    matrix in the (x1, x2) basis is [[0, 1], [-1, 0]]; the spin factor
    sigma(c1 c2) = sigma_x sigma_y = diag(i, -i).  The block is their
    Kronecker product in module-major order.
    """
    d = ctx("S2", 0, 2)
    i, z = IUNIT, ZERO
    want = Matrix.from_rows([
        [z, z, i, z],
        [z, z, z, -i],
        [-i, z, z, z],
        [z, i, z, z],
    ])
    assert d.dirac.blocks[1] == want


def test_module_dimensions_carry_the_spin_factor():
    d = ctx("S3", Fraction(1, 2), 4)
    for m in range(5):
        assert d.module.dim(m) == d.family.dim(m) * d.spin.dim
    assert d.spin.dim == 2


@pytest.mark.parametrize("name,c,deg", [
    ("S2", 0, 2),
    ("S3", Fraction(1, 2), 4),
    ("B2", {"long": Fraction(1, 3), "short": Fraction(1, 5)}, 4),
    ("S4", Fraction(1, 2), 2),
])
def test_square_partition(name, c, deg):
    recs = dirac_square_check(ctx(name, c, deg))
    assert len(recs) == 6
    assert report_passes(recs)


def test_disjoint_pair_products_are_nonzero_before_cancelling():
    # the overlap-0 sum vanishing is only meaningful when its individual
    # terms do not; n = 4 is the smallest rank with disjoint pairs
    d = ctx("S4", Fraction(1, 2), 2)
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    nonzero = 0
    for (i, j) in pairs:
        for (k, l) in pairs:
            if {i, j} & {k, l}:
                continue
            a = d.spin_sum([(d.ama.M(i, j),
                             CliffordElement.monomial(4, (i, j)))])
            b = d.spin_sum([(d.ama.M(k, l),
                             CliffordElement.monomial(4, (k, l)))])
            prod = a @ b
            if any(not blk.is_zero() for blk in prod.blocks.values()):
                nonzero += 1
    assert nonzero > 0


# -- frames ---------------------------------------------------------------------


def test_orthonormal_frames_fix_the_element():
    recs = basis_independence_check(ctx("S3", Fraction(1, 2), 4))
    assert report_passes(recs)
    # swap, flip, rotation, and one commutator per simple root
    assert len(recs) == 3 + 2


# exact rows of each frame at n = 2 and n = 3; r = sqrt2/2
_R = ExactScalar(0, Fraction(1, 2))
FRAME_ROWS = {
    (rotation_frame, 2): [[_R, _R], [-_R, _R]],
    (rotation_frame, 3): [[_R, _R, ZERO], [-_R, _R, ZERO], [ZERO, ZERO, ONE]],
    (swap_frame, 2): [[ZERO, ONE], [ONE, ZERO]],
    (swap_frame, 3): [[ZERO, ONE, ZERO], [ONE, ZERO, ZERO], [ZERO, ZERO, ONE]],
    (flip_frame, 2): [[-ONE, ZERO], [ZERO, ONE]],
    (flip_frame, 3): [[-ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]],
}


@pytest.mark.parametrize("frame,n", list(FRAME_ROWS),
                         ids=[f"{f.__name__}-{n}" for f, n in FRAME_ROWS])
def test_frame_rows(frame, n):
    assert frame(n) == FRAME_ROWS[frame, n]


def test_shear_frame_moves_the_element():
    # e1 -> e1 + e2 is not orthogonal: the negative control
    d = ctx("S3", Fraction(1, 2), 4)
    shear = [[ONE, ONE, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    assert not dirac_in_basis(d, shear).matches(d.dirac)


def test_twisted_operator_is_diagonal_invariant():
    d = ctx("S3", Fraction(1, 2), 4)
    recs = rho_invariance_check(build_dirac(
        d, build_C2(d.cover, d.family.param), name="C2"))
    assert report_passes(recs)

    b = ctx("B2", {"long": Fraction(1, 3), "short": Fraction(1, 5)}, 4)
    recs = rho_invariance_check(build_dirac(
        b, build_C2(b.cover, b.family.param), name="C2"))
    assert report_passes(recs)
    # -1 lies in B2, so the extension factor joins the generator list
    assert any("extension factor" in r["check_id"] for r in recs)


# -- odd companions ---------------------------------------------------------------


def test_odd_companions():
    assert report_passes(scasimir_check(ctx("S3", Fraction(1, 2), 4)))


def test_odd_companions_rank_one():
    """A1 on R^1: no index pairs, so the even element vanishes and the
    bracket identity degenerates to [y c, x c] = 1 + 2Z."""
    d = ctx("A1", 0, 3)
    assert d.spin.dim == 1
    assert all(b.is_zero() for b in d.dirac.blocks.values())
    assert report_passes(scasimir_check(d))


# -- coordinate decomposition of the distinguished twist ---------------------------


@pytest.mark.parametrize("name,c", [
    ("S3", Fraction(1, 2)),
    ("B2", {"long": Fraction(1, 3), "short": Fraction(1, 5)}),
])
def test_distinguished_twist_decomposition(name, c):
    recs = c2_decomposition_check(ctx(name, c, 4))
    assert report_passes(recs)


# -- witness recursion --------------------------------------------------------------


def test_witness_recursion_s3():
    d = ctx("S3", Fraction(1, 2), 4)
    twists = {
        "zero": HatElement.zero(d.cover),
        "C2": build_C2(d.cover, d.family.param),
        "e1": jm_symmetric_elements(d.cover)["e1"],
    }
    for name, tw in twists.items():
        recs = vogan_witness_check(d, tw)
        assert len(recs) == 3
        assert report_passes(recs), name


def test_witness_recursion_b2():
    b = ctx("B2", {"long": Fraction(1, 3), "short": Fraction(1, 5)}, 4)
    recs = vogan_witness_check(b, build_C2(b.cover, b.family.param))
    assert report_passes(recs)


# -- exact restriction --------------------------------------------------------------


def test_solve_columns_roundtrip():
    b = Matrix.from_rows([[1, 0], [0, 1], [1, 1]])
    t = Matrix.from_rows([[2], [3], [5]])
    sol = _solve_columns(b, t)
    assert b @ sol == t


def test_solve_columns_rejects_dependent_basis():
    b = Matrix.from_rows([[1, 1], [0, 0], [0, 0]])
    t = Matrix.from_rows([[1], [0], [0]])
    with pytest.raises(RuntimeError):
        _solve_columns(b, t)


def test_solve_columns_rejects_out_of_span_target():
    b = Matrix.from_rows([[1], [0]])
    t = Matrix.from_rows([[0], [1]])
    with pytest.raises(RuntimeError):
        _solve_columns(b, t)


def test_solve_columns_rejects_the_coincidence_case():
    # dependent basis and out-of-span target can produce the right kernel
    # count; only the identity-block shape separates this from a solve
    b = Matrix.from_rows([[1, 1], [0, 0]])
    t = Matrix.from_rows([[0], [1]])
    with pytest.raises(RuntimeError):
        _solve_columns(b, t)


def solve_stacked(basis, target):
    """Reference solve: the free-column identity block of the kernel of
    [basis | target] carries -X in its top rows."""
    cb, ct = basis.ncols, target.ncols
    ker = kernel(stack([basis, target], 1))
    assert ker.ncols == ct
    rows = ker.rows
    assert Matrix.from_row_dicts(ct, ct, rows[cb:]) == Matrix.identity(ct)
    return -Matrix.from_row_dicts(cb, ct, rows[:cb])


def random_kernel_basis(rng, n):
    """Kernel basis of a random rank-deficient n-column matrix over
    Q(i, sqrt2): a product through an inner dimension below n."""
    k = rng.randint(1, n - 1)
    return kernel(random_q_matrix(rng, rng.randint(1, 3), k)
                  @ random_q_matrix(rng, k, n))


def test_solve_columns_matches_the_stacked_solve():
    """Kernel bases, their Kronecker products with I_2, and products of
    two kernel bases: the three shapes the engine restricts to."""
    rng = random.Random(11)
    kinds = {"kernel": [], "kron": [], "product": []}
    while min(len(v) for v in kinds.values()) < 4:
        b = random_kernel_basis(rng, rng.randint(2, 6))
        kinds["kernel"].append(b)
        kinds["kron"].append(b.kron(Matrix.identity(2)))
        if b.ncols >= 2:
            kinds["product"].append(b @ random_kernel_basis(rng, b.ncols))
    for bases in kinds.values():
        for b in bases:
            x = random_q_matrix(rng, b.ncols, rng.randint(1, 3))
            t = b @ x
            assert _solve_columns(b, t) == solve_stacked(b, t) == x


def test_solve_columns_object_entries():
    big = 1 << 70
    b = Matrix.from_rows([[1, 0], [big, 3], [0, 1], [5, -big]])
    x = Matrix.from_rows([[big, 1], [-7, big + 1]])
    t = b @ x
    assert b.num.dtype == object and t.num.dtype == object
    assert _solve_columns(b, t) == x


def test_solve_columns_needs_identity_rows():
    # full column rank, target in the span, yet no row is a unit vector
    b = Matrix.from_rows([[1, 1], [1, -1]])
    with pytest.raises(RuntimeError):
        _solve_columns(b, Matrix.from_rows([[2], [0]]))


# -- kernel cohomology ----------------------------------------------------------------


def jordan_zero(n):
    return Matrix.from_row_dicts(n, n, [{i + 1: 1} if i + 1 < n else {}
                                        for i in range(n)])


def block_diag(a, b):
    return Matrix.from_row_dicts(
        a.nrows + b.nrows, a.ncols + b.ncols,
        a.rows + [{a.ncols + j: v for j, v in row.items()} for row in b.rows])


@pytest.mark.parametrize("r, want", [
    (jordan_zero(3), 1),
    (block_diag(jordan_zero(2), jordan_zero(2)), 2),
    (block_diag(jordan_zero(2),
                Matrix.from_rows([[IUNIT, SQRT2], [1, 2 + IUNIT]])), 1),
], ids=["J3", "J2+J2", "J2+invertible"])
def test_overlap_is_rank_drop_of_the_square(r, want):
    """dim(ker r meet im r) = rank r - rank r^2, the count
    dirac_cohomology uses, against inclusion-exclusion and sympy."""
    sr = to_sympy_matrix(r)
    ns = sr.nullspace(iszerofunc=sympy_is_zero)
    rk = sr.rank(iszerofunc=sympy_is_zero)
    joint = sympy.Matrix.hstack(*ns, sr).rank(iszerofunc=sympy_is_zero)
    assert rank(r) - rank(r @ r) == intersection_dim(kernel(r), r) \
        == len(ns) + rk - joint == want


def test_kernel_cohomology_free_plane():
    """Zero twist on R^2 at zero coupling.

    Degree 0: the shifted element is multiplication by -phi = 0, so the
    whole 2-dimensional slice is kernel with no image, and the Casimir
    scalar is lambda(lambda - 2) = -1 at lambda = 1.  Degree 1: lambda = 2
    makes the square the identity, so the kernel is trivial.
    """
    dop = zero_twist_op(ctx("S2", 0, 2))
    c0 = dirac_cohomology(dop, 0)
    assert (c0.dim_space, c0.dim_ker, c0.dim_im, c0.dim_overlap, c0.dim_h) \
        == (2, 2, 0, 0, 2)
    assert c0.omega_scalar == -ONE
    assert c0.exact
    c1 = dirac_cohomology(dop, 1)
    assert c1.dim_ker == 0 and c1.dim_h == 0
    assert c1.omega_scalar is None


def test_kernel_cohomology_invariant():
    dop = zero_twist_op(ctx("S3", Fraction(1, 6), 4))
    for m in (0, 1, 2):
        c = dirac_cohomology(dop, m)
        assert c.dim_h == c.dim_ker - c.dim_overlap
        assert c.dim_ker + c.dim_im == c.dim_space


def test_kernel_cohomology_empty_slice():
    # rank one has no harmonics past degree 1
    dop = zero_twist_op(ctx("A1", 0, 3))
    c2 = dirac_cohomology(dop, 2)
    assert c2.dim_space == 0 and c2.dim_h == 0
    assert c2.omega_scalar is None


# -- exact eigenspace splitting --------------------------------------------------------


_U = SQRT2 + IUNIT * rat(Fraction(1, 7))
_V = rat(Fraction(-5, 9))


@pytest.mark.parametrize("m, want", [
    # the denominator 3001 is read off the matrix, not guessed
    (Matrix.from_rows([[rat(Fraction(1, 3001)), 0], [0, 2]]),
     {rat(Fraction(1, 3001)), rat(2)}),
    (Matrix.from_rows([[0, 2], [1, 0]]), {SQRT2, -SQRT2}),
    (Matrix.from_rows([[0, -1], [1, 0]]), {IUNIT, -IUNIT}),
    # P diag(sqrt2 + i/7, -5/9) P^-1 with P = [[1, 2], [1, 3]]
    (Matrix.from_rows([[1, 2], [1, 3]]) @ Matrix.from_rows(
        [[_U, 0], [0, _V]]) @ Matrix.from_rows([[3, -2], [-1, 1]]),
     {_U, _V}),
], ids=["denominator-3001", "surd-pair", "complex-pair", "mixed"])
def test_eigensplit_matches_sympy(m, want):
    """Every eigenvalue sympy finds, each once, with its eigenspace
    dimension; every returned basis spans an exact eigenspace."""
    split = _eigensplit(m)
    assert split is not None and {s for s, _ in split} == want
    assert sum(e.ncols for _, e in split) == m.nrows
    for s, e in split:
        assert m @ e == e.scale(s)
    found = to_sympy_matrix(m).eigenvects()
    assert len(split) == len(found)
    for ev, _mult, vecs in found:
        hits = [e for s, e in split if sympy_is_zero(to_sympy(s) - ev)]
        assert len(hits) == 1 and hits[0].ncols == len(vecs)


def test_eigensplit_scalar_and_empty():
    m = Matrix.identity(3).scale(rat(Fraction(-2, 3)))
    assert _eigensplit(m) == [(rat(Fraction(-2, 3)), Matrix.identity(3))]
    assert _eigensplit(Matrix(0, 0)) == []


def test_eigensplit_refuses_what_does_not_split():
    # a Jordan block: one eigenvector for a double eigenvalue
    jordan = Matrix.from_rows([[1, 1], [0, 1]])
    assert not to_sympy_matrix(jordan).is_diagonalizable()
    assert _eigensplit(jordan) is None
    # eigenvalues +-sqrt3 lie outside Q(i, sqrt2)
    surd3 = Matrix.from_rows([[0, 3], [1, 0]])
    assert set(to_sympy_matrix(surd3).eigenvals()) == {
        sympy.sqrt(3), -sympy.sqrt(3)}
    assert _eigensplit(surd3) is None


# -- central characters ----------------------------------------------------------------


def test_central_character_zero_twist_plane():
    """With zero twist the transported Casimir is the constant -1, so any
    kernel vector is forced onto the lambda = 1 shell; the kernel splits
    into two 1-dimensional isotypic pieces with character value -1."""
    out = central_character_check(zero_twist_op(ctx("S2", 0, 2)), 0)
    assert report_passes(out["records"])
    iso = out["isotypic"]
    assert isinstance(iso, list) and len(iso) == 2
    for piece in iso:
        assert piece["dim"] == 1
        assert piece["character_value"] == "-1"
        assert piece["status"] == "pass"


def test_central_character_empty_kernel():
    d = ctx("S3", Fraction(1, 4), 3)
    dop = build_dirac(d, build_C2(d.cover, d.family.param), name="C2")
    out = central_character_check(dop, 1)
    assert out["cohomology"].dim_ker == 0
    assert out["isotypic"] == "empty kernel"
    assert out["records"] == []


# -- unitary structure ------------------------------------------------------------------


def test_spectrum_s3_interior():
    """Trivial type at c = 1/6 on degree 1: lambda = 1 + 3/2 + 3c = 3, the
    Casimir scalar is lambda(lambda - 2) = 3, and the zero-twist square is
    the constant 4, so the spectrum is +-2 on a 6-dimensional slice."""
    out = unitarity_and_spectrum(zero_twist_op(ctx("S3", Fraction(1, 6), 4)),
                                 1)
    assert out["unitary"] and out["status"] == "ok"
    assert out["self_adjoint"] is True
    assert out["lambda"] == "3" and out["omega_scalar"] == "3"
    assert out["omega_matches_lambda"] is True
    assert out["chi_plus_one_nonneg"] is True
    assert out["square_is_casimir_plus_one"] is True
    want = [-2.0, -2.0, -2.0, -2.0, 2.0, 2.0]
    assert len(out["spectrum"]) == 6
    assert max(abs(a - b) for a, b in zip(out["spectrum"], want)) < 1e-9


@pytest.mark.parametrize("c", [10 ** 20, 10 ** 152], ids=["1e20", "1e152"])
def test_spectrum_at_huge_couplings_squares_to_the_casimir(c):
    """At c = 1e20 the float Gram matrix is singular to float precision,
    though exactly positive definite, so no float Cholesky factor exists
    and the spectrum is read off the self-adjoint operator; at 1e152 the
    float operator has entries above 2^500 and runs scaled by a power of
    two.  On the zero twist every reported eigenvalue still squares to
    Casimir + 1 to float accuracy."""
    dop = zero_twist_op(ctx("S3", Fraction(c), 2))
    for m in (1, 2):
        out = unitarity_and_spectrum(dop, m)
        assert out["status"] == "ok" and out["self_adjoint"] is True
        assert out["square_is_casimir_plus_one"] is True
        root = math.sqrt(float(Fraction(out["omega_scalar"]) + 1))
        spec = out["spectrum"]
        assert len(spec) == out["dim"]
        assert all(math.isclose(abs(s), root, rel_tol=1e-12) for s in spec)


def test_spectrum_plane_boundary():
    # lambda = 1 sits on the unitarity boundary: chi + 1 = 0 and the
    # operator is nilpotent, so both eigenvalues vanish
    out = unitarity_and_spectrum(zero_twist_op(ctx("S2", 0, 2)), 0)
    assert out["unitary"]
    assert out["lambda"] == "1" and out["omega_scalar"] == "-1"
    assert out["chi_plus_one_nonneg"] is True
    assert max(abs(s) for s in out["spectrum"]) < 1e-9


def test_spectrum_sign_type_shift():
    # the sign type shifts the weight by -3c: lambda = 1 + 3/2 - 1/2 = 2
    d = ctx("S3", Fraction(1, 6), 3, tau="sign")
    out = unitarity_and_spectrum(zero_twist_op(d), 1)
    assert out["lambda"] == "2" and out["omega_scalar"] == "0"
    assert out["omega_matches_lambda"] is True


def test_spectrum_refuses_indefinite_form():
    d = ctx("S2", -2, 3)
    out = unitarity_and_spectrum(zero_twist_op(d), 1)
    assert out["unitary"] is False
    assert out["status"] == "non-unitary, skipped"
    assert out["spectrum"] == []


def test_spectrum_empty_slice():
    out = unitarity_and_spectrum(zero_twist_op(ctx("A1", 0, 3)), 2)
    assert out["status"] == "empty slice"
    assert out["dim"] == 0


# -- the rescaling search ----------------------------------------------------------------


def test_search_s3():
    """c = 1/6, trivial type: the distinguished twist acts on each slice
    by u = 1/144, and sqrt(chi + 1) = lambda - 1 = m + 1, so the scale is
    144 (m + 1); both slices carry a 2-dimensional kernel with no image
    overlap."""
    d = ctx("S3", Fraction(1, 6), 4)
    c2 = build_C2(d.cover, d.family.param)
    for m, want_scale in ((1, 288), (2, 432)):
        scale, sign, coh = nonzero_cohomology_search(d, m, c2, "C2")
        assert scale == rat(want_scale)
        assert sign == 1
        assert coh.exact
        assert coh.dim_h == 2 and coh.dim_ker == 2 and coh.dim_overlap == 0


def test_search_stays_exact_when_the_isotypic_split_fails(monkeypatch):
    """Without the isotypic split the seed action is split over the whole
    slice as one piece, and the search returns the exact scale of
    test_search_s3."""
    d = ctx("S3", Fraction(1, 6), 4)
    c2 = build_C2(d.cover, d.family.param)
    monkeypatch.setattr(diracops, "_isotypic_pieces", lambda *args: None)
    scale, sign, coh = nonzero_cohomology_search(d, 1, c2, "C2")
    assert (scale, sign) == (rat(288), 1)
    assert coh.exact and coh.dim_h == 2


@pytest.mark.parametrize("stubbed, reason", [
    ("_eigensplit", "does not split on 1 of 1 pieces"),
    ("sqrt_in_real_subfield",
     r"sqrt\(Casimir \+ 1\) = .* is not in Q\(sqrt2\)"),
])
def test_search_stops_with_a_one_line_reason(monkeypatch, stubbed, reason):
    """With no exact eigenvalue split, or no exact sqrt(Casimir + 1), the
    search names the slice and the reason on one line; it never returns a
    float scale."""
    d = ctx("S3", Fraction(1, 6), 4)
    c2 = build_C2(d.cover, d.family.param)
    monkeypatch.setattr(diracops, stubbed, lambda *args: None)
    with pytest.raises(RuntimeError, match="^degree 1: .*" + reason) as err:
        nonzero_cohomology_search(d, 1, c2, "C2")
    assert "\n" not in str(err.value)


def test_search_b2_leaves_the_rational_grid():
    """Long/short couplings (1/3, 1/5): the twist eigenvalues on the
    degree-1 slice are 17/225 +- sqrt2/30, irrational with denominator 30,
    and lambda - 1 = 31/15.  The exact branch must still find the scale
    (lambda - 1)/u; the selected piece and sign are pinned."""
    b = ctx("B2", {"long": Fraction(1, 3), "short": Fraction(1, 5)}, 4)
    c2 = build_C2(b.cover, b.family.param)
    u_plus = ExactScalar(Fraction(17, 225), Fraction(1, 30))
    u_minus = ExactScalar(Fraction(17, 225), Fraction(-1, 30))

    lam1 = b.ama.h_scalar(1)
    scale, sign, coh = nonzero_cohomology_search(b, 1, c2, "C2")
    assert coh.exact and coh.dim_h == 2
    assert scale == (lam1 - ONE) / u_plus and sign == -1

    lam2 = b.ama.h_scalar(2)
    scale, sign, coh = nonzero_cohomology_search(b, 2, c2, "C2")
    assert coh.exact and coh.dim_h == 2
    assert scale == (lam2 - ONE) / u_minus and sign == 1


def test_search_tiny_coupling_stays_exact():
    """c = 1/100000: the seed acts on the degree-1 slice with eigenvalues
    far below any float tolerance, yet by a nonzero exact matrix, so the
    search must not call it zero and the exact branch finds the scale."""
    d = ctx("S3", Fraction(1, 100000), 3)
    c2 = build_C2(d.cover, d.family.param)
    scale, sign, coh = nonzero_cohomology_search(d, 1, c2, "C2")
    assert scale == rat(60001200000) and sign == 1
    assert coh.exact and coh.dim_h == 2


def test_search_rejects_empty_slice():
    d = ctx("A1", 0, 3)
    with pytest.raises(ValueError, match="empty harmonic slice"):
        nonzero_cohomology_search(d, 2, HatElement.zero(d.cover))


def test_search_rejects_indefinite_form():
    d = ctx("S2", -2, 3)
    with pytest.raises(ValueError, match="not unitary"):
        nonzero_cohomology_search(d, 1, HatElement.zero(d.cover))


def test_search_rejects_a_vanishing_seed():
    # at zero coupling the distinguished twist is the zero element:
    # admissible, but useless as a seed
    d = ctx("S3", 0, 3)
    c2 = build_C2(d.cover, d.family.param)
    with pytest.raises(RuntimeError, match="acts by zero"):
        nonzero_cohomology_search(d, 1, c2)


def test_search_result_rescales_to_a_kernel():
    # closing the loop: rebuild the operator from the returned pair and
    # confirm the central character data on its kernel
    b = ctx("B2", {"long": Fraction(1, 3), "short": Fraction(1, 5)}, 4)
    c2 = build_C2(b.cover, b.family.param)
    scale, sign, _coh = nonzero_cohomology_search(b, 1, c2, "C2")
    tw = c2.scale(scale if sign > 0 else -scale)
    dop = build_dirac(b, tw, name="scaled C2")
    out = central_character_check(dop, 1)
    assert report_passes(out["records"])
    names = [r["check_id"] for r in out["records"]]
    assert "point reflection acts on ker by its predicted sign" in names
    iso = out["isotypic"]
    assert isinstance(iso, list)
    assert sum(p["dim"] for p in iso) == 2


@pytest.mark.parametrize("name", ["B3", "S5", "D4"])
def test_search_is_exact_on_larger_covers(name):
    """Extended cover orders 192, 240 and 768: the isotypic split runs,
    its eigenvalues are recognized exactly, and the rescaled operator
    passes its central character check piece by piece."""
    d = ctx(name, Fraction(1, 3), 2)
    c2 = build_C2(d.cover, d.family.param)
    scale, sign, coh = nonzero_cohomology_search(d, 1, c2, "C2")
    assert coh.exact and coh.dim_h > 0
    dop = build_dirac(d, c2.scale(scale if sign > 0 else -scale),
                      name="scaled C2")
    out = central_character_check(dop, 1)
    assert report_passes(out["records"])
    assert isinstance(out["isotypic"], list)


def test_inadmissible_twist_is_rejected_with_a_reason():
    d = ctx("S3", Fraction(1, 2), 4)
    g1 = HatElement(d.cover, p={1: ONE})
    with pytest.raises(ValueError, match="not admissible"):
        build_dirac(d, g1)
