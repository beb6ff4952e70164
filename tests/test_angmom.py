"""Angular momentum layer tests.

Sign conventions are pinned by classical oracles: the Weyl algebra at
c = 0 (n = 1) fixes the sl(2) bracket normalization, and plane angular
momentum at c = 0 (n = 2) fixes M_12 and its square.
"""

import itertools
import json

import pytest

from dunkldirac.angmom import (
    AmaContext,
    _rec,
    ama_relations_check,
    casimir_centrality_check,
    centralizer_check,
    msquared_identities_check,
)
from dunkldirac.linalg import Matrix
from dunkldirac.polyrep import (GradedOperator, ModuleFamily, _zero,
                                harmonic_subspace)
from dunkldirac.roots import ParamFunction, root_system
from dunkldirac.scalars import ZERO, rat

from oracles import report_passes, same_operator


def ctx_for(name, spec, tau="trivial", deg=3):
    rs = root_system(name)
    return AmaContext(ModuleFamily(rs, ParamFunction.from_config(spec, rs),
                                   tau, max_degree=deg))


def vanishes(op: GradedOperator) -> bool:
    """Whether op is zero on every degree it knows."""
    return op.matches(_zero(op))


def test_weyl_algebra_triple_frozen():
    # n = 1, c = 0: H = x d/dx + 1/2, X = -x^2/2, Y = d^2/2
    ctx = ctx_for("A1", 0, deg=6)
    for m in range(6):
        want = Matrix.identity(1).scale(rat(m) + rat("1/2"))
        assert ctx.H.blocks[m] == want
    # [X,Y] x^3 = (7/2) x^3, computed by hand in the Weyl algebra;
    # the composite needs two extra degrees of window above m = 3
    comm = ctx.X.commutator(ctx.Y)
    assert comm.blocks[3] == Matrix.identity(1).scale(rat("7/2"))
    assert comm.matches(ctx.H)
    assert report_passes(msquared_identities_check(ctx))


def test_plane_angular_momentum_frozen():
    ctx = ctx_for("S2", 0, deg=4)
    for m in ctx.H.blocks:
        assert ctx.H.blocks[m] == Matrix.identity(m + 1).scale(m + 1)
    m12 = ctx.M(1, 2)
    assert m12.blocks[1] == Matrix.from_rows([[0, 1], [-1, 0]])
    assert ctx.msquare.blocks[1] == Matrix.identity(2).scale(-1)
    assert same_operator(ctx.M(2, 1), -m12)
    assert vanishes(ctx.M(1, 1))


def test_center_scalars_per_tau():
    c = "1/6"
    for tau, want in (("trivial", rat("1/2")), ("sign", rat("-1/2"))):
        ctx = ctx_for("S3", c, tau=tau, deg=2)
        assert ctx.Z.blocks[0] == Matrix.identity(1).scale(want)
        assert ctx.tau_shift_scalar() == want
        assert ctx.h_scalar(1) == rat(1) + rat("3/2") + want
    # ambient R^3 representation of S3 is reducible: Z is not scalar on it
    ctx = ctx_for("S3", c, tau="reflection", deg=2)
    assert ctx.tau_shift_scalar() is None
    assert ctx.h_scalar(0) is None
    # ambient B2 representation is irreducible and the two class sums cancel
    ctxb = ctx_for("B2", {"short": "1/2", "long": "1/3"}, tau="reflection",
                   deg=2)
    assert ctxb.tau_shift_scalar() == ZERO
    assert ctxb.h_scalar(2) == rat(3)
    # larger groups, and a sign type with couplings of opposite signs
    for name, spec, tau, want in (
            ("D4", "1/4", "reflection", rat("3/2")),
            ("B3", {"long": "1/3", "short": "-2/7"}, "sign", rat("-8/7"))):
        assert ctx_for(name, spec, tau=tau, deg=1).tau_shift_scalar() == want


def test_z_on_degree_zero_s3():
    ctx = ctx_for("S3", "1/5", deg=2)
    assert ctx.Z.blocks[0] == Matrix.identity(1).scale(rat("3/5"))


def test_ama_relations():
    assert report_passes(ama_relations_check(ctx_for("S3", "1/2", deg=5)))
    assert report_passes(ama_relations_check(ctx_for("S2", 0, deg=4)))
    assert report_passes(ama_relations_check(
        ctx_for("B2", {"short": "1/3", "long": "-1/2"}, deg=3)))
    assert report_passes(ama_relations_check(
        ctx_for("S3", "1/3", tau="reflection", deg=2)))


def per_tuple_relations(ctx):
    """ama_relations_check as a plain per-tuple loop: every graded product
    of every tuple formed afresh, the reference for the memoised check."""
    records: list = []
    n = ctx.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            _rec(records, f"S{i}{j} = S{j}{i}", ctx.S(i, j), ctx.S(j, i))
    for (i, j, k, l) in itertools.product(range(1, n + 1), repeat=4):
        lhs = ctx.M(i, j).commutator(ctx.M(k, l))
        rhs = (ctx.M(i, l) @ ctx.S(j, k)) + (ctx.M(j, k) @ ctx.S(i, l)) \
            - (ctx.M(i, k) @ ctx.S(j, l)) - (ctx.M(j, l) @ ctx.S(i, k))
        _rec(records, f"commutation ({i},{j},{k},{l})", lhs, rhs)
        lhs = (ctx.M(i, j) @ ctx.M(k, l)) + (ctx.M(j, k) @ ctx.M(i, l)) \
            + (ctx.M(k, i) @ ctx.M(j, l))
        rhs = (ctx.M(i, j) @ ctx.S(k, l)) + (ctx.M(j, k) @ ctx.S(i, l)) \
            + (ctx.M(k, i) @ ctx.S(j, l))
        _rec(records, f"crossing ({i},{j},{k},{l})", lhs, rhs)
    return records


def same_records(ctx):
    got = ama_relations_check(ctx)
    want = per_tuple_relations(ctx)
    assert json.dumps(got) == json.dumps(want)
    return got


@pytest.mark.parametrize("name, spec, tau, deg", [
    ("S3", "1/2", "trivial", 3),
    ("B2", {"short": "1/3", "long": "-1/2"}, "trivial", 3),
    ("S3", "1/3", "reflection", 2),
])
def test_memoised_relations_match_the_per_tuple_loop(name, spec, tau, deg):
    records = same_records(ctx_for(name, spec, tau=tau, deg=deg))
    n = 2 if name == "B2" else 3
    assert len(records) == n * (n - 1) // 2 + 2 * n ** 4
    assert report_passes(records)


def test_memoised_relations_match_on_a_corrupted_s():
    ctx = ctx_for("S3", "1/2", deg=3)
    ctx._s[(1, 2)] = ctx.S(1, 2) + ctx.family.identity_op().scale(
        rat("1/7"))
    records = same_records(ctx)
    failed = [r for r in records if r["status"] == "fail"]
    assert failed[0]["check_id"] == "S12 = S21"
    assert any(r["check_id"].startswith("commutation") for r in failed)
    assert any(r["check_id"].startswith("crossing") for r in failed)
    assert all(r["witness"] is not None for r in failed)


def test_collected_relations_match_on_an_s_perturbed_at_one_degree(
        monkeypatch):
    """S_12 off by 1/7 in one entry of its degree-2 block only: the
    relations collected over the memo keys fail exactly where the
    per-record loop fails, with the same witnesses."""
    ctx = ctx_for("S3", "1/2", deg=3)
    s12, dim = ctx.S(1, 2), ctx.family.dim(2)
    bump = Matrix.from_row_dicts(dim, dim,
                                 [{1: rat("1/7")}] + [{}] * (dim - 1))
    monkeypatch.setitem(ctx._s, (1, 2), GradedOperator(
        ctx.family, 0, s12.blocks,
        lambda m: s12.blocks[m] + bump if m == 2 else s12.blocks[m]))
    records = same_records(ctx)
    failed = [r for r in records if r["status"] == "fail"]
    assert failed[0]["check_id"] == "S12 = S21"
    assert len(failed) < len(records)
    assert {r["witness"]["degree"] for r in failed} == {2}
    # the relations hold some that the perturbation breaks and others
    assert {r["status"] for r in records[3:]} == {"pass", "fail"}


def per_item_centralizer(ctx):
    """centralizer_check as a plain loop: each commutator formed and
    compared on its own, the reference for the stacked check."""
    records: list = []
    n = ctx.n
    named = [(f"M{i}{j}", ctx.M(i, j)) for i in range(1, n + 1)
             for j in range(i + 1, n + 1)]
    named += [(f"w{wi}", ctx.w(wi)) for wi in range(ctx.family.group.order)]
    for label, op in named:
        for name, a in (("H", ctx.H), ("X", ctx.X), ("Y", ctx.Y)):
            comm = op.commutator(a)
            _rec(records, f"[{label},{name}] = 0", comm, _zero(comm))
    return records


def per_item_casimir(ctx):
    """casimir_centrality_check as a plain loop, like per_item_centralizer."""
    records: list = []
    n = ctx.n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def rec(check_id, a, b):
        comm = a.commutator(b)
        _rec(records, check_id, comm, _zero(comm))
    for i, j in pairs:
        rec(f"[omega,M{i}{j}] = 0", ctx.omega, ctx.M(i, j))
    for wi in range(ctx.family.group.order):
        rec(f"[omega,w{wi}] = 0", ctx.omega, ctx.w(wi))
        rec(f"[Z,w{wi}] = 0", ctx.Z, ctx.w(wi))
    mi = ctx.family.group.minus_identity_index()
    if mi is not None:
        for i, j in pairs:
            rec(f"[(-1),M{i}{j}] = 0", ctx.w(mi), ctx.M(i, j))
    return records


def same_commutator_records(ctx):
    """The stacked centralizer and Casimir checks against their loops."""
    got = centralizer_check(ctx) + casimir_centrality_check(ctx)
    want = per_item_centralizer(ctx) + per_item_casimir(ctx)
    assert json.dumps(got) == json.dumps(want)
    return got


I24_SQRT2 = {"roots": [["1", "0"], ["0", "1"], ["1/2*sqrt2", "1/2*sqrt2"],
                       ["1/2*sqrt2", "-1/2*sqrt2"]]}


@pytest.mark.parametrize("tau", ["trivial", "reflection"])
@pytest.mark.parametrize("name, spec, deg", [
    ("S3", "1/3", 3),
    ("B2", {"short": "1/3", "long": "1/5"}, 3),
    ("B3", {"long": "1/3", "short": "1/5"}, 2),
    ("S4", "1/3", 2),
    ("I2(4)-sqrt2", "1/3", 3),
])
def test_stacked_sweeps_match_the_per_item_loops(name, spec, deg, tau):
    """The relations, centralizer and Casimir checks, each deciding its
    items from a few stacked products per degree, give records
    JSON-equal to the loops that compare every item on its own.  B2, B3
    and I2(4) contain -I, so the [(-1),M_ij] records are among theirs."""
    rs = root_system(I24_SQRT2 if name == "I2(4)-sqrt2" else name)
    ctx = AmaContext(ModuleFamily(rs, ParamFunction.from_config(spec, rs),
                                  tau, max_degree=deg))
    records = same_records(ctx) + same_commutator_records(ctx)
    assert report_passes(records)
    assert any(r["check_id"].startswith("[(-1),M") for r in records) == (
        name in ("B2", "B3", "I2(4)-sqrt2"))


def test_stacked_commutators_match_on_a_w_perturbed_at_one_degree(
        monkeypatch):
    """One group element off by 1/7 in one entry of its degree-2 block:
    the stacked checks fail exactly the records the loops fail, with the
    same witnesses, and pass the others, [w,H] among them since H is a
    scalar on each slice."""
    ctx = ctx_for("S3", "1/2", deg=3)
    wop, dim = ctx.w(3), ctx.family.dim(2)
    bump = Matrix.from_row_dicts(dim, dim,
                                 [{1: rat("1/7")}] + [{}] * (dim - 1))
    bad = GradedOperator(ctx.family, 0, wop.blocks, lambda m: (
        wop.blocks[m] + bump if m == 2 else wop.blocks[m]))
    w = ctx.w
    monkeypatch.setattr(ctx, "w", lambda wi: bad if wi == 3 else w(wi))
    records = same_commutator_records(ctx)
    failed = {r["check_id"]: r["witness"] for r in records
              if r["status"] == "fail"}
    assert {"[w3,Y] = 0", "[Z,w3] = 0"} <= set(failed)
    assert "[w3,H] = 0" not in failed
    assert all(k.startswith(("[w3,", "[omega,w3]", "[Z,w3]"))
               for k in failed)
    assert {w["degree"] for w in failed.values()} <= {0, 1, 2}


def test_ama_relation_negative_control():
    ctx = ctx_for("S3", "1/2", deg=3)
    lhs = ctx.M(1, 2).commutator(ctx.M(2, 3))
    rhs = (ctx.M(1, 3) @ ctx.S(2, 2).scale(-1)) \
        + (ctx.M(2, 2) @ ctx.S(1, 3)) \
        - (ctx.M(1, 2) @ ctx.S(2, 3)) - (ctx.M(2, 3) @ ctx.S(1, 2))
    assert lhs.first_mismatch(rhs) is not None


def test_centralizer():
    assert report_passes(centralizer_check(ctx_for("S3", "1/3", deg=3)))
    assert report_passes(centralizer_check(ctx_for("S2", 0, deg=4)))
    ctx = ctx_for("S2", "1/2", deg=3)
    fake = ctx.x(1) @ ctx.y(2)
    # x1 y2 does commute with H (H is scalar on each slice here), so the
    # discriminating bracket is the one with the lowering operator
    assert vanishes(fake.commutator(ctx.H))
    assert not vanishes(fake.commutator(ctx.Y))


def test_msquared_identities():
    assert report_passes(msquared_identities_check(ctx_for("S3", "1/2",
                                                           deg=5)))
    assert report_passes(msquared_identities_check(
        ctx_for("B2", {"short": "1/2", "long": "-1/3"}, deg=4)))
    assert report_passes(msquared_identities_check(
        ctx_for("S3", "1/3", tau="sign", deg=4)))
    # n = 4: the Casimir shift n(n-4)/4 vanishes, so omega = 2 h_omega
    ctx4 = ctx_for("S4", "1/2", deg=2)
    recs = msquared_identities_check(ctx4)
    assert report_passes(recs)
    assert ctx4.omega.matches(ctx4.h_omega.scale(2))


def test_casimir_centrality():
    assert report_passes(casimir_centrality_check(ctx_for("S3", "1/2",
                                                          deg=3)))
    # B2 contains -I, exercising the (-1) commutation records
    recs = casimir_centrality_check(
        ctx_for("B2", {"short": "1/4", "long": "1/3"}, deg=3))
    assert report_passes(recs)
    assert any(r["check_id"].startswith("[(-1),M") for r in recs)


def test_report_witness_format():
    ctx = ctx_for("S2", "1/2", deg=3)
    records = []
    _rec(records, "deliberate mismatch", ctx.H, ctx.H + ctx.family.
         identity_op())
    r = records[0]
    assert r["status"] == "fail"
    assert set(r["witness"]) == {"degree", "entry", "lhs", "rhs"}
    assert isinstance(r["witness"]["lhs"], str)


def test_omega_on_harmonic_slices():
    # c = 0, n = 3, trivial tau: omega acts on degree-m harmonics by
    # (m + 3/2)(m - 1/2), i.e. lambda(lambda - 2) with lambda = m + 3/2
    ctx = ctx_for("S3", 0, deg=3)
    for m in range(4):
        lam = ctx.h_scalar(m)
        assert lam == rat(m) + rat("3/2")
        chi = lam * (lam - rat(2))
        basis = harmonic_subspace(ctx.family, m)
        assert ctx.omega.blocks[m] @ basis == basis.scale(chi)
    # same statement away from c = 0: S3 at c = 1/6, lambda = m + 2
    ctx6 = ctx_for("S3", "1/6", deg=2)
    for m in range(3):
        lam = ctx6.h_scalar(m)
        assert lam == rat(m + 2)
        basis = harmonic_subspace(ctx6.family, m)
        assert ctx6.omega.blocks[m] @ basis == basis.scale(
            lam * (lam - rat(2)))
