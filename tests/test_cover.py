"""Double cover, cocycle, twisted algebra, and admissible elements.

The deeper identities (conjugation signs, braid signs, cocycle identity,
the projection property of lifts) are structural self-checks computed in
the Clifford algebra; the frozen values below were derived by hand for the
small groups and pin the conventions.
"""
import random
from types import SimpleNamespace

import numpy as np
import pytest

from dunkldirac.clifford import CliffordElement, _merge_sign_and_mask
from dunkldirac.linalg import Matrix
from dunkldirac.cover import (
    HatElement,
    PinCover,
    build_C2,
    build_T,
    build_T_bullet,
    build_Z3,
    center_shift,
    is_admissible,
    jm_elements,
    jm_symmetric_elements,
    jucys_murphy,
    ztilde,
)
from dunkldirac.roots import ParamFunction, root_system
from dunkldirac.scalars import HALF, IUNIT, ONE, SQRT2, rat

from oracles import conjugacy_classes, star


def make(name):
    rs = root_system(name)
    return PinCover(rs)


def params(cov, spec):
    return ParamFunction.from_config(spec, cov.rs)


def test_reflection_lifts_are_canonical():
    cov = make("S3")
    for idx in range(3):
        i = cov.group.reflection_element_index(idx)
        assert cov.lifts[i] == cov.reflection_lifts[idx]
    assert cov.lifts[0] == CliffordElement.scalar(3, 1)
    # lift of s_{e1-e2} is (c1 - c2)/sqrt2
    h = HALF * SQRT2
    want = (CliffordElement.generator(3, 1) * h
            - CliffordElement.generator(3, 2) * h)
    assert cov.reflection_lifts[0] == want


def test_projection_property():
    for name in ("S2", "S3", "B2", "D2"):
        assert make(name).projection_check()


def test_conjugation_and_braid_signs():
    for name in ("S2", "S3", "S4", "B2"):
        cov = make(name)
        assert cov.conjugation_sign_check()
        assert cov.braid_sign_check()


def test_cocycle_values_and_identity():
    for name in ("S3", "B2"):
        cov = make(name)
        order = cov.group.order
        for i in range(order):
            assert cov.cocycle(0, i) == 1
            assert cov.cocycle(i, 0) == 1
            assert cov.cocycle(i, cov.group.inv(i)) in (1, -1)
        assert cov.cocycle_identity_check()


def test_spinorial_norm_of_lifts_tracks_length():
    cov = make("S3")
    for i, word in enumerate(cov.group.words):
        lift = cov.lifts[i]
        norm = star(lift) * lift
        want = CliffordElement.scalar(3, 1 if len(word) % 2 == 0 else -1)
        assert norm == want


def test_twisted_algebra_associativity_and_identity():
    cov = make("B2")
    rng = random.Random(4099)
    one = HatElement.one(cov)

    def rand_elem():
        e = HatElement.zero(cov)
        for _ in range(3):
            idx = rng.randrange(cov.group.order)
            coeff = rat(rng.randint(-3, 3)) + IUNIT * rng.randint(-2, 2)
            part = rng.choice(("p", "m", "gp", "gm"))
            e = e + HatElement(cov, **{part: {idx: coeff}})
        return e

    for _ in range(20):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)
        assert a * one == a
        assert one * a == a
        # star is an anti-involution
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a


def test_plain_and_twisted_parts_are_orthogonal_ideals():
    cov = make("S3")
    p = HatElement(cov, p={1: ONE, 3: rat(2)})
    m = HatElement(cov, m={2: ONE})
    assert (p * m).is_zero()
    assert (m * p).is_zero()


def test_g_extension_rules():
    cov = make("B2")
    assert cov.has_g()
    g = HatElement.g(cov)
    assert g * g == HatElement.one(cov)
    assert g.star() == g
    # g is central
    for i in range(cov.group.order):
        e = HatElement(cov, p={i: ONE}, m={i: ONE})
        assert g.commutator(e).is_zero()
    # groups without -1 reject g parts
    cov3 = make("S3")
    assert not cov3.has_g()
    with pytest.raises(ValueError):
        HatElement(cov3, gp={0: ONE})


def test_star_signs_frozen_for_s3():
    cov = make("S3")
    grp = cov.group
    # transpositions: nu = det * mu(s,s) = (-1)(+1) = -1
    for idx in range(3):
        i = grp.reflection_element_index(idx)
        assert cov.star_sign(i) == -1
        e = HatElement(cov, m={i: ONE})
        assert e.star() == -e
    # the two 3-cycles map to each other with sign -1
    i12 = grp.reflection_element_index(0)
    i13 = grp.reflection_element_index(1)
    i23 = grp.reflection_element_index(2)
    cyc132 = grp.mul(i13, i23)
    cyc123 = grp.mul(i23, i13)
    assert cyc132 != cyc123
    e = HatElement(cov, m={cyc132: ONE})
    assert e.star() == HatElement(cov, m={cyc123: -ONE})
    # plain part star has no sign
    e = HatElement(cov, p={cyc132: ONE})
    assert e.star() == HatElement(cov, p={cyc123: ONE})


def test_rho_terms():
    cov = make("B2")
    grp = cov.group
    gi = cov.g_index
    e = HatElement(cov, p={1: rat(5)}, m={2: rat(3)}, gm={0: ONE})
    terms = e.rho_terms()
    # plain part dies; twisted term carries its lift; g shifts by -1
    assert set(terms) == {2, gi}
    assert terms[2] == cov.lifts[2] * rat(3)
    assert terms[gi] == CliffordElement.scalar(2, 1)


def test_center_shift_and_ztilde_match():
    cov = make("S3")
    c = params(cov, "1/2")
    z = center_shift(cov, c)
    zt = ztilde(cov, c)
    half_z = z.scale(HALF)
    assert zt.p == half_z.p
    assert zt.m == half_z.p
    for idx in range(3):
        i = cov.group.reflection_element_index(idx)
        assert z.p[i] == rat("1/2")
        assert half_z.p[i] == rat("1/4")


def test_frozen_s2_elements():
    cov = make("S2")
    c = params(cov, 1)
    si = cov.group.reflection_element_index(0)
    t1 = build_T(cov, c, 0)
    # T_1 = (1/(2 sqrt2)) s = (sqrt2/4) s
    assert t1.p == {si: SQRT2 * rat("1/4")}
    t2 = build_T(cov, c, 1)
    assert t2.p == {si: -(SQRT2 * rat("1/4"))}
    z3 = build_Z3(cov, c)
    assert z3.p == {0: rat("1/4")}
    c2 = build_C2(cov, c)
    assert c2 == HatElement.one(cov).scale(rat("1/4"))


def test_t_equals_t_bullet():
    for name in ("S2", "S3", "S4", "B2"):
        cov = make(name)
        c = params(cov, "1/3") if name != "B2" else params(
            cov, {"short": "1/2", "long": "-1/3"})
        for i in range(cov.n):
            assert build_T(cov, c, i) == build_T_bullet(cov, c, i)


def test_c2_structure_for_s3():
    cov = make("S3")
    c = params(cov, 1)
    c2 = build_C2(cov, c)
    # identity coefficient 3/4 in both parts
    assert c2.p[0] == rat("3/4")
    assert c2.m[0] == rat("3/4")
    # plus part equals (Z/2)^2 in the plain group algebra
    z = center_shift(cov, c).scale(HALF)
    assert (z * z).p == c2.p
    ok, failures = is_admissible(c2)
    assert ok, failures


def test_c2_admissible_across_groups_and_parameters():
    for name, spec in (("S2", "1/2"), ("S3", "-1/3"), ("S4", "1/2"),
                       ("B2", {"short": "1/2", "long": "-1/3"}),
                       ("D2", "2")):
        cov = make(name)
        c2 = build_C2(cov, params(cov, spec))
        ok, failures = is_admissible(c2)
        assert ok, (name, failures)


def test_admissibility_counterexamples():
    cov = make("S3")
    c = params(cov, 1)
    # a single twisted reflection: central fails and star flips sign
    i = cov.group.reflection_element_index(0)
    tau = HatElement(cov, m={i: ONE})
    ok, failures = is_admissible(tau)
    assert not ok
    assert "not star-fixed" in failures
    # i * C2 is central but not star-fixed (star is anti-linear)
    c2i = build_C2(cov, c).scale(IUNIT)
    ok, failures = is_admissible(c2i)
    assert not ok and failures == ["not star-fixed"]
    # a plain simple reflection commutes with itself but not with s[2]
    ok, failures = is_admissible(HatElement(cov, p={i: ONE}))
    assert (ok, failures) == (False, ["does not commute with plain s[2]"])
    # zero and one are admissible
    assert is_admissible(HatElement.zero(cov))[0]
    assert is_admissible(HatElement.one(cov))[0]


def test_rho_of_ztilde_decomposes_through_t_elements():
    for name, spec in (("S3", "1/3"), ("B2", {"short": "1/2", "long": "1"})):
        cov = make(name)
        c = params(cov, spec)
        lhs = ztilde(cov, c).rho_terms()
        rhs: dict = {}
        for i in range(cov.n):
            ti = build_T(cov, c, i)
            ci = CliffordElement.generator(cov.n, i + 1)
            for w, coeff in ti.p.items():
                cur = rhs.get(w, CliffordElement(cov.n))
                rhs[w] = cur + ci * coeff
        assert lhs == rhs


def test_rho_of_c2_decomposition():
    # rho(C2) = sum_{i<j} [T_i, T_j] (x) c_i c_j + Z3 (x) 1, as formal
    # group-indexed Clifford coefficients
    for name, spec in (("S2", "1"), ("S3", "1/3"),
                       ("B2", {"short": "1/2", "long": "-1/3"})):
        cov = make(name)
        c = params(cov, spec)
        lhs = build_C2(cov, c).rho_terms()
        rhs: dict = {}
        for i in range(cov.n):
            for j in range(i + 1, cov.n):
                com = build_T(cov, c, i).commutator(build_T_bullet(cov, c, j))
                cij = CliffordElement.monomial(cov.n, (i + 1, j + 1))
                for w, coeff in com.p.items():
                    cur = rhs.get(w, CliffordElement(cov.n))
                    rhs[w] = cur + cij * coeff
        for w, coeff in build_Z3(cov, c).p.items():
            cur = rhs.get(w, CliffordElement(cov.n))
            rhs[w] = cur + CliffordElement.scalar(cov.n, coeff)
        rhs = {w: v for w, v in rhs.items() if not v.is_zero()}
        assert lhs == rhs, name


def test_jm_elements_s3():
    cov = make("S3")
    ms = jm_elements(cov)
    assert ms[0].is_zero()
    grp = cov.group
    i12 = grp.reflection_element_index(0)
    i13 = grp.reflection_element_index(1)
    i23 = grp.reflection_element_index(2)
    assert ms[1] == HatElement(cov, m={i12: ONE})
    assert ms[2] == HatElement(cov, m={i13: ONE, i23: ONE})
    # frozen square: m3^2 = 2 + e_(132) - e_(123) in the twisted part
    cyc132 = grp.mul(i13, i23)
    cyc123 = grp.mul(i23, i13)
    sq = ms[2] * ms[2]
    assert sq == HatElement(cov, m={0: rat(2), cyc132: ONE, cyc123: -ONE})
    # at n = 3 the squares happen to be central
    for m in ms:
        ok, failures = is_admissible(m * m)
        assert ok, failures


def test_jm_symmetric_elements_admissible():
    for name in ("S3", "S4"):
        cov = make(name)
        sym = jm_symmetric_elements(cov)
        for key in ("e1", "e2"):
            ok, failures = is_admissible(sym[key])
            assert ok, (name, key, failures)
        # squares commute pairwise but (for S4) are not all central
        sqs = sym["squares"]
        for a in range(len(sqs)):
            for b in range(a + 1, len(sqs)):
                assert sqs[a].commutator(sqs[b]).is_zero()
    s4 = make("S4")
    sq3 = jucys_murphy(s4, 3)
    sq3 = sq3 * sq3
    ok, failures = is_admissible(sq3)
    assert not ok and any("commute" in f for f in failures)


def test_jm_rejects_non_symmetric_groups():
    cov = make("B2")
    with pytest.raises(ValueError):
        jucys_murphy(cov, 2)


def test_scaled_admissibles():
    cov = make("S3")
    c2 = build_C2(cov, params(cov, "1/6"))
    scaled = c2.scale(rat("-7/3"))
    assert is_admissible(scaled)[0]
    total = scaled + jm_symmetric_elements(cov)["e1"]
    assert is_admissible(total)[0]


def test_group_algebra_element_basics():
    cov = make("S3")
    a = HatElement(cov, p={1: ONE})
    b = HatElement(cov, p={2: rat(3)})
    prod = a * b
    assert prod.p == {cov.group.mul(1, 2): rat(3)}
    # the exhaustive oracle for the generator test inside build_Z3: Z and
    # Z3 commute with every group element
    for name, spec in (("S3", "1/2"),
                       ("B2", {"short": "1/2", "long": "-1/3"}),
                       ("S4", "1/3")):
        cov = make(name)
        c = params(cov, spec)
        for z in (center_shift(cov, c), build_Z3(cov, c)):
            for w in range(cov.group.order):
                assert z.commutator(HatElement(cov, p={w: ONE})).is_zero()


def test_z3_of_a_coupling_that_is_not_invariant_is_not_central():
    # c_a = 1, ..., 6 on the six roots of S4 is not constant on the one
    # orbit, so Z3 fails the generator test
    cov = make("S4")
    stub = SimpleNamespace(per_root=lambda rs: [rat(k) for k in range(1, 7)])
    with pytest.raises(RuntimeError, match="not central"):
        build_Z3(cov, stub)


def test_elements_of_different_algebras_do_not_combine():
    with pytest.raises(ValueError):
        CliffordElement(2) * CliffordElement(3)
    a, b = make("S3"), make("S3")
    with pytest.raises(ValueError):
        HatElement.one(a) + HatElement.one(b)
    with pytest.raises(ValueError):
        HatElement.one(a) * HatElement.one(b)
    with pytest.raises(ValueError):
        HatElement(a, p={1: ONE}) - HatElement(b, p={1: ONE})
    # different algebras never compare equal
    assert HatElement.one(a) != HatElement.one(b)


def test_scale_by_a_string_agrees_across_the_algebras():
    cov = make("B2")
    elems = [CliffordElement.scalar(2, rat("1/2"))
             + CliffordElement.monomial(2, (1, 2)),
             HatElement(cov, p={1: ONE}, m={2: IUNIT}, gm={0: rat(3)})]
    r = rat("-3/2")
    for e in elems:
        want = e.scale(r)
        assert e.scale("-3/2") == want
        assert e * "-3/2" == want == "-3/2" * e
        assert want.coeffs == {k: v * r for k, v in e.coeffs.items()}
        surd = e.scale(SQRT2)
        assert e * SQRT2 == surd == SQRT2 * e
        assert surd.coeffs == {k: v * SQRT2 for k, v in e.coeffs.items()}
        assert e.scale("0").is_zero()
        with pytest.raises(ValueError, match="not a rational"):
            e.scale("sqrt2")


# the dihedral group of order 8 with roots in Q(sqrt2)
SQRT2_ROOTS = {"roots": [["1", "0"], ["0", "1"],
                         ["1/2*sqrt2", "1/2*sqrt2"],
                         ["1/2*sqrt2", "-1/2*sqrt2"]], "name": "I2(4)-sqrt2"}


@pytest.mark.parametrize("spec", ["S3", "B3", "D4", "I2(4)", SQRT2_ROOTS],
                         ids=["S3", "B3", "D4", "I2(4)", "I2(4)-sqrt2"])
def test_cocycle_table_matches_clifford_products(spec):
    cov = PinCover(root_system(spec))
    lifts = cov.lifts
    for i, a in enumerate(lifts):
        for j, b in enumerate(lifts):
            prod, want = a * b, lifts[cov.group.mul(i, j)]
            sign = cov.cocycle(i, j)
            assert prod == (want if sign > 0 else -want)


def full_product_cocycle_table(cov):
    """The cocycle table from one exact product per element u: the lifts as
    rows times the right multiplication by lift(u), built entry by entry
    from the blade product, each row compared in full with +-lift(vu)."""
    order, size = cov.group.order, 1 << cov.n
    lifts = Matrix.from_row_dicts(order, size, (x.coeffs for x in cov.lifts))
    mu = np.empty((order, order), dtype=np.int8)
    for u, lift in enumerate(cov.lifts):
        rows = [{} for _ in range(size)]
        for s in range(size):
            for t, v in lift.coeffs.items():
                sign, mask = _merge_sign_and_mask(s, t)
                rows[s][mask] = v if sign > 0 else -v
        prod = lifts @ Matrix.from_row_dicts(size, size, rows)
        want = lifts.num[:, cov.group.mul_table[:, u]]
        plus = (prod.num != want).any(axis=(0, 2))
        assert prod.den == lifts.den
        assert not (plus & (prod.num != -want).any(axis=(0, 2))).any()
        mu[:, u] = np.where(plus, -1, 1)
    return mu


@pytest.mark.parametrize("spec", ["S4", "S5", "B4", "D4", SQRT2_ROOTS],
                         ids=["S4", "S5", "B4", "D4", "I2(4)-sqrt2"])
def test_derived_cocycle_table_matches_full_products(spec):
    cov = PinCover(root_system(spec))
    assert np.array_equal(cov.cocycle_table, full_product_cocycle_table(cov))


def test_derived_cocycle_table_follows_negated_lifts():
    """Negating some lifts changes mu by a coboundary; the derivation reads
    the signs E[p, a] of every BFS step, so it does not rest on lift(u) =
    lift(p) l_a as the constructor builds it."""
    cov = make("S4")
    before = cov.cocycle_table.copy()
    del cov.cocycle_table
    rng = random.Random(2203)
    for i in rng.sample(range(1, cov.group.order), 9):
        cov.lifts[i] = -cov.lifts[i]
    assert not np.array_equal(cov.cocycle_table, before)
    assert np.array_equal(cov.cocycle_table, full_product_cocycle_table(cov))


def test_corrupted_leaf_lift_breaks_the_cocycle_table():
    """A BFS leaf is no element's parent, so the derivation along words
    never reads its lift; the full comparison of the reflection products
    still sees it."""
    cov = make("S4")
    parents = set(cov.group.parents)
    leaf = next(i for i, x in enumerate(cov.lifts)
                if i not in parents and len(x.coeffs) > 1)
    mask, val = next(iter(cov.lifts[leaf].coeffs.items()))
    cov.lifts[leaf] = CliffordElement(cov.n, {**cov.lifts[leaf].coeffs,
                                              mask: -val})
    with pytest.raises(RuntimeError, match="cover is corrupted"):
        cov.cocycle(0, 0)


def test_negated_identity_lift_breaks_the_cocycle_table():
    """lift(1) = -1 passes every reflection product up to sign, so it is
    checked on its own."""
    cov = make("S3")
    cov.lifts[0] = -cov.lifts[0]
    with pytest.raises(RuntimeError, match="cover is corrupted"):
        cov.cocycle(0, 0)


def test_projection_check_rejects_swapped_lifts_of_equal_parity():
    cov = make("S5")
    assert cov.projection_check()
    i, j = [k for k, w in enumerate(cov.group.words) if len(w) == 2][:2]
    cov.lifts[i], cov.lifts[j] = cov.lifts[j], cov.lifts[i]
    assert not cov.projection_check()


def test_corrupted_lift_breaks_the_cocycle_table():
    cov = make("S3")
    k = next(i for i, x in enumerate(cov.lifts) if len(x.coeffs) > 1)
    mask, val = next(iter(cov.lifts[k].coeffs.items()))
    cov.lifts[k] = CliffordElement(cov.n, {**cov.lifts[k].coeffs,
                                           mask: -val})
    with pytest.raises(RuntimeError, match="cover is corrupted"):
        cov.cocycle(0, 0)


def test_projection_check_rejects_a_wrong_lift():
    cov = make("S3")
    cov.lifts[1] = cov.lifts[2]
    assert not cov.projection_check()


def test_flipped_cocycle_entry_fails_the_scan():
    cov = make("S3")
    assert cov.cocycle_identity_check()
    cov.cocycle_table[1, 2] *= -1
    assert not cov.cocycle_identity_check()


@pytest.mark.parametrize("name, classes", [("S5", 7), ("D4", 13),
                                           ("B4", 20)])
def test_cover_checks_at_the_order_bound(name, classes):
    cov = make(name)
    assert cov.projection_check()
    assert cov.conjugation_sign_check()
    assert cov.braid_sign_check()
    assert cov.cocycle_identity_check()
    sizes = [len(c) for c in conjugacy_classes(cov.group)]
    assert len(sizes) == classes and sum(sizes) == cov.group.order
