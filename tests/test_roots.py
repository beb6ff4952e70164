"""Root systems: reflections, enumeration, orbits, wedge-square elements."""
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from dunkldirac.linalg import Matrix
from dunkldirac.roots import ParamFunction, RootSystem, root_system
from dunkldirac.scalars import ExactScalar, ONE, rat

from oracles import conjugacy_classes, matrix_key, rational


def test_reflection_matrices():
    s2 = root_system("S2")
    # alpha = e1 - e2 swaps coordinates
    assert s2.reflection(0) == Matrix.from_rows([[0, 1], [1, 0]])
    b2 = root_system("B2")
    # first B2 root is e1: diag(-1, 1)
    assert b2.positive_roots[0] == (ONE, ExactScalar(0))
    assert b2.reflection(0) == Matrix.from_rows([[-1, 0], [0, 1]])


def test_reflections_are_involutions():
    # every built-in system the README lists, and roots in Q(sqrt2)
    for spec in ("S2", "S3", "S4", "S5", "A1", "B2", "B3", "B4", "D2", "D3",
                 "D4", "I2(4)", SQRT2_ROOTS):
        rs = root_system(spec)
        for i in range(len(rs.positive_roots)):
            s = rs.reflection(i)
            assert s @ s == Matrix.identity(rs.n)


def test_group_orders():
    assert root_system("S3").group().order == 6
    assert root_system("B2").group().order == 8
    assert root_system("S4").group().order == 24
    assert root_system("B3").group().order == 48
    assert root_system("D3").group().order == 24
    assert root_system("A1").group().order == 2
    assert root_system("I2(4)").group().order == 8


def test_group_bound(monkeypatch):
    from dunkldirac import roots
    monkeypatch.setattr(roots, "GROUP_ORDER_BOUND", 100)
    with pytest.raises(ValueError, match="exceeds bound 100"):
        roots.ReflectionGroup(root_system("B4"))


def test_minus_identity_detection():
    for name, present in (("B2", True), ("S3", False), ("A1", True),
                          ("S2", False), ("D4", True)):
        mi = root_system(name).group().minus_identity_index()
        assert (mi is not None) == present


def brute_wedge2(rs):
    """Independent oracle: act on e_i ^ e_j via 2x2 minors over Fractions."""
    grp = rs.group()
    pairs = list(combinations(range(rs.n), 2))
    out = []
    for idx, g in enumerate(grp.matrices):
        dense = [[rational(g.get(i, j)) for j in range(rs.n)]
                 for i in range(rs.n)]
        ok = True
        for (i, j) in pairs:
            for (k, l) in pairs:
                minor = dense[k][i] * dense[l][j] - dense[l][i] * dense[k][j]
                want = 1 if (k, l) == (i, j) else 0
                if minor != want:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(idx)
    return out


def test_wedge2_trivial_elements():
    # rank 2 is special: wedge^2 R^2 is the determinant line, so the full
    # rotation subgroup acts trivially (4 elements for B2, including -I)
    b2 = root_system("B2")
    got = brute_wedge2(b2)
    grp = b2.group()
    assert len(got) == 4
    for i in got:
        m = grp.matrices[i]
        assert m.get(0, 0) * m.get(1, 1) - m.get(0, 1) * m.get(1, 0) == ONE
    # the identity and -1 (when present) act trivially; in rank >= 3 they
    # are the only elements that do
    for name in ("B2", "S3", "S4", "B3"):
        rs = root_system(name)
        mi = rs.group().minus_identity_index()
        want = {0} if mi is None else {0, mi}
        got = set(brute_wedge2(rs))
        assert want <= got
        assert got == want or rs.n == 2


def test_orbit_labels():
    assert set(root_system("S3").orbit_labels()) == {"all"}
    b2 = root_system("B2")
    labels = b2.orbit_labels()
    assert set(labels) == {"short", "long"}
    # short roots are e1, e2 with norm 1
    for i, lab in enumerate(labels):
        norm = b2.norms_sq[i]
        assert (lab == "short") == (norm == ONE)
    assert set(root_system("D3").orbit_labels()) == {"all"}


def test_param_function():
    s3 = root_system("S3")
    c = ParamFunction.from_config("1/2", s3)
    assert c.per_root(s3)[0] == rat(Fraction(1, 2))
    b2 = root_system("B2")
    c2 = ParamFunction.from_config({"short": "1/3", "long": "1/5"}, b2)
    shorts = [i for i, lab in enumerate(b2.orbit_labels()) if lab == "short"]
    assert all(c2.per_root(b2)[i] == rat(Fraction(1, 3)) for i in shorts)
    with pytest.raises(ValueError):
        ParamFunction.from_config({"bogus": "1"}, b2)
    with pytest.raises(ValueError):
        ParamFunction.from_config({"short": "1"}, b2)
    with pytest.raises(ValueError):
        ParamFunction.from_config("1/0", s3)


def test_words_are_lex_first_shortest():
    rs = root_system("S3")
    grp = rs.group()
    # identity has the empty word; each reflection s_i has word (i,)
    assert grp.words[0] == ()
    for i in range(3):
        assert grp.words[grp.reflection_element_index(i)] == (i,)
    # rotations have length-2 words starting with the smallest usable root
    for idx, w in enumerate(grp.words):
        # recompute product from the word
        acc = Matrix.identity(3)
        for gi in w:
            acc = acc @ rs.reflection(gi)
        assert acc == grp.matrices[idx]
        if idx:
            assert w == grp.words[grp.parents[idx]] + (w[-1],)
    lengths = sorted(len(w) for w in grp.words)
    assert lengths == [0, 1, 1, 1, 2, 2]


def test_simple_roots():
    s3 = root_system("S3")
    simples = s3.simple_root_indices()
    assert len(simples) == 2
    b2 = root_system("B2")
    assert len(b2.simple_root_indices()) == 2


def test_conjugacy_classes():
    s3 = root_system("S3")
    classes = conjugacy_classes(s3.group())
    assert sorted(len(c) for c in classes) == [1, 2, 3]


def test_custom_roots_and_norm_errors():
    rs = root_system(A2_ON_R3)
    assert rs.group().order == 6
    # a root of norm 3 has no length in Q(sqrt2)
    bad = RootSystem(3, [[1, 1, 1]])
    with pytest.raises(ValueError):
        bad.root_norm(0)
    scaled = root_system({"roots": [["1*sqrt2"]]})
    assert scaled.norms_sq[0] == rat(2)


# the dihedral group of order 8 with roots in Q(sqrt2)
SQRT2_ROOTS = {"roots": [["1", "0"], ["0", "1"],
                         ["1/2*sqrt2", "1/2*sqrt2"],
                         ["1/2*sqrt2", "-1/2*sqrt2"]], "name": "I2(4)-sqrt2"}
# the roots of S3 spanning a plane of R^3
A2_ON_R3 = {"roots": [["1", "-1", "0"], ["0", "1", "-1"], ["1", "0", "-1"]],
            "name": "A2-on-R3"}


@pytest.mark.parametrize("spec", ["S3", "B3", "D4", "I2(4)", SQRT2_ROOTS],
                         ids=["S3", "B3", "D4", "I2(4)", "I2(4)-sqrt2"])
def test_product_and_inverse_tables_match_matrix_products(spec):
    grp = root_system(spec).group()
    mats = grp.matrices
    # W acts faithfully on R^n, so the tables are only meaningful when no
    # two elements share a matrix
    assert len({matrix_key(m) for m in mats}) == grp.order
    for i, g in enumerate(mats):
        for j, h in enumerate(mats):
            assert mats[grp.mul(i, j)] == g @ h
        assert mats[grp.inv(i)] == g.dagger()


def matrix_bfs(rs):
    """Reference enumeration: breadth-first over exact matrices keyed by
    matrix_key, the reflections in root order."""
    gens = [rs.reflection(i) for i in range(len(rs.positive_roots))]
    mats, words = [Matrix.identity(rs.n)], [()]
    seen = {matrix_key(mats[0])}
    frontier = [0]
    while frontier:
        next_frontier = []
        for ei in frontier:
            for gi, s in enumerate(gens):
                h = mats[ei] @ s
                if matrix_key(h) not in seen:
                    seen.add(matrix_key(h))
                    mats.append(h)
                    words.append(words[ei] + (gi,))
                    next_frontier.append(len(mats) - 1)
        frontier = next_frontier
    return words, mats


@pytest.mark.parametrize("spec", ["S3", "B3", "D4", SQRT2_ROOTS, A2_ON_R3],
                         ids=["S3", "B3", "D4", "I2(4)-sqrt2", "A2-on-R3"])
def test_permutation_enumeration_matches_matrix_bfs(spec):
    grp = root_system(spec).group()
    words, mats = matrix_bfs(grp.rs)
    assert grp.words == words
    assert grp.matrices == mats


def pairwise_mul_table(grp):
    """The product table by composing the root permutations of every pair
    of elements and looking each product up: the reference for the table
    filled along the BFS words."""
    gens = np.array(grp.rs.reflection_permutations, dtype=np.intp)
    perms = [np.arange(gens.shape[1], dtype=np.intp)]
    for p, w in zip(grp.parents[1:], grp.words[1:]):
        perms.append(perms[p][gens[w[-1]]])
    index = {q.tobytes(): i for i, q in enumerate(perms)}
    assert len(index) == grp.order
    perms = np.array(perms)
    return np.array([[index[q.tobytes()] for q in p[perms]] for p in perms],
                    dtype=np.intp)


@pytest.mark.parametrize("spec", ["S3", "S4", "S5", "B4", "D4", "I2(4)",
                                  SQRT2_ROOTS],
                         ids=["S3", "S4", "S5", "B4", "D4", "I2(4)",
                              "I2(4)-sqrt2"])
def test_product_table_along_bfs_words_matches_pairwise_products(spec):
    grp = root_system(spec).group()
    table = grp.mul_table
    assert table.dtype == np.intp and table.flags.c_contiguous
    assert np.array_equal(table, pairwise_mul_table(grp))


def test_group_tables_are_built_on_first_use():
    grp = root_system("S4").group()
    assert "mul_table" not in vars(grp) and "inv_table" not in vars(grp)
    assert grp.mul(0, 5) == 5
    assert "mul_table" in vars(grp)
