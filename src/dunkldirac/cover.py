"""Double cover of a reflection group inside the Clifford algebra.

Each group element gets a canonical lift: the product of reflection lifts
iota(coroot)/|coroot| along its breadth-first shortest word.  Products of
lifts agree with the lift of the product up to a sign, the cocycle mu, and
the group algebra of the cover splits into a plain part (central involution
sent to +1), which is the group algebra CW itself, and a mu-twisted part
(sent to -1).  HatElement stores coefficients on the group basis of the
two parts separately; the twisted part is NOT modeled as its image in the
Clifford algebra, which can be a proper quotient.

When -1 is in the group, the cover is extended by an extra central order-2
generator g mapping to (group element -1) tensor (Clifford identity).

The cocycle is an int8 table built on first use from one exact lift product
per reflection, compared in full, then filled along the BFS words; the
conjugacy classes of the cover are read off it once, on first use too.
"""
from __future__ import annotations

from functools import cached_property
from itertools import combinations, product

import numpy as np

from .clifford import (CliffordElement, _product_table, right_multipliers,
                       vector_embed)
from .linalg import Matrix
from .roots import ReflectionGroup, RootSystem, dot
from .scalars import HALF, ONE, Combination, accumulate, rat


class PinCover:
    """Canonical lifts, the sign cocycle, and star signs for one group."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.group: ReflectionGroup = rs.group()
        self.n = rs.n
        # iota(coroot) / |coroot| per positive root
        self.reflection_lifts = [vector_embed(self.n, cr) * nrm.inverse()
                                 for cr, nrm in zip(rs.coroots,
                                                    rs.coroot_norms)]
        self.lifts = [CliffordElement.scalar(self.n, 1)]
        for p, word in zip(self.group.parents[1:], self.group.words[1:]):
            self.lifts.append(self.lifts[p] * self.reflection_lifts[word[-1]])
        self.g_index = self.group.minus_identity_index()

    def _lift_rows(self, lifts) -> Matrix:
        """The lifts as the rows of one exact matrix over blade masks."""
        return Matrix.from_row_dicts(len(lifts), 1 << self.n,
                                     (x.coeffs for x in lifts))

    @cached_property
    def cocycle_table(self) -> np.ndarray:
        """mu as an int8 array: cocycle_table[v, u] = mu(v, u).

        With l_a the lift of reflection a and L the lifts as the rows of one
        exact matrix, one product L R(l_a) per positive root a gives every
        lift(w) l_a.  Row w must equal E[w, a] lift(w s_a), E[w, a] = +-1,
        in every component, else RuntimeError; both sides are canonical, so
        that holds when the denominators agree and the integer rows agree
        up to sign.  With lift(1) = 1 checked, column 1 of mu is 1, and for
        u = p s_a, p the BFS parent of u and a its word's last letter,

            mu(v, u) = E[p, a] mu(v, p) E[vp, a],

        by associativity: lift(u) = E[p, a] lift(p) l_a, so lift(v) lift(u)
        = E[p, a] lift(v) lift(p) l_a = E[p, a] mu(v, p) lift(vp) l_a
        = E[p, a] mu(v, p) E[vp, a] lift(vu).
        """
        grp, mul = self.group, self.group.mul_table
        if self.lifts[0] != 1:
            raise RuntimeError("lift(1) is not 1; cover is corrupted")
        lifts = self._lift_rows(self.lifts)
        e_sign = np.empty((grp.order, len(self.reflection_lifts)),
                          dtype=np.int8)
        for a, r in enumerate(right_multipliers(
                self._lift_rows(self.reflection_lifts))):
            prod = lifts @ r
            # a signed permutation of the rows keeps den and the live
            # components, so the planes line up
            same = (prod.den, prod.comps) == (lifts.den, lifts.comps)
            want = lifts.num[:, mul[:, grp.reflection_element_index(a)]]
            plus = same and (prod.num != want).any(axis=(0, 2))
            if not same or (
                    plus & (prod.num != -want).any(axis=(0, 2))).any():
                raise RuntimeError(
                    "lift product is not a signed lift; cover is corrupted")
            e_sign[:, a] = np.where(plus, -1, 1)
        mu = np.empty((grp.order, grp.order), dtype=np.int8)
        mu[:, 0] = 1
        for u in range(1, grp.order):
            p, a = grp.parents[u], grp.words[u][-1]
            mu[:, u] = e_sign[p, a] * mu[:, p] * e_sign[mul[:, p], a]
        return mu

    _mu_rows = cached_property(lambda self: self.cocycle_table.tolist())
    # the Jucys-Murphy elements depend on the cover alone; a build that
    # raises stores nothing, so a second read raises again
    jm = cached_property(lambda self: jm_elements(self))

    @cached_property
    def tilde_classes(self) -> list:
        """Conjugacy classes of the double cover, as twisted coefficient
        dicts.

        Elements are (group index, sign power) pairs multiplying through
        the cocycle; the central sign is fixed by conjugation, so
        conjugating by the plain sheet suffices.  Classes whose two sheets
        merge contribute nothing to the twisted part and are dropped.
        """
        grp = self.group
        mul, inv = grp.mul_table, grp.inv_table
        # the sign power picked up by each product of two plain-sheet lifts
        flip = (self.cocycle_table < 0).astype(np.intp)
        inv_flip = flip[inv, np.arange(grp.order)]
        seen: set = set()
        classes = []
        for i, sheet in [(k, s) for k in range(grp.order) for s in (0, 1)]:
            if (i, sheet) in seen:
                continue
            # (k, 0) (i, sheet) (k, 0)^-1 for every k
            ki = mul[:, i]
            signs = (sheet + flip[:, i] + inv_flip + flip[ki, inv]) % 2
            orbit = set(zip(mul[ki, inv].tolist(), signs.tolist()))
            seen |= orbit
            md: dict = {}
            for (k, s) in sorted(orbit):
                accumulate(md, k, ONE if s == 0 else -ONE)
            if md:
                classes.append(md)
        return classes

    def cocycle(self, i: int, j: int) -> int:
        """mu(u, v) = +-1 with lift(u) lift(v) = mu(u, v) lift(uv)."""
        return self._mu_rows[i][j]

    def star_sign(self, i: int) -> int:
        """nu(w) = det(w) mu(w, w^-1), the twisted-part star coefficient;
        det(w) = (-1)^k for a word of k reflections."""
        return self.group.det(i) * self.cocycle(i, self.group.inv(i))

    def has_g(self) -> bool:
        return self.g_index is not None

    # -- the product rule of the cover algebra, for sparse_product --

    def hat_rule(self, a: tuple, b: tuple):
        """Cover algebra keys (twisted, g, group index): a plain times a
        twisted key is 0, a twisted pair carries the cocycle, and the g
        bits add mod 2 (g is central with g^2 = 1)."""
        (t, g, i), (u, h, j) = a, b
        if t != u:
            return 0, None
        sign = self.cocycle(i, j) if t else 1
        return sign, (t, g ^ h, self.group.mul(i, j))

    # -- structure checks -------------------------------------------------

    def projection_check(self) -> bool:
        """lift lift^-1 = 1 and epsilon(lift) iota(y) lift^-1 = iota(w y)
        on basis vectors, as one exact product per element: the rows lift,
        epsilon(lift) c_1, ..., epsilon(lift) c_n times the right
        multiplication by lift^-1 = reversal(lift) (the factors of a lift
        are unit vectors).  Row j >= 1 is a signed gather of the lift's
        row: its entry at U is epsilon(T) sign(c_T c_j) lift_T, T = U xor
        {j}.
        """
        n, lifts = self.n, self._lift_rows(self.lifts)
        signs, masks = _product_table(n)
        degree = np.array([m.bit_count() for m in range(1 << n)])
        bits = np.array([0] + [1 << j for j in range(n)])
        src = masks[:, bits].T
        gather = signs[src, bits[:, None]] * (1 - 2 * (degree[src] & 1))
        gather[0] = 1
        reversed_lifts = Matrix._make(
            lifts.num * (1 - 2 * (degree * (degree - 1) // 2 & 1)),
            lifts.den, lifts.comps)
        for lift, inverse, g in zip(lifts.num.transpose(1, 0, 2),
                                    right_multipliers(reversed_lifts),
                                    self.group.matrices):
            comps = tuple(sorted({0, *g.comps}))
            want = np.zeros((len(comps), n + 1, 1 << n), dtype=g.num.dtype)
            want[0, 0, 0] = g.den
            for k, c in enumerate(comps):
                want[k][1:, bits[1:]] = g.plane(c).T
            got = Matrix._make(lift[:, src] * gather, lifts.den,
                               lifts.comps) @ inverse
            # want / g.den is canonical over comps, as g is
            if (got.den, got.comps) != (g.den, comps) or not np.array_equal(
                    got.num, want):
                return False
        return True

    def conjugation_sign_check(self) -> bool:
        """lift(a) lift(b) lift(a) = -s-tilde of the reflected root, over all
        pairs of positive roots."""
        lifts, perms = self.reflection_lifts, self.rs.reflection_permutations
        # minus the lift of root k; root k + |Phi+| is minus root k
        want = [-x for x in lifts] + lifts
        return all(la * lb * la == want[perm[b]]
                   for la, perm in zip(lifts, perms)
                   for b, lb in enumerate(lifts))

    def braid_sign_check(self) -> bool:
        """(lift(a) lift(b))^m = (-1)^(m-1) for simple roots a, b, where m is
        the order of s_a s_b in the group."""
        simples, grp = self.rs.simple_root_indices(), self.group
        for a, b in product(simples, repeat=2):
            m = grp.element_order(grp.mul(grp.reflection_element_index(a),
                                          grp.reflection_element_index(b)))
            prod = self.reflection_lifts[a] * self.reflection_lifts[b]
            acc = CliffordElement.scalar(self.n, 1)
            for _ in range(m):
                acc = acc * prod
            if acc != (-1) ** (m - 1):
                return False
        return True

    def cocycle_identity_check(self) -> bool:
        """mu(u,v) mu(uv,w) = mu(v,w) mu(u,vw) over all |W|^3 triples, read
        from the product and cocycle tables: per u, one comparison over
        the whole (v, w) plane."""
        mu, mul = self.cocycle_table, self.group.mul_table
        return all(np.array_equal(mu[u][:, None] * mu[mul[u]],
                                  mu * mu[u][mul])
                   for u in range(self.group.order))


# the (twisted, g) flags of the four parts of a cover algebra element
_PARTS = {"p": (0, 0), "m": (1, 0), "gp": (0, 1), "gm": (1, 1)}


class HatElement(Combination):
    """Element of the (possibly extended) cover algebra.

    One coefficient dict keyed (twisted, g, group index): twisted is 1 on
    the twisted part and 0 on the plain part, g is 1 on the coefficients
    of the extra central generator g (present only when -1 is in the
    group).  Plain and twisted parts are orthogonal ideals; the twisted
    part multiplies through the cocycle.  The parts p, m, gp and gm are
    read-only views keyed by group index.
    """

    __slots__ = ("cover",)

    def __init__(self, cover: PinCover, p=None, m=None, gp=None, gm=None):
        self.cover = cover
        self.coeffs = {(t, g, k): v
                       for (t, g), part in zip(_PARTS.values(), (p, m, gp, gm))
                       for k, v in (part or {}).items() if not v.is_zero()}
        if not cover.has_g() and any(g for _, g, _ in self.coeffs):
            raise ValueError("g-extension only exists when -1 is in the group")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(cover: PinCover) -> "HatElement":
        return HatElement(cover)

    @staticmethod
    def one(cover: PinCover) -> "HatElement":
        return HatElement(cover, p={0: ONE}, m={0: ONE})

    @staticmethod
    def g(cover: PinCover) -> "HatElement":
        return HatElement(cover, gp={0: ONE}, gm={0: ONE})

    def _ctx(self):
        return self.cover

    def _like(self, coeffs: dict) -> "HatElement":
        out = HatElement(self.cover)
        out.coeffs = coeffs
        return out

    @property
    def _rule(self):
        return self.cover.hat_rule

    def _part(self, name: str) -> dict:
        flags = _PARTS[name]
        return {k: v for (t, g, k), v in self.coeffs.items()
                if (t, g) == flags}

    p = property(lambda self: self._part("p"))
    m = property(lambda self: self._part("m"))
    gp = property(lambda self: self._part("gp"))
    gm = property(lambda self: self._part("gm"))

    def star(self) -> "HatElement":
        """Conjugate each coefficient and invert its group element; a
        twisted coefficient also takes the star sign nu."""
        grp, nu = self.cover.group, self.cover.star_sign
        out = {}
        for (t, g, k), v in self.coeffs.items():
            w = v.conjugate()
            out[(t, g, grp.inv(k))] = -w if t and nu(k) < 0 else w
        return self._like(out)

    def __repr__(self):
        return (f"HatElement(p={self.p}, m={self.m}, "
                f"gp={self.gp}, gm={self.gm})")

    # -- structure ----------------------------------------------------------

    def rho_terms(self) -> dict:
        """Formal image under rho: dict group index -> CliffordElement.

        The plain part dies; a twisted basis element goes to (element,
        canonical lift); a g-factor multiplies the group element by -1 and
        leaves the Clifford factor alone.
        """
        cov = self.cover
        out: dict = {}
        for (t, g, k), v in self.coeffs.items():
            if t:
                accumulate(out, cov.group.mul(cov.g_index, k) if g else k,
                           cov.lifts[k] * v)
        return out


def _centrality_failures(elem: HatElement) -> list:
    """The generators elem fails to commute with, as report lines.

    The simple reflections in the plain part, their lifts in the twisted
    part and g (when -1 is in the group) generate the cover algebra, so
    an empty list proves elem central.
    """
    cov = elem.cover
    failures = []
    for r in cov.rs.simple_root_indices():
        i = cov.group.reflection_element_index(r)
        for part, kind in (("p", "plain"), ("m", "twisted")):
            gen = HatElement(cov, **{part: {i: ONE}})
            if not elem.commutator(gen).is_zero():
                failures.append(f"does not commute with {kind} s[{r}]")
    if cov.has_g() and not elem.commutator(HatElement.g(cov)).is_zero():
        failures.append("does not commute with g")
    return failures


def is_admissible(elem: HatElement):
    """Central and star-fixed; returns (flag, list of failed conditions)."""
    failures = _centrality_failures(elem)
    if elem.star() != elem:
        failures.append("not star-fixed")
    return (not failures), failures


# -- distinguished elements -------------------------------------------------


def _reflection_sum(cover: PinCover, weights) -> HatElement:
    """sum_a weights[a] s_a over the positive roots a, in the plain part."""
    out: dict = {}
    for a, w in enumerate(weights):
        accumulate(out, cover.group.reflection_element_index(a), w)
    return HatElement(cover, p=out)


def center_shift(cover: PinCover, param) -> HatElement:
    """The central sum of reflections sum_a c_a s_a in the plain part
    (no one-half; the half-normalized variant is the plain part of
    ztilde)."""
    return _reflection_sum(cover, param.per_root(cover.rs))


def ztilde(cover: PinCover, param) -> HatElement:
    """1/2 sum_a c_a (lift of s_a), in both parts."""
    half = center_shift(cover, param).scale(HALF).p
    return HatElement(cover, p=half, m=half)


def build_C2(cover: PinCover, param) -> HatElement:
    zt = ztilde(cover, param)
    c2 = zt * zt
    ok, failures = is_admissible(c2)
    if not ok:
        raise RuntimeError(f"C2 failed its admissibility check: {failures}")
    return c2


def build_T(cover: PinCover, param, i: int) -> HatElement:
    """T_i = 1/2 sum_a c_a <x_i, coroot_a>/|coroot_a| s_a."""
    rs = cover.rs
    return _reflection_sum(cover, [
        c * HALF * cr[i] * nrm.inverse()
        for c, cr, nrm in zip(param.per_root(rs), rs.coroots,
                              rs.coroot_norms)])


def build_T_bullet(cover: PinCover, param, i: int) -> HatElement:
    """The bullet variant 1/2 sum_a c_a <a, y_i>/|a| s_a; equals build_T."""
    rs = cover.rs
    return _reflection_sum(cover, [
        c * HALF * r[i] * nrm.inverse()
        for c, r, nrm in zip(param.per_root(rs), rs.positive_roots,
                             rs.root_norms)])


def build_Z3(cover: PinCover, param) -> HatElement:
    """1/4 sum_{a,b} c_a c_b <b, coroot_a> / (|coroot_a| |b|) s_a s_b.

    Centrality is verified against the generators before returning.
    """
    rs = cover.rs
    grp = cover.group
    cs = param.per_root(rs)
    out: dict = {}
    for a in range(len(rs.positive_roots)):
        ca = cs[a] * rs.coroot_norms[a].inverse()
        ia = grp.reflection_element_index(a)
        for b in range(len(rs.positive_roots)):
            pair = dot(rs.positive_roots[b], rs.coroots[a])
            if pair.is_zero():
                continue
            cb = cs[b] * rs.root_norms[b].inverse()
            ib = grp.reflection_element_index(b)
            accumulate(out, grp.mul(ia, ib),
                       ca * cb * pair * rat("1/4"))
    z3 = HatElement(cover, p=out)
    if _centrality_failures(z3):
        raise RuntimeError("Z3 is not central in the group algebra")
    return z3


def jucys_murphy(cover: PinCover, k: int) -> HatElement:
    """Twisted-part sum of the transpositions (i k), i < k, for symmetric
    groups in their permutation realization; m_1 = 0."""
    rs = cover.rs
    if not rs.has_transposition_roots():
        raise ValueError("Jucys-Murphy elements need transposition roots")
    if not 1 <= k <= rs.n:
        raise ValueError(f"index {k} out of range for this group")
    m: dict = {}
    for idx, root in enumerate(rs.positive_roots):
        if max(j for j, v in enumerate(root) if not v.is_zero()) == k - 1:
            m[cover.group.reflection_element_index(idx)] = ONE
    return HatElement(cover, m=m)


def jm_elements(cover: PinCover) -> list:
    """The elements m_1 = 0, m_2, ..., m_n, with build-time validation of
    the all-positive sign convention: the m_k must be star-negated and
    pairwise anticommuting, and every square star-fixed.  (The squares
    generate a commutative subalgebra but are individually central only
    for n <= 3; centrality belongs to their symmetric polynomials.)"""
    out = [jucys_murphy(cover, k) for k in range(1, cover.n + 1)]
    for k, mk in enumerate(out, start=1):
        if mk.star() != -mk:
            raise RuntimeError(
                f"Jucys-Murphy element {k} (all-positive convention) "
                "is not star-negated")
        sq = mk * mk
        if sq.star() != sq:
            raise RuntimeError(
                f"square of Jucys-Murphy element {k} is not star-fixed")
        for j in range(k - 1):
            anti = out[j] * mk + mk * out[j]
            if not anti.is_zero():
                raise RuntimeError(
                    f"Jucys-Murphy elements {j + 1} and {k} (all-positive "
                    "convention) do not anticommute")
    return out


def jm_symmetric_elements(cover: PinCover) -> dict:
    """e1 = sum of squares and e2 = second elementary symmetric polynomial
    of the squared Jucys-Murphy elements."""
    squares = [mk * mk for mk in cover.jm[1:]]
    zero = HatElement.zero(cover)
    e1 = sum(squares, zero)
    e2 = sum((a * b for a, b in combinations(squares, 2)), zero)
    return {"e1": e1, "e2": e2, "squares": squares}
