"""Angular momentum algebra operators and their defining identities.

Everything here lives on a ModuleFamily: M_ij = x_i y_j - x_j y_i, the
group-algebra coefficients S_ij = [y_i, x_j], the central reflection sum Z,
the sl(2) triple H, X, Y, its Casimir, and the angular momentum square.
The check functions verify the algebra's commutation and crossing
relations, the centralizer property of the triple, and the closed-form
expressions tying the Casimir to the angular momentum square, all as exact
matrix identities on every degree both sides of an equation know about.

The three sweeps over many items (the relations over index tuples, and
the commutators of the triple, the Casimir, Z and -I with every M_ij and
group element) form their products a few at a time per degree: one
`linalg.stacked_product` holds every product of one operator with a list
of others, and each item's verdict is read off its blocks by one signed
gather-sum (`linalg.vanishing_sums`).  An item that holds gets its record
from that verdict alone; one that fails is compared again on its own, so
its witness is the one a per-item comparison gives.  The relations
themselves, collected over their products, depend on n alone and are
collected once per n (`_relation_table`).

Reports are lists of {check_id, status, witness} records; a witness pins
the first differing matrix entry (degree, position, both values).
"""

from functools import cache, cached_property
from itertools import chain, product

import numpy as np

from .linalg import stacked_product, vanishing_sums
from .polyrep import (GradedOperator, ModuleFamily, _check_record, _rec,
                      _signed_sum, _zero, center_op, graded_sum, s_op)
from .scalars import rat


class AmaContext:
    """Operator bundle for one (root system, c, tau, degree) choice.

    The constructor verifies the normal-ordering identity
    H = x.y + n/2 + Z; everything else is built on first read and kept,
    the M_ij and S_ij in the family's operator memo.
    """

    def __init__(self, family: ModuleFamily):
        self.family = family
        self.rs = family.rs
        self.n = family.n
        if not self._sym_h().matches(self.H):
            raise RuntimeError("H = x.y + n/2 + Z failed at build time")

    # -- generators ------------------------------------------------------------

    def x(self, i: int) -> GradedOperator:
        return self.family.x_op(i)

    def y(self, i: int) -> GradedOperator:
        return self.family.y_op(i)

    def w(self, w_index: int) -> GradedOperator:
        return self.family.w_op(w_index)

    def M(self, i: int, j: int) -> GradedOperator:
        """Angular momentum x_i y_j - x_j y_i; antisymmetric, M_ii = 0."""
        if i == j:
            return self.family.scalar_op(0)
        if i > j:
            return -self.M(j, i)
        return self.family._cached(("M", i, j), lambda: (
            self.x(i) @ self.y(j)) - (self.x(j) @ self.y(i)))

    def S(self, i: int, j: int) -> GradedOperator:
        return self.family._cached(("S", i, j),
                                   lambda: s_op(self.family, i, j))

    @cached_property
    def Z(self) -> GradedOperator:
        return center_op(self.family)

    def _dot(self, a, b):
        return graded_sum(a(i) @ b(i) for i in range(1, self.n + 1))

    @cached_property
    def xy(self) -> GradedOperator:
        return self._dot(self.x, self.y)

    @cached_property
    def yx(self) -> GradedOperator:
        return self._dot(self.y, self.x)

    def _sym_h(self) -> GradedOperator:
        return (self.xy + self.yx).scale(rat("1/2"))

    @cached_property
    def H(self) -> GradedOperator:
        """Normal-ordered form x.y + n/2 + Z, valid on all degrees."""
        return self.xy + self.family.scalar_op(
            rat(self.n) * rat("1/2")) + self.Z

    @cached_property
    def X(self) -> GradedOperator:
        return self._dot(self.x, self.x).scale(rat("-1/2"))

    @cached_property
    def Y(self) -> GradedOperator:
        return self._dot(self.y, self.y).scale(rat("1/2"))

    @cached_property
    def msquare(self) -> GradedOperator:
        return graded_sum((self.M(i, j) @ self.M(i, j)
                           for i in range(1, self.n + 1)
                           for j in range(i + 1, self.n + 1)),
                          self.family.scalar_op(0))

    @cached_property
    def omega(self) -> GradedOperator:
        """Casimir via the angular momentum square, valid on all degrees.

        The sl(2) expression H^2 + 2(XY + YX) loses the top two degrees to
        clipping; the two agree where both exist (msquared_identities_check).
        """
        zshift = self.Z + self.family.scalar_op(rat(self.n - 2) * rat("1/2"))
        return (-self.msquare) + (zshift @ zshift) - self.family.identity_op()

    @cached_property
    def omega_sl2(self) -> GradedOperator:
        h = self._sym_h()
        xy_ = (self.X @ self.Y) + (self.Y @ self.X)
        return (h @ h) + xy_.scale(2)

    @cached_property
    def h_omega(self) -> GradedOperator:
        """Angular Hamiltonian, derived from the Casimir: (omega - n(n-4)/4)/2."""
        shift = rat(self.n * (self.n - 4)) * rat("1/4")
        return (self.omega - self.family.scalar_op(shift)).scale(rat("1/2"))

    # -- tau-level data ----------------------------------------------------------

    @cached_property
    def _tau_shift(self):
        return self.Z.blocks[0].is_scalar_multiple_of_identity()

    def tau_shift_scalar(self):
        """The scalar by which Z acts on tau, or None if tau is reducible
        enough for Z to act non-scalarly; read once per context.  Every w
        fixes the constants, so Z on degree 0 is sum_a c_a tau(s_a) on the
        tau factor alone."""
        return self._tau_shift

    def h_scalar(self, m: int):
        """Eigenvalue m + n/2 + N_c(tau) of H on degree m, or None."""
        shift = self.tau_shift_scalar()
        if shift is None:
            return None
        return rat(m) + rat(self.n) * rat("1/2") + shift


# -- reports -------------------------------------------------------------------


def _m_key(i: int, j: int):
    """(sign, key) with M_ij = sign * ctx.M(*key): M_ji = -M_ij, and every
    M_ii is the zero operator, keyed (0, 0)."""
    if i == j:
        return 1, (0, 0)
    return (1, (i, j)) if i < j else (-1, (j, i))


def _sides(kind: str, i: int, j: int, k: int, l: int) -> tuple:
    """(lhs, rhs) of the relation kind at (i, j, k, l), each a tuple of
    (sign, key) pairs, one per product sign * M_ab @ (M_right or S_right,
    by kind) for key = ((a, b), kind, right)."""
    def mul(sign: int, i: int, j: int, kind: str, k: int, l: int):
        s, left = _m_key(i, j)
        t, right = _m_key(k, l) if kind == "M" else (1, (k, l))
        return sign * s * t, (left, kind, right)

    if kind == "commutation":
        return ((mul(1, i, j, "M", k, l), mul(-1, k, l, "M", i, j)),
                (mul(1, i, l, "S", j, k), mul(1, j, k, "S", i, l),
                 mul(-1, i, k, "S", j, l), mul(-1, j, l, "S", i, k)))
    return ((mul(1, i, j, "M", k, l), mul(1, j, k, "M", i, l),
             mul(1, k, i, "M", j, l)),
            (mul(1, i, j, "S", k, l), mul(1, j, k, "S", i, l),
             mul(1, k, i, "S", j, l)))


def ama_relations_check(ctx: AmaContext) -> list:
    """Commutation and crossing relations over index tuples, plus S_ij = S_ji.

    [M_ij, M_kl] = M_il S_jk + M_jk S_il - M_ik S_jl - M_jl S_ik and
    M_ij M_kl + M_jk M_il + M_ki M_jl = M_ij S_kl + M_jk S_il + M_ki S_jl,
    for all 1 <= i,j,k,l <= n.

    Each distinct collected combination of `_relation_table` is decided
    once, on every degree of the window, which every product is defined
    on (see `_vanishing_combinations`).  Only a relation whose combination
    does not vanish is compared side by side, for the witness of its first
    differing entry.
    """
    records: list = []
    n = ctx.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            _rec(records, f"S{i}{j} = S{j}{i}", ctx.S(i, j), ctx.S(j, i))
    relations, distinct = _relation_table(n)
    vanishes = _vanishing_combinations(ctx, distinct)

    def side(terms) -> GradedOperator:
        return _signed_sum([
            (s, ctx.M(*left) @ (ctx.M if kind == "M" else ctx.S)(*right))
            for s, (left, kind, right) in terms])

    for kind, t, combo in relations:
        check_id = f"{kind} ({t[0]},{t[1]},{t[2]},{t[3]})"
        if not combo or vanishes[combo]:
            records.append(_check_record(check_id, True))
        else:
            lhs, rhs = _sides(kind, *t)
            _rec(records, check_id, side(lhs), side(rhs))
    return records


@cache
def _relation_table(n: int) -> tuple:
    """The relations of `ama_relations_check`, which depend on n alone:
    (relations, distinct), one (kind, index tuple, combo) per relation and
    the distinct nonzero combos.

    Every product is M_ij @ M_kl or M_ij @ S_kl.  Since `AmaContext.M`
    defines M_ji = -M_ij and M_ii = 0, each is +-(M_ab @ M_cd) or
    +-(M_ab @ S_kl) with a < b and c < d, or zero (see `_sides`).  S_kl
    and S_lk stay distinct factors: S_ij = S_ji is one of the checked
    relations, not an assumption.  A relation lhs = rhs then holds exactly
    when lhs - rhs, its terms collected over those products and the zero
    products dropped, vanishes; combo is that collection, up to sign.
    The sides themselves are not kept: only a failing relation needs
    them again.
    """
    def collected(lhs, rhs) -> tuple:
        coeffs: dict = {}
        for sign, key in chain(lhs, ((-s, key) for s, key in rhs)):
            coeffs[key] = coeffs.get(key, 0) + sign
        combo = sorted((key, c) for key, c in coeffs.items()
                       if c and (0, 0) not in (key[0], key[2]))
        if combo and combo[0][1] < 0:
            combo = [(key, -c) for key, c in combo]
        return tuple(combo)

    relations = []
    distinct: dict = {}  # one object per distinct combination
    for t in product(range(1, n + 1), repeat=4):
        for kind in ("commutation", "crossing"):
            combo = collected(*_sides(kind, *t))
            relations.append((kind, t, distinct.setdefault(combo, combo)))
    return tuple(relations), tuple(c for c in distinct if c)


def _vanishing_combinations(ctx: AmaContext, combos) -> dict:
    """{combo: whether it vanishes} for collected combinations of products
    M_ab @ F, each combo a tuple of ((a, b), kind, right) keys with integer
    coefficients and F = M_right or S_right by kind.

    On each degree m, every product the combos name is a block of one
    `linalg.stacked_product`, the M_ab blocks one above the next times the
    F blocks side by side, and every combo is one signed gather-sum of
    those blocks (`linalg.vanishing_sums`).  A combo vanishes when its sum
    does on every degree the M and S operators share, the whole window.
    """
    combos = sorted(combos)
    if not combos:
        return {}
    lefts = sorted({key[0] for combo in combos for key, _ in combo})
    rights = sorted({key[1:] for combo in combos for key, _ in combo})
    row = {key: p for p, key in enumerate(lefts)}
    col = {key: q for q, key in enumerate(rights)}
    width = max(len(combo) for combo in combos)
    index = np.zeros((len(combos), width), dtype=np.int64)
    coef = np.zeros((len(combos), width), dtype=np.int64)
    for s, combo in enumerate(combos):
        for t, (key, c) in enumerate(combo):
            index[s, t] = row[key[0]] * len(rights) + col[key[1:]]
            coef[s, t] = c
    left_ops = [ctx.M(*key) for key in lefts]
    right_ops = [ctx.M(*key) if kind == "M" else ctx.S(*key)
                 for kind, key in rights]
    ok = np.ones(len(combos), dtype=bool)
    for m in sorted(set.intersection(*(set(op.blocks)
                                       for op in left_ops + right_ops))):
        d = ctx.family.dim(m)
        prod = stacked_product([op.blocks[m] for op in left_ops],
                               [op.blocks[m] for op in right_ops])
        ok &= vanishing_sums([prod], (d, d), index, coef)
    return dict(zip(combos, ok.tolist()))


def _commuting(a: GradedOperator, ops) -> list:
    """For each operator of ops, all of one shift s, whether it commutes
    with a on every degree of their commutator; False when there is none,
    which `_rec` refuses.

    With t the shift of a, op @ a reads op_(m+t) a_m on degree m and
    a @ op reads a_(m+s) op_m, so one `linalg.stacked_product` of the
    op_(m+t) one above the next with a_m, and one of a_(m+s) with the op_m
    side by side, hold every product; block j of the one equals block j of
    the other exactly when op j commutes with a there, one signed
    gather-sum each (`linalg.vanishing_sums`).
    """
    if not ops:
        return []
    t, s = a.shift, ops[0].shift
    # forming a commutator fixes its degrees and builds no block
    degrees = [set(op.commutator(a).blocks) for op in ops]
    ok = [bool(d) for d in degrees]
    for m in sorted(set().union(*degrees)):
        live = [j for j, d in enumerate(degrees) if m in d and ok[j]]
        if not live:
            continue
        after = stacked_product([ops[j].block(m + t) for j in live],
                                [a.blocks[m]])
        before = stacked_product([a.block(m + s)],
                                 [ops[j].blocks[m] for j in live])
        k = len(live)
        same = vanishing_sums([after, before], (before.nrows, after.ncols),
                              [[j, k + j] for j in range(k)], [[1, -1]] * k)
        for j, x in zip(live, same.tolist()):
            ok[j] = x
    return ok


def _commutator_record(records: list, check_id: str, a: GradedOperator,
                       b: GradedOperator, ok: bool) -> None:
    """Append the record that [a, b] = 0, a pass when ok (see
    `_commuting`), else the `_rec` comparison with its witness."""
    if ok:
        records.append(_check_record(check_id, True))
    else:
        comm = a.commutator(b)
        _rec(records, check_id, comm, _zero(comm))


def centralizer_check(ctx: AmaContext) -> list:
    """M_ij and every group element commute with the sl(2) triple.

    Each of H, X and Y is tried against all the M_ij and group elements
    at once (see `_commuting`); a failing pair is then compared alone for
    its witness."""
    records: list = []
    triple = (("H", ctx.H), ("X", ctx.X), ("Y", ctx.Y))
    n = ctx.n
    named = [(f"M{i}{j}", ctx.M(i, j)) for i in range(1, n + 1)
             for j in range(i + 1, n + 1)]
    named += [(f"w{wi}", ctx.w(wi)) for wi in range(ctx.family.group.order)]
    ops = [op for _, op in named]
    verdicts = [_commuting(a, ops) for _, a in triple]
    for k, (label, op) in enumerate(named):
        for (name, a), ok in zip(triple, verdicts):
            _commutator_record(records, f"[{label},{name}] = 0", op, a,
                               ok[k])
    return records


def msquared_identities_check(ctx: AmaContext) -> list:
    """The closed forms for M^2 and the Casimir, and the sl(2) triple.

    Verifies M^2 = x^2 y^2 - (x.y)^2 - (x.y)(2Z + n - 2), the Casimir
    identity omega = -M^2 + (Z + (n-2)/2)^2 - 1, omega = H^2 + 2(XY + YX)
    on its window, the bracket normalization [H,X] = 2X, [H,Y] = -2Y,
    [X,Y] = H (signs pinned by the classical c = 0 Weyl-algebra triple),
    and the derived angular Hamiltonian relation omega = 2 h_omega + n(n-4)/4.
    """
    records: list = []
    fam = ctx.family
    n = ctx.n
    x2 = ctx.X.scale(-2)
    y2 = ctx.Y.scale(2)
    rhs = (x2 @ y2) - (ctx.xy @ ctx.xy) \
        - (ctx.xy @ (ctx.Z.scale(2) + fam.scalar_op(n - 2)))
    _rec(records, "M^2 closed form", ctx.msquare, rhs)
    _rec(records, "omega vs M^2", ctx.omega_sl2, ctx.omega)
    zz = ctx.Z @ (ctx.Z + fam.scalar_op(n - 2))
    alt = (-ctx.msquare) + zz + fam.scalar_op(
        rat(n * (n - 4)) * rat("1/4"))
    _rec(records, "omega vs M^2, expanded form", ctx.omega, alt)
    _rec(records, "[H,X] = 2X", ctx.H.commutator(ctx.X), ctx.X.scale(2))
    _rec(records, "[H,Y] = -2Y", ctx.H.commutator(ctx.Y), ctx.Y.scale(-2))
    _rec(records, "[X,Y] = H", ctx.X.commutator(ctx.Y), ctx.H)
    _rec(records, "omega = 2 h_omega + n(n-4)/4",
         ctx.omega,
         ctx.h_omega.scale(2) + fam.scalar_op(rat(n * (n - 4)) * rat("1/4")))
    return records


def casimir_centrality_check(ctx: AmaContext) -> list:
    """omega commutes with every M_ij and every group element; Z is central
    in the group algebra; when -I is in W its matrix commutes with all M_ij.

    omega is tried against all the M_ij and group elements at once, Z
    against the group elements and -I against the M_ij (see
    `_commuting`); a failing pair is then compared alone for its witness.
    """
    records: list = []
    n = ctx.n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    ms = [ctx.M(i, j) for i, j in pairs]
    ws = [ctx.w(wi) for wi in range(ctx.family.group.order)]
    omega_ok = _commuting(ctx.omega, ms + ws)
    for (i, j), op, ok in zip(pairs, ms, omega_ok):
        _commutator_record(records, f"[omega,M{i}{j}] = 0", ctx.omega, op,
                           ok)
    for wi, (op, ok, z_ok) in enumerate(zip(ws, omega_ok[len(ms):],
                                            _commuting(ctx.Z, ws))):
        _commutator_record(records, f"[omega,w{wi}] = 0", ctx.omega, op, ok)
        _commutator_record(records, f"[Z,w{wi}] = 0", ctx.Z, op, z_ok)
    mi = ctx.family.group.minus_identity_index()
    if mi is not None:
        wop = ctx.w(mi)
        for (i, j), op, ok in zip(pairs, ms, _commuting(wop, ms)):
            _commutator_record(records, f"[(-1),M{i}{j}] = 0", wop, op, ok)
    return records
