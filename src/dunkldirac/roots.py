"""Root systems, reflection groups and reflection-invariant parameters.

Roots live in R^n with coordinates in Q(i, sqrt2) (real ones in practice);
the ambient pairing is the standard dot product, so a vector serves both
as a linear form (x-side) and as a point (y-side).  Positive roots are the
ones whose first nonzero coordinate is positive.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from .linalg import Matrix, determinant
from .scalars import (ExactScalar, ONE, ZERO, as_fraction, as_scalar,
                      format_fraction, rat, sqrt_in_real_subfield)

GROUP_ORDER_BOUND = 384


def dot(u, v):
    acc = None
    for a, b in zip(u, v):
        t = a * b
        acc = t if acc is None else acc + t
    return acc


def _norm(norm_sq, what: str, idx: int):
    """|v| from |v|^2 inside Q(sqrt2); ValueError when it leaves the field."""
    s = sqrt_in_real_subfield(norm_sq)
    if s is None:
        raise ValueError(f"|{what} {idx}|^2 = {norm_sq} has no square root "
                         "in Q(sqrt2)")
    return s


class GroupElement:
    """Orthogonal n x n matrix over the exact field, hashable."""

    __slots__ = ("mat", "_key", "_det", "_rows")

    def __init__(self, mat: Matrix):
        self.mat = mat
        self._key = mat.key()
        self._det = None
        self._rows = None

    @property
    def rows(self) -> list:
        """The {column: entry} dicts of the matrix rows, read once; callers
        must not edit them."""
        if self._rows is None:
            self._rows = self.mat.rows
        return self._rows

    @property
    def n(self) -> int:
        return self.mat.nrows

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.mat @ other.mat)

    def inverse(self) -> "GroupElement":
        # orthogonal: inverse is the transpose
        return GroupElement(self.mat.transpose())

    def det(self):
        if self._det is None:
            self._det = determinant(self.mat)
        return self._det

    def is_identity(self) -> bool:
        return self.mat == Matrix.identity(self.n)

    def apply(self, vec):
        """Matrix action on a coordinate vector (tuple of scalars)."""
        out = []
        for row in self.rows:
            acc = None
            for j, v in row.items():
                t = v * vec[j]
                acc = t if acc is None else acc + t
            out.append(acc if acc is not None else ZERO)
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"GroupElement({self.mat.to_dense()})"


class ParamFunction:
    """Reflection-orbit invariant multiplicity function c."""

    def __init__(self, values: dict):
        self.values = {k: as_fraction(v) for k, v in values.items()}

    @staticmethod
    def from_config(spec, rs: "RootSystem") -> "ParamFunction":
        """Accept a bare rational (all orbits) or a dict keyed by orbit label."""
        labels = rs.orbit_labels()
        if isinstance(spec, dict):
            unknown = set(spec) - set(labels)
            if unknown:
                raise ValueError(f"unknown orbit labels {sorted(unknown)}; "
                                 f"expected {sorted(set(labels))}")
            missing = set(labels) - set(spec)
            if missing:
                raise ValueError(f"missing orbit labels {sorted(missing)}")
            return ParamFunction({k: as_fraction(v) for k, v in spec.items()})
        c = as_fraction(spec)
        return ParamFunction({lab: c for lab in set(labels)})

    def of_root(self, rs: "RootSystem", idx: int) -> Fraction:
        return self.values[rs.orbit_labels()[idx]]

    def per_root(self, rs: "RootSystem") -> list:
        """The coupling c_a as an ExactScalar, per positive root of rs."""
        return [rat(self.values[lab]) for lab in rs.orbit_labels()]

    def label(self) -> str:
        items = sorted(self.values.items())
        if len({v for _, v in items}) == 1:
            return format_fraction(items[0][1])
        return ";".join(f"{k}={format_fraction(v)}" for k, v in items)


class RootSystem:
    """Reduced root system with stored coroots and the generated group."""

    def __init__(self, n: int, positive_roots, name: str = "custom",
                 coroots=None):
        self.n = n
        self.name = name
        self.positive_roots = [tuple(as_scalar(x) for x in r)
                               for r in positive_roots]
        lines = {}
        for idx, r in enumerate(self.positive_roots):
            if len(r) != n:
                raise ValueError("root dimension mismatch")
            if all(x.is_zero() for x in r):
                raise ValueError("zero root")
            # the root scaled so its first nonzero coordinate is 1
            lead = next(x for x in r if not x.is_zero()).inverse()
            first = lines.setdefault(tuple(x * lead for x in r), idx)
            if first != idx:
                raise ValueError(f"roots {first} and {idx} are proportional; "
                                 "list each reflection once")
        self.norms_sq = [dot(r, r) for r in self.positive_roots]
        if coroots is not None:
            self.coroots = [tuple(as_scalar(x) for x in r)
                            for r in coroots]
        else:
            self.coroots = [tuple(x * n2.inverse() * 2 for x in r)
                            for r, n2 in zip(self.positive_roots,
                                             self.norms_sq)]
        self._root_norms = None
        self._reflections = None
        self._orbit_labels = None
        self._group = None

    # -- lengths ---------------------------------------------------------

    def root_norm(self, idx: int):
        """|alpha| as a field element; errors if it leaves the field."""
        if self._root_norms is None:
            self._root_norms = [None] * len(self.positive_roots)
        if self._root_norms[idx] is None:
            self._root_norms[idx] = _norm(self.norms_sq[idx], "root", idx)
        return self._root_norms[idx]

    def coroot_norm(self, idx: int):
        cr = self.coroots[idx]
        return _norm(dot(cr, cr), "coroot", idx)

    # -- reflections and the group ---------------------------------------

    def reflection(self, idx: int) -> GroupElement:
        """s_alpha(y) = y - <alpha, y> alpha-check, as an orthogonal matrix."""
        if self._reflections is None:
            self._reflections = [None] * len(self.positive_roots)
        if self._reflections[idx] is None:
            alpha = self.positive_roots[idx]
            cr = self.coroots[idx]
            g = GroupElement(Matrix.from_rows(
                [[(ONE if i == j else ZERO) - cr[i] * alpha[j]
                  for j in range(self.n)] for i in range(self.n)]))
            self._check_involution(g, idx)
            self._reflections[idx] = g
        return self._reflections[idx]

    def _check_involution(self, g: GroupElement, idx: int):
        if not (g * g).is_identity():
            raise ValueError(f"reflection {idx} is not an involution; "
                             "check <alpha, alpha-check> = 2")

    def reflections(self):
        return [self.reflection(i) for i in range(len(self.positive_roots))]

    def pairing_check(self) -> bool:
        """Validate stored coroots: <a, a-check> = 2 and proportionality
        <x_i, a-check> = (|a-check|^2 / 2) <a, y_i>."""
        for r, cr in zip(self.positive_roots, self.coroots):
            if dot(r, cr) != rat(2):
                return False
            half_crn = dot(cr, cr) * rat(Fraction(1, 2))
            for ri, cri in zip(r, cr):
                if cri != half_crn * ri:
                    return False
        return True

    @cached_property
    def reflection_permutations(self) -> list:
        """Per positive root a, the root index of s_a(beta) for each root
        beta: index k < N stands for positive root k, N + k for its
        negative (N positive roots).  ValueError when an image is not a
        root."""
        roots, nroots = self.positive_roots, len(self.positive_roots)
        where = {r: k for k, r in enumerate(roots)}
        where.update({tuple(-x for x in r): nroots + k
                      for k, r in enumerate(roots)})
        perms = []
        for s in self.reflections():
            img = [where.get(s.apply(r)) for r in roots]
            if None in img:
                raise ValueError("root system not closed under W")
            perms.append(img + [(k + nroots) % (2 * nroots) for k in img])
        return perms

    def group(self) -> "ReflectionGroup":
        if self._group is None:
            self._group = ReflectionGroup(self)
        return self._group

    # -- orbits ------------------------------------------------------------

    def orbit_labels(self):
        """Per-root orbit label; 'all' for a single orbit, 'short'/'long'
        when exactly two orbits of distinct length, else 'orb<k>'."""
        if self._orbit_labels is not None:
            return self._orbit_labels
        nroots = len(self.positive_roots)
        parent = list(range(nroots))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i, j):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

        for perm in self.reflection_permutations:
            for ai in range(nroots):
                union(ai, perm[ai] % nroots)
        reps = sorted({find(i) for i in range(nroots)})
        if len(reps) == 1:
            labels = ["all"] * nroots
        elif len(reps) == 2:
            n0 = self.norms_sq[reps[0]]
            n1 = self.norms_sq[reps[1]]
            if n0 != n1:
                short_rep = reps[0] if (n0 - n1).sign_real() < 0 else reps[1]
                labels = ["short" if find(i) == short_rep else "long"
                          for i in range(nroots)]
            else:
                labels = [f"orb{reps.index(find(i))}" for i in range(nroots)]
        else:
            labels = [f"orb{reps.index(find(i))}" for i in range(nroots)]
        self._orbit_labels = labels
        return labels

    def has_transposition_roots(self) -> bool:
        """True when the positive roots are +-(e_i - e_j), once for each
        pair i < j: the permutation realization of a symmetric group,
        where the Jucys-Murphy elements live."""
        pairs = set()
        for root in self.positive_roots:
            spots = {j: v for j, v in enumerate(root) if not v.is_zero()}
            if len(spots) != 2 or set(spots.values()) != {ONE, -ONE}:
                return False
            pairs.add(tuple(spots))
        return len(pairs) == len(self.positive_roots) \
            == self.n * (self.n - 1) // 2

    def simple_root_indices(self):
        """alpha is simple iff s_alpha permutes the other positive roots."""
        return [i for i, s in enumerate(self.reflections())
                if all(self._is_positive_vec(s.apply(beta))
                       for j, beta in enumerate(self.positive_roots)
                       if j != i)]

    def _is_positive_vec(self, vec) -> bool:
        for x in vec:
            if not x.is_zero():
                return x.sign_real() > 0
        return False

    def __repr__(self):
        return (f"RootSystem({self.name}, n={self.n}, "
                f"{len(self.positive_roots)} positive roots)")


class ReflectionGroup:
    """BFS closure of the reflections, with lex-first shortest words.

    Elements are enumerated breadth-first over all reflection generators in
    root order, so words[i] is the lexicographically first factorization of
    elements[i] of minimal reflection length.

    The product table is built on first use from the permutation each
    element induces on the 2|Phi+| roots, which determines the element
    because W acts faithfully on its roots.
    """

    def __init__(self, rs: RootSystem, bound: int = GROUP_ORDER_BOUND):
        self.rs = rs
        gens = rs.reflections()
        ident = GroupElement(Matrix.identity(rs.n))
        self.elements = [ident]
        self.words = [()]
        self.index = {ident._key: 0}
        frontier = [0]
        while frontier:
            next_frontier = []
            for ei in frontier:
                g = self.elements[ei]
                w = self.words[ei]
                for gi, s in enumerate(gens):
                    h = g * s
                    k = h._key
                    if k not in self.index:
                        self.index[k] = len(self.elements)
                        self.elements.append(h)
                        self.words.append(w + (gi,))
                        next_frontier.append(len(self.elements) - 1)
                        if len(self.elements) > bound:
                            raise ValueError(
                                f"group order exceeds bound {bound}")
            frontier = next_frontier
        self.order = len(self.elements)
        self._reflection_idx = [self.index_of(s) for s in gens]

    def index_of(self, g: GroupElement) -> int:
        return self.index[g._key]

    @cached_property
    def mul_table(self) -> np.ndarray:
        """mul_table[i, j] = index of elements[i] * elements[j]."""
        gens = self.rs.reflection_permutations
        # row i: where elements[i] sends each root, composed along words[i]
        perms = np.empty((self.order, len(gens[0])), dtype=np.intp)
        perms[0] = np.arange(len(gens[0]))
        at = {w: i for i, w in enumerate(self.words)}
        for i, w in enumerate(self.words[1:], start=1):
            perms[i] = perms[at[w[:-1]]][gens[w[-1]]]
        index = {p.tobytes(): i for i, p in enumerate(perms)}
        if len(index) != self.order:
            raise RuntimeError("two group elements permute the roots alike")
        return np.array([[index[q.tobytes()] for q in p[perms]]
                         for p in perms], dtype=np.intp)

    @cached_property
    def inv_table(self) -> np.ndarray:
        """The column of the identity in each row of the product table."""
        return np.nonzero(self.mul_table == 0)[1]

    # plain lists of the tables: indexing them is faster than numpy
    _mul_rows = cached_property(lambda self: self.mul_table.tolist())
    _inv_list = cached_property(lambda self: self.inv_table.tolist())

    def mul(self, i: int, j: int) -> int:
        return self._mul_rows[i][j]

    def inv(self, i: int) -> int:
        return self._inv_list[i]

    def reflection_element_index(self, root_idx: int) -> int:
        return self._reflection_idx[root_idx]

    def minus_identity_index(self):
        m = Matrix.identity(self.rs.n).scale(-1)
        return self.index.get(GroupElement(m)._key)

    def has_minus_identity(self) -> bool:
        return self.minus_identity_index() is not None

    def element_order(self, i: int) -> int:
        k, cur = 1, i
        while cur != 0:
            cur = self.mul(cur, i)
            k += 1
        return k

    def conjugacy_classes(self):
        """List of sorted element-index lists, ordered by least element."""
        mul, inv = self.mul_table, self.inv_table
        return [list(c) for c in sorted(
            {tuple(np.unique(mul[mul[:, i], inv]).tolist())
             for i in range(self.order)})]


def wedge2_trivial_elements(rs: RootSystem):
    """Indices of group elements acting trivially on Lambda^2 R^n.

    Returns them as a sorted list; {1} or {1, -1} by the classification.
    """
    if rs.n < 2:
        raise ValueError("wedge^2 needs n >= 2")
    grp = rs.group()
    out = []
    pairs = [(k, l) for k in range(rs.n) for l in range(rs.n) if k < l]
    for idx, g in enumerate(grp.elements):
        m = g.mat.to_dense()
        trivial = True
        for (i, j) in pairs:
            for (k, l) in pairs:
                # coefficient of e_k ^ e_l in g e_i ^ g e_j
                v = m[k][i] * m[l][j] - m[l][i] * m[k][j]
                want = ONE if (k, l) == (i, j) else ZERO
                if v != want:
                    trivial = False
                    break
            if not trivial:
                break
        if trivial:
            out.append(idx)
    return out


# -- built-in systems --------------------------------------------------------


def _sym_roots(n: int):
    return [[1 if k == i else (-1 if k == j else 0) for k in range(n)]
            for i in range(n) for j in range(i + 1, n)]


def _type_b_roots(n: int):
    roots = [[1 if k == i else 0 for k in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            roots.append([1 if k == i else (-1 if k == j else 0)
                          for k in range(n)])
            roots.append([1 if k == i or k == j else 0 for k in range(n)])
    return roots


def _type_d_roots(n: int):
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            roots.append([1 if k == i else (-1 if k == j else 0)
                          for k in range(n)])
            roots.append([1 if k == i or k == j else 0 for k in range(n)])
    return roots


def root_system(name_or_spec) -> RootSystem:
    """Built-in root systems by name, or a custom list of positive roots.

    Names: Sk (type A_{k-1} on R^k), A1 (rank one on R^1), Bk, Dk, and
    I2(4) as an alias for B2.  A custom spec is a dict
    {"roots": [[...], ...]} with rational or rational*sqrt2 entries
    ('p/q' or 'p/q*sqrt2' strings).  Only groups of order at most
    GROUP_ORDER_BOUND can be generated: S2..S5, B2..B4, D2..D4.
    """
    if isinstance(name_or_spec, dict):
        roots = [[_parse_root_entry(x) for x in r]
                 for r in name_or_spec["roots"]]
        n = len(roots[0])
        return RootSystem(n, roots, name=name_or_spec.get("name", "custom"))
    name = str(name_or_spec).strip()
    if name == "I2(4)":
        name = "B2"
    if name == "A1":
        return RootSystem(1, [[1]], name="A1")
    kind, num = name[0], name[1:]
    if not num.isdigit():
        raise ValueError(f"unknown root system {name!r}")
    k = int(num)
    if kind == "S" and k >= 2:
        return RootSystem(k, _sym_roots(k), name=name)
    if kind == "B" and k >= 2:
        return RootSystem(k, _type_b_roots(k), name=name)
    if kind == "D" and k >= 2:
        return RootSystem(k, _type_d_roots(k), name=name)
    raise ValueError(f"unknown root system {name!r}")


def _parse_root_entry(x):
    if isinstance(x, str) and "sqrt2" in x:
        coef = x.replace("sqrt2", "").replace("*", "").strip()
        f = as_fraction(coef) if coef not in ("", "+", "-") else \
            Fraction(1) if coef != "-" else Fraction(-1)
        return ExactScalar(0, f)
    return rat(as_fraction(x))
