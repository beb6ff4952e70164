"""Root systems, reflection groups and reflection-invariant parameters.

Roots live in R^n with coordinates in Q(i, sqrt2) (real ones in practice);
the ambient pairing is the standard dot product, so a vector serves both
as a linear form (x-side) and as a point (y-side).  The listed roots are
the positive roots; the built-in systems list the roots whose first
nonzero coordinate is positive.

A group element is identified by the permutation it induces on the
2|Phi+| roots: the reflection group is enumerated breadth-first on these
permutations, and its exact matrices are derived from the BFS parents only
where a consumer needs them.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .linalg import Matrix
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


class ParamFunction:
    """Reflection-orbit invariant multiplicity function c."""

    def __init__(self, values: dict):
        self.values = {k: as_fraction(v) for k, v in values.items()}

    @staticmethod
    def from_config(spec, rs: "RootSystem") -> "ParamFunction":
        """Accept a bare rational (all orbits) or a dict keyed by orbit label."""
        labels = rs.orbit_labels
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

    def per_root(self, rs: "RootSystem") -> list:
        """The coupling c_a as an ExactScalar, per positive root of rs."""
        return [rat(self.values[lab]) for lab in rs.orbit_labels]

    def label(self) -> str:
        items = sorted(self.values.items())
        if len({v for _, v in items}) == 1:
            return format_fraction(items[0][1])
        return ";".join(f"{k}={format_fraction(v)}" for k, v in items)


class RootSystem:
    """Reduced root system, its coroots 2 a / |a|^2 and the generated
    group."""

    def __init__(self, n: int, positive_roots, name: str = "custom"):
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
        # a positive system is the set of roots on which some linear form
        # is positive, and the sum of its roots (2 rho) is such a form
        sigma = [sum(col, ZERO) for col in zip(*self.positive_roots)]
        for idx, r in enumerate(self.positive_roots):
            if dot(sigma, r).sign_real() <= 0:
                raise ValueError(f"root {idx} is not positive on the sum of "
                                 "the roots; list a positive system")
        self.norms_sq = [dot(r, r) for r in self.positive_roots]
        self.coroots = [tuple(x * n2.inverse() * 2 for x in r)
                        for r, n2 in zip(self.positive_roots, self.norms_sq)]

    # -- lengths ---------------------------------------------------------

    @cached_property
    def root_norms(self) -> list:
        """|alpha| per positive root as a field element; ValueError at
        the first that leaves the field."""
        return [_norm(n2, "root", i) for i, n2 in enumerate(self.norms_sq)]

    @cached_property
    def coroot_norms(self) -> list:
        """|alpha-check| per positive root, as `root_norms`."""
        return [_norm(dot(cr, cr), "coroot", i)
                for i, cr in enumerate(self.coroots)]

    # -- reflections and the group ---------------------------------------

    @cached_property
    def reflections(self) -> list:
        """Per positive root, s_alpha(y) = y - <alpha, y> alpha-check as
        an exact orthogonal matrix.

        It is an involution by construction: with alpha-check = 2 alpha /
        |alpha|^2, <alpha, alpha-check> = 2, so m^2 = 1 - 2 alpha-check
        alpha^T + alpha-check (alpha . alpha-check) alpha^T = 1.
        """
        return [Matrix.from_rows([[(ONE if i == j else ZERO) - cr[i] * a[j]
                                   for j in range(self.n)]
                                  for i in range(self.n)])
                for a, cr in zip(self.positive_roots, self.coroots)]

    def reflection(self, idx: int) -> Matrix:
        return self.reflections[idx]

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
        for alpha, cr in zip(roots, self.coroots):
            img = []
            for beta in roots:
                p = dot(alpha, beta)
                img.append(where.get(tuple(b - p * c
                                           for b, c in zip(beta, cr))))
            if None in img:
                raise ValueError("root system not closed under W")
            perms.append(img + [(k + nroots) % (2 * nroots) for k in img])
        return perms

    # built on the first call of group(), a method as perfbench wraps it
    _group = cached_property(lambda self: ReflectionGroup(self))

    def group(self) -> "ReflectionGroup":
        return self._group

    # -- orbits ------------------------------------------------------------

    @cached_property
    def orbit_labels(self) -> list:
        """Per-root orbit label; 'all' for a single orbit, 'short'/'long'
        when exactly two orbits of distinct length, else 'orb<k>'."""
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
            return ["all"] * nroots
        n0, n1 = (self.norms_sq[r] for r in reps[:2])
        if len(reps) == 2 and n0 != n1:
            short_rep = reps[0] if (n0 - n1).sign_real() < 0 else reps[1]
            return ["short" if find(i) == short_rep else "long"
                    for i in range(nroots)]
        return [f"orb{reps.index(find(i))}" for i in range(nroots)]

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

    @cached_property
    def _simple_roots(self) -> list:
        """alpha is simple iff s_alpha permutes the other positive roots."""
        nroots = len(self.positive_roots)
        return [i for i, perm in enumerate(self.reflection_permutations)
                if all(k < nroots for j, k in enumerate(perm[:nroots])
                       if j != i)]

    def simple_root_indices(self) -> list:
        return self._simple_roots

    def __repr__(self):
        return (f"RootSystem({self.name}, n={self.n}, "
                f"{len(self.positive_roots)} positive roots)")


class ReflectionGroup:
    """BFS closure of the reflections, with lex-first shortest words.

    An element is the permutation it induces on the 2|Phi+| roots, which
    identifies it because W acts faithfully on its roots; one dict from
    permutation bytes to index is the only element index.  Elements are
    enumerated breadth-first over all reflection generators in root order,
    so words[i] is the lexicographically first factorization of element i
    of minimal reflection length, and words[i] = words[parents[i]] + (r,)
    for the BFS parent parents[i] (None for the identity).  The BFS looks
    up the right product of every element by every reflection generator;
    they are kept as the table `_right`.

    The exact n x n matrices, the product table and the inverse table are
    built on first use.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        gens = np.array(rs.reflection_permutations, dtype=np.intp)
        perms = [np.arange(2 * len(rs.positive_roots), dtype=np.intp)]
        self.words = [()]
        self.parents = [None]
        self._index = {perms[0].tobytes(): 0}
        # frontiers hold increasing indices, one level after another, so
        # right[ei] is appended in index order
        right = []
        frontier = [0]
        while frontier:
            next_frontier = []
            for ei in frontier:
                row = []
                for gi, s in enumerate(gens):
                    h = perms[ei][s]
                    k = h.tobytes()
                    if k not in self._index:
                        self._index[k] = len(perms)
                        perms.append(h)
                        self.words.append(self.words[ei] + (gi,))
                        self.parents.append(ei)
                        next_frontier.append(len(perms) - 1)
                        if len(perms) > GROUP_ORDER_BOUND:
                            raise ValueError("group order exceeds bound "
                                             f"{GROUP_ORDER_BOUND}")
                    row.append(self._index[k])
                right.append(row)
            frontier = next_frontier
        self.order = len(perms)
        self._right = np.array(right, dtype=np.intp)
        self._reflection_idx = right[0]

    @cached_property
    def matrices(self) -> list:
        """The exact matrix of each element, one product per element along
        the BFS parents."""
        refl = self.rs.reflections
        mats = [Matrix.identity(self.rs.n)]
        for p, w in zip(self.parents[1:], self.words[1:]):
            mats.append(mats[p] @ refl[w[-1]])
        return mats

    @cached_property
    def mul_table(self) -> np.ndarray:
        """mul_table[i, j] = index of element i times element j, filled
        column by column along the BFS words: j = parents[j] s for its
        last letter s, so i j = (i parents[j]) s, read off `_right`."""
        cols = np.empty((self.order, self.order), dtype=np.intp)
        cols[0] = np.arange(self.order)
        for j in range(1, self.order):
            cols[j] = self._right[cols[self.parents[j]], self.words[j][-1]]
        return cols.T.copy()

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

    def det(self, i: int) -> int:
        """det(w) = (-1)^k for a word of k reflections."""
        return -1 if len(self.words[i]) % 2 else 1

    def minus_identity_index(self):
        """The index of -1, or None.  The element that negates every root
        is -1 only when the roots span R^n, so its matrix decides."""
        nroots = len(self.rs.positive_roots)
        negate = np.roll(np.arange(2 * nroots, dtype=np.intp), nroots)
        i = self._index.get(negate.tobytes())
        if i is None or \
                self.matrices[i] != Matrix.identity(self.rs.n).scale(-1):
            return None
        return i

    def element_order(self, i: int) -> int:
        k, cur = 1, i
        while cur != 0:
            cur = self.mul(cur, i)
            k += 1
        return k


# -- built-in systems --------------------------------------------------------


def _sym_roots(n: int):
    return [[1 if k == i else (-1 if k == j else 0) for k in range(n)]
            for i in range(n) for j in range(i + 1, n)]


def _type_b_roots(n: int):
    """The unit vectors, then the roots of D_n."""
    return [[1 if k == i else 0 for k in range(n)]
            for i in range(n)] + _type_d_roots(n)


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
        roots = name_or_spec.get("roots")
        if not (isinstance(roots, list) and roots
                and all(isinstance(r, list) for r in roots)):
            raise ValueError("roots must be a non-empty list of lists")
        roots = [[_parse_root_entry(x) for x in r] for r in roots]
        name = name_or_spec.get("name", "custom")
        if not isinstance(name, str):
            raise ValueError(f"name must be a string, got {name!r}")
        return RootSystem(len(roots[0]), roots, name=name)
    name = str(name_or_spec).strip()
    if name == "I2(4)":
        name = "B2"
    if name == "A1":
        return RootSystem(1, [[1]], name="A1")
    kind, num = name[:1], name[1:]
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
    """One coordinate of a custom root: an int, 'p/q' or 'p/q*sqrt2'."""
    if isinstance(x, bool):
        raise ValueError(f"root entry {x!r}: booleans are not numbers")
    if isinstance(x, str) and x.strip().endswith("sqrt2"):
        coef = x.strip()[:-5].rstrip().rstrip("*").strip()
        try:
            f = as_fraction({"": 1, "+": 1, "-": -1}.get(coef, coef))
        except ValueError:
            raise ValueError(f"not a rational times sqrt2: {x!r}") from None
        return ExactScalar(0, f)
    return rat(x)
