"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of the engine from the outside: it
replaces a function in every `dunkldirac` namespace that imported it by
name, or a method on its class.  Each wrapped call records one span
(name, start, end, parent) and, for a few boundaries, counts computed
from the call's operands and result.  Spans stay in memory and are
written out once, when the run ends.

Per-call hot helpers (`PinCover.cocycle`, `ExactScalar` arithmetic) are
never wrapped: their counts are derived from group orders and matrix
sizes instead.  `CliffordElement.__mul__` gets a count-only wrapper with
no span, since it runs about 16k times per S5 cover scan.
"""
import json
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

# (module, function) pairs wrapped wherever they were imported by name
FUNCTIONS = [
    ("dunkldirac.cli", "load_config"),
    ("dunkldirac.cli", "run_verify"),
    ("dunkldirac.diracops", "vogan_witness_check"),
    ("dunkldirac.diracops", "dirac_square_check"),
    ("dunkldirac.diracops", "basis_independence_check"),
    ("dunkldirac.diracops", "rho_invariance_check"),
    ("dunkldirac.diracops", "c2_decomposition_check"),
    ("dunkldirac.diracops", "scasimir_check"),
    ("dunkldirac.diracops", "dirac_cohomology"),
    ("dunkldirac.diracops", "central_character_check"),
    ("dunkldirac.diracops", "unitarity_and_spectrum"),
    ("dunkldirac.diracops", "nonzero_cohomology_search"),
    ("dunkldirac.diracops", "build_dirac"),
    ("dunkldirac.angmom", "ama_relations_check"),
    ("dunkldirac.angmom", "msquared_identities_check"),
    ("dunkldirac.angmom", "casimir_centrality_check"),
    ("dunkldirac.angmom", "centralizer_check"),
    ("dunkldirac.polyrep", "rca_relation_check"),
    ("dunkldirac.polyrep", "harmonic_subspace"),
    ("dunkldirac.polyrep", "contravariant_form"),
    ("dunkldirac.cover", "is_admissible"),
    ("dunkldirac.cover", "build_C2"),
    ("dunkldirac.cover", "build_Z3"),
    ("dunkldirac.cover", "jm_elements"),
    ("dunkldirac.cover", "jm_symmetric_elements"),
    ("dunkldirac.clifford", "anticommutator_check"),
    ("dunkldirac.linalg", "kernel"),
    ("dunkldirac.linalg", "rank"),
    ("dunkldirac.linalg", "intersection_dim"),
    ("dunkldirac.linalg", "is_positive_definite"),
]

# (module, class, method, span name) wrapped once on the class
METHODS = [
    ("dunkldirac.linalg", "Matrix", "__matmul__", "linalg.matmul"),
    ("dunkldirac.polyrep", "ModuleFamily", "y_op", "polyrep.y_op"),
    ("dunkldirac.cover", "PinCover", "__init__", "cover.PinCover"),
    ("dunkldirac.cover", "PinCover", "cocycle_identity_check",
     "cover.cocycle_identity_check"),
    ("dunkldirac.cover", "PinCover", "projection_check",
     "cover.projection_check"),
    ("dunkldirac.roots", "RootSystem", "group", "roots.group"),
    ("dunkldirac.diracops", "DiracContext", "__init__",
     "diracops.DiracContext"),
]


def _max_bits(m) -> int:
    """Largest component or denominator bit length among the entries."""
    best = 0
    for row in m.rows:
        for v in row.values():
            for x in (v._p, v._q, v._r, v._s, v._den):
                b = x.bit_length()
                if b > best:
                    best = b
    return best


def _madds(a, b) -> int:
    """sum_k nnz(A[:, k]) * nnz(B[k, :]), the multiply-adds of A @ B."""
    col = Counter()
    for row in a.rows:
        col.update(row.keys())
    brows = b.rows
    return sum(cnt * len(brows[k]) for k, cnt in col.items())


class Tracer:
    """In-memory spans and counters; `install` patches the engine."""

    def __init__(self):
        # [name, start, end, parent index, observer time inside the span]
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.maxima = Counter()

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
                if stack:
                    # the observer's cost is not the parent's self time
                    spans[stack[-1]][4] += clock() - rec[2]
            return out

        return traced

    def _count_only(self, key, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- observers (run after the span closed) --------------------------------

    def _observe_matmul(self, args, out):
        a, b = args
        self.counts["linalg.matmul.madds"] += _madds(a, b)
        bits = _max_bits(out)
        if bits > self.maxima["linalg.matmul.max_bits"]:
            self.maxima["linalg.matmul.max_bits"] = bits

    def _observe_kernel(self, args, out):
        if out.ncols:
            self.counts["linalg.kernel.nonempty"] += 1

    def _observe_cocycle_scan(self, args, ok):
        # a passing scan visits every (u, v, w) triple of the group
        if ok:
            order = args[0].group.order
            self.counts["cover.cocycle_identity_check.triples"] += order ** 3

    # -- patching -------------------------------------------------------------

    def install(self):
        """Import the engine's modules and wrap their entry points."""
        import importlib
        mods = {name: importlib.import_module(name) for name in
                {m for m, _ in FUNCTIONS} | {m for m, *_ in METHODS}}
        observers = {"kernel": self._observe_kernel}
        for modname, attr in FUNCTIONS:
            orig = getattr(mods[modname], attr)
            short = modname.rsplit(".", 1)[1]
            wrapped = self.wrap(f"{short}.{attr}", orig, observers.get(attr))
            _patch_everywhere(orig, wrapped)
        method_observers = {
            "linalg.matmul": self._observe_matmul,
            "cover.cocycle_identity_check": self._observe_cocycle_scan,
        }
        for modname, clsname, attr, span in METHODS:
            cls = getattr(mods[modname], clsname)
            setattr(cls, attr, self.wrap(span, getattr(cls, attr),
                                         method_observers.get(span)))
        cliff = importlib.import_module("dunkldirac.clifford")
        cls = cliff.CliffordElement
        cls.__mul__ = self._count_only("clifford.mul.calls", cls.__mul__)
        cli = importlib.import_module("dunkldirac.cli")
        cli._build = self.wrap("cli.build_context", cli._build)
        for suite, fn in list(cli._SUITE_FNS.items()):
            cli._SUITE_FNS[suite] = self.wrap(f"cli.suite.{suite}", fn)

    # -- results --------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its child spans cover, and
        minus the time observers spent measuring those children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] - observed
                for i, (_, start, end, _, observed) in enumerate(self.spans)]

    def _has_ancestor(self, idx, name):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self) -> dict:
        """Per-layer totals keyed `<span>.calls`, `.self_s` and `.s`, plus
        the derived counts and ratios."""
        out = defaultdict(float)
        for i, (rec, self_s) in enumerate(zip(self.spans,
                                              self.self_times())):
            name, start, end = rec[:3]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name}.s"] += end - start
            if name == "linalg.kernel" and self._has_ancestor(
                    i, "diracops.nonzero_cohomology_search"):
                out["diracops.search.kernel_calls"] += 1
        out.update(self.counts)
        out.update(self.maxima)
        calls = out.get("linalg.kernel.calls", 0)
        out["linalg.kernel.nonempty_ratio"] = (
            out.get("linalg.kernel.nonempty", 0) / calls if calls else 0.0)
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _patch_everywhere(orig, wrapped) -> None:
    """Replace `orig` in every engine namespace that bound it by name."""
    for modname, mod in list(sys.modules.items()):
        if modname != "dunkldirac" and not modname.startswith("dunkldirac."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)
