"""Golden report digests: verify reports and table CSVs stay
byte-identical.

Each config runs every suite through the console entry point and pins
the SHA-256 of the report bytes.  Any change to a report, be it a check
id, a status, a witness or the key order, fails here; a deliberate
report change re-pins its digest in the same commit.  Two `table` sweeps
are pinned the same way, since they run the cover-algebra products of the
twist elements and the nonempty kernels that `verify` alone barely
reaches.
"""
import hashlib
import json
from collections import Counter
from functools import cache, cached_property

import pytest

from dunkldirac import cli
from oracles import report_passes

# name -> (config, SHA-256 of its report); every config runs all suites
GOLDEN = {
    "S3": (
        {"group": "S3", "c": "1/3", "max_degree": 3},
        "79ea70221341701c6e84bae28708e8058a29ecb6db13b9517429c599002014a7"),
    "B2-orbits": (
        {"group": "B2", "c": {"short": "1/3", "long": "1/5"},
         "max_degree": 4},
        "4b88f684938e17892ca90b54c4309412f50bc6fefa3caea6d03d2ca24fbc9d45"),
    "A1": (
        {"group": "A1", "c": "1/3", "max_degree": 4},
        "f25d4a998677c9a54d981fcaab1ad3ee3c781a14a90f6d3ac2d012b2de0f299c"),
    # I2(4) with roots in Q(sqrt2): two orbits of equal length
    "I2(4)-sqrt2": (
        {"group": {"roots": [["1", "0"], ["0", "1"],
                             ["1/2*sqrt2", "1/2*sqrt2"],
                             ["1/2*sqrt2", "-1/2*sqrt2"]]},
         "c": "1/3", "max_degree": 3},
        "0b5c9bae35c23c5ffa056026d1b99988331a68d5fdf644f01aef3307a2bfd1ae"),
    # a three-dimensional tau: y_i tensors D_a with weighted tau(s_a)
    "B3-reflection": (
        {"group": "B3", "c": {"long": "1/3", "short": "1/5"},
         "max_degree": 3, "tau": "reflection"},
        "054a84f98e4222c3546afd832b3391b9dbb9a037b4e75f35bf6a77d4c0734637"),
    # the sign character given as a custom tau
    "S3-custom-sign": (
        {"group": "S3", "c": "1/3", "max_degree": 3,
         "tau": {"matrices": {"0": [["-1"]], "2": [["-1"]]},
                 "form": [["1"]], "name": "sign, by hand"}},
        "1c8ae8d4a386bbd2a4929e8e79853a234d5b2fc2b54cc5151dac99a93c8d77cf"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(tmp_path, name):
    config, digest = GOLDEN[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--config", str(path),
                     "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def table_digest(tmp_path, config, sweep_points) -> str:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(sweep_points), encoding="utf-8")
    out = tmp_path / "table.csv"
    assert cli.main(["table", "--config", str(cfg), "--sweep", str(sweep),
                     "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


# S3 at c = 1/2, where jm:e1 has kernel cohomology on degree 2, over four
# twists and three degrees, plus one unknown element that must become an
# error row without stopping the sweep
TABLE_CONFIG = {"group": "S3", "c": "1/2", "max_degree": 3}
TABLE_SWEEP = [{"m": m, "C": name}
               for name in ("zero", "C2", "jm:e1", "scale:2:C2")
               for m in (0, 1, 2)] + [{"m": 1, "C": "bogus"}]
TABLE_DIGEST = \
    "e2e85b787b474b50acf5f42084ea1fdf3acfe3b0dff8412aefdeec20fc17d54a"


def test_table_digest(tmp_path):
    assert table_digest(tmp_path, TABLE_CONFIG, TABLE_SWEEP) == TABLE_DIGEST


# S4 at c = 1/3, rescaled C2 twists with nonempty kernels (dim_ker 8, 0,
# 8 and 4): reaches the kernel, overlap and Casimir-on-kernel paths on a
# larger cover than the verify configs
S4_TABLE_CONFIG = {"group": "S4", "c": "1/3", "max_degree": 4}
S4_TABLE_SWEEP = [{"m": m, "C": f"scale:{s}:C2"}
                  for m, s in ((1, 36), (1, -36), (2, 18), (2, -18))]
S4_TABLE_DIGEST = \
    "19620ad894c7a82573f2e833d21ae47d18cd3360a416c663fad464fe1113634d"


def test_table_digest_s4_kernels(tmp_path):
    assert table_digest(tmp_path, S4_TABLE_CONFIG, S4_TABLE_SWEEP) \
        == S4_TABLE_DIGEST


def test_verify_s4_canonicalises_once_per_sum(tmp_path, monkeypatch):
    """All suites on S4 at degree 3, c = 1/3: the report keeps its digest,
    the products are as many as before, a block-level sum is brought to
    canonical form once rather than once per term, with every scalar
    multiple inside it one of its coefficients, a Kronecker sum of two
    or more terms is one product rather than one kron per term, and each
    distinct collected AMA relation is decided once.  The AMA sweeps and
    the Clifford monomial check form their products a few stacked
    products per degree, and no GEMM runs more than 512,000 = 80^3
    multiply-adds, the largest single product of the run: on two BLAS
    threads larger float GEMMs stalled.  The twist C2 is built once for the
    four suites that read it, Z3 once for the pincover and dirac suites,
    and the Jucys-Murphy elements once for the pincover suite and the
    jm:e1 twist.  Each harmonic slice is prepared once, with one Sylvester
    test, and no float eigensolver or factorization runs.  Each spinor
    blade image is one product."""
    import numpy as np

    from dunkldirac import cover, diracops, linalg, polyrep
    calls = {"make": 0, "matmul": 0, "kron": 0, "first_nonzero": 0,
             "scale": 0, "build_C2": 0, "build_Z3": 0, "jm_elements": 0,
             "is_positive_definite": 0}
    make, matmul = linalg.Matrix._make, linalg.Matrix.__matmul__
    scale = linalg.Matrix.scale
    kron, first_nonzero = linalg.Matrix.kron, polyrep.first_nonzero
    gemm, gemm_madds = linalg._gemm, set()

    def record_gemm(lhs, rhs, exact_float):
        gemm_madds.add(lhs.shape[0] * lhs.shape[1] * rhs.shape[1])
        return gemm(lhs, rhs, exact_float)

    def count_make(*args):
        calls["make"] += 1
        return make(*args)

    def count_matmul(a, b):
        calls["matmul"] += 1
        return matmul(a, b)

    def count_scale(a, s):
        calls["scale"] += 1
        return scale(a, s)

    def count_kron(a, b):
        calls["kron"] += 1
        return kron(a, b)

    def count_first_nonzero(terms):
        calls["first_nonzero"] += 1
        return first_nonzero(terms)

    def counting(name, module=cover):
        build = getattr(module, name)

        def count(*args):
            calls[name] += 1
            return build(*args)
        return count

    def no_float_linalg(*args, **kwargs):
        raise AssertionError("float linear algebra in a verify run")

    monkeypatch.setattr(linalg.Matrix, "_make", staticmethod(count_make))
    monkeypatch.setattr(linalg.Matrix, "__matmul__", count_matmul)
    monkeypatch.setattr(linalg.Matrix, "kron", count_kron)
    monkeypatch.setattr(linalg.Matrix, "scale", count_scale)
    monkeypatch.setattr(polyrep, "first_nonzero", count_first_nonzero)
    for name, home in (("build_C2", cover), ("build_Z3", cover),
                       ("jm_elements", cover),
                       ("is_positive_definite", linalg)):
        count = counting(name, home)
        for module in (cli, cover, diracops, polyrep):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, count)
    monkeypatch.setattr(linalg, "_gemm", record_gemm)
    for name in ("cholesky", "inv", "eigvalsh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, no_float_linalg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"group": "S4", "c": "1/3", "max_degree": 3,
                                "tau": "trivial", "suites": "all"}),
                    encoding="utf-8")
    report, code = cli.run_verify(cli.load_config(str(path)))
    assert code == 0
    assert hashlib.sha256(cli._report_bytes(report)).hexdigest() == \
        "68a97dbd3a237d7ce2c3dc3d7ca638452a3bf037bf780e9cc084c809cec14142"
    # 2,965 with one kron per Kronecker term, every group element built by
    # substitution and the zero M_ii products of the AMA relations formed;
    # 2,942 with one cocycle-table product per group element (24) rather
    # than one per reflection (6); 2,924 while each reflection of S4 (6)
    # was squared to check that it is an involution; 2,918 while the C[x]
    # blocks were read off substituted and divided polynomials, with no
    # product, and the contravariant form took one product per variable
    # and degree rather than two; 3,014 while each reflection's C[x] block
    # and the identity's came from their own Leibniz recursions, two
    # products per degree, where a reflection now takes one product of its
    # shared divided difference and the identity none; 2,990 while every
    # AMA product and commutator side, and every Clifford monomial product,
    # was its own product, where a few stacked products per degree now
    # hold them all; 1,289 while the form and the Casimir of each harmonic
    # slice were formed once per twist rather than once per slice; 1,281
    # while each spinor blade image was a chain of generator products,
    # where it is now one product of a shorter blade's image; 1,264 while
    # each twisted operator's slice block was restricted twice, for its
    # unitarity data and again for its kernel, two products each time
    assert calls["matmul"] == 1256
    # 18,427 when every pairwise sum was canonicalised on its own; 3,076
    # while each scaled operator block was canonicalised by itself and
    # again in the sum that read it, where a scalar multiple is now a
    # coefficient of that sum
    assert calls["make"] == 2139
    # 996 while every scaled operator block, every spinor blade image of a
    # sigma and every term of a group-algebra or reflection sum was its own
    # `Matrix.scale`
    assert calls["scale"] == 39
    # 873 with one kron per Kronecker term; 115 before the C[x] blocks came
    # from the Leibniz recursion, one or two krons per block, and the
    # contravariant form one kron per variable and degree; 190 while the
    # identity element was a Leibniz recursion tensored with tau(1) rather
    # than `identity_op`; 183 while each harmonic slice tensored its basis
    # and form with I_S once per twist, and its basis once more for the
    # kernel cohomology
    assert calls["kron"] == 175
    # 2,820 with every AMA relation summed on its own; 980 while every
    # passing AMA combination and commutator was read for its first nonzero
    # entry degree by degree, where a stacked product's blocks are now
    # compared by one signed gather-sum
    assert calls["first_nonzero"] == 256
    # pinned as widths (at most 80 columns) before the products were
    # stacked; a stacked operand is wider, and the stall depends on the
    # multiply-adds
    assert max(gemm_madds) <= 512_000
    # 5 when the pincover, dirac (twice), vogan and cohomology suites each
    # built their own
    assert calls["build_C2"] == 1
    # 2 each when the pincover suite built its own
    assert calls["build_Z3"] == 1 and calls["jm_elements"] == 1
    # 4 when each twist (zero and C2) tested the form of each slice
    # (degrees 0 and 1)
    assert calls["is_positive_definite"] == 2


def count_builds(monkeypatch, cls, name, calls):
    """Count in calls[name] each build of the cached property name of
    cls."""
    build = vars(cls)[name].func

    def counted(self):
        calls[name] += 1
        return build(self)
    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)


def test_derived_tables_are_built_once(tmp_path, monkeypatch):
    """On the verify-s4 config (all suites on S4 at degree 3, c = 1/3) the
    6 root and 6 coroot norms take one exact square root each, where 48
    were taken; the simple roots are found once, where 12 calls found
    them; and the 2^4 spinor blade images are built once.  The AMA
    relation table is collected once per n: a second S4 context reads it
    again.  Each (block, basis) pair is restricted once: the verify-s4
    config makes 6 restrictions, where the cohomology suite made 10 by
    restricting each twisted operator's slice block again for its kernel
    after its unitarity data; the golden S4 table sweep makes 9, where it
    made 13; and one `spectrum` run (S3, c = 1/3, degree 1, twist C2)
    makes 2, the Casimir's for the slice and the operator's for both its
    exact data and its float spectrum."""
    from dunkldirac import angmom, clifford, diracops, polyrep, roots
    calls = Counter()
    norm, restrict = roots._norm, diracops._restrict
    table = angmom._relation_table.__wrapped__
    restricted = []

    def count_norm(*args):
        calls["_norm"] += 1
        return norm(*args)

    def collect(n):
        calls["_relation_table"] += 1
        return table(n)

    def record_restrict(block, basis):
        restricted.append((block, basis))
        return restrict(block, basis)

    def restricted_once(count):
        # the list holds every block and basis, so no id is reused
        pairs = {(id(block), id(basis)) for block, basis in restricted}
        return len(restricted) == len(pairs) == count

    monkeypatch.setattr(roots, "_norm", count_norm)
    monkeypatch.setattr(angmom, "_relation_table", cache(collect))
    monkeypatch.setattr(diracops, "_restrict", record_restrict)
    count_builds(monkeypatch, roots.RootSystem, "_simple_roots", calls)
    count_builds(monkeypatch, clifford.SpinorRep, "blade_images", calls)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"group": "S4", "c": "1/3", "max_degree": 3,
                                "tau": "trivial", "suites": "all"}),
                    encoding="utf-8")
    cfg = cli.load_config(str(path))
    report, code = cli.run_verify(cfg)
    assert code == 0
    assert hashlib.sha256(cli._report_bytes(report)).hexdigest() == \
        "68a97dbd3a237d7ce2c3dc3d7ca638452a3bf037bf780e9cc084c809cec14142"
    assert calls == {"_norm": 12, "_simple_roots": 1, "blade_images": 1,
                     "_relation_table": 1}
    assert restricted_once(6)
    other = angmom.AmaContext(polyrep.ModuleFamily(
        cfg["rs"], cfg["param"], "trivial", max_degree=2))
    assert report_passes(angmom.ama_relations_check(other))
    assert calls["_relation_table"] == 1
    path.write_text(json.dumps({"group": "S3", "c": "1/3", "max_degree": 4}),
                    encoding="utf-8")
    restricted.clear()
    rows = cli.run_spectrum(cli.load_config(str(path)), 1, "C2")
    assert rows and all(row["status"] == "ok" for row in rows)
    assert restricted_once(2)
    restricted.clear()
    assert table_digest(tmp_path, S4_TABLE_CONFIG, S4_TABLE_SWEEP) \
        == S4_TABLE_DIGEST
    assert restricted_once(9)


def test_verify_s4_blocks_hold_only_live_planes(tmp_path, monkeypatch):
    """After the verify-s4 config (all suites on S4 at degree 3, c = 1/3)
    the cached degree-3 blocks of the Dirac element and the Casimir are
    80 x 80 and store one int64 plane per live component: two (1 and i)
    and one (1), 102,400 and 51,200 bytes, where four planes took
    204,800 bytes each."""
    built = []
    build = cli._build

    def keep_build(cfg):
        built.append(build(cfg))
        return built[-1]

    monkeypatch.setattr(cli, "_build", keep_build)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"group": "S4", "c": "1/3", "max_degree": 3,
                                "tau": "trivial", "suites": "all"}),
                    encoding="utf-8")
    assert cli.run_verify(cli.load_config(str(path)))[1] == 0
    (dctx,) = built
    dirac, casimir = (vars(dctx)[name].blocks[3]
                      for name in ("dirac", "casimir"))
    assert (dirac.comps, casimir.comps) == ((0, 2), (0,))
    for blk in (dirac, casimir):
        assert blk.num.shape == (len(blk.comps), 80, 80)
        assert blk.num.dtype == "int64"
        assert all(plane.any() for plane in blk.num)
    assert (dirac.num.nbytes, casimir.num.nbytes) == (102400, 51200)


def test_b4_ama_suite_gemms_stay_under_the_cap(tmp_path, monkeypatch):
    """The ama suite on B4 at degree 4 (c long 1/3, short 1/5) passes and
    runs no GEMM of more than 512,000 multiply-adds, although stacking all
    390 M_ij and group elements side by side would need 16.7M on one
    degree-4 block product."""
    from dunkldirac import linalg
    gemm, gemm_madds = linalg._gemm, []

    def record_gemm(lhs, rhs, exact_float):
        gemm_madds.append(lhs.shape[0] * lhs.shape[1] * rhs.shape[1])
        return gemm(lhs, rhs, exact_float)

    monkeypatch.setattr(linalg, "_gemm", record_gemm)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"group": "B4",
                                "c": {"long": "1/3", "short": "1/5"},
                                "max_degree": 4, "suites": ["ama"]}),
                    encoding="utf-8")
    report, code = cli.run_verify(cli.load_config(str(path)))
    assert code == 0 and report["summary"]["fail"] == 0
    assert max(gemm_madds) <= 512_000
