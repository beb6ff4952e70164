"""Acceptance gate: thirteen criteria over the desk-scale grid.

Groups S2, S3 (on R^3), S4 (on R^4), and B2; couplings 0, 1/2, -1/3 for
the algebra relations; trivial type everywhere with sign and reflection
spot checks.  Truncation degrees are tuned so each criterion stays well
under a minute.  Every test prints one PASS/FAIL line; run with -s (or
read captured output) for the ledger view.
"""
from fractions import Fraction

from dunkldirac import (
    HatElement,
    PinCover,
    ama_relations_check,
    anticommutator_check,
    basis_independence_check,
    build_C2,
    build_context,
    build_dirac,
    c2_decomposition_check,
    central_character_check,
    centralizer_check,
    contravariant_form,
    dirac_cohomology,
    dirac_square_check,
    harmonic_subspace,
    is_admissible,
    is_positive_definite,
    jm_elements,
    jm_symmetric_elements,
    msquared_identities_check,
    nonzero_cohomology_search,
    rca_relation_check,
    root_system,
    scasimir_check,
    unitarity_and_spectrum,
    vogan_witness_check,
)
from dunkldirac import ParamFunction
from dunkldirac import cli

from oracles import classical_harmonic_dim, report_passes, same_operator

GRID_GROUPS = (("S2", 4), ("S3", 4), ("S4", 2), ("B2", 4))
GRID_CS = (Fraction(0), Fraction(1, 2), Fraction(-1, 3))

_DCTX: dict = {}


def dctx(name, c, deg, tau="trivial"):
    key = (name, str(c), deg, tau)
    got = _DCTX.get(key)
    if got is None:
        rs = root_system(name)
        got = build_context(rs, ParamFunction.from_config(c, rs), deg, tau)
        _DCTX[key] = got
    return got


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail and not ok else ""))
    assert ok, f"criterion {num} ({label}) failed {detail}"


def grid_contexts():
    for name, deg in GRID_GROUPS:
        for c in GRID_CS:
            yield name, c, dctx(name, c, deg)


def test_01_rca_relations():
    bad = [f"{n}/c={c}" for n, c, d in grid_contexts()
           if not rca_relation_check(d.family)["pass"]]
    _report(1, "defining commutation relations", not bad, str(bad))


def test_02_crossing_relations_and_trace():
    bad = [f"{n}/c={c}" for n, c, d in grid_contexts()
           if not report_passes(ama_relations_check(d.ama))]
    s = dctx("S3", Fraction(1, 2), 4, "sign")
    if not report_passes(ama_relations_check(s.ama)):
        bad.append("S3/sign")
    # the diagonal sum identity, explicitly
    a = dctx("S3", Fraction(1, 2), 4).ama
    total = a.S(1, 1) + a.S(2, 2) + a.S(3, 3)
    want = a.family.scalar_op(3) + a.Z.scale(2)
    if not same_operator(total, want):
        bad.append("S3 diagonal sum")
    _report(2, "crossing relations and the diagonal sum", not bad, str(bad))


def test_03_msquare_and_casimir():
    bad = [f"{n}/c={c}" for n, c, d in grid_contexts()
           if not report_passes(msquared_identities_check(d.ama))]
    s = dctx("S3", Fraction(1, 2), 4, "sign")
    if not report_passes(msquared_identities_check(s.ama)):
        bad.append("S3/sign")
    _report(3, "angular momentum square and Casimir forms", not bad,
            str(bad))


def test_04_centralizer():
    bad = [f"{n}/c={c}" for n, c, d in grid_contexts()
           if not report_passes(centralizer_check(d.ama))]
    _report(4, "angular momenta centralize the sl2 triple", not bad,
            str(bad))


def test_05_clifford_and_cover():
    bad = []
    for n in (1, 2, 3, 4):
        if not anticommutator_check(n):
            bad.append(f"clifford n={n}")
    for name, _deg in GRID_GROUPS:
        cov = PinCover(root_system(name))
        for check in ("projection_check", "conjugation_sign_check",
                      "braid_sign_check", "cocycle_identity_check"):
            if not getattr(cov, check)():
                bad.append(f"{name}.{check}")
    _report(5, "Clifford relations, lift signs, cocycle identity",
            not bad, str(bad))


def test_06_dirac_square_chain():
    bad = [f"{n}/c={c}" for n, c, d in grid_contexts()
           if not report_passes(dirac_square_check(d))]
    _report(6, "square partition and shifted square", not bad, str(bad))


def test_07_basis_independence():
    bad = [name for name, deg in GRID_GROUPS
           if not report_passes(basis_independence_check(
               dctx(name, Fraction(1, 2), deg)))]
    _report(7, "frame changes fix the Dirac element", not bad, str(bad))


def test_08_scasimir():
    bad = [name for name, deg in GRID_GROUPS
           if not report_passes(scasimir_check(
               dctx(name, Fraction(1, 2), deg)))]
    if not report_passes(scasimir_check(dctx("A1", 0, 3))):
        bad.append("A1 corner")
    _report(8, "odd companion identities", not bad, str(bad))


def test_09_vogan_witness():
    d = dctx("S3", Fraction(1, 2), 4)
    twists = {"zero": HatElement.zero(d.cover),
              "C2": build_C2(d.cover, d.family.param),
              "e1": jm_symmetric_elements(d.cover)["e1"]}
    bad = [name for name, tw in twists.items()
           if not report_passes(vogan_witness_check(d, tw, name=name))]
    _report(9, "lifted-center witness recursion, powers 1 and 2",
            not bad, str(bad))


def test_10_admissibility():
    """The distinguished twist is admissible for every group and its
    coordinate decomposition is exact.  Individual squared Jucys-Murphy
    elements are central only in rank <= 3; in rank 4 their first two
    elementary symmetric polynomials carry the centrality instead, and
    the suite pins both sides of that boundary."""
    bad = []
    for name, deg in GRID_GROUPS:
        d = dctx(name, Fraction(1, 2), deg)
        if not is_admissible(build_C2(d.cover, d.family.param))[0]:
            bad.append(f"{name} C2")
    for name in ("S3", "B2", "S4"):
        deg = dict(GRID_GROUPS)[name]
        if not report_passes(c2_decomposition_check(
                dctx(name, Fraction(1, 2), deg))):
            bad.append(f"{name} decomposition")
    s3 = dctx("S3", Fraction(1, 2), 4)
    for k, mk in enumerate(jm_elements(s3.cover)[1:], start=2):
        if not is_admissible(mk * mk)[0]:
            bad.append(f"S3 m{k}^2")
    s4 = dctx("S4", Fraction(1, 2), 2)
    sym = jm_symmetric_elements(s4.cover)
    if not (is_admissible(sym["e1"])[0] and is_admissible(sym["e2"])[0]):
        bad.append("S4 symmetric polynomials")
    if is_admissible(sym["squares"][2])[0]:
        bad.append("S4 m4^2 unexpectedly central")
    _report(10, "admissible elements and their decompositions", not bad,
            str(bad))


def test_11_harmonics_and_unitarity():
    bad = []
    for name, deg in GRID_GROUPS:
        d = dctx(name, Fraction(0), deg)
        dims = [harmonic_subspace(d.family, m).ncols
                for m in range(deg + 1)]
        want = [classical_harmonic_dim(d.n, m) for m in range(deg + 1)]
        if dims != want:
            bad.append(f"{name} harmonic dims {dims} != {want}")
    slices = [("S3", Fraction(0), 4, "trivial", (0, 1, 2)),
              ("S3", Fraction(1, 6), 4, "trivial", (0, 1, 2)),
              ("S3", Fraction(1, 6), 3, "sign", (0, 1)),
              ("B2", Fraction(0), 3, "reflection", (0, 1)),
              ("S4", Fraction(0), 2, "trivial", (0, 1))]
    for name, c, deg, tau, ms in slices:
        d = dctx(name, c, deg, tau)
        dop = build_dirac(d, HatElement.zero(d.cover), name="0")
        for m in ms:
            spec = unitarity_and_spectrum(dop, m)
            if spec["status"] != "ok":
                bad.append(f"{name}/{tau}/m={m} {spec['status']}")
                continue
            if not (spec["self_adjoint"] and spec["omega_matches_lambda"]
                    and spec["chi_plus_one_nonneg"]):
                bad.append(f"{name}/{tau}/m={m} structure")
            if not spec["square_is_casimir_plus_one"]:
                bad.append(f"{name}/{tau}/m={m} square identity")
            # the float drift of the squared spectrum from Casimir + 1,
            # relative to |Casimir + 1| once that exceeds 1
            chi1 = float(Fraction(spec["omega_scalar"]) + 1)
            drift = max(abs(s * s - chi1) for s in spec["spectrum"])
            if drift / max(1.0, abs(chi1)) > 1e-9:
                bad.append(f"{name}/{tau}/m={m} square drift")
            if any(s * s < -1e-9 for s in spec["spectrum"]):
                bad.append(f"{name}/{tau}/m={m} negative square")
    for c in (Fraction(0), Fraction(1, 6)):
        fam = dctx("S3", c, 4).family
        for m in range(4):
            if not is_positive_definite(contravariant_form(fam, m)):
                bad.append(f"S3 gram c={c} m={m}")
    d = dctx("S3", Fraction(1, 6), 4)
    dop = build_dirac(d, build_C2(d.cover, d.family.param), name="C2")
    if not unitarity_and_spectrum(dop, 1)["self_adjoint"]:
        bad.append("S3 twisted self-adjointness")
    _report(11, "harmonic dimensions, weights, positivity, spectra",
            not bad, str(bad))


def test_12_cohomology_and_search():
    bad = []
    d = dctx("S3", Fraction(1, 6), 4)
    twists = {"zero": HatElement.zero(d.cover),
              "C2": build_C2(d.cover, d.family.param)}
    for name, tw in twists.items():
        dop = build_dirac(d, tw, name=name)
        for m in (0, 1, 2):
            coh = dirac_cohomology(dop, m)
            if coh.dim_overlap != 0:
                bad.append(f"{name}/m={m} overlap {coh.dim_overlap}")
            cc = central_character_check(dop, m)
            if not report_passes(cc["records"]):
                bad.append(f"{name}/m={m} central character")
    for m in (1, 2):
        scale, sign, coh = nonzero_cohomology_search(d, m, twists["C2"],
                                                     "C2")
        if not (coh.dim_h > 0 and coh.exact):
            bad.append(f"search m={m} h={coh.dim_h} exact={coh.exact}")
    _report(12, "kernel cohomology and the rescaling search", not bad,
            str(bad))


def test_13_determinism(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text('{"group": "S3", "c": "1/2", "max_degree": 3}',
                    encoding="utf-8")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    ok = (cli.main(["verify", "--config", str(cfgp),
                    "--report", str(r1)]) == 0
          and cli.main(["verify", "--config", str(cfgp),
                        "--report", str(r2)]) == 0
          and r1.read_bytes() == r2.read_bytes())
    _report(13, "byte-identical verify reports", ok)
