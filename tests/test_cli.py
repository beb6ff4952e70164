"""Config parsing, suite orchestration, report determinism, and the CSV
verbs, end to end through the console entry point."""
import csv
import json

import pytest

from dunkldirac import cli, polyrep
from dunkldirac.cli import (
    ConfigError,
    load_config,
    resolve_element,
    run_table,
    run_verify,
)
from dunkldirac.cover import HatElement, build_C2
from dunkldirac.diracops import build_context


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"group": "S2", "c": "0", "max_degree": 3}
    cfg.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# -- config -----------------------------------------------------------------------


def test_config_defaults(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"group": "S3", "c": "1/2"}', encoding="utf-8")
    cfg = load_config(str(p))
    assert cfg["max_degree"] == 6
    assert cfg["tau"] == "trivial"
    assert cfg["backend"] == "exact"
    assert cfg["suites"] == list(cli.SUITES)


def test_config_orbit_dict(tmp_path):
    path = write_config(tmp_path, group="B2",
                        c={"short": "1/3", "long": "1/5"})
    cfg = load_config(path)
    assert cfg["param"].label() == "long=1/5;short=1/3"


def test_config_rejects_zero_denominator(tmp_path):
    with pytest.raises(ConfigError, match="not a rational"):
        load_config(write_config(tmp_path, c="1/0"))


def test_config_rejects_float_c_in_exact_mode(tmp_path):
    with pytest.raises(ConfigError, match="exact mode"):
        load_config(write_config(tmp_path, c=0.25))


def test_config_accepts_float_c_in_float64_mode(tmp_path):
    cfg = load_config(write_config(tmp_path, c=0.25, backend="float64"))
    assert cfg["param"].label() == "1/4"


@pytest.mark.parametrize("text", [
    '{"group": "S3", "c": Infinity, "backend": "float64"}',
    '{"group": "S3", "c": -Infinity, "backend": "float64"}',
    '{"group": "S3", "c": 1e400, "backend": "float64"}',
    '{"group": "S3", "c": {"all": 1e400}, "backend": "float64"}',
    '{"group": "S3", "c": NaN, "backend": "float64"}',
], ids=["infinity", "minus-infinity", "overflowing-literal",
        "overflowing-orbit-value", "nan"])
def test_non_finite_float_coupling_exits_two_with_one_line(tmp_path, capsys,
                                                           text):
    p = tmp_path / "c.json"
    p.write_text(text, encoding="utf-8")
    assert cli.main(["verify", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: c") and "not a rational" in err
    assert err.count("\n") == 1


def test_non_finite_sweep_values_become_error_rows(tmp_path):
    cfg = load_config(write_config(tmp_path, backend="float64"))
    rows = run_table(cfg, [{"m": 0, "C": "zero", "scale": float("inf")},
                           {"m": 0, "C": "zero", "c": float("-inf")},
                           {"m": 0, "C": "zero", "c": {"all": 1e400}},
                           {"m": 0, "C": "zero", "scale": 0.5}])
    for row, where in zip(rows, ("sweep scale", "sweep c", "sweep c[all]")):
        assert row["status"].startswith(f"error: {where}: not a rational")
    assert rows[3]["status"] == "ok"


def test_config_rejects_missing_group(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"c": "0"}', encoding="utf-8")
    with pytest.raises(ConfigError, match="group"):
        load_config(str(p))


def test_config_rejects_small_degree(tmp_path):
    with pytest.raises(ConfigError, match="max_degree"):
        load_config(write_config(tmp_path, max_degree=1))


def test_config_rejects_unknown_suite(tmp_path):
    with pytest.raises(ConfigError, match="suites"):
        load_config(write_config(tmp_path, suites=["rca", "nope"]))


def test_config_suite_order_is_canonical(tmp_path):
    cfg = load_config(write_config(tmp_path,
                                   suites=["dirac", "rca", "clifford"]))
    assert cfg["suites"] == ["rca", "clifford", "dirac"]


def test_config_custom_tau(tmp_path):
    # the one-dimensional sign representation given explicitly
    path = write_config(tmp_path, tau={
        "name": "sign-by-hand", "matrices": {"0": [["-1"]]}})
    cfg = load_config(path)
    assert cfg["tau"].name == "sign-by-hand"
    assert cfg["tau"].dim == 1


# -- element names ------------------------------------------------------------------


def test_resolve_named_elements(tmp_path):
    path = write_config(tmp_path, group="S3", c="1/2", max_degree=3,
                        elements={"unit": {"p": [[0, "1"]],
                                           "m": [[0, "1"]]}})
    cfg = load_config(path)
    d = build_context(cfg["rs"], cfg["param"], 3, "trivial")
    c2 = build_C2(d.cover, d.family.param)
    assert resolve_element(d, "zero", cfg["elements"]).is_zero()
    assert resolve_element(d, "0", cfg["elements"]).is_zero()
    assert resolve_element(d, "C2", cfg["elements"]) == c2
    assert resolve_element(d, "scale:3:C2", cfg["elements"]) == c2.scale(3)
    assert resolve_element(d, "scale:-1/2:zero", cfg["elements"]).is_zero()
    assert not resolve_element(d, "jm:e1", cfg["elements"]).is_zero()
    assert resolve_element(d, "unit", cfg["elements"]) \
        == HatElement.one(d.cover)
    with pytest.raises(ConfigError, match="unknown element"):
        resolve_element(d, "bogus", cfg["elements"])
    with pytest.raises(ConfigError, match="scale"):
        resolve_element(d, "scale:1/0:C2", cfg["elements"])


# -- verify -----------------------------------------------------------------------


def test_verify_full_run_passes(tmp_path):
    cfg = load_config(write_config(tmp_path))
    report, code = run_verify(cfg)
    assert code == 0
    summ = report["summary"]
    assert summ["fail"] == 0
    assert summ["records"] == summ["pass"] + summ["skipped"]
    per_suite = sum(len(s["records"]) for s in report["suites"])
    assert per_suite == summ["records"]
    assert [s["name"] for s in report["suites"]] == list(cli.SUITES)
    for s in report["suites"]:
        assert s["records"], s["name"]
        for r in s["records"]:
            assert r["wall_time"] is None


def test_verify_exit_one_on_failure(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path, suites=["rca"]))
    monkeypatch.setitem(cli._SUITE_FNS, "rca", lambda d, c: [
        {"check_id": "forced failure", "status": "fail",
         "witness": None, "wall_time": None}])
    report, code = run_verify(cfg)
    assert code == 1
    assert report["summary"]["fail"] == 1


def test_verify_reports_are_byte_identical(tmp_path):
    path = write_config(tmp_path)
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert cli.main(["verify", "--config", path,
                     "--report", str(r1)]) == 0
    assert cli.main(["verify", "--config", path,
                     "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_suite_subset_via_main(tmp_path, capsys):
    path = write_config(tmp_path, group="S3", c="1/2", max_degree=3)
    assert cli.main(["verify", "--config", path,
                     "--suite", "rca,clifford"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in report["suites"]] == ["rca", "clifford"]


def test_jucys_murphy_checks_follow_the_roots_not_the_name(tmp_path, capsys):
    # B2 roots under a name starting with S: no Jucys-Murphy records, and
    # no traceback from the vogan suite
    sneaky = {"roots": [[1, 0], [0, 1], [1, 1], [1, -1]], "name": "Sneaky"}
    path = write_config(tmp_path, group=sneaky, c="1/3", max_degree=2,
                        suites=["pincover", "vogan"])
    assert cli.main(["verify", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    ids = [r["check_id"] for s in report["suites"] for r in s["records"]]
    assert ids and not any("jucys" in i or "jm:" in i for i in ids)

    # the S3 roots as a custom system check exactly what S3 checks
    def outcomes(group):
        cfg = load_config(write_config(tmp_path, group=group, c="1/3",
                                       max_degree=2,
                                       suites=["pincover", "vogan"]))
        report, code = run_verify(cfg)
        assert code == 0
        return [(r["check_id"], r["status"])
                for s in report["suites"] for r in s["records"]]

    builtin = outcomes("S3")
    assert any("jucys" in i for i, _ in builtin)
    assert any("jm:e1" in i for i, _ in builtin)
    assert outcomes({"roots": [[1, -1, 0], [1, 0, -1], [0, 1, -1]]}) \
        == builtin


def test_verify_unknown_suite_is_usage_error(tmp_path, capsys):
    path = write_config(tmp_path)
    # an unknown name alone must be named, not reported as no selection
    for spec in ("foo", "rca,foo"):
        assert cli.main(["verify", "--config", path, "--suite", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown suites ['foo']")


def test_verify_empty_suite_selection_is_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, group="S3")
    assert cli.main(["verify", "--config", path, "--suite", ","]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: suites: ") and err.count("\n") == 1


def test_verify_bad_config_is_usage_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    assert cli.main(["verify", "--config", str(p)]) == 2
    assert cli.main(["verify", "--config", str(tmp_path / "absent.json")]) \
        == 2


@pytest.mark.parametrize("overrides, prefix", [
    ({"group": "S6"}, "error: "),
    ({"group": "S3", "tau": {"matrices": {"0": [["-1"]]}}}, "error: "),
    ({"group": "S3", "tau": "bogus"}, "error: "),
    ({"group": {"roots": [["1", "1", "1"]]}}, "error: "),
    ({"group": {"roots": []}},
     "error: group: roots must be a non-empty list of lists\n"),
    ({"group": {"name": "x"}},
     "error: group: roots must be a non-empty list of lists\n"),
    ({"group": {"roots": [[1, -1, 0], [0, 1, -1], [1, 0, -1], [1, -1, 0]]},
      "suites": ["pincover"]}, "error: "),
    ({"group": {"roots": [[1, -1, 0], [0, 1, -1], [1, 0, -1], [-1, 1, 0]]},
      "suites": ["pincover"]}, "error: "),
    # s_(1,0) sends (1, 1) to (-1, 1), which is not listed
    ({"group": {"roots": [[1, 0], [1, 1]]}}, "error: group: "),
    # S3 with one root negated: no linear form is positive on all three
    ({"group": {"roots": [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]}},
     "error: group: "),
    # JSON booleans are not root coordinates
    ({"group": {"roots": [[True, False], [False, True]]}},
     "error: group: "),
    # a root entry is p/q or p/q*sqrt2; the message quotes the whole entry
    ({"group": {"roots": [["i", "0"], ["0", "1"]]}},
     "error: group: not a rational: 'i'\n"),
    ({"group": {"roots": [["1+sqrt2", "0"], ["0", "1"]]}},
     "error: group: not a rational times sqrt2: '1+sqrt2'\n"),
    ({"group": {"roots": [["sqrt2*sqrt2"]]}},
     "error: group: not a rational times sqrt2: 'sqrt2*sqrt2'\n"),
    ({"group": {"roots": [["1", "0"], ["0", "0"]]}},
     "error: group: zero root\n"),
    # a verify run that would check nothing
    ({"group": "S3", "suites": []}, "error: suites: "),
    # every check would run on a zero-dimensional module
    ({"group": "S3", "tau": {"matrices": {"0": [], "2": []}}},
     "error: tau: "),
    # names are copied into reports and tables, so they must be strings
    ({"group": {"roots": [[1, -1, 0], [0, 1, -1], [1, 0, -1]],
                "name": ["x"]}}, "error: group: "),
    ({"group": "S3", "tau": {"matrices": {"0": [["-1"]], "2": [["-1"]]},
                             "name": 5}}, "error: tau: "),
    # the degree-0 Gram matrix is the form itself: it must be positive
    ({"group": "S3", "c": "1/3", "max_degree": 3,
      "tau": {"matrices": {"0": [[-1]], "2": [[-1]]}, "form": [[0]]}},
     "error: tau: form is not positive definite\n"),
    ({"group": "S3", "c": "1/3", "max_degree": 3,
      "tau": {"matrices": {"0": [[-1]], "2": [[-1]]}, "form": [[-1]]}},
     "error: tau: form is not positive definite\n"),
    # the refusal names the mistake rather than a failed int() or product
    ({"group": "S3", "tau": {"matrices": {"x": [["-1"]]}}},
     "error: tau: matrix keys are simple-root indices [0, 2], got 'x'\n"),
    ({"group": "S3", "tau": {"matrices": {"0": [["-1"]],
                                          "2": [["-1", "0"], ["0", "1"]]}}},
     "error: tau: matrix 2 is 2 x 2, expected 1 x 1 (tau's dimension, the "
     "rows of matrix 0)\n"),
    ({"group": "S3", "tau": {"matrices": {"0": [["-1"]], "2": [["-1"]]},
                             "form": [["1", "0"], ["0", "1"]]}},
     "error: tau: form is 2 x 2, expected 1 x 1 (tau's dimension, the rows "
     "of matrix 0)\n"),
    ({"group": "S3", "tau": {"matrices": {"0": 5, "2": [["-1"]]}}},
     "error: tau: matrix 0 must be a list of rows, got int\n"),
    ({"group": "S3", "tau": {"matrices": {"0": [["-1"]], "2": [["-1"]]},
                             "form": 5}},
     "error: tau: form must be a list of rows, got int\n"),
    ({"group": "S3", "tau": {"matrices": {"0": ["-1"], "2": [["-1"]]}}},
     "error: tau: matrix 0 must be a list of rows, got a row of type str\n"),
    # every element is parsed on loading, whether or not a verb reads it
    ({"group": "S3", "elements": {"X": 5}},
     "error: elements[X]: expected a map of part name -> term list\n"),
    ({"group": "S3", "elements": {"far": {"m": [[99, "1"]]}}},
     "error: elements[far].m: group index 99 is not an integer in 0..5\n"),
    ({"group": "S3", "elements": {"typo": {"mm": [[0, "1"]]}}},
     "error: elements[typo]: unknown part 'mm'; parts are p, m, gp and "
     "gm\n"),
    # an empty or blank name is an unknown one, not an index error
    ({"group": ""}, "error: group: unknown root system ''\n"),
    ({"group": "  "}, "error: group: unknown root system ''\n"),
], ids=["order-above-bound", "tau-missing-simple-root", "tau-unknown-name",
        "coroot-norm-outside-field", "no-roots", "roots-missing",
        "repeated-root", "opposite-root", "roots-not-closed",
        "not-a-positive-system", "root-entry-boolean",
        "root-entry-imaginary", "root-entry-sum", "root-entry-sqrt2-squared",
        "zero-root",
        "empty-suites", "tau-zero-dimensional", "group-name-not-a-string",
        "tau-name-not-a-string", "tau-form-zero", "tau-form-negative",
        "tau-key-not-an-index",
        "tau-matrix-size-differs", "tau-form-size-differs",
        "tau-matrix-not-rows", "tau-form-not-rows", "tau-row-not-a-list",
        "element-not-a-map", "element-index-out-of-range",
        "element-misspelled-part", "group-name-empty", "group-name-blank"])
def test_unusable_config_exits_two_with_one_line(tmp_path, capsys,
                                                 overrides, prefix):
    path = write_config(tmp_path, **overrides)
    assert cli.main(["verify", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("c", [
    "1e-400", f"{10 ** 331 + 1}/{10 ** 331}", "1e300"],
    ids=["tiny", "near-one", "casimir-past-float-range"])
def test_couplings_with_components_past_float_range_verify(tmp_path, c):
    # exact values whose numerators or denominators have no float, and at
    # c = 1e300 a Casimir scalar near 10^600 that has none either: verify
    # reads no float, so every check runs and passes
    path = write_config(tmp_path, c=c, suites=["cohomology"])
    report_path = tmp_path / "r.json"
    assert cli.main(["verify", "--config", path,
                     "--report", str(report_path)]) == 0
    summary = json.loads(report_path.read_text(encoding="utf-8"))["summary"]
    assert summary["records"] == summary["pass"] > 0


def test_casimir_weight_record_fails_when_lambda_is_off_by_one(
        tmp_path, monkeypatch):
    """S3 at c = 1/6, where both unitary slices (lambda = 2 and 3) pass
    "self-adjoint with the predicted Casimir weight"; with h_scalar one
    too large the Casimir scalar no longer equals lambda(lambda - 2), so
    every such record fails and its witness shows the shifted lambda."""
    from dunkldirac.angmom import AmaContext
    from dunkldirac.scalars import ONE
    cfg = load_config(write_config(tmp_path, group="S3", c="1/6",
                                   max_degree=3, suites=["cohomology"]))
    check = "self-adjoint with the predicted Casimir weight"

    def weight_records():
        report, _ = run_verify(cfg)
        return [r for r in report["suites"][0]["records"]
                if r["check_id"].startswith(check)]
    clean = weight_records()
    assert len(clean) == 4 and all(r["status"] == "pass" for r in clean)
    h_scalar = AmaContext.h_scalar
    monkeypatch.setattr(AmaContext, "h_scalar",
                        lambda self, m: h_scalar(self, m) + ONE)
    shifted = weight_records()
    assert [r["check_id"] for r in shifted] == [r["check_id"] for r in clean]
    assert all(r["status"] == "fail" for r in shifted)
    assert sorted({r["witness"]["lambda"] for r in shifted}) == ["3", "4"]


def test_reducible_tau_skips_cohomology(tmp_path):
    # the ambient action of S3 on R^3 contains the trivial summand, so no
    # single weight exists and the suite must say so rather than fail
    cfg = load_config(write_config(tmp_path, group="S3", c="1/2",
                                   max_degree=3, tau="reflection",
                                   suites=["cohomology"]))
    report, code = run_verify(cfg)
    assert code == 0
    recs = report["suites"][0]["records"]
    assert len(recs) == 1 and recs[0]["status"] == "skipped"


# -- table ------------------------------------------------------------------------


def test_table_spec_grid(tmp_path):
    """S3 trivial sweep over m in {0,1,2}, c in {0, 1/6}, twists zero and
    C2: 12 rows; lambda = m + 3/2 + 3c throughout, so the (1/6, 1) row
    shows 3 and the (0, 0) row shows the boundary value chi = -3/4."""
    path = write_config(tmp_path, group="S3", c="0", max_degree=4)
    points = [{"c": c, "m": m, "C": C}
              for c in ("0", "1/6") for m in (0, 1, 2)
              for C in ("zero", "C2")]
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(points), encoding="utf-8")
    out = tmp_path / "t.csv"
    assert cli.main(["table", "--config", path, "--sweep", str(sweep),
                     "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert len(rows) == 12
    assert all(r["status"] == "ok" for r in rows)
    by = {(r["c"], r["m"], r["C_name"]): r for r in rows}
    assert by[("1/6", "1", "C2")]["lambda"] == "3"
    assert by[("1/6", "1", "C2")]["chi"] == "3"
    assert by[("0", "0", "zero")]["chi"] == "-3/4"
    assert all(r["unitary_flag"] == "1" for r in rows)


def test_table_boundary_row_on_the_plane(tmp_path):
    # n = 2 at zero coupling: lambda = 1 on degree 0, the chi = -1 boundary
    path = write_config(tmp_path)
    sweep = tmp_path / "sweep.json"
    sweep.write_text('[{"m": 0, "C": "zero"}]', encoding="utf-8")
    out = tmp_path / "t.csv"
    assert cli.main(["table", "--config", path, "--sweep", str(sweep),
                     "--out", str(out)]) == 0
    row = read_csv(str(out))[0]
    assert row["lambda"] == "1" and row["chi"] == "-1"
    assert row["dim_X"] == "1"
    assert row["omega_scalar"] == "-1"


def test_table_bad_points_become_rows(tmp_path):
    # a float scale in exact mode, a boolean degree and a custom element
    # that S3's cover cannot build each give an error row; the sweep goes
    # on around them.  A malformed element never gets this far: load_config
    # refuses it (see test_unusable_config_exits_two_with_one_line)
    cfg = load_config(write_config(
        tmp_path, group="S3", c="1/2", max_degree=3,
        elements={"g-part": {"gp": [[0, "1"]]},
                  "not-admissible": {"p": [[1, "1"]]}}))
    rows = run_table(cfg, [{"m": 0, "C": "zero", "scale": 0.1},
                           {"m": True, "C": "zero"},
                           {"m": 1, "C": "g-part"},
                           {"m": 1, "C": "C2"},
                           {"m": 1, "C": 5},
                           {"m": 1, "C": None},
                           {"m": 1, "C": "not-admissible"},
                           {"C": "zero"},
                           "not a point",
                           {"m": 1, "c": "1/0"},
                           {"m": 0, "C": "zero", "c": "1e300"}])
    assert len(rows) == 11
    assert "exact mode" in rows[0]["status"]
    assert "degree True" in rows[1]["status"]
    assert "elements[g-part]: g-extension only exists" in rows[2]["status"]
    assert all(r["status"].startswith("error:") for r in rows[:3])
    assert rows[3]["status"] == "ok" and rows[3]["dim_X"] == 3
    # a non-string element name and an element that is not admissible
    assert "element 5 " in rows[4]["status"]
    assert "element None " in rows[5]["status"]
    assert "admissible" in rows[6]["status"]
    # a point without a degree, a point that is not an object, a bad c
    assert "degree None is not" in rows[7]["status"]
    assert "must be an object" in rows[8]["status"]
    assert "sweep c" in rows[9]["status"]
    assert all(r["status"].startswith("error:") for r in rows[4:10])
    # a Casimir scalar past float range: the table reads no float
    assert rows[10]["status"] == "ok"
    assert all(r["group"] == "S3" and r["tau"] == "trivial" for r in rows)


@pytest.mark.parametrize("group", ["S2", "S3"])
def test_table_rows_at_huge_couplings_are_ok(tmp_path, group):
    """Degrees 0-3 of the zero twist and C2 at c = 1e20, 1e152 and 1e300.
    At 1e20 a float Gram matrix would be singular, at 1e152 a float
    operator would have entries above 2^500, and at 1e300 the Casimir
    scalar is past float range; the table reads only exact values, so
    every row is ok."""
    cfg = load_config(write_config(tmp_path, group=group, c="1/2"))
    points = [{"m": m, "C": name, "c": c} for c in ("1e20", "1e152", "1e300")
              for m in range(4) for name in ("zero", "C2")]
    rows = run_table(cfg, points)
    assert len(rows) == len(points)
    for point, row in zip(points, rows):
        assert row["status"] == "ok", (point, row["status"])


def test_table_builds_one_context_per_coupling(tmp_path, monkeypatch):
    # a point without c and a point naming the config's own c share one
    # context; a different c gets its own
    cfg = load_config(write_config(tmp_path, group="S2", c="1/2"))
    built = []

    def counting_build(*args):
        built.append(args[1].label())
        return build_context(*args)

    monkeypatch.setattr(cli, "build_context", counting_build)
    rows = run_table(cfg, [{"m": 1}, {"m": 1, "c": "1/2"},
                           {"m": 1, "c": "1/3"}])
    assert built == ["1/2", "1/3"]
    assert all(r["status"] == "ok" for r in rows)
    assert rows[0] == rows[1]


def test_table_computes_each_harmonic_basis_once(tmp_path, monkeypatch):
    # two points on one slice: the row, the spectrum and the cohomology of
    # each read the same Laplacian kernel
    cfg = load_config(write_config(tmp_path, group="S3", c="1/3"))
    kernels = []

    def counting_kernel(mat):
        kernels.append(mat.shape)
        return real_kernel(mat)

    real_kernel = polyrep.kernel
    monkeypatch.setattr(polyrep, "kernel", counting_kernel)
    rows = run_table(cfg, [{"m": 2, "C": "zero"}, {"m": 2, "C": "C2"}])
    assert all(r["status"] == "ok" for r in rows)
    assert len(kernels) == 1


def test_table_failures_become_rows(tmp_path):
    cfg = load_config(write_config(tmp_path))
    rows = run_table(cfg, [{"m": 99, "C": "zero"},
                           {"m": 0, "C": "bogus"},
                           "not a point",
                           {"m": 0, "C": "zero", "c": "1/0"}])
    assert len(rows) == 4
    assert all(r["status"].startswith("error:") for r in rows)
    # a sweep never aborts: a good point after bad ones still computes
    rows = run_table(cfg, [{"m": 99, "C": "zero"}, {"m": 0, "C": "zero"}])
    assert rows[1]["status"] == "ok"


# -- spectrum ---------------------------------------------------------------------


def test_spectrum_boundary_slice(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "s.csv"
    assert cli.main(["spectrum", "--config", path, "--m", "0",
                     "--C", "zero", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert len(rows) == 2
    assert all(abs(float(r["eigenvalue"])) < 1e-9 for r in rows)
    assert all(r["status"] == "ok" for r in rows)


def test_spectrum_past_float_range_exits_two_with_one_line(tmp_path,
                                                          capsys):
    # at c = 1e400 the eigenvalues on degree 1 are +-(1e400 + 1): no float
    # holds them, so the report cannot be written
    path = write_config(tmp_path, c="1e400")
    out = tmp_path / "s.csv"
    assert cli.main(["spectrum", "--config", path, "--m", "1",
                     "--C", "zero", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "past float range" in err


def test_spectrum_skips_non_unitary_slice(tmp_path):
    path = write_config(tmp_path, c="-2")
    out = tmp_path / "s.csv"
    assert cli.main(["spectrum", "--config", path, "--m", "1",
                     "--C", "zero", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert len(rows) == 1
    assert rows[0]["status"] == "non-unitary, skipped"
    assert rows[0]["eigenvalue"] == ""


@pytest.mark.parametrize("spec", [
    {"p": [[1, "1"]]},
    {"m": [[99, "1"]]},
    {"m": [["a", "1"]]},
    {"m": [[True, "1"]]},
    [[1, "1"]],
    {"mm": [[0, "1"]]},
], ids=["not-admissible", "index-out-of-range", "index-not-integer",
        "index-boolean", "spec-not-a-map", "misspelled-part"])
def test_spectrum_bad_element_exits_two_with_one_line(tmp_path, capsys,
                                                      spec):
    path = write_config(tmp_path, group="S3", c="1/2",
                        elements={"bad": spec})
    assert cli.main(["spectrum", "--config", path, "--m", "1",
                     "--C", "bad", "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_required_argument_is_usage_error():
    assert cli.main(["verify"]) == 2


def test_z3_and_jucys_murphy_are_built_once_unless_building_raises(
        tmp_path, monkeypatch):
    """Z3 is cached on the context and the Jucys-Murphy elements on its
    cover, so any number of reads builds each once.  A build that raises
    stores nothing: the pincover suite records the error text, and a
    later reader gets the same error from a second build."""
    from dunkldirac import cover, diracops
    dctx = cli._build(load_config(write_config(tmp_path, group="S3",
                                               c="1/3")))
    builds = []

    def failing(name, message):
        def build(*args):
            builds.append(name)
            raise RuntimeError(message)
        return build

    monkeypatch.setattr(diracops, "build_Z3",
                        failing("Z3", "Z3 is not central in the group"))
    monkeypatch.setattr(cover, "jm_elements",
                        failing("jm", "element 2 is not star-negated"))
    records = {r["check_id"]: r for r in cli._suite_pincover(dctx, {})}
    assert records["central cubic term validates"]["witness"] == {
        "error": "Z3 is not central in the group"}
    assert records["jucys-murphy sign conventions validate"]["witness"] \
        == {"error": "element 2 is not star-negated"}
    with pytest.raises(RuntimeError, match="not central"):
        diracops.c2_decomposition_check(dctx)
    with pytest.raises(RuntimeError, match="star-negated"):
        cover.jm_symmetric_elements(dctx.cover)
    assert builds == ["Z3", "jm", "Z3", "jm"]
    monkeypatch.undo()
    assert dctx.z3 is dctx.z3 and dctx.cover.jm is dctx.cover.jm
    assert all(r["status"] == "pass" for r in cli._suite_pincover(dctx, {}))
