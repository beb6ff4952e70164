"""Command line front end: configuration, suite orchestration, reports.

Three verbs.  `verify` runs the identity suites listed in the config (or
a --suite subset) and emits a JSON report; `table` sweeps exact kernel
and Casimir data over (c, degree, element, scale) points into CSV;
`spectrum` writes the float eigenvalues of one twisted operator on one
slice, the only float output.  Exit codes: 0 clean, 1 at least one failed check, 2 unusable
input.

Reports carry no timestamps and are serialized with sorted keys, so the
same config yields byte-identical output; wall_time is recorded as null
for the same reason.  Tables are UTF-8 CSV with a mandatory header row.
"""
import argparse
import csv
import json
import sys
from fractions import Fraction

from .angmom import (
    ama_relations_check,
    casimir_centrality_check,
    centralizer_check,
    msquared_identities_check,
)
from .clifford import anticommutator_check, monomial_product_check
from .cover import HatElement, is_admissible, jm_symmetric_elements
from .diracops import (
    basis_independence_check,
    build_context,
    build_dirac,
    c2_decomposition_check,
    dirac_cohomology,
    dirac_square_check,
    rho_invariance_check,
    scasimir_check,
    unitarity,
    unitarity_and_spectrum,
    vogan_witness_check,
)
from .linalg import Matrix
from .polyrep import (_check_record, builtin_rep, custom_rep,
                      rca_relation_check)
from .roots import ParamFunction, root_system
from .scalars import rat

SUITES = ("rca", "ama", "clifford", "pincover", "dirac", "scasimir",
          "vogan", "cohomology")

NAMED_ELEMENTS = ("zero", "C2", "jm:e1", "jm:e2")


class ConfigError(Exception):
    """Unusable configuration or command line input; maps to exit 2."""


# -- config parsing ----------------------------------------------------------------


def _fraction(value, where: str, allow_float: bool) -> Fraction:
    try:
        if isinstance(value, bool):
            raise ConfigError(f"{where}: booleans are not numbers")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            if not allow_float:
                raise ConfigError(
                    f"{where}: numeric floats are rejected in exact mode; "
                    "write the value as a rational string")
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value.strip())
    except ConfigError:
        raise
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # NaN raises ValueError, an infinity (JSON Infinity or 1e400)
        # OverflowError
        raise ConfigError(f"{where}: not a rational: {value!r} ({exc})")
    raise ConfigError(f"{where}: expected a rational string, got "
                      f"{type(value).__name__}")


def _coupling(spec, where: str, allow_float: bool):
    """A coupling: one rational, or a map orbit name -> rational."""
    if isinstance(spec, dict):
        return {k: _fraction(v, f"{where}[{k}]", allow_float)
                for k, v in spec.items()}
    return _fraction(spec, where, allow_float)


def _tau_matrix(rows, what: str) -> Matrix:
    """The custom-tau matrix `what` (matrix <key> or form) from its
    config entry, a list of rows of rationals."""
    if not isinstance(rows, list):
        got = type(rows).__name__
    else:
        got = next((f"a row of type {type(row).__name__}" for row in rows
                    if not isinstance(row, list)), None)
    if got is not None:
        raise ConfigError(f"tau: {what} must be a list of rows, got {got}")
    return Matrix.from_rows([[rat(_fraction(v, f"tau {what}", False))
                              for v in row] for row in rows])


def _parse_tau(spec, group):
    if isinstance(spec, str):
        builtin_rep(group, spec)  # rejects an unknown name up front
        return spec
    if isinstance(spec, dict):
        mats = spec.get("matrices")
        if not isinstance(mats, dict):
            raise ConfigError("tau: custom spec needs a 'matrices' map "
                              "over simple-root indices")
        simple = {}
        for key, rows in mats.items():
            try:
                idx = int(key)
            except ValueError:
                raise ConfigError(
                    f"tau: matrix keys are simple-root indices "
                    f"{group.rs.simple_root_indices()}, got {key!r}")
            simple[idx] = _tau_matrix(rows, f"matrix {key}")
        form = None
        if "form" in spec:
            form = _tau_matrix(spec["form"], "form")
        name = spec.get("name", "custom")
        if not isinstance(name, str):
            raise ConfigError(f"tau: name must be a string, got {name!r}")
        return custom_rep(group, simple, form=form, name=name)
    raise ConfigError("tau: expected a name or a matrices spec")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not well-formed JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")

    backend = raw.get("backend", "exact")
    if backend not in ("exact", "float64"):
        raise ConfigError(f"backend: unknown value {backend!r}")
    allow_float = backend == "float64"

    group_spec = raw.get("group")
    if group_spec is None:
        raise ConfigError("config needs a 'group'")
    try:
        rs = root_system(group_spec)
        group = rs.group()
        rs.coroot_norms  # the pin cover divides by every coroot length
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ConfigError(f"group: {exc}")

    c_val = _coupling(raw.get("c", "0"), "c", allow_float)
    try:
        param = ParamFunction.from_config(c_val, rs)
    except ValueError as exc:
        raise ConfigError(f"c: {exc}")

    max_degree = raw.get("max_degree", 6)
    if not isinstance(max_degree, int) or max_degree < 2:
        raise ConfigError("max_degree must be an integer >= 2")

    try:
        tau = _parse_tau(raw.get("tau", "trivial"), group)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"tau: {exc}")

    suites = raw.get("suites", "all")
    if suites == "all":
        suites = list(SUITES)
    if not isinstance(suites, list) or \
            any(s not in SUITES for s in suites):
        raise ConfigError(f"suites: expected 'all' or a subset of "
                          f"{list(SUITES)}")
    # dependency order is fixed regardless of how the config lists them
    suites = [s for s in SUITES if s in suites]

    elements = raw.get("elements", {})
    if not isinstance(elements, dict):
        raise ConfigError("elements: expected a map of name -> part lists")
    # every entry is parsed here, read by a verb or not
    elements = {name: _element_parts(spec, name, group.order)
                for name, spec in elements.items()}

    return {"rs": rs, "param": param, "tau": tau, "max_degree": max_degree,
            "backend": backend, "suites": suites, "elements": elements,
            "allow_float": allow_float}


ELEMENT_PARTS = ("p", "m", "gp", "gm")


def _element_parts(spec, name: str, order: int) -> dict:
    """The {part: {group index: rational}} maps of the config element
    `name`, for a group of the given order; `resolve_element` builds the
    element from them on the cover."""
    if not isinstance(spec, dict):
        raise ConfigError(f"elements[{name}]: expected a map of part name "
                          "-> term list")
    unknown = sorted(set(spec) - set(ELEMENT_PARTS))
    if unknown:
        raise ConfigError(f"elements[{name}]: unknown part {unknown[0]!r}; "
                          "parts are p, m, gp and gm")
    parts = {}
    for key in ELEMENT_PARTS:
        terms = spec.get(key, [])
        if not isinstance(terms, list):
            raise ConfigError(f"elements[{name}].{key}: expected a list of "
                              "[group index, rational] terms")
        coeffs = {}
        for entry in terms:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ConfigError(f"elements[{name}].{key}: each term is "
                                  "[group index, rational]")
            idx, val = entry
            if isinstance(idx, bool) or not isinstance(idx, int) \
                    or not 0 <= idx < order:
                raise ConfigError(f"elements[{name}].{key}: group index "
                                  f"{idx!r} is not an integer in "
                                  f"0..{order - 1}")
            coeffs[idx] = rat(_fraction(val, f"elements[{name}]", False))
        parts[key] = coeffs
    return parts


def resolve_element(dctx, name: str, custom: dict) -> HatElement:
    """Twist elements by name: zero, C2, jm:e1, jm:e2, scale:<r>:<name>,
    or a name of the config's elements map, whose parts `load_config` has
    parsed and the cover builds into an element here."""
    if name in ("zero", "0"):
        return HatElement.zero(dctx.cover)
    if name == "C2":
        return dctx.c2
    if name in ("jm:e1", "jm:e2"):
        try:
            return jm_symmetric_elements(dctx.cover)[name.split(":")[1]]
        except ValueError as exc:
            raise ConfigError(f"element {name}: {exc}")
    if name.startswith("scale:"):
        parts = name.split(":", 2)
        if len(parts) != 3:
            raise ConfigError(f"element {name!r}: expected "
                              "scale:<rational>:<name>")
        # a float scale is accepted here and converted exactly
        base = resolve_element(dctx, parts[2], custom)
        try:
            r = Fraction(parts[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"element {name!r}: bad scale ({exc})")
        return base.scale(rat(r))
    if name in custom:
        try:
            return HatElement(dctx.cover, **custom[name])
        except ValueError as exc:
            raise ConfigError(f"elements[{name}]: {exc}")
    raise ConfigError(f"unknown element {name!r}; named elements are "
                      f"{list(NAMED_ELEMENTS)} plus the config's own")


def _tagged(records, context: str) -> list:
    """The records with a context tag appended to each check id."""
    return [{**r, "check_id": f"{r['check_id']} [{context}]"}
            for r in records]


# -- suites -------------------------------------------------------------------------


def _suite_rca(dctx, cfg) -> list:
    rep = rca_relation_check(dctx.family)
    out = [_check_record(f"rca relation {f['relation']} fails", False,
                         {k: f[k] for k in ("degree", "entry", "lhs", "rhs")})
           for f in rep["failures"]]
    out.append(_check_record(f"defining relations ({rep['checks']} block "
                             "identities)", rep["pass"]))
    return out


def _suite_ama(dctx, cfg) -> list:
    ama = dctx.ama
    recs = []
    recs += ama_relations_check(ama)
    recs += msquared_identities_check(ama)
    recs += casimir_centrality_check(ama)
    recs += centralizer_check(ama)
    return recs


def _suite_clifford(dctx, cfg) -> list:
    """The generators anticommute, their spinor images are Hermitian, and
    sigma(c_a) sigma(c_b) = sigma(c_a c_b) for every pair of blades c_a,
    c_b, all 4^n pairs decided from one stacked product of the 2^n blade
    images (`clifford.monomial_product_check`)."""
    n = dctx.n
    out = [_check_record("generator anticommutation relations",
                         anticommutator_check(n))]
    images = dctx.spin.blade_images
    herm = all(images[1 << i].dagger() == images[1 << i] for i in range(n))
    out.append(_check_record("spinor images of the generators are Hermitian",
                             herm))
    out.append(_check_record("spinor representation respects every "
                             "monomial product",
                             monomial_product_check(images)))
    return out


def _suite_pincover(dctx, cfg) -> list:
    cov = dctx.cover

    def validates(check_id, build):
        try:
            build()
        except (RuntimeError, ValueError) as exc:
            return _check_record(check_id, False, {"error": str(exc)})
        return _check_record(check_id, True)

    out = [
        _check_record("lift projection property", cov.projection_check()),
        _check_record("conjugation signs on reflection lifts",
                      cov.conjugation_sign_check()),
        _check_record("braid signs between simple lifts",
                      cov.braid_sign_check()),
        _check_record("cocycle 2-cocycle identity (full scan)",
                      cov.cocycle_identity_check()),
    ]
    ok, failures = is_admissible(dctx.c2)
    out.append(_check_record("distinguished twist is admissible", ok,
                             None if ok else {"reasons": failures}))
    # z3 and jm are built, and so validated, on first read
    out.append(validates("central cubic term validates", lambda: dctx.z3))
    if dctx.rs.has_transposition_roots():
        out.append(validates("jucys-murphy sign conventions validate",
                             lambda: cov.jm))
    if cov.has_g():
        out.append(_check_record("extended cover branch (central point "
                                 "reflection present)", True))
    return out


def _suite_dirac(dctx, cfg) -> list:
    out = dirac_square_check(dctx)
    out += basis_independence_check(dctx)
    out += c2_decomposition_check(dctx)
    out += rho_invariance_check(build_dirac(dctx, dctx.c2, name="C2"))
    return out


def _suite_vogan(dctx, cfg) -> list:
    twists = [("zero", HatElement.zero(dctx.cover)),
              ("C2", dctx.c2)]
    if dctx.rs.has_transposition_roots():
        twists.append(("jm:e1", jm_symmetric_elements(dctx.cover)["e1"]))
    out = []
    for name, tw in twists:
        out += _tagged(vogan_witness_check(dctx, tw),
                       context=f"twist {name}")
    return out


def _suite_cohomology(dctx, cfg) -> list:
    from .diracops import central_character_check
    out = []
    if dctx.ama.tau_shift_scalar() is None:
        return [_check_record("cohomology suite needs a scalar central "
                              "character on tau", True,
                              {"reason": "tau is reducible; slices carry "
                                         "no single weight"},
                              status="skipped")]
    degrees = range(0, max(dctx.family.max_degree - 1, 1))
    for el_name in ("zero", "C2"):
        tw = resolve_element(dctx, el_name, cfg["elements"])
        dop = build_dirac(dctx, tw, name=el_name)
        for m in degrees:
            ctx_tag = f"deg {m}, twist {el_name}"
            spec = unitarity(dop, m)
            if not spec["unitary"]:
                out.append(_check_record(f"slice data [{ctx_tag}]", True,
                                         {"reason": spec["status"]},
                                         status="skipped"))
                continue
            ok = bool(spec["self_adjoint"] and spec["omega_matches_lambda"]
                      and spec["chi_plus_one_nonneg"])
            ok = ok and spec.get("square_is_casimir_plus_one", True)
            out.append(_check_record(
                f"self-adjoint with the predicted Casimir weight [{ctx_tag}]",
                ok, None if ok else {"self_adjoint": spec["self_adjoint"],
                                     "omega": spec["omega_scalar"],
                                     "lambda": spec["lambda"]}))
            cc = central_character_check(dop, m)
            coh = cc["cohomology"]
            out.append(_check_record(
                f"kernel meets image trivially [{ctx_tag}]",
                coh.dim_overlap == 0,
                None if coh.dim_overlap == 0 else
                {"dim_ker": coh.dim_ker, "dim_overlap": coh.dim_overlap}))
            out += _tagged(cc["records"], context=ctx_tag)
    return out


_SUITE_FNS = {"rca": _suite_rca, "ama": _suite_ama,
              "clifford": _suite_clifford, "pincover": _suite_pincover,
              "dirac": _suite_dirac,
              # every suite takes (dctx, cfg); this check needs dctx alone
              "scasimir": lambda dctx, cfg: scasimir_check(dctx),
              "vogan": _suite_vogan, "cohomology": _suite_cohomology}


# -- verbs --------------------------------------------------------------------------


def _build(cfg):
    return build_context(cfg["rs"], cfg["param"], cfg["max_degree"],
                         cfg["tau"])


def _config_echo(cfg) -> dict:
    tau = cfg["tau"]
    return {"group": cfg["rs"].name, "c": cfg["param"].label(),
            "tau": tau if isinstance(tau, str) else tau.name,
            "max_degree": cfg["max_degree"], "backend": cfg["backend"],
            "suites": cfg["suites"]}


def run_verify(cfg, suites=None) -> tuple:
    """Run the requested suites; returns (report dict, exit code)."""
    unknown = set(suites or ()) - set(SUITES)
    if unknown:
        raise ConfigError(f"unknown suites {sorted(unknown)}")
    chosen = cfg["suites"] if suites is None else \
        [s for s in SUITES if s in suites]
    if not chosen:
        raise ConfigError(f"suites: empty selection; name at least one of "
                          f"{list(SUITES)}")
    dctx = _build(cfg)
    suite_reports = []
    totals = {"pass": 0, "fail": 0, "skipped": 0}
    for name in chosen:
        records = _SUITE_FNS[name](dctx, cfg)
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for r in records:
            r["wall_time"] = None
            counts[r["status"]] += 1
            totals[r["status"]] += 1
        suite_reports.append({"name": name, "records": records,
                              "summary": counts})
    report = {"config": _config_echo(cfg),
              "suites": suite_reports,
              "summary": {"records": sum(totals.values()), **totals,
                          "suites": [s["name"] for s in suite_reports]}}
    return report, (1 if totals["fail"] else 0)


def _report_bytes(report) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


TABLE_COLUMNS = ["group", "c", "tau", "m", "dim_X", "C_name", "scale",
                 "dim_ker", "dim_H", "omega_scalar", "lambda", "chi",
                 "unitary_flag", "status"]


def _blank_row(cfg, status: str) -> dict:
    """A table row with only the group, tau and status filled in."""
    row = {k: "" for k in TABLE_COLUMNS}
    row.update({"group": cfg["rs"].name, "tau": _config_echo(cfg)["tau"],
                "status": status})
    return row


def _table_row(cfg, dctx, point) -> dict:
    row = _blank_row(cfg, "ok")
    try:
        m = point.get("m")
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            raise ConfigError(f"sweep point degree {m!r} is not a "
                              "nonnegative integer")
        if m > dctx.family.max_degree:
            raise ConfigError(f"sweep degree {m} beyond truncation "
                              f"{dctx.family.max_degree}")
        name = point.get("C", "zero")
        if not isinstance(name, str):
            raise ConfigError(f"sweep point element {name!r} is not a name")
        row["m"] = m
        row["C_name"] = name
        scale_spec = point.get("scale")
        scale = Fraction(1) if scale_spec is None else \
            _fraction(scale_spec, "sweep scale", cfg["allow_float"])
        row["scale"] = str(scale)
        row["c"] = dctx.family.param.label()
        tw = resolve_element(dctx, name, cfg["elements"])
        if scale != 1:
            tw = tw.scale(rat(scale))
        dop = build_dirac(dctx, tw, name=name)
        sl = dctx.slices[m]
        row["dim_X"] = sl.basis.ncols
        lam = dctx.ama.h_scalar(m)
        if lam is not None:
            row["lambda"] = str(lam)
            row["chi"] = str(lam * (lam - rat(2)))
        if sl.form is not None:
            row["omega_scalar"] = str(sl.scalar_omega())
        row["unitary_flag"] = 0 if sl.form is None else 1
        coh = dirac_cohomology(dop, m)
        row["dim_ker"] = coh.dim_ker
        row["dim_H"] = coh.dim_h
        if coh.omega_scalar is not None and not row["omega_scalar"]:
            row["omega_scalar"] = str(coh.omega_scalar)
    except KeyError as exc:
        row["status"] = f"error: degree {exc} outside the computed window"
    except (ConfigError, ValueError, RuntimeError) as exc:
        row["status"] = f"error: {exc}"
    return row


def run_table(cfg, sweep_points) -> list:
    """One row per sweep point; failures land in the status column."""
    rows = []
    cache: dict = {}
    for point in sweep_points:
        if not isinstance(point, dict):
            rows.append(_blank_row(cfg,
                                   "error: sweep point must be an object"))
            continue
        c_spec = point.get("c", None)
        try:
            param = cfg["param"]
            if c_spec is not None:
                c_val = _coupling(c_spec, "sweep c", cfg["allow_float"])
                param = ParamFunction.from_config(c_val, cfg["rs"])
            # one context per coupling, whether the config or the point
            # names it
            dctx = cache.get(param.label())
            if dctx is None:
                dctx = cache[param.label()] = build_context(
                    cfg["rs"], param, cfg["max_degree"], cfg["tau"])
        except (ConfigError, ValueError) as exc:
            rows.append(_blank_row(cfg, f"error: {exc}"))
            continue
        rows.append(_table_row(cfg, dctx, point))
    return rows


def run_spectrum(cfg, m: int, name: str) -> list:
    dctx = _build(cfg)
    tw = resolve_element(dctx, name, cfg["elements"])
    try:
        dop = build_dirac(dctx, tw, name=name)
    except ValueError as exc:
        raise ConfigError(f"element {name}: {exc}")
    base = {"group": cfg["rs"].name, "c": cfg["param"].label(),
            "tau": _config_echo(cfg)["tau"], "m": m, "C_name": name,
            "index": "", "eigenvalue": ""}
    try:
        spec = unitarity_and_spectrum(dop, m)
    except KeyError as exc:
        return [{**base, "status": f"error: degree {exc} outside the "
                                   "computed window"}]
    except (ValueError, RuntimeError) as exc:
        return [{**base, "status": f"error: {exc}"}]
    if not spec.get("unitary"):
        return [{**base, "status": spec["status"]}]
    return [{**base, "index": i, "eigenvalue": repr(v), "status": "ok"}
            for i, v in enumerate(spec["spectrum"])]


# -- entry point ---------------------------------------------------------------------


def _write_csv(path: str, columns, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
            w.writeheader()
            for r in rows:
                w.writerow(r)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="dunkldirac",
        description="exact verification engine for Dunkl angular momentum "
                    "algebras and their Dirac operators")
    sub = ap.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("verify", help="run identity suites")
    v.add_argument("--config", required=True)
    v.add_argument("--suite", default=None,
                   help="comma-separated subset of the suites")
    v.add_argument("--report", default=None,
                   help="write the JSON report here instead of stdout")

    t = sub.add_parser("table", help="sweep cohomology/spectrum data to CSV")
    t.add_argument("--config", required=True)
    t.add_argument("--sweep", required=True,
                   help="JSON list of {c, m, C, scale} points")
    t.add_argument("--out", required=True)

    s = sub.add_parser("spectrum", help="float spectrum of one operator "
                                        "slice to CSV")
    s.add_argument("--config", required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--C", required=True)
    s.add_argument("--out", required=True)

    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0

    try:
        cfg = load_config(args.config)
        if args.verb == "verify":
            suites = None
            if args.suite is not None:
                suites = [s.strip() for s in args.suite.split(",")
                          if s.strip()]
            report, code = run_verify(cfg, suites)
            payload = _report_bytes(report)
            if args.report:
                try:
                    with open(args.report, "wb") as fh:
                        fh.write(payload)
                except OSError as exc:
                    raise ConfigError(f"cannot write {args.report}: {exc}")
                summ = report["summary"]
                print(f"{'FAIL' if code else 'PASS'} "
                      f"{summ['records']} records "
                      f"({summ['pass']} pass, {summ['fail']} fail, "
                      f"{summ['skipped']} skipped)")
            else:
                sys.stdout.write(payload.decode())
            return code
        if args.verb == "table":
            try:
                with open(args.sweep, "r", encoding="utf-8") as fh:
                    sweep = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read sweep {args.sweep}: {exc}")
            except json.JSONDecodeError as exc:
                raise ConfigError(f"sweep {args.sweep} is not well-formed "
                                  f"JSON: {exc}")
            if not isinstance(sweep, list):
                raise ConfigError("sweep file must be a JSON list")
            rows = run_table(cfg, sweep)
            _write_csv(args.out, TABLE_COLUMNS, rows)
            return 0
        if args.verb == "spectrum":
            cols = ["group", "c", "tau", "m", "C_name", "index",
                    "eigenvalue", "status"]
            rows = run_spectrum(cfg, args.m, args.C)
            _write_csv(args.out, cols, rows)
            return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # an exact value whose float report cannot be written
        print(f"error: {exc}; the reports need it as a float",
              file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
