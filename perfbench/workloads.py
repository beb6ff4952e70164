"""The three benchmark workloads, their pinned inputs and expected outputs.

A workload's seed picks the coupling c from a short pinned list; every
entry takes the same code path (same check ids and statuses, same kernel
call count) and has its own pinned expected output.  Seed 0 is the
default configuration of each workload.
"""
import hashlib

WORKLOADS = {
    # all eight verify suites on S4: dominated by exact sparse matmuls
    "verify-s4": {
        "kind": "verify",
        "config": {"group": "S4", "tau": "trivial", "max_degree": 3,
                   "suites": "all"},
        "couplings": ["1/3", "1/5", "1/4", "2/5"],
    },
    # the pincover suite on S5: the |W|^3 cocycle scan and the Clifford
    # products that fill the cocycle memo
    "pincover-s5": {
        "kind": "verify",
        "config": {"group": "S5", "tau": "trivial", "max_degree": 2,
                   "suites": ["pincover"]},
        "couplings": ["1/3", "1/5", "1/4", "2/5"],
    },
    # the rescaling search on S3 with seed C2: exact kernels of the
    # eigenvalue candidate sweep
    "search-s3": {
        "kind": "search",
        "config": {"group": "S3", "tau": "trivial", "max_degree": 4},
        "couplings": ["1/6", "1/5", "1/7", "1/8"],
        "element": "C2",
        "degrees": [1, 2],
    },
}

# verify workloads: exit code 0 and the SHA-256 of the report bytes;
# search: (scale, sign) per degree, with an exact result and dim_h == 2
EXPECTED = {
    "verify-s4": {
        "1/3":
            "68a97dbd3a237d7ce2c3dc3d7ca638452a3bf037bf780e9cc084c809cec14142",
        "1/5":
            "5ffba64b1f7866ce7c64b635e101bd468ee6f1a7bffdf963679f4f78b209acb8",
        "1/4":
            "26bdf0e9ce6273dbeb8c9d55d1abe5223ef448431b2ddec859b7108b52219b79",
        "2/5":
            "22c4a02794028a8195b6f06888bdc8684f799fe2f6cb8b40d7ef6377831fa11c",
    },
    "pincover-s5": {
        "1/3":
            "7f60ff5f0c1919d6bcf4de73e2dcf6ce110c432328c2b59b0d38e584bcb48168",
        "1/5":
            "5a394794e763befac27ee801f6016a5b41378ee997256dd016479142a7357427",
        "1/4":
            "dae60a8ffa01739da6cc18e61cd9e33879f00e0cc8a054f3e4ff05dd8c7f9c30",
        "2/5":
            "fa0f35bcf9d3a42a12b4e633914ba039961f43b61fcd81fb95f3ad74fe310c63",
    },
    "search-s3": {
        "1/6": {"1": ["288", 1], "2": ["432", 1]},
        "1/5": {"1": ["210", 1], "2": ["310", 1]},
        "1/7": {"1": ["378", 1], "2": ["574", 1]},
        "1/8": {"1": ["480", 1], "2": ["736", 1]},
    },
}

SEARCH_DIM_H = 2


def coupling(name: str, seed: int) -> str:
    couplings = WORKLOADS[name]["couplings"]
    return couplings[seed % len(couplings)]


def config(name: str, seed: int) -> dict:
    return {**WORKLOADS[name]["config"], "c": coupling(name, seed)}


def execute(name: str, cli, cfg: dict, dctx) -> dict:
    """Run the measured part of a workload on a built context.

    `cli` is the engine's `dunkldirac.cli` module; entry points are looked
    up on their modules at call time so a traced run sees its wrappers.
    """
    wl = WORKLOADS[name]
    if wl["kind"] == "verify":
        # run_verify builds its own context; hand it the one set-up built
        cli._build = lambda _cfg: dctx
        report, code = cli.run_verify(cfg)
        digest = hashlib.sha256(cli._report_bytes(report)).hexdigest()
        return {"exit_code": code, "sha256": digest}
    from dunkldirac import diracops
    seed_elem = cli.resolve_element(dctx, wl["element"], cfg["elements"])
    out = {}
    for m in wl["degrees"]:
        scale, sign, coh = diracops.nonzero_cohomology_search(
            dctx, m, seed_elem, wl["element"])
        out[str(m)] = {"scale": str(scale), "sign": sign,
                       "exact": bool(coh.exact), "dim_h": coh.dim_h}
    return out


def check(name: str, seed: int, result, expected=None) -> list:
    """Mismatches between a workload result and its pinned expectation."""
    c = coupling(name, seed)
    want = EXPECTED[name][c] if expected is None else expected
    if not isinstance(result, dict):
        return [f"{name} c={c}: no result"]
    if WORKLOADS[name]["kind"] == "verify":
        bad = []
        if result.get("exit_code") != 0:
            bad.append(f"{name} c={c}: verify exit code "
                       f"{result.get('exit_code')}, expected 0")
        if result.get("sha256") != want:
            bad.append(f"{name} c={c}: report sha256 {result.get('sha256')}"
                       f", expected {want}")
        return bad
    bad = []
    for m, (scale, sign) in want.items():
        got = result.get(m)
        if got is None:
            bad.append(f"{name} c={c} m={m}: missing")
            continue
        if (got["scale"], got["sign"]) != (scale, sign):
            bad.append(f"{name} c={c} m={m}: (scale {got['scale']}, sign "
                       f"{got['sign']}), expected (scale {scale}, sign "
                       f"{sign})")
        if not got["exact"] or got["dim_h"] != SEARCH_DIM_H:
            bad.append(f"{name} c={c} m={m}: exact={got['exact']} "
                       f"dim_h={got['dim_h']}, expected exact=True "
                       f"dim_h={SEARCH_DIM_H}")
    return bad
