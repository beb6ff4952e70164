"""Benchmark of the exact engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload {verify-s4,pincover-s5,search-s3}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  A single-threaded closed loop starts
one fresh child process per workload execution, the next only after the
previous one exited, until S seconds have passed (at least one).  Every
result is checked against its pinned expectation.  After the loop of an
untraced run a few set-up-only children sample the set-up time again.

--trace 0 reports the end-to-end metrics, measured without
instrumentation.  --trace 1 alternates untraced and traced children and
reports the per-layer metrics of the traced ones, plus the tracing
overhead (traced over untraced wall time).  The last line of standard
output is one JSON object with keys correct, attempted, failed and
metrics; a result file with run metadata goes to perfbench/out/.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 6          # extra set-up-only children per run
HARD_LIMIT_S = 170.0      # every child is stopped by then

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
              "ok_frac": "ratio"}

# per-layer metrics and units; every workload reports all of them
PER_LAYER = {
    **{f"cli.suite.{s}.s": "s" for s in (
        "rca", "ama", "clifford", "pincover", "dirac", "scasimir",
        "vogan", "cohomology")},
    "cli.build_context.s": "s",
    "linalg.matmul.calls": "count",
    "linalg.matmul.self_s": "s",
    "linalg.matmul.madds": "count",
    "linalg.matmul.max_bits": "bits",
    "linalg.kernel.calls": "count",
    "linalg.kernel.self_s": "s",
    "linalg.kernel.nonempty_ratio": "ratio",
    "linalg.rank.self_s": "s",
    "linalg.intersection_dim.self_s": "s",
    "linalg.is_positive_definite.self_s": "s",
    "diracops.search.kernel_calls": "count",
    "diracops.nonzero_cohomology_search.self_s": "s",
    **{f"diracops.{f}.self_s": "s" for f in (
        "vogan_witness_check", "dirac_square_check",
        "c2_decomposition_check", "scasimir_check", "dirac_cohomology",
        "central_character_check", "unitarity_and_spectrum")},
    **{f"angmom.{f}.self_s": "s" for f in (
        "ama_relations_check", "msquared_identities_check",
        "casimir_centrality_check", "centralizer_check")},
    **{f"polyrep.{f}.self_s": "s" for f in (
        "y_op", "rca_relation_check", "harmonic_subspace",
        "contravariant_form")},
    "cover.cocycle_identity_check.self_s": "s",
    "cover.cocycle_identity_check.triples": "count",
    "clifford.mul.calls": "count",
    "cover.PinCover.self_s": "s",
    "roots.group.self_s": "s",
    "trace.overhead": "ratio",
}

# counts that must repeat exactly between traced runs of one workload
COUNT_SUFFIXES = (".calls", ".madds", ".max_bits", ".triples",
                  ".kernel_calls")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """Children launched by one benchmark run and their checked outcomes."""

    def __init__(self, workload, seed, expected=None):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.warnings = []
        self.versions = {}

    def child(self, setup_only=False, trace=None):
        """Launch one child and wait for it; returns (wall_s, report) with
        report None when the child failed or its result was wrong."""
        cmd = [sys.executable, str(HERE / "child.py"), "--workload",
               self.workload, "--seed", str(self.seed), "--out", str(OUT)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", str(trace)]
        self.attempted += 1
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=child_env(), cwd=ROOT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return self._fail(f"child timed out after {timeout:.0f} s")
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return self._fail(f"child exited {proc.returncode}: {tail[0]}")
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return self._fail("child printed no result")
        self.versions = {"python": report["python"],
                         "numpy": report["numpy"]}
        if not setup_only:
            bad = workloads.check(self.workload, self.seed,
                                  report["result"], self.expected)
            if bad:
                self.failed += 1
                self.mismatches += bad
                return wall, None
        return wall, report

    def _fail(self, why):
        self.failed += 1
        self.mismatches.append(f"{self.workload}: {why}")
        return None, None


def median(xs):
    return statistics.median(xs) if xs else 0.0


def measure(workload, seed, seconds, trace, expected=None) -> dict:
    """One closed-loop run; returns the summary printed as JSON."""
    OUT.mkdir(exist_ok=True)
    run = Run(workload, seed, expected)
    run.child(setup_only=True)          # warm-up: byte-compiles the engine
    walls, traced_walls, setups, rss, layer = [], [], [], [], []
    start = time.monotonic()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        path = OUT / f"trace-{workload}-seed{seed}-{i}.jsonl" \
            if traced else None
        wall, rep = run.child(trace=path)
        if rep is not None:
            if traced:
                traced_walls.append(wall)
                layer.append(rep["metrics"])
            else:
                walls.append(wall)
                setups.append(rep["setup_s"])
                rss.append(rep["rss_kib"] / 1024)
        i += 1
        done = time.monotonic() - start >= seconds
        if done and (not trace or i >= 2):
            break
    if trace:
        metrics = per_layer(layer, walls, traced_walls, run)
    else:
        for _ in range(SETUP_PROBES):
            _, rep = run.child(setup_only=True)
            if rep is not None:
                setups.append(rep["setup_s"])
        metrics = {
            "wall_s": min(walls, default=0.0), "setup_s": median(setups),
            "peak_rss_mib": median(rss),
            "ok_frac": 1.0 - run.failed / run.attempted}
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "mismatches": run.mismatches,
        "warnings": run.warnings,
        "samples": {"wall_s": walls, "traced_wall_s": traced_walls,
                    "setup_s": setups},
        "meta": {**run.versions, "nproc": nproc(),
                 "blas_threads": nproc(), "commit": git_commit(),
                 "seed": seed, "c": workloads.coupling(workload, seed),
                 "workload": workload, "seconds": seconds,
                 "trace": trace,
                 "platform": platform.platform()},
    }


def per_layer(layer, walls, traced_walls, run) -> dict:
    """Median per-layer metrics over the traced children."""
    out = {}
    for key in PER_LAYER:
        vals = [m.get(key, 0.0) for m in layer]
        out[key] = median(vals)
        if key.endswith(COUNT_SUFFIXES) and len(set(vals)) > 1:
            run.warnings.append(f"{key} differs between traced runs: "
                                  f"{vals}")
    if walls and traced_walls:
        out["trace.overhead"] = min(traced_walls) / min(walls)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dunkldirac" / "__init__.py").is_file():
        print(f"error: no engine source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    summary = measure(args.workload, args.seed, args.seconds, args.trace)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{name}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    meta = summary["meta"]
    print("meta: " + " ".join(f"{k}={meta[k]}" for k in (
        "workload", "seed", "c", "python", "numpy", "nproc",
        "blas_threads", "commit") if k in meta))
    for line in summary["mismatches"]:
        print(f"MISMATCH {line}")
    for line in summary["warnings"]:
        print(f"WARNING {line}")
    for k, m in summary["metrics"].items():
        print(f"{k:45s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':45s} "
          f"{summary['failed'] / summary['attempted']:.6g} ratio "
          f"({summary['failed']}/{summary['attempted']})")
    print(json.dumps({k: summary[k] for k in (
        "correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
