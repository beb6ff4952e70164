"""One benchmark child process: set up, run one workload, report.

    python3 perfbench/child.py --workload NAME --seed N --out DIR
        [--setup-only] [--trace FILE]

Prints one JSON line: set-up time (import + load_config +
build_context), peak resident memory, the workload result and the
interpreter and numpy versions; with --trace also the per-layer
metrics, after writing the spans to FILE.
"""
import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None)
    args = ap.parse_args()

    cfg_path = Path(args.out) / f"config-{os.getpid()}.json"
    cfg_path.write_text(json.dumps(workloads.config(args.workload,
                                                    args.seed)))
    t_setup = time.perf_counter()
    sys.path.insert(0, str(SRC))
    spans = None
    if args.trace:
        spans = Tracer()
        spans.install()
    from dunkldirac import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"dunkldirac imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    try:
        cfg = cli.load_config(str(cfg_path))
    finally:
        cfg_path.unlink()
    dctx = cli._build(cfg)
    setup_s = time.perf_counter() - t_setup
    result = None
    if not args.setup_only:
        result = workloads.execute(args.workload, cli, cfg, dctx)
    import numpy
    out = {"setup_s": setup_s,
           "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "result": result, "python": platform.python_version(),
           "numpy": numpy.__version__}
    if spans is not None:
        spans.write(args.trace)
        out["metrics"] = spans.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
