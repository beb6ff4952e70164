"""The benchmark's own tests: negative controls and trace determinism.

    python3 -m pytest perfbench/tests -q

Each test launches real benchmark children, so the module takes about
two minutes on two cores.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as bench  # noqa: E402
import workloads  # noqa: E402


def failed_frac(summary):
    return summary["failed"] / summary["attempted"]


# -- negative controls: a wrong answer cannot pass as fast ---------------------


def test_wrong_pinned_digest_fails():
    summary = bench.measure("pincover-s5", 0, seconds=0, trace=0,
                            expected="0" * 64)
    assert not summary["correct"]
    assert failed_frac(summary) > 0
    assert summary["metrics"]["ok_frac"]["value"] < 1
    assert any("report sha256" in m for m in summary["mismatches"])


def test_wrong_expected_scale_fails():
    wrong = {"1": ["289", 1], "2": ["432", 1]}
    summary = bench.measure("search-s3", 0, seconds=0, trace=0,
                            expected=wrong)
    assert not summary["correct"]
    assert failed_frac(summary) > 0
    assert any("expected (scale 289" in m for m in summary["mismatches"])


def test_check_rejects_inexact_search_result():
    good = {m: {"scale": s, "sign": g, "exact": True, "dim_h": 2}
            for m, (s, g) in workloads.EXPECTED["search-s3"]["1/6"].items()}
    assert workloads.check("search-s3", 0, good) == []
    bad = {**good, "2": {**good["2"], "exact": False}}
    assert workloads.check("search-s3", 0, bad)
    assert workloads.check("verify-s4", 0,
                           {"exit_code": 1,
                            "sha256": workloads.EXPECTED["verify-s4"]["1/3"]})


# -- determinism of the traced counts -------------------------------------------


def _traced(name, tag):
    run = bench.Run(name, 0)
    _, report = run.child(trace=bench.OUT / f"test-{name}-{tag}.jsonl")
    assert report is not None, run.mismatches
    return report["metrics"]


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith(bench.COUNT_SUFFIXES)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(name):
    bench.OUT.mkdir(exist_ok=True)
    first = _traced(name, "a")
    second = _traced(name, "b")
    assert _counts(first) and _counts(first) == _counts(second)
    layer = {k: v for k, v in first.items() if k.endswith(".self_s")}
    hot = max(layer, key=layer.get)
    if name == "search-s3":
        # the recorded profile of this search: 18 eigensplits, 4,536 kernels
        assert first["diracops.search.kernel_calls"] == 4536
        assert hot == "linalg.kernel.self_s"
    elif name == "verify-s4":
        assert hot == "linalg.matmul.self_s"
    else:
        order = 120
        assert first["cover.cocycle_identity_check.triples"] == order ** 3
        assert hot == "cover.cocycle_identity_check.self_s"
