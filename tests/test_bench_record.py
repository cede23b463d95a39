"""tools/bench_record.py: parsing a benchmark report into a BENCH record."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record",
                                               ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

ENV = {"blas": "scipy-openblas", "blas_threads": 2, "nproc": 2,
       "git_commit": "5ce22be96563e62784df40cddc0a18feea57f7fa"}
FINAL = {"correct": True, "attempted": 13, "failed": 0,
         "metrics": {"wall_s": {"value": 7.517, "unit": "s"},
                     "setup_s": {"value": 0.472, "unit": "s"},
                     "peak_rss_mb": {"value": 72.24, "unit": "MB"}}}
CANNED = "\n".join([
    "perfbench workload=ber seed=1234 seconds=50 trace=0",
    "environment " + json.dumps(ENV, sort_keys=True),
    "  op fig7: n=7 median=4.3031 s q1=3.9093 q3=4.5603",
    "  op fig9: n=6 median=3.2140 s q1=3.1197 q3=3.4819",
    "  setup: n=7 median=0.4723 s q1=0.4658 q3=0.5075",
    "metric wall_s = 7.517 s",
    "checks: 13 operations, 0 failed checks",
    "  info: payload sha256 matches reference in 13/13 operations",
    "error_rate = 0/13 = 0.0",
    json.dumps(FINAL),
]) + "\n"


def test_parses_canned_report():
    rec = bench_record.parse(CANNED)
    assert rec["environment"] == ENV
    assert rec["ops"] == {
        "fig7": {"n": 7, "median_s": 4.3031, "q1_s": 3.9093, "q3_s": 4.5603},
        "fig9": {"n": 6, "median_s": 3.2140, "q1_s": 3.1197, "q3_s": 3.4819}}
    assert rec["setup"] == {"n": 7, "median_s": 0.4723, "q1_s": 0.4658, "q3_s": 0.5075}
    assert rec["result"] == FINAL


@pytest.mark.parametrize("broken", [
    CANNED.replace("environment ", "env "),            # no environment line
    CANNED.rsplit("\n", 2)[0] + "\n",                  # final JSON missing
    CANNED.replace('"metrics"', '"other"'),            # JSON without metrics
])
def test_incomplete_report_is_refused(broken):
    with pytest.raises(ValueError):
        bench_record.parse(broken)
