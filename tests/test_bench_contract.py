"""The benchmark's output contract, run against this checkout.

Every workload must answer correctly and report every metric that
``BENCHMARK.json`` names: a traced run all of its ``per_layer`` metrics, an
untraced run exactly its ``end_to_end`` metrics.  A metric reported as 0 is
a measurement; a metric that is missing, for example because a function the
tracer wraps was deleted or renamed, makes the run's output unusable.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    """(report, result) of one short benchmark run of this checkout."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert result["correct"] is True, report_line
    return json.loads(report_line)["report"], result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    report, result = _run(workload, trace=1)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert report["absent_metrics"] == []
    assert report["absent_spans"] == []
    assert report["hook_errors"] == {}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_the_end_to_end_metrics(workload):
    _report, result = _run(workload, trace=0)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
