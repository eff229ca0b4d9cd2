"""Self-test of the benchmark on reduced sizes of every workload.

Run from the root of a checkout:

    python3 -m pytest perfbench

It checks that each metric named in BENCHMARK.json is emitted with its
unit, that end-to-end values are positive, and that the count metrics
repeat exactly across two traced invocations.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def work():
    path = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _units(result):
    return {n: result.units[n] for n in result.metrics}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_end_to_end_metrics_emitted(name, work):
    result = bench.measure(name, 1, 0, False, work / "run", small=True)
    assert result.correct, result.lines
    assert result.failed == 0 and result.attempted >= 1 + bench.MIN_TIMED
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(result) == expected
    assert all(v > 0 for v in result.metrics.values()), result.metrics
    line = json.loads(result.json())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == expected


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_layer_counts_repeat(name, work):
    first = bench.measure(name, 1, 0, True, work / "a", small=True,
                          spans_csv=work / "spans.csv")
    second = bench.measure(name, 1, 0, True, work / "b", small=True)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert result.correct, result.lines
        assert _units(result) == expected
    for n in bench.EXACT:
        assert first.metrics[n] == second.metrics[n], n
    assert (work / "spans.csv").read_text(encoding="ascii").startswith("span_id,name,")
