"""The committed benchmark records BENCH_*.json against BENCHMARK.json.

A record compares the parent commit and the change over alternating
pairs of perfbench/run.py runs.  It may name only the benchmark's
workloads and end-to-end metrics, and every metric carries both sides:
their runs in pair order, and the median and quartiles of those runs
(statistics.median and statistics.quantiles(runs, n=4)).
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_names_the_benchmark_and_carries_both_sides(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    workloads = {w["name"] for w in SPEC["workloads"]}
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    pairs = record["pairs"]
    assert isinstance(pairs, int) and pairs >= 2
    assert record["run_seconds"] == SPEC["run_seconds"]
    assert isinstance(record["env"], dict) and record["env"]
    assert record["workloads"] and set(record["workloads"]) <= workloads
    for workload, by_metric in record["workloads"].items():
        seeds = record["seeds"][workload]
        assert len(seeds) == pairs and len(set(seeds)) == pairs
        assert by_metric and set(by_metric) <= metrics
        for metric, sides in by_metric.items():
            assert set(sides) == {"parent", "change"}, (workload, metric)
            for side in sides.values():
                runs = side["runs"]
                assert len(runs) == pairs
                assert side["median"] == statistics.median(runs)
                assert [side["q1"], side["q3"]] == \
                    statistics.quantiles(runs, n=4)[::2]
