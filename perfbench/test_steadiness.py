"""Steadiness of the benchmark itself.

    python3 -m pytest perfbench/test_steadiness.py -q

Slow (about 13 minutes): each test runs the benchmark command several
times per workload at the configured run length. Not part of the
repository's tier-1 tests, which collect only tests/.
"""

from __future__ import annotations

import statistics

import pytest

from perfbench.steady import SPEC, run_once

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "bit", "B"}
RUNS_PER_SET = 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat(workload):
    first, second = run_once(workload, 1729, trace=1), run_once(workload, 1729, trace=1)
    assert first["correct"] and second["correct"]
    for metric in SPEC["per_layer"]:
        if metric["unit"] in COUNT_UNITS:
            name = metric["name"]
            assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_medians_of_two_sets_agree(workload):
    seeds = range(1, 1 + RUNS_PER_SET)
    sets = [[run_once(workload, seed)["metrics"] for seed in seeds] for _ in range(2)]
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        first, second = (statistics.median(r[name]["value"] for r in runs) for runs in sets)
        assert abs(second - first) <= metric["bound"] * first, (name, first, second)
