"""Tests of the benchmark itself (not part of the hc3 suite):

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402


def _reduced(name, seed=3):
    wl = workloads.build(name, seed, reduced=True)
    wl.resolve_references()
    return wl


GROUPS = [n for n in workloads.WORKLOADS if n not in workloads.MERGED]


@pytest.mark.parametrize("name", GROUPS)
def test_every_workload_runs_reduced(name):
    wl = _reduced(name)
    assert wl.tasks
    result = run.execute(wl, 0, trace=False)
    assert [f for p in result["passes"] for f in p["failed"]] == []


@pytest.mark.parametrize("name", sorted(workloads.MERGED))
def test_merged_workload_is_its_groups(name):
    merged = workloads.build(name, 5).inputs
    assert merged == [i for g in workloads.MERGED[name] for i in workloads.build(g, 5).inputs]


def test_wrong_reference_is_caught(monkeypatch, capsys):
    wl = _reduced("pack")
    wl.tasks[0].reference = {**wl.tasks[0].reference, "optimum": -1}
    monkeypatch.setattr(workloads, "build", lambda name, seed: wl)
    code = run.main(["--workload", "pack", "--seed", "3", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // len(wl.tasks) >= 3
    assert result["metrics"]["certified_share"]["value"] < 1


COUNTS = {
    "pack": ["solver.nodes"],
    "cells": ["perturbations.excitation_nodes", "voronoi.min_cell_nodes"],
    "stack": ["embeddings.embeddings"],
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_counts_repeat_exactly(name):
    seen = []
    for _ in range(2):
        layers = run.execute(_reduced(name), 0, trace=True)["layers"]
        seen.append([{k: m[k] for k in COUNTS[name]} for m in layers])
    assert all(v > 0 for m in seen[0] for v in m.values())
    assert seen[0][0] == seen[0][1] == seen[1][0] == seen[1][1]


def test_self_time_subtracts_children():
    spans = [
        Span("task", 0.0, 10.0, None, "t"),
        Span("a", 1.0, 3.0, 0, "t"),
        Span("b", 4.0, 8.0, 0, "t"),
        Span("a", 5.0, 6.0, 2, "t"),
    ]
    assert self_times(spans) == {"task": 4.0, "a": 3.0, "b": 3.0}
