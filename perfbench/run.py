"""hc3 benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 50 --trace 0

Run from the root of a checkout that holds ``src/hc3``.  The workload's
seeded tasks run back to back (each starts when the previous one returns)
in passes over the whole task list: one warm-up pass, then passes until the
next one would end after ``--seconds``.  Every answer is checked against its
reference; any mismatch makes the exit code 1.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
untraced and traced passes alternate; the per-layer metrics come from the
traced passes and the tracing overhead is the difference of the two median
pass times.  Human-readable lines come first; the last line of standard
output is one JSON object.  A record with the inputs, per-task times and
spans is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from tracing import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
MIN_PASSES = 2  # per kind of pass

LAYER_SPANS = (
    "solver.max_packing",
    "solver.count",
    "solver.mod_translations",
    "admissibility.exclusion_graph",
    "admissibility.insertion_candidates",
    "admissibility.is_admissible",
    "lattice.quotient",
    "lattice.shortest_vectors",
    "catalog.build_layered",
    "catalog.classify_stacking",
    "documents.roundtrip",
    "voronoi.voronoi_cell",
    "voronoi.tessellation_check",
    "voronoi.min_cell_search",
    "embeddings.embedding_classes",
    "embeddings.admits_layered",
    "perturbations.enumerate_excitations",
    "perturbations.min_insertion_order",
    "perturbations.standard_selectors",
    "perturbations.find_sliding",
)
LAYER_COUNTS = (
    "solver.nodes",
    "admissibility.graph_edges",
    "lattice.period_max_sq_norm",
    "voronoi.cells",
    "voronoi.min_cell_nodes",
    "embeddings.embeddings",
    "perturbations.excitation_nodes",
)
UNITS = {
    "solver.nodes_per_s": "1/s",
    "solver.optima_per_node": "ratio",
    "perturbations.slide_hit_ratio": "ratio",
}


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from process start until the
    workload's first task is ready (imports, seeded inputs, input
    configurations)."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as p:
            line = p.stdout.readline()
            elapsed = time.perf_counter() - t0
            p.stdout.read()
        if p.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {p.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def run_pass(tasks, tracer) -> dict:
    """Run every task once, in order; return the wall time, per-task times
    and the tasks whose answer missed the reference."""
    times, failed = [], []
    start = time.perf_counter()
    for task in tasks:
        tracer.task = task.id
        t0 = time.perf_counter()
        try:
            with tracer.span("task"):
                answer = task.run(tracer)
        except Exception as exc:  # a raising task is a failed task
            answer = {"raised": repr(exc)}
        times.append(time.perf_counter() - t0)
        if answer != task.reference:
            failed.append({"task": task.id, "answer": repr(answer)})
    tracer.task = None
    return {"wall": time.perf_counter() - start, "times": times, "failed": failed}


def layer_metrics(tracer, span_start: int) -> dict[str, float]:
    """Per-layer metrics of the traced pass whose spans start at span_start."""
    own = self_times(tracer.spans[span_start:], span_start)
    c = tracer.counts
    m = {f"{name}_s": own.get(name, 0.0) for name in LAYER_SPANS}
    m.update({name: c.get(name, 0) for name in LAYER_COUNTS})
    solve_s = sum(m[f"solver.{f}_s"] for f in ("max_packing", "count", "mod_translations"))
    m["solver.nodes_per_s"] = c.get("solver.nodes", 0) / solve_s if solve_s else 0.0
    count_nodes = c.get("solver.count_nodes", 0)
    m["solver.optima_per_node"] = c.get("solver.optima", 0) / count_nodes if count_nodes else 0.0
    probes = c.get("perturbations.slide_probes", 0)
    m["perturbations.slide_hit_ratio"] = (
        c.get("perturbations.slide_moves", 0) / probes if probes else 0.0
    )
    return m


def execute(wl, seconds: float, trace: bool) -> dict:
    """Warm-up pass, then measured passes for `seconds`; untraced and traced
    passes alternate when `trace` is set."""
    tracer = Tracer()
    passes = [run_pass(wl.tasks, tracer)]
    passes[0]["kind"] = "warm-up"
    kinds = ("untraced", "traced") if trace else ("untraced",)
    measured: dict[str, list[dict]] = {k: [] for k in kinds}
    layers: list[dict] = []
    begin = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        done = all(len(v) >= MIN_PASSES for v in measured.values())
        walls = [p["wall"] for v in measured.values() for p in v]
        if done and time.perf_counter() - begin + statistics.median(walls) > seconds:
            break
        tracer.enabled = kind == "traced"
        tracer.counts = {}
        span_start = len(tracer.spans)
        p = run_pass(wl.tasks, tracer)
        p["kind"] = kind
        if tracer.enabled:
            layers.append(layer_metrics(tracer, span_start))
        measured[kind].append(p)
        passes.append(p)
        i += 1
    tracer.enabled = False
    return {"passes": passes, "measured": measured, "layers": layers, "tracer": tracer}


def summarize(result: dict, setup_s: float, trace: bool) -> tuple[dict, int, int]:
    attempted = sum(len(p["times"]) for p in result["passes"])
    failed = sum(len(p["failed"]) for p in result["passes"])
    untraced = result["measured"]["untraced"]
    wall_s = statistics.median(p["wall"] for p in untraced)
    if not trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "max_task_s": (statistics.median(max(p["times"]) for p in untraced), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "certified_share": (1 - failed / attempted, "ratio"),
        }
        return metrics, attempted, failed
    layers = result["layers"]
    metrics = {}
    for name, first in layers[0].items():
        # counts repeat exactly, so median_low keeps them whole numbers
        median = statistics.median_low if isinstance(first, int) else statistics.median
        unit = UNITS.get(name, "s" if name.endswith("_s") else "count")
        metrics[name] = (median(m[name] for m in layers), unit)
    traced_wall = statistics.median(p["wall"] for p in result["measured"]["traced"])
    metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
    return metrics, attempted, failed


def write_record(wl, args, result, metrics) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json"
    record = {
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": args.seconds,
        "inputs": wl.inputs,
        "references": [
            {"task": t.id, "reference": repr(t.reference), "source": t.source}
            for t in wl.tasks
        ],
        "passes": [
            {
                "kind": p["kind"],
                "wall": p["wall"],
                "task_times": dict(zip((t.id for t in wl.tasks), p["times"])),
                "failed": p["failed"],
            }
            for p in result["passes"]
        ],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": [asdict(s) for s in result["tracer"].spans],
    }
    path.write_text(json.dumps(record, indent=1))
    return path


def main(argv=None) -> int:
    if not (SRC / "hc3" / "__init__.py").is_file():
        print(f"perfbench: no hc3 sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_s = measure_setup(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed)
    wl.resolve_references()
    result = execute(wl, args.seconds, bool(args.trace))
    metrics, attempted, failed = summarize(result, setup_s, bool(args.trace))

    for entry in wl.inputs:
        print("input", json.dumps(entry))
    for p in result["passes"]:
        for f in p["failed"]:
            print(f"FAILED {f['task']}: {f['answer']}")
    print(f"passes {len(result['passes']) - 1} measured after 1 warm-up")
    print(f"metric failed_share {failed / attempted} ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print("record", write_record(wl, args, result, metrics).relative_to(ROOT))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
