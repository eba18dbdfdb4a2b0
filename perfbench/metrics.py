"""Metric names, units and how each is computed from a run.

`END_TO_END` and `PER_LAYER` are the lists `BENCHMARK.json` declares; the
self-test holds the two in step.  Per-layer figures come only from the
traced part of a run.  A function the workload never calls reads 0.
"""

from __future__ import annotations

from harness import LAYERS, median, self_times

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("scaled_wall_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

EXPORT_FORMATS = ("jsonl", "csv", "dot")
CHECKS = ("residue_cycle", "multiples", "closed_forms", "adjacent_initials", "sibling_gaps",
          "collision_parity", "uniqueness", "parent_pointers", "covering_templates",
          "covering_patterns", "initial_vertex_partition", "convergence")
CLI_COMMANDS = ("trajectory", "siblings", "tree", "verify", "cover")


def _per_layer_specs():
    """(name, unit, better) for every per-layer metric, in declaration order."""
    yield from (("arbor.build.s", "s", "lower"), ("arbor.build.nodes", "count", "higher"),
                ("arbor.build.nodes_per_s", "1/s", "higher"),
                ("arbor.build.bytes_per_node", "B", "lower"),
                ("arbor.build.levels", "count", "higher"))
    for fmt in EXPORT_FORMATS:
        yield from ((f"arbor.export.{fmt}.s", "s", "lower"),
                    (f"arbor.export.{fmt}.bytes", "B", "lower"),
                    (f"arbor.export.{fmt}.mb_per_s", "MB/s", "higher"))
    yield from (("arbor.coverage.s", "s", "lower"),
                ("arbor.coverage.odd_values_per_s", "1/s", "higher"),
                ("arbor.path_to.calls_per_s", "1/s", "higher"),
                ("arbor.classify_edge.calls_per_s", "1/s", "higher"),
                ("forward.trajectory_summary.starts_per_s", "1/s", "higher"),
                ("forward.trajectory.s", "s", "lower"),
                ("forward.trajectory.steps_per_s", "1/s", "higher"),
                ("inverse.branch_forms.calls_per_s", "1/s", "higher"),
                ("inverse.siblings.children_per_s", "1/s", "higher"),
                ("core.base_sequences.s", "s", "lower"))
    for check in CHECKS:
        yield from ((f"verify.{check}.s", "s", "lower"),
                    (f"verify.{check}.cases_per_s", "1/s", "higher"))
    yield from (("cli.python_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower"))
    for command in CLI_COMMANDS:
        yield f"cli.{command}.p50_ms", "ms", "lower"
    for layer in LAYERS:
        yield from ((f"{layer}.self_s", "s", "lower"), (f"{layer}.self_pct", "%", "lower"),
                    (f"{layer}.failed", "count", "lower"))
    yield "trace_overhead_pct", "%", "lower"


PER_LAYER = tuple(_per_layer_specs())


def _total(group, name):
    spent = group.durations.get(name)
    return sum(spent) if spent else None


def _rate(groups, name, key=None, scale=1.0):
    """Median over groups of (calls, or work[key]) per second spent in `name`."""
    def one(g):
        spent = _total(g, name)
        amount = len(g.durations.get(name, ())) if key is None else g.work.get(key)
        return amount / spent * scale if spent and amount is not None else None
    return median(one(g) for g in groups)


def _work(groups, key):
    return median(g.work.get(key) for g in groups)


def pass_self_times(runner) -> list[tuple[float, dict[str, float]]]:
    """For each traced pass: its duration, and span name -> summed self time.

    The "pass" entry is the pass's own self time, the harness's overhead.
    """
    own = self_times(runner.spans)
    passes = {s.id: (s.end - s.start, {"pass": own[s.id]})
              for s in runner.spans if s.parent is None and s.name == "pass"}
    for s in runner.spans:
        if s.parent in passes:
            bucket = passes[s.parent][1]
            bucket[s.name] = bucket.get(s.name, 0.0) + own[s.id]
    return list(passes.values())


def per_layer(runner, python_ms: list[float], import_s: list[float]) -> dict[str, float]:
    groups = [g for g in runner.groups if g.traced and g.kind in ("setup", "pass")]
    passes = runner.passes(True)
    m: dict[str, float] = {
        "arbor.build.s": median(_total(g, "arbor.build") for g in groups),
        "arbor.build.nodes": _work(groups, "arbor.build.nodes"),
        "arbor.build.nodes_per_s": _rate(groups, "arbor.build", "arbor.build.nodes"),
        "arbor.build.bytes_per_node": (runner.first_build[0] / runner.first_build[1]
                                       if runner.first_build else 0.0),
        "arbor.build.levels": _work(groups, "arbor.build.levels"),
    }
    for fmt in EXPORT_FORMATS:
        name = f"arbor.export.{fmt}"
        m[f"{name}.s"] = median(_total(g, name) for g in groups)
        m[f"{name}.bytes"] = _work(groups, f"{name}.bytes")
        m[f"{name}.mb_per_s"] = _rate(groups, name, f"{name}.bytes", 1e-6)
    m["arbor.coverage.s"] = median(_total(g, "arbor.coverage") for g in groups)
    m["arbor.coverage.odd_values_per_s"] = _rate(groups, "arbor.coverage",
                                                 "arbor.coverage.odd_values")
    m["arbor.path_to.calls_per_s"] = _rate(groups, "arbor.path_to")
    m["arbor.classify_edge.calls_per_s"] = _rate(groups, "arbor.classify_edge")
    m["forward.trajectory_summary.starts_per_s"] = _rate(groups, "forward.trajectory_summary")
    m["forward.trajectory.s"] = median(_total(g, "forward.trajectory") for g in groups)
    m["forward.trajectory.steps_per_s"] = _rate(groups, "forward.trajectory",
                                                "forward.trajectory.steps")
    m["inverse.branch_forms.calls_per_s"] = _rate(groups, "inverse.branch_forms")
    m["inverse.siblings.children_per_s"] = _rate(groups, "inverse.siblings",
                                                 "inverse.siblings.children")
    m["core.base_sequences.s"] = median(_total(g, "core.base_sequences") for g in groups)
    for check in CHECKS:
        # the package times each check itself; two checks can share one suite call
        elapsed = [g.work.get(f"verify.{check}.elapsed") for g in groups]
        cases = [g.work.get(f"verify.{check}.cases") for g in groups]
        m[f"verify.{check}.s"] = median(elapsed)
        m[f"verify.{check}.cases_per_s"] = median(
            c / e for c, e in zip(cases, elapsed) if c is not None and e)
    m["cli.python_ms"] = median(python_ms)
    m["cli.import_ms"] = median(s * 1000.0 for s in import_s)
    for command in CLI_COMMANDS:
        m[f"cli.{command}.p50_ms"] = median(
            d * 1000.0 for g in passes for d in g.durations.get(f"cli.{command}", ()))
    timed = pass_self_times(runner)
    for layer in LAYERS:
        spent = [(sum(t for name, t in bucket.items() if name.split(".", 1)[0] == layer), wall)
                 for wall, bucket in timed]
        m[f"{layer}.self_s"] = median(t for t, _ in spent)
        m[f"{layer}.self_pct"] = median(100.0 * t / wall for t, wall in spent)
        m[f"{layer}.failed"] = runner.failed[layer]
    untraced = median(g.scaled_wall() for g in runner.passes(False))
    traced = median(g.scaled_wall() for g in passes)
    m["trace_overhead_pct"] = (traced / untraced - 1.0) * 100.0 if untraced else 0.0
    return {k: float(v) for k, v in m.items()}
