"""Run one collatz-arbor benchmark workload and print its result.

    python3 perfbench/run.py --workload verify --seed 7 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from `src/`, so
nothing needs installing.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The line before it
holds the run stamp and the workload's own figures.  Both are also written
to `perfbench/out/`, with the spans of a traced run beside them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
import time
import uuid
from pathlib import Path
from types import SimpleNamespace

from harness import (LAYERS, Runner, bare_python_ms, import_seconds, measure, median,
                     peak_rss_mb)
from metrics import END_TO_END, PER_LAYER, pass_self_times, per_layer
from workloads import FULL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_REPEATS = 21
PYTHON_PROBES = 5


def load_package() -> SimpleNamespace:
    """Import the six modules from this checkout's src/, never from elsewhere."""
    if not (SRC / "collatz_arbor" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}; "
                         "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"collatz_arbor.{name}") for name in LAYERS}
    for module in modules.values():
        if SRC not in Path(module.__file__).resolve().parents:
            raise SystemExit(f"error: {module.__name__} was imported from {module.__file__}")
    return SimpleNamespace(**modules)


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return None


def run_stamp(workload: str, seed: int, trace: bool, out_dir: Path) -> dict:
    """What an audit of interleaved runs on a busy machine needs to know."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "collatz_arbor").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "commit": commit, "source_sha256": source.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_before": _loadavg(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # run order: results already written by earlier runs in this checkout
        "run_index": len(list(out_dir.glob("*.result.json"))) if out_dir.is_dir() else 0,
    }


def run(pkg, name: str, box, seed: int, seconds: float, trace: bool):
    """Set up, measure and score one workload; return (result, detail, runner)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workload = WORKLOADS[name](pkg, box, seed, env, str(ROOT))
    runner = Runner(uuid.uuid4().hex[:12])
    runner.tracing = trace
    imports = [import_seconds(env) for _ in range(IMPORT_REPEATS)]
    prepared = []
    for _ in range(SETUP_REPEATS):
        prepared.append(runner.run_group("setup", lambda: workload.prepare(runner)).scaled_wall())
        runner.settle()
    with runner.group("expect"):
        workload.expect(runner)
    runner.settle()
    measure(workload, runner, seconds, trace)
    probes = bare_python_ms(env, PYTHON_PROBES) if trace else []

    attempted, failed = sum(runner.attempted.values()), sum(runner.failed.values())
    passes = runner.passes(False)
    wall_s = median(g.wall for g in passes)
    detail = {
        "passes": len(passes), "traced_passes": len(runner.passes(True)),
        "error_rate": failed / attempted,
        **workload.headline(passes, wall_s),
        "wall_s": wall_s, "pass_walls_s": [g.wall for g in passes],
        "probe_ms": median(s for g in passes for s in g.samples) * 1000.0,
        "failures": runner.failures,
    }
    if trace:
        metrics = per_layer(runner, probes, imports)
        units = {n: u for n, u, _ in PER_LAYER}
        shares = {}
        for wall, bucket in pass_self_times(runner):
            for span, spent in bucket.items():
                shares.setdefault(span, []).append(100.0 * spent / wall)
        detail["self_pct_by_span"] = dict(sorted(
            ((span, round(median(v), 3)) for span, v in shares.items()),
            key=lambda kv: -kv[1]))
    else:
        metrics = {"setup_s": median(imports) + median(prepared),
                   "scaled_wall_s": median(g.scaled_wall() for g in passes),
                   "peak_rss_mb": peak_rss_mb(children=name == "cli")}
        units = {n: u for n, u, _, _ in END_TO_END}
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, detail, runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = load_package()
    out_dir = HERE / "out"
    stamp = run_stamp(args.workload, args.seed, bool(args.trace), out_dir)
    result, detail, runner = run(pkg, args.workload, FULL[args.workload], args.seed,
                                 args.seconds, bool(args.trace))
    stamp["loadavg_after"] = _loadavg()

    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{stamp['started_utc'].replace(':', '')}-{args.workload}-{runner.run_id}"
    if args.trace:
        with open(f"{stem}.spans.jsonl", "w") as f:
            for s in runner.spans:
                f.write(json.dumps({"run_id": runner.run_id, **dataclasses.asdict(s)}) + "\n")
    with open(f"{stem}.result.json", "w") as f:
        json.dump({"stamp": stamp, "detail": detail, "result": result}, f, indent=1)
    print(json.dumps({"stamp": stamp, "detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
